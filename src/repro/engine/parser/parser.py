"""Recursive-descent parser for the engine's SQL subset.

Supported grammar (case-insensitive keywords)::

    statement   := select | insert | update | delete
                 | create_table | create_index | drop_table
    select      := SELECT [DISTINCT] items FROM ident [WHERE expr]
                   [ORDER BY order_items] [LIMIT n [OFFSET m]]
    items       := '*' | item (',' item)*
    item        := agg '(' ['DISTINCT'] (expr|'*') ')' [AS ident]
                 | expr [AS ident]
    insert      := INSERT INTO ident ['(' idents ')'] VALUES tuple (',' tuple)*
    update      := UPDATE ident SET ident '=' expr (',' ...)* [WHERE expr]
    delete      := DELETE FROM ident [WHERE expr]
    create_table:= CREATE TABLE [IF NOT EXISTS] ident '(' coldefs ')'
    create_index:= CREATE INDEX ident ON ident '(' ident ')' [USING ident]
    drop_table  := DROP TABLE [IF EXISTS] ident

Expression precedence (low to high): OR, AND, NOT, comparison /
IN / BETWEEN / LIKE / IS NULL, additive, multiplicative, unary minus.

Serving paths call :func:`parse_cached` (or :func:`shaped_statement`),
which lexes a statement's text once, memoised on the raw text, and
parses only a statement *shape* it has not seen before: a statement
whose shape is cached binds its params into that shape's template
(:mod:`repro.engine.parser.shapes`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict, namedtuple
from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..errors import ParseError
from ..expr import (
    Arithmetic,
    Between,
    ColumnRef,
    Comparison,
    Expression,
    InList,
    InSubquery,
    IsNull,
    Like,
    Literal,
    Logical,
    Negate,
    Not,
    ScalarSubquery,
)
from ..schema import Column
from ..types import DataType
from .ast import (
    CreateIndexStatement,
    CreateTableStatement,
    DeleteStatement,
    DropTableStatement,
    ExplainStatement,
    InsertStatement,
    JoinClause,
    OrderItem,
    SelectItem,
    SelectStatement,
    Statement,
    TransactionStatement,
    UpdateStatement,
)
from .lexer import Token, tokenize
from .normalize import normalize_sql
from .shapes import Template, shape_of

AGGREGATES = ("COUNT", "SUM", "AVG", "MIN", "MAX")


class Parser:
    """Single-statement SQL parser. Use :func:`parse` instead of this
    class directly unless you need token-level control."""

    def __init__(self, sql: str, tokens: Optional[List[Token]] = None):
        self.sql = sql
        self.tokens = tokenize(sql) if tokens is None else tokens
        self.position = 0
        #: ``id()`` of each value Literal built -> index of its token
        #: (how the statement cache finds a shape's slots).
        self.literal_tokens: Dict[int, int] = {}

    # -- token helpers ---------------------------------------------------

    def _peek(self) -> Token:
        return self.tokens[self.position]

    def _advance(self) -> Token:
        token = self.tokens[self.position]
        if token.kind != "eof":
            self.position += 1
        return token

    def _expect_keyword(self, *names: str) -> Token:
        token = self._peek()
        if not token.is_keyword(*names):
            raise ParseError(
                f"expected {' or '.join(names)}, found {token.value or 'end of input'!r}",
                token.position,
            )
        return self._advance()

    def _expect_operator(self, symbol: str) -> Token:
        token = self._peek()
        if not token.is_operator(symbol):
            raise ParseError(
                f"expected {symbol!r}, found {token.value or 'end of input'!r}",
                token.position,
            )
        return self._advance()

    def _expect_identifier(self) -> str:
        token = self._peek()
        if token.kind != "identifier":
            raise ParseError(
                f"expected identifier, found {token.value or 'end of input'!r}",
                token.position,
            )
        self._advance()
        return token.value

    def _accept_keyword(self, *names: str) -> bool:
        if self._peek().is_keyword(*names):
            self._advance()
            return True
        return False

    def _accept_operator(self, symbol: str) -> bool:
        if self._peek().is_operator(symbol):
            self._advance()
            return True
        return False

    # -- entry point -----------------------------------------------------

    def parse_statement(self) -> Statement:
        """Parse exactly one statement, allowing a trailing semicolon."""
        if self._accept_keyword("EXPLAIN"):
            inner = self.parse_statement()
            return ExplainStatement(statement=inner)
        token = self._peek()
        if token.is_keyword("SELECT"):
            statement = self._parse_select()
        elif token.is_keyword("INSERT"):
            statement = self._parse_insert()
        elif token.is_keyword("UPDATE"):
            statement = self._parse_update()
        elif token.is_keyword("DELETE"):
            statement = self._parse_delete()
        elif token.is_keyword("CREATE"):
            statement = self._parse_create()
        elif token.is_keyword("DROP"):
            statement = self._parse_drop()
        elif token.is_keyword("BEGIN", "COMMIT", "ROLLBACK"):
            statement = self._parse_transaction()
        else:
            raise ParseError(
                f"expected a statement, found {token.value or 'end of input'!r}",
                token.position,
            )
        self._accept_operator(";")
        trailing = self._peek()
        if trailing.kind != "eof":
            raise ParseError(
                f"unexpected trailing input {trailing.value!r}", trailing.position
            )
        return statement

    # -- statements ------------------------------------------------------

    def _parse_select(self) -> SelectStatement:
        self._expect_keyword("SELECT")
        distinct = self._accept_keyword("DISTINCT")
        items = self._parse_select_items()
        self._expect_keyword("FROM")
        table, table_alias = self._parse_table_ref()
        joins = []
        while True:
            join = self._parse_join()
            if join is None:
                break
            joins.append(join)
        where = self._parse_where()
        group_by: Tuple[Expression, ...] = ()
        having: Optional[Expression] = None
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            keys = [self._parse_expression()]
            while self._accept_operator(","):
                keys.append(self._parse_expression())
            group_by = tuple(keys)
            if self._accept_keyword("HAVING"):
                having = self._parse_expression()
        order_by: Tuple[OrderItem, ...] = ()
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by = self._parse_order_items()
        limit = offset = None
        if self._accept_keyword("LIMIT"):
            limit = self._parse_nonnegative_int("LIMIT")
            if self._accept_keyword("OFFSET"):
                offset = self._parse_nonnegative_int("OFFSET")
        return SelectStatement(
            table=table,
            items=items,
            where=where,
            order_by=order_by,
            limit=limit,
            offset=offset,
            distinct=distinct,
            table_alias=table_alias,
            joins=tuple(joins),
            group_by=group_by,
            having=having,
        )

    def _parse_table_ref(self) -> Tuple[str, Optional[str]]:
        """Parse ``table [AS alias | alias]``."""
        table = self._expect_identifier()
        if self._accept_keyword("AS"):
            return table, self._expect_identifier()
        if self._peek().kind == "identifier":
            return table, self._advance().value
        return table, None

    def _parse_join(self) -> Optional[JoinClause]:
        outer = False
        if self._peek().is_keyword("LEFT"):
            self._advance()
            self._accept_keyword("OUTER")
            self._expect_keyword("JOIN")
            outer = True
        elif self._peek().is_keyword("INNER"):
            self._advance()
            self._expect_keyword("JOIN")
        elif self._peek().is_keyword("JOIN"):
            self._advance()
        else:
            return None
        table, alias = self._parse_table_ref()
        self._expect_keyword("ON")
        condition = self._parse_expression()
        return JoinClause(
            table=table, condition=condition, alias=alias, outer=outer
        )

    def _parse_select_items(self) -> Tuple[SelectItem, ...]:
        if self._accept_operator("*"):
            return (SelectItem(expression=None, star=True),)
        items = [self._parse_select_item()]
        while self._accept_operator(","):
            items.append(self._parse_select_item())
        return tuple(items)

    def _parse_select_item(self) -> SelectItem:
        token = self._peek()
        if token.is_keyword(*AGGREGATES):
            func = self._advance().value
            self._expect_operator("(")
            distinct = self._accept_keyword("DISTINCT")
            if self._accept_operator("*"):
                if func != "COUNT":
                    raise ParseError(
                        f"{func}(*) is not valid; only COUNT(*)", token.position
                    )
                inner: Optional[Expression] = None
            else:
                inner = self._parse_expression()
            self._expect_operator(")")
            alias = self._parse_alias()
            return SelectItem(
                expression=inner,
                alias=alias,
                aggregate=func,
                distinct=distinct,
            )
        expression = self._parse_expression()
        alias = self._parse_alias()
        return SelectItem(expression=expression, alias=alias)

    def _parse_alias(self) -> Optional[str]:
        if self._accept_keyword("AS"):
            return self._expect_identifier()
        if self._peek().kind == "identifier":
            return self._advance().value
        return None

    def _parse_order_items(self) -> Tuple[OrderItem, ...]:
        items = []
        while True:
            expression = self._parse_expression()
            descending = False
            if self._accept_keyword("DESC"):
                descending = True
            else:
                self._accept_keyword("ASC")
            items.append(OrderItem(expression=expression, descending=descending))
            if not self._accept_operator(","):
                break
        return tuple(items)

    def _parse_nonnegative_int(self, clause: str) -> int:
        token = self._peek()
        if token.kind != "number" or "." in token.value:
            raise ParseError(
                f"{clause} expects a non-negative integer", token.position
            )
        self._advance()
        return int(token.value)

    def _parse_where(self) -> Optional[Expression]:
        if self._accept_keyword("WHERE"):
            return self._parse_expression()
        return None

    def _parse_insert(self) -> InsertStatement:
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        table = self._expect_identifier()
        columns: Tuple[str, ...] = ()
        if self._accept_operator("("):
            names = [self._expect_identifier()]
            while self._accept_operator(","):
                names.append(self._expect_identifier())
            self._expect_operator(")")
            columns = tuple(names)
        self._expect_keyword("VALUES")
        rows = [self._parse_value_tuple()]
        while self._accept_operator(","):
            rows.append(self._parse_value_tuple())
        return InsertStatement(table=table, columns=columns, rows=tuple(rows))

    def _parse_value_tuple(self) -> Tuple[Expression, ...]:
        self._expect_operator("(")
        values = [self._parse_expression()]
        while self._accept_operator(","):
            values.append(self._parse_expression())
        self._expect_operator(")")
        return tuple(values)

    def _parse_update(self) -> UpdateStatement:
        self._expect_keyword("UPDATE")
        table = self._expect_identifier()
        self._expect_keyword("SET")
        assignments = []
        while True:
            column = self._expect_identifier()
            self._expect_operator("=")
            assignments.append((column, self._parse_expression()))
            if not self._accept_operator(","):
                break
        where = self._parse_where()
        return UpdateStatement(
            table=table, assignments=tuple(assignments), where=where
        )

    def _parse_delete(self) -> DeleteStatement:
        self._expect_keyword("DELETE")
        self._expect_keyword("FROM")
        table = self._expect_identifier()
        where = self._parse_where()
        return DeleteStatement(table=table, where=where)

    def _parse_create(self) -> Statement:
        self._expect_keyword("CREATE")
        if self._accept_keyword("TABLE"):
            if_not_exists = False
            if self._accept_keyword("IF"):
                self._expect_keyword("NOT")
                self._expect_keyword("EXISTS")
                if_not_exists = True
            table = self._expect_identifier()
            self._expect_operator("(")
            columns = [self._parse_column_def()]
            while self._accept_operator(","):
                columns.append(self._parse_column_def())
            self._expect_operator(")")
            return CreateTableStatement(
                table=table, columns=tuple(columns), if_not_exists=if_not_exists
            )
        if self._accept_keyword("INDEX"):
            name = self._expect_identifier()
            self._expect_keyword("ON")
            table = self._expect_identifier()
            self._expect_operator("(")
            column = self._expect_identifier()
            self._expect_operator(")")
            kind = "ordered"
            if self._accept_keyword("USING"):
                kind = self._expect_identifier().lower()
            return CreateIndexStatement(
                name=name, table=table, column=column, kind=kind
            )
        token = self._peek()
        raise ParseError(
            f"expected TABLE or INDEX after CREATE, found {token.value!r}",
            token.position,
        )

    def _parse_column_def(self) -> Column:
        name = self._expect_identifier()
        type_token = self._peek()
        if type_token.kind not in ("identifier", "keyword"):
            raise ParseError(
                f"expected a type for column {name!r}", type_token.position
            )
        self._advance()
        dtype = DataType.from_name(type_token.value)
        # optional length suffix like VARCHAR(40) — parsed and ignored
        if self._accept_operator("("):
            self._parse_nonnegative_int("type length")
            self._expect_operator(")")
        primary_key = False
        nullable = True
        while True:
            if self._accept_keyword("PRIMARY"):
                self._expect_keyword("KEY")
                primary_key = True
                nullable = False
            elif self._accept_keyword("NOT"):
                self._expect_keyword("NULL")
                nullable = False
            elif self._accept_keyword("NULL"):
                nullable = True
            else:
                break
        return Column(
            name=name, dtype=dtype, nullable=nullable, primary_key=primary_key
        )

    def _parse_drop(self) -> DropTableStatement:
        self._expect_keyword("DROP")
        self._expect_keyword("TABLE")
        if_exists = False
        if self._accept_keyword("IF"):
            self._expect_keyword("EXISTS")
            if_exists = True
        table = self._expect_identifier()
        return DropTableStatement(table=table, if_exists=if_exists)

    def _parse_transaction(self) -> TransactionStatement:
        token = self._advance()
        if token.value == "BEGIN":
            self._accept_keyword("TRANSACTION") or self._accept_keyword("WORK")
            return TransactionStatement("begin")
        if token.value == "COMMIT":
            self._accept_keyword("TRANSACTION") or self._accept_keyword("WORK")
            return TransactionStatement("commit")
        self._accept_keyword("TRANSACTION") or self._accept_keyword("WORK")
        return TransactionStatement("rollback")

    # -- expressions -------------------------------------------------------

    def _parse_expression(self) -> Expression:
        return self._parse_or()

    def _parse_or(self) -> Expression:
        left = self._parse_and()
        while self._accept_keyword("OR"):
            left = Logical("OR", left, self._parse_and())
        return left

    def _parse_and(self) -> Expression:
        left = self._parse_not()
        while self._accept_keyword("AND"):
            left = Logical("AND", left, self._parse_not())
        return left

    def _parse_not(self) -> Expression:
        if self._accept_keyword("NOT"):
            return Not(self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> Expression:
        left = self._parse_additive()
        token = self._peek()
        if token.is_operator("=", "!=", "<>", "<", "<=", ">", ">="):
            op = self._advance().value
            if op == "<>":
                op = "!="
            return Comparison(op, left, self._parse_additive())
        negated = False
        if token.is_keyword("NOT"):
            follower = self.tokens[self.position + 1]
            if follower.is_keyword("IN", "BETWEEN", "LIKE"):
                self._advance()
                negated = True
                token = self._peek()
        if token.is_keyword("IS"):
            self._advance()
            is_negated = self._accept_keyword("NOT")
            self._expect_keyword("NULL")
            return IsNull(left, negated=is_negated)
        if token.is_keyword("IN"):
            self._advance()
            self._expect_operator("(")
            if self._peek().is_keyword("SELECT"):
                subquery = self._parse_select()
                self._expect_operator(")")
                return InSubquery(left, subquery, negated=negated)
            items = [self._parse_expression()]
            while self._accept_operator(","):
                items.append(self._parse_expression())
            self._expect_operator(")")
            return InList(left, tuple(items), negated=negated)
        if token.is_keyword("BETWEEN"):
            self._advance()
            low = self._parse_additive()
            self._expect_keyword("AND")
            high = self._parse_additive()
            return Between(left, low, high, negated=negated)
        if token.is_keyword("LIKE"):
            self._advance()
            return Like(left, self._parse_additive(), negated=negated)
        return left

    def _parse_additive(self) -> Expression:
        left = self._parse_multiplicative()
        while True:
            token = self._peek()
            if token.is_operator("+", "-"):
                op = self._advance().value
                left = Arithmetic(op, left, self._parse_multiplicative())
            else:
                return left

    def _parse_multiplicative(self) -> Expression:
        left = self._parse_unary()
        while True:
            token = self._peek()
            if token.is_operator("*", "/", "%"):
                op = self._advance().value
                left = Arithmetic(op, left, self._parse_unary())
            else:
                return left

    def _parse_unary(self) -> Expression:
        if self._accept_operator("-"):
            return Negate(self._parse_unary())
        if self._accept_operator("+"):
            return self._parse_unary()
        return self._parse_primary()

    def _literal(self, value) -> Literal:
        """A value literal from the current token (which it consumes)."""
        literal = Literal(value)
        self.literal_tokens[id(literal)] = self.position
        self._advance()
        return literal

    def _parse_primary(self) -> Expression:
        token = self._peek()
        if token.is_operator("("):
            self._advance()
            if self._peek().is_keyword("SELECT"):
                subquery = self._parse_select()
                self._expect_operator(")")
                return ScalarSubquery(subquery)
            inner = self._parse_expression()
            self._expect_operator(")")
            return inner
        if token.kind == "number":
            text = token.value
            if "." in text or "e" in text or "E" in text:
                return self._literal(float(text))
            return self._literal(int(text))
        if token.kind == "string":
            return self._literal(token.value)
        if token.is_keyword("NULL"):
            self._advance()
            return Literal(None)
        if token.is_keyword("TRUE"):
            self._advance()
            return Literal(True)
        if token.is_keyword("FALSE"):
            self._advance()
            return Literal(False)
        if token.kind == "identifier":
            self._advance()
            name = token.value
            if self._accept_operator("."):
                name = f"{name}.{self._expect_identifier()}"
            return ColumnRef(name)
        raise ParseError(
            f"expected an expression, found {token.value or 'end of input'!r}",
            token.position,
        )


def parse(sql: str) -> Statement:
    """Parse a single SQL statement into its AST node.

    >>> stmt = parse("SELECT name FROM users WHERE id = 3")
    >>> stmt.table
    'users'
    """
    return Parser(sql).parse_statement()


#: Default capacity of the process-global statement caches.
PARSE_CACHE_DEFAULT_SIZE = 4096

#: ``parse_cache_info()`` counters, as ``functools`` names them.
CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


class ShapedStatement(NamedTuple):
    """A parsed statement and the key its result is cached under."""

    statement: Statement
    #: ``(shape, params)``: two texts share it only when they denote
    #: the same statement, literal types included
    #: (see :mod:`repro.engine.parser.shapes`).
    key: Tuple[str, tuple]


class _TemplateCache:
    """Thread-safe LRU of shape -> :class:`Template`, with counters."""

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._templates: "OrderedDict[str, Template]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, shape: str) -> Optional[Template]:
        with self._lock:
            template = self._templates.get(shape)
            if template is None:
                self.misses += 1
                return None
            self._templates.move_to_end(shape)
            self.hits += 1
            return template

    def put(self, template: Template) -> None:
        with self._lock:
            self._templates[template.shape] = template
            while len(self._templates) > self.maxsize:
                self._templates.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._templates)


_templates = _TemplateCache(PARSE_CACHE_DEFAULT_SIZE)


def _shape_statement(sql: str) -> ShapedStatement:
    """Lex ``sql`` once; bind into its shape's template or parse it.

    A shape seen before costs the lexer pass and a bind. A new shape
    parses the very token stream the shape came from. A statement that
    does not parse raises what ``parse(normalize_sql(sql))`` raises, so
    messages and positions refer to the canonical text, as they always
    have.
    """
    try:
        tokens = tokenize(sql)
        shape, params, slots, end = shape_of(tokens)
        template = _templates.get(shape)
        if template is not None:
            return ShapedStatement(
                template.bind(params), (template.shape, params)
            )
        parser = Parser(sql, tokens[:end] + tokens[-1:])
        statement = parser.parse_statement()
    except Exception as error:
        failure: Optional[Exception] = error
    else:
        failure = None
    if failure is not None:
        parse(normalize_sql(sql))  # raises the canonical text's error
        raise failure
    template = Template.build(
        shape, statement, params, slots, parser.literal_tokens
    )
    if template is not None:
        _templates.put(template)
    return ShapedStatement(statement, (shape, params))


_memo = lru_cache(maxsize=PARSE_CACHE_DEFAULT_SIZE)(_shape_statement)


def shaped_statement(sql: str) -> ShapedStatement:
    """The parsed statement of ``sql`` and its result-cache key.

    Memoised on the raw text: a repeated text is one dict hit. Every
    caller that serves SQL text (the guard's parse stage, the server's
    read check, ``Database.execute``) reads this one memo, so a
    statement is lexed once however many of them look at it.
    """
    return _memo(sql)


def parse_cached(sql: str) -> Statement:
    """Like :func:`parse`, through the statement caches.

    Statement nodes are immutable (frozen dataclasses), so callers may
    share them freely; parse errors are not cached. Whitespace-,
    comment-, keyword-case- and literal-permuted variants of one
    statement share a single statement-cache slot (their shape) and a
    single parse, so an adversary cannot thrash the cache with textual
    noise or fresh literals. The caches are process-global and
    thread-safe; resize them with :func:`configure_parse_cache` and
    read hit/miss counters with :func:`parse_cache_info`.
    """
    return _memo(sql).statement


def configure_parse_cache(maxsize: int) -> None:
    """Resize the statement caches (rebuilds them, dropping entries).

    Process-global: every ``parse_cached`` caller shares them, so the
    last configuration wins. Hit/miss counters restart from zero.
    """
    global _memo, _templates
    _templates = _TemplateCache(maxsize)
    _memo = lru_cache(maxsize=maxsize)(_shape_statement)


def parse_cache_info() -> CacheInfo:
    """Statement-cache counters.

    ``hits`` counts statements served without parsing (a repeated text,
    or a new text of a known shape); ``misses`` counts parses of a new
    shape. ``currsize`` is the number of shapes cached.
    """
    memo = _memo.cache_info()
    return CacheInfo(
        hits=memo.hits + _templates.hits,
        misses=_templates.misses,
        maxsize=_templates.maxsize,
        currsize=len(_templates),
    )
