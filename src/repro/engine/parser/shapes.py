"""Statement shapes: a statement's canonical text with its values lifted.

``SELECT * FROM t WHERE id = 7`` and ``select * from t where id=8;``
are one statement *shape*, ``SELECT * FROM t WHERE id = ?i``, with
params ``(7,)`` and ``(8,)``. :func:`shape_of` computes both from the
one token stream the lexer produced: every token is rendered in its
canonical spelling (:func:`~repro.engine.parser.normalize.render_token`),
except that each number and string literal becomes a slot typed
``?i`` (int), ``?f`` (float) or ``?s`` (string) and its value joins
the params. ``?`` is not a character the lexer accepts, so no real
statement's canonical text contains a slot marker.

The slot types keep ``id = 1``, ``id = 1.0`` and ``id = '1'`` apart:
``(1,) == (1.0,)`` in Python, so params alone could not. Literals the
grammar consumes as structure rather than as a value stay in the
shape: the counts after ``LIMIT`` and ``OFFSET``, and every literal of
a ``CREATE`` statement (type lengths such as ``VARCHAR(10)``).

The statement cache (:func:`~repro.engine.parser.parser.parse_cached`)
keys a :class:`Template` on the shape: the first statement of a shape
is parsed, and every later one binds its params into a copy of that
tree. A bound statement equals ``parse(normalize_sql(sql))`` node for
node, because the parser's path through a token stream depends only on
token kinds and on the literals this module keeps in the shape;
:meth:`Template.build` checks, once per shape, that every slot did end
up as a :class:`~repro.engine.expr.Literal` value.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..expr import Literal
from .lexer import Token
from .normalize import render_token

__all__ = ["INT_SLOT", "FLOAT_SLOT", "STRING_SLOT", "Template", "shape_of"]

INT_SLOT = "?i"
FLOAT_SLOT = "?f"
STRING_SLOT = "?s"

#: Keywords whose next number is a count the grammar consumes
#: (``Parser._parse_nonnegative_int``), not a value.
_COUNT_KEYWORDS = ("LIMIT", "OFFSET")


def shape_of(
    tokens: Sequence[Token],
) -> Tuple[str, tuple, List[int], int]:
    """``(shape, params, slot token indexes, end)`` of a token stream.

    ``end`` is where the canonical statement stops: trailing ``;``
    tokens are dropped, as :func:`normalize_sql` drops them, so
    ``tokens[:end]`` plus the EOF token is what the parser reads.
    Raises ``ValueError`` for a number ``int``/``float`` cannot convert
    (the parser would raise the same).
    """
    end = len(tokens) - 1
    while end and tokens[end - 1].kind == "operator" and (
        tokens[end - 1].value == ";"
    ):
        end -= 1
    lifted = not any(token.is_keyword("CREATE") for token in tokens)
    parts: List[str] = []
    params: list = []
    slots: List[int] = []
    previous: Optional[Token] = None
    for index in range(end):
        token = tokens[index]
        kind = token.kind
        if kind == "number" and lifted and not (
            previous is not None and previous.is_keyword(*_COUNT_KEYWORDS)
        ):
            text = token.value
            if "." in text or "e" in text or "E" in text:
                params.append(float(text))
                parts.append(FLOAT_SLOT)
            else:
                params.append(int(text))
                parts.append(INT_SLOT)
            slots.append(index)
        elif kind == "string" and lifted:
            params.append(token.value)
            parts.append(STRING_SLOT)
            slots.append(index)
        else:
            parts.append(render_token(token))
        previous = token
    return " ".join(parts), tuple(params), slots, end


class Template:
    """One parsed statement per shape, re-bindable to new params.

    Statement and expression nodes are frozen dataclasses, so a bound
    statement shares every subtree that holds no slot with the template
    and rebuilds only the path from the root to each slot.
    """

    __slots__ = ("shape", "statement", "params", "_plan")

    def __init__(self, shape: str, statement, params: tuple, plan):
        self.shape = shape
        self.statement = statement
        self.params = params
        self._plan = plan

    @classmethod
    def build(
        cls,
        shape: str,
        statement,
        params: tuple,
        slots: Sequence[int],
        literal_tokens: Dict[int, int],
    ) -> Optional["Template"]:
        """The template of a freshly parsed statement, or None.

        ``slots`` are the token indexes of the params, in order;
        ``literal_tokens`` maps ``id()`` of each Literal the parser
        built to the index of its token. None means some param did not
        become a Literal value, so the shape cannot be re-bound (the
        caller then parses every statement of it).
        """
        param_of_token = {token: param for param, token in enumerate(slots)}
        slot_of = {
            node: param_of_token[token]
            for node, token in literal_tokens.items()
            if token in param_of_token
        }
        found: Set[int] = set()
        plan = _plan(statement, slot_of, found)
        if len(found) != len(params):
            return None
        return cls(shape, statement, params, plan)

    def bind(self, params: tuple):
        """The statement this shape denotes with ``params`` filled in."""
        if params == self.params:
            return self.statement
        return _bind(self._plan, params)


def _plan(node, slot_of: Dict[int, int], found: Set[int]):
    """How to rebuild ``node`` with new params: a param index for a slot
    literal, ``(class, fields, edits)`` for a node above one, else None."""
    if isinstance(node, Literal):
        param = slot_of.get(id(node))
        if param is not None:
            found.add(param)
        return param
    if isinstance(node, tuple):
        edits = []
        for index, item in enumerate(node):
            sub = _plan(item, slot_of, found)
            if sub is not None:
                edits.append((index, sub))
        return (tuple, node, tuple(edits)) if edits else None
    if is_dataclass(node) and not isinstance(node, type):
        state = {f.name: getattr(node, f.name) for f in fields(node)}
        edits = []
        for name, value in state.items():
            sub = _plan(value, slot_of, found)
            if sub is not None:
                edits.append((name, sub))
        return (type(node), state, tuple(edits)) if edits else None
    return None


def _bind(plan, params: tuple):
    if type(plan) is int:
        return Literal(params[plan])
    kind, base, edits = plan
    if kind is tuple:
        items = list(base)
        for index, sub in edits:
            items[index] = _bind(sub, params)
        return tuple(items)
    # Frozen dataclasses: fill the instance dict directly, as
    # ``dataclasses.replace`` would through ``__init__``, whose frozen
    # ``object.__setattr__`` per field triples a point read's bind
    # (2.1 µs against 6.7 µs on a 1-param SELECT). Sound while no node
    # class has ``__slots__`` or ``__post_init__``; a test pins that.
    node = object.__new__(kind)
    state = node.__dict__
    state.update(base)
    for name, sub in edits:
        state[name] = _bind(sub, params)
    return node
