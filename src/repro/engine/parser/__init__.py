"""SQL parsing: lexer, statement AST, and recursive-descent parser."""

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
    UpdateStatement,
)
from .lexer import Token, tokenize
from .normalize import normalize_cache_info, normalize_sql
from .parser import (
    Parser,
    configure_parse_cache,
    parse,
    parse_cache_info,
    parse_cached,
    shaped_statement,
)

__all__ = [
    "CreateIndexStatement",
    "CreateTableStatement",
    "DeleteStatement",
    "DropTableStatement",
    "ExplainStatement",
    "InsertStatement",
    "OrderItem",
    "Parser",
    "SelectItem",
    "SelectStatement",
    "Statement",
    "Token",
    "JoinClause",
    "UpdateStatement",
    "configure_parse_cache",
    "normalize_cache_info",
    "normalize_sql",
    "parse",
    "parse_cache_info",
    "parse_cached",
    "shaped_statement",
    "tokenize",
]
