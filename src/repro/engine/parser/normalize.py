"""Canonical SQL text.

Two textual variants of the same statement — differing only in
whitespace, line breaks, ``--`` comments, keyword case, ``<>`` versus
``!=``, or a trailing semicolon — are one statement, and must land in
one slot of the statement cache and of the guard's result cache.
Otherwise an adversary can thrash either cache for free by permuting
whitespace, and a legitimate client's textual habits fragment the hit
rate.

:func:`render_token` is the one canonical spelling of a token. The
statement caches use it through :mod:`repro.engine.parser.shapes`,
which renders a statement's *shape* (its canonical text with each
value literal lifted out as a typed slot) in the same lexer pass that
feeds the parser, so serving a statement never lexes it twice.
:func:`normalize_sql` renders a whole statement, literals included: it
is the text a parse error's position refers to, and a standalone
utility (benchmarks time it directly).

Rendering deliberately does *not* change identifier case: the engine
resolves tables and columns case-insensitively, but result *column
labels* preserve the case the query wrote (``SELECT V FROM t`` labels
its column ``V``), so collapsing identifier case would make a cached
result answer a differently-labelled query. Keyword case, by contrast,
never reaches the result and is collapsed to upper case by the lexer.
"""

from __future__ import annotations

import re
from functools import lru_cache

from ..errors import ParseError
from .lexer import KEYWORDS, Token, tokenize

__all__ = [
    "normalize_sql",
    "normalize_cache_info",
    "render_token",
    "NORMALIZE_CACHE_SIZE",
]

#: Capacity of the raw-text → canonical-text memo.
NORMALIZE_CACHE_SIZE = 4096

_BARE_IDENTIFIER = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def render_token(token: Token) -> str:
    """One token's canonical spelling (re-lexes to the same token)."""
    if token.kind == "string":
        escaped = token.value.replace("'", "''")
        return f"'{escaped}'"
    if token.kind == "identifier":
        # Bare when it can be re-lexed as one; quoted otherwise (spaces,
        # leading digits, or a name that collides with a keyword).
        if (
            _BARE_IDENTIFIER.match(token.value)
            and token.value.upper() not in KEYWORDS
        ):
            return token.value
        return f'"{token.value}"'
    if token.kind == "operator" and token.value == "<>":
        return "!="
    return token.value


@lru_cache(maxsize=NORMALIZE_CACHE_SIZE)
def normalize_sql(sql: str) -> str:
    """Canonical single-spaced spelling of ``sql``.

    Collapses whitespace, strips comments and trailing semicolons,
    upper-cases keywords, rewrites ``<>`` to ``!=``, and re-quotes
    string literals. Idempotent. Text that does not tokenize is
    returned unchanged, so the parse error the caller is about to hit
    carries positions into the text they actually wrote.

    >>> normalize_sql("select *  from t -- hi\\n where id=1;")
    'SELECT * FROM t WHERE id = 1'
    >>> normalize_sql("SELECT * FROM t WHERE id <> 2")
    'SELECT * FROM t WHERE id != 2'
    """
    try:
        tokens = tokenize(sql)
    except ParseError:
        return sql
    rendered = [render_token(token) for token in tokens if token.kind != "eof"]
    while rendered and rendered[-1] == ";":
        rendered.pop()
    return " ".join(rendered)


def normalize_cache_info():
    """Counters of the normalization memo (``functools`` CacheInfo)."""
    return normalize_sql.cache_info()
