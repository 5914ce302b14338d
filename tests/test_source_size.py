"""The size of drspot's modules as CPython's parser sees them.

Launched without bytecode (``PYTHONDONTWRITEBYTECODE=1``), every run
compiles the package from source, and the compiler's memory stays
resident. CPython 3.11's parser keeps a module's tokens in an array that
doubles when it is full: a module past 4,096 tokens makes it allocate 4,096
more Token structs, about 0.25 MiB on the peak resident size of every run
(tracemalloc's peak of ``compile()`` and ``ru_maxrss`` after importing
``drspot.cli``, CPython 3.11.7 on x86-64).
"""

from __future__ import annotations

import tokenize

import pytest

from conftest import REPO_ROOT

PARSER_TOKENS = 4096
MODULES = sorted((REPO_ROOT / "src" / "drspot").glob("*.py"))


def parser_tokens(path) -> int:
    """The tokens of ``path`` that reach the parser: ``tokenize``'s, without
    the encoding, comments and the line ends of blank or continued lines."""
    with open(path, "rb") as source:
        skipped = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL}
        return sum(token.type not in skipped for token in tokenize.tokenize(source.readline))


def test_every_module_is_counted():
    assert {path.name for path in MODULES} >= {"cli.py", "compression.py", "market_data.py", "regression.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_stays_below_4096_parser_tokens(path):
    assert parser_tokens(path) < PARSER_TOKENS
