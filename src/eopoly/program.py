"""Program files: a language header, type abbreviations, one expression.

Abbreviations are expanded at parse time (recursion only through the
recursive-type former), so the rest of the package never sees them.  The
main expression is expected to carry a top-level annotation so that it
synthesizes.
"""

from __future__ import annotations

from .errors import ParseError
from .parser import Parser, split_header
from .syntax import Anno, Expr, record


@record
class ProgramFile:
    lang: str  # "impartial" | "econ"
    main: Expr


def parse_program(text: str) -> ProgramFile:
    lang, rest = split_header(text)
    p = Parser(rest, lang)
    while p.accept("ident", "type"):
        ab = p.parse_decl()
        if ab.name in p.abbrevs:
            raise ParseError(f"duplicate abbreviation {ab.name!r}")
        p.abbrevs[ab.name] = ab
    main = p.parse_expr()
    p.expect_eof()
    if not isinstance(main, Anno):
        raise ParseError("the main expression needs a top-level annotation")
    return ProgramFile(lang, main)


def load_program(path: str) -> ProgramFile:
    with open(path, encoding="utf-8") as fh:
        return parse_program(fh.read())
