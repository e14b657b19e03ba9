"""The tokenizer as it was written before the compiled pattern: a
character loop that tries each symbol with ``str.startswith``.  Kept
verbatim as the oracle that ``test_tokenize.py`` compares
``parser.tokenize`` against.
"""

from __future__ import annotations

from dataclasses import dataclass

from eopoly.errors import ParseError

_SYMBOLS = [
    "-[", "]>", "*[", "+[", "/\\", "->", "(", ")", "[", "]", "{", "}",
    ".", ",", ":", "\\", "|", "=", "*", "+",
]


@dataclass(frozen=True)
class Token:
    kind: str  # "sym" | "ident" | "tvar" | "eovar" | "num" | "eof"
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("--", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "'" or ch == "%":
            j = i + 1
            if j >= n or not (text[j].isalpha() or text[j] == "_"):
                raise ParseError(f"expected a name after {ch!r}", line, col)
            k = j
            while k < n and (text[k].isalnum() or text[k] == "_"):
                k += 1
            kind = "tvar" if ch == "'" else "eovar"
            toks.append(Token(kind, text[j:k], line, col))
            col += k - i
            i = k
            continue
        if ch.isdigit():
            k = i
            while k < n and text[k].isdigit():
                k += 1
            toks.append(Token("num", text[i:k], line, col))
            col += k - i
            i = k
            continue
        if ch.isalpha() or ch == "_":
            k = i
            while k < n and (text[k].isalnum() or text[k] == "_"):
                k += 1
            toks.append(Token("ident", text[i:k], line, col))
            col += k - i
            i = k
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                toks.append(Token("sym", sym, line, col))
                col += len(sym)
                i += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(Token("eof", "", line, col))
    return toks
