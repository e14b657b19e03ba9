"""Concrete syntax.

Files start with a ``#lang impartial`` or ``#lang econ`` header, carry any
number of non-recursive type abbreviations, and end in one expression.
``--`` starts a line comment.

Types (impartial):   1   'a   forall 'a. T   all %a. T
                     T1 -[E]> T2   T1 *[E] T2   T1 +[E] T2   rec[E] 'a. T
Types (econ):        bare ->, *, +, rec 'a. T, plus susp[E] S
Orders E:            V, N, or %a.
Terms:               ()  x  \\x. e  e1 e2  fix u. e  /\\'a. e  e [T]  e {E}
                     (e1, e2)  e.1  e.2  inj1 e  inj2 e
                     case e { inj1 x1 -> e1 | inj2 x2 -> e2 }  (e : T)
Core terms add:      thunk M  force M  roll M  unroll M  /\\. M  M []

Application binds left; projection, type application, and order
instantiation are postfix on atoms; the prefix keywords (inj1, thunk,
force, ...) take one prefix-or-atom argument.  Abbreviations are expanded
at parse time.

Expressions and core terms share one set of parsing methods, which build
each shared form with the constructors of the grammar being parsed (a
:class:`_Grammar`); only the forms one grammar lacks are separate clauses.
A name refers to its innermost binder: a fixed-point variable when that
binder is a ``fix``, a term variable otherwise or when nothing binds it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import ParseError
from .syntax import (
    Anno,
    App,
    Case,
    EO,
    EoApp,
    Expr,
    Fix,
    FixVar,
    IAllEo,
    IArrow,
    IForall,
    Inj,
    IProd,
    IRec,
    ISum,
    ITyVar,
    IUnit,
    Lam,
    MApp,
    MCase,
    MFix,
    MFixVar,
    MForce,
    MInj,
    MLam,
    MPair,
    MProj,
    MRoll,
    MThunk,
    MTyApp,
    MTyLam,
    MUnit,
    MUnroll,
    MVar,
    N,
    Pair,
    Proj,
    SAllEo,
    SArrow,
    SForall,
    SProd,
    SRec,
    SSum,
    SSusp,
    STyVar,
    SUnit,
    Term,
    TyApp,
    TyLam,
    Unit,
    V,
    Var,
    eo_var,
    subst,
)

_SYMBOLS = [
    "-[", "]>", "*[", "+[", "/\\", "->", "(", ")", "[", "]", "{", "}",
    ".", ",", ":", "\\", "|", "=", "*", "+",
]

_KEYWORDS = {
    "fix", "case", "inj1", "inj2", "forall", "all", "rec", "susp", "type",
    "thunk", "force", "roll", "unroll",
}


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


@dataclass(frozen=True)
class _Grammar:
    """The constructors a term grammar builds its shared forms with."""

    what: str
    unit: Callable
    var: Callable
    fixvar: Callable
    lam: Callable
    fix: Callable
    app: Callable
    pair: Callable
    proj: Callable
    case: Callable
    prefix: dict  # keyword -> constructor of its one argument


_SOURCE = _Grammar(
    "an expression", Unit, Var, FixVar, Lam, Fix, App, Pair, Proj, Case,
    {"inj1": lambda b: Inj(1, b), "inj2": lambda b: Inj(2, b)},
)
_CORE = _Grammar(
    "a core term", MUnit, MVar, MFixVar, MLam, MFix, MApp, MPair, MProj, MCase,
    {"inj1": lambda b: MInj(1, b), "inj2": lambda b: MInj(2, b),
     "thunk": MThunk, "force": MForce, "roll": MRoll, "unroll": MUnroll},
)


@dataclass
class Abbrev:
    name: str
    params: list[tuple[str, str]]  # (kind "ty"|"eo", name)
    body: object  # ImpType | EconType


class Parser:
    def __init__(self, text: str, lang: str = "impartial",
                 abbrevs: dict[str, Abbrev] | None = None):
        self.toks = tokenize(text)
        self.pos = 0
        self.lang = lang
        self.abbrevs: dict[str, Abbrev] = abbrevs if abbrevs is not None else {}
        self.grammar = _SOURCE
        # The term names in scope, innermost last, each marked whether a
        # fixed point binds it.
        self.scope: list[tuple[str, bool]] = []

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def at_sym(self, s: str) -> bool:
        t = self.peek()
        return t.kind == "sym" and t.text == s

    def at_ident(self, s: str) -> bool:
        t = self.peek()
        return t.kind == "ident" and t.text == s

    def eat_sym(self, s: str) -> Token:
        t = self.next()
        if t.kind != "sym" or t.text != s:
            raise ParseError(f"expected {s!r}, found {t.text!r}", t.line, t.col)
        return t

    def eat_ident(self) -> str:
        t = self.next()
        if t.kind != "ident":
            raise ParseError(f"expected a name, found {t.text!r}", t.line, t.col)
        if t.text in _KEYWORDS:
            raise ParseError(f"{t.text!r} is a keyword", t.line, t.col)
        return t.text

    def fail(self, msg: str):
        t = self.peek()
        raise ParseError(f"{msg}, found {t.text!r}", t.line, t.col)

    # -- orders and types ---------------------------------------------------

    def parse_eo(self) -> EO:
        t = self.next()
        if t.kind == "ident" and t.text == "V":
            return V
        if t.kind == "ident" and t.text == "N":
            return N
        if t.kind == "eovar":
            return eo_var(t.text)
        raise ParseError(f"expected an order (V, N or %a), found {t.text!r}",
                         t.line, t.col)

    def parse_type(self):
        t = self.peek()
        if t.kind == "ident" and t.text == "forall":
            self.next()
            v = self._tvar()
            self.eat_sym(".")
            body = self.parse_type()
            return IForall(v, body) if self.lang == "impartial" else SForall(v, body)
        if t.kind == "ident" and t.text == "all":
            self.next()
            v = self._eovar()
            self.eat_sym(".")
            body = self.parse_type()
            return IAllEo(v, body) if self.lang == "impartial" else SAllEo(v, body)
        if t.kind == "ident" and t.text == "rec":
            self.next()
            if self.lang == "impartial":
                self.eat_sym("[")
                eo = self.parse_eo()
                self.eat_sym("]")
                v = self._tvar()
                self.eat_sym(".")
                return IRec(v, self.parse_type(), eo)
            v = self._tvar()
            self.eat_sym(".")
            return SRec(v, self.parse_type())
        return self._arrow()

    def _tvar(self) -> str:
        t = self.next()
        if t.kind != "tvar":
            raise ParseError(f"expected a type variable ('a), found {t.text!r}",
                             t.line, t.col)
        return t.text

    def _eovar(self) -> str:
        t = self.next()
        if t.kind != "eovar":
            raise ParseError(f"expected an order variable (%a), found {t.text!r}",
                             t.line, t.col)
        return t.text

    def _arrow(self):
        left = self._sum()
        if self.lang == "impartial" and self.at_sym("-["):
            self.next()
            eo = self.parse_eo()
            self.eat_sym("]>")
            return IArrow(left, self._arrow_or_quant(), eo)
        if self.lang != "impartial" and self.at_sym("->"):
            self.next()
            return SArrow(left, self._arrow_or_quant())
        return left

    def _arrow_or_quant(self):
        # A quantifier may follow an arrow without parentheses.
        t = self.peek()
        if t.kind == "ident" and t.text in ("forall", "all", "rec"):
            return self.parse_type()
        return self._arrow()

    def _sum(self):
        left = self._prod()
        while True:
            if self.lang == "impartial" and self.at_sym("+["):
                self.next()
                eo = self.parse_eo()
                self.eat_sym("]")
                left = ISum(left, self._prod(), eo)
            elif self.lang != "impartial" and self.at_sym("+"):
                self.next()
                left = SSum(left, self._prod())
            else:
                return left

    def _prod(self):
        left = self._prefix_ty()
        while True:
            if self.lang == "impartial" and self.at_sym("*["):
                self.next()
                eo = self.parse_eo()
                self.eat_sym("]")
                left = IProd(left, self._prefix_ty(), eo)
            elif self.lang != "impartial" and self.at_sym("*"):
                self.next()
                left = SProd(left, self._prefix_ty())
            else:
                return left

    def _prefix_ty(self):
        if self.lang != "impartial" and self.at_ident("susp"):
            self.next()
            self.eat_sym("[")
            eo = self.parse_eo()
            self.eat_sym("]")
            return SSusp(eo, self._prefix_ty())
        return self._atom_ty()

    def _atom_ty(self):
        t = self.peek()
        if t.kind == "num" and t.text == "1":
            self.next()
            return IUnit() if self.lang == "impartial" else SUnit()
        if t.kind == "tvar":
            self.next()
            return ITyVar(t.text) if self.lang == "impartial" else STyVar(t.text)
        if self.at_sym("("):
            self.next()
            ty = self.parse_type()
            self.eat_sym(")")
            return ty
        if t.kind == "ident" and t.text[0].isupper():
            self.next()
            return self._expand_abbrev(t)
        self.fail("expected a type")

    def _expand_abbrev(self, t: Token):
        ab = self.abbrevs.get(t.text)
        if ab is None:
            raise ParseError(f"unknown type abbreviation {t.text!r}", t.line, t.col)
        sub = {}
        for kind, pname in ab.params:
            if kind == "eo":
                sub[("eo", pname)] = self.parse_eo()
            else:
                sub[("ty", pname)] = self._atom_ty()
        return subst(ab.body, sub)

    # -- terms ---------------------------------------------------------------

    def parse_expr(self) -> Expr:
        self.grammar = _SOURCE
        return self._term()

    def parse_term(self) -> Term:
        self.grammar = _CORE
        return self._term()

    def _term(self):
        g = self.grammar
        if self.at_sym("\\"):
            self.next()
            x = self.eat_ident()
            self.eat_sym(".")
            return g.lam(x, self._scoped(x, False, self._term))
        if self.at_ident("fix"):
            self.next()
            u = self.eat_ident()
            self.eat_sym(".")
            return g.fix(u, self._scoped(u, True, self._term))
        if self.at_sym("/\\"):
            self.next()
            if g is _CORE:
                self.eat_sym(".")
                return MTyLam(self._term())
            v = self._tvar()
            self.eat_sym(".")
            return TyLam(v, self._term())
        if self.at_ident("case"):
            return self._case()
        return self._app()

    def _scoped(self, name: str, is_fix: bool, parse):
        """``parse()`` with ``name`` bound, as a fixed point or not."""
        self.scope.append((name, is_fix))
        body = parse()
        self.scope.pop()
        return body

    def _case(self):
        self.next()  # 'case'
        scrut = self._app()
        self.eat_sym("{")
        x1, b1 = self._branch("inj1")
        self.eat_sym("|")
        x2, b2 = self._branch("inj2")
        self.eat_sym("}")
        return self.grammar.case(scrut, x1, b1, x2, b2)

    def _branch(self, keyword: str):
        if not self.at_ident(keyword):
            self.fail(f"expected {keyword!r}")
        self.next()
        x = self.eat_ident()
        self.eat_sym("->")
        return x, self._scoped(x, False, self._term)

    def _prefix(self):
        t = self.peek()
        make = self.grammar.prefix.get(t.text) if t.kind == "ident" else None
        if make is None:
            return None
        self.next()
        arg = self._prefix()
        return make(self._postfix() if arg is None else arg)

    def _app(self):
        head = self._prefix()
        if head is None:
            head = self._postfix()
        while self._starts_atom():
            head = self.grammar.app(head, self._postfix())
        return head

    def _starts_atom(self) -> bool:
        t = self.peek()
        if t.kind == "ident" and t.text not in _KEYWORDS:
            return True
        if t.kind == "sym" and t.text == "(":
            return True
        return False

    def _at_order_brace(self) -> bool:
        # Distinguishes the instantiation postfix "e {E}" from case braces.
        if not self.at_sym("{") or self.pos + 2 >= len(self.toks):
            return False
        t1 = self.toks[self.pos + 1]
        t2 = self.toks[self.pos + 2]
        order = t1.kind == "eovar" or (t1.kind == "ident" and t1.text in ("V", "N"))
        return order and t2.kind == "sym" and t2.text == "}"

    def _postfix(self):
        g = self.grammar
        e = self._atom()
        while True:
            if self.at_sym("."):
                self.next()
                t = self.next()
                if t.kind != "num" or t.text not in ("1", "2"):
                    raise ParseError("projection index must be 1 or 2",
                                     t.line, t.col)
                e = g.proj(int(t.text), e)
            elif self.at_sym("["):
                self.next()
                if g is _CORE:
                    e = MTyApp(e)
                else:
                    e = TyApp(e, self.parse_type())
                self.eat_sym("]")
            elif g is _SOURCE and self._at_order_brace():
                self.next()
                eo = self.parse_eo()
                self.eat_sym("}")
                e = EoApp(e, eo)
            else:
                return e

    def _atom(self):
        g = self.grammar
        t = self.peek()
        if self.at_sym("("):
            self.next()
            if self.at_sym(")"):
                self.next()
                return g.unit()
            e = self._term()
            if self.at_sym(","):
                self.next()
                right = self._term()
                self.eat_sym(")")
                return g.pair(e, right)
            if g is _SOURCE and self.at_sym(":"):
                self.next()
                ty = self.parse_type()
                self.eat_sym(")")
                return Anno(e, ty)
            self.eat_sym(")")
            return e
        if t.kind == "ident" and t.text not in _KEYWORDS:
            self.next()
            # The innermost binder of the name decides what it refers to.
            for name, is_fix in reversed(self.scope):
                if name == t.text:
                    return (g.fixvar if is_fix else g.var)(t.text)
            return g.var(t.text)
        self.fail(f"expected {g.what}")

    # -- declarations and files --------------------------------------------

    def parse_decl(self) -> Abbrev:
        self.next()  # 'type'
        t = self.next()
        if t.kind != "ident" or not t.text[0].isupper():
            raise ParseError("abbreviation names start uppercase", t.line, t.col)
        params: list[tuple[str, str]] = []
        while self.peek().kind in ("tvar", "eovar"):
            p = self.next()
            params.append(("ty" if p.kind == "tvar" else "eo", p.text))
        self.eat_sym("=")
        body = self.parse_type()
        return Abbrev(t.text, params, body)

    def expect_eof(self):
        t = self.peek()
        if t.kind != "eof":
            raise ParseError(f"trailing input starting at {t.text!r}",
                             t.line, t.col)


def split_header(text: str) -> tuple[str, str]:
    """Return (lang, rest); the default language is impartial."""
    lines = text.splitlines()
    i = 0
    while i < len(lines) and not lines[i].strip():
        i += 1
    if i < len(lines) and lines[i].strip().startswith("#lang"):
        parts = lines[i].split()
        if len(parts) != 2 or parts[1] not in ("impartial", "econ"):
            raise ParseError("header must be '#lang impartial' or '#lang econ'",
                             i + 1, 1)
        rest = "\n".join(lines[:i] + [""] + lines[i + 1:])
        return parts[1], rest
    return "impartial", text


def parse_type_text(text: str, lang: str = "impartial",
                    abbrevs: dict[str, Abbrev] | None = None):
    p = Parser(text, lang, abbrevs)
    ty = p.parse_type()
    p.expect_eof()
    return ty


def parse_expr_text(text: str, lang: str = "impartial",
                    abbrevs: dict[str, Abbrev] | None = None) -> Expr:
    p = Parser(text, lang, abbrevs)
    e = p.parse_expr()
    p.expect_eof()
    return e


def parse_term_text(text: str) -> Term:
    p = Parser(text, "econ")
    m = p.parse_term()
    p.expect_eof()
    return m
