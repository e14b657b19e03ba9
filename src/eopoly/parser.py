"""Concrete syntax.

Files start with a ``#lang impartial`` or ``#lang econ`` header, carry any
number of non-recursive type abbreviations, and end in one expression.

Lexical grammar.  Whitespace is space, tab, CR and LF; only LF ends a
line, and every other character counts one column.  A name is a
character for which ``str.isalpha`` holds, or ``_``, then any run of
``str.isalnum`` characters and ``_``; ``'name`` is a type variable and
``%name`` an order variable.  A number is a run of ``str.isdigit``
characters.  ``--`` starts a comment that runs to the end of its line
(an end of input right after it has the comment's column).
The symbols are ``-[ ]> *[ +[ /\\ -> ( ) [ ] { } . , : \\ | = * +``, the
longest one that fits taken first.  The header is the first line that is
not blank when it starts with ``#lang``; it is blanked before
tokenizing, and line breaks stay where they are.  :func:`tokenize` reads
all of this with one compiled pattern.

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
force, ...) take one prefix-or-atom argument.  Types are built from the
language's connective record (``impartial.IMPARTIAL`` or ``econ.ECON``),
with an order ``[E]`` only where its connectives carry one.  Abbreviations
are expanded at parse time, each use instantiating the abbreviation's
parameters at its arguments.

Expressions and core terms share one set of parsing methods, which build
each shared form with the constructors of the grammar being parsed (a
:class:`_Grammar`); only the forms one grammar lacks are separate clauses.
A name refers to its innermost binder: a fixed-point variable when that
binder is a ``fix``, a term variable otherwise or when nothing binds it.
"""

from __future__ import annotations

import re
from itertools import takewhile
from typing import Callable

from .econ import ECON
from .errors import ParseError
from .impartial import IMPARTIAL
from .syntax import (
    Anno,
    App,
    Case,
    EO,
    EoApp,
    Expr,
    Fix,
    FixVar,
    Inj,
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
    SSusp,
    Term,
    TyApp,
    TyLam,
    Unit,
    V,
    Var,
    eo_var,
    instantiate,
    record,
)

_KEYWORDS = {
    "fix", "case", "inj1", "inj2", "forall", "all", "rec", "susp", "type",
    "thunk", "force", "roll", "unroll",
}

# One token, or the end of the input, after a run of blanks; each named
# alternative is one lexical rule, tried in this order.  ``\w`` is exactly
# ``str.isalnum`` or ``_``; a word's first character decides, by the same
# predicates, whether it is a number or a name.
_TOKEN = re.compile(r"""
    [ \t\r]*
    (?:
      (?P<newline> \n )
    | (?P<comment> --[^\n]* )
    | (?P<var>     ['%]\w* )
    | (?P<word>    \w+ )
    | (?P<sym>     -\[ | \]> | \*\[ | \+\[ | /\\ | -> | [()\[\]{}.,:\\|=*+] )
    )?
""", re.VERBOSE)

# A token is (kind, text, line, col); kind is "sym", "ident", "tvar",
# "eovar", "num" or "eof".
Token = tuple[str, str, int, int]


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    append = toks.append
    match = _TOKEN.match
    n = len(text)
    i = bol = 0  # the position, and where its line begins
    line = 1
    while True:
        m = match(text, i)
        kind = m.lastgroup
        i = m.end()
        if kind == "sym":
            tok = m.group(kind)
            append((kind, tok, line, i - len(tok) - bol + 1))
        elif kind == "newline":
            line += 1
            bol = i
        elif kind is None:  # the end, or a character no rule starts with
            if i < n:
                raise ParseError(f"unexpected character {text[i]!r}",
                                 line, i - bol + 1)
            break
        else:
            tok = m.group(kind)
            start = i - len(tok)
            col = start - bol + 1
            if kind == "word":
                c = tok[0]
                if c.isdigit():
                    tok = "".join(takewhile(str.isdigit, tok))
                    i = start + len(tok)
                    append(("num", tok, line, col))
                elif c.isalpha() or c == "_":
                    append(("ident", tok, line, col))
                else:
                    raise ParseError(f"unexpected character {c!r}", line, col)
            elif kind == "var":
                name = tok[1:2]
                if not (name.isalpha() or name == "_"):
                    raise ParseError(f"expected a name after {tok[0]!r}",
                                     line, col)
                append(("tvar" if tok[0] == "'" else "eovar", tok[1:], line, col))
            elif i == n:  # a comment that ends the input leaves the column
                i = start
                break
    append(("eof", "", line, i - bol + 1))
    return toks


@record
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


@record
class Abbrev:
    """A type abbreviation.  ``body`` is the abbreviated type under one
    quantifier per parameter, the first parameter's outermost, so a use
    instantiates ``arity`` of them in turn, each at its argument."""

    name: str
    arity: int
    body: object  # ImpType | EconType


# The connective records of the two source languages.
_SYSTEMS = {"impartial": IMPARTIAL, "econ": ECON}


def _error(msg: str, t: Token) -> ParseError:
    return ParseError(msg, t[2], t[3])


class Parser:
    def __init__(self, text: str, lang: str = "impartial",
                 abbrevs: dict[str, Abbrev] | None = None):
        self.toks = tokenize(text)
        self.pos = 0
        self.system = _SYSTEMS[lang]
        # Impartial connectives carry an order; econ types suspend instead.
        self.ordered = "eo" in self.system.arrow.__match_args__
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
        t = self.toks[self.pos]
        return t[1] == s and t[0] == "sym"

    def accept(self, kind: str, s: str) -> bool:
        """Whether the next token is the ``kind`` token ``s``; if so, it is
        consumed."""
        t = self.toks[self.pos]
        if t[1] == s and t[0] == kind:
            self.pos += 1
            return True
        return False

    def eat_sym(self, s: str) -> None:
        if not self.accept("sym", s):
            self.fail(f"expected {s!r}")

    def eat_ident(self) -> str:
        kind, text, _, _ = t = self.next()
        if kind != "ident":
            raise _error(f"expected a name, found {text!r}", t)
        if text in _KEYWORDS:
            raise _error(f"{text!r} is a keyword", t)
        return text

    def fail(self, msg: str):
        t = self.peek()
        raise _error(f"{msg}, found {t[1]!r}", t)

    # -- orders and types ---------------------------------------------------

    def parse_eo(self) -> EO:
        kind, text, _, _ = t = self.next()
        if kind == "ident" and text == "V":
            return V
        if kind == "ident" and text == "N":
            return N
        if kind == "eovar":
            return eo_var(text)
        raise _error(f"expected an order (V, N or %a), found {text!r}", t)

    def parse_type(self):
        s = self.system
        kind, text, _, _ = self.peek()
        if kind == "ident" and text in ("forall", "all"):
            self.next()
            v = self._var("tvar" if text == "forall" else "eovar")
            self.eat_sym(".")
            return (s.forall if text == "forall" else s.alleo)(v, self.parse_type())
        if kind == "ident" and text == "rec":
            self.next()
            eo = self._order("[", "]")
            v = self._var("tvar")
            self.eat_sym(".")
            return s.rec(v, self.parse_type(), *eo)
        return self._arrow()

    def _order(self, opened: str, closed: str) -> tuple:
        """``opened E closed`` where connectives carry an order, as the
        arguments ``(E,)`` the connective takes after its parts; nothing
        and ``()`` elsewhere."""
        return (self._bracketed(opened, closed),) if self.ordered else ()

    def _bracketed(self, opened: str, closed: str) -> EO:
        self.eat_sym(opened)
        eo = self.parse_eo()
        self.eat_sym(closed)
        return eo

    def _infix(self, opened: str, closed: str, bare: str) -> tuple | None:
        """The order arguments of an infix connective that starts here,
        written ``opened E closed`` or ``bare`` as the language has it; None
        when none starts here."""
        if self.ordered:
            return self._order(opened, closed) if self.at_sym(opened) else None
        return () if self.accept("sym", bare) else None

    def _var(self, kind: str) -> str:
        """The name of a type variable ("tvar") or an order variable."""
        k, text, _, _ = t = self.next()
        if k != kind:
            what = ("a type variable ('a)" if kind == "tvar"
                    else "an order variable (%a)")
            raise _error(f"expected {what}, found {text!r}", t)
        return text

    def _arrow(self):
        left = self._sum()
        eo = self._infix("-[", "]>", "->")
        if eo is None:
            return left
        return self.system.arrow(left, self._arrow_or_quant(), *eo)

    def _arrow_or_quant(self):
        # A quantifier may follow an arrow without parentheses.
        kind, text, _, _ = self.peek()
        if kind == "ident" and text in ("forall", "all", "rec"):
            return self.parse_type()
        return self._arrow()

    def _sum(self):
        left = self._prod()
        while (eo := self._infix("+[", "]", "+")) is not None:
            left = self.system.sum(left, self._prod(), *eo)
        return left

    def _prod(self):
        left = self._prefix_ty()
        while (eo := self._infix("*[", "]", "*")) is not None:
            left = self.system.prod(left, self._prefix_ty(), *eo)
        return left

    def _prefix_ty(self):
        # Suspensions belong to the language whose connectives carry no order.
        if not self.ordered and self.accept("ident", "susp"):
            return SSusp(self._bracketed("[", "]"), self._prefix_ty())
        return self._atom_ty()

    def _atom_ty(self):
        kind, text, _, _ = t = self.peek()
        if kind == "num" and text == "1":
            self.next()
            return self.system.unit()
        if kind == "tvar":
            self.next()
            return self.system.tyvar(text)
        if self.accept("sym", "("):
            ty = self.parse_type()
            self.eat_sym(")")
            return ty
        if kind == "ident" and text[0].isupper():
            self.next()
            return self._expand_abbrev(t)
        self.fail("expected a type")

    def _expand_abbrev(self, t: Token):
        ab = self.abbrevs.get(t[1])
        if ab is None:
            raise _error(f"unknown type abbreviation {t[1]!r}", t)
        ty = ab.body
        for _ in range(ab.arity):
            order = isinstance(ty, self.system.alleo)
            ty = instantiate(ty, self.parse_eo() if order else self._atom_ty())
        return ty

    # -- terms ---------------------------------------------------------------

    def parse_expr(self) -> Expr:
        self.grammar = _SOURCE
        return self._term()

    def parse_term(self) -> Term:
        self.grammar = _CORE
        return self._term()

    def _term(self):
        g = self.grammar
        if self.accept("sym", "\\"):
            x = self.eat_ident()
            self.eat_sym(".")
            return g.lam(x, self._scoped(x, False, self._term))
        if self.accept("ident", "fix"):
            u = self.eat_ident()
            self.eat_sym(".")
            return g.fix(u, self._scoped(u, True, self._term))
        if self.accept("sym", "/\\"):
            if g is _CORE:
                self.eat_sym(".")
                return MTyLam(self._term())
            v = self._var("tvar")
            self.eat_sym(".")
            return TyLam(v, self._term())
        if self.accept("ident", "case"):
            return self._case()
        return self._app()

    def _scoped(self, name: str, is_fix: bool, parse):
        """``parse()`` with ``name`` bound, as a fixed point or not."""
        self.scope.append((name, is_fix))
        body = parse()
        self.scope.pop()
        return body

    def _case(self):
        """A case expression, after its ``case`` keyword."""
        scrut = self._app()
        self.eat_sym("{")
        x1, b1 = self._branch("inj1")
        self.eat_sym("|")
        x2, b2 = self._branch("inj2")
        self.eat_sym("}")
        return self.grammar.case(scrut, x1, b1, x2, b2)

    def _branch(self, keyword: str):
        if not self.accept("ident", keyword):
            self.fail(f"expected {keyword!r}")
        x = self.eat_ident()
        self.eat_sym("->")
        return x, self._scoped(x, False, self._term)

    def _prefix(self):
        kind, text, _, _ = self.peek()
        make = self.grammar.prefix.get(text) if kind == "ident" else None
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
        kind, text, _, _ = self.peek()
        return (kind == "ident" and text not in _KEYWORDS
                or kind == "sym" and text == "(")

    def _at_order_brace(self) -> bool:
        # Distinguishes the instantiation postfix "e {E}" from case braces.
        if not self.at_sym("{") or self.pos + 2 >= len(self.toks):
            return False
        kind1, text1, _, _ = self.toks[self.pos + 1]
        kind2, text2, _, _ = self.toks[self.pos + 2]
        order = kind1 == "eovar" or (kind1 == "ident" and text1 in ("V", "N"))
        return order and kind2 == "sym" and text2 == "}"

    def _postfix(self):
        g = self.grammar
        e = self._atom()
        while True:
            if self.accept("sym", "."):
                kind, text, _, _ = t = self.next()
                if kind != "num" or text not in ("1", "2"):
                    raise _error("projection index must be 1 or 2", t)
                e = g.proj(int(text), e)
            elif self.accept("sym", "["):
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
        kind, text, _, _ = self.peek()
        if self.accept("sym", "("):
            if self.accept("sym", ")"):
                return g.unit()
            e = self._term()
            if self.accept("sym", ","):
                right = self._term()
                self.eat_sym(")")
                return g.pair(e, right)
            if g is _SOURCE and self.accept("sym", ":"):
                ty = self.parse_type()
                self.eat_sym(")")
                return Anno(e, ty)
            self.eat_sym(")")
            return e
        if kind == "ident" and text not in _KEYWORDS:
            self.next()
            # The innermost binder of the name decides what it refers to.
            for name, is_fix in reversed(self.scope):
                if name == text:
                    return (g.fixvar if is_fix else g.var)(text)
            return g.var(text)
        self.fail(f"expected {g.what}")

    # -- declarations and files --------------------------------------------

    def parse_decl(self) -> Abbrev:
        """An abbreviation, after its ``type`` keyword."""
        kind, name, _, _ = t = self.next()
        if kind != "ident" or not name[0].isupper():
            raise _error("abbreviation names start uppercase", t)
        params = []
        while self.peek()[0] in ("tvar", "eovar"):
            params.append(self.next())
        self.eat_sym("=")
        body = self.parse_type()
        for kind, param, _, _ in reversed(params):
            quantifier = self.system.forall if kind == "tvar" else self.system.alleo
            body = quantifier(param, body)
        return Abbrev(name, len(params), body)

    def expect_eof(self):
        t = self.peek()
        if t[0] != "eof":
            raise _error(f"trailing input starting at {t[1]!r}", t)


# Blank lines, then a line that starts (after blanks) with ``#lang``.
_HEADER = re.compile(r"(?:[ \t\r]*\n)*[ \t\r]*(#lang[^\n]*)")


def split_header(text: str) -> tuple[str, str]:
    """Return (lang, rest): the language the header names, impartial when
    there is none, and ``text`` with the header line's characters removed
    and every other character, line breaks included, left in place."""
    m = _HEADER.match(text)
    if m is None:
        return "impartial", text
    parts = m.group(1).split()
    if len(parts) != 2 or parts[1] not in ("impartial", "econ"):
        raise ParseError("header must be '#lang impartial' or '#lang econ'",
                         text.count("\n", 0, m.start(1)) + 1, 1)
    return parts[1], text[:m.start(1)] + text[m.end(1):]


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
