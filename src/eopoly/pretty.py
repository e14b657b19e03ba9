"""Printers for every syntactic category, matching the parser's grammar.

Parenthesization is minimal: each node prints at its natural precedence
and gets wrapped only when the position demands something tighter.
Printing then parsing is the identity on ASTs.  Source expressions and
core terms share one printer: a form the two grammars have in common
prints the same way in both, and ``pretty_expr``/``pretty_term`` only
say which grammar every node must belong to.
"""

from __future__ import annotations

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
    AArrow,
    AForall,
    AProd,
    ARec,
    ASum,
    AThunk,
    ATyVar,
    AUnit,
    TyApp,
    TyLam,
    Unit,
    Var,
)

# Precedence levels: 0 binder/arrow, 1 sum/app, 2 product/prefix,
# 3 postfix, 4 atom.


def pretty_eo(eo: EO) -> str:
    return f"%{eo.name}" if eo.is_var() else eo.tag


def _wrap(s: str, have: int, need: int) -> str:
    return f"({s})" if have < need else s


def pretty_ty(ty, need: int = 0) -> str:
    match ty:
        case IUnit() | SUnit() | AUnit():
            return "1"
        case ITyVar(n) | STyVar(n) | ATyVar(n):
            return f"'{n}"
        case IForall(v, b) | SForall(v, b) | AForall(v, b):
            return _wrap(f"forall '{v}. {pretty_ty(b)}", 0, need)
        case IAllEo(v, b) | SAllEo(v, b):
            return _wrap(f"all %{v}. {pretty_ty(b)}", 0, need)
        case IArrow(d, c, eo):
            s = f"{pretty_ty(d, 1)} -[{pretty_eo(eo)}]> {pretty_ty(c, 0)}"
            return _wrap(s, 0, need)
        case SArrow(d, c) | AArrow(d, c):
            return _wrap(f"{pretty_ty(d, 1)} -> {pretty_ty(c, 0)}", 0, need)
        case ISum(l, r, eo):
            s = f"{pretty_ty(l, 1)} +[{pretty_eo(eo)}] {pretty_ty(r, 2)}"
            return _wrap(s, 1, need)
        case SSum(l, r) | ASum(l, r):
            return _wrap(f"{pretty_ty(l, 1)} + {pretty_ty(r, 2)}", 1, need)
        case IProd(l, r, eo):
            s = f"{pretty_ty(l, 2)} *[{pretty_eo(eo)}] {pretty_ty(r, 3)}"
            return _wrap(s, 2, need)
        case SProd(l, r) | AProd(l, r):
            return _wrap(f"{pretty_ty(l, 2)} * {pretty_ty(r, 3)}", 2, need)
        case IRec(v, b, eo):
            return _wrap(f"rec[{pretty_eo(eo)}] '{v}. {pretty_ty(b)}", 0, need)
        case SRec(v, b) | ARec(v, b):
            return _wrap(f"rec '{v}. {pretty_ty(b)}", 0, need)
        case SSusp(eo, b):
            return _wrap(f"susp[{pretty_eo(eo)}] {pretty_ty(b, 3)}", 2, need)
        case AThunk(b):
            return _wrap(f"U {pretty_ty(b, 3)}", 2, need)
    raise TypeError(f"not a type: {ty!r}")


def pretty_expr(e: Expr, need: int = 0) -> str:
    return _pretty(e, need, Expr)


def pretty_term(m: Term, need: int = 0) -> str:
    return _pretty(m, need, Term)


_GRAMMAR_NAMES = {Expr: "source expression", Term: "core term"}
_PREFIX = {MThunk: "thunk", MForce: "force", MRoll: "roll", MUnroll: "unroll"}


def _pretty(n, need: int, grammar: type) -> str:
    """``n`` printed at precedence ``need``; every node must belong to
    ``grammar``, source expressions or core terms."""
    if not isinstance(n, grammar):
        raise TypeError(f"not a {_GRAMMAR_NAMES[grammar]}: {n!r}")
    match n:
        case Unit() | MUnit():
            return "()"
        case Var(x) | FixVar(x) | MVar(x) | MFixVar(x):
            return x
        case Lam(x, b) | MLam(x, b):
            return _wrap(f"\\{x}. {_pretty(b, 0, grammar)}", 0, need)
        case Fix(u, b) | MFix(u, b):
            return _wrap(f"fix {u}. {_pretty(b, 0, grammar)}", 0, need)
        case TyLam(v, b):
            return _wrap(f"/\\'{v}. {_pretty(b, 0, grammar)}", 0, need)
        case MTyLam(b):
            return _wrap(f"/\\. {_pretty(b, 0, grammar)}", 0, need)
        case App(f, a) | MApp(f, a):
            return _wrap(f"{_pretty(f, 1, grammar)} {_pretty(a, 3, grammar)}",
                         1, need)
        case Inj(k, b) | MInj(k, b):
            return _wrap(f"inj{k} {_pretty(b, 2, grammar)}", 2, need)
        case MThunk(b) | MForce(b) | MRoll(b) | MUnroll(b):
            return _wrap(f"{_PREFIX[type(n)]} {_pretty(b, 2, grammar)}", 2, need)
        case Proj(k, b) | MProj(k, b):
            return _wrap(f"{_pretty(b, 3, grammar)}.{k}", 3, need)
        case TyApp(b, ty):
            return _wrap(f"{_pretty(b, 3, grammar)} [{pretty_ty(ty)}]", 3, need)
        case MTyApp(b):
            return _wrap(f"{_pretty(b, 3, grammar)} []", 3, need)
        case EoApp(b, eo):
            return _wrap(f"{_pretty(b, 3, grammar)} {{{pretty_eo(eo)}}}", 3, need)
        case Pair(l, r) | MPair(l, r):
            return f"({_pretty(l, 0, grammar)}, {_pretty(r, 0, grammar)})"
        case Anno(b, ty):
            return f"({_pretty(b, 0, grammar)} : {pretty_ty(ty)})"
        case Case(s, x1, b1, x2, b2) | MCase(s, x1, b1, x2, b2):
            return _wrap(
                f"case {_pretty(s, 1, grammar)} {{ inj1 {x1} -> "
                f"{_pretty(b1, 0, grammar)} | inj2 {x2} -> "
                f"{_pretty(b2, 0, grammar)} }}",
                0, need,
            )
    raise TypeError(f"not a {_GRAMMAR_NAMES[grammar]}: {n!r}")
