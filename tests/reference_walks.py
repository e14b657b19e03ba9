"""The rebuild walks and term printers as they were written before the
generic ``syntax.rebuild`` and the shared printer: one ``match`` clause
per constructor.  Kept verbatim as the oracle that ``test_walks.py``
compares the package's versions against.  ``dedup``, the list without
alpha-equivalent repeats that ``syntax.Listed`` replaced, is the oracle
of the pool tests.
"""

from __future__ import annotations

from functools import lru_cache

from eopoly.econ import econ_type
from eopoly.pretty import _wrap, pretty_eo, pretty_ty
from eopoly.syntax import (
    EO,
    V,
    VAL,
    Anno,
    App,
    Case,
    EconCtx,
    EconType,
    EoApp,
    Expr,
    Fix,
    FixVar,
    IAllEo,
    ImpCtx,
    ImpType,
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
    Node,
    Pair,
    Proj,
    SAllEo,
    SArrow,
    SForall,
    SProd,
    SRec,
    SSum,
    SSusp,
    Term,
    TyApp,
    TyLam,
    Unit,
    Var,
    alpha_key,
    children,
    subterms,
)


def dedup(nodes: list[Node]) -> list[Node]:
    """``nodes`` without alpha-equivalent repeats, first occurrences kept."""
    out: dict = {}
    for n in nodes:
        out.setdefault(alpha_key(n), n)
    return list(out.values())


def erase(e: Expr) -> Expr:
    """Drop annotations, type abstraction/application, and order markers."""
    match e:
        case Anno(body, _) | TyLam(_, body) | TyApp(body, _) | EoApp(body, _):
            return erase(body)
        case Unit() | Var(_) | FixVar(_):
            return e
        case Lam(x, body):
            return Lam(x, erase(body))
        case App(fn, arg):
            return App(erase(fn), erase(arg))
        case Fix(u, body):
            return Fix(u, erase(body))
        case Pair(l, r):
            return Pair(erase(l), erase(r))
        case Proj(k, body):
            return Proj(k, erase(body))
        case Inj(k, body):
            return Inj(k, erase(body))
        case Case(s, x1, e1, x2, e2):
            return Case(erase(s), x1, erase(e1), x2, erase(e2))
    raise TypeError(f"not a source expression: {e!r}")


def econ_expr(e: Expr) -> Expr:
    """Rewrite every annotation through the type translation."""
    match e:
        case Unit() | Var(_) | FixVar(_):
            return e
        case Anno(body, ty):
            return Anno(econ_expr(body), econ_type(ty))
        case TyApp(body, ty):
            return TyApp(econ_expr(body), econ_type(ty))
        case EoApp(body, eo):
            return EoApp(econ_expr(body), eo)
        case Lam(x, body):
            return Lam(x, econ_expr(body))
        case App(fn, arg):
            return App(econ_expr(fn), econ_expr(arg))
        case Fix(u, body):
            return Fix(u, econ_expr(body))
        case TyLam(a, body):
            return TyLam(a, econ_expr(body))
        case Pair(l, r):
            return Pair(econ_expr(l), econ_expr(r))
        case Proj(k, body):
            return Proj(k, econ_expr(body))
        case Inj(k, body):
            return Inj(k, econ_expr(body))
        case Case(s, x1, e1, x2, e2):
            return Case(econ_expr(s), x1, econ_expr(e1), x2, econ_expr(e2))
    raise TypeError(f"not a source expression: {e!r}")


@lru_cache(maxsize=None)
def _nf(ty: EconType) -> EconType:
    """Erase every by-value suspension: they elaborate to nothing and
    preserve valueness, so membership in the elaboration relation is
    invariant under them at any depth."""
    match ty:
        case SSusp(eo, body):
            return _nf(body) if eo == V else SSusp(eo, _nf(body))
        case SArrow(dom, cod):
            return SArrow(_nf(dom), _nf(cod))
        case SProd(l, r):
            return SProd(_nf(l), _nf(r))
        case SSum(l, r):
            return SSum(_nf(l), _nf(r))
        case SForall(v, b):
            return SForall(v, _nf(b))
        case SAllEo(v, b):
            return SAllEo(v, _nf(b))
        case SRec(v, b):
            return SRec(v, _nf(b))
    return ty


def _orders_ok(node: Node, forbid_quantifier: type) -> bool:
    return not any(isinstance(n, forbid_quantifier)
                   or any(isinstance(v, EO) and v != V for _, v in children(n))
                   for n in subterms(node))


def n_free_impartial_type(ty: ImpType) -> bool:
    return _orders_ok(ty, IAllEo)


def n_free_econ_type(ty: EconType) -> bool:
    return _orders_ok(ty, SAllEo)


def _expr_types_n_free(e: Expr, type_pred) -> bool:
    if isinstance(e, EoApp) and e.eo != V:
        return False
    for _, v in children(e):
        if isinstance(v, (ImpType, EconType)):
            if not type_pred(v):
                return False
        elif isinstance(v, Expr):
            if not _expr_types_n_free(v, type_pred):
                return False
    return True


def n_free_impartial_judgment(ctx: ImpCtx, e: Expr, ty: ImpType) -> bool:
    """N-freeness of a whole impartial judgment.

    Term-variable declarations must be val (a top declaration would
    translate to a by-name suspension); fixed-point declarations are top
    by construction, so only their types are constrained.
    """
    for kind, _, payload in ctx.entries:
        if kind == "eo":
            return False
        if kind == "x":
            v, t = payload
            if v != VAL or not n_free_impartial_type(t):
                return False
        if kind == "u":
            _, t = payload
            if not n_free_impartial_type(t):
                return False
    if not _expr_types_n_free(e, n_free_impartial_type):
        return False
    return n_free_impartial_type(ty)


def n_free_econ_judgment(ctx: EconCtx, e: Expr, ty: EconType) -> bool:
    for kind, _, payload in ctx.entries:
        if kind == "eo":
            return False
        if kind in ("x", "u") and not n_free_econ_type(payload):
            return False
    if not _expr_types_n_free(e, n_free_econ_type):
        return False
    return n_free_econ_type(ty)


def n_free_target(m: Term) -> bool:
    if isinstance(m, (MThunk, MForce)):
        return False
    for _, v in children(m):
        if isinstance(v, Term) and not n_free_target(v):
            return False
    return True


def pretty_expr(e: Expr, need: int = 0) -> str:
    match e:
        case Unit():
            return "()"
        case Var(x) | FixVar(x):
            return x
        case Lam(x, b):
            return _wrap(f"\\{x}. {pretty_expr(b)}", 0, need)
        case Fix(u, b):
            return _wrap(f"fix {u}. {pretty_expr(b)}", 0, need)
        case TyLam(v, b):
            return _wrap(f"/\\'{v}. {pretty_expr(b)}", 0, need)
        case App(f, a):
            return _wrap(f"{pretty_expr(f, 1)} {pretty_expr(a, 3)}", 1, need)
        case Inj(k, b):
            return _wrap(f"inj{k} {pretty_expr(b, 2)}", 2, need)
        case Proj(k, b):
            return _wrap(f"{pretty_expr(b, 3)}.{k}", 3, need)
        case TyApp(b, ty):
            return _wrap(f"{pretty_expr(b, 3)} [{pretty_ty(ty)}]", 3, need)
        case EoApp(b, eo):
            return _wrap(f"{pretty_expr(b, 3)} {{{pretty_eo(eo)}}}", 3, need)
        case Pair(l, r):
            return f"({pretty_expr(l)}, {pretty_expr(r)})"
        case Anno(b, ty):
            return f"({pretty_expr(b)} : {pretty_ty(ty)})"
        case Case(s, x1, b1, x2, b2):
            return _wrap(
                f"case {pretty_expr(s, 1)} {{ inj1 {x1} -> {pretty_expr(b1)}"
                f" | inj2 {x2} -> {pretty_expr(b2)} }}",
                0, need,
            )
    raise TypeError(f"not a source expression: {e!r}")


def pretty_term(m, need: int = 0) -> str:
    match m:
        case MUnit():
            return "()"
        case MVar(x) | MFixVar(x):
            return x
        case MLam(x, b):
            return _wrap(f"\\{x}. {pretty_term(b)}", 0, need)
        case MFix(u, b):
            return _wrap(f"fix {u}. {pretty_term(b)}", 0, need)
        case MTyLam(b):
            return _wrap(f"/\\. {pretty_term(b)}", 0, need)
        case MTyApp(b):
            return _wrap(f"{pretty_term(b, 3)} []", 3, need)
        case MApp(f, a):
            return _wrap(f"{pretty_term(f, 1)} {pretty_term(a, 3)}", 1, need)
        case MThunk(b):
            return _wrap(f"thunk {pretty_term(b, 2)}", 2, need)
        case MForce(b):
            return _wrap(f"force {pretty_term(b, 2)}", 2, need)
        case MRoll(b):
            return _wrap(f"roll {pretty_term(b, 2)}", 2, need)
        case MUnroll(b):
            return _wrap(f"unroll {pretty_term(b, 2)}", 2, need)
        case MInj(k, b):
            return _wrap(f"inj{k} {pretty_term(b, 2)}", 2, need)
        case MProj(k, b):
            return _wrap(f"{pretty_term(b, 3)}.{k}", 3, need)
        case MPair(l, r):
            return f"({pretty_term(l)}, {pretty_term(r)})"
        case MCase(s, x1, b1, x2, b2):
            return _wrap(
                f"case {pretty_term(s, 1)} {{ inj1 {x1} -> {pretty_term(b1)}"
                f" | inj2 {x2} -> {pretty_term(b2)} }}",
                0, need,
            )
    raise TypeError(f"not a core term: {m!r}")
