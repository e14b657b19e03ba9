"""Freedom from by-name machinery, at each of the three levels.

A type is N-free when every order it carries is by-value and it has no
order quantifier; a judgment additionally needs an N-free context (term
variables declared val) and N-free annotations; a core term is N-free
when it contains no thunk or force.
"""

from __future__ import annotations

from .syntax import (
    EO,
    EconCtx,
    EconType,
    EoApp,
    Expr,
    IAllEo,
    ImpCtx,
    ImpType,
    MForce,
    MThunk,
    Node,
    SAllEo,
    Term,
    V,
    VAL,
    children,
    subterms,
)


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
