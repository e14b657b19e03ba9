"""Freedom from by-name machinery, at each of the three levels.

A type is N-free when every order it carries is by-value and it has no
order quantifier; a judgment additionally needs an N-free context (term
variables declared val) and an N-free expression: one walk over the
expression and the types inside it finds every order an instantiation
marker or an annotation carries.  A core term is N-free when it contains
no thunk or force.
"""

from __future__ import annotations

from .syntax import (
    EO,
    EconCtx,
    EconType,
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
    for n in subterms(node):
        if isinstance(n, forbid_quantifier):
            return False
        for _, v in children(n):
            if isinstance(v, EO) and v != V:
                return False
    return True


def n_free_impartial_type(ty: ImpType) -> bool:
    return _orders_ok(ty, IAllEo)


def n_free_econ_type(ty: EconType) -> bool:
    return _orders_ok(ty, SAllEo)


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
    return _orders_ok(e, IAllEo) and n_free_impartial_type(ty)


def n_free_econ_judgment(ctx: EconCtx, e: Expr, ty: EconType) -> bool:
    for kind, _, payload in ctx.entries:
        if kind == "eo":
            return False
        if kind in ("x", "u") and not n_free_econ_type(payload):
            return False
    return _orders_ok(e, SAllEo) and n_free_econ_type(ty)


def n_free_target(m: Term) -> bool:
    return not any(isinstance(n, (MThunk, MForce)) for n in subterms(m))
