"""The suspension-point type system and the translation into it.

Types here keep by-value connectives only; the single extra connective
``SSusp(eo, S)`` is a no-op when the order is by-value and a thunk type
when by-name.  The translation pushes each connective's order into
suspension points: function domains and both product components get
suspended, sums and recursive bodies are suspended outside.

The checker is the impartial system's (:mod:`eopoly.bidir`), run on this
system's connectives and ``r-`` rule names.  The new traffic is in
subsumption and exposure, which silently wrap or strip suspension points
(stripping a by-name suspension costs the valueness, wrapping one refines
it to val).  Every binder is declared at its type, whose suspension
carries its order, and every term variable synthesizes val (see
:class:`EconCtx`).  ``econ_synth`` also strips the by-value suspensions
its result starts with.
"""

from __future__ import annotations

from . import bidir
from .syntax import (
    N,
    V,
    VAL,
    Derivation,
    EconCtx,
    EconType,
    Expr,
    IAllEo,
    IArrow,
    IForall,
    ImpCtx,
    ImpType,
    IProd,
    IRec,
    ISum,
    ITyVar,
    IUnit,
    Node,
    SAllEo,
    SArrow,
    SForall,
    SProd,
    SRec,
    SSum,
    SSusp,
    STyVar,
    SUnit,
    rebuild,
)


# ---------------------------------------------------------------------------
# Translation from the order-carrying types
# ---------------------------------------------------------------------------

def econ_type(ty: ImpType) -> EconType:
    match ty:
        case IUnit():
            return SUnit()
        case ITyVar(name):
            return STyVar(name)
        case IForall(var, body):
            return SForall(var, econ_type(body))
        case IAllEo(var, body):
            return SAllEo(var, econ_type(body))
        case IArrow(dom, cod, eo):
            return SArrow(SSusp(eo, econ_type(dom)), econ_type(cod))
        case IProd(left, right, eo):
            return SProd(SSusp(eo, econ_type(left)), SSusp(eo, econ_type(right)))
        case ISum(left, right, eo):
            return SSusp(eo, SSum(econ_type(left), econ_type(right)))
        case IRec(var, body, eo):
            return SRec(var, SSusp(eo, econ_type(body)))
    raise TypeError(f"not an impartial type: {ty!r}")


def econ_ctx(ctx: ImpCtx) -> EconCtx:
    out = EconCtx()
    for kind, name, payload in ctx.entries:
        if kind == "x":
            v, ty = payload
            wrapped = SSusp(V if v == VAL else N, econ_type(ty))
            out = out.with_x(name, wrapped)
        elif kind == "u":
            _, ty = payload
            out = out.with_u(name, econ_type(ty))
        elif kind == "ty":
            out = out.with_ty(name)
        else:
            out = out.with_eo(name)
    return out


def econ_expr(e: Expr) -> Expr:
    """Rewrite every annotation through the type translation."""
    if not isinstance(e, Expr):
        raise TypeError(f"not a source expression: {e!r}")
    return rebuild(e, _econ_child)


def _econ_child(n: Node) -> Node:
    return econ_expr(n) if isinstance(n, Expr) else econ_type(n)


# ---------------------------------------------------------------------------
# Bidirectional checking
# ---------------------------------------------------------------------------

ECON = bidir.System("r-", SUnit, STyVar, SForall, SAllEo, SArrow, SProd, SSum,
                    SRec)


def econ_check(ctx: EconCtx, e: Expr, ty: EconType) -> Derivation:
    return bidir.check(ECON, ctx, e, ty)


def econ_synth(ctx: EconCtx, e: Expr) -> Derivation:
    """Synthesize, then shed top-level by-value suspensions.

    The strip is free (valueness preserved) and gives callers the type
    they can actually use.
    """
    r = bidir.synth(ECON, ctx, e)
    while isinstance(r.ty, SSusp) and r.ty.eo == V:
        r = bidir.strip(ECON, ctx, e, r)
    return r

