"""Bidirectional typechecker for the impartial (order-carrying) source
type system.

Its rules are the ones :mod:`eopoly.bidir` runs for both source systems;
this module supplies the impartial connectives and the ``i-`` rule names,
and keeps ``check`` and ``synth`` as the system's entries.
Where the impartial system differs (see :class:`ImpCtx`), a function's
binder is declared at the valueness of its arrow's order, a case binder
at val, and a variable synthesizes the valueness it was declared at.

Every result is a reified :class:`Derivation`, the root of the rules that
typed it, so elaboration and the verification harness can replay it.
"""

from __future__ import annotations

from . import bidir
from .syntax import (
    Derivation,
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
)

IMPARTIAL = bidir.System("i-", IUnit, ITyVar, IForall, IAllEo, IArrow, IProd,
                         ISum, IRec)


def check(ctx: ImpCtx, e: Expr, ty: ImpType) -> Derivation:
    return bidir.check(IMPARTIAL, ctx, e, ty)


def synth(ctx: ImpCtx, e: Expr) -> Derivation:
    return bidir.synth(IMPARTIAL, ctx, e)
