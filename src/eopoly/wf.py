"""Scoping and kinding for orders and the three type grammars.

All judgments are decidable syntax-directed checks returning booleans.
``rec_guarded`` is the whole termination argument for unfolding, in the
typecheckers and in the enumerator: under every recursive binder, each
occurrence of the bound variable must sit beneath an arrow, product, or
sum.  A suspension point does not count as a guard, because the
economical checker strips suspensions silently during synthesis; nor does
a thunk type, its image in the target grammar.  So in a guarded
``rec a. B`` the variable ``a`` is not at ``B``'s head: an unfolding takes
one recursive layer off the type's head and puts none back, and a loop
that strips and unfolds until a connective shows ends without a budget.
"""

from __future__ import annotations

from .syntax import (
    AArrow,
    AProd,
    ASum,
    Ctx,
    IArrow,
    IProd,
    ISum,
    Node,
    REC_TYPES,
    SArrow,
    SProd,
    SSum,
    children,
    free_names,
    kept,
)

_GUARDS = (IArrow, IProd, ISum, SArrow, SProd, SSum, AArrow, AProd, ASum)


def ty_wf(ctx: Ctx, ty: Node) -> bool:
    """A type of any grammar, or an order, is well formed when the context
    declares each of its free type and order variables."""
    return (free_names(ty, "ty") <= ctx.declared("ty")
            and free_names(ty, "eo") <= ctx.declared("eo"))


@kept
def rec_guarded(ty: Node) -> bool:
    """True iff every recursive binder in ``ty`` is structurally guarded.
    The answer depends on ``ty`` alone and is kept on the node."""
    return _guarded(ty, frozenset())


def _guarded(ty: Node, unguarded: frozenset[str]) -> bool:
    # ``unguarded`` holds the recursive variables whose binder has not yet
    # been separated from the current position by an arrow, product, or sum.
    # An order variable is a reference too, but never a recursive one.
    cls = type(ty)
    if cls.ref is not None:
        return cls.ref[0] != "ty" or getattr(ty, cls.ref[1]) not in unguarded
    if isinstance(ty, _GUARDS):
        unguarded = frozenset()
    for binder, ns, _ in cls.scopes:
        if ns == "ty":
            var = getattr(ty, binder)
            # Nesting under another recursive binder does not guard.
            unguarded = (unguarded | {var} if isinstance(ty, REC_TYPES)
                         else unguarded - {var})
    for _, v in children(ty):
        if isinstance(v, Node) and not _guarded(v, unguarded):
            return False
    return True
