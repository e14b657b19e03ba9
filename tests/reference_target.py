"""The core checker as it was written before ``TargetChecker.synth``
answered refutations: ``synth`` answers a type or None, and ``_check``
states each elimination's conclusion a second time to recover what a
None hides.  Kept verbatim as an oracle: ``test_target.py`` asks it the
same ``check`` questions as the package's checker.
"""

from __future__ import annotations

from typing import Callable

from eopoly.syntax import (
    AArrow,
    AForall,
    AProd,
    ARec,
    ASum,
    AThunk,
    ATyVar,
    AUnit,
    Listed,
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
    MTyApp,
    MTyLam,
    MThunk,
    MUnit,
    MUnroll,
    MVar,
    Term,
    TgtCtx,
    TgtType,
    alpha_eq,
    alpha_key,
    instantiate,
    match_instantiate,
    refold_candidates,
    unfold,
    vacuous,
)
from eopoly.target import is_valuable
from eopoly.wf import ty_wf


class TargetChecker:
    """Memoizing checker for core terms against a fixed candidate pool.

    Preservation checks re-type nearly identical terms step after step;
    the memo makes a whole trace roughly linear in total size.  The pool
    is a ``Listed``, given built or as a function of no arguments that the
    first joint trying candidates calls.  It is keyed once and not walked,
    so each goal's candidate list keys only the goal's subterms.
    """

    def __init__(self, pool: tuple[TgtType, ...] | Callable[[], tuple] = ()):
        self._pool = Listed(pool)
        self._chk: dict = {}
        self._syn: dict = {}
        self._cands: dict = {}

    def candidates(self, ty: TgtType) -> list[TgtType]:
        """The pool, then what it lacks of ``ty``'s subterms and unit."""
        key = alpha_key(ty)
        hit = self._cands.get(key)
        if hit is None:
            hit = self._cands[key] = self._pool.then((ty, AUnit()))
        return hit

    def synth(self, ctx: TgtCtx, m: Term) -> TgtType | None:
        """Best-effort synthesis; None where the term underdetermines it."""
        key = (ctx.entries, m)
        hit = self._syn.get(key, False)
        if hit is not False:
            return hit
        out = self._synth(ctx, m)
        self._syn[key] = out
        return out

    def _synth(self, ctx: TgtCtx, m: Term) -> TgtType | None:
        match m:
            case MUnit():
                return AUnit()
            case MVar(x):
                try:
                    return ctx.lookup("x", x)
                except KeyError:
                    return None
            case MFixVar(u):
                try:
                    return ctx.lookup("u", u)
                except KeyError:
                    return None
            case MApp(fn, arg):
                f = self.synth(ctx, fn)
                if isinstance(f, AArrow) and self.check(ctx, arg, f.dom):
                    return f.cod
                return None
            case MProj(k, body):
                t = self.synth(ctx, body)
                if isinstance(t, AProd):
                    return t.left if k == 1 else t.right
                return None
            case MForce(body):
                t = self.synth(ctx, body)
                return t.body if isinstance(t, AThunk) else None
            case MUnroll(body):
                t = self.synth(ctx, body)
                return unfold(t) if isinstance(t, ARec) else None
            case MThunk(body):
                t = self.synth(ctx, body)
                return AThunk(t) if t is not None else None
            case MPair(l, r):
                a = self.synth(ctx, l)
                b = self.synth(ctx, r)
                return AProd(a, b) if a is not None and b is not None else None
            case MCase(scrut, x1, m1, x2, m2):
                s = self.synth(ctx, scrut)
                if not isinstance(s, ASum):
                    return None
                a = self.synth(_bind(ctx, "x", x1, s.left), m1)
                b = self.synth(_bind(ctx, "x", x2, s.right), m2)
                if a is not None and b is not None and alpha_eq(a, b):
                    return a
                return None
        return None

    def check(self, ctx: TgtCtx, m: Term, ty: TgtType) -> bool:
        key = (ctx.entries, m, ty)
        hit = self._chk.get(key)
        if hit is not None:
            return hit
        out = self._check(ctx, m, ty)
        self._chk[key] = out
        return out

    def _check(self, ctx: TgtCtx, m: Term, ty: TgtType) -> bool:
        match m:
            case MUnit():
                return isinstance(ty, AUnit)
            case MVar(x):
                try:
                    return alpha_eq(ctx.lookup("x", x), ty)
                except KeyError:
                    return False
            case MFixVar(u):
                try:
                    return alpha_eq(ctx.lookup("u", u), ty)
                except KeyError:
                    return False
            case MLam(x, body):
                return isinstance(ty, AArrow) and self.check(
                    _bind(ctx, "x", x, ty.dom), body, ty.cod
                )
            case MFix(u, body):
                return self.check(_bind(ctx, "u", u, ty), body, ty)
            case MTyLam(body):
                if not isinstance(ty, AForall) or not is_valuable(body):
                    return False
                a = ctx.fresh(ty.var, "ty", scope=(ty,))
                return self.check(ctx.with_ty(a), body, instantiate(ty, ATyVar(a)))
            case MThunk(body):
                return isinstance(ty, AThunk) and self.check(ctx, body, ty.body)
            case MPair(l, r):
                return (
                    isinstance(ty, AProd)
                    and self.check(ctx, l, ty.left)
                    and self.check(ctx, r, ty.right)
                )
            case MInj(k, body):
                if not isinstance(ty, ASum):
                    return False
                return self.check(ctx, body, ty.left if k == 1 else ty.right)
            case MRoll(body):
                return isinstance(ty, ARec) and self.check(ctx, body, unfold(ty))
            case MForce(body):
                return self.check(ctx, body, AThunk(ty))
            case MApp(fn, arg):
                f = self.synth(ctx, fn)
                if f is not None:
                    return (isinstance(f, AArrow) and alpha_eq(f.cod, ty)
                            and self.check(ctx, arg, f.dom))
                a = self.synth(ctx, arg)
                if a is not None:
                    return self.check(ctx, fn, AArrow(a, ty))
                # The argument first (see the module docstring): a
                # domain it refutes never reaches the function's body.
                return any(
                    self.check(ctx, arg, cand)
                    and self.check(ctx, fn, AArrow(cand, ty))
                    for cand in self.candidates(ty)
                )
            case MProj(k, body):
                t = self.synth(ctx, body)
                if t is not None:
                    return isinstance(t, AProd) and alpha_eq(
                        t.left if k == 1 else t.right, ty)
                return any(
                    self.check(
                        ctx, body,
                        AProd(ty, other) if k == 1 else AProd(other, ty),
                    )
                    for other in self.candidates(ty)
                )
            case MUnroll(body):
                t = self.synth(ctx, body)
                if t is not None:
                    return isinstance(t, ARec) and alpha_eq(unfold(t), ty)
                return any(self.check(ctx, body, cand)
                           for cand in refold_candidates(ty))
            case MCase(scrut, x1, m1, x2, m2):
                s = self.synth(ctx, scrut)
                if s is not None and not isinstance(s, ASum):
                    return False
                sums = [s] if s is not None else [
                    c for c in self.candidates(ty) if isinstance(c, ASum)
                ]
                for cand in sums:
                    if s is None and not self.check(ctx, scrut, cand):
                        continue
                    if self.check(_bind(ctx, "x", x1, cand.left), m1, ty) and self.check(
                        _bind(ctx, "x", x2, cand.right), m2, ty
                    ):
                        return True
                return False
            case MTyApp(body):
                t = self.synth(ctx, body)
                if t is not None:
                    if not isinstance(t, AForall):
                        return False
                    sol = match_instantiate(t, ty)
                    return sol == "any" or (sol is not None and ty_wf(ctx, sol))
                if isinstance(body, MTyLam):
                    # The goal does not mention the bound variable here, so
                    # the body checking at a quantifier that binds nothing
                    # around the goal witnesses some valid quantified type.
                    return self.check(ctx, body, vacuous(AForall, "ty", ty))
                for cand in self._pool:
                    if isinstance(cand, AForall):
                        sol = match_instantiate(cand, ty)
                        if sol == "any" or (sol is not None and ty_wf(ctx, sol)):
                            if self.check(ctx, body, cand):
                                return True
                return False
        return False


def _bind(ctx: TgtCtx, kind: str, name: str, ty: TgtType) -> TgtCtx:
    """Declare ``name``, shadowing an earlier declaration of it."""
    entries = tuple(en for en in ctx.entries if en[:2] != (kind, name))
    return TgtCtx(entries + ((kind, name, ty),))
