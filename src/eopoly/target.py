"""Explicit call-by-value core language.

Terms make evaluation order explicit: thunks delay, force resumes, rolls
mediate recursive types, and the quantifier forms are type-free.  The
quantifier introduction is restricted to *valuable* bodies: values, or
projection/injection/roll/unroll/type-operation chains over valuables.

The typechecker works in checking mode, synthesizing where the term
determines its own type; a synthesized type is the term's only type, so
it decides outright.  Type-free type application cannot synthesize; the
checker solves the instantiation by matching the quantifier body against
the expected type, and at an unroll it refolds the expected type
(``syntax.refold_candidates``).  Only at the joints the term does not
determine (function domains, dropped product components) does it try
candidates from a caller-supplied pool: the target images of
the types the source program's own typing derivation names
(``verify.build_pool``, ``verify.target_pool``).  A pool handed over as a
function of no arguments is built at the first such joint, and never on
a term that leaves none open.  At an application
whose function and argument both leave the domain open, each candidate
domain is tried on the argument first, as ``ElabChecker`` does: the
argument is usually the smaller side, and a function that is a λ would
re-check its whole body at every domain the argument refutes.  Both
checks are pure and memoized, so the order changes no verdict.

The evaluation-context grammar is declared once, in ``CONTEXTS``: the
fields each constructor evaluates, left to right (thunk bodies,
abstraction bodies and case branches are frozen).  ``VALUES`` names the
constructors that form a value once those fields hold values, and
``VALUABLES`` adds the eliminations a valuable may apply to them.  The
stepper is substitution-based and deterministic: ``run`` is the term's
``syntax.Run``, whose walk finds the unique redex and its context and
whose ``_contract`` reduces it; a value is a term in which the walk finds
no redex, which ``is_value`` answers from the fields alone and keeps on
the node.  ``step`` is a run's first contraction and ``evaluate`` a whole
run, which does not step from the root each time but resumes the walk at
each contractum, in the context it already holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from .syntax import (
    AArrow,
    AForall,
    AProd,
    ARec,
    ASum,
    AThunk,
    ATyVar,
    AUnit,
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
    Run,
    Term,
    TgtCtx,
    TgtType,
    alpha_eq,
    alpha_key,
    instantiate,
    kept,
    match_instantiate,
    refold_candidates,
    subterms,
    unfold,
    vacuous,
)
from .wf import ty_wf

CONTEXTS = {
    MApp: ("fn", "arg"),
    MPair: ("left", "right"),
    MCase: ("scrut",),
    MTyApp: ("body",),
    MForce: ("body",),
    MProj: ("body",),
    MInj: ("body",),
    MRoll: ("body",),
    MUnroll: ("body",),
}
VALUES = (MUnit, MVar, MLam, MTyLam, MThunk, MPair, MInj, MRoll)
VALUABLES = VALUES + (MProj, MTyApp, MUnroll)


@kept
def is_value(m: Term) -> bool:
    """``m`` holds no redex: its class is in ``VALUES`` and each field that
    ``CONTEXTS`` evaluates holds a value.  Kept on the node."""
    return isinstance(m, VALUES) and _evaluated(m, is_value)


@kept
def is_valuable(m: Term) -> bool:
    """``is_value`` over ``VALUABLES``."""
    return isinstance(m, VALUABLES) and _evaluated(m, is_valuable)


def _evaluated(m: Term, holds) -> bool:
    """Each field of ``m`` that ``CONTEXTS`` evaluates ``holds``."""
    for f in CONTEXTS.get(type(m), ()):
        if not holds(getattr(m, f)):
            return False
    return True


# ---------------------------------------------------------------------------
# Typechecking
# ---------------------------------------------------------------------------

class TargetChecker:
    """Memoizing checker for core terms against a fixed candidate pool.

    Preservation checks re-type nearly identical terms step after step;
    the memo makes a whole trace roughly linear in total size.  The pool
    may be given unbuilt, as a function of no arguments: it is called at
    the first joint that tries candidates, and the pool is keyed once, so
    each goal's candidate list then keys only the goal's subterms.
    """

    def __init__(self, pool: tuple[TgtType, ...] | Callable[[], tuple] = ()):
        self._given = pool
        self._chk: dict = {}
        self._syn: dict = {}
        self._cands: dict = {}

    @cached_property
    def pool(self) -> tuple[TgtType, ...]:
        return tuple(self._given() if callable(self._given) else self._given)

    @cached_property
    def _pool_keys(self) -> dict:
        keys: dict = {}
        for t in self.pool:
            keys.setdefault(alpha_key(t), t)
        return keys

    def candidates(self, ty: TgtType) -> list[TgtType]:
        """``dedup(pool + subterms(ty) + [AUnit()])``."""
        key = alpha_key(ty)
        hit = self._cands.get(key)
        if hit is None:
            pool, new = self._pool_keys, {}
            for t in subterms(ty) + [AUnit()]:
                k = alpha_key(t)
                if k not in pool:
                    new.setdefault(k, t)
            hit = self._cands[key] = [*pool.values(), *new.values()]
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
                for cand in self.pool:
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


def target_check(ctx: TgtCtx, m: Term, ty: TgtType,
                 pool: tuple[TgtType, ...] | Callable[[], tuple] = ()) -> bool:
    return TargetChecker(pool).check(ctx, m, ty)


# ---------------------------------------------------------------------------
# Operational semantics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepResult:
    kind: str  # "value" | "stuck" | "step"
    term: Term | None = None
    rule: str = ""


def _contract(m: Term) -> tuple[str, Term] | None:
    """The rule and result of reducing the redex ``m``; None if stuck."""
    match m:
        case MApp(MLam() as fn, arg):
            return "beta", instantiate(fn, arg)
        case MTyApp(MTyLam(body)):
            return "tyapp", body
        case MForce(MThunk(body)):
            return "force", body
        case MFix():
            return "fix", unfold(m)
        case MProj(k, MPair(l, r)):
            return "proj", l if k == 1 else r
        case MCase(MInj(k, v)):
            return "case", instantiate(m, v, f"body{k}")
        case MUnroll(MRoll(body)):
            return "unroll", body
    return None


def run(m: Term, fuel: int) -> Run:
    """The by-value run of ``m`` (see ``syntax.Run``)."""
    return Run(m, CONTEXTS, VALUES, _contract, fuel)


def step(m: Term) -> StepResult:
    """One deterministic by-value step, the first of ``m``'s run; values
    and stuck terms report as such."""
    r = run(m, 1)
    for rule in r:
        return StepResult("step", r.term(), rule)
    return StepResult(r.kind)


@dataclass
class EvalResult:
    kind: str  # "value" | "stuck" | "out-of-fuel"
    term: Term
    steps: int


def evaluate(m: Term, fuel: int, on_state=None) -> EvalResult:
    """The run of ``m`` to its end; ``on_state`` sees each state as it
    comes (see ``syntax.Run.finish``)."""
    return EvalResult(*run(m, fuel).finish(on_state))
