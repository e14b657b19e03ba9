"""Explicit call-by-value core language.

Terms make evaluation order explicit: thunks delay, force resumes, rolls
mediate recursive types, and the quantifier forms are type-free.  The
quantifier introduction is restricted to *valuable* bodies: values, or
projection/injection/roll/unroll/type-operation chains over valuables.

The typechecker works in checking mode, synthesizing where the term
determines its own type.  Synthesis answers as the elaboration's
membership search does: the one type a term has, False when it has none
(a refutation, passed up an elimination spine), or None where the term
leaves its type open.  A synthesized type is the term's only type, so it
decides a check by one ``alpha_eq``, and a refutation refutes it.
Type-free type application cannot synthesize; the checker solves the
instantiation by matching the quantifier body against the expected type,
and at an unroll it refolds the expected type
(``syntax.refold_candidates``).  Only at the joints the term leaves open
(function domains, dropped product components) does it try candidates
from a caller-supplied pool: the target images of the types the source
program's own typing derivation names (``verify.build_pool``,
``verify.target_pool``), held as a ``syntax.Listed``.  A pool handed over
as a function of no arguments is built at the first such joint, and
never on a term that leaves none open.  At an application whose function
and argument both leave the domain open, each candidate domain is tried
on the argument first, as ``ElabChecker`` does: the argument is usually
the smaller side, and a function that is a λ would re-check its whole
body at every domain the argument refutes.  Both checks are pure and
memoized, so the order changes no verdict.

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
    Run,
    Term,
    TgtCtx,
    TgtType,
    alpha_eq,
    alpha_key,
    instantiate,
    kept,
    match_instantiate,
    record,
    refold_candidates,
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

# The forms whose check reads ``synth`` first: a type or a refutation
# decides them, and only where it leaves the type open do their joints try
# candidates.
_SPINES = (MVar, MFixVar, MApp, MProj, MUnroll)
_UNSEEN = object()


def _carry(t, conclude):
    """A spine's answer from its premise's: None and False pass through."""
    return t if t is None or t is False else conclude(t)


class TargetChecker:
    """Memoizing checker for core terms against a fixed candidate pool.

    ``synth`` answers a type, a refutation or nothing, as
    ``ElabChecker._synth`` does, and ``check`` tries candidates only where
    it answers nothing.  Preservation checks re-type nearly identical
    terms step after step; the memos make a whole trace roughly linear in
    total size.  The pool is a ``Listed``, given built or as a function of
    no arguments that the first joint trying candidates calls.  It is
    keyed once and not walked, so each goal's candidate list keys only the
    goal's subterms.
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

    def synth(self, ctx: TgtCtx, m: Term) -> TgtType | bool | None:
        """The one type ``m`` has; False when it has none (an unbound
        variable, a function position that is not an arrow or whose
        argument fails its domain, a projection, force, unroll or case of
        the wrong shape, case branches of different types); None where
        the term leaves its type open."""
        key = (ctx.entries, m)
        hit = self._syn.get(key, _UNSEEN)
        if hit is _UNSEEN:
            hit = self._syn[key] = self._synth(ctx, m)
        return hit

    def _synth(self, ctx: TgtCtx, m: Term) -> TgtType | bool | None:
        match m:
            case MUnit():
                return AUnit()
            case MVar(x) | MFixVar(x):
                try:
                    return ctx.lookup("x" if isinstance(m, MVar) else "u", x)
                except KeyError:
                    return False
            case MApp(fn, arg):
                return _carry(self.synth(ctx, fn), lambda f: (
                    f.cod if isinstance(f, AArrow) and self.check(ctx, arg, f.dom)
                    else False))
            case MProj(k, body):
                return _carry(self.synth(ctx, body), lambda t: (
                    (t.left if k == 1 else t.right) if isinstance(t, AProd)
                    else False))
            case MForce(body):
                return _carry(self.synth(ctx, body),
                              lambda t: t.body if isinstance(t, AThunk) else False)
            case MUnroll(body):
                return _carry(self.synth(ctx, body),
                              lambda t: unfold(t) if isinstance(t, ARec) else False)
            case MThunk(body):
                return _carry(self.synth(ctx, body), AThunk)
            case MPair(l, r):
                a, b = self.synth(ctx, l), self.synth(ctx, r)
                if a is False or b is False:
                    return False
                return AProd(a, b) if a is not None and b is not None else None
            case MCase(scrut, x1, m1, x2, m2):
                s = self.synth(ctx, scrut)
                if not isinstance(s, ASum):
                    return None if s is None else False
                a = self.synth(_bind(ctx, "x", x1, s.left), m1)
                b = self.synth(_bind(ctx, "x", x2, s.right), m2)
                if a is False or b is False:
                    return False
                if a is None or b is None:
                    return None
                return a if alpha_eq(a, b) else False
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
        if isinstance(m, _SPINES):
            t = self.synth(ctx, m)
            if t is not None:
                # A synthesized type is the term's only type.
                return t is not False and alpha_eq(t, ty)
        match m:
            case MUnit():
                return isinstance(ty, AUnit)
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
            # The open joints: the spine's head leaves its type open.
            case MApp(fn, arg):
                a = self.synth(ctx, arg)
                if a is not None:
                    return a is not False and self.check(ctx, fn, AArrow(a, ty))
                # The argument first (see the module docstring): a
                # domain it refutes never reaches the function's body.
                return any(
                    self.check(ctx, arg, cand)
                    and self.check(ctx, fn, AArrow(cand, ty))
                    for cand in self.candidates(ty)
                )
            case MProj(k, body):
                return any(
                    self.check(
                        ctx, body,
                        AProd(ty, other) if k == 1 else AProd(other, ty),
                    )
                    for other in self.candidates(ty)
                )
            case MUnroll(body):
                return any(self.check(ctx, body, cand)
                           for cand in refold_candidates(ty))
            case MCase(scrut, x1, m1, x2, m2):
                # A refuted scrutinee, or one of another shape, refutes.
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
                    # A refuted body, or one that is not polymorphic, refutes.
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


def target_check(ctx: TgtCtx, m: Term, ty: TgtType,
                 pool: tuple[TgtType, ...] | Callable[[], tuple] = ()) -> bool:
    return TargetChecker(pool).check(ctx, m, ty)


# ---------------------------------------------------------------------------
# Operational semantics
# ---------------------------------------------------------------------------

@record
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


@record
class EvalResult:
    kind: str  # "value" | "stuck" | "out-of-fuel"
    term: Term
    steps: int


def evaluate(m: Term, fuel: int, on_state=None) -> EvalResult:
    """The run of ``m`` to its end; ``on_state`` sees each state as it
    comes (see ``syntax.Run.finish``)."""
    return EvalResult(*run(m, fuel).finish(on_state))
