"""Explicit call-by-value core language.

Terms make evaluation order explicit: thunks delay, force resumes, rolls
mediate recursive types, and the quantifier forms are type-free.  The
quantifier introduction is restricted to *valuable* bodies: values, or
projection/injection/roll/unroll/type-operation chains over valuables.

The typechecker works in checking mode, synthesizing where the term
determines its own type; a synthesized type is the term's only type, so
it decides outright.  Type-free type application cannot synthesize; the
checker solves the instantiation by matching the quantifier body against
the expected type.  Only at the few joints the term does not determine
(function domains, dropped product components, refolded recursive types)
does it try candidates from a caller-supplied pool: the target images of
the types the source program's own typing derivation names
(``verify.build_pool``, ``verify.target_pool``).

The stepper is substitution-based and deterministic: a single left-to-
right descent locates the unique redex position admitted by the
evaluation-context grammar (thunk bodies, abstraction bodies and case
branches are frozen).
"""

from __future__ import annotations

from dataclasses import dataclass

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
    Term,
    TgtCtx,
    TgtType,
    alpha_eq,
    alpha_key,
    dedup,
    fresh_name,
    free_names,
    match_instantiate,
    refold_candidates,
    subst_fix_term,
    subst_term,
    subst_ty_in_ty,
    subterms,
    unfold,
)
from .wf import ty_wf

VALUE = "value"
VALUABLE = "valuable"
NEITHER = "neither"


def is_value(m: Term) -> bool:
    match m:
        case MUnit() | MVar(_) | MLam(_, _) | MTyLam(_) | MThunk(_):
            return True
        case MPair(l, r):
            return is_value(l) and is_value(r)
        case MInj(_, body) | MRoll(body):
            return is_value(body)
    return False


def is_valuable(m: Term) -> bool:
    if is_value(m):
        return True
    match m:
        case MPair(l, r):
            return is_valuable(l) and is_valuable(r)
        case MInj(_, b) | MRoll(b) | MProj(_, b) | MTyApp(b) | MUnroll(b):
            return is_valuable(b)
    return False


def classify(m: Term) -> str:
    if is_value(m):
        return VALUE
    if is_valuable(m):
        return VALUABLE
    return NEITHER


# ---------------------------------------------------------------------------
# Typechecking
# ---------------------------------------------------------------------------

class TargetChecker:
    """Memoizing checker for core terms against a fixed candidate pool.

    Preservation checks re-type nearly identical terms step after step;
    the memo makes a whole trace roughly linear in total size.
    """

    def __init__(self, pool: tuple[TgtType, ...] = ()):
        self.pool = tuple(pool)
        self._chk: dict = {}
        self._syn: dict = {}
        self._cands: dict = {}

    def candidates(self, ty: TgtType) -> list[TgtType]:
        key = alpha_key(ty)
        hit = self._cands.get(key)
        if hit is None:
            hit = dedup(list(self.pool) + subterms(ty) + [AUnit()])
            self._cands[key] = hit
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
                a = ctx.fresh(ty.var, "ty")
                body_ty = subst_ty_in_ty(ATyVar(a), ty.var, ty.body)
                return self.check(ctx.with_ty(a), body, body_ty)
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
                return any(
                    self.check(ctx, fn, AArrow(cand, ty))
                    and self.check(ctx, arg, cand)
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
                return any(
                    self.check(ctx, body, cand)
                    for cand in refold_candidates(ty, self.pool)
                )
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
                    sol = match_instantiate(t.body, t.var, ty)
                    return sol == "any" or (sol is not None and ty_wf(ctx, sol))
                if isinstance(body, MTyLam):
                    # The goal does not mention the bound variable here, so
                    # checking the body at the goal under a fresh variable
                    # witnesses some valid quantified type.
                    if not is_valuable(body.body):
                        return False
                    a = fresh_name("a", ctx.names() | free_names(ty, "ty"))
                    return self.check(ctx.with_ty(a), body.body, ty)
                for cand in self.pool:
                    if isinstance(cand, AForall):
                        sol = match_instantiate(cand.body, cand.var, ty)
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
                 pool: tuple[TgtType, ...] = ()) -> bool:
    return TargetChecker(pool).check(ctx, m, ty)


# ---------------------------------------------------------------------------
# Operational semantics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepResult:
    kind: str  # "value" | "stuck" | "step"
    term: Term | None = None
    rule: str = ""


def _descend(m: Term, wrap) -> StepResult:
    r = step(m)
    if r.kind == "step":
        return StepResult("step", wrap(r.term), r.rule)
    return StepResult("stuck", None, "")


def step(m: Term) -> StepResult:
    """One deterministic by-value step; values and stuck terms report as such."""
    if is_value(m):
        return StepResult("value")
    match m:
        case MApp(fn, arg):
            if not is_value(fn):
                return _descend(fn, lambda t: MApp(t, arg))
            if not is_value(arg):
                return _descend(arg, lambda t: MApp(fn, t))
            if isinstance(fn, MLam):
                return StepResult("step", subst_term(arg, fn.var, fn.body), "beta")
            return StepResult("stuck")
        case MTyApp(body):
            if not is_value(body):
                return _descend(body, MTyApp)
            if isinstance(body, MTyLam):
                return StepResult("step", body.body, "tyapp")
            return StepResult("stuck")
        case MForce(body):
            if not is_value(body):
                return _descend(body, MForce)
            if isinstance(body, MThunk):
                return StepResult("step", body.body, "force")
            return StepResult("stuck")
        case MFix(u, body):
            return StepResult("step", subst_fix_term(m, u, body), "fix")
        case MPair(l, r):
            if not is_value(l):
                return _descend(l, lambda t: MPair(t, r))
            return _descend(r, lambda t: MPair(l, t))
        case MProj(k, body):
            if not is_value(body):
                return _descend(body, lambda t: MProj(k, t))
            if isinstance(body, MPair):
                return StepResult("step", body.left if k == 1 else body.right, "proj")
            return StepResult("stuck")
        case MInj(k, body):
            return _descend(body, lambda t: MInj(k, t))
        case MCase(scrut, x1, m1, x2, m2):
            if not is_value(scrut):
                return _descend(scrut, lambda t: MCase(t, x1, m1, x2, m2))
            if isinstance(scrut, MInj):
                var, branch = (x1, m1) if scrut.k == 1 else (x2, m2)
                return StepResult("step", subst_term(scrut.body, var, branch), "case")
            return StepResult("stuck")
        case MRoll(body):
            return _descend(body, MRoll)
        case MUnroll(body):
            if not is_value(body):
                return _descend(body, MUnroll)
            if isinstance(body, MRoll):
                return StepResult("step", body.body, "unroll")
            return StepResult("stuck")
    return StepResult("stuck")


@dataclass
class EvalResult:
    kind: str  # "value" | "stuck" | "out-of-fuel"
    term: Term
    steps: int
    trace: list[Term] | None = None


def evaluate(m: Term, fuel: int, want_trace: bool = False) -> EvalResult:
    trace = [m] if want_trace else None
    for n in range(fuel + 1):
        r = step(m)
        if r.kind == "value":
            return EvalResult("value", m, n, trace)
        if r.kind == "stuck":
            return EvalResult("stuck", m, n, trace)
        if n == fuel:
            break
        m = r.term
        if want_trace:
            trace.append(m)
    return EvalResult("out-of-fuel", m, fuel, trace)
