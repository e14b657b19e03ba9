"""The hand-written steppers the evaluation-context tables replaced.

Each evaluator here spells out its evaluation contexts as a match and
re-asks value-ness at every depth, as the package did before it declared
the contexts once and found the redex in a single walk.  They are slow but
plainly follow the grammar, so ``tests/test_steppers.py`` runs them as the
oracle for ``target.step``, ``source.cbv_step`` and
``source.enumerate_steps``.  Kept as they were; do not tidy them.
"""

from __future__ import annotations

from eopoly.source import BYNAME, BYVALUE, SourceStep, SourceStepResult
from eopoly.syntax import (
    App,
    Case,
    Expr,
    Fix,
    FixVar,
    Inj,
    Lam,
    MApp,
    MCase,
    MFix,
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
    Pair,
    Proj,
    Term,
    Unit,
    Var,
    alpha_eq,
    subst,
)
from eopoly.target import StepResult


# The single-name substitutions these oracles were written against.
def subst_expr(replacement, var, e):
    return subst(e, {("x", var): replacement})


def subst_fix_expr(replacement, var, e):
    return subst(e, {("u", var): replacement})


def subst_fix_term(replacement, var, m):
    return subst(m, {("u", var): replacement})


def subst_term(replacement, var, m):
    return subst(m, {("x", var): replacement})


# ---------------------------------------------------------------------------
# Core
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Source
# ---------------------------------------------------------------------------

def is_source_value(e: Expr) -> bool:
    match e:
        case Unit() | Lam(_, _):
            return True
        case Pair(l, r):
            return is_source_value(l) and is_source_value(r)
        case Inj(_, body):
            return is_source_value(body)
    return False


def _reduce_byvalue(e: Expr) -> tuple[str, Expr] | None:
    match e:
        case App(Lam(x, body), arg) if is_source_value(arg):
            return "beta", subst_expr(arg, x, body)
        case Fix(u, body):
            return "fix", subst_fix_expr(e, u, body)
        case Proj(k, Pair(l, r)) if is_source_value(l) and is_source_value(r):
            return "proj", l if k == 1 else r
        case Case(Inj(k, v), x1, e1, x2, e2) if is_source_value(v):
            return "case", subst_expr(v, x1, e1) if k == 1 else subst_expr(v, x2, e2)
    return None


def _reduce_byname(e: Expr) -> tuple[str, Expr] | None:
    match e:
        case App(Lam(x, body), arg):
            return "beta", subst_expr(arg, x, body)
        case Fix(u, body):
            return "fix", subst_fix_expr(e, u, body)
        case Proj(k, Pair(l, r)):
            return "proj", l if k == 1 else r
        case Case(Inj(k, e0), x1, e1, x2, e2):
            return "case", subst_expr(e0, x1, e1) if k == 1 else subst_expr(e0, x2, e2)
    return None


def _byvalue_holes(e: Expr, path: tuple[str, ...]):
    yield path, e
    match e:
        case App(fn, arg):
            yield from _byvalue_holes(fn, path + ("fn",))
            if is_source_value(fn):
                yield from _byvalue_holes(arg, path + ("arg",))
        case Pair(l, r):
            yield from _byvalue_holes(l, path + ("left",))
            if is_source_value(l):
                yield from _byvalue_holes(r, path + ("right",))
        case Proj(_, body):
            yield from _byvalue_holes(body, path + ("body",))
        case Inj(_, body):
            yield from _byvalue_holes(body, path + ("body",))
        case Case(scrut, _, _, _, _):
            yield from _byvalue_holes(scrut, path + ("scrut",))


def _byname_holes(e: Expr, path: tuple[str, ...]):
    yield path, e
    match e:
        case App(fn, _):
            yield from _byname_holes(fn, path + ("fn",))
        case Proj(_, body):
            yield from _byname_holes(body, path + ("body",))
        case Inj(_, body):
            yield from _byname_holes(body, path + ("body",))
        case Case(scrut, _, _, _, _):
            yield from _byname_holes(scrut, path + ("scrut",))


def _plug(e: Expr, path: tuple[str, ...], replacement: Expr) -> Expr:
    if not path:
        return replacement
    return type(e)(*[_plug(getattr(e, f), path[1:], replacement) if f == path[0]
                     else getattr(e, f) for f in type(e).__match_args__])


def enumerate_steps(e: Expr) -> list[SourceStep]:
    """All steps from ``e``: by-value decompositions first, then the
    by-name steps that are not already by-value steps at the same position
    with the same result."""
    steps: list[SourceStep] = []
    for path, sub in _byvalue_holes(e, ()):
        red = _reduce_byvalue(sub)
        if red is not None:
            rule, out = red
            steps.append(SourceStep(path, BYVALUE, rule, _plug(e, path, out)))
    for path, sub in _byname_holes(e, ()):
        red = _reduce_byname(sub)
        if red is not None:
            rule, out = red
            result = _plug(e, path, out)
            if any(
                s.path == path and alpha_eq(s.result, result) for s in steps
            ):
                continue  # already admitted by value; tag stays byvalue
            steps.append(SourceStep(path, BYNAME, rule, result))
    return steps


def cbv_step(e: Expr) -> SourceStepResult:
    """Deterministic leftmost by-value step."""
    if is_source_value(e):
        return SourceStepResult("value")
    match e:
        case App(fn, arg):
            if not is_source_value(fn):
                return _sub_step(fn, lambda t: App(t, arg))
            if not is_source_value(arg):
                return _sub_step(arg, lambda t: App(fn, t))
            if isinstance(fn, Lam):
                return SourceStepResult("step", subst_expr(arg, fn.var, fn.body), "beta")
            return SourceStepResult("stuck")
        case Fix(u, body):
            return SourceStepResult("step", subst_fix_expr(e, u, body), "fix")
        case Pair(l, r):
            if not is_source_value(l):
                return _sub_step(l, lambda t: Pair(t, r))
            return _sub_step(r, lambda t: Pair(l, t))
        case Proj(k, body):
            if not is_source_value(body):
                return _sub_step(body, lambda t: Proj(k, t))
            if isinstance(body, Pair):
                return SourceStepResult(
                    "step", body.left if k == 1 else body.right, "proj"
                )
            return SourceStepResult("stuck")
        case Inj(k, body):
            return _sub_step(body, lambda t: Inj(k, t))
        case Case(scrut, x1, e1, x2, e2):
            if not is_source_value(scrut):
                return _sub_step(scrut, lambda t: Case(t, x1, e1, x2, e2))
            if isinstance(scrut, Inj):
                var, branch = (x1, e1) if scrut.k == 1 else (x2, e2)
                return SourceStepResult(
                    "step", subst_expr(scrut.body, var, branch), "case"
                )
            return SourceStepResult("stuck")
        case Var(_) | FixVar(_):
            return SourceStepResult("stuck")
    return SourceStepResult("stuck")


def _sub_step(e: Expr, wrap) -> SourceStepResult:
    r = cbv_step(e)
    if r.kind == "step":
        return SourceStepResult("step", wrap(r.expr), r.rule)
    return SourceStepResult("stuck")
