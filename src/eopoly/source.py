"""Dual-order small-step semantics for erased source expressions.

One stepping relation, two flavors, each an evaluation-context grammar
declared once as a table of the fields each constructor evaluates, in
order.  A by-value step reduces a redex whose evaluated fields hold values
(``VALUES``) in a by-value context (``BYVALUE_CONTEXTS``); a by-name step
reduces a redex in a by-name context (``BYNAME_CONTEXTS``), whatever its
subterms are.  By-name contexts descend only into the function part of an
application, into projections and injections, and into case scrutinees:
they never evaluate an argument before the function, nor inside a pair.

One contraction, ``_contract``, serves both flavors: at a by-value focus
every evaluated field already holds a value.  ``cbv_run`` is the
deterministic by-value run (a ``syntax.Run``): ``cbv_step`` is its first
contraction, and ``cbv_evaluate`` the whole run, which resumes its walk
at each contractum instead of stepping from the root.
``enumerate_steps`` lists every step the relation admits, with
positions, so the simulation harness can search: that by-value step,
then the by-name steps along the chain of by-name contexts.
"""

from __future__ import annotations


from .syntax import (
    App,
    Case,
    Expr,
    Fix,
    Inj,
    Lam,
    Pair,
    Proj,
    Run,
    Unit,
    instantiate,
    no_redex,
    plug,
    record,
    unfold,
)

BYVALUE = "byvalue"
BYNAME = "byname"

BYVALUE_CONTEXTS = {
    App: ("fn", "arg"),
    Pair: ("left", "right"),
    Proj: ("body",),
    Inj: ("body",),
    Case: ("scrut",),
}
BYNAME_CONTEXTS = {
    App: ("fn",),
    Proj: ("body",),
    Inj: ("body",),
    Case: ("scrut",),
}
VALUES = (Unit, Lam, Pair, Inj)


def is_source_value(e: Expr) -> bool:
    return no_redex(e, BYVALUE_CONTEXTS, VALUES)


@record
class SourceStep:
    path: tuple[str, ...]
    flavor: str  # "byvalue" | "byname"
    rule: str  # "beta" | "fix" | "proj" | "case"
    result: Expr


def _contract(e: Expr) -> tuple[str, Expr] | None:
    """The rule and result of reducing the redex ``e``; None if stuck."""
    match e:
        case App(Lam() as fn, arg):
            return "beta", instantiate(fn, arg)
        case Fix():
            return "fix", unfold(e)
        case Proj(k, Pair(l, r)):
            return "proj", l if k == 1 else r
        case Case(Inj(k, e0)):
            return "case", instantiate(e, e0, f"body{k}")
    return None


def cbv_run(e: Expr, fuel: int) -> Run:
    """The by-value run of ``e`` (see ``syntax.Run``)."""
    return Run(e, BYVALUE_CONTEXTS, VALUES, _contract, fuel)


def _path(frames: list) -> tuple[str, ...]:
    return tuple(fields[i] for _, fields, i in frames)


def enumerate_steps(e: Expr) -> list[SourceStep]:
    """All steps from ``e``: the by-value step first, then the by-name
    steps at other positions (at the by-value position a by-name step has
    the same result, and the tag stays byvalue)."""
    steps: list[SourceStep] = []
    r = cbv_run(e, 1)
    for rule in r:
        steps.append(SourceStep(_path(r.frames), BYVALUE, rule, r.term()))
        break
    byvalue_path = steps[0].path if steps else None
    frames: list = []
    node = e
    while True:
        red = _contract(node)
        if red and _path(frames) != byvalue_path:
            rule, out = red
            steps.append(SourceStep(_path(frames), BYNAME, rule, plug(frames, out)))
        fields = BYNAME_CONTEXTS.get(type(node))
        if fields is None:
            return steps
        frames.append((node, fields, 0))
        node = getattr(node, fields[0])


@record
class SourceStepResult:
    kind: str  # "value" | "stuck" | "step"
    expr: Expr | None = None
    rule: str = ""


def cbv_step(e: Expr) -> SourceStepResult:
    """Deterministic leftmost by-value step, the first of ``e``'s run."""
    r = cbv_run(e, 1)
    for rule in r:
        return SourceStepResult("step", r.term(), rule)
    return SourceStepResult(r.kind)


@record
class SourceEvalResult:
    kind: str  # "value" | "stuck" | "out-of-fuel"
    expr: Expr
    steps: int


def cbv_evaluate(e: Expr, fuel: int, on_state=None) -> SourceEvalResult:
    """The by-value run of ``e`` to its end; ``on_state`` sees each state
    as it comes (see ``syntax.Run.finish``)."""
    return SourceEvalResult(*cbv_run(e, fuel).finish(on_state))
