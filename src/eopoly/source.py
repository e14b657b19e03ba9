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
every evaluated field already holds a value.  ``cbv_step`` is the
deterministic by-value step: one walk (``syntax.focus``) finds the redex,
``_contract`` reduces it and ``syntax.plug`` puts the result back.
``cbv_evaluate`` does not step from the root each time: ``syntax.run``
resumes the same walk at each contractum.  ``enumerate_steps`` lists every
step the relation admits, with positions, so the simulation harness can
search: that by-value step, then the by-name steps along the chain of
by-name contexts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    App,
    Case,
    Expr,
    Fix,
    Inj,
    Lam,
    Pair,
    Proj,
    Unit,
    focus,
    plug,
    instantiate,
    run,
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
    return focus(e, BYVALUE_CONTEXTS, VALUES) is None


@dataclass(frozen=True)
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
            return "fix", instantiate(e, e)
        case Proj(k, Pair(l, r)):
            return "proj", l if k == 1 else r
        case Case(Inj(k, e0)):
            return "case", instantiate(e, e0, f"body{k}")
    return None


def _path(frames: list) -> tuple[str, ...]:
    return tuple(field for _, field in frames)


def enumerate_steps(e: Expr) -> list[SourceStep]:
    """All steps from ``e``: the by-value step first, then the by-name
    steps at other positions (at the by-value position a by-name step has
    the same result, and the tag stays byvalue)."""
    steps: list[SourceStep] = []
    found = focus(e, BYVALUE_CONTEXTS, VALUES)
    red = _contract(found[0]) if found else None
    if red:
        rule, out = red
        steps.append(SourceStep(_path(found[1]), BYVALUE, rule, plug(found[1], out)))
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
        frames.append((node, fields[0]))
        node = getattr(node, fields[0])


@dataclass(frozen=True)
class SourceStepResult:
    kind: str  # "value" | "stuck" | "step"
    expr: Expr | None = None
    rule: str = ""


def cbv_step(e: Expr) -> SourceStepResult:
    """Deterministic leftmost by-value step."""
    found = focus(e, BYVALUE_CONTEXTS, VALUES)
    if found is None:
        return SourceStepResult("value")
    redex, frames = found
    red = _contract(redex)
    if red is None:
        return SourceStepResult("stuck")
    rule, out = red
    return SourceStepResult("step", plug(frames, out), rule)


@dataclass
class SourceEvalResult:
    kind: str  # "value" | "stuck" | "out-of-fuel"
    expr: Expr
    steps: int


def cbv_evaluate(e: Expr, fuel: int, on_state=None) -> SourceEvalResult:
    """The by-value run of ``e``; ``on_state`` sees each state as it comes
    (see ``syntax.run``)."""
    return SourceEvalResult(*run(e, BYVALUE_CONTEXTS, VALUES, _contract, fuel,
                                 on_state))
