"""Executable metatheory: the package's central claims run as checks.

Each runner executes both sides of one implication and compares:

* ``run_econ_preservation``   -- translating a well-typed judgment into the
  suspension-point system preserves typability at the same valueness.
* ``run_elab_soundness``      -- elaborating a closed well-typed judgment
  yields a core term that typechecks at the translated type, with a
  valueness no higher than the source's; core values come only from val
  judgments, and val judgments elaborate to valuables.
* ``run_nfree_econ``, ``run_nfree_elab`` -- N-free judgments stay N-free
  across the translation, and their elaborations contain no thunks or forces.
* ``run_type_safety``         -- an elaborated term never gets stuck and
  keeps its type at every step.
* ``run_consistency``         -- every core step is matched by a bounded
  search over source steps whose result still elaborates to the new core
  term (by-value steps only, when the core term is N-free).
* ``run_cbv_endpoint``        -- an N-free program's by-value source run
  ends in a value that elaborates to the core run's value.

The suspension-point checks on one judgment share one :class:`Judgment`,
which derives it once and builds its elaboration and pools on first use.
The translation checks have bodies (``econ_preservation``,
``nfree_econ``) that read an impartial typing already derived; each
``run_*`` entry derives the typing, then runs its body.

A replay validator independently re-derives every node of a reified
derivation against the declarative rules, so the algorithmic checkers are
themselves checked.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

from . import econ as econ_mod
from . import impartial as imp_mod
from . import source as src_mod
from . import target as tgt_mod
from .elaborate import ElabChecker, elaborate, ty_target
from .errors import EopolyError, TypecheckError
from .nfree import (
    n_free_econ_judgment,
    n_free_impartial_judgment,
    n_free_target,
)
from .syntax import (
    CHECK,
    Derivation,
    EconCtx,
    EconType,
    EO,
    Expr,
    IAllEo,
    IArrow,
    IForall,
    ImpCtx,
    ImpType,
    IProd,
    IRec,
    ISum,
    IUnit,
    N,
    Node,
    SAllEo,
    SArrow,
    SForall,
    SProd,
    SRec,
    SSum,
    SSusp,
    SUnit,
    SYNTH,
    Term,
    TgtCtx,
    TOP,
    V,
    VAL,
    Valueness,
    Var,
    alpha_eq,
    alpha_key,
    children,
    dedup,
    erase,
    free_names,
    join,
    node_count,
    subst1,
    subst_eo,
    subst_ty_in_ty,
    subterms,
    unfold,
    valof,
    vleq,
)

PASS = "pass"
FAIL = "fail"
VACUOUS = "vacuous"
SEARCH_EXHAUSTED = "search-exhausted"
OUT_OF_FUEL = "out-of-fuel"


@dataclass
class CheckOutcome:
    check: str
    program: str
    verdict: str
    detail: dict = field(default_factory=dict)

    def line(self) -> str:
        extra = ""
        if self.detail:
            keys = ("reason", "steps", "exhausted")
            shown = {k: self.detail[k] for k in keys if k in self.detail}
            if shown:
                extra = "  " + " ".join(f"{k}={v}" for k, v in shown.items())
        return f"{self.verdict.upper():16s} {self.check:28s} {self.program}{extra}"

    def record(self) -> dict:
        return {
            "check": self.check,
            "program": self.program,
            "verdict": self.verdict,
            "witness": _jsonable(self.detail),
        }


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


# ---------------------------------------------------------------------------
# Translation preserves typing (and valueness)
# ---------------------------------------------------------------------------

def run_econ_preservation(
    ctx: ImpCtx, e: Expr, ty: ImpType | None, direction: str, program: str = "?"
) -> CheckOutcome:
    """Derive the impartial judgment, then run ``econ_preservation``."""
    try:
        before = imp_mod.check(ctx, e, ty) if direction == CHECK else imp_mod.synth(ctx, e)
    except TypecheckError as ex:
        return CheckOutcome("econ-preserves-typing", program, FAIL,
                            {"reason": f"source judgment failed: {ex}"})
    return econ_preservation(ctx, e, before.ty, before.valueness, program)


def econ_preservation(ctx: ImpCtx, e: Expr, ty: ImpType, valueness: Valueness,
                      program: str = "?") -> CheckOutcome:
    """Translating the impartial judgment that ``e`` has type ``ty`` at
    ``valueness`` preserves typability.

    The checker reports the least derivable valueness, and checking
    against a by-name suspension refines it to val (the subject becomes a
    thunk), so the translated valueness may sharpen; it must never
    coarsen, and on N-free judgments (no suspensions to hide behind) it
    must agree exactly.  A synthesized judgment is compared in checking
    mode against the translated type, which absorbs the
    suspension-stripping chain the declarative synthesis would end with.
    """
    name = "econ-preserves-typing"
    try:
        after = econ_mod.econ_check(econ_mod.econ_ctx(ctx), econ_mod.econ_expr(e),
                                    econ_mod.econ_type(ty))
    except TypecheckError as ex:
        return CheckOutcome(name, program, FAIL,
                            {"reason": f"translated judgment failed: {ex}"})
    if not vleq(after.valueness, valueness):
        return CheckOutcome(
            name, program, FAIL,
            {"reason": "translated valueness coarsened",
             "before": valueness.value, "after": after.valueness.value},
        )
    if after.valueness != valueness and n_free_impartial_judgment(ctx, e, ty):
        return CheckOutcome(
            name, program, FAIL,
            {"reason": "valueness changed on an N-free judgment",
             "before": valueness.value, "after": after.valueness.value},
        )
    return CheckOutcome(name, program, PASS)


# ---------------------------------------------------------------------------
# Elaboration type soundness (plus the two valueness facts)
# ---------------------------------------------------------------------------

def build_pool(e: Expr, tys: list[EconType]) -> tuple[EconType, ...]:
    """Candidate types for the membership searches over ``e``.

    The types of ``e``'s checking derivation at each of ``tys`` (those it
    checks at) name every instantiation the program uses.  One closure
    step adds what a derivation leaves implicit: the two order instances
    of a quantified type, at which elaboration re-checks without
    recording a derivation, and the unfolding of a recursive type, which
    a bare type list (a menu, with no program to derive) needs.
    """
    derivs = []
    for t in tys:
        try:
            derivs.append(econ_mod.econ_check(EconCtx(), e, t).deriv)
        except TypecheckError:
            continue
    return _pool(tys, derivs)


def _pool(tys: list[EconType], derivs: list[Derivation]) -> tuple[EconType, ...]:
    found = list(tys)
    todo = derivs[::-1]
    while todo:
        d = todo.pop()
        found.append(d.ty)
        todo.extend(reversed(d.children))
    closed = []
    for t in found:
        closed.append(t)
        if isinstance(t, SAllEo):
            closed += [subst_eo(V, t.var, t.body), subst_eo(N, t.var, t.body)]
        elif isinstance(t, SRec):
            closed.append(unfold(t))
    return tuple(dedup([s for t in closed for s in subterms(t)]))


def target_pool(pool: tuple[EconType, ...]) -> tuple:
    return tuple(ty_target(t) for t in pool if not free_names(t, "eo"))


@dataclass
class Judgment:
    """The closed suspension-point judgment of ``expr``, checked against
    ``ty`` or synthesized, by ``direction``.  Its typing, elaboration, pool
    and checkers are built on first use; a caller sharing one pool across
    judgments assigns ``checker`` and ``tpool``."""

    expr: Expr
    ty: EconType | None
    direction: str

    @cached_property
    def typing(self):
        if self.direction == CHECK:
            return econ_mod.econ_check(EconCtx(), self.expr, self.ty)
        return econ_mod.econ_synth(EconCtx(), self.expr)

    @cached_property
    def elab(self):
        return elaborate(self.typing.deriv)

    @cached_property
    def pool(self) -> tuple[EconType, ...]:
        # A synthesis derivation is no checking derivation: derive one.
        r = self.typing
        if self.direction == CHECK:
            return _pool([r.ty], [r.deriv])
        return build_pool(self.expr, [r.ty])

    @cached_property
    def checker(self) -> ElabChecker:
        return ElabChecker(self.pool)

    @cached_property
    def tpool(self) -> tuple:
        return target_pool(self.pool)


def run_elab_soundness(
    e: Expr, ty: EconType | None, direction: str, program: str = "?",
    checker: ElabChecker | None = None, tpool: tuple | None = None,
) -> CheckOutcome:
    j = Judgment(e, ty, direction)
    if checker is not None:
        j.checker, j.tpool = checker, tpool
    return elab_soundness(j, program)


def elab_soundness(j: Judgment, program: str = "?") -> CheckOutcome:
    name = "elab-type-soundness"
    try:
        r = j.typing
    except TypecheckError as ex:
        return CheckOutcome(name, program, FAIL,
                            {"reason": f"judgment failed: {ex}"})
    try:
        er = j.elab
    except EopolyError as ex:
        return CheckOutcome(name, program, FAIL,
                            {"reason": f"elaboration failed: {ex}"})
    if not vleq(er.valueness, r.valueness):
        return CheckOutcome(
            name, program, FAIL,
            {"reason": "elaborated valueness above the source valueness",
             "source": r.valueness.value, "elab": er.valueness.value},
        )
    if tgt_mod.is_value(er.term) and er.valueness != VAL:
        return CheckOutcome(name, program, FAIL,
                            {"reason": "a core value carried a non-val valueness"})
    if er.valueness == VAL and not tgt_mod.is_valuable(er.term):
        return CheckOutcome(name, program, FAIL,
                            {"reason": "a val judgment elaborated to a non-valuable"})
    if not tgt_mod.target_check(TgtCtx(), er.term, ty_target(r.ty), j.tpool):
        return CheckOutcome(
            name, program, FAIL,
            {"reason": "core term does not check at the translated type",
             "term": er.term},
        )
    if j.checker.check(erase(j.expr), r.ty, er.term) is None:
        return CheckOutcome(
            name, program, FAIL if j.checker.clean else SEARCH_EXHAUSTED,
            {"reason": "elaboration relation does not relate the output",
             "term": er.term},
        )
    return CheckOutcome(name, program, PASS)


# ---------------------------------------------------------------------------
# Target type safety along whole evaluations
# ---------------------------------------------------------------------------

def run_type_safety(m: Term, ty, pool, fuel: int = 10_000,
                    program: str = "?", size_cap: int = 100,
                    checker=None) -> CheckOutcome:
    """Step to completion, re-checking the type after every step.

    A diverging producer grows by a constant each cycle, so past a size
    cap the remaining prefix only repeats already-checked redex families;
    the run stops there and reports the checked prefix (never masking a
    stuck state or a preservation failure inside it).
    """
    name = "target-type-safety"
    if checker is None:
        checker = tgt_mod.TargetChecker(pool)
    steps = 0
    seen = {alpha_key(m)}
    while True:
        r = tgt_mod.step(m)
        if r.kind == "value":
            return CheckOutcome(name, program, PASS, {"steps": steps})
        if r.kind == "stuck":
            return CheckOutcome(name, program, FAIL,
                                {"reason": "stuck", "term": m, "steps": steps})
        if steps == fuel:
            break
        m = r.term
        steps += 1
        if not checker.check(TgtCtx(), m, ty):
            return CheckOutcome(
                name, program, FAIL,
                {"reason": "type not preserved", "term": m, "steps": steps},
            )
        key = alpha_key(m)
        if key in seen:
            # Deterministic stepping commutes with renaming, so the run is
            # periodic from here: every future state is already checked.
            return CheckOutcome(name, program, PASS,
                                {"steps": steps, "note": "cycle, no violation"})
        seen.add(key)
        if node_count(m) > size_cap:
            return CheckOutcome(
                name, program, PASS,
                {"steps": steps, "note": "growth-capped, no violation"},
            )
    return CheckOutcome(name, program, PASS,
                        {"steps": steps, "note": "fuel exhausted, no violation"})


# ---------------------------------------------------------------------------
# N-freeness preservation
# ---------------------------------------------------------------------------

def run_nfree_econ(ctx: ImpCtx, e: Expr, ty: ImpType | None, direction: str,
                   program: str = "?") -> CheckOutcome:
    if direction == SYNTH:
        ty = imp_mod.synth(ctx, e).ty
    return nfree_econ(ctx, e, ty, program)


def nfree_econ(ctx: ImpCtx, e: Expr, ty: ImpType, program: str = "?") -> CheckOutcome:
    """An N-free impartial judgment that ``e`` has type ``ty`` stays N-free
    across the translation."""
    name = "econ-preserves-nfree"
    if not n_free_impartial_judgment(ctx, e, ty):
        return CheckOutcome(name, program, VACUOUS)
    ectx = econ_mod.econ_ctx(ctx)
    ee = econ_mod.econ_expr(e)
    if not n_free_econ_judgment(ectx, ee, econ_mod.econ_type(ty)):
        return CheckOutcome(name, program, FAIL,
                            {"reason": "translated judgment is not N-free"})
    return CheckOutcome(name, program, PASS)


def run_nfree_elab(e: Expr, ty: EconType | None, direction: str,
                   program: str = "?") -> CheckOutcome:
    return nfree_elab(Judgment(e, ty, direction), program)


def nfree_elab(j: Judgment, program: str = "?") -> CheckOutcome:
    name = "elab-preserves-nfree"
    try:
        r = j.typing
    except TypecheckError as ex:
        return CheckOutcome(name, program, FAIL,
                            {"reason": f"judgment failed: {ex}"})
    if not n_free_econ_judgment(EconCtx(), j.expr, r.ty):
        return CheckOutcome(name, program, VACUOUS)
    er = j.elab
    if not n_free_target(er.term):
        return CheckOutcome(name, program, FAIL,
                            {"reason": "elaboration contains a thunk or force",
                             "term": er.term})
    if er.valueness != r.valueness:
        return CheckOutcome(name, program, FAIL,
                            {"reason": "valueness changed on an N-free judgment"})
    return CheckOutcome(name, program, PASS)


# ---------------------------------------------------------------------------
# Step-by-step simulation
# ---------------------------------------------------------------------------

@dataclass
class SimStep:
    index: int
    target_rule: str
    source_steps: int
    byvalue_only: bool
    valueness: str


@dataclass
class ConsistencyReport:
    program: str
    target_n_free: bool
    steps: list[SimStep] = field(default_factory=list)
    verdict: str = PASS
    reason: str = ""
    final_target: Term | None = None
    final_source: Expr | None = None
    only_byvalue: bool = True
    endpoint_value: bool | None = None

    def outcome(self) -> CheckOutcome:
        detail = {
            "steps": len(self.steps),
            "target_n_free": self.target_n_free,
            "only_byvalue": self.only_byvalue,
        }
        if self.reason:
            detail["reason"] = self.reason
        if self.endpoint_value is not None:
            detail["endpoint_value"] = self.endpoint_value
        return CheckOutcome("consistency-simulation", self.program,
                            self.verdict, detail)


def run_consistency(e: Expr, ty: EconType | None, direction: str,
                    fuel: int = 10_000, search_depth: int = 8,
                    program: str = "?") -> ConsistencyReport:
    return consistency(Judgment(e, ty, direction), fuel, search_depth, program)


def consistency(j: Judgment, fuel: int = 10_000, search_depth: int = 8,
                program: str = "?") -> ConsistencyReport:
    """Simulate a core evaluation by source steps, re-relating at each step.

    The search for a matching source term is a breadth-first walk over the
    stepping relation, depth-bounded; hitting the bound is reported as
    search exhaustion, distinct from refutation, because the matched
    source run may be longer than any fixed bound.
    """
    r = j.typing
    m = j.elab.term
    checker = j.checker
    nfree = n_free_target(m)
    report = ConsistencyReport(program, nfree)
    e_cur = erase(j.expr)
    phi = checker.check(e_cur, r.ty, m)
    if phi is None:
        report.verdict = FAIL if checker.clean else SEARCH_EXHAUSTED
        report.reason = (
            "the program does not re-relate to its own elaboration"
            if checker.clean else
            "the membership search hit its bound on the program's own elaboration"
        )
        return report
    for i in range(fuel):
        st = tgt_mod.step(m)
        if st.kind == "value":
            report.final_target = m
            report.final_source = e_cur
            if n_free_target(m):
                report.endpoint_value = src_mod.is_source_value(e_cur)
                if not report.endpoint_value:
                    report.verdict = FAIL
                    report.reason = "N-free core value matched by a non-value"
            return report
        if st.kind == "stuck":
            report.verdict = FAIL
            report.reason = "core term got stuck"
            report.final_target = m
            return report
        m2 = st.term
        if nfree and not n_free_target(m2):
            report.verdict = FAIL
            report.reason = "stepping produced a thunk or force from nothing"
            return report
        found, pruned = _search_match(e_cur, r.ty, m2, checker, search_depth,
                                      byvalue_only=nfree, prefer_rule=st.rule)
        if found is None:
            # A pruned search means the match may lie beyond a bound; a
            # fully explored one refutes the existence of a match outright.
            report.verdict = SEARCH_EXHAUSTED if pruned else FAIL
            report.reason = (
                f"no source match within the search bounds (depth {search_depth})"
                if pruned
                else "no reachable source term re-relates (refuted)"
            )
            report.final_target = m2
            report.final_source = e_cur
            return report
        e2, depth, phi2, used_byname = found
        if phi == VAL and depth != 0:
            report.verdict = FAIL
            report.reason = "a val-classified source term had to step"
            return report
        if used_byname:
            report.only_byvalue = False
            if nfree:
                report.verdict = FAIL
                report.reason = "an N-free program needed a by-name step"
                return report
        report.steps.append(
            SimStep(i, st.rule, depth, not used_byname, phi2.value)
        )
        m, e_cur, phi = m2, e2, phi2
    report.verdict = OUT_OF_FUEL
    report.final_target = m
    report.final_source = e_cur
    return report


def _search_match(e: Expr, ty: EconType, m: Term, checker: ElabChecker,
                  depth_bound: int, byvalue_only: bool,
                  prefer_rule: str = ""):
    """Breadth-first match search; second component reports whether a
    bound pruned anything (False = the space was fully explored): the
    depth bound here, or the membership search's own bound.

    Source steps whose reduction rule matches the core step's are tried
    first within each depth: the match is usually the mirrored redex, and
    a failing membership test on a large wrong candidate is expensive.
    """
    seen = {alpha_key(e)}
    pruned = False
    # For a computational core step the matching source term almost always
    # needs the mirrored reduction, and a failing membership test on the
    # unreduced term is the most expensive call in the harness; so probe
    # the mirrored candidates before the zero-step candidate.
    if prefer_rule in ("beta", "fix", "case"):
        for s in src_mod.enumerate_steps(e):
            if s.rule != prefer_rule:
                continue
            if byvalue_only and s.flavor != src_mod.BYVALUE:
                continue
            v = checker.check(s.result, ty, m)
            if v is not None:
                return (s.result, 1, v, s.flavor != src_mod.BYVALUE), pruned
            pruned |= not checker.clean
    frontier = deque([(e, 0, False)])
    while frontier:
        cand, depth, used_byname = frontier.popleft()
        v = checker.check(cand, ty, m)
        if v is not None:
            return (cand, depth, v, used_byname), pruned
        pruned |= not checker.clean
        if depth >= depth_bound:
            pruned = True
            continue
        steps = src_mod.enumerate_steps(cand)
        steps.sort(key=lambda s: (s.rule != prefer_rule, s.flavor != src_mod.BYVALUE))
        for s in steps:
            if byvalue_only and s.flavor != src_mod.BYVALUE:
                continue
            k = alpha_key(s.result)
            if k not in seen:
                seen.add(k)
                frontier.append(
                    (s.result, depth + 1,
                     used_byname or s.flavor != src_mod.BYVALUE)
                )
    return None, pruned


def run_cbv_endpoint(e: Expr, ty: EconType | None, direction: str,
                     fuel: int = 10_000, program: str = "?") -> CheckOutcome:
    return cbv_endpoint(Judgment(e, ty, direction), fuel, program)


def cbv_endpoint(j: Judgment, fuel: int = 10_000,
                 program: str = "?") -> CheckOutcome:
    """For an N-free program: the by-value-only source evaluation reaches a
    value that elaborates to the core result."""
    name = "cbv-endpoint"
    r = j.typing
    if not n_free_econ_judgment(EconCtx(), j.expr, r.ty):
        return CheckOutcome(name, program, VACUOUS)
    m = j.elab.term
    if not n_free_target(m):
        return CheckOutcome(name, program, FAIL,
                            {"reason": "elaboration is not N-free"})
    tv = tgt_mod.evaluate(m, fuel)
    if tv.kind != "value":
        return CheckOutcome(name, program, VACUOUS,
                            {"reason": f"core run did not finish: {tv.kind}"})
    sv = src_mod.cbv_evaluate(erase(j.expr), fuel)
    if sv.kind != "value":
        return CheckOutcome(name, program, FAIL,
                            {"reason": f"source run did not finish: {sv.kind}"})
    v = j.checker.check(sv.expr, r.ty, tv.term)
    if v != VAL:
        return CheckOutcome(
            name, program,
            SEARCH_EXHAUSTED if v is None and not j.checker.clean else FAIL,
            {"reason": "final source value does not elaborate to the core value",
             "source": sv.expr, "target": tv.term},
        )
    return CheckOutcome(name, program, PASS,
                        {"steps": tv.steps, "source_steps": sv.steps})


# ---------------------------------------------------------------------------
# Derivation replay: validate every node against the declarative rules
# ---------------------------------------------------------------------------

class ReplayError(EopolyError):
    pass


def _expect(cond: bool, d: Derivation, why: str):
    if not cond:
        raise ReplayError(f"rule {d.rule}: {why}")


def _ctx_extends(child, parent, entry) -> bool:
    if len(child.entries) != len(parent.entries) + 1:
        return False
    if child.entries[:-1] != parent.entries:
        return False
    k, n, payload = child.entries[-1]
    ek, en, ep = entry
    if (k, n) != (ek, en):
        return False
    if payload is None and ep is None:
        return True
    if isinstance(payload, tuple):
        return payload[0] == ep[0] and alpha_eq(payload[1], ep[1])
    return alpha_eq(payload, ep)


def replay_impartial(d: Derivation) -> None:
    """Re-validate an impartial derivation node-by-node; raises on mismatch."""
    for c in d.children:
        replay_impartial(c)
    r = d.rule
    ch = d.children
    if r == "i-var":
        v, ty = d.ctx.lookup("x", d.expr.name)
        _expect(d.direction == SYNTH and v == d.valueness and alpha_eq(ty, d.ty),
                d, "variable lookup mismatch")
    elif r == "i-fixvar":
        _, ty = d.ctx.lookup("u", d.expr.name)
        _expect(d.direction == SYNTH and d.valueness == TOP and alpha_eq(ty, d.ty),
                d, "fixed-point variable lookup mismatch")
    elif r == "i-anno":
        _expect(d.direction == SYNTH and len(ch) == 1, d, "shape")
        _expect(alpha_eq(ch[0].ty, d.ty) and alpha_eq(d.expr.ty, d.ty), d,
                "annotation type mismatch")
        _expect(ch[0].valueness == d.valueness, d, "valueness mismatch")
    elif r == "i-sub":
        _expect(d.direction == CHECK and ch[0].direction == SYNTH, d, "shape")
        _expect(alpha_eq(ch[0].ty, d.ty), d, "types must agree")
        _expect(ch[0].valueness == d.valueness, d, "valueness mismatch")
    elif r == "i-unit-intro":
        _expect(isinstance(d.ty, IUnit) and d.valueness == VAL, d, "unit shape")
    elif r == "i-arrow-intro":
        _expect(isinstance(d.ty, IArrow) and d.valueness == VAL, d, "shape")
        x = d.get("var")
        _expect(_ctx_extends(ch[0].ctx, d.ctx, ("x", x, (valof(d.ty.eo), d.ty.dom))),
                d, "binder must carry the order's valueness")
        _expect(alpha_eq(ch[0].ty, d.ty.cod), d, "body type mismatch")
        _expect(alpha_eq(ch[0].expr, subst1(d.expr.body, "x", d.expr.var, Var(x))),
                d, "body mismatch")
    elif r == "i-arrow-elim":
        _expect(d.direction == SYNTH and d.valueness == TOP, d, "shape")
        _expect(isinstance(ch[0].ty, IArrow), d, "head must synthesize an arrow")
        _expect(alpha_eq(ch[1].ty, ch[0].ty.dom), d, "argument type mismatch")
        _expect(alpha_eq(d.ty, ch[0].ty.cod), d, "result type mismatch")
    elif r == "i-prod-intro":
        _expect(isinstance(d.ty, IProd), d, "shape")
        _expect(d.valueness == join(ch[0].valueness, ch[1].valueness), d,
                "valueness must be the join of the components")
        _expect(alpha_eq(ch[0].ty, d.ty.left) and alpha_eq(ch[1].ty, d.ty.right),
                d, "component types")
    elif r == "i-prod-elim":
        _expect(d.valueness == TOP and isinstance(ch[0].ty, IProd), d, "shape")
        comp = ch[0].ty.left if d.get("k") == 1 else ch[0].ty.right
        _expect(alpha_eq(d.ty, comp), d, "component type")
    elif r == "i-sum-intro":
        _expect(isinstance(d.ty, ISum), d, "shape")
        comp = d.ty.left if d.get("k") == 1 else d.ty.right
        _expect(alpha_eq(ch[0].ty, comp), d, "component type")
        _expect(d.valueness == ch[0].valueness, d, "valueness preserved")
    elif r == "i-sum-elim":
        _expect(d.direction == CHECK and d.valueness == TOP, d, "shape")
        _expect(isinstance(ch[0].ty, ISum), d, "scrutinee must synthesize a sum")
        _expect(_ctx_extends(ch[1].ctx, d.ctx, ("x", d.get("var1"), (VAL, ch[0].ty.left))),
                d, "left branch binds val")
        _expect(_ctx_extends(ch[2].ctx, d.ctx, ("x", d.get("var2"), (VAL, ch[0].ty.right))),
                d, "right branch binds val")
        _expect(alpha_eq(ch[1].ty, d.ty) and alpha_eq(ch[2].ty, d.ty), d,
                "branch types")
    elif r == "i-fix":
        _expect(d.valueness == TOP, d, "fixed points are not values")
        _expect(_ctx_extends(ch[0].ctx, d.ctx, ("u", d.get("var"), (TOP, d.ty))),
                d, "binder at top")
        _expect(alpha_eq(ch[0].ty, d.ty), d, "body type")
    elif r == "i-all-intro":
        _expect(isinstance(d.ty, IForall) and d.valueness == VAL, d, "shape")
        _expect(ch[0].valueness == VAL, d, "subject must be a value")
        _expect(_ctx_extends(ch[0].ctx, d.ctx, ("ty", d.get("var"), None)), d,
                "type binder")
    elif r == "i-all-elim":
        _expect(isinstance(ch[0].ty, IForall), d, "head must be universal")
        want = subst_ty_in_ty(d.get("ty_arg"), ch[0].ty.var, ch[0].ty.body)
        _expect(alpha_eq(d.ty, want), d, "instantiation")
        _expect(d.valueness == ch[0].valueness, d, "valueness preserved")
    elif r == "i-alleo-intro":
        _expect(isinstance(d.ty, IAllEo) and d.valueness == VAL, d, "shape")
        _expect(ch[0].valueness == VAL, d, "subject must be a value")
        _expect(_ctx_extends(ch[0].ctx, d.ctx, ("eo", d.get("var"), None)), d,
                "order binder")
        want = subst_eo(EO("var", d.get("var")), d.ty.var, d.ty.body)
        _expect(alpha_eq(ch[0].ty, want), d, "body type")
    elif r == "i-alleo-elim":
        _expect(isinstance(ch[0].ty, IAllEo), d, "head must be order-quantified")
        want = subst_eo(d.get("eo"), ch[0].ty.var, ch[0].ty.body)
        _expect(alpha_eq(d.ty, want), d, "instantiation")
        _expect(d.valueness == ch[0].valueness, d, "valueness preserved")
    elif r == "i-rec-intro":
        _expect(d.direction == CHECK and isinstance(d.ty, IRec), d, "shape")
        _expect(alpha_eq(ch[0].ty, unfold(d.ty)), d, "unfolding")
        _expect(d.valueness == ch[0].valueness, d, "valueness preserved")
    elif r == "i-rec-elim":
        _expect(d.direction == SYNTH and d.valueness == TOP, d, "shape")
        _expect(isinstance(ch[0].ty, IRec), d, "premise must be recursive")
        _expect(alpha_eq(d.ty, unfold(ch[0].ty)), d, "unfolding")
    else:
        raise ReplayError(f"unknown impartial rule {r}")


def replay_econ(d: Derivation) -> None:
    """Re-validate a suspension-point derivation node-by-node."""
    for c in d.children:
        replay_econ(c)
    r = d.rule
    ch = d.children
    if r == "r-var":
        ty = d.ctx.lookup("x", d.expr.name)
        _expect(d.direction == SYNTH and d.valueness == VAL and alpha_eq(ty, d.ty),
                d, "variables synthesize val")
    elif r == "r-fixvar":
        ty = d.ctx.lookup("u", d.expr.name)
        _expect(d.valueness == TOP and alpha_eq(ty, d.ty), d, "lookup")
    elif r == "r-anno":
        _expect(alpha_eq(ch[0].ty, d.ty) and alpha_eq(d.expr.ty, d.ty), d,
                "annotation type")
        _expect(ch[0].valueness == d.valueness, d, "valueness")
    elif r == "r-sub":
        _expect(alpha_eq(ch[0].ty, d.ty) and ch[0].valueness == d.valueness, d,
                "subsumption")
    elif r == "r-unit-intro":
        _expect(isinstance(d.ty, SUnit) and d.valueness == VAL, d, "unit")
    elif r == "r-susp-intro":
        _expect(isinstance(d.ty, SSusp) and d.get("eo") == d.ty.eo, d, "shape")
        _expect(alpha_eq(ch[0].ty, d.ty.body), d, "body type")
        want = VAL if d.ty.eo == N else ch[0].valueness
        _expect(d.valueness == want, d, "suspension valueness")
    elif r == "r-susp-elim-v":
        _expect(isinstance(ch[0].ty, SSusp) and ch[0].ty.eo == V, d, "shape")
        _expect(alpha_eq(d.ty, ch[0].ty.body), d, "body type")
        _expect(d.valueness == ch[0].valueness, d, "valueness preserved")
    elif r == "r-susp-elim-eo":
        _expect(isinstance(ch[0].ty, SSusp), d, "shape")
        _expect(alpha_eq(d.ty, ch[0].ty.body), d, "body type")
        _expect(d.valueness == TOP, d, "stripping costs the valueness")
    elif r == "r-arrow-intro":
        _expect(isinstance(d.ty, SArrow) and d.valueness == VAL, d, "shape")
        x = d.get("var")
        _expect(_ctx_extends(ch[0].ctx, d.ctx, ("x", x, d.ty.dom)), d, "binder")
        _expect(alpha_eq(ch[0].ty, d.ty.cod), d, "body type")
    elif r == "r-arrow-elim":
        _expect(d.valueness == TOP and isinstance(ch[0].ty, SArrow), d, "shape")
        _expect(alpha_eq(ch[1].ty, ch[0].ty.dom), d, "argument type")
        _expect(alpha_eq(d.ty, ch[0].ty.cod), d, "result type")
    elif r == "r-prod-intro":
        _expect(isinstance(d.ty, SProd), d, "shape")
        _expect(d.valueness == join(ch[0].valueness, ch[1].valueness), d, "join")
    elif r == "r-prod-elim":
        _expect(d.valueness == TOP and isinstance(ch[0].ty, SProd), d, "shape")
        comp = ch[0].ty.left if d.get("k") == 1 else ch[0].ty.right
        _expect(alpha_eq(d.ty, comp), d, "component")
    elif r == "r-sum-intro":
        _expect(isinstance(d.ty, SSum) and d.valueness == ch[0].valueness, d,
                "shape")
    elif r == "r-sum-elim":
        _expect(d.valueness == TOP and isinstance(ch[0].ty, SSum), d, "shape")
        _expect(_ctx_extends(ch[1].ctx, d.ctx, ("x", d.get("var1"), ch[0].ty.left)),
                d, "left binder")
        _expect(_ctx_extends(ch[2].ctx, d.ctx, ("x", d.get("var2"), ch[0].ty.right)),
                d, "right binder")
        _expect(alpha_eq(ch[1].ty, d.ty) and alpha_eq(ch[2].ty, d.ty), d,
                "branch types")
    elif r == "r-fix":
        _expect(d.valueness == TOP, d, "fixed points are not values")
        _expect(_ctx_extends(ch[0].ctx, d.ctx, ("u", d.get("var"), d.ty)), d,
                "binder")
    elif r == "r-all-intro":
        _expect(isinstance(d.ty, SForall) and d.valueness == VAL, d, "shape")
        _expect(ch[0].valueness == VAL, d, "subject must be a value")
    elif r == "r-all-elim":
        _expect(isinstance(ch[0].ty, SForall), d, "head")
        want = subst_ty_in_ty(d.get("ty_arg"), ch[0].ty.var, ch[0].ty.body)
        _expect(alpha_eq(d.ty, want), d, "instantiation")
        _expect(d.valueness == ch[0].valueness, d, "valueness preserved")
    elif r == "r-alleo-intro":
        _expect(isinstance(d.ty, SAllEo) and d.valueness == VAL, d, "shape")
        _expect(ch[0].valueness == VAL, d, "subject must be a value")
        _expect(_ctx_extends(ch[0].ctx, d.ctx, ("eo", d.get("var"), None)), d,
                "order binder")
    elif r == "r-alleo-elim":
        _expect(isinstance(ch[0].ty, SAllEo), d, "head")
        want = subst_eo(d.get("eo"), ch[0].ty.var, ch[0].ty.body)
        _expect(alpha_eq(d.ty, want), d, "instantiation")
        _expect(d.valueness == ch[0].valueness, d, "valueness preserved")
    elif r == "r-rec-intro":
        _expect(isinstance(d.ty, SRec), d, "shape")
        _expect(alpha_eq(ch[0].ty, unfold(d.ty)), d, "unfolding")
        _expect(d.valueness == ch[0].valueness, d, "valueness preserved")
    elif r == "r-rec-elim":
        _expect(d.valueness == TOP and isinstance(ch[0].ty, SRec), d, "shape")
        _expect(alpha_eq(d.ty, unfold(ch[0].ty)), d, "unfolding")
    else:
        raise ReplayError(f"unknown rule {r}")


def concrete_orders(node: Node) -> frozenset[str]:
    """Concrete orders mentioned anywhere in a type or expression."""
    return frozenset(v.tag for n in subterms(node) for _, v in children(n)
                     if isinstance(v, EO) and not v.is_var())


def derivation_orders(d: Derivation) -> frozenset[str]:
    out = concrete_orders(d.ty)
    for c in d.children:
        out |= derivation_orders(c)
    return out
