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

Type safety and simulation step the core term on its refocused run
(``target.run``), plugging it into the whole term once per step for their
checks, and share one fuel rule and two stops: ``fuel`` counts
contractions, so a run that reaches a value in exactly ``fuel`` steps
ends in that value; a repeated state (the core term, or the (core,
source) pair) and a core term past ``GROWTH_CAP`` nodes each end the
check early with a pass and a note.  Type safety has a third stop, a
state that embeds an earlier one in a typed evaluation context
(``_typed_embedding``), which ends most growing producers a few steps in
instead of at the cap.  ``Run.term()`` returns a node built
in an earlier state wherever the state rebuilds it around the same
fields, so the stops' ``alpha_key`` and ``node_count``, kept on each
node, and the core checker's memo see each rebuilt node once per run.

The suspension-point checks on one judgment share one :class:`Judgment`,
which derives it once and builds its elaboration and pools on first use:
a pool when a search first tries candidates, so never for a program
whose every search the terms decide.
The translation checks have bodies (``econ_preservation``,
``nfree_econ``) that read an impartial typing already derived; each
``run_*`` entry derives the typing, then runs its body.

``replay`` validates a reified derivation of either source system node by
node against the declarative rules, so the algorithmic checker is itself
checked.  Every rule checks every premise: its subject, direction, type,
valueness and context, and every binder rule that its binder is opened
at a name not free in it.  It states each system's binder declarations
itself and reads only the connective classes from :mod:`eopoly.bidir`'s
system records, so it shares no rule code with the checker.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Callable, NamedTuple

from . import econ as econ_mod
from . import impartial as imp_mod
from . import source as src_mod
from . import target as tgt_mod
from .bidir import System
from .elaborate import ElabChecker, elaborate, ty_target
from .errors import EopolyError, TypecheckError
from .nfree import (
    n_free_econ_judgment,
    n_free_impartial_judgment,
    n_free_target,
)
from .syntax import (
    CHECK,
    Anno,
    App,
    Case,
    Derivation,
    EconCtx,
    EconType,
    EoApp,
    Expr,
    Fix,
    FixVar,
    ImpCtx,
    ImpType,
    Inj,
    Lam,
    MVar,
    N,
    Node,
    Pair,
    Proj,
    SAllEo,
    SRec,
    SSusp,
    SYNTH,
    Term,
    TgtCtx,
    TOP,
    TyApp,
    TyLam,
    Unit,
    V,
    VAL,
    Valueness,
    Var,
    alpha_eq,
    alpha_key,
    distinct_subterms,
    eo_var,
    erase,
    free_names,
    instantiate,
    join,
    node_count,
    plug,
    subst1,
    unfold,
    valof,
    vleq,
)
from .wf import eo_wf, rec_guarded, ty_wf

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
            shown = {k: self.detail[k] for k in ("reason", "steps")
                     if k in self.detail}
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
    a bare type list (a menu, with no program to derive) needs.  Each
    distinct type is closed once, and ``syntax.distinct_subterms`` lists
    the closure's alpha-distinct subterms in first-occurrence order.
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
    for t in dict.fromkeys(found):
        closed.append(t)
        if isinstance(t, SAllEo):
            closed += [instantiate(t, V), instantiate(t, N)]
        elif isinstance(t, SRec):
            closed.append(unfold(t))
    return tuple(distinct_subterms(closed))


def target_pool(pool: tuple[EconType, ...]) -> tuple:
    """The core types of ``pool``'s types that name no order variable, in
    pool order.  The pool is closed under subterms, so one translation
    table for the call translates each distinct subtree object once, and
    the translated pool shares its subtrees as the pool does."""
    table: dict = {}
    return tuple(ty_target(t, table) for t in pool if not free_names(t, "eo"))


@dataclass
class Judgment:
    """The closed suspension-point judgment of ``expr``, checked against
    ``ty`` or synthesized, by ``direction``.  Its typing, elaboration, pool
    and checkers are built on first use, and the checkers get the pools
    unbuilt, as functions, so that a pool is built only when a search first
    tries candidates; a caller sharing one pool across judgments assigns
    ``checker`` and ``tpool``."""

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
    def _pool_of(self) -> Callable[[], tuple[EconType, ...]]:
        """``pool``'s build, made at its first call and kept.  It holds the
        typing, not the judgment, so the checker that holds it makes no
        reference cycle: the judgment dies with its last reference instead
        of waiting for the cyclic collector."""
        r = self.typing
        return cache(lambda: _pool([r.ty], [r.deriv]))

    @property
    def pool(self) -> tuple[EconType, ...]:
        return self._pool_of()

    @cached_property
    def checker(self) -> ElabChecker:
        return ElabChecker(self._pool_of)

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
    if not tgt_mod.target_check(TgtCtx(), er.term, ty_target(r.ty),
                                lambda: j.tpool):
        return CheckOutcome(
            name, program, FAIL,
            {"reason": "core term does not check at the translated type",
             "term": er.term},
        )
    if j.checker.check(erase(j.expr), r.ty, er.term) is None:
        return CheckOutcome(
            name, program, FAIL,
            {"reason": "elaboration relation does not relate the output",
             "term": er.term},
        )
    return CheckOutcome(name, program, PASS)


# ---------------------------------------------------------------------------
# Target type safety along whole evaluations
# ---------------------------------------------------------------------------

GROWTH_CAP = 100  # core nodes


def _stop(seen: set, key: object, m: Term) -> str:
    """The note on which a run checked so far stops at the state ``m``
    whose repeated-state key is ``key``; "" to go on.

    The core and source steppers are deterministic and commute with
    renaming, so a state whose key is in ``seen`` makes the run periodic
    from there: every future state is already checked.  A diverging
    producer grows by a constant each cycle, so past ``GROWTH_CAP`` core
    nodes the rest of the run only repeats already-checked redex families.
    Neither stop masks a violation in the checked prefix.  Type safety
    tries ``_typed_embedding`` after both, which ends a producer that grows
    at its hole; the cap is left for the simulation and for producers
    that grow below an outer context that never changes.
    """
    if key in seen:
        return "cycle, no violation"
    seen.add(key)
    if node_count(m) > GROWTH_CAP:
        return "growth-capped, no violation"
    return ""


def _outline(m: Term) -> tuple:
    """``m``'s class and size, which alpha-equal terms share."""
    return type(m), node_count(m)


def _typed_embedding(seen: set, outlines: set, frames: list, m: Term, ty,
                     checker: tgt_mod.TargetChecker) -> bool:
    """Whether the state ``m`` embeds an earlier state in a typed context:
    a node strictly below its root on the hole path ``frames`` has its
    ``alpha_key`` in ``seen``, the earlier states' keys, so that ``m`` is
    S_j = C[S_i] for a non-empty context C, and C[x] checks at ``ty``
    under ``x : ty``.  Only a node whose ``_outline`` is in ``outlines``,
    the earlier states' outlines, can match, and the walk looks up no
    other node's key, since a lookup hashes the whole key.  The caller has
    checked ``m`` and every earlier state after the first at ``ty``.
    Then the rest of the run is safe:

    * C is made of evaluation frames: each field that a frame evaluates
      before its hole holds a value, and no frame binds a name over the
      hole.  So X -> X' gives C[X] -> C[X'] whenever X is not a value.
    * The core run is deterministic and commutes with renaming, so from
      S_i it repeats inside C forever: every later state is C^n[S_t] with
      n >= 1 and i <= t < j.
    * Each such S_t stepped, so no later state is stuck.
    * Each S_t with t >= 1 was checked at ``ty``, and C[S_0] is S_j, which
      was checked too.  C[x] checks at ``ty`` under ``x : ty``, so by the
      substitution lemma (Wright & Felleisen, Inf. & Comp. 1994) and
      induction on n, every C^n[S_t] is typed.

    So stopping here hides no violation, just as the cycle stop hides
    none.  It is a homeomorphic-embedding termination check (Leuschel,
    SAS 1998) narrowed to embeddings whose every extension is typed.
    """
    node = m
    for depth, (_, fields, i) in enumerate(frames, 1):
        node = getattr(node, fields[i])
        if _outline(node) in outlines and alpha_key(node) in seen:
            x = TgtCtx().apart("x", "x", scope=(m,))
            if checker.check(TgtCtx((("x", x, ty),)),
                             plug(frames[:depth], MVar(x)), ty):
                return True
    return False


def run_type_safety(m: Term, ty, pool, fuel: int = 10_000,
                    program: str = "?", checker=None) -> CheckOutcome:
    """Step to completion, re-checking the type after every step.

    The run stops early, passing with a note, at the first repeated state,
    at a typed self-embedding (see ``_typed_embedding``) or past the growth
    cap (see ``_stop``).  ``pool`` is the core checker's pool, or a
    function of no arguments that builds it (see ``target.TargetChecker``).
    """
    name = "target-type-safety"
    if checker is None:
        checker = tgt_mod.TargetChecker(pool)
    run = tgt_mod.run(m, fuel)
    seen, outlines = {alpha_key(m)}, {_outline(m)}
    for _ in run:
        m = run.term()
        if not checker.check(TgtCtx(), m, ty):
            return CheckOutcome(
                name, program, FAIL,
                {"reason": "type not preserved", "term": m, "steps": run.steps},
            )
        note = _stop(seen, alpha_key(m), m)
        outlines.add(_outline(m))
        if not note and _typed_embedding(seen, outlines, run.frames, m, ty,
                                         checker):
            note = "typed embedding, no violation"
        if note:
            return CheckOutcome(name, program, PASS,
                                {"steps": run.steps, "note": note})
    if run.kind == "stuck":
        return CheckOutcome(name, program, FAIL, {"reason": "stuck",
                            "term": run.term(), "steps": run.steps})
    detail = {"steps": run.steps}
    if run.kind == OUT_OF_FUEL:
        detail["note"] = "fuel exhausted, no violation"
    return CheckOutcome(name, program, PASS, detail)


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
    note: str = ""

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
        if self.note:
            detail["note"] = self.note
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
    stepping relation, bounded in source steps (membership tests decide
    and need none); hitting that bound is reported as search exhaustion,
    distinct from refutation, because the matched source run may be
    longer than any fixed bound.  The simulation stops early, passing
    with a note, at the first repeated (core, source) pair or past the
    growth cap (see ``_stop``).
    """
    r = j.typing
    m = j.elab.term
    checker = j.checker
    nfree = n_free_target(m)
    report = ConsistencyReport(program, nfree)
    e_cur = erase(j.expr)
    phi = checker.check(e_cur, r.ty, m)
    if phi is None:
        report.verdict = FAIL
        report.reason = "the program does not re-relate to its own elaboration"
        return report
    run = tgt_mod.run(m, fuel)
    seen = {(alpha_key(m), alpha_key(e_cur))}
    for i, rule in enumerate(run):
        m2 = run.term()
        if nfree and not n_free_target(m2):
            report.verdict = FAIL
            report.reason = "stepping produced a thunk or force from nothing"
            return report
        found, pruned = _search_match(e_cur, r.ty, m2, checker, search_depth,
                                      byvalue_only=nfree, prefer_rule=rule)
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
            SimStep(i, rule, depth, not used_byname, phi2.value)
        )
        m, e_cur, phi = m2, e2, phi2
        report.note = _stop(seen, (alpha_key(m), alpha_key(e_cur)), m)
        if report.note:
            break
    report.final_target = m
    report.final_source = e_cur
    if run.kind == "stuck":
        report.verdict = FAIL
        report.reason = "core term got stuck"
    elif run.kind == OUT_OF_FUEL:
        report.verdict = OUT_OF_FUEL
    elif run.kind == "value" and n_free_target(m):
        report.endpoint_value = src_mod.is_source_value(e_cur)
        if not report.endpoint_value:
            report.verdict = FAIL
            report.reason = "N-free core value matched by a non-value"
    return report


def _search_match(e: Expr, ty: EconType, m: Term, checker: ElabChecker,
                  depth_bound: int, byvalue_only: bool,
                  prefer_rule: str = ""):
    """Breadth-first match search within ``depth_bound`` source steps;
    the second component reports whether that bound pruned anything
    (False = the space was fully explored, so no match exists).

    Source steps whose reduction rule matches the core step's are tried
    first within each depth: the match is usually the mirrored redex, and
    a failing membership test on a large wrong candidate is expensive.
    """
    seen = {alpha_key(e)}
    pruned = False
    # For a computational core step the matching source term almost always
    # needs the mirrored reduction, and a failing membership test on the
    # unreduced term is the most expensive call in the harness; so probe
    # the mirrored candidates, one step away, before the zero-step one.
    if prefer_rule in ("beta", "fix", "case") and depth_bound >= 1:
        for s in src_mod.enumerate_steps(e):
            if s.rule != prefer_rule:
                continue
            if byvalue_only and s.flavor != src_mod.BYVALUE:
                continue
            v = checker.check(s.result, ty, m)
            if v is not None:
                return (s.result, 1, v, s.flavor != src_mod.BYVALUE), pruned
    frontier = deque([(e, 0, False)])
    while frontier:
        cand, depth, used_byname = frontier.popleft()
        v = checker.check(cand, ty, m)
        if v is not None:
            return (cand, depth, v, used_byname), pruned
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
            name, program, FAIL,
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


class _Decls(NamedTuple):
    """A source system's connectives and how it declares term variables,
    stated here apart from the context classes the checker reads."""

    system: System
    ctx: type
    arg: Callable      # a function's binder, from the function's arrow
    case: Callable     # a case binder, from the scrutinee's component type
    fix: Callable      # a fixed point's binder, from the fixed point's type
    assumed: Callable  # a term variable's (valueness, type), from its entry


_SYSTEMS = {
    "i-": _Decls(imp_mod.IMPARTIAL, ImpCtx, lambda a: (valof(a.eo), a.dom),
                 lambda t: (VAL, t), lambda t: (TOP, t), lambda entry: entry),
    "r-": _Decls(econ_mod.ECON, EconCtx, lambda a: a.dom,
                 lambda t: t, lambda t: t, lambda entry: (VAL, entry)),
}


def replay(d: Derivation) -> None:
    """Re-validate a derivation of either source system node by node
    against the declarative rules; raise :class:`ReplayError` at the first
    node that breaks its rule.

    Each node is checked against its own premises: their number, system,
    subject (the matching part of the node's expression, with the binder
    renamed as the node records), direction, type, valueness and context;
    the annotations and instantiations it reads must be well-formed, and a
    binder's recorded name must not be free in what the binder scopes over.
    """
    todo = [d]
    while todo:
        node = todo.pop()
        _replay_node(node)
        todo.extend(node.children)


def _expect(cond: bool, d: Derivation, why: str):
    if not cond:
        raise ReplayError(f"rule {d.rule}: {why}")


def _info(d: Derivation, key: str):
    if key not in (d.info or {}):
        raise ReplayError(f"rule {d.rule}: no {key!r} recorded")
    return d.info[key]


def _shape(d: Derivation, form: type, direction: str, arity: int) -> None:
    if not isinstance(d.expr, form):
        problem = f"the subject must be a {form.__name__}"
    elif d.direction != direction:
        problem = f"the conclusion must {direction}"
    elif len(d.children) != arity:
        problem = f"expected {arity} premise(s), found {len(d.children)}"
    else:
        return
    raise ReplayError(f"rule {d.rule}: {problem}")


def _conclude(d: Derivation, valueness: Valueness, ty: Node | None = None):
    _expect(ty is None or _same(d.ty, ty), d, "wrong conclusion type")
    _expect(d.valueness == valueness, d, "wrong conclusion valueness")


def _is(d: Derivation, ty: object, cls: type) -> None:
    if not isinstance(ty, cls):
        raise ReplayError(f"rule {d.rule}: {ty!r} is not a {cls.__name__}")


def _lookup(d: Derivation, kind: str, name: str) -> object:
    try:
        return d.ctx.lookup(kind, name)
    except KeyError:
        raise ReplayError(f"rule {d.rule}: {name} is not declared") from None


def _premise(d: Derivation, i: int, expr: Expr, direction: str,
             ty: Node | None = None, valueness: Valueness | None = None,
             decl: tuple | None = None) -> Derivation:
    """The ``i``-th premise of ``d``, checked to conclude about ``expr`` in
    ``direction`` (at ``ty`` and ``valueness`` when given), in ``d``'s
    context extended by ``decl`` when given."""
    p = d.children[i]
    if not isinstance(p, Derivation) or p.rule[:2] != d.rule[:2]:
        problem = "is not a derivation of this system"
    elif not _same(p.expr, expr):
        problem = "has the wrong subject"
    elif p.direction != direction:
        problem = f"must {direction}"
    elif ty is not None and not _same(p.ty, ty):
        problem = "has the wrong type"
    elif valueness is not None and p.valueness != valueness:
        problem = "has the wrong valueness"
    elif decl is None and p.ctx != d.ctx:
        problem = "changes the context"
    elif decl is not None and not _declares(p.ctx, d.ctx, decl):
        problem = f"must declare {decl[1]} as {decl[2]!r}"
    else:
        return p
    raise ReplayError(f"rule {d.rule}: premise {i + 1} {problem}")


def _fresh(d: Derivation, name: str, free: frozenset[str]) -> None:
    """Refuse a binder opened at ``name`` when ``name`` is among the
    ``free`` names of what the binder scopes over: it would capture them."""
    _expect(name not in free, d, f"the binder is opened at its free {name}")


def _same(a: object, b: object) -> bool:
    return a is b or alpha_eq(a, b)


def _wf(ctx, ty: Node) -> bool:
    return ty_wf(ctx, ty) and rec_guarded(ty)


def _declares(child, parent, decl: tuple) -> bool:
    """``child`` is ``parent`` with the fresh declaration ``decl`` added."""
    kind, name, payload = decl
    if (type(child) is not type(parent)
            or len(child.entries) != len(parent.entries) + 1
            or child.entries[:-1] != parent.entries
            or parent.declares(kind, name)):
        return False
    k, n, got = child.entries[-1]
    if (k, n) != (kind, name):
        return False
    if isinstance(payload, tuple):  # an impartial (valueness, type)
        return (isinstance(got, tuple) and got[0] == payload[0]
                and _same(got[1], payload[1]))
    return _same(got, payload)


def _replay_node(d: Derivation) -> None:
    decls = _SYSTEMS.get(d.rule[:2])
    if decls is None:
        raise ReplayError(f"unknown rule {d.rule}")
    _expect(isinstance(d.ctx, decls.ctx), d, "context of the other system")
    s, rule, e, ty = decls.system, d.rule[2:], d.expr, d.ty
    if rule == "var":
        _shape(d, Var, SYNTH, 0)
        v, t = decls.assumed(_lookup(d, "x", e.name))
        _conclude(d, v, t)
    elif rule == "fixvar":
        _shape(d, FixVar, SYNTH, 0)
        _, t = decls.assumed(_lookup(d, "u", e.name))
        _conclude(d, TOP, t)
    elif rule == "anno":
        _shape(d, Anno, SYNTH, 1)
        _expect(_wf(d.ctx, e.ty), d, "ill-formed annotation")
        p = _premise(d, 0, e.body, CHECK, e.ty)
        _conclude(d, p.valueness, e.ty)
    elif rule == "sub":
        _shape(d, Expr, CHECK, 1)
        p = _premise(d, 0, e, SYNTH, ty)
        _conclude(d, p.valueness)
    elif rule == "unit-intro":
        _shape(d, Unit, CHECK, 0)
        _is(d, ty, s.unit)
        _conclude(d, VAL)
    elif rule == "susp-intro":
        _shape(d, Expr, CHECK, 1)
        _is(d, ty, SSusp)
        _expect(_info(d, "eo") == ty.eo, d, "recorded order")
        p = _premise(d, 0, e, CHECK, ty.body)
        _conclude(d, VAL if ty.eo == N else p.valueness)
    elif rule in ("susp-elim-v", "susp-elim-eo"):
        _shape(d, Expr, SYNTH, 1)
        p = _premise(d, 0, e, SYNTH)
        _is(d, p.ty, SSusp)
        _expect(_info(d, "eo") == p.ty.eo, d, "recorded order")
        by_value = rule == "susp-elim-v"
        _expect(p.ty.eo == V or not by_value, d, "the suspension is by name")
        _conclude(d, p.valueness if by_value else TOP, p.ty.body)
    elif rule == "arrow-intro":
        _shape(d, Lam, CHECK, 1)
        _is(d, ty, s.arrow)
        x = _info(d, "var")
        _fresh(d, x, free_names(e, "x"))
        _premise(d, 0, instantiate(e, Var(x)), CHECK, ty.cod,
                 decl=("x", x, decls.arg(ty)))
        _conclude(d, VAL)
    elif rule == "arrow-elim":
        _shape(d, App, SYNTH, 2)
        f = _premise(d, 0, e.fn, SYNTH)
        _is(d, f.ty, s.arrow)
        _premise(d, 1, e.arg, CHECK, f.ty.dom)
        _conclude(d, TOP, f.ty.cod)
    elif rule == "prod-intro":
        _shape(d, Pair, CHECK, 2)
        _is(d, ty, s.prod)
        left = _premise(d, 0, e.left, CHECK, ty.left)
        right = _premise(d, 1, e.right, CHECK, ty.right)
        _conclude(d, join(left.valueness, right.valueness))
    elif rule == "prod-elim":
        _shape(d, Proj, SYNTH, 1)
        p = _premise(d, 0, e.body, SYNTH)
        _is(d, p.ty, s.prod)
        _expect(_info(d, "k") == e.k, d, "recorded index")
        _conclude(d, TOP, p.ty.left if e.k == 1 else p.ty.right)
    elif rule == "sum-intro":
        _shape(d, Inj, CHECK, 1)
        _is(d, ty, s.sum)
        _expect(_info(d, "k") == e.k, d, "recorded index")
        p = _premise(d, 0, e.body, CHECK, ty.left if e.k == 1 else ty.right)
        _conclude(d, p.valueness)
    elif rule == "sum-elim":
        _shape(d, Case, CHECK, 3)
        p = _premise(d, 0, e.scrut, SYNTH)
        _is(d, p.ty, s.sum)
        for i, comp in enumerate((p.ty.left, p.ty.right), 1):
            x = _info(d, f"var{i}")
            _fresh(d, x, free_names(e, "x"))
            _premise(d, i, instantiate(e, Var(x), f"body{i}"), CHECK, ty,
                     decl=("x", x, decls.case(comp)))
        _conclude(d, TOP)
    elif rule == "fix":
        _shape(d, Fix, CHECK, 1)
        u = _info(d, "var")
        _fresh(d, u, free_names(e, "u"))
        _premise(d, 0, instantiate(e, FixVar(u)), CHECK, ty,
                 decl=("u", u, decls.fix(ty)))
        _conclude(d, TOP)
    elif rule == "all-intro":
        _shape(d, TyLam, CHECK, 1)
        _is(d, ty, s.forall)
        a = s.tyvar(_info(d, "var"))
        _fresh(d, a.name, free_names(e, "ty") | free_names(ty, "ty"))
        _premise(d, 0, instantiate(e, a), CHECK, instantiate(ty, a), VAL,
                 decl=("ty", a.name, None))
        _conclude(d, VAL)
    elif rule == "all-elim":
        _shape(d, TyApp, SYNTH, 1)
        _expect(_wf(d.ctx, e.ty), d, "ill-formed type argument")
        p = _premise(d, 0, e.body, SYNTH)
        _is(d, p.ty, s.forall)
        _expect(alpha_eq(_info(d, "ty_arg"), e.ty), d, "recorded type argument")
        _conclude(d, p.valueness, instantiate(p.ty, e.ty))
    elif rule == "alleo-intro":
        _shape(d, Expr, CHECK, 1)
        _is(d, ty, s.alleo)
        a = eo_var(_info(d, "var"))
        # The subject's annotations refer to the binder by its written name.
        _fresh(d, a.name, (free_names(e, "eo") - {ty.var}) | free_names(ty, "eo"))
        _premise(d, 0, subst1(e, "eo", ty.var, a), CHECK, instantiate(ty, a), VAL,
                 decl=("eo", a.name, None))
        _conclude(d, VAL)
    elif rule == "alleo-elim":
        _shape(d, EoApp, SYNTH, 1)
        _expect(eo_wf(d.ctx, e.eo), d, "order not in scope")
        p = _premise(d, 0, e.body, SYNTH)
        _is(d, p.ty, s.alleo)
        _expect(_info(d, "eo") == e.eo, d, "recorded order")
        _conclude(d, p.valueness, instantiate(p.ty, e.eo))
    elif rule == "rec-intro":
        _shape(d, Expr, CHECK, 1)
        _is(d, ty, s.rec)
        p = _premise(d, 0, e, CHECK, unfold(ty))
        _conclude(d, p.valueness)
    elif rule == "rec-elim":
        _shape(d, Expr, SYNTH, 1)
        p = _premise(d, 0, e, SYNTH)
        _is(d, p.ty, s.rec)
        _conclude(d, TOP, unfold(p.ty))
    else:
        raise ReplayError(f"unknown rule {d.rule}")
