"""The table-driven steppers against the hand-written ones they replaced.

``reference_steppers`` keeps the steppers that spelled out each evaluation
context as a match; every test here steps a term both ways, up to a fuel
cap, and demands the same kind, rule, path and term at every step.  Whole
runs (``target.evaluate``, ``source.cbv_evaluate``), which resume each
search at the contractum instead of stepping from the root, are held to a
plain fuel loop over the reference steppers.
"""

import functools
import glob
import os
import sys

import pytest
from hypothesis import given, settings, strategies as st

import reference_steppers as ref
from eopoly import econ, source, syntax, target
from eopoly.elaborate import elaborate
from eopoly.enum_terms import enumerate_welltyped
from eopoly.parser import parse_term_text
from eopoly.program import load_program, parse_program
from eopoly.syntax import (
    App,
    Case,
    EconCtx,
    Fix,
    FixVar,
    Inj,
    Lam,
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
    MThunk,
    MTyApp,
    MTyLam,
    MUnit,
    MUnroll,
    MVar,
    Pair,
    Proj,
    Unit,
    Var,
    erase,
)
from eopoly.verify import GROWTH_CAP

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")
ENUM_BOUND = 5
CORE_FUEL = 300
SOURCE_FUEL = 60
ENUM_FUEL = 30


def same_core_run(m, fuel):
    """Step ``m`` with both core steppers, up to ``fuel`` steps."""
    for _ in range(fuel):
        assert target.is_value(m) == ref.is_value(m), m
        assert target.is_valuable(m) == ref.is_valuable(m), m
        got, want = target.step(m), ref.step(m)
        assert (got.kind, got.rule, got.term) == (want.kind, want.rule, want.term), m
        if got.kind != "step":
            return
        m = got.term


def same_source_run(e, fuel):
    """Step ``e`` by value with both source steppers, comparing the whole
    step enumeration at every state, up to ``fuel`` steps."""
    for _ in range(fuel):
        assert source.is_source_value(e) == ref.is_source_value(e), e
        assert source.enumerate_steps(e) == ref.enumerate_steps(e), e
        got, want = source.cbv_step(e), ref.cbv_step(e)
        assert (got.kind, got.rule, got.expr) == (want.kind, want.rule, want.expr), e
        if got.kind != "step":
            return
        e = got.expr


def reference_run(x, fuel, ref_step):
    """``(kind, term, steps, trace)``: ``x`` stepped from the root by
    ``ref_step`` until a value, a stuck term, or ``fuel`` steps."""
    trace = [x]
    for n in range(fuel + 1):
        r = ref_step(x)
        if r.kind != "step":
            return r.kind, x, n, trace
        if n == fuel:
            return "out-of-fuel", x, n, trace
        x = r.term if isinstance(r, target.StepResult) else r.expr
        trace.append(x)


def same_whole_runs(x, cap, evaluate, ref_step):
    """``evaluate`` against the reference loop, at fuels 0, 1, the
    reference run's step count within ``cap`` and one less, with and
    without a trace: same kind, final term, steps and trace, each state
    handed over as the run reaches it."""
    ref_step = functools.lru_cache(maxsize=None)(ref_step)
    n = reference_run(x, cap, ref_step)[2]
    for fuel in sorted({0, 1, max(n - 1, 0), n}):
        kind, term, steps, trace = reference_run(x, fuel, ref_step)
        for traced in (False, True):
            states = []
            got = evaluate(x, fuel, states.append if traced else None)
            final = got.term if isinstance(got, target.EvalResult) else got.expr
            assert (got.kind, repr(final), got.steps) == (kind, repr(term), steps), (x, fuel)
            want = trace if traced else []
            assert [repr(t) for t in states] == [repr(t) for t in want], (x, fuel)


CORPUS_FILES = sorted(glob.glob(os.path.join(CORPUS, "*.eo")))


def program_run(prog):
    """The elaborated core term and the erased source of a program."""
    e = econ.econ_expr(prog.main) if prog.lang == "impartial" else prog.main
    return elaborate(econ.econ_synth(EconCtx(), e)).term, erase(prog.main)


def corpus_run(path):
    return program_run(load_program(path))


@pytest.fixture(scope="module")
def enumerated_runs():
    """The elaborated core term and the erased source of every bound-5
    judgment."""
    judgments = enumerate_welltyped(ENUM_BOUND)
    assert len(judgments) == 2339
    out = []
    for j in judgments:
        ee = econ.econ_expr(j.expr)
        if j.direction == "check":
            r = econ.econ_check(EconCtx(), ee, econ.econ_type(j.ty))
        else:
            r = econ.econ_synth(EconCtx(), ee)
        out.append((elaborate(r).term, erase(j.expr)))
    return out


@pytest.mark.parametrize("path", CORPUS_FILES, ids=os.path.basename)
def test_corpus_runs_agree(path):
    m, e = corpus_run(path)
    same_core_run(m, CORE_FUEL)
    same_source_run(e, SOURCE_FUEL)


def test_enumerated_runs_agree(enumerated_runs):
    for m, e in enumerated_runs:
        same_core_run(m, ENUM_FUEL)
        same_source_run(e, ENUM_FUEL)


def test_evaluate_matches_reference_loop(enumerated_runs):
    """Whole runs of every corpus file and every bound-5 judgment, core
    and source, against the reference loop."""
    runs = [corpus_run(path) + (CORE_FUEL, SOURCE_FUEL) for path in CORPUS_FILES]
    runs += [(m, e, ENUM_FUEL, ENUM_FUEL) for m, e in enumerated_runs]
    for m, e, core_fuel, source_fuel in runs:
        same_whole_runs(m, core_fuel, target.evaluate, ref.step)
        same_whole_runs(e, source_fuel, source.cbv_evaluate, ref.cbv_step)


class CountingContexts(dict):
    """An evaluation-context table that counts the walk's lookups: one per
    visit of a node."""

    visits = 0

    def get(self, key, default=None):
        self.visits += 1
        return super().get(key, default)


def _map_v(n):
    """``corpus/map_applied_v.eo`` applied to an ``n``-element list."""
    with open(os.path.join(CORPUS, "map_applied_v.eo")) as fh:
        text = fh.read()
    xs = "inj1 ()"
    for _ in range(n):
        xs = f"inj2 ((), {xs})"
    return parse_program(text.replace("(inj2 ((), inj1 ()))", f"({xs})"))


def _visits_per_contraction(monkeypatch, module, table, evaluate, x):
    counting = CountingContexts(getattr(module, table))
    monkeypatch.setattr(module, table, counting)
    r = evaluate(x, 100_000)
    monkeypatch.undo()
    assert r.kind == "value"
    return counting.visits / r.steps


def test_run_visits_per_contraction_do_not_grow(monkeypatch):
    """A run resumes each search at the contractum, so the nodes its walk
    visits per contraction do not grow with the input: map at V over 128
    elements against 16 (stepping from the root, they grow about 7-fold)."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(20_000)  # hashing the 128-element list recurses
    try:
        per = {}
        for n in (16, 128):
            m, e = program_run(_map_v(n))
            per[n] = (
                _visits_per_contraction(monkeypatch, target, "CONTEXTS", target.evaluate, m),
                _visits_per_contraction(monkeypatch, source, "BYVALUE_CONTEXTS",
                                        source.cbv_evaluate, e),
            )
    finally:
        sys.setrecursionlimit(limit)
    for small, large in zip(per[16], per[128]):
        assert large < 1.25 * small, per


def _unfoldings(monkeypatch, evaluate, x):
    """The fixed points a whole run of ``x`` unfolds: the ``subst1`` calls
    that replace a name by a fixed point."""
    count = 0
    real = syntax.subst1

    def counting(node, ns, name, replacement):
        nonlocal count
        count += isinstance(replacement, (Fix, MFix))
        return real(node, ns, name, replacement)

    monkeypatch.setattr(syntax, "subst1", counting)
    r = evaluate(x, 100_000)
    monkeypatch.undo()
    assert r.kind == "value"
    return count


def test_unfoldings_do_not_grow_with_the_input(monkeypatch):
    """Each recursive call contracts the fixed point the first unfolding
    put in place, and its unfolding is kept on it: map at V over 16
    elements unfolds as many fixed points as over 4, in both evaluators
    (unfolding at every contraction, they grow with the list)."""
    per = {n: program_run(_map_v(n)) for n in (4, 16)}
    for evaluate, i in ((target.evaluate, 0), (source.cbv_evaluate, 1)):
        small = _unfoldings(monkeypatch, evaluate, per[4][i])
        assert 0 < small == _unfoldings(monkeypatch, evaluate, per[16][i])


def test_a_diverging_fixed_point_substitutes_once(monkeypatch):
    """``fix u. u`` steps to itself: a by-value run of
    ``corpus/byname_discard.eo`` to fuel 2 000 substitutes for its
    unfolding once, not at every step."""
    calls = 0
    real = syntax.subst

    def counting(node, sub):
        nonlocal calls
        calls += 1
        return real(node, sub)

    _, e = corpus_run(os.path.join(CORPUS, "byname_discard.eo"))
    monkeypatch.setattr(syntax, "subst", counting)
    r = source.cbv_evaluate(e, 2000)
    monkeypatch.undo()
    assert (r.kind, r.steps) == ("out-of-fuel", 2000)
    assert calls <= 5


def _eq_calls(monkeypatch, runs) -> int:
    """The structural comparisons (``__eq__`` calls on nodes) that ``runs``
    make, each a thunk."""
    count = 0
    for cls in vars(syntax).values():
        if (isinstance(cls, type) and issubclass(cls, syntax.Node)
                and "__eq__" in vars(cls)):
            def counting(a, b, _real=cls.__eq__):
                nonlocal count
                count += 1
                return _real(a, b)
            monkeypatch.setattr(cls, "__eq__", counting)
    for run in runs:
        assert run().kind == "value"
    monkeypatch.undo()
    return count


def _runs(n):
    m, e = program_run(_map_v(n))
    return (lambda: target.evaluate(m, 100_000),
            lambda: source.cbv_evaluate(e, 100_000))


def test_shorter_runs_leave_nothing_a_longer_run_compares(monkeypatch):
    """Map at V over 512 elements, run in the core and as by-value source
    after the same runs over 64, 128 and 256 elements, makes no more
    structural node comparisons than when run alone: nothing kept across
    runs holds a node that a later run's equal node is compared with in
    full."""
    alone = _eq_calls(monkeypatch, _runs(512))
    for n in (64, 128, 256):
        for run in _runs(n):
            run()
    after = _eq_calls(monkeypatch, _runs(512))
    assert after <= alone, (after, alone)


@pytest.mark.parametrize("path", CORPUS_FILES, ids=os.path.basename)
def test_run_term_is_the_plugged_state(path):
    """At every step of a corpus file's core run and by-value source run,
    the state ``term()`` builds through the run's table is the contractum
    plugged into its frames, names and all."""
    m, e = corpus_run(path)
    for run in (target.run(m, CORE_FUEL), source.cbv_run(e, CORE_FUEL)):
        for _ in run:
            got, want = run.term(), syntax.plug(run.frames, run.node)
            assert got == want and repr(got) == repr(want), (path, run.steps)


def _producer(k):
    """``roll (fix u0. ... fix u(k-1). inj2 (roll u0))``, a producer at
    ``rec a. 1 + a`` whose run grows without end."""
    text = "inj2 (roll u0)"
    for i in reversed(range(k)):
        text = f"fix u{i}. {text}"
    return parse_term_text(f"roll ({text})")


@pytest.mark.parametrize("k", [1, 2, 4])
def test_a_run_builds_each_rebuilt_node_once(k):
    """The states type safety checks on a growing producer, up to the first
    past ``GROWTH_CAP`` nodes, hold no two nodes that are equal but
    distinct: a parent rebuilt around the same fields is the node built
    before (plugging afresh, 2 209, 4 141 and 7 483 for k = 1, 2, 4)."""
    # ``states`` keeps every node alive, so no id in ``seen`` is reused.
    run, first, states, seen = target.run(_producer(k), 10_000), {}, [], set()
    for _ in run:
        states.append(run.term())
        stack = [states[-1]]
        while stack:
            n = stack.pop()
            if isinstance(n, syntax.Node) and id(n) not in seen:
                seen.add(id(n))
                assert first.setdefault(n, n) is n, (k, run.steps, n)
                stack.extend(v for _, v in syntax.children(n))
        if syntax.node_count(states[-1]) > GROWTH_CAP:
            return
    pytest.fail("the producer stopped growing")


# -- random untyped, open and stuck terms ---------------------------------------

_names = st.sampled_from(["x", "y"])
_k = st.sampled_from([1, 2])


def _core_terms():
    return st.recursive(
        st.one_of(st.just(MUnit()), st.builds(MVar, _names),
                  st.builds(MFixVar, _names)),
        lambda t: st.one_of(
            st.builds(MLam, _names, t),
            st.builds(MApp, t, t),
            st.builds(MFix, _names, t),
            st.builds(MTyLam, t),
            st.builds(MTyApp, t),
            st.builds(MThunk, t),
            st.builds(MForce, t),
            st.builds(MPair, t, t),
            st.builds(MProj, _k, t),
            st.builds(MInj, _k, t),
            st.builds(MCase, t, _names, t, _names, t),
            st.builds(MRoll, t),
            st.builds(MUnroll, t),
            # Redexes, which independent draws seldom line up.
            st.builds(lambda x, b, a: MApp(MLam(x, b), a), _names, t, t),
            st.builds(lambda b: MForce(MThunk(b)), t),
            st.builds(lambda b: MTyApp(MTyLam(b)), t),
            st.builds(lambda b: MUnroll(MRoll(b)), t),
            st.builds(lambda k, l, r: MProj(k, MPair(l, r)), _k, t, t),
            st.builds(lambda k, b, x, m: MCase(MInj(k, b), x, m, x, m),
                      _k, t, _names, t),
        ),
        max_leaves=10,
    )


def _source_exprs():
    return st.recursive(
        st.one_of(st.just(Unit()), st.builds(Var, _names),
                  st.builds(FixVar, _names)),
        lambda e: st.one_of(
            st.builds(Lam, _names, e),
            st.builds(App, e, e),
            st.builds(Fix, _names, e),
            st.builds(Pair, e, e),
            st.builds(Proj, _k, e),
            st.builds(Inj, _k, e),
            st.builds(Case, e, _names, e, _names, e),
            st.builds(lambda x, b, a: App(Lam(x, b), a), _names, e, e),
            st.builds(lambda k, l, r: Proj(k, Pair(l, r)), _k, e, e),
            st.builds(lambda k, b, x, m: Case(Inj(k, b), x, m, x, m),
                      _k, e, _names, e),
        ),
        max_leaves=10,
    )


@settings(max_examples=300, deadline=None)
@given(_core_terms())
def test_random_core_terms_agree(m):
    same_core_run(m, 20)
    same_whole_runs(m, 20, target.evaluate, ref.step)


@settings(max_examples=300, deadline=None)
@given(_source_exprs())
def test_random_source_exprs_agree(e):
    same_source_run(e, 20)
    same_whole_runs(e, 20, source.cbv_evaluate, ref.cbv_step)
    for s in source.enumerate_steps(e):
        same_source_run(s.result, 5)
