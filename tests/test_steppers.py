"""The table-driven steppers against the hand-written ones they replaced.

``reference_steppers`` keeps the steppers that spelled out each evaluation
context as a match; every test here steps a term both ways, up to a fuel
cap, and demands the same kind, rule, path and term at every step.
"""

import glob
import os

import pytest
from hypothesis import given, settings, strategies as st

import reference_steppers as ref
from eopoly import econ, source, target
from eopoly.elaborate import elaborate
from eopoly.enum_terms import enumerate_welltyped
from eopoly.program import load_program
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


@pytest.mark.parametrize(
    "path", sorted(glob.glob(os.path.join(CORPUS, "*.eo"))), ids=os.path.basename
)
def test_corpus_runs_agree(path):
    prog = load_program(path)
    e = econ.econ_expr(prog.main) if prog.lang == "impartial" else prog.main
    er = elaborate(econ.econ_synth(EconCtx(), e).deriv)
    same_core_run(er.term, CORE_FUEL)
    same_source_run(erase(prog.main), SOURCE_FUEL)


def test_enumerated_runs_agree():
    judgments = enumerate_welltyped(ENUM_BOUND)
    assert len(judgments) == 2339
    for j in judgments:
        ee = econ.econ_expr(j.expr)
        if j.direction == "check":
            r = econ.econ_check(EconCtx(), ee, econ.econ_type(j.ty))
        else:
            r = econ.econ_synth(EconCtx(), ee)
        same_core_run(elaborate(r.deriv).term, ENUM_FUEL)
        same_source_run(erase(j.expr), ENUM_FUEL)


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


@settings(max_examples=300, deadline=None)
@given(_source_exprs())
def test_random_source_exprs_agree(e):
    same_source_run(e, 20)
    for s in source.enumerate_steps(e):
        same_source_run(s.result, 5)
