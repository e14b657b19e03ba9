"""Dual-order source semantics."""

import itertools

import reference_steppers
from eopoly import source
from eopoly.syntax import (
    App,
    Case,
    Fix,
    FixVar,
    Inj,
    Lam,
    Pair,
    Proj,
    Unit,
    Var,
    alpha_eq,
)

ID = Lam("x", Var("x"))
OMEGA = Fix("u", FixVar("u"))
REDEX = App(ID, Unit())


def test_source_values():
    assert source.is_source_value(Pair(Unit(), ID))
    assert not source.is_source_value(Fix("u", ID))
    assert not source.is_source_value(Inj(1, App(Var("f"), Var("a"))))


def test_values_have_no_steps():
    assert source.enumerate_steps(Unit()) == []
    assert source.enumerate_steps(Pair(ID, Inj(2, Unit()))) == []


def test_byname_contexts_do_not_enter_pairs():
    """Inside a pair only by-value evaluation applies; the by-name
    projection fires at the root."""
    e = Proj(2, Pair(REDEX, Unit()))
    steps = source.enumerate_steps(e)
    assert any(s.flavor == "byname" and s.rule == "proj" and s.path == ()
               for s in steps)
    assert any(s.flavor == "byvalue" and s.rule == "beta"
               and s.path == ("body", "left") for s in steps)
    assert not any(s.flavor == "byname" and s.path != () for s in steps)


def test_byname_contexts_do_not_enter_arguments():
    e = App(ID, REDEX)
    steps = source.enumerate_steps(e)
    # By-name beta at the root; by-value beta inside the argument.
    assert any(s.flavor == "byname" and s.path == () for s in steps)
    assert any(s.flavor == "byvalue" and s.path == ("arg",) for s in steps)
    assert not any(s.flavor == "byname" and s.path == ("arg",) for s in steps)


def test_byname_contexts_enter_injections():
    e = Inj(1, App(Lam("x", Unit()), OMEGA))
    steps = source.enumerate_steps(e)
    assert [(s.flavor, s.rule, s.path) for s in steps] == [
        ("byvalue", "fix", ("body", "arg")),
        ("byname", "beta", ("body",)),
    ]
    assert steps[1].result == Inj(1, Unit())


def test_discard_divergent_argument():
    e = App(Lam("x", Unit()), OMEGA)
    steps = source.enumerate_steps(e)
    assert any(s.flavor == "byname" and s.rule == "beta" and s.path == ()
               and s.result == Unit() for s in steps)
    assert any(s.flavor == "byvalue" and s.rule == "fix" and s.path == ("arg",)
               for s in steps)


def test_byvalue_steps_are_preferred_tags():
    # A beta with a value argument is derivable both ways; it is tagged
    # by-value and not duplicated.
    steps = source.enumerate_steps(REDEX)
    assert len(steps) == 1 and steps[0].flavor == "byvalue"


def test_reduction_level_inclusion():
    """Every by-value redex contraction is also a by-name contraction: the
    by-value step at each redex is listed once, tagged by-value, with the
    rule and result the by-name reduction gives."""
    redexes = [
        REDEX,
        App(ID, Pair(Unit(), Unit())),
        OMEGA,
        Proj(1, Pair(Unit(), ID)),
        Case(Inj(2, Unit()), "a", Unit(), "b", Var("b")),
    ]
    for r in redexes:
        by_v = source.cbv_step(r)
        assert by_v.kind == "step", r
        at_root = [s for s in source.enumerate_steps(r) if s.path == ()]
        assert len(at_root) == 1, r
        listed = at_root[0]
        assert listed.flavor == "byvalue" and listed.rule == by_v.rule
        rule, by_n = reference_steppers._reduce_byname(r)
        assert listed.rule == rule
        assert alpha_eq(listed.result, by_n) and alpha_eq(by_v.expr, by_n)


def test_cbv_step_examples():
    assert source.cbv_step(REDEX).expr == Unit()
    assert source.cbv_step(Proj(1, Pair(Unit(), Unit()))).expr == Unit()
    got = source.cbv_step(Case(Inj(2, Unit()), "x1", Var("x1"), "x2", Var("x2")))
    assert got.expr == Unit()


def test_cbv_evaluate_examples():
    assert source.cbv_evaluate(REDEX, 10).kind == "value"
    assert source.cbv_evaluate(OMEGA, 5).kind == "out-of-fuel"
    assert source.cbv_evaluate(Proj(1, Unit()), 5).kind == "stuck"


def _small_exprs():
    atoms = [Unit(), ID, OMEGA, REDEX, Inj(1, Unit())]
    for a, b in itertools.product(atoms, repeat=2):
        yield App(a, b)
        yield Pair(a, b)
        yield Proj(2, Pair(a, b))
    for a in atoms:
        yield Inj(2, a)
        yield Case(Inj(1, a), "x", Var("x"), "y", Unit())


def test_cbv_step_agrees_with_enumeration():
    """The deterministic by-value step is exactly the unique by-value
    element of the enumerated step set."""
    for e in _small_exprs():
        byv = [s for s in source.enumerate_steps(e) if s.flavor == "byvalue"]
        r = source.cbv_step(e)
        if r.kind == "step":
            assert len(byv) == 1, e
            assert alpha_eq(byv[0].result, r.expr)
        else:
            assert byv == [], e


def test_divergence_depends_on_chosen_flavor():
    """By name the discarding application finishes at once; by value it
    unfolds the argument forever."""
    e = App(Lam("x", Unit()), OMEGA)
    byname_results = [
        s.result for s in source.enumerate_steps(e) if s.flavor == "byname"
    ]
    assert Unit() in byname_results
    assert source.cbv_evaluate(e, 100).kind == "out-of-fuel"
