"""Type translation, derivation-driven elaboration, relation membership."""

import glob
import os

import pytest

from eopoly import econ, elaborate as elab_mod, target, verify
from eopoly.elaborate import (
    ElabChecker,
    check_elab,
    elaborate,
    ty_target,
)
from eopoly.enum_terms import enumerate_welltyped
from eopoly.errors import EvalOrderVarInContext
from eopoly.program import load_program
from eopoly.syntax import (
    AArrow,
    AProd,
    AThunk,
    AUnit,
    App,
    CHECK,
    Anno,
    EconCtx,
    EoApp,
    Fix,
    FixVar,
    Lam,
    MApp,
    MFix,
    MFixVar,
    MForce,
    MLam,
    MPair,
    MProj,
    MThunk,
    MTyLam,
    MUnit,
    MVar,
    N,
    Proj,
    SAllEo,
    SArrow,
    SProd,
    SForall,
    SSusp,
    STyVar,
    SUnit,
    SYNTH,
    TOP,
    TgtCtx,
    Unit,
    V,
    VAL,
    Var,
    alpha_eq,
    eo_var,
    node_count,
)

SU = SUnit()
ID_TY = SAllEo("a", SArrow(SSusp(eo_var("a"), SU), SU))
CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")
GOLDEN = MPair(MLam("x", MVar("x")), MLam("x", MForce(MVar("x"))))


def test_ty_target_by_name_suspension():
    assert ty_target(SSusp(N, SU)) == AThunk(AUnit())


def test_ty_target_order_quantifier_pairs_instances():
    assert ty_target(ID_TY) == AProd(
        AArrow(AUnit(), AUnit()), AArrow(AThunk(AUnit()), AUnit())
    )


def test_ty_target_value_suspensions_vanish():
    assert ty_target(SSusp(V, SSusp(V, SU))) == AUnit()


def test_golden_order_polymorphic_identity():
    r = econ.econ_check(EconCtx(), Lam("x", Var("x")), ID_TY)
    er = elaborate(r.deriv)
    assert er.valueness == VAL
    assert alpha_eq(er.term, GOLDEN)
    assert target.target_check(TgtCtx(), er.term, ty_target(ID_TY))


def test_elaborate_unit_under_by_name_suspension():
    r = econ.econ_check(EconCtx(), Unit(), SSusp(N, SU))
    er = elaborate(r.deriv)
    assert er.valueness == VAL and er.term == MThunk(MUnit())


def test_elaborate_unit():
    r = econ.econ_check(EconCtx(), Unit(), SU)
    er = elaborate(r.deriv)
    assert er.valueness == VAL and er.term == MUnit()


def test_elaborate_rejects_open_order_context():
    r = econ.econ_check(EconCtx().with_eo("a"), Unit(),
                        SSusp(eo_var("a"), SU))
    with pytest.raises(EvalOrderVarInContext):
        elaborate(r.deriv)


def test_elaborate_instantiation_projects():
    prog = Anno(
        App(EoApp(Anno(Lam("x", Var("x")), ID_TY), N), Unit()), SU
    )
    r = econ.econ_synth(EconCtx(), prog)
    er = elaborate(r.deriv)
    assert isinstance(er.term, MApp)
    assert isinstance(er.term.fn, MProj) and er.term.fn.k == 2
    assert er.term.arg == MThunk(MUnit())


def test_check_elab_examples():
    assert check_elab(Unit(), SSusp(N, SU), MThunk(MUnit())) == VAL
    assert check_elab(Unit(), SU, MThunk(MUnit())) is None
    assert check_elab(Lam("x", Var("x")), ID_TY, GOLDEN) == VAL


def test_check_elab_force_of_variable():
    pool = (SSusp(N, SU),)
    got = check_elab(
        App(Lam("x", Var("x")), Unit()), SU,
        MApp(MLam("x", MForce(MVar("x"))), MThunk(MUnit())), pool
    )
    assert got == TOP


def test_check_elab_fix():
    assert check_elab(Fix("u", FixVar("u")), SU, MFix("u", MFixVar("u"))) == TOP
    # Binder names may differ.
    assert check_elab(Fix("u", FixVar("u")), SU, MFix("w", MFixVar("w"))) == TOP


def test_check_elab_renamed_binder_does_not_capture():
    """The source binder x is opened under a fixed point x, so it is
    renamed; the new name must not be the free x_1 of either body."""
    fn = SArrow(SU, SU)
    e = Fix("x", Lam("x", App(FixVar("x"), Var("x_1"))))
    m = MFix("x", MLam("x", MApp(MFixVar("x"), MVar("x_1"))))
    assert check_elab(e, fn, m) is None
    e = Fix("x", Lam("x", App(FixVar("x"), Var("x"))))
    m = MFix("x", MLam("x", MApp(MFixVar("x"), MVar("x"))))
    assert check_elab(e, fn, m) == TOP  # shadowing alone relates
    # The same for a fixed point opened under a function's x.
    e = Lam("x", Fix("x", Lam("y", App(FixVar("x_1"), Var("x")))))
    m = MLam("x", MFix("x", MLam("y", MApp(MFixVar("x_1"), MVar("x")))))
    assert check_elab(e, SArrow(SU, fn), m) is None


def test_check_elab_type_abstraction_does_not_capture():
    """Under x : 'b, an abstraction at forall 'b. 'b -> 'b is opened at a
    name apart from x's 'b, so x does not have the inner 'b."""
    b = STyVar("b")
    ty = SArrow(b, SForall("b", SArrow(b, b)))
    e = Lam("x", Lam("y", Var("x")))
    m = MLam("x", MTyLam(MLam("y", MVar("x"))))
    assert check_elab(e, ty, m) is None
    e = Lam("x", Lam("y", Var("y")))
    m = MLam("x", MTyLam(MLam("y", MVar("y"))))
    assert check_elab(e, ty, m) == VAL


def test_check_elab_respects_structure():
    assert check_elab(Unit(), SU, MVar("x")) is None
    assert check_elab(Lam("x", Var("x")), SU, MLam("x", MVar("x"))) is None
    # Only a source projection may fall through to the product family.
    assert check_elab(Unit(), SU, MProj(1, MUnit())) is None


def test_opening_a_core_binder_captures_no_free_name():
    """The source binder is opened at a name apart from the core term's
    free names, so a core binder of another name captures none of them."""
    arrow = SArrow(SU, SU)
    assert check_elab(Lam("x", Var("x")), arrow, MLam("y", MVar("x"))) is None
    assert check_elab(Fix("u", FixVar("u")), SU, MFix("w", MFixVar("u"))) is None
    assert check_elab(Lam("x", Var("x")), arrow, MLam("y", MVar("y"))) == VAL
    assert check_elab(Fix("u", FixVar("u")), SU, MFix("w", MFixVar("w"))) == TOP


def test_checker_reusable():
    ck = ElabChecker((SSusp(N, SU),))
    assert ck.check(Unit(), SSusp(N, SU), MThunk(MUnit())) == VAL
    assert ck.check(Unit(), SSusp(N, SU), MThunk(MUnit())) == VAL



def test_determinate_spine_decides(monkeypatch):
    # A projection from a variable synthesizes its product type, so no
    # candidate list is built: a fitting type is the only one tried, and
    # a variable of the wrong shape refutes outright.  Every fallback list
    # goes through ``dedup``, ``SubtermWalk`` (the goal's candidates),
    # ``_Listed`` (the lists built as far as they are read) or
    # ``refold_candidates``.
    def no_candidates(*a):
        raise AssertionError("candidate types built at a determinate spine")

    fits, refuted = ElabChecker(), ElabChecker()
    for name in ("dedup", "SubtermWalk", "_Listed", "refold_candidates"):
        monkeypatch.setattr(elab_mod, name, no_candidates)
    fst = Lam("p", Proj(1, Var("p")))
    mfst = MLam("p", MProj(1, MVar("p")))
    assert fits.check(fst, SArrow(SProd(SU, SU), SU), mfst) == VAL
    assert refuted.check(fst, SArrow(SU, SU), mfst) is None
    # The miss is memoized: asking again runs no rule.
    monkeypatch.setattr(refuted, "_rules", no_candidates)
    assert refuted.check(fst, SArrow(SU, SU), mfst) is None


def test_membership_recurses_on_strict_subterms(monkeypatch):
    """Every nested membership query is on a core term smaller than its
    caller's, which is why the search needs no depth bound: on the corpus
    (soundness and simulation) and on the bound-4 enumeration."""
    sizes = []
    ce = ElabChecker._ce

    def checked_ce(self, ctx, e, ty, m):
        n = node_count(m)
        assert not sizes or n < sizes[-1], (
            f"a membership query on {n} core nodes under one on {sizes[-1]}")
        sizes.append(n)
        try:
            return ce(self, ctx, e, ty, m)
        finally:
            sizes.pop()

    monkeypatch.setattr(ElabChecker, "_ce", checked_ce)
    judgments = []
    for path in sorted(glob.glob(os.path.join(CORPUS, "*.eo"))):
        prog = load_program(path)
        e = econ.econ_expr(prog.main) if prog.lang == "impartial" else prog.main
        # Two judgments, so neither check answers from the other's memo.
        judgments.append(verify.Judgment(e, None, SYNTH))
        verify.consistency(verify.Judgment(e, None, SYNTH), fuel=200)
    for j in enumerate_welltyped(4):
        ty = econ.econ_type(j.ty) if j.direction == CHECK else None
        judgments.append(verify.Judgment(econ.econ_expr(j.expr), ty, j.direction))
    for j in judgments:
        assert verify.elab_soundness(j).verdict == verify.PASS
