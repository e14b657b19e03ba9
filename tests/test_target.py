"""Core language: values and valuables, typing, deterministic stepping."""

import glob
import itertools
import os

import pytest

from eopoly import econ, target
from eopoly.enum_terms import enumerate_welltyped
from eopoly.program import load_program
from eopoly.syntax import (
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
    MThunk,
    MTyApp,
    MTyLam,
    MUnit,
    MUnroll,
    MVar,
    SYNTH,
    TgtCtx,
    no_redex,
    subterms,
)
from eopoly.verify import Judgment

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")

AU = AUnit()
OMEGA = MFix("u", MFixVar("u"))


def test_classify_thunk_is_value_regardless_of_body():
    assert target.is_value(MThunk(OMEGA))


def test_classify_projection_of_values_is_valuable():
    m = MProj(1, MPair(MUnit(), MUnit()))
    assert not target.is_value(m)
    assert target.is_valuable(m)


def test_classify_application_is_neither():
    m = MApp(MLam("x", MVar("x")), MUnit())
    assert not target.is_value(m)
    assert not target.is_valuable(m)


def test_every_value_is_valuable():
    terms = [
        MUnit(), MVar("x"), MLam("x", OMEGA), MTyLam(OMEGA), MThunk(OMEGA),
        MPair(MUnit(), MThunk(MUnit())), MInj(1, MUnit()), MRoll(MUnit()),
    ]
    for m in terms:
        assert target.is_value(m)
        assert target.is_valuable(m)


def test_typecheck_quantifier_restriction():
    ok = MTyLam(MLam("x", MVar("x")))
    assert target.target_check(TgtCtx(), ok,
                               AForall("a", AArrow(ATyVar("a"), ATyVar("a"))))
    bad = MTyLam(MApp(MLam("x", MVar("x")), MUnit()))
    assert not target.target_check(TgtCtx(), bad, AForall("a", AU))


def test_typecheck_valuable_quantifier_body():
    body = MProj(1, MPair(MUnit(), MUnit()))
    assert target.target_check(TgtCtx(), MTyLam(body), AForall("a", AU))


def test_typecheck_force_thunk():
    assert target.target_check(TgtCtx(), MForce(MThunk(MUnit())), AU)


def test_typecheck_roll_unroll():
    nat = ARec("t", ASum(AU, ATyVar("t")))
    z = MRoll(MInj(1, MUnit()))
    assert target.target_check(TgtCtx(), z, nat)
    assert target.target_check(TgtCtx(), MUnroll(z), ASum(AU, nat))


def test_typecheck_type_application_redex():
    m = MTyApp(MTyLam(MLam("x", MVar("x"))))
    assert target.target_check(TgtCtx(), m, AArrow(AU, AU))


ID_TY = AForall("a", AArrow(ATyVar("a"), ATyVar("a")))

# Ill-typed core terms, each with its context and the type it must be
# rejected at, written by hand apart from the checker.
ILL_TYPED = [
    # The right component of a pair is a function, not ().
    ((), MPair(MUnit(), MLam("x", MVar("x"))), AProd(AU, AU)),
    # The left component is a function, not ().
    ((), MPair(MLam("x", MVar("x")), MUnit()), AProd(AU, AU)),
    # A pair is not ().
    ((), MPair(MUnit(), MUnit()), AU),
    # No instance of the identity's type is ().
    ((("x", "f", ID_TY),), MTyApp(MVar("f")), AU),
    # A type application of a function that is not polymorphic.
    ((("x", "f", AArrow(AU, AU)),), MTyApp(MVar("f")), AArrow(AU, AU)),
    # () applied as a function.
    ((), MApp(MUnit(), MUnit()), AU),
    # The argument is not the function's domain.
    ((("x", "f", AArrow(AThunk(AU), AU)),), MApp(MVar("f"), MUnit()), AU),
    # A thunk is forced into a thunk type that is not its body's.
    ((), MForce(MThunk(MUnit())), AThunk(AU)),
    # A right injection at a sum whose right side is not ().
    ((), MInj(2, MUnit()), ASum(AU, AArrow(AU, AU))),
    # A variable no context declares.
    ((), MVar("x"), AU),
]


@pytest.mark.parametrize("entries, m, ty", ILL_TYPED)
def test_ill_typed_core_terms_are_rejected(entries, m, ty):
    assert not target.TargetChecker().check(TgtCtx(entries), m, ty)


def test_synthesized_function_type_decides_application(monkeypatch):
    # f's type is known, so no candidate domain is worth trying: the
    # codomain 1 is not the goal thunk type, and that settles it.
    def no_candidates(self, ty):
        raise AssertionError("candidate domains tried")

    monkeypatch.setattr(target.TargetChecker, "candidates", no_candidates)
    ctx = TgtCtx((("x", "f", AArrow(AU, AU)),))
    m = MApp(MVar("f"), MUnit())
    assert not target.TargetChecker().check(ctx, m, AThunk(AU))
    assert target.TargetChecker().check(ctx, m, AU)


def test_step_beta():
    r = target.step(MApp(MLam("x", MVar("x")), MUnit()))
    assert r.kind == "step" and r.term == MUnit() and r.rule == "beta"


def test_step_force():
    r = target.step(MForce(MThunk(OMEGA)))
    assert r.kind == "step" and r.term == OMEGA and r.rule == "force"


def test_step_projection_of_values():
    r = target.step(MProj(2, MPair(MUnit(), MThunk(MUnit()))))
    assert r.term == MThunk(MUnit()) and r.rule == "proj"


def test_step_rules():
    assert target.step(MTyApp(MTyLam(MUnit()))).rule == "tyapp"
    assert target.step(MUnroll(MRoll(MUnit()))).rule == "unroll"
    assert target.step(
        MCase(MInj(2, MUnit()), "a", MUnit(), "b", MVar("b"))
    ).term == MUnit()
    assert target.step(OMEGA).rule == "fix"


def test_evaluate_examples():
    assert target.evaluate(MApp(MLam("x", MVar("x")), MUnit()), 10).kind == "value"
    assert target.evaluate(OMEGA, 5).kind == "out-of-fuel"
    assert target.evaluate(MForce(MUnit()), 10).kind == "stuck"


def test_evaluate_trace():
    states = []
    r = target.evaluate(MApp(MLam("x", MVar("x")), MUnit()), 10, states.append)
    assert r.kind == "value" and len(states) == 2 and states[-1] == MUnit()


# -- determinism: exhaustive decomposition agrees with the algorithm --------

_CTX_FIELDS = {
    MApp: [("fn", None), ("arg", "fn")],
    MTyApp: [("body", None)],
    MForce: [("body", None)],
    MPair: [("left", None), ("right", "left")],
    MProj: [("body", None)],
    MInj: [("body", None)],
    MCase: [("scrut", None)],
    MRoll: [("body", None)],
    MUnroll: [("body", None)],
}


def _is_redex(m):
    match m:
        case MApp(MLam(_, _), a):
            return target.is_value(a)
        case MForce(MThunk(_)) | MFix(_, _) | MTyApp(MTyLam(_)):
            return True
        case MProj(_, MPair(l, r)):
            return target.is_value(l) and target.is_value(r)
        case MCase(MInj(_, w), _, _, _, _):
            return target.is_value(w)
        case MUnroll(MRoll(w)):
            return target.is_value(w)
    return False


def _decompositions(m, path=()):
    """All context/redex splits licensed by the evaluation-context grammar."""
    if _is_redex(m):
        yield path
    for field, guard in _CTX_FIELDS.get(type(m), []):
        if guard is not None and not target.is_value(getattr(m, guard)):
            continue
        yield from _decompositions(getattr(m, field), path + (field,))


def _small_terms():
    redex = MApp(MLam("x", MVar("x")), MUnit())
    units = [MUnit(), MThunk(redex), redex, OMEGA]
    for a, b in itertools.product(units, repeat=2):
        yield MPair(a, b)
        yield MApp(MLam("y", a), b)
        yield MProj(1, MPair(a, b))
    for a in units:
        yield MInj(1, a)
        yield MForce(a)
        yield MUnroll(MRoll(a))
        yield MCase(MInj(2, a), "x", MUnit(), "y", MVar("y"))


def test_step_deterministic_unique_decomposition():
    for m in _small_terms():
        splits = list(_decompositions(m))
        assert len(splits) <= 1, (m, splits)
        r = target.step(m)
        if splits:
            assert r.kind == "step"
        elif target.is_value(m):
            assert r.kind == "value"
        else:
            assert r.kind == "stuck"


def test_valuability_preserved_by_stepping():
    for m in _small_terms():
        if target.is_valuable(m):
            r = target.step(m)
            if r.kind == "step":
                assert target.is_valuable(r.term), m


def _runs():
    """Each corpus file's core run at fuel 300, then each bound-5
    judgment's at fuel 50."""
    for path in sorted(glob.glob(os.path.join(CORPUS, "*.eo"))):
        prog = load_program(path)
        e = econ.econ_expr(prog.main) if prog.lang == "impartial" else prog.main
        yield target.run(Judgment(e, None, SYNTH).elab.term, 300)
    for imp in enumerate_welltyped(5):
        j = Judgment(econ.econ_expr(imp.expr), econ.econ_type(imp.ty), imp.direction)
        yield target.run(j.elab.term, 50)


def test_kept_predicates_agree_with_the_redex_walk():
    """``is_value`` and ``is_valuable``, kept on each node, say what the
    evaluation-context walk ``no_redex`` says, on every subterm of every
    state of the runs above: the root of each state is asked first, as
    the checkers ask, and each subterm object once."""
    asked = {}
    for run in _runs():
        states = [run.node]
        states += [run.term() for _ in run]
        for state in states:
            target.is_value(state)
            target.is_valuable(state)
            for m in subterms(state):
                if id(m) not in asked:
                    asked[id(m)] = m
                    assert target.is_value(m) == no_redex(
                        m, target.CONTEXTS, target.VALUES), m
                    assert target.is_valuable(m) == no_redex(
                        m, target.CONTEXTS, target.VALUABLES), m
    assert len(asked) > 10_000, len(asked)
