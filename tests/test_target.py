"""Core language: values and valuables, typing, deterministic stepping."""

import glob
import itertools
import os
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

import reference_target as ref
from test_steppers import _core_terms, _k, _names

from eopoly import econ, target, verify
from eopoly.elaborate import ty_target
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
from eopoly.verify import Judgment, run_type_safety

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


class _Asked:
    """A core checker that notes every question a type-safety run asks:
    each ``check``, and the hole content at its type that each
    ``hole_type`` checks first."""

    def __init__(self, pool):
        self.questions = []
        self._checker = target.TargetChecker(pool)

    def check(self, ctx, m, ty):
        self.questions.append((ctx, m, ty))
        return self._checker.check(ctx, m, ty)

    def hole_type(self, ctx, m, field, ty):
        self.questions.append((ctx, m, ty))
        return self._checker.hole_type(ctx, m, field, ty)


def _agree(pool, questions):
    """Both checkers, each with ``pool``, answer every ``check`` question
    alike; the number of questions asked."""
    new, old = target.TargetChecker(pool), ref.TargetChecker(pool)
    for ctx, m, ty in questions:
        assert new.check(ctx, m, ty) == old.check(ctx, m, ty), (ctx.entries, m, ty)
    return len(questions)


def _type_safety_judgments():
    """Each corpus file's judgment, then each bound-5 judgment."""
    for path in sorted(glob.glob(os.path.join(CORPUS, "*.eo"))):
        prog = load_program(path)
        e = econ.econ_expr(prog.main) if prog.lang == "impartial" else prog.main
        yield Judgment(e, None, SYNTH)
    for imp in enumerate_welltyped(5):
        yield Judgment(econ.econ_expr(imp.expr), econ.econ_type(imp.ty),
                       imp.direction)


def _type_safety_questions(judgments):
    """Each judgment's pool, with the questions its type-safety run asks
    (what each step changed, each hole type read, each whole state
    checked where the frame-wise check fails, and each typed-embedding
    test) and each again at the thunk of that type."""
    for j in judgments:
        asked = _Asked(j.tpool)
        run_type_safety(j.elab.term, ty_target(j.typing.ty), j.tpool,
                        checker=asked)
        yield j.tpool, [q for ctx, m, ty in asked.questions
                        for q in ((ctx, m, ty), (ctx, m, AThunk(ty)))]


def test_core_checker_answers_as_the_reference_on_type_safety_runs():
    """The checker that reads refutations off ``synth`` and the one that
    re-derives them (``reference_target``) agree on every question of
    every corpus file's and every bound-5 judgment's type-safety run, and
    on the hand-written ill-typed table."""
    asked = sum(_agree(pool, qs) for pool, qs in
                _type_safety_questions(_type_safety_judgments()))
    assert asked > 5_000, asked
    assert _agree((), [(TgtCtx(entries), m, ty)
                       for entries, m, ty in ILL_TYPED]) == len(ILL_TYPED)


def test_the_frame_wise_check_answers_as_the_whole_state_check(monkeypatch):
    """On every state of every corpus file's and every bound-5 judgment's
    type-safety run, checking frame by frame (what the step changed, at
    the type of its hole) answers as ``check`` of the whole state at the
    run's type, asked of a second checker.  Every state is well typed, so
    the whole-state fallback never fires."""
    answers, whole = Counter(), {}
    typed = verify._Holes.typed

    def both(holes, frames, contents, checker):
        framewise = typed(holes, frames, contents, checker)
        answers[framewise, whole["checker"].check(
            TgtCtx(), contents[0], holes.types[0])] += 1
        return framewise

    monkeypatch.setattr(verify._Holes, "typed", both)
    for j in _type_safety_judgments():
        whole["checker"] = target.TargetChecker(j.tpool)
        out = run_type_safety(j.elab.term, ty_target(j.typing.ty), j.tpool)
        assert out.verdict == "pass", out
    assert set(answers) == {(True, True)}, answers
    assert answers[True, True] > 2_000, answers


NAT = ARec("t", ASum(AU, ATyVar("t")))
_SMALL = (AU, AArrow(AU, AU), AProd(AU, AU), ASum(AU, AU), AThunk(AU), NAT, ID_TY)


def _drawn_terms():
    """``_core_terms``, and a case in a position whose type synthesizes:
    under a projection, or applied to an argument."""
    t = _core_terms()
    case = st.builds(MCase, t, _names, t, _names, t)
    return st.one_of(t, st.builds(MProj, _k, case), st.builds(MApp, case, t))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["x", "u"]), _names,
                          st.sampled_from(_SMALL)),
                min_size=2, max_size=3, unique_by=lambda en: en[:2]),
       _drawn_terms(), st.sampled_from(_SMALL))
@example([("x", "x", ASum(AU, AU)), ("x", "y", AU)],
         MProj(1, MCase(MVar("x"), "x", MPair(MUnit(), MVar("y")),
                        "y", MPair(MUnit(), MUnit()))), AU)
@example([("x", "x", ASum(AU, AU)), ("x", "y", AU)],
         MProj(2, MCase(MVar("x"), "x", MPair(MUnit(), MVar("y")),
                        "y", MPair(MUnit(), MThunk(MUnit())))), AU)
def test_core_checker_answers_as_the_reference_on_drawn_terms(entries, m, ty):
    """Both checkers, with the small types as their pool, agree on drawn
    core terms, well typed or not, under a context of two or three small
    types: at the drawn type and at its thunk."""
    ctx = TgtCtx(tuple(entries))
    _agree(_SMALL, [(ctx, m, ty), (ctx, m, AThunk(ty))])


F_UNIT = AArrow(AU, AU)


@pytest.mark.parametrize("entries, m, ty, want", [
    # f's codomain 1 is not the goal thunk type, and that settles it.
    pytest.param((("x", "f", F_UNIT),), MApp(MVar("f"), MUnit()), AThunk(AU),
                 False, id="application-codomain-mismatch"),
    pytest.param((("x", "f", F_UNIT),), MApp(MVar("f"), MUnit()), AU,
                 True, id="application-decided"),
    # f is not a function, so (f ()).1 has no type at all.
    pytest.param((("x", "f", AU),), MProj(1, MApp(MVar("f"), MUnit())), AU,
                 False, id="projection-of-refuted-application"),
    # z is unbound, so z.1 has no type at all.
    pytest.param((), MProj(1, MVar("z")), AU,
                 False, id="projection-of-unbound-variable"),
])
def test_synthesized_function_type_decides_application(monkeypatch, entries,
                                                       m, ty, want):
    """A spine whose head's type is known, or refuted, is decided by
    synthesis alone: no candidate type is worth trying."""
    def no_candidates(self, ty):
        raise AssertionError("candidate types tried")

    monkeypatch.setattr(target.TargetChecker, "candidates", no_candidates)
    assert target.TargetChecker().check(TgtCtx(entries), m, ty) is want


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
