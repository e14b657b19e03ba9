"""The metatheory harness itself."""

import glob
import os
from collections import Counter

import pytest

from eopoly import bidir, econ, impartial, target, verify
from eopoly.cli import main
from eopoly.elaborate import ElabChecker, elaborate, ty_target
from eopoly.enum_terms import default_menu, enumerate_welltyped
from eopoly.nfree import (
    n_free_econ_type,
    n_free_impartial_judgment,
    n_free_impartial_type,
    n_free_target,
)
from eopoly.parser import parse_type_text
from eopoly.program import load_program, parse_program
from eopoly.syntax import (
    AProd,
    ARec,
    ASum,
    ATyVar,
    AUnit,
    Anno,
    App,
    Case,
    Derivation,
    EconCtx,
    Fix,
    FixVar,
    IArrow,
    IAllEo,
    IForall,
    ImpCtx,
    ISum,
    ITyVar,
    IUnit,
    Lam,
    MFix,
    MFixVar,
    MForce,
    MInj,
    MPair,
    MRoll,
    MThunk,
    MUnit,
    MUnroll,
    N,
    Pair,
    SAllEo,
    SArrow,
    SProd,
    SRec,
    SSusp,
    SUnit,
    SYNTH,
    CHECK,
    TOP,
    TgtCtx,
    TyApp,
    TyLam,
    Unit,
    V,
    VAL,
    Var,
    alpha_eq,
    alpha_key,
    eo_var,
    rebuild,
    subterms,
    unfold,
)
from eopoly.verify import (
    FAIL,
    PASS,
    Judgment,
    ReplayError,
    SEARCH_EXHAUSTED,
    VACUOUS,
    _Holes,
    _contents,
    _search_match,
    _typed_embedding,
    build_pool,
    replay,
    run_cbv_endpoint,
    run_consistency,
    run_econ_preservation,
    run_elab_soundness,
    run_nfree_econ,
    run_nfree_elab,
    run_type_safety,
    target_pool,
)

U = IUnit()
SU = SUnit()
CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")


def corpus_files(exclude_gaps=True):
    out = sorted(glob.glob(os.path.join(CORPUS, "*.eo")))
    if exclude_gaps:
        out = [f for f in out if "gap_" not in os.path.basename(f)]
    return out


def econ_main(path):
    prog = load_program(path)
    if prog.lang == "impartial":
        return econ.econ_expr(prog.main), prog
    return prog.main, prog


# -- N-freeness predicates ----------------------------------------------------

def test_nfree_types():
    assert n_free_impartial_type(IArrow(U, U, V))
    assert not n_free_impartial_type(IArrow(U, U, N))
    assert not n_free_impartial_type(IAllEo("a", U))
    assert not n_free_econ_type(SAllEo("a", SSusp(V, SU)))
    assert n_free_econ_type(SSusp(V, SU))
    assert not n_free_econ_type(SSusp(N, SU))


def test_nfree_target():
    assert not n_free_target(MForce(MThunk(MUnit())))
    assert n_free_target(MUnit())


def test_nfree_judgment_context_conditions():
    e, ty = Var("x"), U
    assert n_free_impartial_judgment(ImpCtx().with_x("x", VAL, U), e, ty)
    assert not n_free_impartial_judgment(ImpCtx().with_x("x", TOP, U), e, ty)
    assert not n_free_impartial_judgment(ImpCtx().with_eo("a"), e, ty)
    # Fixed-point declarations only constrain the type.
    assert n_free_impartial_judgment(ImpCtx().with_u("u", U), FixVar("u"), U)
    assert not n_free_impartial_judgment(
        ImpCtx().with_u("u", IArrow(U, U, N)), FixVar("u"), IArrow(U, U, N)
    )


def test_nfree_judgment_annotations():
    e = Anno(Unit(), U)
    assert n_free_impartial_judgment(ImpCtx(), e, U)
    bad = Anno(Lam("x", Var("x")), IArrow(U, U, N))
    assert not n_free_impartial_judgment(ImpCtx(), bad, IArrow(U, U, N))


# -- metatheory runners on hand-picked judgments ------------------------------

def test_preservation_identity_by_name():
    out = run_econ_preservation(ImpCtx(), Lam("x", Var("x")),
                                IArrow(U, U, N), CHECK)
    assert out.verdict == PASS


def test_preservation_sharpens_but_never_coarsens():
    # Components thunk under a by-name product, so the pair becomes val.
    from eopoly.syntax import IProd, Pair

    e = Pair(Unit(), Fix("u", FixVar("u")))
    out = run_econ_preservation(ImpCtx(), e, IProd(U, U, N), CHECK)
    assert out.verdict == PASS


def test_nfree_preservation_pass_and_vacuous():
    out = run_nfree_econ(ImpCtx(), Lam("x", Var("x")), IArrow(U, U, V), CHECK)
    assert out.verdict == PASS
    out = run_nfree_econ(ImpCtx(), Lam("x", Var("x")), IArrow(U, U, N), CHECK)
    assert out.verdict == VACUOUS


def test_elab_soundness_runner():
    out = run_elab_soundness(Lam("x", Var("x")),
                             SAllEo("a", SArrow(SSusp(eo_var("a"), SU), SU)),
                             CHECK)
    assert out.verdict == PASS


def test_elab_soundness_shares_what_it_is_given(monkeypatch):
    """Given only a checker, or only a core pool, the check uses the one it
    is given and builds the other itself, with the verdict of the call
    given both; on every corpus file, with each file's own pool."""
    def refuse(*a):
        raise AssertionError("built what the caller gave")

    for path in corpus_files(exclude_gaps=False):
        e, _ = econ_main(path)
        pool = Judgment(e, None, SYNTH).pool
        tpool = target_pool(pool)
        both = run_elab_soundness(e, None, SYNTH, path,
                                  checker=ElabChecker(pool), tpool=tpool)
        with monkeypatch.context() as m:
            m.setattr(verify, "ElabChecker", refuse)
            only_checker = run_elab_soundness(e, None, SYNTH, path,
                                              checker=ElabChecker(pool))
        with monkeypatch.context() as m:
            m.setattr(verify, "target_pool", refuse)
            only_tpool = run_elab_soundness(e, None, SYNTH, path, tpool=tpool)
        assert both.verdict == PASS, path
        assert only_checker == both == only_tpool, path


def test_nfree_elab_runner():
    out = run_nfree_elab(Lam("x", Var("x")), SArrow(SSusp(V, SU), SU), CHECK)
    assert out.verdict == PASS
    out = run_nfree_elab(Unit(), SSusp(N, SU), CHECK)
    assert out.verdict == VACUOUS


# -- consistency simulation ----------------------------------------------------

def test_consistency_identity_both_orders():
    from eopoly.syntax import EoApp

    id_ty = SAllEo("a", SArrow(SSusp(eo_var("a"), SU), SU))
    for eo in (V, N):
        prog = Anno(App(EoApp(Anno(Lam("x", Var("x")), id_ty), eo), Unit()), SU)
        rep = run_consistency(prog, None, SYNTH, fuel=100, search_depth=8)
        assert rep.verdict == PASS
        assert rep.final_target == MUnit()
        # The projection steps match zero source steps.
        assert any(s == 0 for s in rep.steps)


def test_consistency_divergence_witness():
    prog = Anno(
        App(Anno(Lam("x", Unit()), SArrow(SSusp(N, SU), SU)),
            Fix("u", FixVar("u"))),
        SU,
    )
    rep = run_consistency(prog, None, SYNTH, fuel=100, search_depth=8)
    assert rep.verdict == PASS and rep.final_target == MUnit()
    out = run_cbv_endpoint(prog, None, SYNTH, fuel=100)
    assert out.verdict == VACUOUS  # not N-free: endpoint check does not apply
    from eopoly import source
    from eopoly.syntax import erase

    assert source.cbv_evaluate(erase(prog), 100).kind == "out-of-fuel"


def test_consistency_corpus():
    for path in corpus_files():
        e, _ = econ_main(path)
        rep = run_consistency(e, None, SYNTH, fuel=10_000, search_depth=8,
                              program=os.path.basename(path))
        assert rep.verdict in (PASS, SEARCH_EXHAUSTED), (path, rep.reason)
        assert rep.verdict == PASS, (path, rep.reason)


def _safety(e, ty, direction):
    j = Judgment(e, ty, direction)
    return run_type_safety(j.elab.term, ty_target(j.typing.ty), j.tpool)


def _econ_judgment(bound, index):
    j = enumerate_welltyped(bound)[index]
    assert j.direction == CHECK
    return econ.econ_expr(j.expr), econ.econ_type(j.ty), j.direction


def test_cycles_stop_both_checks_and_only_type_safety_stops_at_an_embedding():
    # A periodic run stops at its first repeated state in both checks.  A
    # growing producer (bound-5 judgment 396, `fix u0. ((), u0.1)`, whose
    # unchecked run exhausts the recursion limit) embeds its first state
    # in a typed context, which ends type safety; the simulation has no
    # such stop and ends past the growth cap.
    loops = (Anno(Fix("u", FixVar("u")), SU), None, SYNTH)
    grows = _econ_judgment(5, 396)
    for judgment, sim_note, safety_note in (
            (loops, "cycle, no violation", "cycle, no violation"),
            (grows, "growth-capped, no violation",
             "typed embedding, no violation")):
        out = run_consistency(*judgment).outcome()
        assert out.verdict == PASS and out.detail["note"] == sim_note
        safety = _safety(*judgment)
        assert safety.verdict == PASS and safety.detail["note"] == safety_note
    assert _safety(*grows).detail["steps"] <= 3


NAT = ARec("r", ASum(AUnit(), ATyVar("r")))
OMEGA = MFix("u", MFixVar("u"))


def test_type_safety_stops_only_at_a_typed_embedding():
    """`unroll (fix u. u)` embeds the earlier state `fix u. u`, and both
    check at `1`, but `unroll x` does not check at `1` under `x : 1`, so
    the embedding says nothing about later states.  Under `roll inj2`, a
    context that checks at `rec 'r. 1 + 'r`, the same embedding stops.
    Both states are checked whole here, so only the root type is known."""
    checker = target.TargetChecker()
    untyped = MUnroll(OMEGA)
    assert checker.check(TgtCtx(), untyped, AUnit())
    frames = [(untyped, ("body",), 0)]
    assert not _typed_embedding(_Holes(OMEGA, AUnit()), frames,
                                _contents(frames, untyped), checker)
    typed = MRoll(MInj(2, OMEGA))
    frames = [(typed, ("body",), 0), (typed.body, ("body",), 0)]
    assert checker.check(TgtCtx(), typed, NAT)
    assert _typed_embedding(_Holes(OMEGA, NAT), frames,
                            _contents(frames, typed), checker)


def _below_a_pair(inner, outer=None):
    """Two states of a run in the left hole of `(_, ())`, checked frame by
    frame at `T * 1`, where T is what ``inner`` names: first `(Y, ())`
    with Y = `fix u. u`, then `(C[Y], ())` with C = ``inner``, a frame
    around Y.  ``outer`` is the second state's pair frame: the first one's,
    unless a test rebuilds it.  Whether the second state stops."""
    ty, wrap = inner
    checker = target.TargetChecker()
    first = MPair(OMEGA, MUnit())
    frame = (first, ("left", "right"), 0)
    holes = _Holes(first, AProd(ty, AUnit()))
    assert holes.typed([frame], [first, OMEGA], checker)
    assert not _typed_embedding(holes, [frame], [first, OMEGA], checker)
    c = wrap(OMEGA)
    second = MPair(c, MUnit())
    frames = [outer or frame]
    while c is not OMEGA:
        frames.append((c, ("body",), 0))
        c = c.body
    contents = _contents(frames, second)
    assert holes.typed(frames, contents, checker)
    assert checker.check(TgtCtx(), second, AProd(ty, AUnit()))
    return _typed_embedding(holes, frames, contents, checker)


def test_an_embedding_below_a_fixed_context_stops_where_it_is_typed():
    """The second state is D[C[Y]] for the first one's D[Y], where D is
    the pair frame, whose hole type σ is T.  With C = `roll inj2 _` and
    T = `rec 'r. 1 + 'r`, C[x] checks at σ under `x : σ`, and the run
    stops.  With C = `unroll _` and T = `1`, both states check, but
    `unroll x` does not check at `1` under `x : 1`, and the run goes on."""
    assert _below_a_pair((NAT, lambda y: MRoll(MInj(2, y))))
    assert not _below_a_pair((AUnit(), MUnroll))


def test_an_embedding_across_a_rebuilt_frame_does_not_stop():
    """The same typed embedding as above, but the second state's pair
    frame is an equal frame built anew, as the walk builds one after
    leaving the pair's hole: the run may have left D's hole in between,
    so the key met under the old frame says nothing, and the run goes
    on."""
    rebuilt = (MPair(OMEGA, MUnit()), ("left", "right"), 0)
    assert not _below_a_pair((NAT, lambda y: MRoll(MInj(2, y))), rebuilt)


def test_a_producer_growing_below_a_fixed_context_stops_at_a_typed_embedding():
    # Bound-6 judgment 2880 (in `verify_enum`'s sample),
    # `inj2 ((fix u0. (fix u1. (u0 : rec[V] 'r. (1 +[V] 'r)))) : ...)`,
    # elaborates to `roll inj2 roll (fix u0. fix u1. unroll roll u0)`.  It
    # grows below a `roll inj2` that never changes, so no state embeds a
    # whole earlier one; below that context one does, at step 3.  Without
    # hole types the run ended at the growth cap, at step 91.
    out = _safety(*_econ_judgment(6, 2880))
    assert out.verdict == PASS
    assert out.detail == {"steps": 3, "note": "typed embedding, no violation"}


def test_type_safety_split_at_bound_five():
    """Type safety over the distinct elaborations of the bound-5
    enumeration, with the default-menu pool and one shared checker: how
    many runs end at a value, a cycle, a typed embedding and the growth
    cap.  Without the typed-embedding stop, 95 runs were capped; with it
    at the root type alone, 12 were (value 1 216, cycle 557, embedding 83).
    Below a context that does not change, the 12 stop too."""
    tpool = target_pool(build_pool(Unit(), [econ.econ_type(t)
                                            for t in default_menu()]))
    checker = target.TargetChecker(tpool)
    seen, notes = set(), Counter()
    for imp in enumerate_welltyped(5):
        checking = imp.direction == CHECK
        j = Judgment(econ.econ_expr(imp.expr),
                     econ.econ_type(imp.ty) if checking else None, imp.direction)
        key = (alpha_key(j.expr), alpha_key(j.typing.ty), alpha_key(j.elab.term))
        if key in seen:
            continue
        seen.add(key)
        out = run_type_safety(j.elab.term, ty_target(j.typing.ty), tpool,
                              checker=checker)
        assert out.verdict == PASS
        notes[out.detail.get("note", "value")] += 1
    assert notes == {"value": 1216, "cycle, no violation": 557,
                     "typed embedding, no violation": 95}


def test_checks_do_not_step_from_the_root(monkeypatch):
    """Type safety and simulation step on the refocused run, never on
    ``target.step``, which walks from the root."""
    def refuse(m):
        raise AssertionError("stepped from the root")

    monkeypatch.setattr(target, "step", refuse)
    for path in corpus_files(exclude_gaps=False):
        e, _ = econ_main(path)
        j = Judgment(e, None, SYNTH)
        out = run_type_safety(j.elab.term, ty_target(j.typing.ty), j.tpool)
        assert out.verdict == PASS, path
        rep = run_consistency(e, None, SYNTH)
        assert rep.verdict == (FAIL if "gap_" in path else PASS), path


def test_gap_witness_is_refuted_honestly():
    """The documented boundary program: a by-name reduction is needed in a
    by-value argument position, which the corrected by-name contexts do
    not reach, so the search space is exhausted without a match and the
    harness reports refutation rather than a depth cutoff."""
    path = os.path.join(CORPUS, "gap_argument_position.eo")
    e, _ = econ_main(path)
    rep = run_consistency(e, None, SYNTH, fuel=100, search_depth=8)
    assert rep.verdict == FAIL
    assert "refuted" in rep.reason


def test_cbv_endpoint_on_nfree_corpus():
    saw_pass = 0
    for path in corpus_files():
        e, _ = econ_main(path)
        out = run_cbv_endpoint(e, None, SYNTH, fuel=10_000,
                               program=os.path.basename(path))
        assert out.verdict in (PASS, VACUOUS), (path, out.detail)
        saw_pass += out.verdict == PASS
    assert saw_pass >= 2  # the N-free corpus programs


# -- enumerated suites (small bound here; the acceptance suite runs bound 7) --

def test_enumerated_preservation_small():
    for i, j in enumerate(enumerate_welltyped(4)):
        out = run_econ_preservation(
            ImpCtx(), j.expr, j.ty if j.direction == "check" else None,
            j.direction, f"enum-{i}",
        )
        assert out.verdict == PASS, (j, out.detail)


def test_enumered_nfree_small():
    seen_pass = 0
    for i, j in enumerate(enumerate_welltyped(4)):
        out = run_nfree_econ(
            ImpCtx(), j.expr, j.ty if j.direction == "check" else None,
            j.direction, f"enum-{i}",
        )
        assert out.verdict in (PASS, VACUOUS)
        seen_pass += out.verdict == PASS
        ee = econ.econ_expr(j.expr)
        ety = econ.econ_type(j.ty) if j.direction == "check" else None
        out = run_nfree_elab(ee, ety, j.direction, f"enum-{i}")
        assert out.verdict in (PASS, VACUOUS)
    assert seen_pass > 0


def test_inversion_spot_checks():
    """Whenever a successful relation instance has one of the invertible
    core-term shapes, the decomposed sub-facts hold as well."""
    from eopoly.elaborate import ElabChecker
    from eopoly.elaborate import _nf  # noqa: SLF001 (test reaches inside)
    from eopoly.enum_terms import enumerate_welltyped
    from eopoly.elaborate import elaborate
    from eopoly.syntax import (
        MInj,
        MLam,
        MPair,
        MRoll,
        MThunk,
        Inj,
        Lam,
        Pair,
        SAllEo,
        SArrow,
        SProd,
        SRec,
        SSusp,
        erase,
        instantiate,
    )
    from eopoly.verify import build_pool

    checked = 0
    for j in enumerate_welltyped(5):
        if j.direction != "check":
            continue
        ee = econ.econ_expr(j.expr)
        ety = econ.econ_type(j.ty)
        r = econ.econ_check(EconCtx(), ee, ety)
        er = elaborate(r)
        pool = build_pool(ee, [r.ty])
        ck = ElabChecker(pool)
        e0, m, s = erase(ee), er.term, _nf(r.ty)
        if ck.check(e0, s, m) is None:
            continue
        if isinstance(m, MLam) and isinstance(s, SArrow):
            assert isinstance(e0, Lam)
            checked += 1
        if isinstance(m, MThunk) and isinstance(s, SSusp):
            assert ck.check(e0, s.body, m.body) is not None
            checked += 1
        if isinstance(m, MPair) and isinstance(s, SAllEo):
            assert ck.check(e0, instantiate(s, V), m.left) == VAL
            assert ck.check(e0, instantiate(s, N), m.right) == VAL
            checked += 1
        if isinstance(m, MPair) and isinstance(s, SProd):
            assert isinstance(e0, Pair)
            assert ck.check(e0.left, s.left, m.left) is not None
            checked += 1
        if isinstance(m, MInj):
            from eopoly.syntax import SSum

            if isinstance(s, SSum):
                assert isinstance(e0, Inj) and e0.k == m.k
                checked += 1
        if isinstance(m, MRoll) and isinstance(s, SRec):
            unrolled = instantiate(s, s)
            assert ck.check(e0, unrolled, m.body) is not None
            checked += 1
    assert checked > 20


def _all_derivations(bound):
    """The derivations of every corpus file and of the ``bound``
    enumeration, on both sides of the translation."""
    for f in corpus_files(exclude_gaps=False):
        e, prog = econ_main(f)
        if prog.lang == "impartial":
            yield impartial.synth(ImpCtx(), prog.main)
        yield econ.econ_synth(EconCtx(), e)
    for j in enumerate_welltyped(bound):
        ee = econ.econ_expr(j.expr)
        if j.direction == "check":
            yield impartial.check(ImpCtx(), j.expr, j.ty)
            yield econ.econ_check(EconCtx(), ee, econ.econ_type(j.ty))
        else:
            yield impartial.synth(ImpCtx(), j.expr)
            yield econ.econ_synth(EconCtx(), ee)


def test_replay_all_enumerated_derivations():
    """Every derivation the checkers produce re-validates node-by-node
    against the declarative rules, on both sides of the translation: the
    bound-4 enumeration's and every corpus file's."""
    for d in _all_derivations(4):
        replay(d)


def _unit_leaf(p):
    """A unit introduction in ``p``'s system and context: a derivation that
    replays on its own."""
    unit = (econ.ECON if p.rule.startswith("r-") else impartial.IMPARTIAL).unit
    return Derivation(p.rule[:2] + "unit-intro", p.ctx, Unit(), CHECK, unit(), VAL)


def _with_child(d, i, child):
    kids = d.children[:i] + (child,) + d.children[i + 1:]
    return Derivation(d.rule, d.ctx, d.expr, d.direction, d.ty, d.valueness,
                      kids, d.info)


def _premise_replaced(d):
    """``d`` once for each premise that is not a unit introduction, with
    that premise replaced by a unit introduction."""
    for i, c in enumerate(d.children):
        if not c.rule.endswith("unit-intro"):
            yield _with_child(d, i, _unit_leaf(c))
        for m in _premise_replaced(c):
            yield _with_child(d, i, m)


def test_replay_detects_every_replaced_premise():
    # Replacing any premise by a derivation that is valid on its own must
    # break the rule above it; a replay that skips some premise's subject,
    # type or context (a fixed point's body, say) lets such mutants through.
    mutants = undetected = 0
    for d in _all_derivations(5):
        for m in _premise_replaced(d):
            mutants += 1
            try:
                replay(m)
                undetected += 1
            except ReplayError:
                pass
    assert mutants > 30_000
    assert undetected == 0


def test_replay_rejects_malformed_nodes():
    lam = Anno(Lam("x", Var("x")), IArrow(U, U, V))
    d = impartial.synth(ImpCtx(), App(lam, Unit()))
    replay(d)
    # A dropped premise.
    dropped = Derivation(d.rule, d.ctx, d.expr, d.direction, d.ty, d.valueness,
                         d.children[:1], d.info)
    # A variable its context does not declare.
    unbound = Derivation("i-var", ImpCtx(), Var("y"), SYNTH, U, VAL)
    # The argument's premise from the suspension-point system.
    arg = d.children[1]
    other = econ.econ_check(EconCtx(), Unit(), econ.econ_type(arg.ty))
    mixed = _with_child(d, 1, other)
    # A type argument not in scope.
    poly = Anno(TyLam("a", Unit()), IForall("a", U))
    inst = impartial.synth(ImpCtx(), TyApp(poly, U))
    ill_formed = Derivation(inst.rule, inst.ctx, TyApp(poly, ITyVar("zz")),
                            SYNTH, U, VAL, inst.children, {"ty_arg": ITyVar("zz")})
    for bad in (dropped, unbound, mixed, ill_formed):
        with pytest.raises(ReplayError):
            replay(bad)


def _swapped(d, old, new):
    """``d`` with the subterm ``old`` of every subject replaced by ``new``,
    renaming no binder."""
    def swap(x):
        return new if x == old else rebuild(x, swap)
    return Derivation(d.rule, d.ctx, swap(d.expr), d.direction, d.ty, d.valueness,
                      tuple(_swapped(c, old, new) for c in d.children), d.info)


_ID_B = IArrow(ITyVar("b"), ITyVar("b"), V)
_SUM = ISum(U, U, V)
# Per binder rule: a closed term, one of its binders, and that binder
# renamed to another name so that the name the derivation recorded for it
# is now free in it.  Opening either binder at that name gives the same
# premise, so only a freshness check tells the two derivations apart.
_CAPTURES = {
    "arrow-intro": (
        Anno(Lam("x", Lam("x_1", Var("x_1"))), IArrow(U, IArrow(U, U, V), V)),
        Lam("x_1", Var("x_1")), Lam("x", Var("x_1"))),
    "sum-elim, first branch": (
        Anno(Lam("x", Case(Var("x"), "x_1", Var("x_1"), "y", Unit())), IArrow(_SUM, U, V)),
        Case(Var("x"), "x_1", Var("x_1"), "y", Unit()),
        Case(Var("x"), "x", Var("x_1"), "y", Unit())),
    "sum-elim, second branch": (
        Anno(Lam("x", Case(Var("x"), "y", Unit(), "x_2", Var("x_2"))), IArrow(_SUM, U, V)),
        Case(Var("x"), "y", Unit(), "x_2", Var("x_2")),
        Case(Var("x"), "y", Unit(), "x", Var("x_2"))),
    "fix": (Anno(Fix("u_1", FixVar("u_1")), U),
            Fix("u_1", FixVar("u_1")), Fix("u", FixVar("u_1"))),
    "all-intro": (
        Anno(TyLam("b", Anno(Lam("x", Var("x")), _ID_B)), IForall("b", _ID_B)),
        TyLam("b", Anno(Lam("x", Var("x")), _ID_B)),
        TyLam("a", Anno(Lam("x", Var("x")), _ID_B))),
}


@pytest.mark.parametrize("rule", sorted(_CAPTURES))
def test_replay_refuses_a_binder_opened_at_a_free_name(rule):
    term, old, new = _CAPTURES[rule]
    d = impartial.synth(ImpCtx(), term)
    replay(d)
    with pytest.raises(ReplayError, match=f"i-{rule.split(',')[0]}: the binder is opened"):
        replay(_swapped(d, old, new))


@pytest.mark.parametrize("text", [
    # The outer abstraction is opened at 'a, and the inner 'a is renamed.
    "((/\\'b. /\\'a. \\x. (x : 'b)) : forall 'a. forall 'c. 'a -[V]> 'a)",
    # The outer one is opened at 'b, so the inner 'b becomes 'b_1, free in
    # nothing the inner quantifier's 'a is opened over.
    "((/\\'a. /\\'b. (\\x. x : 'a -[V]> 'a)) : forall 'b. forall 'a. 'b -[V]> 'b)",
    "((/\\'a. (\\x. x : 'a -[V]> 'a)) : forall 'b. 'b -[V]> 'b)",
])
def test_type_abstractions_replay_in_both_systems(text):
    """Type abstractions opened at their quantifiers' names, with and
    without a renaming on the way: both checkers' derivations replay."""
    e = parse_program(f"#lang impartial\n{text}\n").main
    replay(impartial.synth(ImpCtx(), e))
    replay(econ.econ_synth(EconCtx(), econ.econ_expr(e)))


def _deep_heads(k, lang):
    """The identity at ``k`` nested recursive heads over a unit function."""
    if lang == "impartial":
        heads = "".join(f"rec[V] 'a{i}. " for i in range(k))
        return f"#lang impartial\n((\\x. x) : {heads}(1 -[V]> 1))\n"
    heads = "".join(f"rec 'a{i}. " for i in range(k))
    return f"#lang econ\n((\\x. x) : {heads}(1 -> 1))\n"


@pytest.mark.parametrize("k", [65, 200])
@pytest.mark.parametrize("lang", ["impartial", "econ"])
def test_deep_recursive_heads_need_no_budget(k, lang, tmp_path, capsys, monkeypatch):
    """A guarded type reaches its connective after one unfolding per
    recursive head, however many there are: the program checks in its own
    system with ``k`` unfoldings, and in the suspension-point system after
    the translation; both derivations replay; and the program elaborates
    and verifies."""
    e = parse_program(_deep_heads(k, lang)).main
    unfolded = []
    monkeypatch.setattr(bidir, "unfold",
                        lambda b, real=bidir.unfold: unfolded.append(b) or real(b))
    if lang == "impartial":
        replay(impartial.synth(ImpCtx(), e))
        assert len(unfolded) == k
        unfolded.clear()
        e = econ.econ_expr(e)
    replay(econ.econ_synth(EconCtx(), e))
    assert len(unfolded) == k
    monkeypatch.undo()
    path = tmp_path / "deep.eo"
    path.write_text(_deep_heads(k, lang))
    for command in ("check", "elaborate", "verify"):
        assert main([command, str(path)]) == 0, capsys.readouterr().err
    assert capsys.readouterr().out.endswith(" ok, 0 failed, 0 search-exhausted\n")


def test_replay_refuses_an_order_binder_opened_at_a_free_name():
    # The subject's annotation names the order binder 'b; with the type's
    # binder renamed to 'a, the recorded 'b is a free order of the subject.
    arrow = IArrow(U, U, eo_var("b"))
    e = Lam("x", App(Anno(Lam("y", Var("y")), arrow), Var("x")))
    d = impartial.check(ImpCtx(), e, IAllEo("b", arrow))
    assert d.rule == "i-alleo-intro" and d.info["var"] == "b"
    replay(d)
    renamed = IAllEo("a", IArrow(U, U, eo_var("a")))
    bad = Derivation(d.rule, d.ctx, d.expr, d.direction, renamed, d.valueness,
                     d.children, d.info)
    with pytest.raises(ReplayError, match="i-alleo-intro: the binder is opened"):
        replay(bad)


# -- only the source-step bound exhausts a simulation search ------------------

def test_search_match_refutes_an_explored_space():
    e = Pair(Unit(), Unit())  # a source value: no steps to explore
    ty = SProd(SU, SU)
    m = MPair(MUnit(), MUnit())
    assert _search_match(e, ty, m, ElabChecker(), 8, False)[0] is not None
    assert _search_match(e, ty, MUnit(), ElabChecker(), 8, False) == (None, False)


@pytest.mark.parametrize("name", ["id_poly_v.eo", "bool_byname.eo"])
def test_depth_bound_zero_allows_no_source_step(name):
    """At search depth 0 a core step is matched by no source step: the
    mirrored-rule probe, one step deep, is skipped too."""
    e, _ = econ_main(os.path.join(CORPUS, name))
    rep = run_consistency(e, None, SYNTH, fuel=2000, search_depth=0)
    assert rep.verdict == SEARCH_EXHAUSTED, rep.outcome().line()
    assert all(s == 0 for s in rep.steps)
    assert run_consistency(e, None, SYNTH, fuel=2000, search_depth=1).verdict == PASS


def _in_pool(ty, pool):
    return any(alpha_eq(t, ty) for t in pool)


def test_build_pool_contains_order_instances():
    id_ty = SAllEo("a", SArrow(SSusp(eo_var("a"), SU), SU))
    pool = build_pool(Unit(), [id_ty])
    assert _in_pool(SArrow(SSusp(V, SU), SU), pool)
    assert _in_pool(SArrow(SSusp(N, SU), SU), pool)


def test_build_pool_unfolds_menu_recursive_types():
    menu = [econ.econ_type(t) for t in default_menu()]
    pool = build_pool(Unit(), menu)
    recs = [s for t in menu for s in subterms(t) if isinstance(s, SRec)]
    assert recs
    for rec in recs:
        assert _in_pool(unfold(rec), pool), rec


def test_build_pool_names_the_instantiated_map_type():
    # map_applied_v.eo uses map at {V} [1] [1]; its derivation names that
    # instance, so the pool holds it without instantiating blindly.
    prog = load_program(os.path.join(CORPUS, "map_applied_v.eo"))
    e = econ.econ_expr(prog.main)
    r = econ.econ_synth(EconCtx(), e)
    lst = "(rec[V] 'b. (1 +[V] (1 *[V] 'b)))"
    want = econ.econ_type(parse_type_text(f"(1 -[V]> 1) -[V]> {lst} -[V]> {lst}"))
    assert _in_pool(want, build_pool(e, [r.ty]))


def test_checking_judgment_pool_reads_its_own_derivation(monkeypatch):
    # A checking judgment's derivation is the one build_pool would derive,
    # so its pool is build_pool's, made without checking again.
    for path in corpus_files(exclude_gaps=False):
        e, _ = econ_main(path)
        ty = econ.econ_synth(EconCtx(), e).ty
        want = build_pool(e, [ty])
        j = Judgment(e, ty, CHECK)
        j.typing
        calls = []
        monkeypatch.setattr(econ, "econ_check", lambda *a: calls.append(a))
        assert j.pool == want and not calls, path
        monkeypatch.undo()


def test_synthesized_judgment_pool_reads_its_own_derivation(monkeypatch):
    # A synthesis derivation names the types build_pool's checking
    # derivation names, in the same order, so it needs no second typing.
    for path in corpus_files(exclude_gaps=False):
        e, _ = econ_main(path)
        j = Judgment(e, None, SYNTH)
        want = build_pool(e, [j.typing.ty])
        calls = []
        monkeypatch.setattr(econ, "econ_check", lambda *a: calls.append(a))
        assert j.pool == want and not calls, path
        monkeypatch.undo()


def test_type_safety_takes_at_most_fuel_steps():
    # The core run of nfree_mono.eo reaches a value in two steps.
    e, _ = econ_main(os.path.join(CORPUS, "nfree_mono.eo"))
    r = econ.econ_synth(EconCtx(), e)
    m, ty = elaborate(r).term, ty_target(r.ty)
    assert target.evaluate(m, 10).steps == 2
    for fuel in (0, 1):
        out = run_type_safety(m, ty, (), fuel)
        assert out.verdict == PASS
        assert out.detail == {"steps": fuel,
                              "note": "fuel exhausted, no violation"}
    assert run_type_safety(m, ty, (), 2).detail == {"steps": 2}
