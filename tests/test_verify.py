"""The metatheory harness itself."""

import glob
import os

import pytest

from eopoly import econ, impartial, target
from eopoly.elaborate import ElabChecker, elaborate, ty_target
from eopoly.enum_terms import default_menu, enumerate_welltyped
from eopoly.nfree import (
    n_free_econ_type,
    n_free_impartial_judgment,
    n_free_impartial_type,
    n_free_target,
)
from eopoly.parser import parse_type_text
from eopoly.program import load_program
from eopoly.syntax import (
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
    MForce,
    MPair,
    MThunk,
    MUnit,
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
    TyApp,
    TyLam,
    Unit,
    V,
    VAL,
    Var,
    alpha_eq,
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
    _search_match,
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
        assert any(s.source_steps == 0 for s in rep.steps)


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


def test_consistency_stops_where_type_safety_does():
    # A periodic run stops at its first repeated (core, source) pair, and a
    # growing producer (bound-5 judgment 396, `fix u0. ((), u0.1)`, whose
    # unchecked run exhausts the recursion limit) past the growth cap.
    j = enumerate_welltyped(5)[396]
    grows = (econ.econ_expr(j.expr), econ.econ_type(j.ty), j.direction)
    assert j.direction == CHECK
    loops = (Anno(Fix("u", FixVar("u")), SU), None, SYNTH)
    for (e, ty, direction), note in ((loops, "cycle, no violation"),
                                     (grows, "growth-capped, no violation")):
        out = run_consistency(e, ty, direction).outcome()
        assert out.verdict == PASS and out.detail["note"] == note
        jj = Judgment(e, ty, direction)
        safety = run_type_safety(jj.elab.term, ty_target(jj.typing.ty), jj.tpool)
        assert safety.verdict == PASS and safety.detail["note"] == note


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
        er = elaborate(r.deriv)
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
            yield impartial.synth(ImpCtx(), prog.main).deriv
        yield econ.econ_synth(EconCtx(), e).deriv
    for j in enumerate_welltyped(bound):
        ee = econ.econ_expr(j.expr)
        if j.direction == "check":
            yield impartial.check(ImpCtx(), j.expr, j.ty).deriv
            yield econ.econ_check(EconCtx(), ee, econ.econ_type(j.ty)).deriv
        else:
            yield impartial.synth(ImpCtx(), j.expr).deriv
            yield econ.econ_synth(EconCtx(), ee).deriv


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
    d = impartial.synth(ImpCtx(), App(lam, Unit())).deriv
    replay(d)
    # A dropped premise.
    dropped = Derivation(d.rule, d.ctx, d.expr, d.direction, d.ty, d.valueness,
                         d.children[:1], d.info)
    # A variable its context does not declare.
    unbound = Derivation("i-var", ImpCtx(), Var("y"), SYNTH, U, VAL)
    # The argument's premise from the suspension-point system.
    arg = d.children[1]
    other = econ.econ_check(EconCtx(), Unit(), econ.econ_type(arg.ty)).deriv
    mixed = _with_child(d, 1, other)
    # A type argument not in scope.
    poly = Anno(TyLam("a", Unit()), IForall("a", U))
    inst = impartial.synth(ImpCtx(), TyApp(poly, U)).deriv
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
    d = impartial.synth(ImpCtx(), term).deriv
    replay(d)
    with pytest.raises(ReplayError, match=f"i-{rule.split(',')[0]}: the binder is opened"):
        replay(_swapped(d, old, new))


def test_replay_refuses_an_order_binder_opened_at_a_free_name():
    # The subject's annotation names the order binder 'b; with the type's
    # binder renamed to 'a, the recorded 'b is a free order of the subject.
    arrow = IArrow(U, U, eo_var("b"))
    e = Lam("x", App(Anno(Lam("y", Var("y")), arrow), Var("x")))
    d = impartial.check(ImpCtx(), e, IAllEo("b", arrow)).deriv
    assert d.rule == "i-alleo-intro" and d.info["var"] == "b"
    replay(d)
    renamed = IAllEo("a", IArrow(U, U, eo_var("a")))
    bad = Derivation(d.rule, d.ctx, d.expr, d.direction, renamed, d.valueness,
                     d.children, d.info)
    with pytest.raises(ReplayError, match="i-alleo-intro: the binder is opened"):
        replay(bad)


# -- a search cut by its bound is not a refutation -----------------------------

class _TinyBudget(ElabChecker):
    """A membership checker whose depth bound cuts every nontrivial query."""

    def _ce(self, ctx, e, ty, m, depth):
        return super()._ce(ctx, e, ty, m, min(depth, 1))


def test_elab_soundness_budget_cut_is_search_exhausted():
    e, _ = econ_main(os.path.join(CORPUS, "id_poly_v.eo"))
    r = econ.econ_synth(EconCtx(), e)
    pool = build_pool(e, [r.ty])
    out = run_elab_soundness(e, None, SYNTH, checker=_TinyBudget(pool),
                             tpool=target_pool(pool))
    assert out.verdict == SEARCH_EXHAUSTED, out.detail
    assert run_elab_soundness(e, None, SYNTH).verdict == PASS


def test_budget_cut_is_search_exhausted(monkeypatch):
    import eopoly.verify as verify_mod

    monkeypatch.setattr(verify_mod, "ElabChecker", _TinyBudget)
    e, _ = econ_main(os.path.join(CORPUS, "nfree_map.eo"))
    assert run_cbv_endpoint(e, None, SYNTH).verdict == SEARCH_EXHAUSTED
    rep = run_consistency(e, None, SYNTH, fuel=100, search_depth=8)
    assert rep.verdict == SEARCH_EXHAUSTED


def test_search_match_counts_budget_cut_as_pruned():
    e = Pair(Unit(), Unit())  # a source value: no steps to explore
    ty = SProd(SU, SU)
    m = MPair(MUnit(), MUnit())
    assert _search_match(e, ty, m, ElabChecker(), 8, False)[0] is not None
    assert _search_match(e, ty, MUnit(), ElabChecker(), 8, False) == (None, False)
    assert _search_match(e, ty, m, _TinyBudget(), 8, False) == (None, True)


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
    m, ty = elaborate(r.deriv).term, ty_target(r.ty)
    assert target.evaluate(m, 10).steps == 2
    for fuel in (0, 1):
        out = run_type_safety(m, ty, (), fuel)
        assert out.verdict == PASS
        assert out.detail == {"steps": fuel,
                              "note": "fuel exhausted, no violation"}
    assert run_type_safety(m, ty, (), 2).detail == {"steps": 2}
