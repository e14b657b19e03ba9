"""Core syntax: orders, valuenesses, erasure, substitution, alpha."""

import dataclasses
import gc
import glob
import importlib
import inspect
import itertools
import os
import pkgutil
import typing
import weakref

import pytest
from hypothesis import given, strategies as st

import eopoly
from eopoly import econ, elaborate, syntax, wf
from eopoly.enum_terms import default_menu
from eopoly.program import load_program
from eopoly.verify import Judgment, build_pool, target_pool
from eopoly.syntax import (
    Anno,
    App,
    Case,
    EoApp,
    Fix,
    FixVar,
    IArrow,
    IForall,
    ITyVar,
    IUnit,
    ImpCtx,
    Inj,
    Lam,
    Listed,
    MApp,
    MFix,
    MFixVar,
    MUnit,
    N,
    Pair,
    Proj,
    SAllEo,
    SArrow,
    SForall,
    SProd,
    SRec,
    SSusp,
    SSum,
    STyVar,
    SUnit,
    SYNTH,
    TOP,
    TyLam,
    Unit,
    V,
    VAL,
    Var,
    REC_TYPES,
    alpha_eq,
    alpha_key,
    eo_var,
    erase,
    free_names,
    join,
    match_instantiate,
    node_count,
    instantiate,
    refold_candidates,
    subst,
    subst1,
    subterms,
    unfold,
    vacuous,
    valof,
)

from grammars import ECON, GRAMMARS, TGT
from reference_walks import dedup

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")


def test_valof():
    assert valof(V) == VAL
    assert valof(N) == TOP
    assert valof(eo_var("a")) == TOP


@pytest.mark.parametrize(
    "a,b,expected",
    [(VAL, VAL, VAL), (VAL, TOP, TOP), (TOP, VAL, TOP), (TOP, TOP, TOP)],
)
def test_join(a, b, expected):
    assert join(a, b) == expected


def test_erase_annotation():
    assert erase(Anno(Unit(), IUnit())) == Unit()


def test_erase_type_abstraction():
    assert erase(TyLam("a", Lam("x", Var("x")))) == Lam("x", Var("x"))


def test_erase_homomorphic():
    e = App(Var("f"), Unit())
    assert erase(e) == e


def test_erase_drops_order_markers():
    assert erase(EoApp(Var("x"), N)) == Var("x")


def test_erase_idempotent_on_erased():
    es = [
        Lam("x", App(Var("x"), Unit())),
        Case(Inj(1, Unit()), "a", Var("a"), "b", Pair(Var("b"), Unit())),
        Fix("u", Proj(2, Pair(FixVar("u"), Unit()))),
    ]
    for e in es:
        assert erase(e) == e


def test_subst_eo_single_occurrence():
    ty = IArrow(IUnit(), IUnit(), eo_var("a"))
    assert subst1(ty, "eo", "a", V) == IArrow(IUnit(), IUnit(), V)


def test_subst_ty_shadowing():
    ty = IForall("a", ITyVar("a"))
    assert alpha_eq(subst1(ty, "ty", "a", IUnit()), ty)


def test_subst_expr_under_unrelated_binder():
    assert subst1(Lam("y", Var("x")), "x", "x", Unit()) == Lam("y", Unit())


def test_subst_capture_avoidance():
    body = Lam("y", App(Var("x"), Var("y")))
    out = subst1(body, "x", "x", Var("y"))
    assert isinstance(out, Lam)
    assert out.var != "y"
    assert out.body == App(Var("y"), Var(out.var))


def test_subst_eo_capture_avoidance():
    # Substituting an order variable under a binder of the same name must
    # rename the binder.
    ty = SAllEo("b", SSusp(eo_var("a"), STyVar("t")))
    out = subst1(ty, "eo", "a", eo_var("b"))
    assert isinstance(out, SAllEo)
    assert out.var != "b"
    assert out.body == SSusp(eo_var("b"), STyVar("t"))


def test_instantiate_opens_the_scoped_field():
    case = Case(Var("s"), "x", Pair(Var("x"), Var("y")), "y", Var("y"))
    assert instantiate(case, Unit(), "body1") == Pair(Unit(), Var("y"))
    assert instantiate(case, Unit(), "body2") == Unit()
    fix = Fix("u", App(FixVar("u"), Var("u")))
    assert instantiate(fix, Unit()) == App(Unit(), Var("u"))
    assert instantiate(SAllEo("a", SSusp(eo_var("a"), SUnit())), N) == SSusp(N, SUnit())


def test_instantiate_at_its_own_name_is_the_body_itself():
    lam = Lam("x", App(Var("x"), Var("y")))
    assert instantiate(lam, Var("x")) is lam.body
    assert instantiate(lam, Var("z")) == App(Var("z"), Var("y"))
    alleo = SAllEo("a", SSusp(eo_var("a"), SUnit()))
    assert instantiate(alleo, eo_var("a")) is alleo.body
    assert subst1(lam, "x", "y", Var("y")) is lam


def test_instantiate_renames_a_binder_that_would_capture():
    # Opening at "y" goes under the inner binder "y", which must move.
    lam = Lam("x", Lam("y", App(Var("x"), Var("y"))))
    out = instantiate(lam, Var("y"))
    assert out.var != "y" and out.body == App(Var("y"), Var(out.var))


def test_fresh_avoids_the_free_names_of_its_scope():
    ctx = ImpCtx().with_x("x", VAL, IUnit())
    assert ctx.fresh("y", "x", "u", scope=(Var("y_1"),)) == "y"
    assert ctx.fresh("x", "x", "u", scope=()) == "x_1"
    # Renamed to x_1, the inner binder would capture the body's free x_1.
    inner = Lam("x", App(Var("x_1"), FixVar("x_2")))
    assert ctx.fresh("x", "x", "u", scope=(inner,)) == "x_3"
    tylam = TyLam("a", Anno(Unit(), IArrow(ITyVar("a_1"), IUnit(), V)))
    assert ImpCtx().with_ty("a").fresh("a", "ty", scope=(tylam,)) == "a_2"


def test_vacuous_binds_nothing():
    body = SArrow(STyVar("ty_1"), SSusp(eo_var("eo_1"), STyVar("ty")))
    forall = vacuous(SForall, "ty", body)
    assert forall.body is body and forall.var not in free_names(body, "ty")
    alleo = vacuous(SAllEo, "eo", body)
    assert alleo.body is body and alleo.var not in free_names(body, "eo")
    assert instantiate(forall, SUnit()) == body


def test_alpha_eq_examples():
    assert alpha_eq(Lam("x", Var("x")), Lam("y", Var("y")))
    assert not alpha_eq(Lam("x", Var("x")), Lam("y", Unit()))
    assert alpha_eq(IForall("a", ITyVar("a")), IForall("b", ITyVar("b")))


def test_alpha_eq_distinguishes_free_names():
    assert not alpha_eq(Var("x"), Var("y"))
    assert alpha_eq(Var("x"), Var("x"))


def test_alpha_eq_order_binders():
    a = SAllEo("a", SSusp(eo_var("a"), SUnit()))
    b = SAllEo("b", SSusp(eo_var("b"), SUnit()))
    assert alpha_eq(a, b)
    assert not alpha_eq(a, SAllEo("b", SSusp(eo_var("c"), SUnit())))


def test_free_names_namespaces():
    e = Case(Var("s"), "x", App(Var("x"), FixVar("u")), "y", Var("z"))
    assert free_names(e, "x") == {"s", "z"}
    assert free_names(e, "u") == {"u"}
    ty = SAllEo("a", SSusp(eo_var("b"), STyVar("t")))
    assert free_names(ty, "eo") == {"b"}
    assert free_names(ty, "ty") == {"t"}


# -- small-scope enumerated properties --------------------------------------

def small_econ_types(depth):
    if depth == 0:
        yield SUnit()
        yield STyVar("t")
        return
    for s in small_econ_types(depth - 1):
        yield SSusp(eo_var("a"), s)
        yield SRec("r", SSum(SUnit(), s))
        yield SArrow(SUnit(), s)
    yield SProd(STyVar("t"), SSusp(N, SUnit()))


def test_substitution_commutation_enumerated():
    """Order and type substitution commute when the type variable is not
    captured: [E/a][T/t]S == [[E/a]T/t][E/a]S."""
    repl = SSusp(eo_var("a"), SUnit())
    for eo in (V, N):
        for s in small_econ_types(2):
            lhs = subst1(subst1(s, "ty", "t", repl), "eo", "a", eo)
            rhs = subst1(subst1(s, "eo", "a", eo), "ty", "t",
                         subst1(repl, "eo", "a", eo))
            assert alpha_eq(lhs, rhs), s


# -- hypothesis: alpha equivalence is an equivalence substitution respects --

_names = st.sampled_from(["x", "y", "z"])


def _exprs():
    return st.recursive(
        st.one_of(st.just(Unit()), st.builds(Var, _names)),
        lambda inner: st.one_of(
            st.builds(Lam, _names, inner),
            st.builds(App, inner, inner),
            st.builds(Pair, inner, inner),
            st.builds(lambda k, e: Inj(k, e), st.sampled_from([1, 2]), inner),
        ),
        max_leaves=8,
    )


@given(_exprs())
def test_alpha_reflexive(e):
    assert alpha_eq(e, e)
    assert alpha_key(e) == alpha_key(e)


@given(_exprs(), _exprs())
def test_alpha_symmetric_and_key_consistent(a, b):
    assert alpha_eq(a, b) == alpha_eq(b, a)
    assert alpha_eq(a, b) == (alpha_key(a) == alpha_key(b))


@given(_exprs(), _exprs())
def test_subst_respects_alpha(a, b):
    if alpha_eq(a, b):
        sa = subst1(a, "x", "x", Unit())
        sb = subst1(b, "x", "x", Unit())
        assert alpha_eq(sa, sb)


@given(_exprs())
def test_rename_round_trip(e):
    renamed = subst1(e, "x", "x", Var("fresh_q"))
    back = subst1(renamed, "x", "fresh_q", Var("x"))
    assert alpha_eq(back, e) or "x" not in free_names(e, "x")


def test_alpha_key_separates_orders_from_order_variables():
    assert not alpha_eq(eo_var("V"), V)
    assert not alpha_eq(SSusp(eo_var("N"), SUnit()), SSusp(N, SUnit()))
    assert alpha_eq(SAllEo("a", SSusp(eo_var("a"), SUnit())),
                    SAllEo("V", SSusp(eo_var("V"), SUnit())))


# -- structural helpers, in every type grammar ---------------------------------

_ids = [g.name for g in GRAMMARS]


@pytest.mark.parametrize("g", GRAMMARS, ids=_ids)
def test_unfold(g):
    nat = g.rec("t", g.sum(g.unit, g.var("t")))
    assert unfold(nat) == g.sum(g.unit, nat)
    assert unfold(g.rec("t", g.unit)) == g.unit
    # The free "s" of the recursive type must not be captured by the inner
    # binder it is substituted under.
    ty = g.rec("t", g.prod(g.var("s"), g.forall("s", g.prod(g.var("t"), g.var("s")))))
    want = g.prod(g.var("s"), g.forall("z", g.prod(ty, g.var("z"))))
    assert alpha_eq(unfold(ty), want)


_RECURSIVE_BINDERS = [
    *[(g.name, g.rec("t", g.sum(g.unit, g.prod(g.var("t"), g.var("t")))))
      for g in GRAMMARS],
    ("fix", Fix("u", App(Lam("x", Pair(Var("x"), FixVar("u"))), FixVar("u")))),
    ("mfix", MFix("u", MApp(MFixVar("u"), MUnit()))),
]


@pytest.mark.parametrize("b", [b for _, b in _RECURSIVE_BINDERS],
                         ids=[name for name, _ in _RECURSIVE_BINDERS])
def test_a_recursive_binder_unfolds_once(b):
    """A recursive type of each grammar and a fixed point of each term
    grammar unfold once: the unfolding is kept on the node, and it is the
    binder's body at the binder itself."""
    assert unfold(b) is unfold(b)
    assert unfold(b) == instantiate(b, b)


@pytest.mark.parametrize("g", GRAMMARS, ids=_ids)
def test_refold_candidates(g):
    nat = g.rec("t", g.sum(g.unit, g.var("t")))
    cands = list(refold_candidates(unfold(nat)))
    assert alpha_eq(cands[0], nat)
    assert all(isinstance(c, REC_TYPES) and alpha_eq(unfold(c), unfold(nat))
               for c in cands)
    # A type with no recursive subterm refolds only under an unused binder.
    plain = g.arrow(g.unit, g.unit)
    (only,) = refold_candidates(plain)
    assert isinstance(only, REC_TYPES) and unfold(only) == plain
    # Every recursive type refolds from its own unfolding: where its
    # variable occurs, it is a subterm of the unfolding, else it is alpha-
    # equal to the unused binder.  Checked on every recursive type among
    # the subterms of the candidate pools of the corpus and of the
    # enumeration menu, in the two grammars the checkers refold (an
    # impartial binder also carries an order, and the unused one is
    # by-value only).
    if g.name != "impartial":
        recs = [t for t in _pool_types(g.name) if isinstance(t, REC_TYPES)]
        assert recs
        for r in recs:
            assert any(alpha_eq(c, r) for c in refold_candidates(unfold(r))), r


def _pool_types(grammar: str) -> list:
    """The alpha-distinct subterms of the corpus's candidate pools and of
    the enumeration menu's pool, as suspension-point or target types."""
    pools = [build_pool(Unit(), [econ.econ_type(t) for t in default_menu()])]
    for path in sorted(glob.glob(os.path.join(CORPUS, "*.eo"))):
        prog = load_program(path)
        e = econ.econ_expr(prog.main) if prog.lang == "impartial" else prog.main
        pools.append(Judgment(e, None, SYNTH).pool)
    if grammar == "target":
        pools = [target_pool(pool) for pool in pools]
    return dedup([t for pool in pools for root in pool for t in subterms(root)])


@pytest.mark.parametrize("g", GRAMMARS, ids=_ids)
def test_subterms_dedup_node_count(g):
    ty = g.arrow(g.forall("a", g.var("a")), g.forall("b", g.var("b")))
    subs = subterms(ty)
    orders = [V] if g is GRAMMARS[0] else []  # the arrow's order
    assert subs[0] == ty and len(subs) == 5 + len(orders)
    assert list(Listed(subs)) == dedup(subs) == [
        ty, g.forall("a", g.var("a")), g.var("a"), g.var("b"), *orders]
    assert node_count(ty) == len(subs)


@pytest.mark.parametrize("g", [ECON, TGT], ids=["econ", "target"])
def test_match_instantiate_pairs_binders(g):
    pattern = g.forall("a", g.arrow(g.var("a"), g.var("x")))
    assert match_instantiate(g.forall("x", pattern), g.forall("b", g.arrow(g.var("b"), g.unit))) == g.unit
    assert match_instantiate(g.forall("x", pattern), g.forall("b", g.arrow(g.unit, g.unit))) is None
    # Under a binder of its own name, "x" is not the variable solved for.
    shadowed = g.forall("x", g.arrow(g.var("x"), g.var("x")))
    assert match_instantiate(g.forall("x", shadowed), g.forall("y", g.arrow(g.var("y"), g.var("y")))) == "any"


@pytest.mark.parametrize("g", [ECON, TGT], ids=["econ", "target"])
def test_match_instantiate_any(g):
    ty = g.arrow(g.unit, g.unit)
    assert match_instantiate(g.forall("x", ty), ty) == "any"
    assert match_instantiate(g.forall("x", ty), g.prod(g.unit, g.unit)) is None


@pytest.mark.parametrize("g", [ECON, TGT], ids=["econ", "target"])
def test_match_instantiate_rejects_capture(g):
    # The only solution would mention the goal's bound "c".
    pattern = g.forall("b", g.arrow(g.var("x"), g.var("b")))
    assert match_instantiate(g.forall("x", pattern), g.forall("c", g.arrow(g.var("c"), g.var("c")))) is None
    assert match_instantiate(g.forall("x", pattern), g.forall("c", g.arrow(g.var("d"), g.var("c")))) == g.var("d")
    # Two occurrences must agree.
    twice = g.prod(g.var("x"), g.var("x"))
    assert match_instantiate(g.forall("x", twice), g.prod(g.unit, g.var("d"))) is None


def test_match_instantiate_pairs_order_binders():
    pattern = SAllEo("a", SSusp(eo_var("a"), STyVar("x")))
    for b in ("a", "b"):
        goal = SAllEo(b, SSusp(eo_var(b), SUnit()))
        assert match_instantiate(SForall("x", pattern), goal) == SUnit()
    assert match_instantiate(SForall("x", pattern), SAllEo("b", SSusp(V, SUnit()))) is None
    # A solution may not mention a bound order variable.
    goal = SAllEo("b", SSusp(eo_var("b"), SSusp(eo_var("b"), SUnit())))
    assert match_instantiate(SForall("x", pattern), goal) is None


# -- free names on the node, and the substitution that reads them -------------

def _tree(depth: int):
    """A balanced tree of ``2 ** depth`` distinct leaves, open in ``y``."""
    if depth == 0:
        return Lam("z", App(Var("z"), Var("y")))
    return Pair(_tree(depth - 1), _tree(depth - 1))


def test_a_closed_substitution_skips_what_it_cannot_change(monkeypatch):
    """Substituting a closed value for ``x`` in a node that holds ``x``
    beside a large subtree, whose free names are known and do not include
    ``x``, visits a bounded number of nodes, whatever the subtree's size,
    and the result holds that subtree itself."""
    visits = {}
    for depth in (2, 9):
        big = _tree(depth)
        assert free_names(big, "x") == {"y"}
        count = 0
        real = syntax._subst

        def counting(*args):
            nonlocal count
            count += 1
            return real(*args)

        monkeypatch.setattr(syntax, "_subst", counting)
        got = subst(App(Var("x"), big), {("x", "x"): Unit()})
        monkeypatch.undo()
        assert got == App(Unit(), big) and got.arg is big
        visits[depth] = count
    assert visits[2] == visits[9] <= 3, visits


def _package_modules():
    return [importlib.import_module(f"eopoly.{m.name}")
            for m in pkgutil.iter_modules(eopoly.__path__)]


def test_no_package_table():
    """No module of the package keeps a process-lifetime memo table: every
    answer about a node is kept on the node, so a lookup of an equal node
    left by an earlier request cannot compare the two in full, and nothing
    outlives its node."""
    tables = {name for mod in _package_modules()
              for name, v in vars(mod).items() if hasattr(v, "cache_info")}
    assert tables == set()


def _records():
    """Every class the package makes with ``syntax.record``."""
    return [v for mod in _package_modules() for v in vars(mod).values()
            if isinstance(v, type) and v.__module__ == mod.__name__
            and vars(v).get("__setattr__") is syntax._frozen_setattr]


def _twin(cls):
    """``cls`` as ``dataclass(frozen=True)`` would make it from its resolved
    type hints (which drops the ``ClassVar`` ones) and its class
    attributes, with an order's own ``__repr__`` kept."""
    fields = [(f, t, dataclasses.field(default=vars(cls)[f])) if f in vars(cls)
              else (f, t) for f, t in typing.get_type_hints(cls).items()]
    return dataclasses.make_dataclass(
        cls.__name__, fields, frozen=True,
        namespace={"__repr__": cls.__repr__} if issubclass(cls, syntax.EO) else None)


_SAMPLE = ("a", Unit(), 1, V, ("x", 2))


def _samples(n):
    """Field values for a record of ``n`` fields, and each with one field
    changed."""
    base = [_SAMPLE[i % len(_SAMPLE)] for i in range(n)]
    return [base] + [base[:i] + ["b"] + base[i + 1:] for i in range(n)]


def test_records_behave_as_the_frozen_dataclasses_they_replace():
    """Each record agrees with its frozen-dataclass twin on its signature,
    ``__match_args__``, and the ``repr``, hash and equalities of sample
    instances; instances of two records with equal fields differ; a
    record refuses assignment and deletion; and a kept answer lands in the
    node's ``__dict__``."""
    records = _records()
    assert len(records) == 68  # 58 in syntax.py, 10 elsewhere
    for cls in records:
        twin = _twin(cls)
        assert cls.__match_args__ == twin.__match_args__, cls
        assert ([(p.name, p.default) for p in inspect.signature(cls).parameters.values()]
                == [(p.name, p.default) for p in inspect.signature(twin).parameters.values()])
        required = _samples(sum(f.default is dataclasses.MISSING
                                for f in dataclasses.fields(twin)))[0]
        assert repr(cls(*required)) == repr(twin(*required)), cls
        samples = _samples(len(cls.__match_args__))
        for vals in samples:
            got, want = cls(*vals), twin(*vals)
            assert (repr(got), hash(got)) == (repr(want), hash(want)), cls
            for name in cls.__match_args__ or ("x",):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(got, name, 0)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(got, name)
        for a, b in itertools.product(samples, repeat=2):
            assert (cls(*a) == cls(*b), cls(*a) != cls(*b)) == \
                (twin(*a) == twin(*b), twin(*a) != twin(*b)), (cls, a, b)
    for a, b in itertools.permutations(records, 2):
        if a.__match_args__ == b.__match_args__:
            vals = _samples(len(a.__match_args__))[0]
            assert a(*vals) != b(*vals) and not a(*vals) == b(*vals), (a, b)
    assert Var("x") != FixVar("x") and Var("x") == Var("x")
    assert (repr(V), repr(eo_var("a"))) == ("V", "a")
    assert syntax.TgtCtx() == syntax.TgtCtx() != syntax.Ctx()
    t = IArrow(IUnit(), IUnit(), V)
    assert syntax.node_count(t) == 4 and hash(t) == hash((t.dom, t.cod, t.eo))
    assert vars(t)["eopoly.syntax.node_count"] == 4
    assert vars(t)["eopoly.syntax.IArrow.__hash__"] == hash(t)


def test_kept_answers_die_with_their_nodes():
    """Types and a core term asked for every answer kept on a node, and a
    binder's body keyed under its binder, are freed by reference counting
    alone once dropped: no table holds them, and no kept answer refers
    back to its node."""
    gc.disable()
    try:
        normal = SRec("a", SSum(SUnit(), SArrow(STyVar("a"), SUnit())))
        suspended = SProd(SSusp(V, SUnit()), normal)
        term = MFix("u", MApp(MFixVar("u"), MUnit()))
        for node in (normal, suspended, term):
            hash(node)
            free_names(node, "ty")
            node_count(node)
            alpha_key(node)
        for ty in (normal, suspended):
            elaborate._nf(ty)
            wf.rec_guarded(ty)
        assert elaborate._nf(normal) is normal
        assert elaborate._nf(suspended) == SProd(SUnit(), normal)
        refs = [weakref.ref(n) for n in (normal, suspended, term, normal.body)]
        del normal, suspended, term, node, ty
        assert [r() for r in refs] == [None, None, None, None]
    finally:
        gc.enable()


def _binder_free(depth):
    t = SUnit()
    for _ in range(depth):
        t = SProd(SSusp(V, SUnit()), SArrow(t, STyVar("a")))
    return t


def _nested_binders(depth):
    t = SArrow(STyVar("a0"), SUnit())
    for i in range(depth):
        t = (SForall if i % 2 else SRec)(f"a{i}", SProd(t, STyVar(f"a{i}")))
    return t


def _keyed_comparing(monkeypatch, a, b):
    """The keys of ``a`` and ``b``, and the nodes compared to build them."""
    calls = []
    for cls in {type(n) for n in subterms(a)}:
        monkeypatch.setattr(cls, "__eq__",
                            lambda x, y, eq=cls.__eq__: calls.append(x) or eq(x, y))
    keys = alpha_key(a), alpha_key(b)
    monkeypatch.undo()
    return keys, calls


def test_binder_free_keys_are_built_without_the_table(monkeypatch):
    """Outside a binder, a node's key is built from its children's kept
    keys: keying an equal but distinct tree compares no two nodes."""
    a, b = _binder_free(30), _binder_free(30)
    keys, calls = _keyed_comparing(monkeypatch, a, b)
    assert calls == []
    assert keys[0] == keys[1] and a == b and a is not b


def test_keys_under_binders_are_built_without_a_table(monkeypatch):
    """Under a binder, a key is built afresh from the body: keying an equal
    but distinct tree of nested quantifiers and recursive types compares
    no two nodes."""
    a, b = _nested_binders(30), _nested_binders(30)
    keys, calls = _keyed_comparing(monkeypatch, a, b)
    assert calls == []
    assert keys[0] == keys[1] and a == b and a is not b
