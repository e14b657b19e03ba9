"""The plan-driven binding engine against the one it replaced.

``reference_binding`` keeps the functions that re-read each class's
``scopes``/``ref`` declaration at every node.  Every test here runs both
on the same nodes and demands the same free names, keys, subterms, node
counts and substitution results; substitution results are compared by
``repr``, so a renamed binder must get the same fresh name both ways.
Substitutions are built to force capture in every namespace: a
replacement whose free names include the name of a binder it lands under.
"""

import glob
import os

import pytest
from hypothesis import given, settings, strategies as st

import reference_binding as ref
from eopoly import econ, impartial, syntax
from eopoly.elaborate import elaborate, ty_target
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
    Anno,
    App,
    Case,
    EconCtx,
    EoApp,
    Fix,
    FixVar,
    IAllEo,
    IArrow,
    IForall,
    ImpCtx,
    Inj,
    IProd,
    IRec,
    ISum,
    ITyVar,
    IUnit,
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
    N,
    Pair,
    Proj,
    SAllEo,
    SArrow,
    SForall,
    SProd,
    SRec,
    SSum,
    SSusp,
    STyVar,
    SUnit,
    TyApp,
    TyLam,
    Unit,
    V,
    Var,
    eo_var,
    erase,
)

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")
NAMESPACES = ("x", "u", "ty", "eo")


def outcome(fn, *args):
    """``repr`` of ``fn(*args)``, or the exception it raised."""
    try:
        return "ok", repr(fn(*args))
    except Exception as ex:
        return "raised", type(ex).__name__, str(ex)


def same_walks(node):
    for ns in NAMESPACES:
        assert syntax.free_names(node, ns) == ref.free_names(node, ns), (node, ns)
    assert repr(syntax.alpha_key(node)) == repr(ref.alpha_key(node)), node
    assert syntax.alpha_key(node) == ref.alpha_key(node), node
    assert [id(s) for s in syntax.subterms(node)] == [id(s) for s in ref.subterms(node)]
    assert syntax.node_count(node) == ref.node_count(node), node


def same_subst(node, sub):
    got = outcome(syntax.subst, node, sub)
    assert got == outcome(ref.subst, node, sub), (node, sub)
    return got


def _reference(node, ns, z, name):
    """A reference to ``name`` in ``ns``, of the class that refers to ``z``
    in ``node``."""
    if ns == "eo":
        return eo_var(name)
    return next(type(s) for s in syntax.subterms(node)
                if type(s).ref == (ns, "name") and s.name == z)(name)


def capture_subs(node):
    """Below each binder of ``node``, each free name of its scope mapped to
    a reference to the binder's own name: the binder must be renamed."""
    for t in syntax.subterms(node):
        for bf, ns, scoped in type(t).scopes:
            b = getattr(t, bf)
            for f in scoped:
                body = getattr(t, f)
                for z in sorted(ref.free_names(body, ns) - {b}):
                    yield t, {(ns, z): _reference(body, ns, z, b)}


def same_engine(node):
    same_walks(node)
    for t, sub in capture_subs(node):
        if same_subst(t, sub)[0] == "ok":
            same_walks(syntax.subst(t, sub))


# -- the corpus ----------------------------------------------------------------

def _corpus_nodes(path):
    prog = load_program(path)
    if prog.lang == "impartial":
        yield prog.main
        yield impartial.synth(ImpCtx(), prog.main).ty
        e = econ.econ_expr(prog.main)
    else:
        e = prog.main
    r = econ.econ_synth(EconCtx(), e)
    yield from (e, erase(prog.main), r.ty, ty_target(r.ty), elaborate(r.deriv).term)


@pytest.mark.parametrize(
    "path", sorted(glob.glob(os.path.join(CORPUS, "*.eo"))), ids=os.path.basename
)
def test_corpus_agrees(path):
    for node in _corpus_nodes(path):
        same_engine(node)


def test_enumerated_judgments_agree():
    judgments = enumerate_welltyped(5)
    assert len(judgments) == 2339
    for j in judgments:
        ee = econ.econ_expr(j.expr)
        if j.direction == "check":
            r = econ.econ_check(EconCtx(), ee, econ.econ_type(j.ty))
        else:
            r = econ.econ_synth(EconCtx(), ee)
        for node in (j.expr, j.ty, ee, r.ty, elaborate(r.deriv).term):
            same_engine(node)


# -- hypothesis: all five grammars, every namespace -----------------------------

# "a_1" is the name a renamed "a" takes unless the scope already uses it.
_names = st.sampled_from(["a", "b", "a_1"])
_k = st.sampled_from([1, 2])
_eos = st.one_of(st.just(V), st.just(N), st.builds(eo_var, _names))


def _imp_types():
    return st.recursive(
        st.one_of(st.just(IUnit()), st.builds(ITyVar, _names)),
        lambda t: st.one_of(
            st.builds(IForall, _names, t), st.builds(IAllEo, _names, t),
            st.builds(IArrow, t, t, _eos), st.builds(IProd, t, t, _eos),
            st.builds(ISum, t, t, _eos), st.builds(IRec, _names, t, _eos),
        ),
        max_leaves=6,
    )


def _econ_types():
    return st.recursive(
        st.one_of(st.just(SUnit()), st.builds(STyVar, _names)),
        lambda t: st.one_of(
            st.builds(SForall, _names, t), st.builds(SAllEo, _names, t),
            st.builds(SSusp, _eos, t), st.builds(SArrow, t, t),
            st.builds(SProd, t, t), st.builds(SSum, t, t), st.builds(SRec, _names, t),
        ),
        max_leaves=6,
    )


def _tgt_types():
    return st.recursive(
        st.one_of(st.just(AUnit()), st.builds(ATyVar, _names)),
        lambda t: st.one_of(
            st.builds(AForall, _names, t), st.builds(AThunk, t),
            st.builds(AArrow, t, t), st.builds(AProd, t, t),
            st.builds(ASum, t, t), st.builds(ARec, _names, t),
        ),
        max_leaves=6,
    )


def _exprs():
    return st.recursive(
        st.one_of(st.just(Unit()), st.builds(Var, _names), st.builds(FixVar, _names)),
        lambda e: st.one_of(
            st.builds(Lam, _names, e), st.builds(App, e, e), st.builds(Fix, _names, e),
            st.builds(TyLam, _names, e), st.builds(TyApp, e, _imp_types()),
            st.builds(EoApp, e, _eos), st.builds(Pair, e, e),
            st.builds(Proj, _k, e), st.builds(Inj, _k, e),
            st.builds(Case, e, _names, e, _names, e),
            st.builds(Anno, e, _imp_types()),
        ),
        max_leaves=8,
    )


def _terms():
    return st.recursive(
        st.one_of(st.just(MUnit()), st.builds(MVar, _names), st.builds(MFixVar, _names)),
        lambda t: st.one_of(
            st.builds(MLam, _names, t), st.builds(MApp, t, t), st.builds(MFix, _names, t),
            st.builds(MTyLam, t), st.builds(MTyApp, t), st.builds(MThunk, t),
            st.builds(MForce, t), st.builds(MPair, t, t), st.builds(MProj, _k, t),
            st.builds(MInj, _k, t), st.builds(MCase, t, _names, t, _names, t),
            st.builds(MRoll, t), st.builds(MUnroll, t),
        ),
        max_leaves=8,
    )


# Per grammar: its nodes, and per namespace it can mention, its replacements.
GRAMMARS = {
    "impartial": (_imp_types(), {"ty": _imp_types(), "eo": _eos}),
    "econ": (_econ_types(), {"ty": _econ_types(), "eo": _eos}),
    "target": (_tgt_types(), {"ty": _tgt_types()}),
    "source": (_exprs(), {"x": _exprs(), "u": _exprs(), "ty": _imp_types(), "eo": _eos}),
    "core": (_terms(), {"x": _terms(), "u": _terms()}),
}

# (grammar, namespace, binder of "a" over a body with "b" free, reference):
# substituting a reference to "a" for "b" must rename the binder.
CAPTURES = [
    ("impartial", "ty", lambda b: IForall("a", IArrow(b, ITyVar("b"), V)), ITyVar),
    ("impartial", "ty", lambda b: IRec("a", IProd(b, ITyVar("b"), N), V), ITyVar),
    ("impartial", "eo", lambda b: IAllEo("a", IArrow(b, IUnit(), eo_var("b"))), eo_var),
    ("econ", "ty", lambda b: SForall("a", SArrow(b, STyVar("b"))), STyVar),
    ("econ", "ty", lambda b: SRec("a", SProd(b, STyVar("b"))), STyVar),
    ("econ", "eo", lambda b: SAllEo("a", SSusp(eo_var("b"), b)), eo_var),
    ("target", "ty", lambda b: AForall("a", AArrow(b, ATyVar("b"))), ATyVar),
    ("target", "ty", lambda b: ARec("a", ASum(b, ATyVar("b"))), ATyVar),
    ("source", "x", lambda b: Lam("a", App(b, Var("b"))), Var),
    ("source", "x", lambda b: Case(b, "a", Pair(b, Var("b")), "b", b), Var),
    ("source", "u", lambda b: Fix("a", App(b, FixVar("b"))), FixVar),
    ("source", "ty", lambda b: TyLam("a", Anno(b, ITyVar("b"))), ITyVar),
    ("source", "ty", lambda b: Anno(b, IForall("a", IArrow(IUnit(), ITyVar("b"), V))),
     ITyVar),
    ("source", "eo", lambda b: Anno(b, IAllEo("a", IArrow(IUnit(), IUnit(), eo_var("b")))),
     eo_var),
    ("core", "x", lambda b: MLam("a", MApp(b, MVar("b"))), MVar),
    ("core", "x", lambda b: MCase(b, "a", MPair(b, MVar("b")), "b", b), MVar),
    ("core", "u", lambda b: MFix("a", MApp(b, MFixVar("b"))), MFixVar),
]


def _subs(grammar):
    """One or two substitution entries over the grammar's namespaces."""
    repls = GRAMMARS[grammar][1]
    entry = st.sampled_from(sorted(repls)).flatmap(
        lambda ns: st.tuples(st.tuples(st.just(ns), _names), repls[ns]))
    return st.lists(entry, min_size=1, max_size=2).map(dict)


@pytest.mark.parametrize("grammar", sorted(GRAMMARS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_random_nodes_agree(grammar, data):
    node = data.draw(GRAMMARS[grammar][0])
    same_engine(node)
    sub = data.draw(_subs(grammar))
    if same_subst(node, sub)[0] == "ok":
        same_walks(syntax.subst(node, sub))


@pytest.mark.parametrize(
    "grammar, ns, binder, make_ref", CAPTURES,
    ids=[f"{g}-{ns}-{i}" for i, (g, ns, _, _) in enumerate(CAPTURES)])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_forced_capture_agrees(grammar, ns, binder, make_ref, data):
    node = binder(data.draw(GRAMMARS[grammar][0]))
    sub = {(ns, "b"): make_ref("a")}
    if data.draw(st.booleans()):
        sub.update(data.draw(_subs(grammar)))
        sub[(ns, "b")] = make_ref("a")
    if same_subst(node, sub)[0] == "ok":
        result = syntax.subst(node, sub)
        assert "a" in syntax.free_names(result, ns)
        same_walks(result)


@pytest.mark.parametrize("tyvar", [ITyVar, STyVar], ids=lambda c: c.__name__)
def test_expression_replacement_renames_type_binder(tyvar):
    """Only an expression replacement mentions the type variable that a
    type binder inside an expression would capture: the binder is renamed
    in that variable's grammar, and the variable stays free."""
    node = TyLam("a", Anno(Var("y"), tyvar("a")))
    sub = {("x", "y"): Anno(Unit(), tyvar("a"))}
    assert same_subst(node, sub)[0] == "ok"
    got = syntax.subst(node, sub)
    assert got.var != "a"
    assert got == TyLam(got.var, Anno(Anno(Unit(), tyvar("a")), tyvar(got.var)))
    assert syntax.free_names(got, "ty") == {"a"}
    bare = syntax.subst(TyLam("a", Var("y")), sub)
    assert bare.var != "a" and syntax.free_names(bare, "ty") == {"a"}
    same_walks(got)
