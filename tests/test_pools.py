"""Candidate pools and the candidate searches that read them.

``distinct_subterms`` replaces the list-then-dedup pattern, ``dedup`` of
every root's ``subterms``, at every site that closes a pool under
subterms.  It must return that list itself: the same objects in the same
order, since the searches try candidates in pool order and keep the
first that fits.  The reference here is the pattern it replaced, with
``reference_walks.dedup``, an oracle apart from ``syntax.Listed``.
"""

import glob
import os
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from eopoly import econ, syntax, target
from eopoly.elaborate import ElabChecker, _arrows, _nf, _products, ty_target
from eopoly.enum_terms import default_menu, enumerate_welltyped
from eopoly.program import load_program
from eopoly.syntax import (
    Anno,
    AUnit,
    EO,
    EconCtx,
    IProd,
    IUnit,
    Listed,
    N,
    Pair,
    SArrow,
    SForall,
    SProd,
    SRec,
    STyVar,
    SUnit,
    SAllEo,
    SYNTH,
    TgtCtx,
    V,
    Node,
    Unit,
    alpha_eq,
    distinct_subterms,
    free_names,
    instantiate,
    subterms,
    unfold,
)
from eopoly.verify import Judgment, _pool, build_pool, elab_soundness, target_pool
from reference_walks import dedup

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")


def _types_in(t):
    """The subterms of ``t`` that are types: a pool lists no order."""
    return [s for s in subterms(t) if not isinstance(s, EO)]


def _listed_then_deduped(roots):
    return dedup([s for t in roots for s in _types_in(t)])


def _same(got, want):
    return len(got) == len(want) and all(a is b for a, b in zip(got, want))


def _closed_roots(tys, derivs):
    """The roots the pool closes, as they were listed before: every
    derivation node's type, each followed by its order instances or its
    unfolding, once per node."""
    found = list(tys)
    todo = derivs[::-1]
    while todo:
        d = todo.pop()
        found.append(d.ty)
        todo.extend(reversed(d.children))
    closed = []
    for t in found:
        closed.append(t)
        if isinstance(t, SAllEo):
            closed += [instantiate(t, V), instantiate(t, N)]
        elif isinstance(t, SRec):
            closed.append(unfold(t))
    return closed


def _corpus_judgments():
    for path in sorted(glob.glob(os.path.join(CORPUS, "*.eo"))):
        prog = load_program(path)
        e = econ.econ_expr(prog.main) if prog.lang == "impartial" else prog.main
        yield os.path.basename(path), Judgment(e, None, SYNTH)


def _bound5_judgments():
    for i, imp in enumerate(enumerate_welltyped(5)):
        yield f"enum-{i}", Judgment(econ.econ_expr(imp.expr),
                                    econ.econ_type(imp.ty), imp.direction)


def test_pools_are_the_listed_then_deduped_closure():
    """For every corpus file and every bound-5 judgment, ``distinct_subterms``
    of the roots the pool closes is their list-then-dedup closure, object
    for object, and the pool is that closure, node for node (its order
    instances and unfoldings are its own objects)."""
    seen = 0
    for name, j in [*_corpus_judgments(), *_bound5_judgments()]:
        r = j.typing
        roots = _closed_roots([r.ty], [r])
        want = _listed_then_deduped(roots)
        assert _same(distinct_subterms(roots), want), name
        assert list(_pool([r.ty], [r])) == want, name
        seen += 1
    assert seen == 16 + 2339


def test_pools_are_closed_under_subterms():
    """``Listed.then`` walks only the goal's roots, which is exact because
    every pool the checkers read is closed under subterms: on every corpus
    pool, the default menu's pool and every bound-5 judgment's pool,
    ``distinct_subterms`` of the pool lists the pool itself, object for
    object, and so it does of the pool's suspension normal forms after
    ``dedup``, the pool ``ElabChecker`` holds."""
    pools = [pool for _, pool in _candidate_pools()]
    pools += [j.pool for _, j in _bound5_judgments()]
    for pool in pools:
        assert _same(distinct_subterms(pool), pool), pool
        nfs = dedup([_nf(t) for t in pool])
        assert _same(distinct_subterms(nfs), nfs), pool
        assert _same(tuple(ElabChecker(pool)._pool), nfs), pool
    assert len(pools) == 16 + 1 + 2339


def test_a_shared_subtree_is_walked_once(monkeypatch):
    """``t0 = ()`` and ``t(i+1) = t(i) * t(i)``: ``t16`` has 131 071 nodes
    in a tree walk but 17 distinct subterms, and ``then`` asks for the key
    of each of them once (the keys are kept on the nodes beforehand, so
    building them is not counted)."""
    t = SUnit()
    chain = [t]
    for _ in range(16):
        t = SProd(t, t)
        chain.append(t)
    key = syntax.alpha_key
    key(t)
    calls = []

    def counted(node, *a):
        calls.append(node)
        return key(node, *a)

    monkeypatch.setattr(syntax, "alpha_key", counted)
    assert _same(Listed(()).then((t,)), chain[::-1])
    assert len(calls) == 17


def test_elab_candidates_are_the_listed_then_deduped_closure(monkeypatch):
    """Each goal's candidates, while the corpus elaborations are checked:
    the pool's subterms and unit, then the goal's and the assumptions'
    subterms, deduplicated in that order."""
    asked = []
    original = ElabChecker._candidates

    def spy(self, ty, ctx):
        got = original(self, ty, ctx)
        asked.append((self, ty, ctx, got))
        return got

    monkeypatch.setattr(ElabChecker, "_candidates", spy)
    for name, j in _corpus_judgments():
        elab_soundness(j, name)
    assert asked
    for checker, ty, ctx, got in asked:
        want = dedup(
            _listed_then_deduped(checker._pool) + [SUnit()] + _types_in(ty)
            + [s for kind, _, p in ctx.entries if kind in ("x", "u")
               for s in _types_in(p)])
        assert _same(got, want), ty


def _old_elab_candidates(pool, ty, ctx):
    """The goal's candidate list as it was built, walking the pool again."""
    assumed = [t for kind, _, t in ctx.entries if kind in ("x", "u")]
    return distinct_subterms((*pool, SUnit(), ty, *assumed))


def _old_fallback(cands, ty, kind, k):
    """A fallback list as it was built, whole: the candidates that fit the
    goal, then one new arrow or product per candidate, deduplicated."""
    if kind == "app":
        return dedup([a for a in cands if isinstance(a, SArrow)
                      and alpha_eq(a.cod, ty)] + [SArrow(d, ty) for d in cands])
    return dedup([p for p in cands if isinstance(p, SProd)
                  and alpha_eq(p.left if k == 1 else p.right, ty)]
                 + [SProd(ty, o) if k == 1 else SProd(o, ty) for o in cands])


def _same_keys(got, want):
    return len(got) == len(want) and all(
        type(a) is type(b) and alpha_eq(a, b) for a, b in zip(got, want))


def _candidate_pools():
    pools = [(name, j.pool) for name, j in _corpus_judgments()]
    pools.append(("menu", build_pool(Unit(), [econ.econ_type(t)
                                               for t in default_menu()])))
    return pools


def test_candidate_lists_are_the_old_lists():
    """On every corpus pool and the default menu's pool, at every pool type
    as the goal, with no assumption and with one: each goal's candidates,
    from the pool walked once, are the list that walked the pool again,
    object for object; each fallback list, read to its end, is the whole
    list as it was built, entry for entry; and the core checker's
    candidates are ``dedup`` of the pool, the goal's subterms and unit."""
    goals = 0
    for name, pool in _candidate_pools():
        checker = ElabChecker(pool)
        listed = tuple(checker._pool)
        for ty in listed:
            for ctx in (EconCtx(), EconCtx().with_x("x", listed[0])):
                cands = checker._candidates(ty, ctx)
                assert _same(cands, _old_elab_candidates(listed, ty, ctx)), name
                for build, kind, k in ((_arrows, "app", 0), (_products, "proj", 1),
                                       (_products, "proj", 2)):
                    got = list(checker._fallback(build, ty, ctx, k))
                    assert _same_keys(got, _old_fallback(cands, ty, kind, k)), name
                goals += 1
        tpool = target_pool(pool)
        tchecker = target.TargetChecker(tpool)
        for ty in tpool:
            want = dedup(list(tpool) + subterms(ty) + [AUnit()])
            assert _same(tchecker.candidates(ty), want), name
    assert goals > 800, goals


def test_fallback_lists_are_built_as_far_as_they_are_read():
    """A fallback list read to its first entry builds no more of it, and
    every later reading, nested in another or after it, sees the same
    objects in the same order."""
    pool = build_pool(Unit(), [econ.econ_type(t) for t in default_menu()])
    checker = ElabChecker(pool)
    ty = tuple(checker._pool)[0]
    listed = checker._fallback(_arrows, ty, EconCtx())
    first = next(iter(listed))
    assert len(listed._listed) == 1
    outer = iter(listed)
    assert next(outer) is first
    inner = list(checker._fallback(_arrows, ty, EconCtx()))
    assert inner[0] is first and len(inner) > 2
    assert [first, *outer] == inner


# -- hypothesis: lists that repeat subtrees and rename binders ----------------

_names = st.sampled_from(["a", "b", "c"])


def _types():
    return st.recursive(
        st.one_of(st.just(SUnit()), st.builds(STyVar, _names)),
        lambda t: st.one_of(
            st.builds(SArrow, t, t),
            st.builds(SProd, t, t),
            st.builds(SForall, _names, t),
            # Structurally repeated subtrees, shared and copied.
            t.map(lambda s: SArrow(s, s)),
            t.map(lambda s: SProd(s, _copy(s))),
        ),
        max_leaves=8,
    )


def _rebuilt(t, f):
    return type(t)(*[f(v) if isinstance(v, Node) else v
                     for v in (getattr(t, name) for name in type(t).__match_args__)])


def _copy(t):
    """A structurally equal copy of ``t`` that shares no node with it."""
    return _rebuilt(t, _copy)


def _renamed(t, k=0):
    """An alpha-variant of ``t`` whose binders all have new names, so its
    open subterms differ from ``t``'s."""
    if isinstance(t, SForall):
        z = f"z{k}"
        return SForall(z, _renamed(instantiate(t, STyVar(z)), k + 1))
    return _rebuilt(t, lambda v: _renamed(v, k))


@st.composite
def _root_lists(draw):
    base = draw(st.lists(_types(), min_size=1, max_size=4))
    extra = []
    for t in base:
        extra += draw(st.sampled_from([[], [t], [_copy(t)], [_renamed(t)],
                                       subterms(t)[1:2], subterms(t)[-1:]]))
    return draw(st.permutations(base + extra))


_A = SForall("a", SArrow(STyVar("a"), STyVar("b")))


@settings(max_examples=300, deadline=None)
@example([_A, SForall("c", SArrow(STyVar("c"), STyVar("b")))])
@example([SArrow(STyVar("c"), STyVar("b")), _A, _copy(_A)])
@given(_root_lists())
def test_distinct_subterms_is_the_listed_then_deduped_closure(roots):
    assert _same(distinct_subterms(roots), _listed_then_deduped(roots))


@settings(max_examples=300, deadline=None)
@example([_A], [SForall("c", SArrow(STyVar("c"), STyVar("b")))])
@given(_root_lists(), _root_lists())
def test_a_kept_walk_extended_is_one_walk(first, more):
    """A list closed under subterms, extended by more roots, lists what
    one walk of both lists lists, object for object, though the second
    list repeats subtrees of the first or renames its binders."""
    more = more + first[:1] + [_copy(t) for t in first[1:2]] + [
        _renamed(t) for t in first[-1:]]
    assert _same(Listed(distinct_subterms(first)).then(more),
                 distinct_subterms(first + more))


# -- the core checker's application search ------------------------------------

def test_application_search_checks_the_argument_first(monkeypatch):
    """Where neither side of an application synthesizes, the checker tries
    each candidate domain on the argument before the function, so a
    function that is a λ is not re-checked, body and all, at every domain
    the argument refutes.  Counted as ``_check`` calls (memo misses) while
    each corpus elaboration is checked at its type with its own pool."""
    calls = {}
    original = target.TargetChecker._check

    def counted(self, ctx, m, ty):
        calls[name] = calls.get(name, 0) + 1
        return original(self, ctx, m, ty)

    monkeypatch.setattr(target.TargetChecker, "_check", counted)
    for name, j in _corpus_judgments():
        assert target.target_check(TgtCtx(), j.elab.term, ty_target(j.typing.ty),
                                   j.tpool), name
    # 5 414 in all and 4 885 on gap_argument_position.eo when the function
    # was checked first; 575 and 41 with the argument first.
    assert sum(calls.values()) <= 700, calls
    assert calls["gap_argument_position.eo"] <= 100, calls


# -- the core pool ------------------------------------------------------------

def _nested_pairs(k):
    """``((), ((), …))`` at ``1 *[V] (1 *[V] …)``, ``k`` pairs deep."""
    e, t = Unit(), IUnit()
    for _ in range(k):
        e, t = Pair(Unit(), e), IProd(IUnit(), t, V)
    return Judgment(econ.econ_expr(Anno(e, t)), None, SYNTH)


@pytest.fixture
def deep():
    """A recursion limit that hashing 200 nested pairs needs."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(20_000)
    yield
    sys.setrecursionlimit(limit)


@pytest.mark.usefixtures("deep")
def test_target_pool_translates_each_type_as_ty_target_does():
    """Translating a pool gives, entry for entry and in order, the types
    that ``ty_target`` gives for each entry alone: on every
    corpus pool, the default menu's pool and a nested-pairs pool."""
    pools = [j.pool for _, j in _corpus_judgments()]
    pools.append(build_pool(Unit(), [econ.econ_type(t) for t in default_menu()]))
    pools.append(_nested_pairs(50).pool)
    for pool in pools:
        want = [ty_target(t) for t in pool if not free_names(t, "eo")]
        got = target_pool(pool)
        assert len(got) == len(want)
        assert all(alpha_eq(a, b) for a, b in zip(got, want)), pool


@pytest.mark.usefixtures("deep")
def test_target_pool_shares_the_subtrees_it_translates():
    """The pool of k nested pairs lists about 2k nested types, each a
    subterm of the next.  Translated one by one they share no node, about
    2k² node objects in all (80 401 at k = 200); with each translation
    kept on its node, each subtree object is translated once and the
    translations share their subtrees."""
    k = 200
    pool = _nested_pairs(k).pool
    nodes = {id(s) for t in target_pool(pool) for s in subterms(t)}
    assert len(nodes) <= 3 * k, len(nodes)
