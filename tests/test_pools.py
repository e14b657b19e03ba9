"""Candidate pools and the candidate searches that read them.

``distinct_subterms`` replaces the list-then-dedup pattern, ``dedup`` of
every root's ``subterms``, at every site that closes a pool under
subterms.  It must return that list itself: the same objects in the same
order, since the searches try candidates in pool order and keep the
first that fits.  The reference here is the pattern it replaced.
"""

import dataclasses
import glob
import os

from hypothesis import example, given, settings, strategies as st

from eopoly import econ, target
from eopoly.elaborate import ElabChecker, ty_target
from eopoly.enum_terms import enumerate_welltyped
from eopoly.program import load_program
from eopoly.syntax import (
    N,
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
    dedup,
    distinct_subterms,
    instantiate,
    subterms,
    unfold,
)
from eopoly.verify import Judgment, _pool, elab_soundness

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")


def _listed_then_deduped(roots):
    return dedup([s for t in roots for s in subterms(t)])


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
        roots = _closed_roots([r.ty], [r.deriv])
        want = _listed_then_deduped(roots)
        assert _same(distinct_subterms(roots), want), name
        assert list(_pool([r.ty], [r.deriv])) == want, name
        seen += 1
    assert seen == 16 + 2339


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
            _listed_then_deduped(checker.pool) + [SUnit()] + subterms(ty)
            + [s for kind, _, p in ctx.entries if kind in ("x", "u")
               for s in subterms(p)])
        assert _same(got, want), ty


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
                     for v in (getattr(t, fd.name) for fd in dataclasses.fields(t))])


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
