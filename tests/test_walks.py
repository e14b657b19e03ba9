"""The rebuild walks and the shared term printer against their originals.

Erasure, the annotation translation, the suspension normal form, the
N-freeness predicates and the two term printers are each compared with
the per-constructor version kept in ``reference_walks``: a result by its
``repr`` (printed bytes for the printers), an error by its class and
message.  The inputs are every expression, type and elaboration met on
the corpus and on the bound-5 enumeration, on both sides of the
translation, and random expressions, core terms and types.
"""

from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings

import reference_walks as ref
from test_parser import _core_terms, _imp_types, _source_exprs
from test_verify import _all_derivations

from eopoly import econ, elaborate as elab_mod, nfree, pretty, syntax
from eopoly.econ import econ_type
from eopoly.elaborate import elaborate
from eopoly.syntax import (
    N,
    V,
    Anno,
    AUnit,
    EconCtx,
    EconType,
    EoApp,
    ImpCtx,
    ImpType,
    IUnit,
    Lam,
    MUnit,
    SUnit,
    TgtType,
    Unit,
    Var,
)

NEW = SimpleNamespace(
    erase=syntax.erase, econ_expr=econ.econ_expr, nf=elab_mod._nf,
    n_free_impartial_judgment=nfree.n_free_impartial_judgment,
    n_free_econ_judgment=nfree.n_free_econ_judgment,
    n_free_target=nfree.n_free_target,
    pretty_expr=pretty.pretty_expr, pretty_term=pretty.pretty_term,
)
REF = SimpleNamespace(
    erase=ref.erase, econ_expr=ref.econ_expr, nf=ref._nf,
    n_free_impartial_judgment=ref.n_free_impartial_judgment,
    n_free_econ_judgment=ref.n_free_econ_judgment,
    n_free_target=ref.n_free_target,
    pretty_expr=ref.pretty_expr, pretty_term=ref.pretty_term,
)
TYPES = (ImpType, EconType, TgtType)


def _outcome(fn, x):
    try:
        return "ok", repr(fn(x))
    except TypeError as exc:
        return type(exc), str(exc)


def _outcomes(w, x):
    """What each of ``w``'s walks makes of the node ``x``."""
    fns = [w.erase, w.econ_expr, w.n_free_target, w.pretty_expr, w.pretty_term]
    if isinstance(x, TYPES):
        fns.append(w.nf)
    else:
        fns += [lambda e: w.n_free_impartial_judgment(ImpCtx(), e, IUnit()),
                lambda e: w.n_free_econ_judgment(EconCtx(), e, SUnit())]
    return [_outcome(f, x) for f in fns]


def _agree(x):
    assert _outcomes(NEW, x) == _outcomes(REF, x), x


def _nodes(d):
    """Every subject and type of the derivation ``d``."""
    todo = [d]
    while todo:
        d = todo.pop()
        yield d.expr
        yield d.ty
        todo.extend(d.children)


def test_corpus_and_bound_five_agree():
    seen = {}
    for d in _all_derivations(5):
        for n in _nodes(d):
            seen.setdefault(repr(n), n)
            if isinstance(n, ImpType):
                ety = econ_type(n)
                seen.setdefault(repr(ety), ety)
        if d.rule.startswith("r-"):
            m = elaborate(d).term
            seen.setdefault(repr(m), m)
    assert len(seen) > 1000
    for x in seen.values():
        _agree(x)


# A core term where an expression belongs.  ``econ_expr`` translates every
# child that is not an expression as a type, so its error names the type
# translation; the original named the expression position.  Both raise
# TypeError.
CORE_IN_EXPR = Lam("x", MUnit())


@pytest.mark.parametrize("x", [
    MUnit(), Unit(), IUnit(), SUnit(), AUnit(), None, V, CORE_IN_EXPR,
    Lam("x", Unit()), Anno(Unit(), SUnit()),
], ids=repr)
@pytest.mark.parametrize("fn", ["erase", "econ_expr", "pretty_expr",
                                "pretty_term"])
def test_wrong_grammar_raises_the_same_error(fn, x):
    new, old = _outcome(getattr(NEW, fn), x), _outcome(getattr(REF, fn), x)
    if fn == "econ_expr" and x is CORE_IN_EXPR:
        assert new == (TypeError, "not an impartial type: MUnit()")
        assert old[0] is TypeError
    else:
        assert new == old


@settings(max_examples=300)
@given(_source_exprs())
@example(EoApp(Lam("x", Var("x")), N))
def test_random_expressions_agree(e):
    _agree(e)
    _agree(NEW.econ_expr(e))


@settings(max_examples=300)
@given(_core_terms())
def test_random_core_terms_agree(m):
    _agree(m)


@given(_imp_types())
def test_random_types_agree(ty):
    _agree(ty)
    _agree(econ_type(ty))
