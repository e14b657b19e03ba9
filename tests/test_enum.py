"""Bounded enumeration of well-typed terms."""

import re

import pytest

import reference_enum as ref
from eopoly import impartial
from eopoly.enum_terms import Enumerator, default_menu, enumerate_welltyped
from eopoly.errors import GuardednessViolation, IllFormedType
from eopoly.syntax import (
    Anno,
    App,
    IAllEo,
    IArrow,
    ImpCtx,
    IProd,
    IRec,
    ISum,
    ITyVar,
    IUnit,
    Lam,
    N,
    Unit,
    V,
    Var,
    alpha_eq,
    alpha_key,
    eo_var,
)

U = IUnit()
A = eo_var("a")

# Two guarded menus beside the default one.  The first nests recursive
# types inside an arrow, a product and another recursive type; the second
# puts an order-quantified product and a quantified recursive domain in
# binding positions, so synthesis instantiates, projects and unrolls.
NESTED_MENU = (
    U,
    IArrow(IRec("r", ISum(U, ITyVar("r"), V), V), U, N),
    IRec("s", IProd(U, IRec("r", ISum(ITyVar("s"), ITyVar("r"), N), V), V), V),
)
QUANTIFIED_MENU = (
    U,
    IArrow(IAllEo("a", IProd(U, IArrow(U, U, A), A)), U, V),
    IAllEo("a", IArrow(IRec("r", ISum(U, ITyVar("r"), A), A), U, A)),
)


def test_menu_shape():
    menu = default_menu()
    assert len(menu) == 10
    assert U in menu


def test_bound_one_yields_unit():
    js = enumerate_welltyped(1)
    assert any(j.expr == Unit() and j.ty == U for j in js)
    for j in js:
        assert j.direction in ("check", "synth")


def test_bound_three_includes_identity_at_both_arrows():
    js = enumerate_welltyped(3)
    ident = Lam("x", Var("x"))
    for eo in (V, N):
        assert any(
            alpha_eq(j.expr, ident) and j.ty == IArrow(U, U, eo)
            and j.direction == "check"
            for j in js
        )


def test_bound_five_includes_annotated_application():
    js = enumerate_welltyped(5)
    wanted = App(Anno(Lam("x", Var("x")), IArrow(U, U, V)), Unit())
    assert any(
        alpha_eq(j.expr, wanted) and j.direction == "synth" for j in js
    )


def test_all_enumerated_judgments_typecheck():
    for j in enumerate_welltyped(4):
        if j.direction == "check":
            r = impartial.check(ImpCtx(), j.expr, j.ty)
        else:
            r = impartial.synth(ImpCtx(), j.expr)
        assert r.valueness == j.valueness


def test_no_alpha_duplicates():
    js = enumerate_welltyped(5)
    seen = set()
    for j in js:
        key = (j.direction, alpha_key(j.expr), alpha_key(j.ty))
        assert key not in seen
        seen.add(key)


# Golden counts, frozen on first run: they pin the enumeration space so an
# accidental generator change shows up as a count drift.
GOLDEN_COUNTS = {1: 1, 2: 25, 3: 151, 4: 635, 5: 2339, 6: 8531}


def test_golden_counts():
    for bound, want in GOLDEN_COUNTS.items():
        assert len(enumerate_welltyped(bound)) == want


def _listing(judgments):
    return [(j.direction, repr(j.expr), repr(j.ty), j.valueness) for j in judgments]


@pytest.mark.parametrize("menu", [None, NESTED_MENU, QUANTIFIED_MENU],
                         ids=["default", "nested", "quantified"])
def test_enumeration_matches_reference(menu):
    """The same judgments, in the same order, as the enumerator that keyed
    its tables by nodes and listed recursive-goal candidates twice."""
    for bound in range(1, 6):
        assert (_listing(enumerate_welltyped(bound, menu))
                == _listing(ref.enumerate_welltyped(bound, menu))), bound


def test_no_candidate_listed_twice():
    listed = [(d, alpha_key(e), alpha_key(ty))
              for d, e, ty in Enumerator().candidates(6)]
    assert len(listed) == len(set(listed)) == 9023


def test_unguarded_menu_type_is_refused():
    bad = IRec("r", ITyVar("r"), V)
    with pytest.raises(GuardednessViolation, match=re.escape(repr(bad))):
        enumerate_welltyped(3, (U, bad))


def test_open_menu_type_is_refused():
    bad = IArrow(ITyVar("t"), U, V)
    with pytest.raises(IllFormedType, match=re.escape(repr(bad))):
        enumerate_welltyped(3, (U, bad))
