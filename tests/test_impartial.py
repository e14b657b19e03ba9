"""The order-carrying bidirectional typechecker."""

import pytest

from eopoly import bidir, impartial
from eopoly.errors import (
    CannotSynthesize,
    ExposeFailed,
    GuardednessViolation,
    TypeMismatch,
    UnboundVariable,
    ValueRestriction,
)
from eopoly.syntax import (
    Anno,
    App,
    Case,
    EO,
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
    N,
    Pair,
    TOP,
    TyApp,
    TyLam,
    Unit,
    V,
    VAL,
    Var,
    alpha_eq,
    children,
    eo_var,
    subterms,
)
from eopoly.verify import replay

U = IUnit()
EMPTY = ImpCtx()


def leaf(d):
    while d.children:
        d = d.children[0]
    return d


def test_check_identity_by_name_binds_top():
    r = impartial.check(EMPTY, Lam("x", Var("x")), IArrow(U, U, N))
    assert r.valueness == VAL
    assert leaf(r).rule == "i-var"
    assert leaf(r).valueness == TOP


def test_check_identity_by_value_binds_val():
    r = impartial.check(EMPTY, Lam("x", Var("x")), IArrow(U, U, V))
    assert leaf(r).valueness == VAL


def test_check_fix_is_top():
    r = impartial.check(EMPTY, Fix("u", FixVar("u")), U)
    assert r.valueness == TOP


def test_check_identity_order_polymorphic():
    ty = IAllEo("a", IArrow(U, U, eo_var("a")))
    r = impartial.check(EMPTY, Lam("x", Var("x")), ty)
    assert r.valueness == VAL
    assert leaf(r).valueness == TOP  # bound at an unknown order


def test_value_restriction_on_order_quantifier():
    ty = IAllEo("a", U)
    with pytest.raises(ValueRestriction):
        impartial.check(EMPTY, Fix("u", Unit()), ty)


def test_forall_requires_type_abstraction():
    ty = IForall("t", IArrow(ITyVar("t"), ITyVar("t"), V))
    impartial.check(EMPTY, TyLam("t", Lam("x", Var("x"))), ty)
    with pytest.raises(TypeMismatch):
        impartial.check(EMPTY, Lam("x", Var("x")), ty)


def test_synth_var():
    r = impartial.synth(ImpCtx().with_x("x", VAL, U), Var("x"))
    assert r.ty == U and r.valueness == VAL


def test_synth_unbound():
    with pytest.raises(UnboundVariable):
        impartial.synth(EMPTY, Var("ghost"))


def test_synth_annotated_pair():
    r = impartial.synth(EMPTY, Anno(Pair(Unit(), Unit()), IProd(U, U, V)))
    assert r.ty == IProd(U, U, V)
    assert r.valueness == VAL  # join(val, val)


def test_synth_application_is_top():
    e = App(Anno(Lam("x", Var("x")), IArrow(U, U, V)), Unit())
    r = impartial.synth(EMPTY, e)
    assert r.ty == U and r.valueness == TOP


def test_synth_intro_form_needs_annotation():
    with pytest.raises(CannotSynthesize):
        impartial.synth(EMPTY, Lam("x", Var("x")))


def test_annotation_guardedness_rejected():
    bad = IRec("t", ITyVar("t"), V)
    with pytest.raises(GuardednessViolation):
        impartial.synth(EMPTY, Anno(Unit(), bad))


LIST_V = IRec("b", ISum(U, ITyVar("b"), V), V)


def test_expose_unrolls_recursive_head():
    ctx = ImpCtx().with_x("xs", VAL, LIST_V)
    r = impartial.synth(ctx, Var("xs"))
    exposed = bidir.expose(impartial.IMPARTIAL, ctx, Var("xs"), r, "sum")
    assert isinstance(exposed.ty, ISum)
    assert alpha_eq(exposed.ty, ISum(U, LIST_V, V))
    assert exposed.valueness == TOP


def test_expose_already_exposed():
    ctx = ImpCtx().with_x("f", VAL, IArrow(U, U, V))
    r = impartial.synth(ctx, Var("f"))
    exposed = bidir.expose(impartial.IMPARTIAL, ctx, Var("f"), r, "arrow")
    assert exposed.ty == r.ty and exposed.valueness == VAL


def test_expose_never_instantiates_quantifiers():
    ty = IAllEo("a", IArrow(U, U, eo_var("a")))
    ctx = ImpCtx().with_x("f", VAL, ty)
    with pytest.raises(ExposeFailed):
        impartial.synth(ctx, App(Var("f"), Unit()))
    # The same program succeeds once the instantiation is explicit.
    r = impartial.synth(ctx, App(EoApp(Var("f"), V), Unit()))
    assert r.ty == U


def test_explicit_type_application():
    ty = IForall("t", IArrow(ITyVar("t"), ITyVar("t"), V))
    ctx = ImpCtx().with_x("f", VAL, ty)
    r = impartial.synth(ctx, App(TyApp(Var("f"), U), Unit()))
    assert r.ty == U


def test_case_checks_and_binds_val():
    scrut = Anno(Inj(2, Unit()), ISum(U, U, N))
    e = Case(scrut, "x1", Var("x1"), "x2", Var("x2"))
    d = impartial.check(EMPTY, e, U)
    assert d.valueness == TOP
    assert d.rule == "i-sum-elim"
    assert d.children[1].ctx.lookup("x", d.get("var1"))[0] == VAL


def test_case_cannot_synthesize():
    e = Case(Anno(Inj(1, Unit()), ISum(U, U, V)), "a", Unit(), "b", Unit())
    with pytest.raises(CannotSynthesize):
        impartial.synth(EMPTY, e)


def test_recursive_value_checks():
    e = Inj(2, Inj(1, Unit()))
    r = impartial.check(EMPTY, e, LIST_V)
    assert r.valueness == VAL


def test_fix_at_recursive_type_checks_via_unfolding():
    lazy = IRec("b", ISum(U, IProd(U, ITyVar("b"), V), V), N)
    ones = Fix("u", Inj(2, Pair(Unit(), FixVar("u"))))
    r = impartial.check(EMPTY, ones, lazy)
    assert r.valueness == TOP


def test_derivations_replay():
    cases = [
        impartial.check(EMPTY, Lam("x", Var("x")), IArrow(U, U, N)),
        impartial.check(EMPTY, Lam("x", Var("x")),
                        IAllEo("a", IArrow(U, U, eo_var("a")))),
        impartial.synth(EMPTY, Anno(Pair(Unit(), Unit()), IProd(U, U, V))),
        impartial.synth(
            EMPTY, App(Anno(Lam("x", Var("x")), IArrow(U, U, V)), Unit())
        ),
        impartial.check(EMPTY, Fix("u", Inj(2, Pair(Unit(), FixVar("u")))),
                        IRec("b", ISum(U, IProd(U, ITyVar("b"), V), V), N)),
    ]
    for r in cases:
        replay(r)


def concrete_orders(node):
    """Concrete orders mentioned anywhere in a type or expression."""
    return frozenset(v.tag for n in subterms(node) for _, v in children(n)
                     if isinstance(v, EO) and not v.is_var())


def derivation_orders(d):
    out = concrete_orders(d.ty)
    for c in d.children:
        out |= derivation_orders(c)
    return out


def test_annotation_subformula_discipline():
    """The checker never invents an order absent from the program."""
    e = App(Anno(Lam("x", Var("x")), IArrow(U, U, V)), Unit())
    r = impartial.synth(EMPTY, e)
    assert derivation_orders(r) <= {"V"}
    e2 = Anno(Lam("x", Var("x")), IArrow(U, U, N))
    r2 = impartial.synth(EMPTY, e2)
    assert derivation_orders(r2) <= {"N"}
