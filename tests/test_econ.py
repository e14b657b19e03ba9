"""Translation into the suspension-point system and its checker."""

import pytest

from eopoly import econ
from eopoly.errors import TypecheckError
from eopoly.syntax import (
    Anno,
    App,
    EconCtx,
    EoApp,
    Fix,
    FixVar,
    IAllEo,
    IArrow,
    ImpCtx,
    IProd,
    IRec,
    ISum,
    ITyVar,
    IUnit,
    Inj,
    Lam,
    N,
    Pair,
    SAllEo,
    SArrow,
    SProd,
    SRec,
    SSum,
    SSusp,
    STyVar,
    SUnit,
    TOP,
    Unit,
    V,
    VAL,
    Var,
    alpha_eq,
    eo_var,
)
from eopoly.verify import replay

U = IUnit()
SU = SUnit()
EMPTY = EconCtx()


def test_econ_type_arrow():
    out = econ.econ_type(IArrow(U, U, N))
    assert out == SArrow(SSusp(N, SU), SU)


def test_econ_type_sum_suspends_outside():
    assert econ.econ_type(ISum(U, U, N)) == SSusp(N, SSum(SU, SU))


def test_econ_type_product_suspends_components():
    assert econ.econ_type(IProd(U, U, N)) == SProd(SSusp(N, SU), SSusp(N, SU))


def test_econ_type_recursive_double_suspension():
    a = eo_var("a")
    ty = IRec("b", ISum(U, IProd(ITyVar("e"), ITyVar("b"), a), a), a)
    out = econ.econ_type(ty)
    want = SRec(
        "b",
        SSusp(a, SSusp(a, SSum(SU, SProd(SSusp(a, STyVar("e")),
                                         SSusp(a, STyVar("b")))))),
    )
    assert alpha_eq(out, want)


def test_econ_ctx():
    ctx = (ImpCtx().with_x("x", VAL, U).with_x("y", TOP, U).with_u("u", U))
    out = econ.econ_ctx(ctx)
    assert out.lookup("x", "x") == SSusp(V, SU)
    assert out.lookup("x", "y") == SSusp(N, SU)
    assert out.lookup("u", "u") == SU


def test_econ_expr_rewrites_annotations():
    e = Anno(Unit(), U)
    assert econ.econ_expr(e) == Anno(Unit(), SU)
    assert econ.econ_expr(Unit()) == Unit()
    marked = EoApp(Var("f"), V)
    assert econ.econ_expr(marked) == marked


def test_check_function_with_suspended_domain():
    r = econ.econ_check(EMPTY, Lam("x", Var("x")), SArrow(SSusp(N, SU), SU))
    assert r.valueness == VAL
    # Inside, stripping the by-name suspension costs the valueness.
    d = r.children[0]
    assert d.valueness == TOP


def test_check_unit_against_by_name_suspension_is_val():
    r = econ.econ_check(EMPTY, Unit(), SSusp(N, SU))
    assert r.valueness == VAL


def test_synth_sheds_value_suspensions():
    r = econ.econ_synth(EconCtx().with_x("x", SSusp(V, SU)), Var("x"))
    assert r.ty == SU and r.valueness == VAL


def test_synth_keeps_by_name_suspension():
    r = econ.econ_synth(EconCtx().with_x("x", SSusp(N, SU)), Var("x"))
    assert r.ty == SSusp(N, SU) and r.valueness == VAL


def test_var_synthesizes_val_unconditionally():
    r = econ.econ_synth(EconCtx().with_x("x", SArrow(SU, SU)), Var("x"))
    assert r.valueness == VAL


def test_fix_under_by_name_suspension_is_val():
    # The thunk delays the fixed point, making the whole subject a value.
    r = econ.econ_check(EMPTY, Fix("u", FixVar("u")), SSusp(N, SU))
    assert r.valueness == VAL


def test_value_suspension_assumptions_removable():
    """Replacing an assumption x : susp[V] S by x : S preserves checking."""
    cases = [
        (SSusp(V, SU), Var("x"), SU),
        (SSusp(V, SArrow(SU, SU)), App(Var("x"), Unit()), SU),
        (SSusp(V, SProd(SU, SU)), Var("x"), SProd(SU, SU)),
    ]
    for assumed, e, goal in cases:
        strong = EconCtx().with_x("x", assumed)
        weak = EconCtx().with_x("x", assumed.body)
        r1 = econ.econ_check(strong, e, goal)
        r2 = econ.econ_check(weak, e, goal)
        assert r1.valueness == r2.valueness


def test_order_polymorphic_identity():
    ty = SAllEo("a", SArrow(SSusp(eo_var("a"), SU), SU))
    r = econ.econ_check(EMPTY, Lam("x", Var("x")), ty)
    assert r.valueness == VAL


def test_checker_rejects_wrong_injection():
    with pytest.raises(TypecheckError):
        econ.econ_check(EMPTY, Inj(1, Unit()), SSum(SArrow(SU, SU), SU))


def test_derivations_replay():
    lazy_nat = SRec("b", SSusp(N, SSum(SU, STyVar("b"))))
    cases = [
        econ.econ_check(EMPTY, Lam("x", Var("x")),
                        SAllEo("a", SArrow(SSusp(eo_var("a"), SU), SU))),
        econ.econ_check(EMPTY, Fix("u", Inj(2, FixVar("u"))), lazy_nat),
        econ.econ_synth(EconCtx().with_x("x", SSusp(V, SU)), Var("x")),
        econ.econ_check(EMPTY, Pair(Unit(), Fix("u", Unit())),
                        SProd(SSusp(N, SU), SSusp(N, SU))),
    ]
    for r in cases:
        replay(r)


def test_econ_type_preserves_wellformedness():
    from eopoly.enum_terms import default_menu
    from eopoly.wf import ty_wf

    a = eo_var("a")
    tys = list(default_menu()) + [
        IAllEo("a", IRec("b", ISum(U, IProd(ITyVar("t"), ITyVar("b"), a), a), a)),
        IArrow(IProd(U, U, N), ISum(U, U, V), N),
    ]
    ctx = ImpCtx().with_ty("t")
    for ty in tys:
        assert ty_wf(ctx, ty)
        assert ty_wf(econ.econ_ctx(ctx), econ.econ_type(ty))
