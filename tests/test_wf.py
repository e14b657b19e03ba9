"""Well-formedness and guardedness."""

from eopoly.syntax import (
    ATyVar,
    EconCtx,
    IArrow,
    IAllEo,
    IForall,
    ImpCtx,
    IProd,
    IRec,
    ISum,
    ITyVar,
    IUnit,
    N,
    SAllEo,
    SArrow,
    SRec,
    SSusp,
    SSum,
    STyVar,
    SUnit,
    TgtCtx,
    AThunk,
    AUnit,
    V,
    eo_var,
    subst1,
)
from eopoly.econ import econ_type
from eopoly.wf import rec_guarded, ty_wf

from grammars import ECON, GRAMMARS, TGT

U = IUnit()


def test_eo_wf():
    """An order is well formed as a type is: by its free order names."""
    empty = ImpCtx()
    assert ty_wf(empty, V)
    assert ty_wf(empty, N)
    assert not ty_wf(empty, eo_var("a"))
    assert ty_wf(empty.with_eo("a"), eo_var("a"))
    assert not ty_wf(empty.with_ty("a"), eo_var("a"))


def test_impartial_wf():
    empty = ImpCtx()
    assert ty_wf(empty, IArrow(U, U, V))
    assert not ty_wf(empty, IArrow(U, U, eo_var("a")))
    assert not ty_wf(empty, ITyVar("t"))
    assert ty_wf(empty, IForall("t", ITyVar("t")))
    assert ty_wf(empty, IAllEo("a", IArrow(U, U, eo_var("a"))))
    for g in GRAMMARS:
        empty = g.ctx()
        assert ty_wf(empty, g.arrow(g.unit, g.unit))
        assert not ty_wf(empty, g.var("t"))
        assert ty_wf(empty.with_ty("t"), g.var("t"))
        assert ty_wf(empty, g.forall("t", g.var("t")))
        assert ty_wf(empty, g.rec("t", g.sum(g.unit, g.var("t"))))
        # A binder scopes over its body only.
        assert not ty_wf(empty, g.prod(g.forall("t", g.var("t")), g.var("t")))


def test_econ_wf():
    empty = EconCtx()
    assert ty_wf(empty, SAllEo("a", SSusp(eo_var("a"), SUnit())))
    assert not ty_wf(empty, SSusp(eo_var("a"), SUnit()))
    assert ty_wf(empty.with_eo("a"), SSusp(eo_var("a"), SUnit()))


def test_target_wf():
    assert ty_wf(TgtCtx(), AThunk(AUnit()))
    assert not ty_wf(TgtCtx(), AThunk(ATyVar("t")))


def test_guardedness_bare_recursion():
    assert not rec_guarded(IRec("a", ITyVar("a"), V))
    for g in GRAMMARS:
        assert not rec_guarded(g.rec("a", g.var("a")))


def test_guardedness_sum_guard():
    assert rec_guarded(IRec("a", ISum(U, ITyVar("a"), V), V))
    for g in GRAMMARS:
        for guard in (g.sum, g.prod, g.arrow):
            assert rec_guarded(g.rec("a", guard(g.unit, g.var("a"))))


def test_guardedness_suspension_is_no_guard():
    assert not rec_guarded(SRec("a", SSusp(N, STyVar("a"))))
    for g in (ECON, TGT):
        assert not rec_guarded(g.rec("a", g.delay(g.var("a"))))
        assert rec_guarded(g.rec("a", g.delay(g.sum(g.unit, g.var("a")))))


def test_guardedness_nested_recursion_is_no_guard():
    assert not rec_guarded(SRec("a", SRec("b", STyVar("a"))))
    for g in GRAMMARS:
        assert not rec_guarded(g.rec("a", g.rec("b", g.var("a"))))


def test_guardedness_outer_variable_guarded_before_inner_binder():
    # The "odd stream" shape: the outer variable occurs under a product
    # even though an (unused) inner recursive binder intervenes.
    odd = IRec("b", ISum(U, IProd(U, IRec("c", ITyVar("b"), N), V), V), V)
    assert rec_guarded(odd)
    for g in GRAMMARS:
        odd = g.rec("b", g.sum(g.unit, g.prod(g.unit, g.rec("c", g.var("b")))))
        assert rec_guarded(odd)


def test_guardedness_ignores_an_order_variable_of_the_same_name():
    """An order variable is a reference, but never to a recursive type
    variable, even one of the same name: ``%a`` here guards nothing and
    breaks nothing."""
    a = eo_var("a")
    ty = IAllEo("a", IRec("a", ISum(U, ITyVar("a"), a), a))
    assert rec_guarded(ty)
    assert rec_guarded(econ_type(ty))
    assert not rec_guarded(IAllEo("a", IRec("a", ITyVar("a"), a)))


def test_guardedness_checks_nested_binders():
    inner_bad = IRec("a", ISum(U, IRec("b", ITyVar("b"), V), V), V)
    assert not rec_guarded(inner_bad)
    for g in GRAMMARS:
        inner_bad = g.rec("a", g.sum(g.unit, g.rec("b", g.var("b"))))
        assert not rec_guarded(inner_bad)
        # A universal binder of the same name hides the recursive one.
        assert rec_guarded(g.rec("a", g.forall("a", g.var("a"))))


def test_wf_weakening_enumerated():
    tys = [
        IArrow(U, U, V),
        IAllEo("a", IProd(U, U, eo_var("a"))),
        IRec("t", ISum(U, ITyVar("t"), N), N),
        IForall("t", IArrow(ITyVar("t"), U, V)),
    ]
    base = ImpCtx()
    extended = base.with_ty("fresh_t").with_eo("fresh_a")
    for ty in tys:
        assert ty_wf(base, ty)
        assert ty_wf(extended, ty)


def test_wf_order_substitution_stability():
    """Substituting a well-formed order preserves well-formedness."""
    ctx_a = EconCtx().with_eo("a")
    tys = [
        SSusp(eo_var("a"), SUnit()),
        SArrow(SSusp(eo_var("a"), SUnit()), SUnit()),
        SRec("t", SSusp(eo_var("a"), SSum(SUnit(), STyVar("t")))),
        SAllEo("b", SSusp(eo_var("a"), SSusp(eo_var("b"), SUnit()))),
    ]
    for ty in tys:
        assert ty_wf(ctx_a, ty)
        for eo in (V, N):
            assert ty_wf(EconCtx(), subst1(ty, "eo", "a", eo))
