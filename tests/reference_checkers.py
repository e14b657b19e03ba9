"""The two source typecheckers as they were before one engine served both.

This is the oracle for ``tests/test_checkers.py``: the impartial checker
and the suspension-point checker, each a full copy of its rules, verbatim
except that the suspension-point checker's private helpers and ``expose``
carry an ``econ`` prefix so that both fit in one module.  It is not
imported by the package.
"""

from __future__ import annotations

from dataclasses import dataclass

from eopoly.errors import (
    CannotSynthesize,
    ExposeFailed,
    GuardednessViolation,
    IllFormedType,
    NotAFunction,
    NotAProduct,
    NotASum,
    TypeMismatch,
    UnboundVariable,
    ValueRestriction,
)
from eopoly.syntax import (
    CHECK,
    N,
    SYNTH,
    TOP,
    V,
    VAL,
    Anno,
    App,
    Case,
    Derivation,
    EconCtx,
    EconType,
    EoApp,
    Expr,
    Fix,
    FixVar,
    IAllEo,
    IArrow,
    IForall,
    ImpCtx,
    ImpType,
    Inj,
    IProd,
    IRec,
    ISum,
    ITyVar,
    IUnit,
    Lam,
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
    Valueness,
    Var,
    alpha_eq,
    eo_var,
    join,
    subst,
    subst1,
    unfold,
    valof,
)
from eopoly.wf import eo_wf, rec_guarded, ty_wf


# The single-name substitutions these oracles were written against.
def subst_eo(eo, var, node):
    return subst(node, {("eo", var): eo})


def subst_ty_in_ty(replacement, var, ty):
    return subst(ty, {("ty", var): replacement})


# ---------------------------------------------------------------------------
# The impartial checker
# ---------------------------------------------------------------------------

UNROLL_LIMIT = 64

_SYNTH_FORMS = (Var, FixVar, App, Proj, TyApp, EoApp, Anno)


@dataclass
class TypingResult:
    ty: ImpType
    valueness: Valueness
    deriv: Derivation


def check(ctx: ImpCtx, e: Expr, ty: ImpType) -> TypingResult:
    if not ty_wf(ctx, ty):
        raise IllFormedType(f"type is not well-formed here: {ty!r}")
    if not rec_guarded(ty):
        raise GuardednessViolation(f"unguarded recursive type: {ty!r}")
    return _check(ctx, e, ty, UNROLL_LIMIT)


def synth(ctx: ImpCtx, e: Expr) -> TypingResult:
    return _synth(ctx, e)


def _check(ctx: ImpCtx, e: Expr, ty: ImpType, budget: int) -> TypingResult:
    if isinstance(e, _SYNTH_FORMS):
        return _subsume(ctx, e, ty, budget)

    if isinstance(ty, IAllEo):
        a = ctx.fresh(ty.var, "eo", scope=(e, ty))
        body_ty = subst_eo(eo_var(a), ty.var, ty.body)
        # Annotations inside e refer to the binder by its written name.
        e_inner = subst_eo(eo_var(a), ty.var, e) if a != ty.var else e
        inner = _check(ctx.with_eo(a), e_inner, body_ty, UNROLL_LIMIT)
        if inner.valueness != VAL:
            raise ValueRestriction(
                "an order-polymorphic subject must be a value"
            )
        d = Derivation("i-alleo-intro", ctx, e, CHECK, ty, VAL, (inner.deriv,),
                       {"var": a})
        return TypingResult(ty, VAL, d)

    if isinstance(ty, IForall):
        if not isinstance(e, TyLam):
            raise TypeMismatch(
                "only a type abstraction checks against a universal type"
            )
        a = ctx.fresh(ty.var, "ty", scope=(e, ty))
        body_ty = subst_ty_in_ty(ITyVar(a), ty.var, ty.body)
        body_e = subst1(e.body, "ty", e.var, ITyVar(a))
        inner = _check(ctx.with_ty(a), body_e, body_ty, UNROLL_LIMIT)
        if inner.valueness != VAL:
            raise ValueRestriction("a polymorphic subject must be a value")
        d = Derivation("i-all-intro", ctx, e, CHECK, ty, VAL, (inner.deriv,),
                       {"var": a})
        return TypingResult(ty, VAL, d)

    if isinstance(ty, IRec):
        if budget <= 0:
            raise ExposeFailed("recursive type unrolled too deeply")
        inner = _check(ctx, e, unfold(ty), budget - 1)
        d = Derivation("i-rec-intro", ctx, e, CHECK, ty, inner.valueness,
                       (inner.deriv,))
        return TypingResult(ty, inner.valueness, d)

    match e:
        case Unit():
            if not isinstance(ty, IUnit):
                raise TypeMismatch(f"unit value cannot have type {ty!r}")
            d = Derivation("i-unit-intro", ctx, e, CHECK, ty, VAL)
            return TypingResult(ty, VAL, d)
        case Lam(x, body):
            if not isinstance(ty, IArrow):
                raise TypeMismatch(f"a function cannot have type {ty!r}")
            xx = ctx.fresh(x, "x", "u", scope=(e,))
            body = subst1(body, "x", x, Var(xx)) if xx != x else body
            inner = _check(ctx.with_x(xx, valof(ty.eo), ty.dom), body, ty.cod,
                           UNROLL_LIMIT)
            d = Derivation("i-arrow-intro", ctx, e, CHECK, ty, VAL,
                           (inner.deriv,), {"var": xx})
            return TypingResult(ty, VAL, d)
        case Pair(l, r):
            if not isinstance(ty, IProd):
                raise TypeMismatch(f"a pair cannot have type {ty!r}")
            left = _check(ctx, l, ty.left, UNROLL_LIMIT)
            right = _check(ctx, r, ty.right, UNROLL_LIMIT)
            v = join(left.valueness, right.valueness)
            d = Derivation("i-prod-intro", ctx, e, CHECK, ty, v,
                           (left.deriv, right.deriv))
            return TypingResult(ty, v, d)
        case Inj(k, body):
            if not isinstance(ty, ISum):
                raise TypeMismatch(f"an injection cannot have type {ty!r}")
            inner = _check(ctx, body, ty.left if k == 1 else ty.right,
                           UNROLL_LIMIT)
            d = Derivation("i-sum-intro", ctx, e, CHECK, ty, inner.valueness,
                           (inner.deriv,), {"k": k})
            return TypingResult(ty, inner.valueness, d)
        case Fix(u, body):
            uu = ctx.fresh(u, "x", "u", scope=(e,))
            body = subst1(body, "u", u, FixVar(uu)) if uu != u else body
            inner = _check(ctx.with_u(uu, ty), body, ty, UNROLL_LIMIT)
            d = Derivation("i-fix", ctx, e, CHECK, ty, TOP, (inner.deriv,),
                           {"var": uu})
            return TypingResult(ty, TOP, d)
        case Case(scrut, x1, e1, x2, e2):
            rs = _synth(ctx, scrut)
            rs = expose(ctx, scrut, rs, "sum")
            assert isinstance(rs.ty, ISum)
            xx1 = ctx.fresh(x1, "x", "u", scope=(e,))
            e1 = subst1(e1, "x", x1, Var(xx1)) if xx1 != x1 else e1
            xx2 = ctx.fresh(x2, "x", "u", scope=(e,))
            e2 = subst1(e2, "x", x2, Var(xx2)) if xx2 != x2 else e2
            r1 = _check(ctx.with_x(xx1, VAL, rs.ty.left), e1, ty, UNROLL_LIMIT)
            r2 = _check(ctx.with_x(xx2, VAL, rs.ty.right), e2, ty, UNROLL_LIMIT)
            d = Derivation("i-sum-elim", ctx, e, CHECK, ty, TOP,
                           (rs.deriv, r1.deriv, r2.deriv),
                           {"var1": xx1, "var2": xx2})
            return TypingResult(ty, TOP, d)
        case TyLam(_, _):
            raise TypeMismatch(
                f"a type abstraction cannot have type {ty!r}"
            )
    raise TypeMismatch(f"cannot check {e!r} against {ty!r}")


def _subsume(ctx: ImpCtx, e: Expr, ty: ImpType, budget: int) -> TypingResult:
    r = _synth(ctx, e)
    return _reconcile(ctx, e, r, ty, budget)


def _reconcile(ctx: ImpCtx, e: Expr, r: TypingResult, want: ImpType,
               budget: int) -> TypingResult:
    """Bridge a synthesized type to an expected one.

    Alpha-equal types succeed outright; a recursive head on either side is
    unrolled (on the synthesis side this costs the valueness).
    """
    if alpha_eq(r.ty, want):
        d = Derivation("i-sub", ctx, e, CHECK, want, r.valueness, (r.deriv,))
        return TypingResult(want, r.valueness, d)
    if budget <= 0:
        raise ExposeFailed("recursive type unrolled too deeply")
    if isinstance(want, IRec):
        inner = _reconcile(ctx, e, r, unfold(want), budget - 1)
        d = Derivation("i-rec-intro", ctx, e, CHECK, want, inner.valueness,
                       (inner.deriv,))
        return TypingResult(want, inner.valueness, d)
    if isinstance(r.ty, IRec):
        t2 = unfold(r.ty)
        d2 = Derivation("i-rec-elim", ctx, e, SYNTH, t2, TOP, (r.deriv,))
        return _reconcile(ctx, e, TypingResult(t2, TOP, d2), want, budget - 1)
    raise TypeMismatch(f"synthesized {r.ty!r} but expected {want!r}")


def _synth(ctx: ImpCtx, e: Expr) -> TypingResult:
    match e:
        case Var(x):
            try:
                v, ty = ctx.lookup("x", x)
            except KeyError:
                raise UnboundVariable(f"unbound variable {x}") from None
            return TypingResult(ty, v, Derivation("i-var", ctx, e, SYNTH, ty, v))
        case FixVar(u):
            try:
                _, ty = ctx.lookup("u", u)
            except KeyError:
                raise UnboundVariable(f"unbound fixed-point variable {u}") from None
            return TypingResult(ty, TOP,
                                Derivation("i-fixvar", ctx, e, SYNTH, ty, TOP))
        case Anno(body, ty):
            if not ty_wf(ctx, ty):
                raise IllFormedType(f"annotation is not well-formed: {ty!r}")
            if not rec_guarded(ty):
                raise GuardednessViolation(
                    f"unguarded recursive type in annotation: {ty!r}"
                )
            inner = _check(ctx, body, ty, UNROLL_LIMIT)
            d = Derivation("i-anno", ctx, e, SYNTH, ty, inner.valueness,
                           (inner.deriv,))
            return TypingResult(ty, inner.valueness, d)
        case App(fn, arg):
            rf = _synth(ctx, fn)
            rf = expose(ctx, fn, rf, "arrow")
            assert isinstance(rf.ty, IArrow)
            ra = _check(ctx, arg, rf.ty.dom, UNROLL_LIMIT)
            d = Derivation("i-arrow-elim", ctx, e, SYNTH, rf.ty.cod, TOP,
                           (rf.deriv, ra.deriv))
            return TypingResult(rf.ty.cod, TOP, d)
        case Proj(k, body):
            rb = _synth(ctx, body)
            rb = expose(ctx, body, rb, "prod")
            assert isinstance(rb.ty, IProd)
            ty = rb.ty.left if k == 1 else rb.ty.right
            d = Derivation("i-prod-elim", ctx, e, SYNTH, ty, TOP, (rb.deriv,),
                           {"k": k})
            return TypingResult(ty, TOP, d)
        case TyApp(body, arg_ty):
            if not ty_wf(ctx, arg_ty):
                raise IllFormedType(
                    f"type argument is not well-formed: {arg_ty!r}"
                )
            if not rec_guarded(arg_ty):
                raise GuardednessViolation(
                    f"unguarded recursive type argument: {arg_ty!r}"
                )
            rb = _synth(ctx, body)
            rb = expose(ctx, body, rb, "forall")
            assert isinstance(rb.ty, IForall)
            ty = subst_ty_in_ty(arg_ty, rb.ty.var, rb.ty.body)
            d = Derivation("i-all-elim", ctx, e, SYNTH, ty, rb.valueness,
                           (rb.deriv,), {"ty_arg": arg_ty})
            return TypingResult(ty, rb.valueness, d)
        case EoApp(body, eo):
            if not eo_wf(ctx, eo):
                raise IllFormedType(f"evaluation order not in scope: {eo!r}")
            rb = _synth(ctx, body)
            rb = expose(ctx, body, rb, "alleo")
            assert isinstance(rb.ty, IAllEo)
            ty = subst_eo(eo, rb.ty.var, rb.ty.body)
            d = Derivation("i-alleo-elim", ctx, e, SYNTH, ty, rb.valueness,
                           (rb.deriv,), {"eo": eo})
            return TypingResult(ty, rb.valueness, d)
        case Case(_, _, _, _, _):
            raise CannotSynthesize(
                "a case expression only checks; annotate it"
            )
        case Unit() | Lam(_, _) | Pair(_, _) | Inj(_, _) | TyLam(_, _) | Fix(_, _):
            raise CannotSynthesize(
                f"introduction form needs a type annotation: {e!r}"
            )
    raise CannotSynthesize(f"cannot synthesize a type for {e!r}")


_WANT_ERROR = {
    "arrow": (IArrow, NotAFunction, "not a function"),
    "prod": (IProd, NotAProduct, "not a product"),
    "sum": (ISum, NotASum, "not a sum"),
    "forall": (IForall, ExposeFailed, "not a universal type"),
    "alleo": (IAllEo, ExposeFailed, "not an order-polymorphic type"),
}


def expose(ctx: ImpCtx, e: Expr, r: TypingResult, want: str) -> TypingResult:
    """Unroll recursive heads until the wanted connective shows (or fail).

    Quantifiers are never auto-instantiated: exposure stops at the first
    non-recursive head.
    """
    cls, err, msg = _WANT_ERROR[want]
    ty, v, d = r.ty, r.valueness, r.deriv
    for _ in range(UNROLL_LIMIT):
        if isinstance(ty, cls):
            return TypingResult(ty, v, d)
        if isinstance(ty, IRec):
            ty = unfold(ty)
            v = TOP
            d = Derivation("i-rec-elim", ctx, e, SYNTH, ty, TOP, (d,))
            continue
        raise err(f"{msg}: synthesized {ty!r}")
    raise ExposeFailed("recursive type unrolled too deeply")


# ---------------------------------------------------------------------------
# The suspension-point checker
# ---------------------------------------------------------------------------

@dataclass
class EconTypingResult:
    ty: EconType
    valueness: Valueness
    deriv: Derivation


def econ_check(ctx: EconCtx, e: Expr, ty: EconType) -> EconTypingResult:
    if not ty_wf(ctx, ty):
        raise IllFormedType(f"type is not well-formed here: {ty!r}")
    if not rec_guarded(ty):
        raise GuardednessViolation(f"unguarded recursive type: {ty!r}")
    return _econ_check(ctx, e, ty, UNROLL_LIMIT)


def econ_synth(ctx: EconCtx, e: Expr) -> EconTypingResult:
    """Synthesize, then shed top-level by-value suspensions.

    The strip is free (valueness preserved) and gives callers the type
    they can actually use.
    """
    r = _econ_synth(ctx, e)
    while isinstance(r.ty, SSusp) and r.ty.eo == V:
        t2 = r.ty.body
        d = Derivation("r-susp-elim-v", ctx, e, SYNTH, t2, r.valueness,
                       (r.deriv,), {"eo": V})
        r = EconTypingResult(t2, r.valueness, d)
    return r


def _econ_check(ctx: EconCtx, e: Expr, ty: EconType, budget: int) -> EconTypingResult:
    if isinstance(e, _SYNTH_FORMS):
        return _econ_subsume(ctx, e, ty, budget)

    if isinstance(ty, SSusp):
        inner = _econ_check(ctx, e, ty.body, UNROLL_LIMIT)
        v = VAL if ty.eo == N else inner.valueness
        d = Derivation("r-susp-intro", ctx, e, CHECK, ty, v, (inner.deriv,),
                       {"eo": ty.eo})
        return EconTypingResult(ty, v, d)

    if isinstance(ty, SAllEo):
        a = ctx.fresh(ty.var, "eo", scope=(e, ty))
        body_ty = subst_eo(eo_var(a), ty.var, ty.body)
        # Annotations inside e refer to the binder by its written name.
        e_inner = subst_eo(eo_var(a), ty.var, e) if a != ty.var else e
        inner = _econ_check(ctx.with_eo(a), e_inner, body_ty, UNROLL_LIMIT)
        if inner.valueness != VAL:
            raise ValueRestriction("an order-polymorphic subject must be a value")
        d = Derivation("r-alleo-intro", ctx, e, CHECK, ty, VAL, (inner.deriv,),
                       {"var": a})
        return EconTypingResult(ty, VAL, d)

    if isinstance(ty, SForall):
        if not isinstance(e, TyLam):
            raise TypeMismatch(
                "only a type abstraction checks against a universal type"
            )
        a = ctx.fresh(ty.var, "ty", scope=(e, ty))
        body_ty = subst_ty_in_ty(STyVar(a), ty.var, ty.body)
        body_e = subst1(e.body, "ty", e.var, STyVar(a))
        inner = _econ_check(ctx.with_ty(a), body_e, body_ty, UNROLL_LIMIT)
        if inner.valueness != VAL:
            raise ValueRestriction("a polymorphic subject must be a value")
        d = Derivation("r-all-intro", ctx, e, CHECK, ty, VAL, (inner.deriv,),
                       {"var": a})
        return EconTypingResult(ty, VAL, d)

    if isinstance(ty, SRec):
        if budget <= 0:
            raise ExposeFailed("recursive type unrolled too deeply")
        inner = _econ_check(ctx, e, unfold(ty), budget - 1)
        d = Derivation("r-rec-intro", ctx, e, CHECK, ty, inner.valueness,
                       (inner.deriv,))
        return EconTypingResult(ty, inner.valueness, d)

    match e:
        case Unit():
            if not isinstance(ty, SUnit):
                raise TypeMismatch(f"unit value cannot have type {ty!r}")
            return EconTypingResult(
                ty, VAL, Derivation("r-unit-intro", ctx, e, CHECK, ty, VAL)
            )
        case Lam(x, body):
            if not isinstance(ty, SArrow):
                raise TypeMismatch(f"a function cannot have type {ty!r}")
            xx = ctx.fresh(x, "x", "u", scope=(e,))
            body = subst1(body, "x", x, Var(xx)) if xx != x else body
            inner = _econ_check(ctx.with_x(xx, ty.dom), body, ty.cod, UNROLL_LIMIT)
            d = Derivation("r-arrow-intro", ctx, e, CHECK, ty, VAL,
                           (inner.deriv,), {"var": xx})
            return EconTypingResult(ty, VAL, d)
        case Pair(l, r):
            if not isinstance(ty, SProd):
                raise TypeMismatch(f"a pair cannot have type {ty!r}")
            left = _econ_check(ctx, l, ty.left, UNROLL_LIMIT)
            right = _econ_check(ctx, r, ty.right, UNROLL_LIMIT)
            v = join(left.valueness, right.valueness)
            d = Derivation("r-prod-intro", ctx, e, CHECK, ty, v,
                           (left.deriv, right.deriv))
            return EconTypingResult(ty, v, d)
        case Inj(k, body):
            if not isinstance(ty, SSum):
                raise TypeMismatch(f"an injection cannot have type {ty!r}")
            inner = _econ_check(ctx, body, ty.left if k == 1 else ty.right,
                           UNROLL_LIMIT)
            d = Derivation("r-sum-intro", ctx, e, CHECK, ty, inner.valueness,
                           (inner.deriv,), {"k": k})
            return EconTypingResult(ty, inner.valueness, d)
        case Fix(u, body):
            uu = ctx.fresh(u, "x", "u", scope=(e,))
            body = subst1(body, "u", u, FixVar(uu)) if uu != u else body
            inner = _econ_check(ctx.with_u(uu, ty), body, ty, UNROLL_LIMIT)
            d = Derivation("r-fix", ctx, e, CHECK, ty, TOP, (inner.deriv,),
                           {"var": uu})
            return EconTypingResult(ty, TOP, d)
        case Case(scrut, x1, e1, x2, e2):
            rs = _econ_synth(ctx, scrut)
            rs = econ_expose(ctx, scrut, rs, "sum")
            assert isinstance(rs.ty, SSum)
            xx1 = ctx.fresh(x1, "x", "u", scope=(e,))
            e1 = subst1(e1, "x", x1, Var(xx1)) if xx1 != x1 else e1
            xx2 = ctx.fresh(x2, "x", "u", scope=(e,))
            e2 = subst1(e2, "x", x2, Var(xx2)) if xx2 != x2 else e2
            r1 = _econ_check(ctx.with_x(xx1, rs.ty.left), e1, ty, UNROLL_LIMIT)
            r2 = _econ_check(ctx.with_x(xx2, rs.ty.right), e2, ty, UNROLL_LIMIT)
            d = Derivation("r-sum-elim", ctx, e, CHECK, ty, TOP,
                           (rs.deriv, r1.deriv, r2.deriv),
                           {"var1": xx1, "var2": xx2})
            return EconTypingResult(ty, TOP, d)
        case TyLam(_, _):
            raise TypeMismatch(f"a type abstraction cannot have type {ty!r}")
    raise TypeMismatch(f"cannot check {e!r} against {ty!r}")


def _econ_subsume(ctx: EconCtx, e: Expr, ty: EconType, budget: int) -> EconTypingResult:
    r = _econ_synth(ctx, e)
    return _econ_reconcile(ctx, e, r, ty, budget)


def _econ_reconcile(ctx: EconCtx, e: Expr, r: EconTypingResult, want: EconType,
               budget: int) -> EconTypingResult:
    """Bridge a synthesized type to an expected one.

    Besides unrolling recursive heads as in the impartial system, this
    strips suspension points on the synthesis side (a by-name strip costs
    the valueness) and introduces them on the checking side (a by-name
    wrap refines to val).  Value-order suspensions on the synthesis side
    are stripped first: they are pure no-ops.
    """
    if alpha_eq(r.ty, want):
        d = Derivation("r-sub", ctx, e, CHECK, want, r.valueness, (r.deriv,))
        return EconTypingResult(want, r.valueness, d)
    if budget <= 0:
        raise ExposeFailed("recursive type unrolled too deeply")
    if isinstance(r.ty, SSusp) and r.ty.eo == V:
        t2 = r.ty.body
        d2 = Derivation("r-susp-elim-v", ctx, e, SYNTH, t2, r.valueness,
                        (r.deriv,), {"eo": V})
        return _econ_reconcile(ctx, e, EconTypingResult(t2, r.valueness, d2), want,
                          budget - 1)
    if isinstance(want, SSusp):
        inner = _econ_reconcile(ctx, e, r, want.body, budget - 1)
        v = VAL if want.eo == N else inner.valueness
        d = Derivation("r-susp-intro", ctx, e, CHECK, want, v, (inner.deriv,),
                       {"eo": want.eo})
        return EconTypingResult(want, v, d)
    if isinstance(r.ty, SSusp):
        t2 = r.ty.body
        d2 = Derivation("r-susp-elim-eo", ctx, e, SYNTH, t2, TOP, (r.deriv,),
                        {"eo": r.ty.eo})
        return _econ_reconcile(ctx, e, EconTypingResult(t2, TOP, d2), want,
                          budget - 1)
    if isinstance(want, SRec):
        inner = _econ_reconcile(ctx, e, r, unfold(want), budget - 1)
        d = Derivation("r-rec-intro", ctx, e, CHECK, want, inner.valueness,
                       (inner.deriv,))
        return EconTypingResult(want, inner.valueness, d)
    if isinstance(r.ty, SRec):
        t2 = unfold(r.ty)
        d2 = Derivation("r-rec-elim", ctx, e, SYNTH, t2, TOP, (r.deriv,))
        return _econ_reconcile(ctx, e, EconTypingResult(t2, TOP, d2), want,
                          budget - 1)
    raise TypeMismatch(f"synthesized {r.ty!r} but expected {want!r}")


def _econ_synth(ctx: EconCtx, e: Expr) -> EconTypingResult:
    match e:
        case Var(x):
            try:
                ty = ctx.lookup("x", x)
            except KeyError:
                raise UnboundVariable(f"unbound variable {x}") from None
            return EconTypingResult(
                ty, VAL, Derivation("r-var", ctx, e, SYNTH, ty, VAL)
            )
        case FixVar(u):
            try:
                ty = ctx.lookup("u", u)
            except KeyError:
                raise UnboundVariable(f"unbound fixed-point variable {u}") from None
            return EconTypingResult(
                ty, TOP, Derivation("r-fixvar", ctx, e, SYNTH, ty, TOP)
            )
        case Anno(body, ty):
            if not ty_wf(ctx, ty):
                raise IllFormedType(f"annotation is not well-formed: {ty!r}")
            if not rec_guarded(ty):
                raise GuardednessViolation(
                    f"unguarded recursive type in annotation: {ty!r}"
                )
            inner = _econ_check(ctx, body, ty, UNROLL_LIMIT)
            d = Derivation("r-anno", ctx, e, SYNTH, ty, inner.valueness,
                           (inner.deriv,))
            return EconTypingResult(ty, inner.valueness, d)
        case App(fn, arg):
            rf = _econ_synth(ctx, fn)
            rf = econ_expose(ctx, fn, rf, "arrow")
            assert isinstance(rf.ty, SArrow)
            ra = _econ_check(ctx, arg, rf.ty.dom, UNROLL_LIMIT)
            d = Derivation("r-arrow-elim", ctx, e, SYNTH, rf.ty.cod, TOP,
                           (rf.deriv, ra.deriv))
            return EconTypingResult(rf.ty.cod, TOP, d)
        case Proj(k, body):
            rb = _econ_synth(ctx, body)
            rb = econ_expose(ctx, body, rb, "prod")
            assert isinstance(rb.ty, SProd)
            ty = rb.ty.left if k == 1 else rb.ty.right
            d = Derivation("r-prod-elim", ctx, e, SYNTH, ty, TOP, (rb.deriv,),
                           {"k": k})
            return EconTypingResult(ty, TOP, d)
        case TyApp(body, arg_ty):
            if not ty_wf(ctx, arg_ty):
                raise IllFormedType(f"type argument is not well-formed: {arg_ty!r}")
            if not rec_guarded(arg_ty):
                raise GuardednessViolation(
                    f"unguarded recursive type argument: {arg_ty!r}"
                )
            rb = _econ_synth(ctx, body)
            rb = econ_expose(ctx, body, rb, "forall")
            assert isinstance(rb.ty, SForall)
            ty = subst_ty_in_ty(arg_ty, rb.ty.var, rb.ty.body)
            d = Derivation("r-all-elim", ctx, e, SYNTH, ty, rb.valueness,
                           (rb.deriv,), {"ty_arg": arg_ty})
            return EconTypingResult(ty, rb.valueness, d)
        case EoApp(body, eo):
            if not eo_wf(ctx, eo):
                raise IllFormedType(f"evaluation order not in scope: {eo!r}")
            rb = _econ_synth(ctx, body)
            rb = econ_expose(ctx, body, rb, "alleo")
            assert isinstance(rb.ty, SAllEo)
            ty = subst_eo(eo, rb.ty.var, rb.ty.body)
            d = Derivation("r-alleo-elim", ctx, e, SYNTH, ty, rb.valueness,
                           (rb.deriv,), {"eo": eo})
            return EconTypingResult(ty, rb.valueness, d)
        case Case(_, _, _, _, _):
            raise CannotSynthesize("a case expression only checks; annotate it")
        case Unit() | Lam(_, _) | Pair(_, _) | Inj(_, _) | TyLam(_, _) | Fix(_, _):
            raise CannotSynthesize(
                f"introduction form needs a type annotation: {e!r}"
            )
    raise CannotSynthesize(f"cannot synthesize a type for {e!r}")


_WANT = {
    "arrow": (SArrow, NotAFunction, "not a function"),
    "prod": (SProd, NotAProduct, "not a product"),
    "sum": (SSum, NotASum, "not a sum"),
    "forall": (SForall, ExposeFailed, "not a universal type"),
    "alleo": (SAllEo, ExposeFailed, "not an order-polymorphic type"),
}


def econ_expose(ctx: EconCtx, e: Expr, r: EconTypingResult, want: str) -> EconTypingResult:
    """Strip suspension points and unroll recursive heads until ``want`` shows.

    Stripping a by-value suspension keeps the valueness; anything else
    (by-name, order variable, recursive unroll) downgrades it, because the
    elaborated eliminator is not a value.
    """
    cls, err, msg = _WANT[want]
    ty, v, d = r.ty, r.valueness, r.deriv
    for _ in range(UNROLL_LIMIT):
        if isinstance(ty, cls):
            return EconTypingResult(ty, v, d)
        if isinstance(ty, SSusp):
            if ty.eo == V:
                ty = ty.body
                d = Derivation("r-susp-elim-v", ctx, e, SYNTH, ty, v, (d,),
                               {"eo": V})
            else:
                eo = ty.eo
                ty = ty.body
                v = TOP
                d = Derivation("r-susp-elim-eo", ctx, e, SYNTH, ty, TOP, (d,),
                               {"eo": eo})
            continue
        if isinstance(ty, SRec):
            ty = unfold(ty)
            v = TOP
            d = Derivation("r-rec-elim", ctx, e, SYNTH, ty, TOP, (d,))
            continue
        raise err(f"{msg}: synthesized {ty!r}")
    raise ExposeFailed("recursive type unrolled too deeply")
