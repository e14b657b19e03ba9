"""Bidirectional typechecker for the order-carrying source type system.

Checking is driven by the expected type's head; synthesis by the
expression's head.  Introduction forms check, elimination forms
synthesize; an expression that can synthesize is bridged to a checking
judgment by subsumption, which compares types up to alpha-equivalence
after reconciling recursive heads (unrolling on whichever side has one).
Quantifier instantiation is always explicit in the expression (type
application and order instantiation markers); synthesis never guesses.

Every result carries a reified :class:`Derivation` so elaboration and the
verification harness can replay it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
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
from .syntax import (
    CHECK,
    SYNTH,
    TOP,
    VAL,
    Anno,
    App,
    Case,
    Derivation,
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
    TyApp,
    TyLam,
    Unit,
    Valueness,
    Var,
    alpha_eq,
    eo_var,
    join,
    subst1,
    subst_eo,
    subst_ty_in_ty,
    unfold,
    valof,
)
from .wf import eo_wf, rec_guarded, ty_wf

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
        a = ctx.fresh(ty.var, "eo")
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
        a = ctx.fresh(ty.var, "ty")
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
            xx = ctx.fresh(x, "x", "u")
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
            uu = ctx.fresh(u, "x", "u")
            body = subst1(body, "u", u, FixVar(uu)) if uu != u else body
            inner = _check(ctx.with_u(uu, ty), body, ty, UNROLL_LIMIT)
            d = Derivation("i-fix", ctx, e, CHECK, ty, TOP, (inner.deriv,),
                           {"var": uu})
            return TypingResult(ty, TOP, d)
        case Case(scrut, x1, e1, x2, e2):
            rs = _synth(ctx, scrut)
            rs = expose(ctx, scrut, rs, "sum")
            assert isinstance(rs.ty, ISum)
            xx1 = ctx.fresh(x1, "x", "u")
            e1 = subst1(e1, "x", x1, Var(xx1)) if xx1 != x1 else e1
            xx2 = ctx.fresh(x2, "x", "u")
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
