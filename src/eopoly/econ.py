"""The suspension-point type system and the translation into it.

Types here keep by-value connectives only; the single extra connective
``SSusp(eo, S)`` is a no-op when the order is by-value and a thunk type
when by-name.  The translation pushes each connective's order into
suspension points: function domains and both product components get
suspended, sums and recursive bodies are suspended outside.

The checker mirrors the impartial one; the new traffic is in subsumption
and exposure, which silently wrap or strip suspension points (stripping a
by-name suspension costs the valueness, wrapping one refines it to val).
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
    subst1,
    subst_eo,
    subst_ty_in_ty,
    unfold,
)
from .wf import eo_wf, rec_guarded, ty_wf

UNROLL_LIMIT = 64

_SYNTH_FORMS = (Var, FixVar, App, Proj, TyApp, EoApp, Anno)


# ---------------------------------------------------------------------------
# Translation from the order-carrying types
# ---------------------------------------------------------------------------

def econ_type(ty: ImpType) -> EconType:
    match ty:
        case IUnit():
            return SUnit()
        case ITyVar(name):
            return STyVar(name)
        case IForall(var, body):
            return SForall(var, econ_type(body))
        case IAllEo(var, body):
            return SAllEo(var, econ_type(body))
        case IArrow(dom, cod, eo):
            return SArrow(SSusp(eo, econ_type(dom)), econ_type(cod))
        case IProd(left, right, eo):
            return SProd(SSusp(eo, econ_type(left)), SSusp(eo, econ_type(right)))
        case ISum(left, right, eo):
            return SSusp(eo, SSum(econ_type(left), econ_type(right)))
        case IRec(var, body, eo):
            return SRec(var, SSusp(eo, econ_type(body)))
    raise TypeError(f"not an impartial type: {ty!r}")


def econ_ctx(ctx: ImpCtx) -> EconCtx:
    out = EconCtx()
    for kind, name, payload in ctx.entries:
        if kind == "x":
            v, ty = payload
            wrapped = SSusp(V if v == VAL else N, econ_type(ty))
            out = out.with_x(name, wrapped)
        elif kind == "u":
            _, ty = payload
            out = out.with_u(name, econ_type(ty))
        elif kind == "ty":
            out = out.with_ty(name)
        else:
            out = out.with_eo(name)
    return out


def econ_expr(e: Expr) -> Expr:
    """Rewrite every annotation through the type translation."""
    match e:
        case Unit() | Var(_) | FixVar(_):
            return e
        case Anno(body, ty):
            return Anno(econ_expr(body), econ_type(ty))
        case TyApp(body, ty):
            return TyApp(econ_expr(body), econ_type(ty))
        case EoApp(body, eo):
            return EoApp(econ_expr(body), eo)
        case Lam(x, body):
            return Lam(x, econ_expr(body))
        case App(fn, arg):
            return App(econ_expr(fn), econ_expr(arg))
        case Fix(u, body):
            return Fix(u, econ_expr(body))
        case TyLam(a, body):
            return TyLam(a, econ_expr(body))
        case Pair(l, r):
            return Pair(econ_expr(l), econ_expr(r))
        case Proj(k, body):
            return Proj(k, econ_expr(body))
        case Inj(k, body):
            return Inj(k, econ_expr(body))
        case Case(s, x1, e1, x2, e2):
            return Case(econ_expr(s), x1, econ_expr(e1), x2, econ_expr(e2))
    raise TypeError(f"not a source expression: {e!r}")


# ---------------------------------------------------------------------------
# Bidirectional checking
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
    return _check(ctx, e, ty, UNROLL_LIMIT)


def econ_synth(ctx: EconCtx, e: Expr) -> EconTypingResult:
    """Synthesize, then shed top-level by-value suspensions.

    The strip is free (valueness preserved) and gives callers the type
    they can actually use.
    """
    r = _synth(ctx, e)
    while isinstance(r.ty, SSusp) and r.ty.eo == V:
        t2 = r.ty.body
        d = Derivation("r-susp-elim-v", ctx, e, SYNTH, t2, r.valueness,
                       (r.deriv,), {"eo": V})
        r = EconTypingResult(t2, r.valueness, d)
    return r


def _check(ctx: EconCtx, e: Expr, ty: EconType, budget: int) -> EconTypingResult:
    if isinstance(e, _SYNTH_FORMS):
        return _subsume(ctx, e, ty, budget)

    if isinstance(ty, SSusp):
        inner = _check(ctx, e, ty.body, UNROLL_LIMIT)
        v = VAL if ty.eo == N else inner.valueness
        d = Derivation("r-susp-intro", ctx, e, CHECK, ty, v, (inner.deriv,),
                       {"eo": ty.eo})
        return EconTypingResult(ty, v, d)

    if isinstance(ty, SAllEo):
        a = ctx.fresh(ty.var, "eo")
        body_ty = subst_eo(eo_var(a), ty.var, ty.body)
        # Annotations inside e refer to the binder by its written name.
        e_inner = subst_eo(eo_var(a), ty.var, e) if a != ty.var else e
        inner = _check(ctx.with_eo(a), e_inner, body_ty, UNROLL_LIMIT)
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
        a = ctx.fresh(ty.var, "ty")
        body_ty = subst_ty_in_ty(STyVar(a), ty.var, ty.body)
        body_e = subst1(e.body, "ty", e.var, STyVar(a))
        inner = _check(ctx.with_ty(a), body_e, body_ty, UNROLL_LIMIT)
        if inner.valueness != VAL:
            raise ValueRestriction("a polymorphic subject must be a value")
        d = Derivation("r-all-intro", ctx, e, CHECK, ty, VAL, (inner.deriv,),
                       {"var": a})
        return EconTypingResult(ty, VAL, d)

    if isinstance(ty, SRec):
        if budget <= 0:
            raise ExposeFailed("recursive type unrolled too deeply")
        inner = _check(ctx, e, unfold(ty), budget - 1)
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
            xx = ctx.fresh(x, "x", "u")
            body = subst1(body, "x", x, Var(xx)) if xx != x else body
            inner = _check(ctx.with_x(xx, ty.dom), body, ty.cod, UNROLL_LIMIT)
            d = Derivation("r-arrow-intro", ctx, e, CHECK, ty, VAL,
                           (inner.deriv,), {"var": xx})
            return EconTypingResult(ty, VAL, d)
        case Pair(l, r):
            if not isinstance(ty, SProd):
                raise TypeMismatch(f"a pair cannot have type {ty!r}")
            left = _check(ctx, l, ty.left, UNROLL_LIMIT)
            right = _check(ctx, r, ty.right, UNROLL_LIMIT)
            v = join(left.valueness, right.valueness)
            d = Derivation("r-prod-intro", ctx, e, CHECK, ty, v,
                           (left.deriv, right.deriv))
            return EconTypingResult(ty, v, d)
        case Inj(k, body):
            if not isinstance(ty, SSum):
                raise TypeMismatch(f"an injection cannot have type {ty!r}")
            inner = _check(ctx, body, ty.left if k == 1 else ty.right,
                           UNROLL_LIMIT)
            d = Derivation("r-sum-intro", ctx, e, CHECK, ty, inner.valueness,
                           (inner.deriv,), {"k": k})
            return EconTypingResult(ty, inner.valueness, d)
        case Fix(u, body):
            uu = ctx.fresh(u, "x", "u")
            body = subst1(body, "u", u, FixVar(uu)) if uu != u else body
            inner = _check(ctx.with_u(uu, ty), body, ty, UNROLL_LIMIT)
            d = Derivation("r-fix", ctx, e, CHECK, ty, TOP, (inner.deriv,),
                           {"var": uu})
            return EconTypingResult(ty, TOP, d)
        case Case(scrut, x1, e1, x2, e2):
            rs = _synth(ctx, scrut)
            rs = expose(ctx, scrut, rs, "sum")
            assert isinstance(rs.ty, SSum)
            xx1 = ctx.fresh(x1, "x", "u")
            e1 = subst1(e1, "x", x1, Var(xx1)) if xx1 != x1 else e1
            xx2 = ctx.fresh(x2, "x", "u")
            e2 = subst1(e2, "x", x2, Var(xx2)) if xx2 != x2 else e2
            r1 = _check(ctx.with_x(xx1, rs.ty.left), e1, ty, UNROLL_LIMIT)
            r2 = _check(ctx.with_x(xx2, rs.ty.right), e2, ty, UNROLL_LIMIT)
            d = Derivation("r-sum-elim", ctx, e, CHECK, ty, TOP,
                           (rs.deriv, r1.deriv, r2.deriv),
                           {"var1": xx1, "var2": xx2})
            return EconTypingResult(ty, TOP, d)
        case TyLam(_, _):
            raise TypeMismatch(f"a type abstraction cannot have type {ty!r}")
    raise TypeMismatch(f"cannot check {e!r} against {ty!r}")


def _subsume(ctx: EconCtx, e: Expr, ty: EconType, budget: int) -> EconTypingResult:
    r = _synth(ctx, e)
    return _reconcile(ctx, e, r, ty, budget)


def _reconcile(ctx: EconCtx, e: Expr, r: EconTypingResult, want: EconType,
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
        return _reconcile(ctx, e, EconTypingResult(t2, r.valueness, d2), want,
                          budget - 1)
    if isinstance(want, SSusp):
        inner = _reconcile(ctx, e, r, want.body, budget - 1)
        v = VAL if want.eo == N else inner.valueness
        d = Derivation("r-susp-intro", ctx, e, CHECK, want, v, (inner.deriv,),
                       {"eo": want.eo})
        return EconTypingResult(want, v, d)
    if isinstance(r.ty, SSusp):
        t2 = r.ty.body
        d2 = Derivation("r-susp-elim-eo", ctx, e, SYNTH, t2, TOP, (r.deriv,),
                        {"eo": r.ty.eo})
        return _reconcile(ctx, e, EconTypingResult(t2, TOP, d2), want,
                          budget - 1)
    if isinstance(want, SRec):
        inner = _reconcile(ctx, e, r, unfold(want), budget - 1)
        d = Derivation("r-rec-intro", ctx, e, CHECK, want, inner.valueness,
                       (inner.deriv,))
        return EconTypingResult(want, inner.valueness, d)
    if isinstance(r.ty, SRec):
        t2 = unfold(r.ty)
        d2 = Derivation("r-rec-elim", ctx, e, SYNTH, t2, TOP, (r.deriv,))
        return _reconcile(ctx, e, EconTypingResult(t2, TOP, d2), want,
                          budget - 1)
    raise TypeMismatch(f"synthesized {r.ty!r} but expected {want!r}")


def _synth(ctx: EconCtx, e: Expr) -> EconTypingResult:
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
            inner = _check(ctx, body, ty, UNROLL_LIMIT)
            d = Derivation("r-anno", ctx, e, SYNTH, ty, inner.valueness,
                           (inner.deriv,))
            return EconTypingResult(ty, inner.valueness, d)
        case App(fn, arg):
            rf = _synth(ctx, fn)
            rf = expose(ctx, fn, rf, "arrow")
            assert isinstance(rf.ty, SArrow)
            ra = _check(ctx, arg, rf.ty.dom, UNROLL_LIMIT)
            d = Derivation("r-arrow-elim", ctx, e, SYNTH, rf.ty.cod, TOP,
                           (rf.deriv, ra.deriv))
            return EconTypingResult(rf.ty.cod, TOP, d)
        case Proj(k, body):
            rb = _synth(ctx, body)
            rb = expose(ctx, body, rb, "prod")
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
            rb = _synth(ctx, body)
            rb = expose(ctx, body, rb, "forall")
            assert isinstance(rb.ty, SForall)
            ty = subst_ty_in_ty(arg_ty, rb.ty.var, rb.ty.body)
            d = Derivation("r-all-elim", ctx, e, SYNTH, ty, rb.valueness,
                           (rb.deriv,), {"ty_arg": arg_ty})
            return EconTypingResult(ty, rb.valueness, d)
        case EoApp(body, eo):
            if not eo_wf(ctx, eo):
                raise IllFormedType(f"evaluation order not in scope: {eo!r}")
            rb = _synth(ctx, body)
            rb = expose(ctx, body, rb, "alleo")
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


def expose(ctx: EconCtx, e: Expr, r: EconTypingResult, want: str) -> EconTypingResult:
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
