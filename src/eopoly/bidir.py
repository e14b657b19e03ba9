"""One bidirectional typechecker for both source type systems.

The suspension-point system is the impartial system with by-value
connectives plus one connective, the suspension ``SSusp(eo, S)``: a thunk
when by-name, a no-op when by-value.  So one set of rules serves both
(Dunfield & Krishnaswami, "Bidirectional Typing", ACM Computing Surveys
54(5), 2021).  Each system supplies a :class:`System`, its rule-name
prefix and its eight connective classes, and its context class supplies
the three places where the systems really differ:

* ``with_arg``   -- how a function's binder is declared from its arrow;
* ``with_case``  -- how a case binder is declared;
* ``assumption`` -- the valueness and type a variable synthesizes.

The suspension clauses need no switch on the system, because no impartial
type is a suspension.

Checking is driven by the expected type's head; synthesis by the
expression's head.  Introduction forms check, elimination forms
synthesize; an expression that can synthesize is bridged to a checking
judgment by ``_reconcile``, which compares types up to alpha-equivalence
after unrolling recursive heads and stripping or wrapping suspensions
(stripping a by-name suspension costs the valueness, wrapping one refines
it to val).  Quantifier instantiation is always explicit in the
expression (type application and order instantiation markers); synthesis
never guesses.

Unfolding needs no step budget.  Every type the rules unfold is guarded
(``wf.rec_guarded``): ``check`` tests its type, and annotations and type
arguments are tested where they are read; instantiation, order
substitution, unfolding and the translation keep guardedness.  In a
guarded ``rec a. B`` the variable ``a`` is not at ``B``'s head, so an
unfolding takes one recursive layer off the type's head and puts none
back.  The rec-intro chain, ``_reconcile`` and ``expose`` therefore stop
after at most as many steps as the types they read have recursive and
suspension layers at their heads (Amadio & Cardelli, "Subtyping Recursive
Types", TOPLAS 15(4), 1993).

Every result is a reified :class:`Derivation`, the root of the rules that
typed it, so elaboration and the verification harness can replay it.
"""

from __future__ import annotations

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
    Ctx,
    Derivation,
    EoApp,
    Expr,
    Fix,
    FixVar,
    Inj,
    Lam,
    Node,
    Pair,
    Proj,
    SSusp,
    TyApp,
    TyLam,
    Unit,
    Var,
    alpha_eq,
    eo_var,
    instantiate,
    join,
    record,
    subst1,
    unfold,
)
from .wf import eo_wf, rec_guarded, ty_wf

_SYNTH_FORMS = (Var, FixVar, App, Proj, TyApp, EoApp, Anno)


@record
class System:
    """A source type system: the prefix of its rule names and the classes
    of its connectives, named as ``expose`` asks for them."""

    prefix: str
    unit: type
    tyvar: type
    forall: type
    alleo: type
    arrow: type
    prod: type
    sum: type
    rec: type


def check(s: System, ctx: Ctx, e: Expr, ty: Node) -> Derivation:
    if not ty_wf(ctx, ty):
        raise IllFormedType(f"type is not well-formed here: {ty!r}")
    if not rec_guarded(ty):
        raise GuardednessViolation(f"unguarded recursive type: {ty!r}")
    return _check(s, ctx, e, ty)


def _check(s: System, ctx: Ctx, e: Expr, ty: Node) -> Derivation:
    if isinstance(e, _SYNTH_FORMS):
        return _reconcile(s, ctx, e, synth(s, ctx, e), ty)
    p = s.prefix

    if isinstance(ty, SSusp):
        return _wrap(s, ctx, e, ty, _check(s, ctx, e, ty.body))

    if isinstance(ty, s.alleo):
        a = ctx.fresh(ty.var, "eo", scope=(e, ty))
        # Annotations inside e refer to the binder by its written name.
        e_inner = subst1(e, "eo", ty.var, eo_var(a))
        inner = _check(s, ctx.with_eo(a), e_inner, instantiate(ty, eo_var(a)))
        if inner.valueness != VAL:
            raise ValueRestriction("an order-polymorphic subject must be a value")
        return Derivation(p + "alleo-intro", ctx, e, CHECK, ty, VAL, (inner,),
                           {"var": a})

    if isinstance(ty, s.forall):
        if not isinstance(e, TyLam):
            raise TypeMismatch(
                "only a type abstraction checks against a universal type"
            )
        a = ctx.apart(ty.var, "ty", scope=(e, ty))
        inner = _check(s, ctx.with_ty(a), instantiate(e, s.tyvar(a)),
                       instantiate(ty, s.tyvar(a)))
        if inner.valueness != VAL:
            raise ValueRestriction("a polymorphic subject must be a value")
        return Derivation(p + "all-intro", ctx, e, CHECK, ty, VAL, (inner,),
                           {"var": a})

    if isinstance(ty, s.rec):
        inner = _check(s, ctx, e, unfold(ty))
        return Derivation(p + "rec-intro", ctx, e, CHECK, ty, inner.valueness,
                           (inner,))

    match e:
        case Unit():
            if not isinstance(ty, s.unit):
                raise TypeMismatch(f"unit value cannot have type {ty!r}")
            return Derivation(p + "unit-intro", ctx, e, CHECK, ty, VAL)
        case Lam(x, _):
            if not isinstance(ty, s.arrow):
                raise TypeMismatch(f"a function cannot have type {ty!r}")
            xx = ctx.fresh(x, "x", "u", scope=(e,))
            inner = _check(s, ctx.with_arg(xx, ty), instantiate(e, Var(xx)), ty.cod)
            return Derivation(p + "arrow-intro", ctx, e, CHECK, ty, VAL,
                               (inner,), {"var": xx})
        case Pair(l, r):
            if not isinstance(ty, s.prod):
                raise TypeMismatch(f"a pair cannot have type {ty!r}")
            left = _check(s, ctx, l, ty.left)
            right = _check(s, ctx, r, ty.right)
            return Derivation(p + "prod-intro", ctx, e, CHECK, ty,
                               join(left.valueness, right.valueness),
                               (left, right))
        case Inj(k, body):
            if not isinstance(ty, s.sum):
                raise TypeMismatch(f"an injection cannot have type {ty!r}")
            inner = _check(s, ctx, body, ty.left if k == 1 else ty.right)
            return Derivation(p + "sum-intro", ctx, e, CHECK, ty, inner.valueness,
                               (inner,), {"k": k})
        case Fix(u, _):
            uu = ctx.fresh(u, "x", "u", scope=(e,))
            inner = _check(s, ctx.with_u(uu, ty), instantiate(e, FixVar(uu)), ty)
            return Derivation(p + "fix", ctx, e, CHECK, ty, TOP, (inner,),
                               {"var": uu})
        case Case(scrut, x1, _, x2, _):
            rs = expose(s, ctx, scrut, synth(s, ctx, scrut), "sum")
            xx1 = ctx.fresh(x1, "x", "u", scope=(e,))
            xx2 = ctx.fresh(x2, "x", "u", scope=(e,))
            r1 = _check(s, ctx.with_case(xx1, rs.ty.left),
                        instantiate(e, Var(xx1), "body1"), ty)
            r2 = _check(s, ctx.with_case(xx2, rs.ty.right),
                        instantiate(e, Var(xx2), "body2"), ty)
            return Derivation(p + "sum-elim", ctx, e, CHECK, ty, TOP,
                               (rs, r1, r2), {"var1": xx1, "var2": xx2})
        case TyLam(_, _):
            raise TypeMismatch(f"a type abstraction cannot have type {ty!r}")
    raise TypeMismatch(f"cannot check {e!r} against {ty!r}")


def _reconcile(s: System, ctx: Ctx, e: Expr, r: Derivation,
               want: Node) -> Derivation:
    """Bridge a synthesized type to an expected one.

    Alpha-equal types succeed outright.  Otherwise, in this order: a
    by-value suspension on the synthesis side is stripped (a pure no-op);
    a suspension on the checking side is introduced; any other suspension
    on the synthesis side is stripped; a recursive head is unrolled on the
    checking side, then on the synthesis side (which costs the valueness).
    Each step takes a suspension or recursive layer off one side's head,
    and both sides are guarded, so the bridge ends.
    """
    if alpha_eq(r.ty, want):
        return Derivation(s.prefix + "sub", ctx, e, CHECK, want, r.valueness,
                           (r,))
    if isinstance(r.ty, SSusp) and r.ty.eo == V:
        return _reconcile(s, ctx, e, strip(s, ctx, e, r), want)
    if isinstance(want, SSusp):
        return _wrap(s, ctx, e, want, _reconcile(s, ctx, e, r, want.body))
    if isinstance(r.ty, SSusp):
        return _reconcile(s, ctx, e, strip(s, ctx, e, r), want)
    if isinstance(want, s.rec):
        inner = _reconcile(s, ctx, e, r, unfold(want))
        return Derivation(s.prefix + "rec-intro", ctx, e, CHECK, want,
                           inner.valueness, (inner,))
    if isinstance(r.ty, s.rec):
        return _reconcile(s, ctx, e, _unroll(s, ctx, e, r), want)
    raise TypeMismatch(f"synthesized {r.ty!r} but expected {want!r}")


def _wrap(s: System, ctx: Ctx, e: Expr, ty: SSusp,
          inner: Derivation) -> Derivation:
    """Introduce the suspension ``ty``; a by-name one makes a value."""
    v = VAL if ty.eo == N else inner.valueness
    return Derivation(s.prefix + "susp-intro", ctx, e, CHECK, ty, v,
                       (inner,), {"eo": ty.eo})


def strip(s: System, ctx: Ctx, e: Expr, r: Derivation) -> Derivation:
    """Strip the suspension ``r`` synthesizes.  A by-value one keeps the
    valueness; any other downgrades it, as its eliminator is no value."""
    eo, ty = r.ty.eo, r.ty.body
    if eo == V:
        return Derivation(s.prefix + "susp-elim-v", ctx, e, SYNTH, ty,
                           r.valueness, (r,), {"eo": V})
    return Derivation(s.prefix + "susp-elim-eo", ctx, e, SYNTH, ty, TOP,
                       (r,), {"eo": eo})


def _unroll(s: System, ctx: Ctx, e: Expr, r: Derivation) -> Derivation:
    """Unroll the recursive type ``r`` synthesizes, at the cost of its
    valueness."""
    ty = unfold(r.ty)
    return Derivation(s.prefix + "rec-elim", ctx, e, SYNTH, ty, TOP, (r,))


def synth(s: System, ctx: Ctx, e: Expr) -> Derivation:
    p = s.prefix
    match e:
        case Var(x):
            try:
                v, ty = ctx.assumption("x", x)
            except KeyError:
                raise UnboundVariable(f"unbound variable {x}") from None
            return Derivation(p + "var", ctx, e, SYNTH, ty, v)
        case FixVar(u):
            try:
                _, ty = ctx.assumption("u", u)
            except KeyError:
                raise UnboundVariable(f"unbound fixed-point variable {u}") from None
            return Derivation(p + "fixvar", ctx, e, SYNTH, ty, TOP)
        case Anno(body, ty):
            if not ty_wf(ctx, ty):
                raise IllFormedType(f"annotation is not well-formed: {ty!r}")
            if not rec_guarded(ty):
                raise GuardednessViolation(
                    f"unguarded recursive type in annotation: {ty!r}"
                )
            inner = _check(s, ctx, body, ty)
            return Derivation(p + "anno", ctx, e, SYNTH, ty, inner.valueness,
                               (inner,))
        case App(fn, arg):
            rf = expose(s, ctx, fn, synth(s, ctx, fn), "arrow")
            ra = _check(s, ctx, arg, rf.ty.dom)
            return Derivation(p + "arrow-elim", ctx, e, SYNTH, rf.ty.cod, TOP,
                               (rf, ra))
        case Proj(k, body):
            rb = expose(s, ctx, body, synth(s, ctx, body), "prod")
            ty = rb.ty.left if k == 1 else rb.ty.right
            return Derivation(p + "prod-elim", ctx, e, SYNTH, ty, TOP, (rb,),
                               {"k": k})
        case TyApp(body, arg_ty):
            if not ty_wf(ctx, arg_ty):
                raise IllFormedType(f"type argument is not well-formed: {arg_ty!r}")
            if not rec_guarded(arg_ty):
                raise GuardednessViolation(
                    f"unguarded recursive type argument: {arg_ty!r}"
                )
            rb = expose(s, ctx, body, synth(s, ctx, body), "forall")
            ty = instantiate(rb.ty, arg_ty)
            return Derivation(p + "all-elim", ctx, e, SYNTH, ty, rb.valueness,
                               (rb,), {"ty_arg": arg_ty})
        case EoApp(body, eo):
            if not eo_wf(ctx, eo):
                raise IllFormedType(f"evaluation order not in scope: {eo!r}")
            rb = expose(s, ctx, body, synth(s, ctx, body), "alleo")
            ty = instantiate(rb.ty, eo)
            return Derivation(p + "alleo-elim", ctx, e, SYNTH, ty, rb.valueness,
                               (rb,), {"eo": eo})
        case Case(_, _, _, _, _):
            raise CannotSynthesize("a case expression only checks; annotate it")
        case Unit() | Lam(_, _) | Pair(_, _) | Inj(_, _) | TyLam(_, _) | Fix(_, _):
            raise CannotSynthesize(
                f"introduction form needs a type annotation: {e!r}"
            )
    raise CannotSynthesize(f"cannot synthesize a type for {e!r}")


_EXPOSE_ERROR = {
    "arrow": (NotAFunction, "not a function"),
    "prod": (NotAProduct, "not a product"),
    "sum": (NotASum, "not a sum"),
    "forall": (ExposeFailed, "not a universal type"),
    "alleo": (ExposeFailed, "not an order-polymorphic type"),
}


def expose(s: System, ctx: Ctx, e: Expr, r: Derivation,
           want: str) -> Derivation:
    """Strip suspensions and unroll recursive heads until the connective
    ``want`` shows (or fail).

    Quantifiers are never auto-instantiated: exposure stops at the first
    head that is neither a suspension nor recursive.  The synthesized type
    is guarded, so each step takes a layer off its head and the loop ends.
    """
    cls = getattr(s, want)
    while not isinstance(r.ty, cls):
        if isinstance(r.ty, SSusp):
            r = strip(s, ctx, e, r)
        elif isinstance(r.ty, s.rec):
            r = _unroll(s, ctx, e, r)
        else:
            err, msg = _EXPOSE_ERROR[want]
            raise err(f"{msg}: synthesized {r.ty!r}")
    return r
