"""From the suspension-point system into the explicit core language.

``ty_target`` rewrites types (a by-name suspension becomes a thunk type,
an order quantifier becomes the product of its two instantiations) and
``elaborate`` walks a checking derivation emitting core terms.  The walk
re-checks each order-quantifier introduction twice, once per concrete
order, because instantiating an order variable can only sharpen
valuenesses; the two elaborations are paired, and instantiation sites
project.  The cost is exponential in quantifier nesting, which is
accepted: each instantiation is a program the source author would
otherwise write by hand.

``check_elab`` answers membership in the elaboration relation itself:
does erased source ``e`` elaborate at ``S`` to exactly ``M``?  It is a
memoized search driven by the core term's head.  At an elimination site
the premise's type is synthesized from the pair itself where it can be:
along a spine of variables and elimination artifacts each rule's
conclusion is a function of its premise's, so ``ElabChecker._synth``
answers with a type (the only one tried), a refutation (the pair relates
at no type: a miss), or None (not a determinate spine).  Only on
None does the site try candidates, drawn from the concluding type's
subterms, the context, a caller-supplied pool, and (for recursive and
quantified heads) complete local inversions.  The pool is the set of
types the program's own checking derivation names, closed one step under
subterms, order instantiation and unrolling (``verify.build_pool``):
every intermediate type of an elaboration of the program is among them.
The checker holds the pool as a ``syntax.Listed``: it may be handed over
unbuilt, as a function of no arguments, which the first joint that tries
candidates calls, so never when the terms decide every joint.  The pool
is closed under subterms, so each goal's candidate list walks only the
goal and the context's types, and a joint's fallback list (of arrows,
products, order pairs, quantifiers or refoldings) is a ``Listed``, built
only as far as the search reads it.  The search recurses on strict
subterms of the core term, so it terminates without fuel; a miss means
that no derivation exists over the candidate types, and a success is
never spurious.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterator

from . import bidir
from .econ import ECON
from .errors import ElaborationError, EvalOrderVarInContext, InstantiationNotClosed
from .syntax import (
    AArrow,
    AForall,
    App,
    AProd,
    ARec,
    ASum,
    AThunk,
    ATyVar,
    AUnit,
    Case,
    Derivation,
    EconCtx,
    EconType,
    Expr,
    Fix,
    FixVar,
    Inj,
    Lam,
    Listed,
    MApp,
    MCase,
    MFix,
    MFixVar,
    MForce,
    MInj,
    MLam,
    MPair,
    MProj,
    MRoll,
    MTyApp,
    MTyLam,
    MThunk,
    MUnit,
    MUnroll,
    MVar,
    N,
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
    Term,
    TgtType,
    TOP,
    Unit,
    V,
    VAL,
    Valueness,
    Var,
    alpha_key,
    free_names,
    instantiate,
    join,
    kept,
    match_instantiate,
    rebuild,
    refold_candidates,
    subst1,
    unfold,
    vacuous,
)
from .target import _carry, is_value

__all__ = [
    "ElabChecker",
    "ElabResult",
    "ty_target",
    "elaborate",
    "check_elab",
]


# ---------------------------------------------------------------------------
# Type translation
# ---------------------------------------------------------------------------

@kept
def ty_target(ty: EconType) -> TgtType:
    """``ty``'s core type.  Kept on the node, so each node object is
    translated once, and the translations of types that share a subtree
    object share its translation."""
    match ty:
        case SUnit():
            return AUnit()
        case STyVar(name):
            return ATyVar(name)
        case SForall(var, body):
            return AForall(var, ty_target(body))
        case SAllEo():
            return AProd(ty_target(instantiate(ty, V)),
                         ty_target(instantiate(ty, N)))
        case SSusp(eo, body):
            if eo == V:
                return ty_target(body)
            if eo == N:
                return AThunk(ty_target(body))
            raise EvalOrderVarInContext(
                f"cannot translate a type with a free order variable: {ty!r}"
            )
        case SArrow(dom, cod):
            return AArrow(ty_target(dom), ty_target(cod))
        case SProd(left, right):
            return AProd(ty_target(left), ty_target(right))
        case SSum(left, right):
            return ASum(ty_target(left), ty_target(right))
        case SRec(var, body):
            return ARec(var, ty_target(body))
        case _:
            raise TypeError(f"not an economical type: {ty!r}")


# ---------------------------------------------------------------------------
# Derivation-directed elaboration
# ---------------------------------------------------------------------------

@dataclass
class ElabResult:
    valueness: Valueness
    term: Term


def elaborate(d: Derivation) -> ElabResult:
    """Emit a core term from a suspension-point checking derivation.

    The derivation's context must not declare order variables; order
    quantifiers inside are handled by re-checking their subject under each
    concrete order.
    """
    if d.ctx.has_eo_decls():
        raise EvalOrderVarInContext(
            "elaboration requires an order-variable-free context"
        )
    return _elab(d)


def _elab(d: Derivation) -> ElabResult:
    rule = d.rule
    if rule in ("r-sub", "r-anno"):
        return _elab(d.children[0])
    if rule == "r-var":
        return ElabResult(VAL, MVar(d.expr.name))
    if rule == "r-fixvar":
        return ElabResult(TOP, MFixVar(d.expr.name))
    if rule == "r-unit-intro":
        return ElabResult(VAL, MUnit())
    if rule == "r-fix":
        inner = _elab(d.children[0])
        return ElabResult(TOP, MFix(d.get("var"), inner.term))
    if rule == "r-all-intro":
        inner = _elab(d.children[0])
        if inner.valueness != VAL:
            raise ElaborationError("polymorphic subject elaborated to a non-value")
        return ElabResult(VAL, MTyLam(inner.term))
    if rule == "r-all-elim":
        inner = _elab(d.children[0])
        return ElabResult(inner.valueness, MTyApp(inner.term))
    if rule == "r-alleo-intro":
        child = d.children[0]
        var = d.get("var")
        parts = []
        for eo in (V, N):
            e_inst = subst1(child.expr, "eo", var, eo)
            ty_inst = subst1(child.ty, "eo", var, eo)
            inner = _elab(bidir._check(ECON, d.ctx, e_inst, ty_inst))
            if inner.valueness != VAL:
                raise ElaborationError(
                    "order-polymorphic subject elaborated to a non-value"
                )
            parts.append(inner.term)
        return ElabResult(VAL, MPair(parts[0], parts[1]))
    if rule == "r-alleo-elim":
        eo = d.get("eo")
        if eo.is_var():
            raise InstantiationNotClosed(
                "instantiating with an order variable at elaboration time"
            )
        inner = _elab(d.children[0])
        return ElabResult(inner.valueness, MProj(1 if eo == V else 2, inner.term))
    if rule == "r-susp-intro":
        eo = d.get("eo")
        inner = _elab(d.children[0])
        if eo == V:
            return inner
        if eo == N:
            return ElabResult(VAL, MThunk(inner.term))
        raise InstantiationNotClosed(
            "suspension under a free order variable at elaboration time"
        )
    if rule == "r-susp-elim-v":
        return _elab(d.children[0])
    if rule == "r-susp-elim-eo":
        eo = d.get("eo")
        inner = _elab(d.children[0])
        if eo == V:
            return inner
        if eo == N:
            return ElabResult(TOP, MForce(inner.term))
        raise InstantiationNotClosed(
            "stripping a suspension under a free order variable"
        )
    if rule == "r-arrow-intro":
        inner = _elab(d.children[0])
        return ElabResult(VAL, MLam(d.get("var"), inner.term))
    if rule == "r-arrow-elim":
        fn = _elab(d.children[0])
        arg = _elab(d.children[1])
        return ElabResult(TOP, MApp(fn.term, arg.term))
    if rule == "r-prod-intro":
        left = _elab(d.children[0])
        right = _elab(d.children[1])
        return ElabResult(join(left.valueness, right.valueness),
                          MPair(left.term, right.term))
    if rule == "r-prod-elim":
        inner = _elab(d.children[0])
        return ElabResult(TOP, MProj(d.get("k"), inner.term))
    if rule == "r-sum-intro":
        inner = _elab(d.children[0])
        return ElabResult(inner.valueness, MInj(d.get("k"), inner.term))
    if rule == "r-sum-elim":
        scrut = _elab(d.children[0])
        b1 = _elab(d.children[1])
        b2 = _elab(d.children[2])
        return ElabResult(
            TOP,
            MCase(scrut.term, d.get("var1"), b1.term, d.get("var2"), b2.term),
        )
    if rule == "r-rec-intro":
        inner = _elab(d.children[0])
        return ElabResult(inner.valueness, MRoll(inner.term))
    if rule == "r-rec-elim":
        inner = _elab(d.children[0])
        return ElabResult(TOP, MUnroll(inner.term))
    raise ElaborationError(f"cannot elaborate rule {rule}")


# ---------------------------------------------------------------------------
# Membership in the elaboration relation
# ---------------------------------------------------------------------------

@kept
def _nf(ty: EconType) -> EconType:
    """Erase every by-value suspension: they elaborate to nothing and
    preserve valueness, so membership in the elaboration relation is
    invariant under them at any depth."""
    if isinstance(ty, SSusp) and ty.eo == V:
        return _nf(ty.body)
    return rebuild(ty, _nf)


# What each elimination rule concludes from its premise's type, or False
# when the premise has the wrong shape.

def _unrolled(t: EconType) -> EconType | bool:
    return _nf(unfold(t)) if isinstance(t, SRec) else False


def _forced(t: EconType) -> EconType | bool:
    return t.body if isinstance(t, SSusp) and t.eo == N else False


def _cod(t: EconType) -> EconType | bool:
    return t.cod if isinstance(t, SArrow) else False


def _instance(t: EconType, k: int) -> EconType | bool:
    return (_nf(instantiate(t, V if k == 1 else N))
            if isinstance(t, SAllEo) else False)


def _component(t: EconType, k: int) -> EconType | bool:
    return (t.left if k == 1 else t.right) if isinstance(t, SProd) else False


def _then(premise: Valueness | None, v: Valueness) -> Valueness | None:
    """A rule's valueness ``v`` once its premises relate, else None."""
    return None if premise is None else v


def _assumed(ctx: EconCtx) -> tuple[EconType, ...]:
    """The types ``ctx`` assumes of its term and fixed-point variables."""
    return tuple(t for kind, _, t in ctx.entries if kind in ("x", "u"))


def _matches(t, goal: EconType) -> bool:
    return t is not False and alpha_key(t) == alpha_key(goal)


def _arrows(cands: list, ty: EconType, k: int) -> Iterator[EconType]:
    """An application's candidate function types at the goal ``ty``: the
    candidates that are arrows into ``ty``, then an arrow from each
    candidate into ``ty``.  (``k`` is unused.)"""
    return chain((a for a in cands if _matches(_cod(a), ty)),
                 (SArrow(dom, ty) for dom in cands))


def _products(cands: list, ty: EconType, k: int) -> Iterator[EconType]:
    """The candidate product types for projection ``k`` at the goal
    ``ty``: the candidates whose ``k``-th component is ``ty``, then a
    product of ``ty`` with each candidate on the other side."""
    return chain((p for p in cands if _matches(_component(p, k), ty)),
                 (SProd(ty, o) if k == 1 else SProd(o, ty) for o in cands))


class ElabChecker:
    """Reusable membership checker for the elaboration relation.

    ``_synth`` decides every elimination joint it can: a pair (e, M) along
    a spine of variables and elimination artifacts relates at one type at
    most, so its answer is that type, False (a refutation: the pair
    relates at no type), or None (not a determinate spine).  A type is the
    only candidate the joint tries, a refutation is a miss, and only
    None falls back to the candidate types of the goal, the context and
    the pool, tried in turn by ``_first``.  One instance owns the pool and
    the memo tables, so a simulation run can re-relate many (source, core)
    pairs cheaply.  The pool is a ``Listed`` of the caller's types in
    suspension normal form, built at the first fallback that reads it, so
    a checker whose every joint is decided builds none of it.

    The check decides membership over those candidate lists, and the memo
    keeps every answer, misses included.  Each rule recurses on a strict
    subterm of the core term (a field, or a binder's field opened at a
    variable; never a contractum or an unfolding), so the search ends by
    structural recursion, without fuel.
    """

    def __init__(self, pool: tuple[EconType, ...] | Callable[[], tuple] = ()):
        self._pool = Listed(pool, _nf)
        self.memo: dict = {}
        self._cand_cache: dict = {}
        self._syn_cache: dict = {}

    def check(self, e: Expr, ty: EconType, m: Term) -> Valueness | None:
        return self._ce(EconCtx(), e, ty, m)

    # -- plumbing ---------------------------------------------------------

    def _candidates(self, ty: EconType, ctx: EconCtx) -> list[EconType]:
        """``distinct_subterms((*pool, SUnit(), ty, *assumed))``: the pool
        is closed under subterms, so each goal walks only its own types."""
        key = (alpha_key(ty), ctx.entries)
        hit = self._cand_cache.get(key)
        if hit is None:
            hit = self._pool.then((SUnit(), ty, *_assumed(ctx)))
            self._cand_cache[key] = hit
        return hit

    def _fallback(self, build, ty: EconType, ctx: EconCtx, k: int = 0) -> Listed:
        """The alpha-distinct types of ``build(_candidates(ty, ctx), ty,
        k)``: a joint's fallback list, kept per build, ``k``, goal and
        context, and built only as far as it is read.  The key holds the
        goal node itself, so each visit reads the list its first visit
        began, node for node."""
        key = (build, k, ty, ctx.entries)
        hit = self._cand_cache.get(key)
        if hit is None:
            hit = Listed(build(self._candidates(ty, ctx), ty, k))
            self._cand_cache[key] = hit
        return hit

    def _synth(self, ctx: EconCtx, e: Expr,
               m: Term) -> EconType | bool | None:
        """The one type at which the elimination spine (e, m) can relate.

        Each rule along the spine concludes a function of its premise's
        type, so the answer is that type, False when the pair relates at
        no type, or None when (e, m) is not a determinate spine."""
        key = (ctx.entries, e, m)
        if key in self._syn_cache:
            return self._syn_cache[key]
        out = None
        match m:
            case MVar(x) | MFixVar(x):
                kind, var = ("x", Var) if isinstance(m, MVar) else ("u", FixVar)
                out = (_nf(ctx.lookup(kind, x))
                       if isinstance(e, var) and e.name == x
                       and ctx.declares(kind, x) else False)
            case MUnroll(m1):
                out = _carry(self._synth(ctx, e, m1), _unrolled)
            case MForce(m1):
                out = _carry(self._synth(ctx, e, m1), _forced)
            case MApp(m1, _):
                out = (_carry(self._synth(ctx, e.fn, m1), _cod)
                       if isinstance(e, App) else False)
            case MProj(k, m1):
                # Two rule families project, from an order pair and from
                # a product.  A refutation by one leaves the other's
                # answer; two types stay ambiguous.
                a = _carry(self._synth(ctx, e, m1), lambda t: _instance(t, k))
                b = (_carry(self._synth(ctx, e.body, m1),
                            lambda t: _component(t, k))
                     if isinstance(e, Proj) and e.k == k else False)
                out = b if a is False else a if b is False else None
        self._syn_cache[key] = out
        return out

    def _decided(self, ctx: EconCtx, e: Expr, m: Term, fits) -> list | None:
        """The premise types a spine leaves for (e, m): its synthesized
        type if that ``fits``, none if not or if refuted, and None when
        the spine is not determinate."""
        t = self._synth(ctx, e, m)
        if t is None:
            return None
        return [t] if t is not False and fits(t) else []

    def _first(self, cands, premises) -> Valueness | None:
        """Try each candidate type in turn: the valueness of the last
        premise at the first candidate where every premise relates, else
        None."""
        for cand in cands:
            for ctx, e, ty, m in premises(cand):
                v = self._ce(ctx, e, ty, m)
                if v is None:
                    break
            else:
                return v
        return None

    @staticmethod
    def _open(ctx: EconCtx, x: str, e: Expr, m: Term, field: str = "body",
              ref: tuple[type, type] = (Var, MVar)):
        """The name the source binder ``x`` is opened at, and both binders'
        ``field`` opened at it through the source and core reference
        classes ``ref``.  The name is apart from ``m``'s free names, which
        ``m``'s binder, of another name, must not capture."""
        z = ctx.apart(x, "x", "u", scope=(e, m))
        return z, instantiate(e, ref[0](z), field), instantiate(m, ref[1](z), field)

    @staticmethod
    def _restrict(ctx: EconCtx, e: Expr, m: Term) -> EconCtx:
        """Drop context entries the query cannot observe, so memoized
        results are shared across unrelated candidate bindings."""
        keep = (free_names(e, "x") | free_names(e, "u")
                | free_names(m, "x") | free_names(m, "u"))
        entries = tuple(en for en in ctx.entries
                        if en[0] in ("ty", "eo") or en[1] in keep)
        if len(entries) == len(ctx.entries):
            return ctx
        return EconCtx(entries)

    def _ce(self, ctx: EconCtx, e: Expr, ty: EconType,
            m: Term) -> Valueness | None:
        ty = _nf(ty)
        ctx = self._restrict(ctx, e, m)
        key = (ctx.entries, e, ty, m)
        if key in self.memo:
            return self.memo[key]
        result = self._rules(ctx, e, ty, m)
        if result == TOP and is_value(m):
            raise ElaborationError(
                "internal: a core value elaborated at a non-val valueness"
            )
        self.memo[key] = result
        return result

    def _rules(self, ctx: EconCtx, e: Expr, ty: EconType,
               m: Term) -> Valueness | None:
        match m:
            case MVar(_) | MFixVar(_):
                if _matches(self._synth(ctx, e, m), ty):
                    return VAL if isinstance(m, MVar) else TOP
            case MUnit():
                if isinstance(e, Unit) and isinstance(ty, SUnit):
                    return VAL
            case MLam():
                if isinstance(e, Lam) and isinstance(ty, SArrow):
                    z, eb, mb = self._open(ctx, e.var, e, m)
                    return _then(self._ce(ctx.with_x(z, ty.dom), eb, ty.cod, mb), VAL)
            case MTyLam(mbody):
                if isinstance(ty, SForall):
                    a = ctx.apart(ty.var, "ty", scope=(ty, e, *_assumed(ctx)))
                    if self._ce(ctx.with_ty(a), e, instantiate(ty, STyVar(a)),
                                mbody) == VAL:
                        return VAL
            case MThunk(mbody):
                if isinstance(ty, SSusp) and ty.eo == N:
                    return _then(self._ce(ctx, e, ty.body, mbody), VAL)
            case MFix():
                if isinstance(e, Fix):
                    z, eb, mb = self._open(ctx, e.var, e, m, ref=(FixVar, MFixVar))
                    return _then(self._ce(ctx.with_u(z, ty), eb, ty, mb), TOP)
            case MPair(m1, m2):
                if (isinstance(ty, SAllEo)
                        and self._ce(ctx, e, _instance(ty, 1), m1) == VAL
                        and self._ce(ctx, e, _instance(ty, 2), m2) == VAL):
                    return VAL
                if isinstance(ty, SProd) and isinstance(e, Pair):
                    v1 = self._ce(ctx, e.left, ty.left, m1)
                    v2 = None if v1 is None else self._ce(ctx, e.right, ty.right, m2)
                    if v2 is not None:
                        return join(v1, v2)
            case MInj(k, mbody):
                if isinstance(ty, SSum) and isinstance(e, Inj) and e.k == k:
                    comp = ty.left if k == 1 else ty.right
                    return self._ce(ctx, e.body, comp, mbody)
            case MRoll(mbody):
                if isinstance(ty, SRec):
                    return self._ce(ctx, e, _unrolled(ty), mbody)
            case MForce(mbody):
                return _then(self._ce(ctx, e, SSusp(N, ty), mbody), TOP)
            case MApp(m1, m2):
                if not isinstance(e, App):
                    return None
                arrows = self._decided(ctx, e.fn, m1,
                                       lambda t: _matches(_cod(t), ty))
                if arrows is None:
                    arrows = self._fallback(_arrows, ty, ctx)
                # The argument side is cheaper and shared across arrows
                # with the same domain, so try it first.
                return _then(self._first(arrows, lambda a: [
                    (ctx, e.arg, a.dom, m2), (ctx, e.fn, a, m1)]), TOP)
            case MProj(k, mbody):
                # The order-pair family first: its valueness is returned.
                pairs = self._decided(ctx, e, mbody,
                                      lambda t: _matches(_instance(t, k), ty))
                if pairs is None:
                    pairs = Listed(chain(
                        (vacuous(SAllEo, "eo", ty),),
                        (c for c in self._pool if _matches(_instance(c, k), ty))))
                v = self._first(pairs, lambda a: [(ctx, e, a, mbody)])
                if v is not None or not (isinstance(e, Proj) and e.k == k):
                    return v
                prods = self._decided(ctx, e.body, mbody,
                                      lambda t: _matches(_component(t, k), ty))
                if prods is None:
                    prods = self._fallback(_products, ty, ctx, k)
                return _then(
                    self._first(prods, lambda p: [(ctx, e.body, p, mbody)]), TOP)
            case MUnroll(mbody):
                recs = self._decided(ctx, e, mbody,
                                     lambda t: _matches(_unrolled(t), ty))
                if recs is None:
                    recs = refold_candidates(ty)
                return _then(self._first(recs, lambda r: [(ctx, e, r, mbody)]), TOP)
            case MCase(ms):
                if not isinstance(e, Case):
                    return None
                sums = self._decided(ctx, e.scrut, ms,
                                     lambda t: isinstance(t, SSum))
                if sums is None:
                    sums = [c for c in self._candidates(ty, ctx)
                            if isinstance(c, SSum)]
                z1, eb1, mb1 = self._open(ctx, e.var1, e, m, "body1")
                z2, eb2, mb2 = self._open(ctx, e.var2, e, m, "body2")
                return _then(self._first(sums, lambda s: [
                    (ctx, e.scrut, s, ms),
                    (ctx.with_x(z1, s.left), eb1, ty, mb1),
                    (ctx.with_x(z2, s.right), eb2, ty, mb2)]), TOP)
            case MTyApp(mbody):
                def fits(t):
                    return (isinstance(t, SForall) and
                            match_instantiate(t, ty) is not None)
                foralls = self._decided(ctx, e, mbody, fits)
                if foralls is None:
                    foralls = Listed(chain((vacuous(SForall, "ty", ty),),
                                           (f for f in self._pool if fits(f))))
                return self._first(foralls, lambda f: [(ctx, e, f, mbody)])
        return None


def check_elab(e: Expr, ty: EconType, m: Term,
               pool: tuple[EconType, ...] = ()) -> Valueness | None:
    """One-shot membership query; see :class:`ElabChecker`.

    Returns a derivable valueness (core values always report val), or None
    when no derivation exists over the candidate types.
    """
    return ElabChecker(pool).check(e, ty, m)
