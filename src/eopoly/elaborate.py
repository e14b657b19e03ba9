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
memoized backtracking search keyed by the core term's head and the type's
head.  Elimination sites whose intermediate type the pair (e, M) does not
determine draw candidates from the concluding type's subterms, a
caller-supplied pool, and (for recursive and quantified heads) complete
local inversions.  The pool is the set of types the program's own
checking derivation names, closed one step under subterms, order
instantiation and unrolling (``verify.build_pool``): every intermediate
type of an elaboration of the program is among them.  The search is
bounded; a miss means "not found within bounds", never a spurious
success.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .econ import EconCtx, _check as _econ_check_internal, UNROLL_LIMIT
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
    EconType,
    Expr,
    Fix,
    FixVar,
    Inj,
    Lam,
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
    TgtCtx,
    TgtType,
    TOP,
    Unit,
    V,
    VAL,
    Valueness,
    Var,
    alpha_eq,
    alpha_key,
    children,
    dedup,
    free_names,
    fresh_name,
    join,
    match_instantiate,
    node_count,
    refold_candidates,
    subst_eo,
    subst_expr,
    subst_fix_expr,
    subst_fix_term,
    subst_term,
    subst_ty_in_ty,
    subterms,
    unfold,
)
from .target import is_value

__all__ = [
    "ElabChecker",
    "ElabResult",
    "ty_target",
    "ctx_target",
    "elaborate",
    "check_elab",
]


# ---------------------------------------------------------------------------
# Type translation
# ---------------------------------------------------------------------------

def ty_target(ty: EconType) -> TgtType:
    match ty:
        case SUnit():
            return AUnit()
        case STyVar(name):
            return ATyVar(name)
        case SForall(var, body):
            return AForall(var, ty_target(body))
        case SAllEo(var, body):
            return AProd(
                ty_target(subst_eo(V, var, body)),
                ty_target(subst_eo(N, var, body)),
            )
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
    raise TypeError(f"not an economical type: {ty!r}")


def ctx_target(ctx: EconCtx) -> TgtCtx:
    out = TgtCtx()
    for kind, name, payload in ctx.entries:
        if kind == "eo":
            raise EvalOrderVarInContext(
                "the context declares an evaluation-order variable"
            )
        if kind == "ty":
            out = out.with_ty(name)
        elif kind == "x":
            out = out.with_x(name, ty_target(payload))
        else:
            out = out.with_u(name, ty_target(payload))
    return out


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
            e_inst = subst_eo(eo, var, child.expr)
            ty_inst = subst_eo(eo, var, child.ty)
            d_inst = _econ_check_internal(d.ctx, e_inst, ty_inst, UNROLL_LIMIT)
            inner = _elab(d_inst.deriv)
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

@lru_cache(maxsize=None)
def _nf(ty: EconType) -> EconType:
    """Erase every by-value suspension: they elaborate to nothing and
    preserve valueness, so membership in the elaboration relation is
    invariant under them at any depth."""
    match ty:
        case SSusp(eo, body):
            return _nf(body) if eo == V else SSusp(eo, _nf(body))
        case SArrow(dom, cod):
            return SArrow(_nf(dom), _nf(cod))
        case SProd(l, r):
            return SProd(_nf(l), _nf(r))
        case SSum(l, r):
            return SSum(_nf(l), _nf(r))
        case SForall(v, b):
            return SForall(v, _nf(b))
        case SAllEo(v, b):
            return SAllEo(v, _nf(b))
        case SRec(v, b):
            return SRec(v, _nf(b))
    return ty


# Source constructors and their core images, by counter position.
_COUNTED = {c: i for i, pair in enumerate([
    (Lam, MLam), (App, MApp), (Fix, MFix), (Case, MCase), (Pair, MPair),
    (Inj, MInj), (Unit, MUnit), (Proj, MProj), (Var, MVar), (FixVar, MFixVar),
]) for c in pair}


@lru_cache(maxsize=None)
def _ctor_counts(node: Expr | Term) -> tuple[int, ...]:
    """Occurrences of each counted constructor in an expression or a core
    term (annotation types are not entered)."""
    out = [0] * 10
    i = _COUNTED.get(type(node))
    if i is not None:
        out[i] = 1
    for _, v in children(node):
        if isinstance(v, (Expr, Term)):
            for j, n in enumerate(_ctor_counts(v)):
                out[j] += n
    return tuple(out)


class ElabChecker:
    """Reusable membership checker for the elaboration relation.

    One instance owns the candidate pool and a memo table, so a
    simulation run can re-relate many (source, core) pairs cheaply.
    Successes are always cached; failures only when computed without
    hitting the depth bound (so a cached "no" is definitive).  After each
    :meth:`check`, ``clean`` tells whether the search ran to completion:
    a miss with ``clean`` False was cut by the bound, not refuted.
    """

    def __init__(self, pool: tuple[EconType, ...] = ()):
        self.pool = tuple(dedup([_nf(p) for p in pool]))
        self.clean = True
        self.memo: dict = {}
        self.in_progress: set = set()
        self._cand_cache: dict = {}
        self._syn_cache: dict = {}
        self._pool_foralls = [p for p in self.pool if isinstance(p, SForall)]
        self._pool_alleos = [p for p in self.pool if isinstance(p, SAllEo)]
        self._pool_subterms = dedup(
            [s for p in self.pool for s in subterms(p)] + [SUnit()]
        )

    def check(self, e: Expr, ty: EconType, m: Term) -> Valueness | None:
        budget = 2 * (node_count(m) + node_count(ty)) + 64
        result, self.clean = self._ce(EconCtx(), e, _nf(ty), m, budget)
        return result

    # -- plumbing ---------------------------------------------------------

    def _candidates(self, ty: EconType, ctx: EconCtx) -> list[EconType]:
        key = (alpha_key(ty), ctx.entries)
        hit = self._cand_cache.get(key)
        if hit is None:
            cands = list(self._pool_subterms) + subterms(ty)
            for kind, _, payload in ctx.entries:
                if kind in ("x", "u"):
                    cands.extend(subterms(payload))
            hit = dedup(cands)
            self._cand_cache[key] = hit
        return hit

    def _arrow_cands(self, ty: EconType, ctx: EconCtx) -> list[SArrow]:
        key = ("arr", alpha_key(ty), ctx.entries)
        hit = self._cand_cache.get(key)
        if hit is None:
            tkey = alpha_key(ty)
            cands = self._candidates(ty, ctx)
            arrows = [a for a in cands
                      if isinstance(a, SArrow) and alpha_key(a.cod) == tkey]
            arrows += [SArrow(dom, ty) for dom in cands]
            hit = dedup(arrows)
            self._cand_cache[key] = hit
        return hit

    def _prod_cands(self, ty: EconType, k: int, ctx: EconCtx) -> list[SProd]:
        key = ("prod", k, alpha_key(ty), ctx.entries)
        hit = self._cand_cache.get(key)
        if hit is None:
            tkey = alpha_key(ty)
            cands = self._candidates(ty, ctx)
            prods = [p for p in cands
                     if isinstance(p, SProd)
                     and alpha_key(p.left if k == 1 else p.right) == tkey]
            prods += [SProd(ty, other) if k == 1 else SProd(other, ty)
                      for other in cands]
            hit = dedup(prods)
            self._cand_cache[key] = hit
        return hit

    def _esynth(self, ctx: EconCtx, e: Expr, m: Term) -> EconType | None:
        """The one type at which an elimination spine can relate.

        Along a spine of variables and elimination artifacts the relating
        type is unique (each rule's conclusion is a function of its
        premise's), so a definite answer here both selects the candidate
        and licenses outright rejection; None means "not a determinate
        spine", never "does not relate"."""
        key = (ctx.entries, e, m)
        hit = self._syn_cache.get(key, False)
        if hit is not False:
            return hit
        out: EconType | None = None
        match m:
            case MVar(x):
                if isinstance(e, Var) and e.name == x and ctx.declares("x", x):
                    out = _nf(ctx.lookup("x", x))
            case MFixVar(u):
                if isinstance(e, FixVar) and e.name == u and ctx.declares("u", u):
                    out = _nf(ctx.lookup("u", u))
            case MUnroll(m1):
                t = self._esynth(ctx, e, m1)
                if isinstance(t, SRec):
                    out = _nf(unfold(t))
            case MForce(m1):
                t = self._esynth(ctx, e, m1)
                if isinstance(t, SSusp) and t.eo == N:
                    out = t.body
            case MApp(m1, _):
                if isinstance(e, App):
                    t = self._esynth(ctx, e.fn, m1)
                    if isinstance(t, SArrow):
                        out = t.cod
            case MProj(k, m1):
                # Two rule families project; only an unambiguous spine
                # determines the conclusion.
                a = self._esynth(ctx, e, m1)
                a = (_nf(subst_eo(V if k == 1 else N, a.var, a.body))
                     if isinstance(a, SAllEo) else None)
                b = None
                if isinstance(e, Proj) and e.k == k:
                    t = self._esynth(ctx, e.body, m1)
                    if isinstance(t, SProd):
                        b = t.left if k == 1 else t.right
                if a is not None and b is None:
                    out = a
                elif b is not None and a is None:
                    out = b
        self._syn_cache[key] = out
        return out

    def _spine(self, ctx: EconCtx, e: Expr, m: Term) -> bool:
        """True when (e, m) is a determinate elimination spine, i.e.
        _esynth's answer (or its absence) is authoritative."""
        match m:
            case MVar(_) | MFixVar(_):
                return True
            case MUnroll(m1) | MForce(m1):
                return self._spine(ctx, e, m1)
            case MApp(m1, _):
                return isinstance(e, App) and self._spine(ctx, e.fn, m1)
            case MProj(k, m1):
                d = self._spine(ctx, e, m1)
                p = (isinstance(e, Proj) and e.k == k
                     and self._spine(ctx, e.body, m1))
                return d != p or (d and p and self._esynth(ctx, e, m) is not None)
        return False

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

    def _ce(self, ctx: EconCtx, e: Expr, ty: EconType, m: Term,
            depth: int) -> tuple[Valueness | None, bool]:
        ty = _nf(ty)
        ctx = self._restrict(ctx, e, m)
        key = (ctx.entries, e, ty, m)
        if key in self.memo:
            return self.memo[key], True
        if key in self.in_progress:
            return None, False
        if depth <= 0:
            return None, False
        if any(a > b for a, b in zip(_ctor_counts(e), _ctor_counts(m))):
            # Every source constructor reappears in the core term at least
            # once; a shortfall refutes membership outright.
            self.memo[key] = None
            return None, True
        self.in_progress.add(key)
        try:
            result, clean = self._rules(ctx, e, ty, m, depth)
        finally:
            self.in_progress.discard(key)
        if result is not None:
            if is_value(m) and result != VAL:
                raise ElaborationError(
                    "internal: a core value elaborated at a non-val valueness"
                )
            self.memo[key] = result
        elif clean:
            self.memo[key] = None
        return result, clean

    def _rules(self, ctx: EconCtx, e: Expr, ty: EconType, m: Term,
               depth: int) -> tuple[Valueness | None, bool]:
        d = depth - 1
        match m:
            case MVar(x):
                if isinstance(e, Var) and e.name == x and ctx.declares("x", x):
                    if alpha_key(_nf(ctx.lookup("x", x))) == alpha_key(ty):
                        return VAL, True
                return None, True
            case MFixVar(u):
                if isinstance(e, FixVar) and e.name == u and ctx.declares("u", u):
                    if alpha_key(_nf(ctx.lookup("u", u))) == alpha_key(ty):
                        return TOP, True
                return None, True
            case MUnit():
                if isinstance(e, Unit) and isinstance(ty, SUnit):
                    return VAL, True
                return None, True
            case MLam(mx, mbody):
                if not (isinstance(e, Lam) and isinstance(ty, SArrow)):
                    return None, True
                z = fresh_name(e.var, ctx.names()
                               | free_names(e.body, "x") | free_names(mbody, "x"))
                eb = subst_expr(Var(z), e.var, e.body)
                mb = subst_term(MVar(z), mx, mbody)
                inner, c = self._ce(ctx.with_x(z, ty.dom), eb, ty.cod, mb, d)
                return (VAL if inner is not None else None), c
            case MTyLam(mbody):
                if not isinstance(ty, SForall):
                    return None, True
                a = ctx.fresh(ty.var, "ty")
                body_ty = subst_ty_in_ty(STyVar(a), ty.var, ty.body)
                inner, c = self._ce(ctx.with_ty(a), e, body_ty, mbody, d)
                return (VAL if inner == VAL else None), c
            case MThunk(mbody):
                if isinstance(ty, SSusp) and ty.eo == N:
                    inner, c = self._ce(ctx, e, ty.body, mbody, d)
                    return (VAL if inner is not None else None), c
                return None, True
            case MFix(mu, mbody):
                if not isinstance(e, Fix):
                    return None, True
                z = fresh_name(e.var, ctx.names()
                               | free_names(e.body, "u") | free_names(mbody, "u"))
                eb = subst_fix_expr(FixVar(z), e.var, e.body)
                mb = subst_fix_term(MFixVar(z), mu, mbody)
                inner, c = self._ce(ctx.with_u(z, ty), eb, ty, mb, d)
                return (TOP if inner is not None else None), c
            case MPair(m1, m2):
                if isinstance(ty, SAllEo):
                    v1, c1 = self._ce(ctx, e, _nf(subst_eo(V, ty.var, ty.body)),
                                      m1, d)
                    if v1 != VAL:
                        return None, c1
                    v2, c2 = self._ce(ctx, e, _nf(subst_eo(N, ty.var, ty.body)),
                                      m2, d)
                    return (VAL if v2 == VAL else None), c2
                if isinstance(ty, SProd) and isinstance(e, Pair):
                    v1, c1 = self._ce(ctx, e.left, ty.left, m1, d)
                    if v1 is None:
                        return None, c1
                    v2, c2 = self._ce(ctx, e.right, ty.right, m2, d)
                    return (join(v1, v2) if v2 is not None else None), c1 and c2
                return None, True
            case MInj(k, mbody):
                if isinstance(ty, SSum) and isinstance(e, Inj) and e.k == k:
                    comp = ty.left if k == 1 else ty.right
                    return self._ce(ctx, e.body, comp, mbody, d)
                return None, True
            case MRoll(mbody):
                if isinstance(ty, SRec):
                    return self._ce(ctx, e, _nf(unfold(ty)), mbody, d)
                return None, True
            case MApp(m1, m2):
                if not isinstance(e, App):
                    return None, True
                clean = True
                guided = self._esynth(ctx, e.fn, m1)
                if guided is not None and self._spine(ctx, e.fn, m1):
                    if not (isinstance(guided, SArrow)
                            and alpha_key(guided.cod) == alpha_key(ty)):
                        return None, True
                    arrows = [guided]
                elif isinstance(guided, SArrow) and alpha_key(guided.cod) == alpha_key(ty):
                    arrows = [guided] + self._arrow_cands(ty, ctx)
                else:
                    arrows = self._arrow_cands(ty, ctx)
                for arr in arrows:
                    # The argument side is cheaper and shared across
                    # arrows with the same domain, so try it first.
                    a, c2 = self._ce(ctx, e.arg, arr.dom, m2, d)
                    if a is None:
                        clean &= c2
                        continue
                    f, c1 = self._ce(ctx, e.fn, arr, m1, d)
                    if f is not None:
                        return TOP, True
                    clean &= c1
                return None, clean
            case MProj(k, mbody):
                clean = True
                for cand in self._alleo_candidates(ty, k):
                    v, c = self._ce(ctx, e, cand, mbody, d)
                    if v is not None:
                        return v, True
                    clean &= c
                if isinstance(e, Proj) and e.k == k:
                    prods = self._prod_cands(ty, k, ctx)
                    guided = self._esynth(ctx, e.body, mbody)
                    if (isinstance(guided, SProd)
                            and alpha_key(guided.left if k == 1 else guided.right)
                            == alpha_key(ty)):
                        prods = [guided] + prods
                    for prod in prods:
                        v, c = self._ce(ctx, e.body, prod, mbody, d)
                        if v is not None:
                            return TOP, True
                        clean &= c
                return None, clean
            case MForce(mbody):
                inner, c = self._ce(ctx, e, SSusp(N, ty), mbody, d)
                return (TOP if inner is not None else None), c
            case MUnroll(mbody):
                if self._spine(ctx, e, m):
                    want = self._esynth(ctx, e, m)
                    if want is None or alpha_key(want) != alpha_key(ty):
                        return None, True
                    g = self._esynth(ctx, e, mbody)
                    inner, c = self._ce(ctx, e, g, mbody, d)
                    return (TOP, True) if inner is not None else (None, c)
                clean = True
                for cand in refold_candidates(ty, self.pool):
                    v, c = self._ce(ctx, e, cand, mbody, d)
                    if v is not None:
                        return TOP, True
                    clean &= c
                return None, clean
            case MCase(ms, mx1, mb1, mx2, mb2):
                if not isinstance(e, Case):
                    return None, True
                clean = True
                sums = [c for c in self._candidates(ty, ctx)
                        if isinstance(c, SSum)]
                guided = self._esynth(ctx, e.scrut, ms)
                if guided is not None and self._spine(ctx, e.scrut, ms):
                    sums = [guided] if isinstance(guided, SSum) else []
                elif isinstance(guided, SSum):
                    sums = [guided] + sums
                for cand in sums:
                    vs, c0 = self._ce(ctx, e.scrut, cand, ms, d)
                    if vs is None:
                        clean &= c0
                        continue
                    z1 = fresh_name(e.var1, ctx.names()
                                    | free_names(e.body1, "x")
                                    | free_names(mb1, "x"))
                    eb1 = subst_expr(Var(z1), e.var1, e.body1)
                    mb1r = subst_term(MVar(z1), mx1, mb1)
                    v1, c1 = self._ce(ctx.with_x(z1, cand.left), eb1, ty, mb1r, d)
                    if v1 is None:
                        clean &= c1
                        continue
                    z2 = fresh_name(e.var2, ctx.names()
                                    | free_names(e.body2, "x")
                                    | free_names(mb2, "x"))
                    eb2 = subst_expr(Var(z2), e.var2, e.body2)
                    mb2r = subst_term(MVar(z2), mx2, mb2)
                    v2, c2 = self._ce(ctx.with_x(z2, cand.right), eb2, ty, mb2r, d)
                    if v2 is not None:
                        return TOP, True
                    clean &= c2
                return None, clean
            case MTyApp(mbody):
                unused = fresh_name("b", free_names(ty, "ty"))
                foralls: list[EconType] = [SForall(unused, ty)]
                foralls += [cand for cand in self._pool_foralls
                            if match_instantiate(cand.body, cand.var, ty) is not None]
                clean = True
                for f in dedup(foralls):
                    v, c = self._ce(ctx, e, f, mbody, d)
                    if v is not None:
                        return v, True
                    clean &= c
                return None, clean
        return None, True

    def _alleo_candidates(self, goal: EconType, k: int) -> list[EconType]:
        var = fresh_name("a", free_names(goal, "eo"))
        out = [SAllEo(var, goal)]
        concrete = V if k == 1 else N
        for cand in self._pool_alleos:
            inst = _nf(subst_eo(concrete, cand.var, cand.body))
            if alpha_eq(inst, goal):
                out.append(cand)
        return dedup(out)


def check_elab(e: Expr, ty: EconType, m: Term,
               pool: tuple[EconType, ...] = ()) -> Valueness | None:
    """One-shot membership query; see :class:`ElabChecker`.

    Returns a derivable valueness (core values always report val), or None
    when no derivation was found within the search bounds.
    """
    return ElabChecker(pool).check(e, ty, m)
