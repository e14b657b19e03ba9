"""The enumerator as it keyed its memo tables by nodes.

Before the enumerator interned its types and numbered its contexts, it
keyed ``gen_check``/``gen_synth`` by ``(ctx.entries, ty, n)``, asked
``_compat`` and ``_expose_type`` afresh on every candidate, and listed the
synthesized candidates at a recursive goal both directly and again through
the goal's unfolding.  It is slow but inverts the checking rules plainly,
so ``tests/test_enum.py`` runs it as the oracle for
``enum_terms.enumerate_welltyped``.  Kept as it was; do not tidy it.
"""

from __future__ import annotations

from eopoly import impartial
from eopoly.enum_terms import Judgment, default_menu
from eopoly.errors import TypecheckError
from eopoly.syntax import (
    Anno,
    App,
    Case,
    EoApp,
    Expr,
    Fix,
    FixVar,
    IAllEo,
    IArrow,
    ImpCtx,
    ImpType,
    Inj,
    IProd,
    IRec,
    ISum,
    IUnit,
    Lam,
    N,
    Pair,
    Proj,
    Unit,
    V,
    VAL,
    Var,
    alpha_eq,
    alpha_key,
    eo_var,
    subst,
    unfold,
    valof,
)


# The single-name substitutions these oracles were written against.
def subst_eo(eo, var, node):
    return subst(node, {("eo", var): eo})


def _expose_type(ty: ImpType, want: type, budget: int = 16) -> ImpType | None:
    while budget > 0:
        if isinstance(ty, want):
            return ty
        if isinstance(ty, IRec):
            ty = unfold(ty)
            budget -= 1
            continue
        return None
    return None


def _compat(a: ImpType, b: ImpType, budget: int = 16) -> bool:
    if alpha_eq(a, b):
        return True
    if budget <= 0:
        return False
    if isinstance(b, IRec):
        return _compat(a, unfold(b), budget - 1)
    if isinstance(a, IRec):
        return _compat(unfold(a), b, budget - 1)
    return False


class Enumerator:
    def __init__(self, menu: tuple[ImpType, ...] | None = None):
        self.menu = menu if menu is not None else default_menu()
        self._chk: dict = {}
        self._syn: dict = {}

    def gen_check(self, ctx: ImpCtx, ty: ImpType, n: int) -> list[Expr]:
        key = (ctx.entries, ty, n)
        hit = self._chk.get(key)
        if hit is not None:
            return hit
        out: list[Expr] = []
        if n >= 1:
            for e, ty_s in self.gen_synth(ctx, n):
                if _compat(ty_s, ty):
                    out.append(e)
            depth = len(ctx.entries)
            if isinstance(ty, IAllEo):
                a = f"a{depth}"
                body = subst_eo(eo_var(a), ty.var, ty.body)
                out.extend(self.gen_check(ctx.with_eo(a), body, n))
            elif isinstance(ty, IRec):
                out.extend(self.gen_check(ctx, unfold(ty), n))
            else:
                if isinstance(ty, IUnit) and n == 1:
                    out.append(Unit())
                if n >= 2:
                    if isinstance(ty, IArrow):
                        x = f"x{depth}"
                        inner = ctx.with_x(x, valof(ty.eo), ty.dom)
                        out.extend(
                            Lam(x, b) for b in self.gen_check(inner, ty.cod, n - 1)
                        )
                    if isinstance(ty, IProd):
                        for n1 in range(1, n - 1):
                            for l in self.gen_check(ctx, ty.left, n1):
                                for r in self.gen_check(ctx, ty.right, n - 1 - n1):
                                    out.append(Pair(l, r))
                    if isinstance(ty, ISum):
                        for k, comp in ((1, ty.left), (2, ty.right)):
                            out.extend(
                                Inj(k, b) for b in self.gen_check(ctx, comp, n - 1)
                            )
                # Connective-independent checking forms.
                if n >= 2 and not isinstance(ty, (IAllEo, IRec)):
                    u = f"u{depth}"
                    out.extend(
                        Fix(u, b)
                        for b in self.gen_check(ctx.with_u(u, ty), ty, n - 1)
                    )
                if n >= 4 and not isinstance(ty, IAllEo):
                    out.extend(self._gen_cases(ctx, ty, n))
        self._chk[key] = out
        return out

    def _gen_cases(self, ctx: ImpCtx, ty: ImpType, n: int) -> list[Expr]:
        out = []
        depth = len(ctx.entries)
        for n1 in range(1, n - 2):
            for scrut, sty in self.gen_synth(ctx, n1):
                exposed = _expose_type(sty, ISum)
                if exposed is None:
                    continue
                x1 = f"x{depth}"
                x2 = f"y{depth}"
                c1 = ctx.with_x(x1, VAL, exposed.left)
                c2 = ctx.with_x(x2, VAL, exposed.right)
                for n2 in range(1, n - 1 - n1):
                    n3 = n - 1 - n1 - n2
                    if n3 < 1:
                        continue
                    for b1 in self.gen_check(c1, ty, n2):
                        for b2 in self.gen_check(c2, ty, n3):
                            out.append(Case(scrut, x1, b1, x2, b2))
        return out

    def gen_synth(self, ctx: ImpCtx, n: int) -> list[tuple[Expr, ImpType]]:
        key = (ctx.entries, n)
        hit = self._syn.get(key)
        if hit is not None:
            return hit
        out: list[tuple[Expr, ImpType]] = []
        if n == 1:
            for kind, name, payload in ctx.entries:
                if kind == "x":
                    out.append((Var(name), payload[1]))
                elif kind == "u":
                    out.append((FixVar(name), payload[1]))
        if n >= 2:
            for ty in self.menu:
                out.extend(
                    (Anno(e, ty), ty) for e in self.gen_check(ctx, ty, n - 1)
                )
            for e0, t0 in self.gen_synth(ctx, n - 1):
                prod = _expose_type(t0, IProd)
                if prod is not None:
                    out.append((Proj(1, e0), prod.left))
                    out.append((Proj(2, e0), prod.right))
                alleo = _expose_type(t0, IAllEo)
                if alleo is not None:
                    orders = [V, N] + [
                        eo_var(nm) for k, nm, _ in ctx.entries if k == "eo"
                    ]
                    for eo in orders:
                        out.append(
                            (EoApp(e0, eo), subst_eo(eo, alleo.var, alleo.body))
                        )
        if n >= 3:
            for n1 in range(1, n - 1):
                n2 = n - 1 - n1
                for e1, t1 in self.gen_synth(ctx, n1):
                    arrow = _expose_type(t1, IArrow)
                    if arrow is None:
                        continue
                    for e2 in self.gen_check(ctx, arrow.dom, n2):
                        out.append((App(e1, e2), arrow.cod))
        self._syn[key] = out
        return out


def enumerate_welltyped(
    bound: int, menu: tuple[ImpType, ...] | None = None
) -> list[Judgment]:
    """Checked judgments over the menu plus closed synthesizing judgments,
    validated by the typechecker and deduplicated up to alpha-equivalence."""
    gen = Enumerator(menu)
    empty = ImpCtx()
    seen: set = set()
    out: list[Judgment] = []
    for ty in gen.menu:
        for n in range(1, bound + 1):
            for e in gen.gen_check(empty, ty, n):
                key = ("check", alpha_key(e), alpha_key(ty))
                if key in seen:
                    continue
                seen.add(key)
                try:
                    r = impartial.check(empty, e, ty)
                except TypecheckError:
                    continue
                out.append(Judgment(e, ty, "check", r.valueness))
    for n in range(1, bound + 1):
        for e, _ in gen.gen_synth(empty, n):
            key = ("synth", alpha_key(e))
            if key in seen:
                continue
            seen.add(key)
            try:
                r = impartial.synth(empty, e)
            except TypecheckError:
                continue
            out.append(Judgment(e, r.ty, "synth", r.valueness))
    return out
