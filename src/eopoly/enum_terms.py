"""Exhaustive enumeration of well-typed annotated source terms.

The generator inverts the checking rules over a small fixed type menu,
then validates every candidate with the real typechecker, so the checker
remains the oracle: the inversion only proposes.  Sizes count expression
constructors; annotation types are free.  Output is deduplicated up to
alpha-equivalence.

Each menu type must be closed and guarded (``IllFormedType``,
``GuardednessViolation``), so that unrolling a recursive goal ends.
Every memo table is keyed by small integers, never by nodes: one
enumeration numbers each alpha class of types it meets and each context
it builds, and keys ``gen_check`` by (context, type, size), ``gen_synth``
by (context, size), and each type question by type numbers.  The tables
live on the ``Enumerator`` and die with it: nothing outlives one
``enumerate_welltyped`` call.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from . import impartial
from .errors import GuardednessViolation, IllFormedType, TypecheckError
from .syntax import (
    EO,
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
    ITyVar,
    IUnit,
    Lam,
    N,
    Pair,
    Proj,
    Unit,
    V,
    Var,
    alpha_key,
    eo_var,
    instantiate,
    unfold,
)
from .wf import rec_guarded, ty_wf

UNIT = IUnit()


def default_menu() -> tuple[ImpType, ...]:
    menu: list[ImpType] = [UNIT]
    for eo in (V, N):
        menu.append(IArrow(UNIT, UNIT, eo))
        menu.append(IProd(UNIT, UNIT, eo))
        menu.append(ISum(UNIT, UNIT, eo))
        menu.append(IRec("r", ISum(UNIT, ITyVar("r"), eo), eo))
    menu.append(IAllEo("a", IArrow(UNIT, UNIT, eo_var("a"))))
    return tuple(menu)


@dataclass(frozen=True)
class Judgment:
    expr: Expr
    ty: ImpType
    direction: str  # "check" | "synth"
    valueness: object


class Enumerator:
    """The generator of one enumeration, with every table it fills.

    Types are interned: each alpha class the search meets gets one
    representative and a small number, and each type question (does one
    type fit another, which connective does unrolling expose, what are its
    components, its unfolding, its instance at an order) is answered once
    per number or pair of numbers.  A context is numbered from its
    parent's number and its one new entry; its entries hold type numbers,
    and the empty context is number 0.
    """

    def __init__(self, menu: tuple[ImpType, ...] | None = None):
        menu = menu if menu is not None else default_menu()
        for ty in menu:
            if not ty_wf(ImpCtx(), ty):
                raise IllFormedType(f"menu type is not closed: {ty!r}")
            if not rec_guarded(ty):
                raise GuardednessViolation(f"unguarded recursive menu type: {ty!r}")
        self._types: list[ImpType] = []
        self._numbers: dict = {}  # alpha_key -> type number
        self._ctxs: list[tuple[tuple[str, str, int | None], ...]] = [()]
        self._ctx_numbers: dict = {}  # (parent, kind, name, type) -> context
        self._chk: dict = {}  # (context, type, size) -> expressions
        self._syn: dict = {}  # (context, size) -> (expression, type) pairs
        self._fits: dict = {}
        self._exposed: dict = {}
        self._parts: dict = {}
        self._unfolded: dict = {}
        self._instances: dict = {}
        self._menu = [(ty, self._number(ty)) for ty in menu]

    def _number(self, ty: ImpType) -> int:
        key = alpha_key(ty)
        t = self._numbers.get(key)
        if t is None:
            t = self._numbers[key] = len(self._types)
            self._types.append(ty)
        return t

    def _extend(self, c: int, kind: str, name: str, t: int | None = None) -> int:
        key = (c, kind, name, t)
        d = self._ctx_numbers.get(key)
        if d is None:
            d = self._ctx_numbers[key] = len(self._ctxs)
            self._ctxs.append(self._ctxs[c] + ((kind, name, t),))
        return d

    def _unfold(self, t: int) -> int:
        u = self._unfolded.get(t)
        if u is None:
            u = self._unfolded[t] = self._number(unfold(self._types[t]))
        return u

    def _instance(self, t: int, eo: EO) -> int:
        key = (t, eo.tag, eo.name)
        i = self._instances.get(key)
        if i is None:
            ty = self._types[t]
            i = self._instances[key] = self._number(instantiate(ty, eo))
        return i

    def _components(self, t: int) -> tuple[int, int]:
        """Domain and codomain of an arrow; left and right of a product or sum."""
        p = self._parts.get(t)
        if p is None:
            ty = self._types[t]
            pair = (ty.dom, ty.cod) if isinstance(ty, IArrow) else (ty.left, ty.right)
            p = self._parts[t] = tuple(map(self._number, pair))
        return p

    def _expose(self, t: int, want: type) -> int | None:
        """The type headed by ``want`` that at most 15 unfoldings of ``t``
        show, or None."""
        key = (t, want)
        if key not in self._exposed:
            found = None
            for _ in range(16):
                ty = self._types[t]
                if isinstance(ty, want):
                    found = t
                    break
                if not isinstance(ty, IRec):
                    break
                t = self._unfold(t)
            self._exposed[key] = found
        return self._exposed[key]

    def _fit(self, a: int, b: int) -> bool:
        """Whether a synthesized ``a`` checks against ``b``: whether they
        meet within 16 unfoldings, each of ``b`` while it is recursive,
        else of ``a``."""
        key = (a, b)
        ok = self._fits.get(key)
        if ok is None:
            budget = 16
            while a != b and budget > 0:
                if isinstance(self._types[b], IRec):
                    b = self._unfold(b)
                elif isinstance(self._types[a], IRec):
                    a = self._unfold(a)
                else:
                    break
                budget -= 1
            ok = self._fits[key] = a == b
        return ok

    def candidates(self, bound: int) -> Iterator[tuple[str, Expr, ImpType | None]]:
        """Every candidate listed up to size ``bound``, in order: checked
        against each menu type, then synthesized in the empty context."""
        for ty, t in self._menu:
            for n in range(1, bound + 1):
                for e in self.gen_check(0, t, n):
                    yield "check", e, ty
        for n in range(1, bound + 1):
            for e, _ in self.gen_synth(0, n):
                yield "synth", e, None

    def gen_check(self, c: int, t: int, n: int) -> list[Expr]:
        key = (c, t, n)
        hit = self._chk.get(key)
        if hit is not None:
            return hit
        ty = self._types[t]
        if n < 1:
            out: list[Expr] = []
        elif isinstance(ty, IRec):
            # The unfolding's own list starts with every synthesized
            # candidate that fits ``ty``, so they are not listed here too.
            out = self.gen_check(c, self._unfold(t), n)
        else:
            out = [e for e, s in self.gen_synth(c, n) if self._fit(s, t)]
            depth = len(self._ctxs[c])
            if isinstance(ty, IAllEo):
                a = eo_var(f"a{depth}")
                out.extend(self.gen_check(self._extend(c, "eo", a.name),
                                          self._instance(t, a), n))
            else:
                if isinstance(ty, IUnit) and n == 1:
                    out.append(Unit())
                if n >= 2:
                    if isinstance(ty, IArrow):
                        x = f"x{depth}"
                        dom, cod = self._components(t)
                        inner = self._extend(c, "x", x, dom)
                        out.extend(Lam(x, b) for b in self.gen_check(inner, cod, n - 1))
                    if isinstance(ty, IProd):
                        left, right = self._components(t)
                        for n1 in range(1, n - 1):
                            for l in self.gen_check(c, left, n1):
                                for r in self.gen_check(c, right, n - 1 - n1):
                                    out.append(Pair(l, r))
                    if isinstance(ty, ISum):
                        for k, comp in enumerate(self._components(t), 1):
                            out.extend(Inj(k, b) for b in self.gen_check(c, comp, n - 1))
                    # Connective-independent checking forms.
                    u = f"u{depth}"
                    out.extend(Fix(u, b) for b in
                               self.gen_check(self._extend(c, "u", u, t), t, n - 1))
                if n >= 4:
                    out.extend(self._gen_cases(c, t, n))
        self._chk[key] = out
        return out

    def _gen_cases(self, c: int, t: int, n: int) -> list[Expr]:
        out = []
        depth = len(self._ctxs[c])
        x1 = f"x{depth}"
        x2 = f"y{depth}"
        for n1 in range(1, n - 2):
            for scrut, s in self.gen_synth(c, n1):
                exposed = self._expose(s, ISum)
                if exposed is None:
                    continue
                left, right = self._components(exposed)
                c1 = self._extend(c, "x", x1, left)
                c2 = self._extend(c, "x", x2, right)
                for n2 in range(1, n - 1 - n1):
                    n3 = n - 1 - n1 - n2
                    if n3 < 1:
                        continue
                    for b1 in self.gen_check(c1, t, n2):
                        for b2 in self.gen_check(c2, t, n3):
                            out.append(Case(scrut, x1, b1, x2, b2))
        return out

    def gen_synth(self, c: int, n: int) -> list[tuple[Expr, int]]:
        key = (c, n)
        hit = self._syn.get(key)
        if hit is not None:
            return hit
        out: list[tuple[Expr, int]] = []
        if n == 1:
            for kind, name, t in self._ctxs[c]:
                if kind == "x":
                    out.append((Var(name), t))
                elif kind == "u":
                    out.append((FixVar(name), t))
        if n >= 2:
            for ty, t in self._menu:
                out.extend((Anno(e, ty), t) for e in self.gen_check(c, t, n - 1))
            orders = [V, N] + [eo_var(nm) for k, nm, _ in self._ctxs[c] if k == "eo"]
            for e0, t0 in self.gen_synth(c, n - 1):
                prod = self._expose(t0, IProd)
                if prod is not None:
                    left, right = self._components(prod)
                    out.append((Proj(1, e0), left))
                    out.append((Proj(2, e0), right))
                alleo = self._expose(t0, IAllEo)
                if alleo is not None:
                    for eo in orders:
                        out.append((EoApp(e0, eo), self._instance(alleo, eo)))
        if n >= 3:
            for n1 in range(1, n - 1):
                n2 = n - 1 - n1
                for e1, t1 in self.gen_synth(c, n1):
                    arrow = self._expose(t1, IArrow)
                    if arrow is None:
                        continue
                    dom, cod = self._components(arrow)
                    for e2 in self.gen_check(c, dom, n2):
                        out.append((App(e1, e2), cod))
        self._syn[key] = out
        return out


def enumerate_welltyped(
    bound: int, menu: tuple[ImpType, ...] | None = None
) -> list[Judgment]:
    """Checked judgments over the menu plus closed synthesizing judgments,
    validated by the typechecker and deduplicated up to alpha-equivalence."""
    empty = ImpCtx()
    seen: set = set()
    out: list[Judgment] = []
    for direction, e, ty in Enumerator(menu).candidates(bound):
        key = (direction, alpha_key(e), alpha_key(ty))
        if key in seen:
            continue
        seen.add(key)
        try:
            r = impartial.synth(empty, e) if ty is None else impartial.check(empty, e, ty)
        except TypecheckError:
            continue
        out.append(Judgment(e, r.ty if ty is None else ty, direction, r.valueness))
    return out
