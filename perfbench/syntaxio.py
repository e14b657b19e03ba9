"""The benchmark's own view of eopoly syntax trees.

Everything here reads or builds the package's AST dataclasses directly and
calls none of its functions, so the inputs the benchmark generates and the
answers it checks against stay fixed when the package's printer, parser,
typecheckers or evaluators change:

* ``show_expr`` / ``show_imp_type`` print source syntax as program text;
* ``canon_type`` prints a type with binders renamed by depth, so two
  alpha-equivalent types print the same;
* ``closed_valueness`` is the syntactic valueness of a closed annotated
  expression;
* the ``*_list`` / ``*_tree`` decoders read a result value back as data.
"""

from __future__ import annotations

from eopoly import syntax as S


def show_eo(eo) -> str:
    return "%" + eo.name if eo.tag == "var" else eo.tag


def show_imp_type(t) -> str:
    match t:
        case S.IUnit():
            return "1"
        case S.ITyVar(name):
            return "'" + name
        case S.IForall(var, body):
            return f"(forall '{var}. {show_imp_type(body)})"
        case S.IAllEo(var, body):
            return f"(all %{var}. {show_imp_type(body)})"
        case S.IArrow(dom, cod, eo):
            return f"({show_imp_type(dom)} -[{show_eo(eo)}]> {show_imp_type(cod)})"
        case S.IProd(left, right, eo):
            return f"({show_imp_type(left)} *[{show_eo(eo)}] {show_imp_type(right)})"
        case S.ISum(left, right, eo):
            return f"({show_imp_type(left)} +[{show_eo(eo)}] {show_imp_type(right)})"
        case S.IRec(var, body, eo):
            return f"(rec[{show_eo(eo)}] '{var}. {show_imp_type(body)})"
    raise TypeError(f"not an order-carrying type: {t!r}")


def show_expr(e) -> str:
    """Source expression as fully parenthesized program text."""
    match e:
        case S.Unit():
            return "()"
        case S.Var(name) | S.FixVar(name):
            return name
        case S.Lam(var, body):
            return f"(\\{var}. {show_expr(body)})"
        case S.App(fn, arg):
            return f"({show_expr(fn)} {show_expr(arg)})"
        case S.Fix(var, body):
            return f"(fix {var}. {show_expr(body)})"
        case S.TyLam(var, body):
            return f"(/\\'{var}. {show_expr(body)})"
        case S.TyApp(body, ty):
            return f"({show_expr(body)} [{show_imp_type(ty)}])"
        case S.EoApp(body, eo):
            return f"({show_expr(body)} {{{show_eo(eo)}}})"
        case S.Pair(left, right):
            return f"({show_expr(left)}, {show_expr(right)})"
        case S.Proj(k, body):
            return f"({show_expr(body)}.{k})"
        case S.Inj(k, body):
            return f"(inj{k} {show_expr(body)})"
        case S.Case(scrut, x1, b1, x2, b2):
            return (f"(case {show_expr(scrut)} {{ inj1 {x1} -> {show_expr(b1)}"
                    f" | inj2 {x2} -> {show_expr(b2)} }})")
        case S.Anno(body, ty):
            return f"({show_expr(body)} : {show_imp_type(ty)})"
    raise TypeError(f"not a source expression: {e!r}")


def canon_type(t, env: tuple[str, ...] = ()) -> str:
    """Order-carrying or suspension-point type, binders named by depth."""

    def var(name: str, ns: str) -> str:
        for i in range(len(env) - 1, -1, -1):
            if env[i] == ns + name:
                return f"{ns}{i}"
        return ns + name

    def eo(o) -> str:
        return var(o.name, "%") if o.tag == "var" else o.tag

    def bind(v: str, ns: str, body) -> str:
        return f"{ns}{len(env)}. {canon_type(body, env + (ns + v,))}"

    match t:
        case S.IUnit() | S.SUnit():
            return "1"
        case S.ITyVar(name) | S.STyVar(name):
            return var(name, "'")
        case S.IForall(v, body) | S.SForall(v, body):
            return "(forall " + bind(v, "'", body) + ")"
        case S.IAllEo(v, body) | S.SAllEo(v, body):
            return "(all " + bind(v, "%", body) + ")"
        case S.IArrow(dom, cod, o):
            return f"({canon_type(dom, env)} -[{eo(o)}]> {canon_type(cod, env)})"
        case S.IProd(left, right, o):
            return f"({canon_type(left, env)} *[{eo(o)}] {canon_type(right, env)})"
        case S.ISum(left, right, o):
            return f"({canon_type(left, env)} +[{eo(o)}] {canon_type(right, env)})"
        case S.IRec(v, body, o):
            return f"(rec[{eo(o)}] " + bind(v, "'", body) + ")"
        case S.SSusp(o, body):
            return f"(susp[{eo(o)}] {canon_type(body, env)})"
        case S.SArrow(dom, cod):
            return f"({canon_type(dom, env)} -> {canon_type(cod, env)})"
        case S.SProd(left, right):
            return f"({canon_type(left, env)} * {canon_type(right, env)})"
        case S.SSum(left, right):
            return f"({canon_type(left, env)} + {canon_type(right, env)})"
        case S.SRec(v, body):
            return "(rec " + bind(v, "'", body) + ")"
    raise TypeError(f"not a source type: {t!r}")


def closed_valueness(e) -> str:
    """Valueness of a closed expression, read off its outermost forms.

    Introductions of functions and units are values; pairs, injections and
    the type-level forms inherit from their parts; every elimination and
    every fixed point may compute.  Variables never occur outside a binder
    of a closed expression, so they are never reached.
    """
    match e:
        case S.Unit() | S.Lam() | S.TyLam():
            return "val"
        case S.Pair(left, right):
            both = closed_valueness(left) == closed_valueness(right) == "val"
            return "val" if both else "top"
        case S.Inj(_, body) | S.Anno(body, _) | S.EoApp(body, _) | S.TyApp(body, _):
            return closed_valueness(body)
    return "top"


# ---------------------------------------------------------------------------
# Result decoders: lists and trees of units, as the map programs build them
# ---------------------------------------------------------------------------

LEAF = "leaf"


def source_list(e) -> int | None:
    """Length of an erased source list ``inj2 ((), ...) ... inj1 ()``."""
    n = 0
    while True:
        match e:
            case S.Inj(1, S.Unit()):
                return n
            case S.Inj(2, S.Pair(S.Unit(), rest)):
                n, e = n + 1, rest
            case _:
                return None


def core_list(m) -> int | None:
    """Length of a strict core list: every cell is rolled."""
    n = 0
    while True:
        match m:
            case S.MRoll(S.MInj(1, S.MUnit())):
                return n
            case S.MRoll(S.MInj(2, S.MPair(S.MUnit(), rest))):
                n, m = n + 1, rest
            case _:
                return None


def source_tree(e):
    match e:
        case S.Inj(1, S.Unit()):
            return LEAF
        case S.Inj(2, S.Pair(S.Unit(), S.Pair(left, right))):
            l, r = source_tree(left), source_tree(right)
            return None if l is None or r is None else (l, r)
    return None


def core_tree(m):
    match m:
        case S.MRoll(S.MInj(1, S.MUnit())):
            return LEAF
        case S.MRoll(S.MInj(2, S.MPair(S.MUnit(), S.MPair(left, right)))):
            l, r = core_tree(left), core_tree(right)
            return None if l is None or r is None else (l, r)
    return None


def is_suspended(m) -> bool:
    """A by-name recursive value: a roll around an unevaluated thunk."""
    return isinstance(m, S.MRoll) and isinstance(m.body, S.MThunk)
