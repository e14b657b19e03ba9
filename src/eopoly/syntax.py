"""Abstract syntax shared by every other module.

One binding engine serves all five syntactic categories (three type
grammars, source expressions, target terms).  Every node is a frozen
dataclass; binding structure is declared per class via ``scopes`` and
``ref``.  Each class's declaration is compiled once into a plan (per
field, the binders that scope over it), and every generic walk reads the
plan: ``free_names``, ``subst`` and ``alpha_key``, and on top of them the
structural helpers every grammar shares (``unfold``, ``match_instantiate``,
``subterms``, ``node_count`` and the like).  ``rebuild`` is the one walk
for rewrites that only replace nodes: erasure here, the annotation
translation and the suspension normal form elsewhere.  ``Run`` is the
one loop that steps a term, for every evaluator and every check that
steps, driven by that evaluator's table of evaluation contexts: it
resumes each search for the next redex at the contractum instead of at
the root, and hands each contraction to its caller with the frames around
the contractum, which the caller plugs only when it needs the whole term.
Names live in four namespaces that never mix:

    "x"   term variables
    "u"   fixed-point variables
    "ty"  type variables
    "eo"  evaluation-order variables

The binder interface.  Every rule that crosses a binder opens it through
these four, and no other module calls ``subst`` or ``fresh_name``:

    instantiate(b, v, field)  ``b``'s scoped ``field`` with its bound name
                              replaced by ``v`` (a node, or an :class:`EO`):
                              a redex's contractum, a quantifier's
                              instance, or a body opened at a new name;
    Ctx.fresh(name, *kinds, scope)
                              the name to open a binder at: its own, unless
                              the context already declares it, and then one
                              apart from the context and from the free names
                              of what the binder scopes over;
    vacuous(make, ns, body)   a binder around ``body`` that binds nothing;
    subst1(node, ns, x, v)    one name replaced in a node that is not a
                              binder's body (an expression's annotations,
                              say).

When ``v`` is a reference to the very name it replaces, ``instantiate``
returns the field itself and ``subst1`` the node itself.  Substitution is
capture-avoiding; binders are renamed with fresh names only when a
replacement would otherwise be captured.  Equality of types and terms is
alpha-equivalence throughout the package.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import ClassVar, Iterator


# ---------------------------------------------------------------------------
# Evaluation orders and valuenesses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EO:
    """An evaluation order: by-value, by-name, or a quantified variable."""

    tag: str  # "V" | "N" | "var"
    name: str = ""

    def is_var(self) -> bool:
        return self.tag == "var"

    def __repr__(self) -> str:
        return self.name if self.tag == "var" else self.tag


V = EO("V")
N = EO("N")


def eo_var(name: str) -> EO:
    return EO("var", name)


class Valueness(str, Enum):
    VAL = "val"
    TOP = "top"

    def __repr__(self) -> str:
        return self.value


VAL = Valueness.VAL
TOP = Valueness.TOP


def valof(eo: EO) -> Valueness:
    """Valueness of a variable bound at a connective with order ``eo``.

    Only a by-value binding guarantees the variable stands for a value.
    """
    return VAL if eo == V else TOP


def join(a: Valueness, b: Valueness) -> Valueness:
    return VAL if a == VAL and b == VAL else TOP


def vleq(a: Valueness, b: Valueness) -> bool:
    """val is below top; the order is otherwise discrete."""
    return a == b or (a == VAL and b == TOP)


# ---------------------------------------------------------------------------
# Node base and the generic binding engine
# ---------------------------------------------------------------------------

class Node:
    """Base for all AST nodes.

    ``scopes`` lists ``(binder_field, namespace, scoped_fields)`` triples:
    the name stored in ``binder_field`` binds, in ``namespace``, throughout
    the fields named in ``scoped_fields``.
    """

    __slots__ = ()
    scopes: ClassVar[tuple[tuple[str, str, tuple[str, ...]], ...]] = ()
    # (namespace, field) for leaf references, e.g. Var declares ("x", "name").
    ref: ClassVar[tuple[str, str] | None] = None


@lru_cache(maxsize=None)
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


def children(node: Node) -> Iterator[tuple[str, object]]:
    for name in _field_names(type(node)):
        yield name, getattr(node, name)


def fresh_name(base: str, avoid: frozenset[str] | set[str]) -> str:
    """Smallest decorated variant of ``base`` not in ``avoid``.

    Produces identifier-shaped names so pretty-printed output stays
    re-parseable after capture-avoiding renames.
    """
    stem = base.rstrip("0123456789")
    if stem.endswith("_"):
        stem = stem[:-1]
    if not stem:
        stem = "v"
    k = 1
    while f"{stem}_{k}" in avoid:
        k += 1
    return f"{stem}_{k}"


@lru_cache(maxsize=None)
def _plan(cls: type) -> tuple[tuple[str, tuple[tuple[str, str], ...] | None], ...]:
    """``cls``'s binding declaration, compiled once for the generic walks.

    One entry per field, in field order: the field's name and the
    ``(binder_field, namespace)`` pairs whose binder scopes over it, or
    None for a field that holds a binder.
    """
    binders = {bf for bf, _, _ in cls.scopes}
    return tuple((f, None if f in binders else
                  tuple((bf, ns) for bf, ns, scoped in cls.scopes if f in scoped))
                 for f in _field_names(cls))


@lru_cache(maxsize=None)
def free_names(node: object, ns: str) -> frozenset[str]:
    """Free names of ``node`` in namespace ``ns``."""
    if isinstance(node, EO):
        return frozenset([node.name]) if (ns == "eo" and node.is_var()) else frozenset()
    if not isinstance(node, Node):
        return frozenset()
    cls = type(node)
    if cls.ref is not None:
        return frozenset([getattr(node, cls.ref[1])]) if cls.ref[0] == ns else frozenset()
    out: frozenset[str] = frozenset()
    for f, scope in _plan(cls):
        v = getattr(node, f)
        if isinstance(v, (Node, EO)):
            out |= free_names(v, ns).difference(
                getattr(node, bf) for bf, bns in scope if bns == ns)
    return out


def subst1(node: object, ns: str, name: str, replacement: object) -> object:
    """``node`` with ``replacement`` for the free ``name`` of namespace
    ``ns``; ``node`` itself when ``replacement`` refers to that name."""
    ref = ("eo", "name") if isinstance(replacement, EO) else type(replacement).ref
    if ref is not None and ref[0] == ns and getattr(replacement, ref[1]) == name:
        return node
    return subst(node, {(ns, name): replacement})


def instantiate(binder: Node, value: object, field: str = "body") -> object:
    """``binder``'s scoped ``field`` with its bound name replaced by
    ``value``: a node of that name's namespace, or an :class:`EO` for an
    order binder.  The field itself comes back when ``value`` is a
    reference to the bound name."""
    bf, ns = next((bf, ns) for bf, ns, scoped in type(binder).scopes
                  if field in scoped)
    return subst1(getattr(binder, field), ns, getattr(binder, bf), value)


def vacuous(make, ns: str, body: Node) -> Node:
    """``make(name, body)``: a binder in namespace ``ns`` around ``body``
    whose name none of ``body``'s free names uses, so it binds nothing."""
    return make(fresh_name(ns, free_names(body, ns)), body)


def alpha_key(node: object, _env: tuple[tuple[str, str], ...] = ()) -> object:
    """A hashable key equal across alpha-equivalent nodes.

    Bound names are replaced by binder indices; free names stay themselves.
    A node's own key is kept on the node: looking it up in a shared table
    would compare it structurally with an equal node already stored there.
    """
    if _env or not isinstance(node, Node):
        return _scoped_key(node, _env)
    d = node.__dict__
    key = d.get("_alpha_key")
    if key is None:
        key = d["_alpha_key"] = _scoped_key(node, ())
    return key


@lru_cache(maxsize=None)
def _scoped_key(node: object, _env: tuple[tuple[str, str], ...]) -> object:
    if isinstance(node, EO):
        if node.is_var():
            for i, (ns, x) in enumerate(reversed(_env)):
                if ns == "eo" and x == node.name:
                    return ("eo", i)
            return ("eo", node.name)
        return node
    if not isinstance(node, Node):
        return node
    cls = type(node)
    if cls.ref is not None:
        ns = cls.ref[0]
        name = getattr(node, cls.ref[1])
        for i, (ens, x) in enumerate(reversed(_env)):
            if ens == ns and x == name:
                return (cls.__name__, i)
        return (cls.__name__, name)
    parts: list[object] = [cls.__name__]
    for f, scope in _plan(cls):
        if scope is None:
            continue
        v = getattr(node, f)
        if isinstance(v, (Node, EO)):
            v = alpha_key(v, _env + tuple((bns, getattr(node, bf)) for bf, bns in scope)
                          if scope else _env)
        parts.append(v)
    return tuple(parts)


def alpha_eq(a: object, b: object) -> bool:
    """Equality up to consistent renaming of bound names, all namespaces."""
    return alpha_key(a) == alpha_key(b)


# ---------------------------------------------------------------------------
# Impartial source types: every connective carries an evaluation order
# ---------------------------------------------------------------------------

class ImpType(Node):
    __slots__ = ()


@dataclass(frozen=True)
class IUnit(ImpType):
    pass


@dataclass(frozen=True)
class ITyVar(ImpType):
    name: str
    ref: ClassVar = ("ty", "name")


@dataclass(frozen=True)
class IForall(ImpType):
    var: str
    body: ImpType
    scopes: ClassVar = (("var", "ty", ("body",)),)


@dataclass(frozen=True)
class IAllEo(ImpType):
    var: str
    body: ImpType
    scopes: ClassVar = (("var", "eo", ("body",)),)


@dataclass(frozen=True)
class IArrow(ImpType):
    dom: ImpType
    cod: ImpType
    eo: EO


@dataclass(frozen=True)
class IProd(ImpType):
    left: ImpType
    right: ImpType
    eo: EO


@dataclass(frozen=True)
class ISum(ImpType):
    left: ImpType
    right: ImpType
    eo: EO


@dataclass(frozen=True)
class IRec(ImpType):
    var: str
    body: ImpType
    eo: EO
    scopes: ClassVar = (("var", "ty", ("body",)),)


# ---------------------------------------------------------------------------
# Economical types: by-value connectives plus a suspension point
# ---------------------------------------------------------------------------

class EconType(Node):
    __slots__ = ()


@dataclass(frozen=True)
class SUnit(EconType):
    pass


@dataclass(frozen=True)
class STyVar(EconType):
    name: str
    ref: ClassVar = ("ty", "name")


@dataclass(frozen=True)
class SForall(EconType):
    var: str
    body: EconType
    scopes: ClassVar = (("var", "ty", ("body",)),)


@dataclass(frozen=True)
class SAllEo(EconType):
    var: str
    body: EconType
    scopes: ClassVar = (("var", "eo", ("body",)),)


@dataclass(frozen=True)
class SSusp(EconType):
    eo: EO
    body: EconType


@dataclass(frozen=True)
class SArrow(EconType):
    dom: EconType
    cod: EconType


@dataclass(frozen=True)
class SProd(EconType):
    left: EconType
    right: EconType


@dataclass(frozen=True)
class SSum(EconType):
    left: EconType
    right: EconType


@dataclass(frozen=True)
class SRec(EconType):
    var: str
    body: EconType
    scopes: ClassVar = (("var", "ty", ("body",)),)


# ---------------------------------------------------------------------------
# Target types: no evaluation orders, no order quantifier, plus thunks
# ---------------------------------------------------------------------------

class TgtType(Node):
    __slots__ = ()


@dataclass(frozen=True)
class AUnit(TgtType):
    pass


@dataclass(frozen=True)
class ATyVar(TgtType):
    name: str
    ref: ClassVar = ("ty", "name")


@dataclass(frozen=True)
class AForall(TgtType):
    var: str
    body: TgtType
    scopes: ClassVar = (("var", "ty", ("body",)),)


@dataclass(frozen=True)
class AThunk(TgtType):
    body: TgtType


@dataclass(frozen=True)
class AArrow(TgtType):
    dom: TgtType
    cod: TgtType


@dataclass(frozen=True)
class AProd(TgtType):
    left: TgtType
    right: TgtType


@dataclass(frozen=True)
class ASum(TgtType):
    left: TgtType
    right: TgtType


@dataclass(frozen=True)
class ARec(TgtType):
    var: str
    body: TgtType
    scopes: ClassVar = (("var", "ty", ("body",)),)


# ---------------------------------------------------------------------------
# Source expressions (one grammar for all annotation phases)
# ---------------------------------------------------------------------------
#
# The same constructors serve the impartially-annotated, economically-
# annotated and erased phases; annotations, type abstraction/application
# and order-instantiation markers simply never occur in an erased term.

class Expr(Node):
    __slots__ = ()


@dataclass(frozen=True)
class Unit(Expr):
    pass


@dataclass(frozen=True)
class Var(Expr):
    name: str
    ref: ClassVar = ("x", "name")


@dataclass(frozen=True)
class FixVar(Expr):
    name: str
    ref: ClassVar = ("u", "name")


@dataclass(frozen=True)
class Lam(Expr):
    var: str
    body: Expr
    scopes: ClassVar = (("var", "x", ("body",)),)


@dataclass(frozen=True)
class App(Expr):
    fn: Expr
    arg: Expr


@dataclass(frozen=True)
class Fix(Expr):
    var: str
    body: Expr
    scopes: ClassVar = (("var", "u", ("body",)),)


@dataclass(frozen=True)
class TyLam(Expr):
    var: str
    body: Expr
    scopes: ClassVar = (("var", "ty", ("body",)),)


@dataclass(frozen=True)
class TyApp(Expr):
    body: Expr
    ty: Node  # ImpType or EconType, per phase


@dataclass(frozen=True)
class EoApp(Expr):
    """Explicit instantiation of an order quantifier.

    A surface marker only: it is erased before evaluation and before
    elaboration, but it makes order instantiation checkable without
    guessing.
    """

    body: Expr
    eo: EO


@dataclass(frozen=True)
class Pair(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Proj(Expr):
    k: int
    body: Expr


@dataclass(frozen=True)
class Inj(Expr):
    k: int
    body: Expr


@dataclass(frozen=True)
class Case(Expr):
    scrut: Expr
    var1: str
    body1: Expr
    var2: str
    body2: Expr
    scopes: ClassVar = (("var1", "x", ("body1",)), ("var2", "x", ("body2",)))


@dataclass(frozen=True)
class Anno(Expr):
    body: Expr
    ty: Node  # ImpType or EconType, per phase


# ---------------------------------------------------------------------------
# Target terms: explicit thunks, rolls, and type-free quantifier forms
# ---------------------------------------------------------------------------

class Term(Node):
    __slots__ = ()


@dataclass(frozen=True)
class MUnit(Term):
    pass


@dataclass(frozen=True)
class MVar(Term):
    name: str
    ref: ClassVar = ("x", "name")


@dataclass(frozen=True)
class MFixVar(Term):
    name: str
    ref: ClassVar = ("u", "name")


@dataclass(frozen=True)
class MLam(Term):
    var: str
    body: Term
    scopes: ClassVar = (("var", "x", ("body",)),)


@dataclass(frozen=True)
class MApp(Term):
    fn: Term
    arg: Term


@dataclass(frozen=True)
class MFix(Term):
    var: str
    body: Term
    scopes: ClassVar = (("var", "u", ("body",)),)


@dataclass(frozen=True)
class MTyLam(Term):
    body: Term  # type-free: binds nothing


@dataclass(frozen=True)
class MTyApp(Term):
    body: Term  # type-free


@dataclass(frozen=True)
class MThunk(Term):
    body: Term


@dataclass(frozen=True)
class MForce(Term):
    body: Term


@dataclass(frozen=True)
class MPair(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class MProj(Term):
    k: int
    body: Term


@dataclass(frozen=True)
class MInj(Term):
    k: int
    body: Term


@dataclass(frozen=True)
class MCase(Term):
    scrut: Term
    var1: str
    body1: Term
    var2: str
    body2: Term
    scopes: ClassVar = (("var1", "x", ("body1",)), ("var2", "x", ("body2",)))


@dataclass(frozen=True)
class MRoll(Term):
    body: Term


@dataclass(frozen=True)
class MUnroll(Term):
    body: Term


# Per type grammar, its recursive-type constructor.  An impartial recursive
# type carries an order; the only one built here binds an unused variable,
# where the order makes no difference.
_REC_WRAPS = (
    (ImpType, lambda var, body: IRec(var, body, V)),
    (EconType, SRec),
    (TgtType, ARec),
)
REC_TYPES = (IRec, SRec, ARec)


def _rec_wrap(ty: Node):
    for grammar, wrap in _REC_WRAPS:
        if isinstance(ty, grammar):
            return wrap
    raise TypeError(f"not a type: {ty!r}")


def _ref_like(sub: dict, ns: str, name: str, new: str) -> object:
    """A reference to ``new`` of the class of the reference to ``name`` in
    ``sub``'s replacements: a binder renamed so as not to capture that
    name refers to itself in the captured variable's own grammar."""
    if ns == "eo":
        return eo_var(new)
    return next(type(n)(new) for r in sub.values() if isinstance(r, Node)
                for n in subterms(r)
                if type(n).ref is not None and type(n).ref[0] == ns
                and getattr(n, type(n).ref[1]) == name)


def subst(node: object, sub: dict[tuple[str, str], object]) -> object:
    """Simultaneous capture-avoiding substitution.

    ``sub`` maps ``(namespace, name)`` to a replacement: an AST node for the
    "x"/"u"/"ty" namespaces, an :class:`EO` for "eo".  Capture is avoided by
    renaming the binder, never reported.
    """
    if not sub:
        return node
    if isinstance(node, EO):
        if node.is_var() and ("eo", node.name) in sub:
            repl = sub[("eo", node.name)]
            assert isinstance(repl, EO)
            return repl
        return node
    if not isinstance(node, Node):
        return node
    cls = type(node)
    if cls.ref is not None:
        return sub.get((cls.ref[0], getattr(node, cls.ref[1])), node)
    under = _under_binders(node, sub) if cls.scopes else None
    values = []
    changed = False
    for f, scope in _plan(cls):
        v = getattr(node, f)
        if scope is None:
            new = under[f][1]
        elif isinstance(v, (Node, EO)):
            new = subst(v, under[scope[-1][0]][0] if scope else sub)
        else:
            new = v
        changed = changed or new is not v
        values.append(new)
    return cls(*values) if changed else node


def _under_binders(node: Node, sub: dict) -> dict[str, tuple[dict, str]]:
    """Per binder field of ``node``: the substitution to apply in its scope
    and the binder's name there, renamed when a replacement would
    otherwise be captured."""
    out = {}
    for binder_field, bns, scoped in type(node).scopes:
        bname = getattr(node, binder_field)
        key = (bns, bname)
        inner = {k: v for k, v in sub.items() if k != key} if key in sub else sub
        frees = frozenset().union(*[free_names(r, bns) for r in inner.values()])
        if bname in frees:
            avoid = set(frees)
            for f in scoped:
                avoid |= free_names(getattr(node, f), bns)
            fresh = fresh_name(bname, avoid)
            inner = {**inner, key: _ref_like(inner, bns, bname, fresh)}
            bname = fresh
        out[binder_field] = (inner, bname)
    return out


# ---------------------------------------------------------------------------
# Structural helpers, generic over the grammars via ``scopes`` and ``ref``
# ---------------------------------------------------------------------------

def rebuild(node: Node, f) -> Node:
    """``node`` with ``f`` applied to each child node, or ``node`` itself
    when ``f`` returned every child unchanged.

    Every other field (binder names, indices, orders) is kept, and no
    binder is renamed, so ``f`` must not bring in a free name that one of
    ``node``'s binders would capture.
    """
    cls = type(node)
    values = []
    changed = False
    for name in _field_names(cls):
        v = getattr(node, name)
        if isinstance(v, Node):
            new = f(v)
            changed = changed or new is not v
            v = new
        values.append(v)
    return cls(*values) if changed else node


@lru_cache(maxsize=None)
def node_count(node: object) -> int:
    """Number of nodes in ``node``; types and orders count as nodes."""
    if isinstance(node, EO):
        return 1
    n = 1
    for f, _ in _plan(type(node)):
        v = getattr(node, f)
        if isinstance(v, (Node, EO)):
            n += node_count(v)
    return n


def subterms(node: Node) -> list[Node]:
    """``node`` and every node below it, in pre-order."""
    out = []
    todo = [node]
    while todo:
        n = todo.pop()
        out.append(n)
        for f in reversed(_field_names(type(n))):
            v = getattr(n, f)
            if isinstance(v, Node):
                todo.append(v)
    return out


def dedup(nodes: list[Node]) -> list[Node]:
    """``nodes`` without alpha-equivalent repeats, first occurrences kept."""
    out: dict = {}
    for n in nodes:
        out.setdefault(alpha_key(n), n)
    return list(out.values())


def unfold(ty: Node) -> Node:
    """One-step unfolding of a recursive type, in any type grammar."""
    return instantiate(ty, ty)


def refold_candidates(ty: Node, pool: tuple[Node, ...] = ()) -> list[Node]:
    """Recursive types whose one-step unfolding is ``ty``.

    Any such type occurs in ``ty`` itself (when its variable occurs), or
    wraps ``ty`` with an unused binder; the pool adds externally known ones.
    """
    cands = [t for t in subterms(ty) + list(pool)
             if isinstance(t, REC_TYPES) and alpha_eq(unfold(t), ty)]
    cands.append(vacuous(_rec_wrap(ty), "ty", ty))
    return dedup(cands)


def _same_ref(ns: str, x: str, y: str, env: tuple) -> bool:
    # Two references agree when the same pair of binders binds them, or,
    # bound by neither side, when they are the same free name.
    for ens, a, b in reversed(env):
        if ens == ns and (a == x or b == y):
            return a == x and b == y
    return x == y


def match_instantiate(binder: Node, goal: Node) -> Node | None | str:
    """Solve ``instantiate(binder, X) == goal`` for the type ``X`` (up to
    alpha), ``binder`` being a universal type.

    Returns the solution, the marker string ``"any"`` when the bound
    variable does not occur (any well-formed instantiation works), or None
    on mismatch.  Binders crossed on the way are paired per namespace, and
    a solution may not mention a goal-side one.
    """
    var = binder.var
    solution: list[Node] = []

    def go(p: object, g: object, env: tuple[tuple[str, str, str], ...]) -> bool:
        if isinstance(p, EO) or isinstance(g, EO):
            if not (isinstance(p, EO) and isinstance(g, EO)):
                return False
            if p.is_var() and g.is_var():
                return _same_ref("eo", p.name, g.name, env)
            return p == g
        if not isinstance(p, Node):
            return p == g
        cls = type(p)
        if (cls.ref is not None and cls.ref[0] == "ty"
                and getattr(p, cls.ref[1]) == var
                and not any(ns == "ty" and a == var for ns, a, _ in env)):
            if any(b in free_names(g, ns) for ns, _, b in env):
                return False
            if solution:
                return alpha_eq(solution[0], g)
            solution.append(g)
            return True
        if type(g) is not cls:
            return False
        if cls.ref is not None:
            ns, f = cls.ref
            return _same_ref(ns, getattr(p, f), getattr(g, f), env)
        return all(go(getattr(p, f), getattr(g, f),
                      env + tuple((ns, getattr(p, bf), getattr(g, bf)) for bf, ns in scope))
                   for f, scope in _plan(cls) if scope is not None)

    if not go(binder.body, goal, ()):
        return None
    return solution[0] if solution else "any"


# ---------------------------------------------------------------------------
# Evaluation contexts, generic over an evaluator's declaration
# ---------------------------------------------------------------------------
#
# An evaluator declares its evaluation contexts once: ``contexts`` maps each
# constructor to the fields it evaluates, in order, and ``values`` lists the
# constructors that make a value once those fields hold values (leaves such
# as abstractions, which evaluate no field, and data such as pairs).  A
# frame ``(node, fields, i)`` is ``node`` with a hole at the ``i``-th of the
# ``fields`` it evaluates.

def _resume(node: Node, stack: list, contexts: dict, values: tuple,
            known: dict) -> tuple[Node, bool]:
    """The context walk, from ``node`` in the hole of ``stack`` to a redex.

    The walk pushes and pops ``stack``'s frames in place, without
    recursion.  Returns ``(redex, True)``,
    ``stack`` leading to the redex: the first subterm, in evaluation order,
    that is not a value though every field it evaluates holds one.  Returns
    ``(term, False)``, ``stack`` empty, once the whole term is a value.
    Climbing out of a field rebuilds the parent only when the child in it
    changed.  ``known`` maps the identity of each value found so far to the
    value, so a value met again (an argument substituted into an evaluated
    position, say) is not walked again.
    """
    fields, i = contexts.get(type(node), ()), 0
    while True:
        if i < len(fields):
            child = getattr(node, fields[i])
            if id(child) in known:
                i += 1
            else:
                stack.append((node, fields, i))
                node, fields, i = child, contexts.get(type(child), ()), 0
        elif isinstance(node, values):
            if fields:
                known[id(node)] = node
            if not stack:
                return node, False
            child = node
            node, fields, i = stack.pop()
            if getattr(node, fields[i]) is not child:
                node = _fill(node, fields[i], child)
            i += 1
        else:
            return node, True


def no_redex(node: Node, contexts: dict, values: tuple) -> bool:
    """The walk finds no redex in ``node``: it is a value of ``values``."""
    return not _resume(node, [], contexts, values, {})[1]


def _fill(parent: Node, field: str, child: Node) -> Node:
    cls = type(parent)
    return cls(*[child if f == field else getattr(parent, f)
                 for f in _field_names(cls)])


def plug(frames: list[tuple[Node, tuple, int]], node: Node) -> Node:
    """``node`` in the hole of the context ``frames``."""
    for parent, fields, i in reversed(frames):
        node = _fill(parent, fields[i], node)
    return node


class Run:
    """The run of ``node`` by at most ``fuel`` contractions: iterating it
    (once) makes them one by one and yields each one's rule.

    ``contract`` maps a redex to ``(rule, contractum)``, or to None when it
    is stuck.  After each yield ``node`` is the contractum and ``frames``
    the context around it; ``term()`` plugs the one into the other.  At
    the end ``kind`` is "value", "stuck" or "out-of-fuel" (a term still
    able to step after ``fuel`` contractions), ``term()`` the final term
    and ``steps`` the number of contractions.  The walk resumes at each
    contractum, inside the frames it holds, and shares one ``known`` table
    of values for the whole run, so a step walks nothing from the root and
    plugs nothing unless asked to.
    """

    def __init__(self, node: Node, contexts: dict, values: tuple, contract,
                 fuel: int):
        self.node, self.frames, self.kind, self.steps = node, [], "", 0
        self._rules = contexts, values, contract, fuel

    def __iter__(self) -> Iterator[str]:
        contexts, values, contract, fuel = self._rules
        node, stack, known = self.node, self.frames, {}
        while True:
            node, found = _resume(node, stack, contexts, values, known)
            red = contract(node) if found else None
            if red is None or self.steps == fuel:
                self.node = node
                self.kind = ("value" if not found else
                             "stuck" if red is None else "out-of-fuel")
                return
            rule, node = red
            self.node = node
            self.steps += 1
            yield rule

    def term(self) -> Node:
        return plug(self.frames, self.node)

    def finish(self, on_state=None) -> tuple[str, Node, int]:
        """``(kind, term, steps)`` at the end of the run.  ``on_state``,
        when given, is called with every term from the start on, each as
        soon as it is reached, so a caller can print a trace without
        keeping it."""
        if on_state is None:
            for _ in self:
                pass
        else:
            on_state(self.node)
            for _ in self:
                on_state(self.term())
        return self.kind, self.term(), self.steps


# ---------------------------------------------------------------------------
# Erasure
# ---------------------------------------------------------------------------

_MARKERS = (Anno, TyLam, TyApp, EoApp)


def erase(e: Expr) -> Expr:
    """Drop annotations, type abstraction/application, and order markers."""
    if isinstance(e, _MARKERS):
        return erase(e.body)
    if not isinstance(e, Expr):
        raise TypeError(f"not a source expression: {e!r}")
    return rebuild(e, erase)


# ---------------------------------------------------------------------------
# Typing contexts
# ---------------------------------------------------------------------------
#
# A context is an ordered tuple of declarations.  Entry shapes:
#   ("x", name, payload)   term variable; payload is (valueness, type) in the
#                          impartial system, a bare type elsewhere
#   ("u", name, payload)   fixed-point variable
#   ("ty", name, None)     type variable
#   ("eo", name, None)     evaluation-order variable (never in target contexts)

@dataclass(frozen=True)
class Ctx:
    entries: tuple[tuple[str, str, object], ...] = ()

    def declared(self, kind: str) -> frozenset[str]:
        return frozenset(n for k, n, _ in self.entries if k == kind)

    def declares(self, kind: str, name: str) -> bool:
        return any(k == kind and n == name for k, n, _ in self.entries)

    def lookup(self, kind: str, name: str) -> object:
        for k, n, payload in reversed(self.entries):
            if k == kind and n == name:
                return payload
        raise KeyError((kind, name))

    def _extend(self, kind: str, name: str, payload: object) -> "Ctx":
        if self.declares(kind, name):
            raise ValueError(f"duplicate declaration of {name!r}")
        return type(self)(self.entries + ((kind, name, payload),))

    def with_ty(self, name: str) -> "Ctx":
        return self._extend("ty", name, None)

    def with_eo(self, name: str) -> "Ctx":
        return self._extend("eo", name, None)

    def has_eo_decls(self) -> bool:
        return any(k == "eo" for k, _, _ in self.entries)

    def names(self) -> frozenset[str]:
        return frozenset(n for _, n, _ in self.entries)

    def fresh(self, name: str, *kinds: str, scope: tuple) -> str:
        """``name`` for a new binder, renamed when the context already
        declares it in one of ``kinds``: apart from every declared name and
        from the free ``kinds`` names of ``scope``, the nodes the binder
        scopes over."""
        if not any(self.declares(k, name) for k in kinds):
            return name
        avoid = self.names().union(*(free_names(node, k)
                                     for node in scope for k in kinds))
        return fresh_name(name, avoid)


class ImpCtx(Ctx):
    def with_x(self, name: str, valueness: Valueness, ty: ImpType) -> "ImpCtx":
        return self._extend("x", name, (valueness, ty))

    def with_u(self, name: str, ty: ImpType) -> "ImpCtx":
        return self._extend("u", name, (TOP, ty))

    # The three places where the checker (``bidir``) treats the systems
    # apart: a function's binder is a value only by value, a case binder
    # always is, and a variable synthesizes the valueness it was bound at.

    def with_arg(self, name: str, arrow: IArrow) -> "ImpCtx":
        return self.with_x(name, valof(arrow.eo), arrow.dom)

    def with_case(self, name: str, ty: ImpType) -> "ImpCtx":
        return self.with_x(name, VAL, ty)

    def assumption(self, kind: str, name: str) -> tuple[Valueness, ImpType]:
        return self.lookup(kind, name)


class EconCtx(Ctx):
    def with_x(self, name: str, ty: EconType) -> "EconCtx":
        return self._extend("x", name, ty)

    def with_u(self, name: str, ty: EconType) -> "EconCtx":
        return self._extend("u", name, ty)

    # A binder's order is in its type (a suspension), so every binder is
    # declared at its type and every term variable synthesizes val.

    def with_arg(self, name: str, arrow: SArrow) -> "EconCtx":
        return self.with_x(name, arrow.dom)

    def with_case(self, name: str, ty: EconType) -> "EconCtx":
        return self.with_x(name, ty)

    def assumption(self, kind: str, name: str) -> tuple[Valueness, EconType]:
        return (VAL if kind == "x" else TOP), self.lookup(kind, name)


class TgtCtx(Ctx):
    def with_x(self, name: str, ty: TgtType) -> "TgtCtx":
        return self._extend("x", name, ty)


# ---------------------------------------------------------------------------
# Reified derivations
# ---------------------------------------------------------------------------

CHECK = "check"
SYNTH = "synth"


def _install_cached_hashes() -> None:
    """Frozen dataclasses recompute their structural hash on every call;
    memo tables hash large nodes constantly, so cache it per instance."""
    import sys

    mod = sys.modules[__name__]
    for name in dir(mod):
        cls = getattr(mod, name)
        if (isinstance(cls, type) and issubclass(cls, (Node, EO))
                and dataclasses.is_dataclass(cls)):
            orig = cls.__hash__

            def cached(self, _orig=orig):
                d = self.__dict__
                h = d.get("_cached_hash")
                if h is None:
                    h = _orig(self)
                    d["_cached_hash"] = h
                return h

            cls.__hash__ = cached


_install_cached_hashes()


@dataclass(eq=False)
class Derivation:
    """One node of a typing derivation.

    ``info`` carries the rule-specific data a replay or an elaboration walk
    needs (the instantiating order, a projection index, an instantiated
    type), keyed by short names.
    """

    rule: str
    ctx: Ctx
    expr: Expr | None
    direction: str
    ty: Node
    valueness: Valueness
    children: tuple["Derivation", ...] = ()
    info: dict | None = None

    def get(self, key: str):
        return (self.info or {})[key]
