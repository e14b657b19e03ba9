"""Abstract syntax shared by every other module.

One binding engine serves all six syntactic categories (evaluation
orders, three type grammars, source expressions, target terms).  Every
node is a frozen ``record``; binding structure is declared per class via
``scopes`` and ``ref``, and an order variable is a reference as a type
variable is, so no walk treats orders apart.  Each class's declaration
is compiled once into a plan (per field, the binders that scope over
it), and every generic walk reads the plan: ``free_names``, ``subst``
and ``alpha_key``, and on top of them the structural helpers every
grammar shares (``unfold``, ``match_instantiate``, ``subterms``,
``node_count`` and the like).  ``unfold`` serves recursive types and
fixed points alike.

``kept`` is the one way an answer about a node alone lives on the node
(its hash, alpha key, unfolding and size here; its guardedness, its
suspension normal form and whether it is a value elsewhere), so it dies
with the node and a lookup never compares two equal nodes.  Only free
names stand apart, in a hand-written slot, because ``subst`` probes for
them without starting a walk, learns them for each node it walks, and
with closed replacements returns a subtree in which no key is free
unwalked.  The package keeps no table of nodes beyond one request: a
node's key outside every binder is built from its children's kept keys,
and a binder's body is keyed afresh, under its scope, inside its
binder's kept key.

``Listed`` is the package's one list up to alpha-equivalence, and the
candidate list of both membership searches: the alpha-distinct nodes of
an iterable, or of a function that builds one at the first read, listed
only as far as they are read.  Its ``then`` adds the alpha-distinct
subterms of more roots, walking each repeated subtree once, and
``distinct_subterms`` is ``then`` on the empty list.  A pool is never
walked: each goal's candidates are the pool, then a walk of the
goal's roots alone, which is the walk of both as long as the pool is
closed under subterms, as every suspension-point pool is.  ``rebuild``
is the one walk for rewrites that only replace nodes: erasure here, the
annotation translation and the suspension normal form elsewhere.
``Run`` is the one loop that steps a term, for every evaluator and every
check that steps, driven by that evaluator's table of evaluation contexts: it
resumes each search for the next redex at the contractum instead of at
the root, and hands each contraction to its caller with the frames around
the contractum, which the caller plugs only when it needs the whole term.
A run plugs its states through a table of the parents it has rebuilt, so
a parent rebuilt around the same fields in a later state is the same
object, and a check that keeps every state (type safety, the simulation)
hashes, counts, keys and compares each rebuilt node once.
Names live in four namespaces that never mix:

    "x"   term variables
    "u"   fixed-point variables
    "ty"  type variables
    "eo"  evaluation-order variables

The binder interface.  Every rule that crosses a binder opens it through
these five, and no other module calls ``subst`` or ``fresh_name``:

    instantiate(b, v, field)  ``b``'s scoped ``field`` with its bound name
                              replaced by ``v``, a node of the bound name's
                              namespace: a redex's contractum, a
                              quantifier's type or order instance, or a
                              body opened at a new name;
    Ctx.fresh(name, *kinds, scope)
                              the name to open a binder at: its own, unless
                              the context already declares it, and then one
                              apart from the context and from the free names
                              of what the binder scopes over;
    Ctx.apart(name, *kinds, scope)
                              the same for a binder opened at another's
                              name (a type abstraction at its quantifier's,
                              a core binder at its source binder's),
                              renamed also when that name is free in it;
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

from dataclasses import FrozenInstanceError, dataclass
from enum import Enum
from itertools import chain
from typing import ClassVar, Iterator


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


# The compiled methods of each shape of record: its field names, and which
# of them have defaults.  The package's 68 records have 28 shapes.
_RECORD_CODE: dict = {}


def record(cls: type) -> type:
    """``cls`` made a frozen record, as ``dataclass(frozen=True)`` makes
    it: ``__init__`` over the class's own annotated fields (``ClassVar``
    ones excepted, a field's class attribute its default), ``__eq__``
    within one class, the hash of the field tuple, ``Qualname(f=...)`` as
    ``__repr__`` unless the class writes its own, ``__match_args__``, and
    assignment and deletion refused.  Instances keep a ``__dict__`` for
    ``kept``.  The four methods come from one source, compiled once for
    each shape of record and run once for each class: about 0.3 ms for a
    new shape and 0.03 ms for one met before.  ``dataclass`` compiles six
    with separate ``exec`` calls and runs ``inspect.signature`` for a
    docstring, 0.7-1 ms a class, about 40 ms of every start-up over the
    package's records."""
    own = vars(cls)
    fields = tuple(f for f, t in own.get("__annotations__", {}).items()
                   if not str(t).startswith(("ClassVar", "typing.ClassVar")))
    ns = {"_set": object.__setattr__, "__name__": cls.__module__}
    params = "".join(f", {f}=_d_{f}" if f in own else f", {f}" for f in fields)
    ns.update((f"_d_{f}", own[f]) for f in fields if f in own)
    mine = "".join(f"self.{f}," for f in fields)
    theirs = "".join(f"other.{f}," for f in fields)
    shown = ", ".join(f"{f}={{self.{f}!r}}" for f in fields)
    source = (f"def __init__(self{params}):\n pass\n"
              + "".join(f" _set(self, {f!r}, {f})\n" for f in fields)
              + "def __eq__(self, other):\n"
              " if other.__class__ is self.__class__:\n"
              f"  return ({mine}) == ({theirs})\n"
              " return NotImplemented\n"
              f"def __hash__(self):\n return hash(({mine}))\n"
              "def __repr__(self):\n"
              f" return self.__class__.__qualname__ + f'({shown})'\n")
    code = _RECORD_CODE.get(source)
    if code is None:
        code = _RECORD_CODE[source] = compile(source, "<record>", "exec")
    exec(code, ns)
    for name in ("__init__", "__eq__", "__hash__", "__repr__"):
        if name != "__repr__" or name not in own:
            ns[name].__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, ns[name])
    cls.__match_args__ = fields
    cls.__setattr__, cls.__delattr__ = _frozen_setattr, _frozen_delattr
    return cls


# ---------------------------------------------------------------------------
# Valuenesses
# ---------------------------------------------------------------------------

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
    # The declaration compiled for the generic walks, once per class at the
    # end of this module: per field, in field order, the field's name and
    # the (binder_field, namespace) pairs whose binder scopes over it, or
    # None for a field that holds a binder.
    _plan: ClassVar[tuple[tuple[str, tuple[tuple[str, str], ...] | None], ...]] = ()


_ABSENT, _ITSELF = object(), object()


def kept(fn):
    """``fn``, a function of one node, with each answer kept in its
    argument's ``__dict__``: the answer dies with the node, and a lookup
    never compares the node with an equal one.  An answer that is the node
    itself is kept as a marker, which makes no reference cycle."""
    key = f"{fn.__module__}.{fn.__qualname__}"

    def get(node):
        d = node.__dict__
        out = d.get(key, _ABSENT)
        if out is _ABSENT:
            out = fn(node)
            d[key] = _ITSELF if out is node else out
            return out
        return node if out is _ITSELF else out

    get.__name__, get.__qualname__ = fn.__name__, fn.__qualname__
    get.__doc__ = fn.__doc__
    return get


def children(node: Node) -> Iterator[tuple[str, object]]:
    for name in type(node).__match_args__:
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


_NO_NAMES: frozenset = frozenset()


def free_names(node: object, ns: str) -> frozenset[str]:
    """Free names of ``node`` in namespace ``ns``."""
    pairs = _free(node)
    return frozenset([x for n, x in pairs if n == ns]) if pairs else _NO_NAMES


def _free(node: object, walk: bool = True) -> frozenset[tuple[str, str]] | None:
    """``node``'s free ``(namespace, name)`` pairs, kept on the node in a
    slot of their own.  Without ``walk``, None when the pairs of a child
    that holds no reference are not known yet."""
    if not isinstance(node, Node) or node.ref is not None:
        return _leaf_free(node)
    d = node.__dict__
    out = d.get("_free")
    if out is not None:
        return out
    out = _NO_NAMES
    for f, scope in type(node)._plan:
        if scope is None:
            continue
        v = getattr(node, f)
        if not isinstance(v, Node):
            continue
        ref = v.ref
        if ref is not None:
            names = frozenset([(ref[0], getattr(v, ref[1]))])
        else:
            names = v.__dict__.get("_free")
            if names is None:
                if not walk:
                    return None
                names = _free(v)
        for bf, bns in scope:
            bound = (bns, getattr(node, bf))
            if bound in names:
                names = names - {bound}
        if names:
            out = out | names if out else names
    d["_free"] = out
    return out


def _leaf_free(v: object) -> frozenset[tuple[str, str]]:
    """The free pairs of a reference or a plain field."""
    if isinstance(v, Node):
        return frozenset([(v.ref[0], getattr(v, v.ref[1]))])
    return _NO_NAMES


def subst1(node: object, ns: str, name: str, replacement: object) -> object:
    """``node`` with ``replacement`` for the free ``name`` of namespace
    ``ns``; ``node`` itself when ``replacement`` refers to that name."""
    ref = type(replacement).ref
    if ref is not None and ref[0] == ns and getattr(replacement, ref[1]) == name:
        return node
    return subst(node, {(ns, name): replacement})


def instantiate(binder: Node, value: object, field: str = "body") -> object:
    """``binder``'s scoped ``field`` with its bound name replaced by
    ``value``, a node of that name's namespace: a type for a type
    binder, an order for an order binder, a term for a term binder.  The
    field itself comes back when ``value`` is a reference to the bound
    name."""
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
    A key under a binder (``_env`` names the binders crossed) is built
    afresh each time, and kept nowhere.
    """
    if _env or not isinstance(node, Node):
        return _key(node, _env)
    return _own_key(node)


@kept
def _own_key(node: Node) -> object:
    """``node``'s key outside any binder, built from its children's keys
    with no table lookup: a child outside the node's binders brings its
    own kept key, and a binder's body is keyed under the binder's scope
    as part of this key."""
    return _key(node, ())


def _key(node: object, _env: tuple[tuple[str, str], ...]) -> object:
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
    for f, scope in cls._plan:
        if scope is None:
            continue
        v = getattr(node, f)
        if isinstance(v, Node):
            v = alpha_key(v, _env + tuple((bns, getattr(node, bf)) for bf, bns in scope)
                          if scope else _env)
        parts.append(v)
    return tuple(parts)


def alpha_eq(a: object, b: object) -> bool:
    """Equality up to consistent renaming of bound names, all namespaces."""
    return alpha_key(a) == alpha_key(b)


# ---------------------------------------------------------------------------
# Evaluation orders: by-value, by-name, or a reference to an order binder
# ---------------------------------------------------------------------------

class EO(Node):
    """An evaluation order: by-value, by-name, or a quantified variable.
    Either kind has a ``tag`` ("V", "N" or "var") and a ``name`` (empty
    but for a variable)."""

    __slots__ = ()

    def is_var(self) -> bool:
        return self.ref is not None


@record
class EOVar(EO):
    name: str
    ref: ClassVar = ("eo", "name")
    tag: ClassVar[str] = "var"

    def __repr__(self) -> str:
        return self.name


@record
class EOConst(EO):
    tag: str  # "V" | "N"
    name: ClassVar[str] = ""

    def __repr__(self) -> str:
        return self.tag


V = EOConst("V")
N = EOConst("N")


def eo_var(name: str) -> EO:
    return EOVar(name)


# ---------------------------------------------------------------------------
# Impartial source types: every connective carries an evaluation order
# ---------------------------------------------------------------------------

class ImpType(Node):
    __slots__ = ()


@record
class IUnit(ImpType):
    pass


@record
class ITyVar(ImpType):
    name: str
    ref: ClassVar = ("ty", "name")


@record
class IForall(ImpType):
    var: str
    body: ImpType
    scopes: ClassVar = (("var", "ty", ("body",)),)


@record
class IAllEo(ImpType):
    var: str
    body: ImpType
    scopes: ClassVar = (("var", "eo", ("body",)),)


@record
class IArrow(ImpType):
    dom: ImpType
    cod: ImpType
    eo: EO


@record
class IProd(ImpType):
    left: ImpType
    right: ImpType
    eo: EO


@record
class ISum(ImpType):
    left: ImpType
    right: ImpType
    eo: EO


@record
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


@record
class SUnit(EconType):
    pass


@record
class STyVar(EconType):
    name: str
    ref: ClassVar = ("ty", "name")


@record
class SForall(EconType):
    var: str
    body: EconType
    scopes: ClassVar = (("var", "ty", ("body",)),)


@record
class SAllEo(EconType):
    var: str
    body: EconType
    scopes: ClassVar = (("var", "eo", ("body",)),)


@record
class SSusp(EconType):
    eo: EO
    body: EconType


@record
class SArrow(EconType):
    dom: EconType
    cod: EconType


@record
class SProd(EconType):
    left: EconType
    right: EconType


@record
class SSum(EconType):
    left: EconType
    right: EconType


@record
class SRec(EconType):
    var: str
    body: EconType
    scopes: ClassVar = (("var", "ty", ("body",)),)


# ---------------------------------------------------------------------------
# Target types: no evaluation orders, no order quantifier, plus thunks
# ---------------------------------------------------------------------------

class TgtType(Node):
    __slots__ = ()


@record
class AUnit(TgtType):
    pass


@record
class ATyVar(TgtType):
    name: str
    ref: ClassVar = ("ty", "name")


@record
class AForall(TgtType):
    var: str
    body: TgtType
    scopes: ClassVar = (("var", "ty", ("body",)),)


@record
class AThunk(TgtType):
    body: TgtType


@record
class AArrow(TgtType):
    dom: TgtType
    cod: TgtType


@record
class AProd(TgtType):
    left: TgtType
    right: TgtType


@record
class ASum(TgtType):
    left: TgtType
    right: TgtType


@record
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


@record
class Unit(Expr):
    pass


@record
class Var(Expr):
    name: str
    ref: ClassVar = ("x", "name")


@record
class FixVar(Expr):
    name: str
    ref: ClassVar = ("u", "name")


@record
class Lam(Expr):
    var: str
    body: Expr
    scopes: ClassVar = (("var", "x", ("body",)),)


@record
class App(Expr):
    fn: Expr
    arg: Expr


@record
class Fix(Expr):
    var: str
    body: Expr
    scopes: ClassVar = (("var", "u", ("body",)),)


@record
class TyLam(Expr):
    var: str
    body: Expr
    scopes: ClassVar = (("var", "ty", ("body",)),)


@record
class TyApp(Expr):
    body: Expr
    ty: Node  # ImpType or EconType, per phase


@record
class EoApp(Expr):
    """Explicit instantiation of an order quantifier.

    A surface marker only: it is erased before evaluation and before
    elaboration, but it makes order instantiation checkable without
    guessing.
    """

    body: Expr
    eo: EO


@record
class Pair(Expr):
    left: Expr
    right: Expr


@record
class Proj(Expr):
    k: int
    body: Expr


@record
class Inj(Expr):
    k: int
    body: Expr


@record
class Case(Expr):
    scrut: Expr
    var1: str
    body1: Expr
    var2: str
    body2: Expr
    scopes: ClassVar = (("var1", "x", ("body1",)), ("var2", "x", ("body2",)))


@record
class Anno(Expr):
    body: Expr
    ty: Node  # ImpType or EconType, per phase


# ---------------------------------------------------------------------------
# Target terms: explicit thunks, rolls, and type-free quantifier forms
# ---------------------------------------------------------------------------

class Term(Node):
    __slots__ = ()


@record
class MUnit(Term):
    pass


@record
class MVar(Term):
    name: str
    ref: ClassVar = ("x", "name")


@record
class MFixVar(Term):
    name: str
    ref: ClassVar = ("u", "name")


@record
class MLam(Term):
    var: str
    body: Term
    scopes: ClassVar = (("var", "x", ("body",)),)


@record
class MApp(Term):
    fn: Term
    arg: Term


@record
class MFix(Term):
    var: str
    body: Term
    scopes: ClassVar = (("var", "u", ("body",)),)


@record
class MTyLam(Term):
    body: Term  # type-free: binds nothing


@record
class MTyApp(Term):
    body: Term  # type-free


@record
class MThunk(Term):
    body: Term


@record
class MForce(Term):
    body: Term


@record
class MPair(Term):
    left: Term
    right: Term


@record
class MProj(Term):
    k: int
    body: Term


@record
class MInj(Term):
    k: int
    body: Term


@record
class MCase(Term):
    scrut: Term
    var1: str
    body1: Term
    var2: str
    body2: Term
    scopes: ClassVar = (("var1", "x", ("body1",)), ("var2", "x", ("body2",)))


@record
class MRoll(Term):
    body: Term


@record
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
    return next(type(n)(new) for r in sub.values() if isinstance(r, Node)
                for n in subterms(r)
                if type(n).ref is not None and type(n).ref[0] == ns
                and getattr(n, type(n).ref[1]) == name)


def subst(node: object, sub: dict[tuple[str, str], object]) -> object:
    """Simultaneous capture-avoiding substitution.

    ``sub`` maps ``(namespace, name)`` to a replacement, a node of that
    namespace: a term for "x" and "u", a type for "ty", an order for "eo".
    Capture is avoided by renaming the binder, never reported.
    """
    if not sub:
        return node
    return _subst(node, sub, not any(_free(r) for r in sub.values()))


def _subst(node: object, sub: dict, closed: bool) -> object:
    # With ``closed`` replacements no binder is renamed, so a subtree in
    # which no key is free comes back as it is; the walk learns the free
    # names of each node it visits for the next substitution into it.
    if not isinstance(node, Node):
        return node
    cls = type(node)
    if cls.ref is not None:
        return sub.get((cls.ref[0], getattr(node, cls.ref[1])), node)
    known = node.__dict__.get("_free")
    if closed and known is not None and known.isdisjoint(sub):
        return node
    under = _under_binders(node, sub, closed) if cls.scopes else None
    values = []
    changed = False
    for f, scope in cls._plan:
        v = getattr(node, f)
        if scope is None:
            new = under[f][1]
        elif isinstance(v, Node):
            inner = under[scope[-1][0]][0] if scope else sub
            new = _subst(v, inner, closed) if inner else v
        else:
            new = v
        changed = changed or new is not v
        values.append(new)
    if known is None:
        _free(node, walk=False)
    return cls(*values) if changed else node


def _under_binders(node: Node, sub: dict, closed: bool) -> dict[str, tuple[dict, str]]:
    """Per binder field of ``node``: the substitution to apply in its scope
    and the binder's name there, renamed when a replacement would
    otherwise be captured."""
    out = {}
    for binder_field, bns, scoped in type(node).scopes:
        bname = getattr(node, binder_field)
        key = (bns, bname)
        inner = sub
        if key in sub:
            inner = {k: v for k, v in sub.items() if k != key}
        if not closed:
            names = frozenset().union(*[free_names(r, bns) for r in inner.values()])
            if bname in names:
                avoid = set(names)
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
    for name in cls.__match_args__:
        v = getattr(node, name)
        if isinstance(v, Node):
            new = f(v)
            changed = changed or new is not v
            v = new
        values.append(v)
    return cls(*values) if changed else node


@kept
def node_count(node: object) -> int:
    """Number of nodes in ``node``: terms, types and orders alike."""
    n = 1
    for f, _ in type(node)._plan:
        v = getattr(node, f)
        if isinstance(v, Node):
            n += node_count(v)
    return n


def subterms(node: Node) -> list[Node]:
    """``node`` and every node below it, in pre-order."""
    out = []
    todo = [node]
    while todo:
        n = todo.pop()
        out.append(n)
        for f in reversed(type(n).__match_args__):
            v = getattr(n, f)
            if isinstance(v, Node):
                todo.append(v)
    return out


def distinct_subterms(roots) -> list[Node]:
    """The alpha-distinct subterms of the roots, in pre-order, first kept."""
    return Listed(()).then(roots)


class Listed:
    """The alpha-distinct nodes of ``nodes`` (or, with ``each``, of the
    nodes ``each(n)``), first occurrences kept, listed only as far as
    they are read.  ``nodes`` is an iterable, or a function of no
    arguments that the first read calls, so a pool that no search reads
    is never built.  Every iteration yields the nodes listed so far, then
    lists more, so readers, nested ones included, all see the same nodes
    in the same order."""

    def __init__(self, nodes, each=None):
        self._given, self._each = nodes, each
        self._nodes: Iterator | None = None
        self._ended = False
        self._keys: set = set()
        self._listed: list[Node] = []

    def __iter__(self) -> Iterator[Node]:
        return iter(self._listed) if self._ended else self._reading()

    def _reading(self) -> Iterator[Node]:
        i = 0
        while i < len(self._listed) or self._more(i + 1):
            yield self._listed[i]
            i += 1

    def _more(self, upto: int | None) -> bool:
        """List new nodes until ``upto`` are listed, or every one when
        ``upto`` is None; whether ``upto`` are."""
        if self._nodes is None:
            given = self._given() if callable(self._given) else self._given
            self._nodes = iter(given if self._each is None
                               else map(self._each, given))
        keys, listed = self._keys, self._listed
        for n in self._nodes:
            k = alpha_key(n)
            if k not in keys:
                keys.add(k)
                listed.append(n)
                if len(listed) == upto:
                    return True
        self._ended = True
        return False

    def then(self, roots) -> list[Node]:
        """The whole list, then the alpha-distinct subterms of ``roots``
        that it lacks, in pre-order.

        A subtree structurally equal to one already walked is skipped
        whole: its first occurrence listed every subterm it has.
        Alpha-equivalence would not do, since the two may differ in their
        open subterms.  A subtree that the list holds is walked all the
        same, since the list need not hold its subterms.  A list holds
        types, so the walk does not descend into an order."""
        self._more(None)
        seen: set = set()
        keys: dict = {}
        todo = list(reversed(roots))
        while todo:
            n = todo.pop()
            if n in seen:
                continue
            seen.add(n)
            k = alpha_key(n)
            if k not in self._keys:
                keys.setdefault(k, n)
            for f in reversed(type(n).__match_args__):
                v = getattr(n, f)
                if isinstance(v, Node) and not isinstance(v, EO):
                    todo.append(v)
        return self._listed + list(keys.values())


@kept
def unfold(b: Node) -> Node:
    """One-step unfolding of a recursive binder: a recursive type, in any
    type grammar, or a fixed point, its body at itself.

    The unfolding depends on ``b`` alone, so it is kept on the node.  Where
    the bound name occurs, the unfolding refers back to ``b``, and the two
    form a reference cycle: reference counting cannot free it, and it waits
    for Python's cyclic garbage collector.
    """
    return instantiate(b, b)


def refold_candidates(ty: Node) -> Listed:
    """Recursive types whose one-step unfolding is ``ty``, one per alpha
    class, listed as far as they are read.

    These are all of them.  Let ``unfold(R)`` be alpha-equal to ``ty``.
    When ``R``'s variable occurs in its body, substitution, which avoids
    capture, leaves ``R`` itself in ``unfold(R)``, so a subterm of ``ty``
    at the same place is alpha-equal to ``R``.  When it does not occur,
    ``R`` is alpha-equal to ``ty`` under an unused binder.  (An impartial
    binder also carries an order, and the unused one here is by-value;
    no checker refolds an impartial type.)
    """
    cands = (t for t in subterms(ty)
             if isinstance(t, REC_TYPES) and alpha_eq(unfold(t), ty))
    return Listed(chain(cands, (vacuous(_rec_wrap(ty), "ty", ty),)))


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
                   for f, scope in cls._plan if scope is not None)

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
                 for f in cls.__match_args__])


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

    ``term()`` plugs through the run's ``_built`` table, which maps a
    class and the identities of its field values to the node built from
    them.  The table holds each node it built, and each node its fields,
    so no identity in a key is reused while the run lives; the table dies
    with the run.  A trace (``finish`` with ``on_state``) plugs each state
    plainly, since nothing keeps a printed state for a later one to share.
    """

    def __init__(self, node: Node, contexts: dict, values: tuple, contract,
                 fuel: int):
        self.node, self.frames, self.kind, self.steps = node, [], "", 0
        self._rules = contexts, values, contract, fuel
        self._built = {}

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
        """The contractum plugged into its frames: each parent rebuilt
        around the same field objects as in an earlier state is the node
        built then."""
        node, built = self.node, self._built
        for parent, fields, i in reversed(self.frames):
            cls = type(parent)
            kids = [node if f == fields[i] else getattr(parent, f)
                    for f in cls.__match_args__]
            key = (cls, *map(id, kids))
            node = built.get(key)
            if node is None:
                node = built[key] = cls(*kids)
        return node

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
                on_state(plug(self.frames, self.node))
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

@record
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

    def apart(self, name: str, *kinds: str, scope: tuple) -> str:
        """``name`` for a binder opened at another binder's name, as a type
        abstraction is at its quantifier's: renamed as by :meth:`fresh`,
        and also when it is free in ``scope``, which it would capture."""
        if any((k, name) in _free(node) for node in scope for k in kinds):
            return fresh_name(name, self.names().union(
                *(free_names(node, k) for node in scope for k in kinds)))
        return self.fresh(name, *kinds, scope=scope)


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
    """A core context; the core checker binds through ``target._bind``."""


# ---------------------------------------------------------------------------
# Reified derivations
# ---------------------------------------------------------------------------

CHECK = "check"
SYNTH = "synth"


# A record hashes its whole field tuple at every call, and memo tables hash
# constantly, so each node keeps its hash; and each node class compiles its
# binding declaration into its ``_plan`` here, once.
for _cls in [c for c in list(globals().values()) if isinstance(c, type)]:
    if issubclass(_cls, Node) and "__hash__" in vars(_cls):
        _cls.__hash__ = kept(_cls.__hash__)
    if issubclass(_cls, Node) and "__match_args__" in vars(_cls):
        _binders = {bf for bf, _, _ in _cls.scopes}
        _cls._plan = tuple(
            (f, None if f in _binders else
             tuple((bf, ns) for bf, ns, scoped in _cls.scopes if f in scoped))
            for f in _cls.__match_args__)
del _cls, _binders


@dataclass(eq=False)
class Derivation:
    """One node of a typing derivation.  A checker's typing is the root
    node: its ``ty`` and ``valueness`` are the judgment's conclusion.

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

    @property
    def deriv(self) -> "Derivation":
        """The node itself.  The benchmark's workloads read a typing's
        ``deriv``, and the package never does; the alias goes once they
        read the typing itself."""
        return self
