"""The binding engine as it read each class's declaration at every node.

Before the package compiled each class's ``scopes``/``ref`` declaration
into a per-class plan, these functions rebuilt per-node dictionaries from
the declaration on every visit and rebuilt each changed node whole.  They
are slow but follow the declaration plainly, so ``tests/test_binding.py``
runs them as the oracle for ``free_names``, ``subst``, ``alpha_key``,
``subterms`` and ``node_count``.  Kept as they were, with three
exceptions: the per-node memo of ``alpha_key`` is stored under its own
attribute, so the two engines never read each other's keys; a binder
renamed to avoid capture refers to itself with the class of the reference
it would have captured, so a type binder inside an expression is renamed
in the captured variable's type grammar; and a changed node is rebuilt
positionally over its class's ``__match_args__``, where it once went
through ``dataclasses.replace``, since nodes are ``syntax.record``s and
not dataclasses.  Do not tidy them.
"""

from __future__ import annotations

from functools import lru_cache

from eopoly.syntax import EO, Node, children, fresh_name


@lru_cache(maxsize=None)
def free_names(node: object, ns: str) -> frozenset[str]:
    """Free names of ``node`` in namespace ``ns``."""
    if isinstance(node, EO):
        return frozenset([node.name]) if (ns == "eo" and node.is_var()) else frozenset()
    if not isinstance(node, Node):
        return frozenset()
    cls = type(node)
    if cls.ref is not None and cls.ref[0] == ns:
        return frozenset([getattr(node, cls.ref[1])])
    bound_in: dict[str, frozenset[str]] = {}
    for binder_field, bns, scoped in cls.scopes:
        if bns == ns:
            for f in scoped:
                bound_in[f] = bound_in.get(f, frozenset()) | {getattr(node, binder_field)}
    out: frozenset[str] = frozenset()
    for fname, value in children(node):
        out |= free_names(value, ns) - bound_in.get(fname, frozenset())
    return out


def _replacement_frees(sub: dict[tuple[str, str], object], ns: str) -> frozenset[str]:
    out: frozenset[str] = frozenset()
    for repl in sub.values():
        out |= free_names(repl, ns)
    return out


def alpha_key(node: object, _env: tuple[tuple[str, str], ...] = ()) -> object:
    if _env or not isinstance(node, Node):
        return _scoped_key(node, _env)
    d = node.__dict__
    key = d.get("_reference_alpha_key")
    if key is None:
        key = d["_reference_alpha_key"] = _scoped_key(node, ())
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
    scope_of: dict[str, tuple[tuple[str, str], ...]] = {}
    binder_fields = set()
    for binder_field, bns, scoped in cls.scopes:
        binder_fields.add(binder_field)
        for f in scoped:
            scope_of[f] = scope_of.get(f, ()) + ((bns, getattr(node, binder_field)),)
    parts: list[object] = [cls.__name__]
    for fname, value in children(node):
        if fname in binder_fields:
            continue
        if isinstance(value, (Node, EO)):
            parts.append(alpha_key(value, _env + scope_of.get(fname, ())))
        else:
            parts.append(value)
    return tuple(parts)


def _captured_ref(sub: dict[tuple[str, str], object], ns: str, name: str,
                  fresh: str) -> object:
    """A reference to ``fresh`` built like the reference to ``name`` that
    a replacement in ``sub`` would have had captured."""
    if ns == "eo":
        return EO("var", fresh)
    for repl in sub.values():
        if isinstance(repl, Node):
            for n in subterms(repl):
                if n.ref is not None and n.ref[0] == ns and getattr(n, n.ref[1]) == name:
                    return type(n)(fresh)
    raise AssertionError(f"{name!r} is not free in any replacement")


def subst(node: object, sub: dict[tuple[str, str], object]) -> object:
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
        key = (cls.ref[0], getattr(node, cls.ref[1]))
        if key in sub:
            return sub[key]
        return node

    field_sub: dict[str, dict[tuple[str, str], object]] = {
        fname: sub for fname, _ in children(node)
    }
    new_binders: dict[str, str] = {}
    for binder_field, bns, scoped in cls.scopes:
        bname = getattr(node, binder_field)
        inner = {k: v for k, v in sub.items() if k != (bns, bname)}
        capture = bname in _replacement_frees(inner, bns)
        if capture:
            avoid = set(_replacement_frees(inner, bns))
            for f in scoped:
                avoid |= free_names(getattr(node, f), bns)
            fresh = fresh_name(bname, avoid)
            new_binders[binder_field] = fresh
            inner = dict(inner)
            inner[(bns, bname)] = _captured_ref(inner, bns, bname, fresh)
        for f in scoped:
            field_sub[f] = inner
    updates: dict[str, object] = {}
    for fname, value in children(node):
        if fname in new_binders:
            updates[fname] = new_binders[fname]
        elif isinstance(value, (Node, EO)):
            new_value = subst(value, field_sub[fname])
            if new_value is not value:
                updates[fname] = new_value
    if not updates:
        return node
    return type(node)(*[updates.get(f, getattr(node, f))
                        for f in type(node).__match_args__])


@lru_cache(maxsize=None)
def node_count(node: object) -> int:
    n = 1
    for _, v in children(node):
        if isinstance(v, (Node, EO)):
            n += node_count(v)
    return n


def subterms(node: Node) -> list[Node]:
    out = [node]
    for _, v in children(node):
        if isinstance(v, Node):
            out.extend(subterms(v))
    return out
