"""Every name a package module imports is used in that module, only
``syntax.py`` substitutes or invents names, keeps answers on a node or
reads a pool that may come unbuilt, and no module makes a frozen
dataclass or reads a ``deriv`` attribute.

Stdlib-``ast`` checks, since the project runs no linter.  An import that
nothing reads is either dead or a re-export, and re-exports belong in
``__init__.py`` or ``__all__``, both exempt.  A rule that crosses a binder
opens it through ``syntax.instantiate`` (with ``Ctx.fresh``, ``vacuous``
and ``subst1``), so no other module calls ``subst`` or ``fresh_name`` or
imports the single-name substitutions they replaced.  An answer about a
node lives on the node through ``syntax.kept``, so no other module reads
or writes a node's ``__dict__``.  A candidate pool may come as a tuple
or as a function that builds it, and ``syntax.Listed`` alone tells the
two apart, so no other module calls ``callable``.  A checker's typing is
the root of its derivation, so no module reads a ``deriv`` off it: that
alias is kept for the benchmark alone.  A frozen record is a
``syntax.record``, which builds its class without ``dataclass``'s
per-class code generation, so no module decorates a class with
``dataclass(frozen=True)``.  The binding engine reads each node's
``scopes``/``ref`` declaration and nothing else, so its walks in
``syntax.py`` name no class defined there but ``Node``: an order, a
type and a term are bound, keyed and substituted alike.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "eopoly")
MODULES = sorted(f for f in os.listdir(SRC)
                 if f.endswith(".py") and f != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name the module binds by an import, with its line."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                out.setdefault(name, node.lineno)
    return out


def _exported(tree: ast.Module) -> set[str]:
    out = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            out |= {c.value for c in ast.walk(node.value)
                    if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return out


def _read(tree: ast.Module) -> set[str]:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    used = _read(tree) | _exported(tree)
    return sorted((name, line) for name, line in _imported(tree).items()
                  if name not in used)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == [], module


def test_the_check_sees_an_unused_and_a_re_exported_name():
    src = ("from a import b, c as d, e\n"
           "import f.g\n"
           "__all__ = ['e']\n"
           "print(d)\n")
    assert unused_imports(src) == [("b", 1), ("f", 2)]


RETIRED = {"subst_ty_in_ty", "subst_eo", "subst_expr", "subst_fix_expr",
           "subst_term", "subst_fix_term"}
BINDER_RULE = {"subst", "fresh_name"}


def binder_rule_uses(source: str) -> list[tuple[str, int]]:
    """Each call of ``subst`` or ``fresh_name`` and each import of a
    retired substitution, with its line."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            f = node.func
            name = getattr(f, "id", None) or getattr(f, "attr", None)
            if name in BINDER_RULE:
                out.append((name, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            out += [(a.name, node.lineno) for a in node.names if a.name in RETIRED]
    return sorted(out)


@pytest.mark.parametrize("module", [m for m in MODULES if m != "syntax.py"])
def test_binders_are_opened_in_syntax_only(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert binder_rule_uses(fh.read()) == [], module


def test_the_binder_check_sees_calls_and_retired_imports():
    src = ("from .syntax import subst_eo, instantiate\n"
           "x = S.subst(t, {})\n"
           "y = fresh_name('a', set())\n"
           "z = instantiate(t, u)\n")
    assert binder_rule_uses(src) == [("fresh_name", 3), ("subst", 2), ("subst_eo", 1)]


def dict_uses(source: str) -> list[int]:
    """The line of each ``__dict__`` attribute and each ``vars`` call."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source))
                  if (isinstance(n, ast.Attribute) and n.attr == "__dict__")
                  or (isinstance(n, ast.Call) and getattr(n.func, "id", None) == "vars"))


@pytest.mark.parametrize("module", [m for m in MODULES if m != "syntax.py"])
def test_answers_are_kept_on_nodes_in_syntax_only(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert dict_uses(fh.read()) == [], module


def test_the_dict_check_sees_reads_writes_and_vars():
    src = ("ok = ty.__dict__.get('_k')\n"
           "node.__dict__['_k'] = 1\n"
           "d = vars(node)\n"
           "kept(f)\n")
    assert dict_uses(src) == [1, 2, 3]


def callable_uses(source: str) -> list[int]:
    """The line of each ``callable`` call."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source))
                  if isinstance(n, ast.Call)
                  and getattr(n.func, "id", None) == "callable")


@pytest.mark.parametrize("module", [m for m in MODULES if m != "syntax.py"])
def test_unbuilt_pools_are_read_in_syntax_only(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert callable_uses(fh.read()) == [], module


def test_the_callable_check_sees_calls_and_spares_the_name():
    src = ("a = callable(pool)\n"
           "b = pool() if callable(pool) else pool\n"
           "c = obj.callable\n"
           "d = [callable]\n")
    assert callable_uses(src) == [1, 2]


def deriv_reads(source: str) -> list[int]:
    """The line of each ``deriv`` attribute."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source))
                  if isinstance(n, ast.Attribute) and n.attr == "deriv")


@pytest.mark.parametrize("module", MODULES)
def test_a_typing_is_read_as_its_derivation(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert deriv_reads(fh.read()) == [], module


def test_the_deriv_check_sees_reads_and_writes_and_spares_the_name():
    src = ("a = r.deriv\n"
           "b = synth(ctx, e).deriv.children\n"
           "r.deriv = d\n"
           "deriv = r\n"
           "def deriv(self): return self\n")
    assert deriv_reads(src) == [1, 2, 3]


def frozen_dataclasses(source: str) -> list[int]:
    """The line of each class decorator that calls ``dataclass`` with a
    ``frozen`` argument other than a false constant."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for d in node.decorator_list:
            if not isinstance(d, ast.Call):
                continue
            name = getattr(d.func, "id", None) or getattr(d.func, "attr", None)
            if name == "dataclass" and any(
                    k.arg == "frozen" and not (isinstance(k.value, ast.Constant)
                                               and not k.value.value)
                    for k in d.keywords):
                out.append(d.lineno)
    return sorted(out)


@pytest.mark.parametrize("module", MODULES)
def test_frozen_records_are_made_by_record(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert frozen_dataclasses(fh.read()) == [], module


def test_the_frozen_check_sees_both_spellings_and_spares_the_rest():
    src = ("@dataclass(frozen=True)\nclass A: pass\n"
           "@dataclasses.dataclass(eq=False, frozen=True)\nclass B: pass\n"
           "@dataclass\nclass C: pass\n"
           "@dataclass(frozen=False)\nclass D: pass\n"
           "@record\nclass E: pass\n"
           "x = dataclass(frozen=True)\n")
    assert frozen_dataclasses(src) == [1, 3]


ENGINE_WALKS = {"_free", "_leaf_free", "subst1", "_key", "_subst",
                "_under_binders", "_ref_like", "node_count", "match_instantiate"}


def classes_named_in_walks(source: str) -> list[tuple[str, str]]:
    """Each module-level function of ``ENGINE_WALKS`` in ``source`` with
    each class defined in ``source``, ``Node`` excepted, that it names."""
    tree = ast.parse(source)
    classes = {n.name for n in tree.body if isinstance(n, ast.ClassDef)} - {"Node"}
    return sorted({(f.name, n.id) for f in tree.body
                   if isinstance(f, ast.FunctionDef) and f.name in ENGINE_WALKS
                   for n in ast.walk(f)
                   if isinstance(n, ast.Name) and n.id in classes})


def test_the_binding_engine_names_no_node_class():
    with open(os.path.join(SRC, "syntax.py"), encoding="utf-8") as fh:
        source = fh.read()
    defined = {f.name for f in ast.parse(source).body if isinstance(f, ast.FunctionDef)}
    assert ENGINE_WALKS <= defined
    assert classes_named_in_walks(source) == []


def test_the_walk_check_sees_bodies_annotations_and_inner_functions():
    src = ("class Node: pass\n"
           "class EO(Node): pass\n"
           "class IArrow(Node): pass\n"
           "def _key(n: Node, e: EO):\n"
           "    return isinstance(n, Node)\n"
           "def match_instantiate(b, g):\n"
           "    def go(p): return isinstance(p, IArrow)\n"
           "    return go(b)\n"
           "def rebuild(n): return isinstance(n, EO)\n"
           "def _subst(n, v=str): return int(n)\n")
    assert classes_named_in_walks(src) == [("_key", "EO"),
                                           ("match_instantiate", "IArrow")]
