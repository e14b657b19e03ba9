"""Every name a package module imports is used in that module, and only
``syntax.py`` substitutes or invents names.

Stdlib-``ast`` checks, since the project runs no linter.  An import that
nothing reads is either dead or a re-export, and re-exports belong in
``__init__.py`` or ``__all__``, both exempt.  A rule that crosses a binder
opens it through ``syntax.instantiate`` (with ``Ctx.fresh``, ``vacuous``
and ``subst1``), so no other module calls ``subst`` or ``fresh_name`` or
imports the single-name substitutions they replaced.
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
