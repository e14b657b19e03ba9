"""Every package name the benchmark reaches for resolves.

The tracer patches functions by ``(module, attribute)`` and the workloads
call package attributes directly, so a rename in ``src/`` that forgets
``perfbench/`` would only show when the benchmark runs.  The files are
read, never imported or run; what the workloads read off a typing is
asked of the package's checkers directly.
"""

import ast
import importlib
from pathlib import Path

from eopoly import econ, impartial
from eopoly.program import load_program
from eopoly.syntax import TOP, VAL, Derivation, EconCtx, ImpCtx, Node

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _resolves(module: str, dotted: str) -> bool:
    obj = importlib.import_module(module)
    for part in dotted.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def _string_pairs(tree):
    """``("eopoly.<module>", "<attribute>", ...)`` tuples in the source."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Tuple) and len(node.elts) >= 2:
            mod, attr = node.elts[:2]
            if (isinstance(mod, ast.Constant) and isinstance(attr, ast.Constant)
                    and isinstance(mod.value, str) and isinstance(attr.value, str)
                    and mod.value.startswith("eopoly.")):
                yield mod.value, attr.value


def _module_attributes(tree):
    """``alias.attr`` uses, for each alias bound by ``from eopoly import``."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "eopoly":
            for a in node.names:
                aliases[a.asname or a.name] = "eopoly." + a.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            yield aliases[node.value.id], node.attr


def test_tracer_layers_resolve():
    tree = ast.parse((PERFBENCH / "tracer.py").read_text(encoding="utf-8"))
    pairs = set(_string_pairs(tree))
    assert len(pairs) >= 36  # LAYERS plus the tokenizer
    missing = sorted(p for p in pairs if not _resolves(*p))
    assert not missing, missing


def test_benchmark_package_attributes_resolve():
    uses = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        uses |= set(_module_attributes(ast.parse(path.read_text(encoding="utf-8"))))
    assert ("eopoly.verify", "build_pool") in uses
    missing = sorted(u for u in uses if not _resolves(*u))
    assert not missing, missing


def test_a_typing_answers_what_the_benchmark_reads():
    """The workloads read a typing's ``ty``, ``valueness`` and ``deriv``.
    A typing is the root node of its derivation, and ``deriv`` answers
    that node itself, so removing the alias breaks the benchmark."""
    prog = load_program(str(PERFBENCH.parent / "corpus" / "map_impartial.eo"))
    assert prog.lang == "impartial"
    for r in (impartial.synth(ImpCtx(), prog.main),
              econ.econ_synth(EconCtx(), econ.econ_expr(prog.main))):
        assert isinstance(r, Derivation) and isinstance(r.ty, Node)
        assert r.valueness in (VAL, TOP)
        assert r.deriv is r
