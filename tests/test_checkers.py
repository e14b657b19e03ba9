"""The shared bidirectional engine against the two checkers it replaced.

``reference_checkers`` keeps the impartial and the suspension-point
checkers as they were when each spelled out its own rules.  Every test
here runs a judgment through both and demands the same outcome: the same
derivation, node for node (rule, context entries, expression, direction,
type, valueness, ``info`` and children), or the same error class and
message.  The inputs are the corpus, the bound-5 enumeration on both
sides of the translation, and ill-typed variants of each enumerated
judgment: checked at wrong types, applied, projected, instantiated,
cased on, and passed through a pair.
"""

import functools
import glob
import os

import pytest

import reference_checkers as ref
from eopoly import econ, impartial
from eopoly.enum_terms import default_menu, enumerate_welltyped
from eopoly.errors import TypecheckError
from eopoly.program import load_program
from eopoly.syntax import (
    Anno,
    App,
    Case,
    EconCtx,
    EoApp,
    FixVar,
    ImpCtx,
    IProd,
    IUnit,
    N,
    Pair,
    Proj,
    TyApp,
    Unit,
    V,
    Var,
)

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")
CORPUS_FILES = sorted(glob.glob(os.path.join(CORPUS, "*.eo")))

# (engine entry, reference entry, empty context) for each side.
IMP_CHECK = (impartial.check, ref.check, ImpCtx)
IMP_SYNTH = (impartial.synth, ref.synth, ImpCtx)
ECON_CHECK = (econ.econ_check, ref.econ_check, EconCtx)
ECON_SYNTH = (econ.econ_synth, ref.econ_synth, EconCtx)
U = IUnit()


def _nodes(d):
    """The derivation's nodes in preorder, each with what identifies it."""
    todo = [d]
    while todo:
        d = todo.pop()
        yield (d.rule, type(d.ctx), d.ctx.entries, d.expr, d.direction, d.ty,
               d.valueness, d.info, len(d.children))
        todo.extend(reversed(d.children))


def _outcome(fn, *args):
    try:
        r = fn(*args)
    except TypecheckError as ex:
        return ("error", type(ex), str(ex))
    return ("ok", r.ty, r.valueness, list(_nodes(r.deriv)))


def agree(entries, *args) -> str:
    """Run both checkers of ``entries`` on ``args`` in an empty context;
    fail unless they agree, and say whether the judgment held."""
    engine, reference, empty = entries
    got = _outcome(engine, empty(), *args)
    want = _outcome(reference, empty(), *args)
    assert got == want, (args, got[:3], want[:3])
    return got[0]


@functools.lru_cache(maxsize=None)
def _enum5():
    return tuple(enumerate_welltyped(5))


def agree_both(e, ty=None) -> list[str]:
    """``agree`` on the impartial judgment of ``e`` (checked against ``ty``,
    or synthesized when ``ty`` is None) and on its translation."""
    if ty is None:
        return [agree(IMP_SYNTH, e), agree(ECON_SYNTH, econ.econ_expr(e))]
    return [agree(IMP_CHECK, e, ty),
            agree(ECON_CHECK, econ.econ_expr(e), econ.econ_type(ty))]


@pytest.mark.parametrize("path", CORPUS_FILES, ids=os.path.basename)
def test_corpus_derivations_match_reference(path):
    prog = load_program(path)
    if prog.lang == "impartial":
        assert agree_both(prog.main) == ["ok", "ok"]
    else:
        assert agree(ECON_SYNTH, prog.main) == "ok"


def test_enumerated_derivations_match_reference():
    for j in _enum5():
        assert agree_both(j.expr, j.ty) == ["ok", "ok"]
        if j.direction == "synth":
            assert agree_both(j.expr) == ["ok", "ok"]


def test_ill_typed_variants_match_reference():
    """Wrong types, eliminations of every kind, and a trip through a pair,
    on every enumerated judgment: both checkers must refuse alike, or
    accept alike."""
    # One wrong type of each connective, both orders among them.
    wrong_types = tuple(default_menu()[i] for i in (0, 1, 3, 6, 8, 9))
    refused = 0
    for j in _enum5():
        subject = j.expr if j.direction == "synth" else Anno(j.expr, j.ty)
        cases = [(j.expr, t) for t in wrong_types if t != j.ty]
        cases += [(App(subject, Unit()), None), (Proj(1, subject), None),
                  (Proj(2, subject), None), (TyApp(subject, U), None),
                  (EoApp(subject, V), None),
                  (Case(subject, "y", Unit(), "z", Var("z")), U)]
        # Projected back out of a pair, the judgment holds again; in the
        # suspension-point system its type comes back suspended.
        cases += [(Proj(1, Anno(Pair(subject, Unit()), IProd(j.ty, U, eo))), j.ty)
                  for eo in (V, N)]
        for e, ty in cases:
            refused += agree_both(e, ty).count("error")
    assert refused > 40_000


@pytest.mark.parametrize("e", [Var("ghost"), FixVar("ghost"), Unit(),
                               App(Unit(), Unit())], ids=repr)
def test_errors_without_a_judgment_match_reference(e):
    assert agree_both(e) == ["error", "error"]
