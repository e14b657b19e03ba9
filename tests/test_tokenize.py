"""The compiled-pattern tokenizer against the character loop it replaced.

``parser.tokenize`` and the loop kept in ``reference_tokenize`` must give
the same ``(kind, text, line, col)`` list, or raise ``ParseError`` with the
same message and position, on every input: each corpus file (whole, and
its body after the header), each bound-5 judgment and its elaboration as
printed, random text over the grammar's alphabet, and arbitrary Unicode.
"""

import glob
import os

from hypothesis import example, given, settings, strategies as st

import reference_tokenize as ref

from eopoly import econ
from eopoly.elaborate import elaborate, ty_target
from eopoly.enum_terms import enumerate_welltyped
from eopoly.errors import ParseError
from eopoly.parser import split_header, tokenize
from eopoly.pretty import pretty_expr, pretty_term, pretty_ty
from eopoly.syntax import EconCtx

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")


def _read(tokenize_fn, text):
    try:
        return [tuple(t) for t in tokenize_fn(text)]
    except ParseError as exc:
        return "ParseError", str(exc), exc.line, exc.col


def _reference(text):
    try:
        return [(t.kind, t.text, t.line, t.col) for t in ref.tokenize(text)]
    except ParseError as exc:
        return "ParseError", str(exc), exc.line, exc.col


def _agree(text):
    assert _read(tokenize, text) == _reference(text), repr(text)


def test_corpus_files_agree():
    paths = sorted(glob.glob(os.path.join(CORPUS, "*.eo")))
    assert len(paths) >= 16
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        _agree(text)  # the header's '#' is an unexpected character
        _agree(split_header(text)[1])


def test_bound_five_judgments_and_elaborations_agree():
    texts = set()
    for j in enumerate_welltyped(5):
        ee, ety = econ.econ_expr(j.expr), econ.econ_type(j.ty)
        r = econ.econ_check(EconCtx(), ee, ety)
        texts |= {pretty_expr(j.expr), pretty_ty(j.ty), pretty_expr(ee),
                  pretty_ty(ety), f"({pretty_expr(j.expr)} : {pretty_ty(j.ty)})",
                  pretty_term(elaborate(r).term),
                  pretty_ty(ty_target(ety))}
    assert len(texts) > 2000
    for text in texts:
        _agree(text)


# The grammar's symbols, keywords, names, numbers, sigils, comments and
# whitespace, and a few characters it rejects.
_PIECES = [
    "-[", "]>", "*[", "+[", "/\\", "->", "(", ")", "[", "]", "{", "}", ".",
    ",", ":", "\\", "|", "=", "*", "+", "-", "/", "--", "-- note", "'", "%",
    "'a", "%e", "x", "x1", "_", "u_2", "fix", "case", "inj1", "V", "N", "1",
    "2", "10", " ", "  ", "\t", "\r", "\n", "\r\n", "#", "#lang econ", "é",
    "²", "½", "\x0c",
]


@settings(max_examples=500)
@given(st.lists(st.sampled_from(_PIECES), max_size=40).map("".join))
@example("x -- trailing comment")
@example("(x -- note\n  , y)")
@example("1 --")
def test_grammar_alphabet_text_agrees(text):
    _agree(text)


@settings(max_examples=500)
@given(st.text(max_size=40))
@example("café")
@example("x² 1²3")
@example("'é %² '½")
@example("½")
@example("a½ ½a")
@example("(() : 1)\x0c")
@example("x '")
@example("x %")
@example("x -- é\x0c")
@example(" \x85\x1c")
def test_arbitrary_unicode_agrees(text):
    _agree(text)
