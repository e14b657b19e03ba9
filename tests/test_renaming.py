"""Renaming every name of a program changes no answer.

Each corpus file is renamed at the text level: every term, fixed-point,
type and order name gets a suffix that no file uses, while keywords, the
orders ``V`` and ``N`` and abbreviation names stay.  The rename is a
token substitution over the program text, so it is independent of
``syntax.subst`` and of every binder the checkers open.  The renamed
program must synthesize an alpha-equal type at the same valueness,
elaborate to an alpha-equal core term, and get the same verdict, reason
and step count from every ``verify`` check.
"""

import glob
import json
import os
import re

import pytest

from eopoly import econ, impartial
from eopoly.cli import main
from eopoly.elaborate import elaborate
from eopoly.program import parse_program
from eopoly.syntax import EconCtx, ImpCtx, alpha_eq

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")
FILES = sorted(glob.glob(os.path.join(CORPUS, "*.eo")))

SUFFIX = "_rn"
_KEPT = {"fix", "case", "inj1", "inj2", "forall", "all", "rec", "susp", "type",
         "thunk", "force", "roll", "unroll", "V", "N"}
# A comment, or a word with the quote or percent sign a type or an order
# variable starts with.
_TOKEN = re.compile(r"--[^\n]*|['%]?\w+")


def renamed(text: str) -> str:
    """``text`` with ``SUFFIX`` after every name but a keyword, an order
    constant or an abbreviation's own name; the header line and the
    comments are kept."""
    header, body = text.split("\n", 1)
    words = [t for t in _TOKEN.findall(body) if not t.startswith("--")]
    abbrevs = {w for prev, w in zip(words, words[1:]) if prev == "type"}

    def one(m):
        tok = m.group()
        if (tok.startswith("--") or tok in _KEPT or tok in abbrevs
                or tok[0].isdigit()):
            return tok
        return tok + SUFFIX

    return header + "\n" + _TOKEN.sub(one, body)


def _answers(text: str):
    """The synthesized type and valueness, the suspension-point typing's
    type and valueness, and the elaborated core term."""
    prog = parse_program(text)
    if prog.lang == "impartial":
        r = impartial.synth(ImpCtx(), prog.main)
        source = (r.ty, r.valueness)
        e = econ.econ_expr(prog.main)
    else:
        source = None
        e = prog.main
    r = econ.econ_synth(EconCtx(), e)
    return source, (r.ty, r.valueness), elaborate(r).term


def _verdicts(capsys, path: str):
    assert main(["--json", "verify", path]) in (0, 1)
    return [(o["check"], o["verdict"], o["witness"].get("reason"),
             o["witness"].get("steps"))
            for o in json.loads(capsys.readouterr().out)]


def test_the_suffix_is_new():
    for f in FILES:
        with open(f, encoding="utf-8") as fh:
            assert SUFFIX not in fh.read(), f


def test_renaming_renames():
    text = "#lang impartial\ntype T %a = 1 +[%a] 1\n((\\x. fix u. x) : T V) -- x\n"
    assert renamed(text) == ("#lang impartial\ntype T %a_rn = 1 +[%a_rn] 1\n"
                             "((\\x_rn. fix u_rn. x_rn) : T V) -- x\n")


@pytest.mark.parametrize("path", FILES, ids=os.path.basename)
def test_renaming_every_name_changes_no_answer(tmp_path, capsys, path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    new = renamed(text)
    assert new != text
    (source, typing, term) = _answers(text)
    (source2, typing2, term2) = _answers(new)
    if source is None:
        assert source2 is None
    else:
        assert alpha_eq(source[0], source2[0]) and source[1] == source2[1]
    assert alpha_eq(typing[0], typing2[0]) and typing[1] == typing2[1]
    assert alpha_eq(term, term2)
    copy = tmp_path / os.path.basename(path)
    copy.write_text(new, encoding="utf-8")
    assert _verdicts(capsys, str(copy)) == _verdicts(capsys, path)
