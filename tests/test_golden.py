"""The command line's whole output on the corpus, byte for byte.

For each corpus program, ``tests/golden/<name>.txt`` holds the stdout and
exit code of every read-only command on it: the type, the translation
(impartial programs only), the elaboration, N-freeness, the source steps,
the verification battery in text and JSON, and short traced runs at both
ends.  A refactoring that changes none of the package's behaviour leaves
every file as it is.  After a deliberate change of output, rewrite them
with

    PYTHONPATH=src python tests/test_golden.py --record
"""

import contextlib
import io
import os
import sys

import pytest

from eopoly.cli import main

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
GOLDEN = os.path.join(ROOT, "tests", "golden")
PROGRAMS = sorted(f[:-3] for f in os.listdir(os.path.join(ROOT, "corpus"))
                  if f.endswith(".eo"))
FUEL = "50"


def commands(name: str) -> list[list[str]]:
    f = f"corpus/{name}.eo"
    with open(os.path.join(ROOT, f), encoding="utf-8") as fh:
        impartial = fh.readline().strip() == "#lang impartial"
    return ([["check", f]] + ([["econ", f]] if impartial else [])
            + [["elaborate", f], ["freeness", f], ["steps", f], ["verify", f],
               ["--json", "verify", f],
               ["run", "--fuel", FUEL, "--trace", f],
               ["src-run", "--fuel", FUEL, "--trace", f]])


def transcript(name: str) -> str:
    """Every command's argv, exit code and stdout, run from the root."""
    out = []
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        for argv in commands(name):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            out.append(f"$ eopoly {' '.join(argv)}\nexit {code}\n{buf.getvalue()}")
    finally:
        os.chdir(cwd)
    return "".join(out)


def golden_path(name: str) -> str:
    return os.path.join(GOLDEN, f"{name}.txt")


@pytest.mark.parametrize("name", PROGRAMS)
def test_golden(name):
    with open(golden_path(name), encoding="utf-8", newline="") as fh:
        want = fh.read()
    assert transcript(name) == want


def test_every_program_has_a_golden_file():
    assert sorted(f[:-4] for f in os.listdir(GOLDEN)) == PROGRAMS


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    os.makedirs(GOLDEN, exist_ok=True)
    for program in PROGRAMS:
        with open(golden_path(program), "w", encoding="utf-8", newline="") as fh:
            fh.write(transcript(program))
