"""Command-line front end.

Exit codes: 0 on success or all checks passing, 1 on type or verification
failure, 2 on usage or parse errors and on a file that cannot be read
(missing, a directory, not UTF-8), 3 on input that nests too deeply to
process.  ``--json`` switches every command to one structured record on
stdout, a failed one included (verdict "error", with the exception's
class and message); argparse usage errors print only argparse's message.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import threading

from . import econ as econ_mod
from . import impartial as imp_mod
from . import source as src_mod
from . import target as tgt_mod
from . import verify as verify_mod
from .elaborate import ty_target
from .enum_terms import enumerate_welltyped
from .errors import EopolyError, ParseError
from .nfree import (
    n_free_econ_judgment,
    n_free_impartial_judgment,
    n_free_target,
)
from .pretty import pretty_expr, pretty_term, pretty_ty
from .program import load_program
from .syntax import SYNTH, EconCtx, ImpCtx, erase
from .verify import CheckOutcome, Judgment


def _emit(args, verdict: str, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        record = {
            "command": args.command,
            "input": getattr(args, "file", None),
            "verdict": verdict,
            "payload": payload,
        }
        print(json.dumps(record, indent=2, default=repr))
    else:
        for line in text_lines:
            print(line)


def _typecheck(prog):
    """Synthesize the main expression in its file's own system."""
    if prog.lang == "impartial":
        return imp_mod.synth(ImpCtx(), prog.main)
    return _to_econ(prog).typing


def _to_econ(prog) -> Judgment:
    """The main expression's judgment in the suspension-point system."""
    e = econ_mod.econ_expr(prog.main) if prog.lang == "impartial" else prog.main
    return Judgment(e, None, SYNTH)


def cmd_check(args) -> int:
    prog = load_program(args.file)
    r = _typecheck(prog)
    _emit(args, "ok",
          {"type": pretty_ty(r.ty), "valueness": r.valueness.value},
          [f"type: {pretty_ty(r.ty)}", f"valueness: {r.valueness.value}"])
    return 0


def cmd_econ(args) -> int:
    prog = load_program(args.file)
    if prog.lang != "impartial":
        raise EopolyError("the file is already in the suspension-point language")
    before = imp_mod.synth(ImpCtx(), prog.main)
    j = _to_econ(prog)
    r = j.typing
    _emit(
        args, "ok",
        {
            "expr": pretty_expr(j.expr),
            "type": pretty_ty(r.ty),
            "valueness": r.valueness.value,
            "source_valueness": before.valueness.value,
        },
        [
            f"translated: {pretty_expr(j.expr)}",
            f"type: {pretty_ty(r.ty)}",
            f"valueness: {r.valueness.value} (before: {before.valueness.value})",
        ],
    )
    return 0


def cmd_elaborate(args) -> int:
    prog = load_program(args.file)
    j = _to_econ(prog)
    er = j.elab
    ty = ty_target(j.typing.ty)
    _emit(
        args, "ok",
        {"term": pretty_term(er.term), "type": pretty_ty(ty),
         "valueness": er.valueness.value},
        [f"term: {pretty_term(er.term)}", f"type: {pretty_ty(ty)}",
         f"valueness: {er.valueness.value}"],
    )
    return 0


def _report_run(args, run, start, show) -> int:
    """Run ``start`` with ``run`` (a ``syntax.Run`` maker) and emit the
    outcome, showing each state with ``show``: printed as it comes, or
    with ``--json`` kept for the record."""
    trace: list[str] = []
    count = itertools.count()

    def on_state(x) -> None:
        if args.json:
            trace.append(show(x))
        else:
            print(f"  [{next(count)}] {show(x)}")

    kind, term, steps = run(start, args.fuel).finish(
        on_state if args.trace else None)
    final = show(term)
    payload = {"result": final, "kind": kind, "steps": steps}
    if trace:
        payload["trace"] = trace
    _emit(args, kind, payload, [f"{kind} after {steps} step(s): {final}"])
    return 0 if kind == "value" else 1


def cmd_run(args) -> int:
    prog = load_program(args.file)
    return _report_run(args, tgt_mod.run, _to_econ(prog).elab.term, pretty_term)


def cmd_src_run(args) -> int:
    prog = load_program(args.file)
    _typecheck(prog)
    return _report_run(args, src_mod.cbv_run, erase(prog.main), pretty_expr)


def cmd_steps(args) -> int:
    prog = load_program(args.file)
    _typecheck(prog)
    e = erase(prog.main)
    steps = src_mod.enumerate_steps(e)
    lines = [f"{len(steps)} step(s) from {pretty_expr(e)}"]
    payload_steps = []
    for s in steps:
        lines.append(f"  {s.flavor:8s} {s.rule:5s} at {'/'.join(s.path) or 'root'}"
                     f" -> {pretty_expr(s.result)}")
        payload_steps.append({"flavor": s.flavor, "rule": s.rule,
                              "path": list(s.path),
                              "result": pretty_expr(s.result)})
    _emit(args, "ok", {"steps": payload_steps}, lines)
    return 0


def cmd_freeness(args) -> int:
    prog = load_program(args.file)
    j = _to_econ(prog)
    levels = []  # (payload key, text label, N-free?)
    if prog.lang == "impartial":
        imp = n_free_impartial_judgment(ImpCtx(), prog.main, _typecheck(prog).ty)
        levels.append(("impartial", "impartial judgment", imp))
    levels += [("econ", "suspension-point judgment",
                n_free_econ_judgment(EconCtx(), j.expr, j.typing.ty)),
               ("target", "core term", n_free_target(j.elab.term))]
    _emit(args, "ok", {key: free for key, _, free in levels},
          [f"{label} N-free: {free}" for _, label, free in levels])
    return 0


def _judgment_checks(source, j: Judgment, pid: str) -> list[CheckOutcome]:
    """The checks every judgment gets: the translation checks on its
    impartial ``source`` typing (expression, type and valueness), when it
    has one, and the elaboration checks on its suspension-point judgment
    ``j``."""
    out = []
    if source is not None:
        e, ty, valueness = source
        out = [verify_mod.econ_preservation(ImpCtx(), e, ty, valueness, pid),
               verify_mod.nfree_econ(ImpCtx(), e, ty, pid)]
    return out + [verify_mod.elab_soundness(j, pid), verify_mod.nfree_elab(j, pid)]


def _verify_program(args) -> list[CheckOutcome]:
    prog = load_program(args.file)
    j = _to_econ(prog)
    source = None
    if prog.lang == "impartial":
        r = imp_mod.synth(ImpCtx(), prog.main)
        source = (prog.main, r.ty, r.valueness)
    return _judgment_checks(source, j, args.file) + [
        verify_mod.run_type_safety(j.elab.term, ty_target(j.typing.ty),
                                   lambda: j.tpool, args.fuel, args.file),
        verify_mod.consistency(j, args.fuel, args.depth, args.file).outcome(),
        verify_mod.cbv_endpoint(j, args.fuel, args.file),
    ]


def _verify_enumerated(args) -> list[CheckOutcome]:
    outcomes: list[CheckOutcome] = []
    for i, imp in enumerate(enumerate_welltyped(args.enumerate)):
        j = Judgment(econ_mod.econ_expr(imp.expr), econ_mod.econ_type(imp.ty),
                     imp.direction)
        outcomes += _judgment_checks((imp.expr, imp.ty, imp.valueness), j,
                                     f"enum-{i}")
    return outcomes


def cmd_verify(args) -> int:
    outcomes = _verify_enumerated(args) if args.enumerate else _verify_program(args)
    failed = [o for o in outcomes if o.verdict == verify_mod.FAIL]
    exhausted = [o for o in outcomes if o.verdict == verify_mod.SEARCH_EXHAUSTED]
    if args.json:
        print(json.dumps([o.record() for o in outcomes], indent=2))
    else:
        for o in outcomes:
            print(o.line())
        ok = len(outcomes) - len(failed) - len(exhausted)
        print(f"{len(outcomes)} checks: {ok} ok, "
              f"{len(failed)} failed, {len(exhausted)} search-exhausted")
    return 1 if failed else 0


def _count(text: str) -> int:
    """A non-negative integer option value."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return n


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="eopoly",
        description="Evaluation-order polymorphism: typecheck, translate, "
                    "elaborate, run, and verify.",
    )
    ap.add_argument("--json", action="store_true", help="structured output")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn, parser=p)
        return p

    p = add("check", cmd_check, help="typecheck a program")
    p.add_argument("file")
    p = add("econ", cmd_econ, help="translate to the suspension-point system")
    p.add_argument("file")
    p = add("elaborate", cmd_elaborate, help="elaborate to the core language")
    p.add_argument("file")
    p = add("run", cmd_run, help="elaborate, then evaluate the core term")
    p.add_argument("file")
    p.add_argument("--fuel", type=_count, default=10_000)
    p.add_argument("--trace", action="store_true")
    p = add("src-run", cmd_src_run, help="by-value evaluation of the erased source")
    p.add_argument("file")
    p.add_argument("--fuel", type=_count, default=10_000)
    p.add_argument("--trace", action="store_true")
    p = add("steps", cmd_steps, help="list all source steps of the erased program")
    p.add_argument("file")
    p = add("freeness", cmd_freeness, help="report N-freeness at every level")
    p.add_argument("file")
    p = add("verify", cmd_verify, help="run the metatheory checks")
    p.add_argument("file", nargs="?")
    p.add_argument("--enumerate", type=_count, default=0, metavar="BOUND",
                   help="run the suites over enumerated terms instead")
    p.add_argument("--fuel", type=_count, default=10_000)
    p.add_argument("--depth", type=_count, default=8,
                   help="simulation search depth")
    return ap


# A command may recurse up to the recursion limit, and the C stack must
# hold that many frames, or deep input ends by SIGSEGV instead of exit 3.
# Comparing two nested nodes takes 235 bytes of C stack a frame on CPython
# 3.11, so the main thread's 8 MB holds about 35 000 such frames; 3.10 puts
# a C frame under every Python call as well.  256 MB allows 2.6 KB a frame
# at the limit, and only the pages a command reaches are ever touched.
_RECURSION_LIMIT = 100_000
_STACK_BYTES = 256 * 2**20


def main(argv: list[str] | None = None) -> int:
    """Run one command on a thread whose stack holds the recursion limit.
    The thread is a daemon, so Ctrl-C on the waiting main thread still ends
    the process; an exception that escapes the command is raised here."""
    sys.setrecursionlimit(_RECURSION_LIMIT)
    out: list = []

    def work():
        try:
            out.append(_main(argv))
        except BaseException as ex:
            out.append(ex)

    threading.stack_size(_STACK_BYTES)
    worker = threading.Thread(target=work, daemon=True)
    worker.start()
    threading.stack_size(0)
    worker.join()
    if isinstance(out[0], BaseException):
        raise out[0]
    return out[0]


def _main(argv: list[str] | None) -> int:
    ap = build_arg_parser()
    try:
        args = ap.parse_args(argv)
        if args.command == "verify" and args.enumerate and args.file:
            args.parser.error("verify takes a FILE or --enumerate BOUND, not both")
        if args.command == "verify" and not args.enumerate and not args.file:
            args.parser.error("verify needs a FILE or a positive --enumerate BOUND")
    except SystemExit as ex:
        return 2 if ex.code else 0
    try:
        return args.fn(args)
    except ParseError as ex:
        return _failed(args, ex, "parse error", 2)
    except OSError as ex:
        return _failed(args, ex, "error", 2)
    except UnicodeDecodeError as ex:
        return _failed(args, ex, "error", 2,
                       f"{args.file} is not UTF-8: {ex.reason} at byte {ex.start}")
    except EopolyError as ex:
        return _failed(args, ex, f"error: {ex.__class__.__name__}", 1)
    except RecursionError as ex:
        return _failed(args, ex, "error", 3, "input nests too deeply")


def _failed(args, ex: Exception, prefix: str, code: int,
            message: str | None = None) -> int:
    """Report a command that failed with ``ex``: ``prefix`` and the message
    (``ex``'s own by default) on stderr and, with ``--json``, an error
    record on stdout; return the exit code."""
    message = str(ex) if message is None else message
    print(f"{prefix}: {message}", file=sys.stderr)
    _emit(args, "error", {"error": ex.__class__.__name__, "message": message}, [])
    return code


if __name__ == "__main__":
    raise SystemExit(main())
