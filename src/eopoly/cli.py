"""Command-line front end.

Exit codes: 0 on success or all checks passing, 1 on type or verification
failure, 2 on usage or parse errors, 3 on input that nests too deeply to
process.  ``--json`` switches every command to one structured record on
stdout.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import econ as econ_mod
from . import impartial as imp_mod
from . import source as src_mod
from . import target as tgt_mod
from . import verify as verify_mod
from .elaborate import ElabChecker, elaborate, ty_target
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
from .verify import CheckOutcome


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
    return econ_mod.econ_synth(EconCtx(), prog.main)


def _to_econ(prog):
    """The main expression and its synthesis, in the suspension-point system."""
    if prog.lang == "impartial":
        e = econ_mod.econ_expr(prog.main)
    else:
        e = prog.main
    r = econ_mod.econ_synth(EconCtx(), e)
    return e, r


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
    e, r = _to_econ(prog)
    _emit(
        args, "ok",
        {
            "expr": pretty_expr(e),
            "type": pretty_ty(r.ty),
            "valueness": r.valueness.value,
            "source_valueness": before.valueness.value,
        },
        [
            f"translated: {pretty_expr(e)}",
            f"type: {pretty_ty(r.ty)}",
            f"valueness: {r.valueness.value} (before: {before.valueness.value})",
        ],
    )
    return 0


def cmd_elaborate(args) -> int:
    prog = load_program(args.file)
    _, r = _to_econ(prog)
    er = elaborate(r.deriv)
    ty = ty_target(r.ty)
    _emit(
        args, "ok",
        {"term": pretty_term(er.term), "type": pretty_ty(ty),
         "valueness": er.valueness.value},
        [f"term: {pretty_term(er.term)}", f"type: {pretty_ty(ty)}",
         f"valueness: {er.valueness.value}"],
    )
    return 0


def cmd_run(args) -> int:
    prog = load_program(args.file)
    _, r = _to_econ(prog)
    er = elaborate(r.deriv)
    result = tgt_mod.evaluate(er.term, args.fuel, want_trace=args.trace)
    lines = []
    if args.trace and result.trace:
        lines += [f"  [{i}] {pretty_term(m)}" for i, m in enumerate(result.trace)]
    lines.append(f"{result.kind} after {result.steps} step(s): "
                 f"{pretty_term(result.term)}")
    payload = {"result": pretty_term(result.term), "kind": result.kind,
               "steps": result.steps}
    if args.trace and result.trace:
        payload["trace"] = [pretty_term(m) for m in result.trace]
    _emit(args, result.kind, payload, lines)
    return 0 if result.kind == "value" else 1


def cmd_src_run(args) -> int:
    prog = load_program(args.file)
    _typecheck(prog)
    e = erase(prog.main)
    result = src_mod.cbv_evaluate(e, args.fuel, want_trace=args.trace)
    lines = []
    if args.trace and result.trace:
        lines += [f"  [{i}] {pretty_expr(x)}" for i, x in enumerate(result.trace)]
    lines.append(f"{result.kind} after {result.steps} step(s): "
                 f"{pretty_expr(result.expr)}")
    payload = {"result": pretty_expr(result.expr), "kind": result.kind,
               "steps": result.steps}
    if args.trace and result.trace:
        payload["trace"] = [pretty_expr(x) for x in result.trace]
    _emit(args, result.kind, payload, lines)
    return 0 if result.kind == "value" else 1


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
    payload: dict = {}
    lines: list[str] = []
    if prog.lang == "impartial":
        r = imp_mod.synth(ImpCtx(), prog.main)
        imp = n_free_impartial_judgment(ImpCtx(), prog.main, r.ty)
        payload["impartial"] = imp
        lines.append(f"impartial judgment N-free: {imp}")
    e, r2 = _to_econ(prog)
    ec = n_free_econ_judgment(EconCtx(), e, r2.ty)
    payload["econ"] = ec
    lines.append(f"suspension-point judgment N-free: {ec}")
    er = elaborate(r2.deriv)
    tg = n_free_target(er.term)
    payload["target"] = tg
    lines.append(f"core term N-free: {tg}")
    _emit(args, "ok", payload, lines)
    return 0


def _verify_program(args) -> list[CheckOutcome]:
    prog = load_program(args.file)
    outcomes: list[CheckOutcome] = []
    pid = args.file
    if prog.lang == "impartial":
        outcomes.append(
            verify_mod.run_econ_preservation(ImpCtx(), prog.main, None, SYNTH, pid)
        )
        outcomes.append(
            verify_mod.run_nfree_econ(ImpCtx(), prog.main, None, SYNTH, pid)
        )
    e, r = _to_econ(prog)
    # One candidate pool and one membership checker serve every check.
    pool = verify_mod.build_pool(e, [r.ty])
    tpool = verify_mod.target_pool(pool)
    checker = ElabChecker(pool)
    outcomes.append(
        verify_mod.run_elab_soundness(e, None, SYNTH, pid, checker=checker,
                                      tpool=tpool)
    )
    outcomes.append(verify_mod.run_nfree_elab(e, None, SYNTH, pid))
    er = elaborate(r.deriv)
    outcomes.append(
        verify_mod.run_type_safety(er.term, ty_target(r.ty), tpool, args.fuel, pid)
    )
    report = verify_mod.run_consistency(e, None, SYNTH, args.fuel,
                                        args.depth, pid, checker=checker)
    outcomes.append(report.outcome())
    outcomes.append(
        verify_mod.run_cbv_endpoint(e, None, SYNTH, args.fuel, pid,
                                    checker=checker)
    )
    return outcomes


def _verify_enumerated(args) -> list[CheckOutcome]:
    from .econ import econ_expr, econ_type

    outcomes: list[CheckOutcome] = []
    judgments = enumerate_welltyped(args.enumerate)
    for i, j in enumerate(judgments):
        pid = f"enum-{i}"
        outcomes.append(
            verify_mod.run_econ_preservation(
                ImpCtx(), j.expr, j.ty if j.direction == "check" else None,
                j.direction, pid,
            )
        )
        outcomes.append(
            verify_mod.run_nfree_econ(
                ImpCtx(), j.expr, j.ty if j.direction == "check" else None,
                j.direction, pid,
            )
        )
        ee = econ_expr(j.expr)
        ety = econ_type(j.ty)
        outcomes.append(
            verify_mod.run_elab_soundness(
                ee, ety if j.direction == "check" else None, j.direction, pid
            )
        )
        outcomes.append(
            verify_mod.run_nfree_elab(
                ee, ety if j.direction == "check" else None, j.direction, pid
            )
        )
    return outcomes


def cmd_verify(args) -> int:
    if args.enumerate:
        outcomes = _verify_enumerated(args)
    else:
        if not args.file:
            raise EopolyError("verify needs a file or --enumerate BOUND")
        outcomes = _verify_program(args)
    failed = [o for o in outcomes if o.verdict == verify_mod.FAIL]
    exhausted = [o for o in outcomes if o.verdict == verify_mod.SEARCH_EXHAUSTED]
    if args.json:
        print(json.dumps([o.record() for o in outcomes], indent=2))
    else:
        for o in outcomes:
            print(o.line())
        print(f"{len(outcomes)} checks: {len(outcomes) - len(failed)} ok, "
              f"{len(failed)} failed, {len(exhausted)} search-exhausted")
    return 1 if failed else 0


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
        p.set_defaults(fn=fn)
        return p

    p = add("check", cmd_check, help="typecheck a program")
    p.add_argument("file")
    p = add("econ", cmd_econ, help="translate to the suspension-point system")
    p.add_argument("file")
    p = add("elaborate", cmd_elaborate, help="elaborate to the core language")
    p.add_argument("file")
    p = add("run", cmd_run, help="elaborate, then evaluate the core term")
    p.add_argument("file")
    p.add_argument("--fuel", type=int, default=10_000)
    p.add_argument("--trace", action="store_true")
    p = add("src-run", cmd_src_run, help="by-value evaluation of the erased source")
    p.add_argument("file")
    p.add_argument("--fuel", type=int, default=10_000)
    p.add_argument("--trace", action="store_true")
    p = add("steps", cmd_steps, help="list all source steps of the erased program")
    p.add_argument("file")
    p = add("freeness", cmd_freeness, help="report N-freeness at every level")
    p.add_argument("file")
    p = add("verify", cmd_verify, help="run the metatheory checks")
    p.add_argument("file", nargs="?")
    p.add_argument("--enumerate", type=int, default=0, metavar="BOUND",
                   help="run the suites over enumerated terms instead")
    p.add_argument("--fuel", type=int, default=10_000)
    p.add_argument("--depth", type=int, default=8,
                   help="simulation search depth")
    return ap


def main(argv: list[str] | None = None) -> int:
    sys.setrecursionlimit(100_000)
    ap = build_arg_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as ex:
        return 2 if ex.code else 0
    try:
        return args.fn(args)
    except ParseError as ex:
        print(f"parse error: {ex}", file=sys.stderr)
        return 2
    except FileNotFoundError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except EopolyError as ex:
        print(f"error: {ex.__class__.__name__}: {ex}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: input nests too deeply", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
