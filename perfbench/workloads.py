"""The four workloads: their set-up, their requests and their answer checks.

Each workload builds its request list in ``setup`` from the seed, gives
every pass fresh shared state in ``new_pass``, runs one request in
``execute`` (a generator: every value it yields is one timed result), and
compares a request's results with the known answers in ``check``, outside
the timed region.  Calls into the package go through module attributes so
that the tracer's wrappers see them.
"""

from __future__ import annotations

import random
from pathlib import Path

from eopoly import econ, elaborate, enum_terms, impartial, pretty, program, source
from eopoly import syntax as S
from eopoly import target, verify

import answers
import inputs
import syntaxio

ENUM_BOUND = 6
FUEL = 10_000
SEARCH_DEPTH = 8


def load_corpus(root: Path) -> dict[str, str]:
    return {p.name: p.read_text(encoding="utf-8")
            for p in sorted((root / "corpus").glob("*.eo"))}


def sorted_judgments(bound: int) -> list:
    js = enum_terms.enumerate_welltyped(bound)
    return sorted(js, key=inputs.judgment_key)


class Workload:
    name = ""
    cold_requests = False  # each request starts from empty package caches
    requests: list = []

    def setup(self, root: Path, seed: int) -> None:
        raise NotImplementedError

    def new_pass(self):
        return None

    def expected_results(self, req) -> int:
        return 1

    def execute(self, req, shared):
        raise NotImplementedError

    def check(self, req, results: list) -> list[str]:
        raise NotImplementedError


def _mismatch(req_name: str, what: str, got, want) -> str:
    return f"{req_name}: {what} {got!r}, expected {want!r}"


class Compile(Workload):
    """``eopoly check`` plus ``eopoly elaborate`` on program text."""

    name = "compile"
    ENUM_STRIDE = 32

    def setup(self, root, seed):
        rng = random.Random(seed)
        reqs = [inputs.corpus_source(name, text, answers.CORPUS_TYPES[name])
                for name, text in load_corpus(root).items()]
        reqs += inputs.compile_templates(rng)
        drawn = inputs.systematic_draw(sorted_judgments(ENUM_BOUND),
                                       self.ENUM_STRIDE, rng)
        reqs += [inputs.judgment_source(i, j) for i, j in enumerate(drawn)]
        rng.shuffle(reqs)
        self.requests = reqs

    def execute(self, src, shared):
        prog = program.parse_program(src.text)
        if prog.lang == "impartial":
            r = impartial.synth(S.ImpCtx(), prog.main)
            e = econ.econ_expr(prog.main)
        else:
            r = econ.econ_synth(S.EconCtx(), prog.main)
            e = prog.main
        shown_ty = pretty.pretty_ty(r.ty)
        r2 = econ.econ_synth(S.EconCtx(), e)
        er = elaborate.elaborate(r2.deriv)
        core = (pretty.pretty_term(er.term),
                pretty.pretty_ty(elaborate.ty_target(r2.ty)))
        yield r.ty, r.valueness.value, shown_ty, core

    def check(self, src, results):
        ty, valueness, shown_ty, core = results[0]
        out = []
        if syntaxio.canon_type(ty) != src.ty:
            out.append(_mismatch(src.name, "type", syntaxio.canon_type(ty), src.ty))
        if valueness != src.valueness:
            out.append(_mismatch(src.name, "valueness", valueness, src.valueness))
        if not (shown_ty and all(core)):
            out.append(f"{src.name}: empty printed output")
        return out[:1]


class Run(Workload):
    """``eopoly run`` and ``eopoly src-run`` on each program: compile and
    run the core term, then typecheck and run the erased source."""

    name = "run"

    def setup(self, root, seed):
        rng = random.Random(seed)
        corpus = load_corpus(root)
        reqs = inputs.run_templates(rng)
        for name, fuels in answers.WITNESS_FUELS.items():
            for fuel in fuels:
                src = inputs.corpus_source(name, corpus[name],
                                           answers.CORPUS_TYPES[name])
                src.expect = {"fuel": fuel, "witness": True}
                reqs.append(src)
        rng.shuffle(reqs)
        self.requests = reqs

    def expected_results(self, req):
        return 2

    def execute(self, src, shared):
        """``eopoly run`` then ``eopoly src-run``: two timed results."""
        fuel = src.expect["fuel"]
        prog = program.parse_program(src.text)
        e = econ.econ_expr(prog.main)
        r = econ.econ_synth(S.EconCtx(), e)
        er = elaborate.elaborate(r.deriv)
        yield e, r.ty, target.evaluate(er.term, fuel)
        prog = program.parse_program(src.text)
        impartial.synth(S.ImpCtx(), prog.main)
        yield source.cbv_evaluate(S.erase(prog.main), fuel)

    def check(self, src, results):
        if len(results) < 2:
            return []  # the run raised; counted as missing results
        (e, ty, core), src_run = results
        want = src.expect
        if want.get("witness"):
            if core.kind != "value" or not isinstance(core.term, S.MUnit):
                return [_mismatch(src.name, "core run", core.kind, "value ()")]
            if src_run.kind != "out-of-fuel" or src_run.steps != want["fuel"]:
                return [_mismatch(src.name, "source run", src_run.kind, "out-of-fuel")]
            return []
        if core.kind != "value" or src_run.kind != "value":
            return [_mismatch(src.name, "runs", (core.kind, src_run.kind),
                              ("value", "value"))]
        if "list" in want:
            got_src = syntaxio.source_list(src_run.expr)
            got_core = syntaxio.core_list(core.term)
            shape = want["list"]
        else:
            got_src = syntaxio.source_tree(src_run.expr)
            got_core = syntaxio.core_tree(core.term)
            shape = want["tree"]
        if got_src != shape:
            return [_mismatch(src.name, "source result", got_src, shape)]
        if want["core"] == "V" and got_core != shape:
            return [_mismatch(src.name, "core result", got_core, shape)]
        if want["core"] == "N" and not syntaxio.is_suspended(core.term):
            return [f"{src.name}: by-name core result is not a suspended roll"]
        if want.get("nfree"):
            pool = verify.build_pool(e, [ty])
            if elaborate.check_elab(src_run.expr, ty, core.term, pool) != S.VAL:
                return [f"{src.name}: source value does not elaborate to the core value"]
        return []


class VerifyEnum(Workload):
    """The ``verify --enumerate`` battery plus target type safety over one
    in 64 of the bound-6 judgments, in seeded order, with one shared
    membership checker and one shared core checker per pass."""

    name = "verify_enum"
    ENUM_STRIDE = 64

    def setup(self, root, seed):
        # A handful of growing divergent producers carry most of the time,
        # so a seeded choice of judgments moved a pass's time 2.7-fold from
        # seed to seed: the sample is fixed (the middle of every block of
        # the sorted enumeration) and the seed orders it, which decides
        # what the shared checkers have already seen at each request.
        js = sorted_judgments(ENUM_BOUND)
        self.requests = js[self.ENUM_STRIDE // 2::self.ENUM_STRIDE]
        random.Random(seed).shuffle(self.requests)
        menu = [econ.econ_type(t) for t in enum_terms.default_menu()]
        self.pool = verify.build_pool(S.Unit(), menu)
        self.tpool = verify.target_pool(self.pool)

    def new_pass(self):
        return elaborate.ElabChecker(self.pool), target.TargetChecker(self.tpool)

    def execute(self, j, shared):
        checker, tchecker = shared
        checking = j.direction == S.CHECK
        ty = j.ty if checking else None
        outs = [verify.run_econ_preservation(S.ImpCtx(), j.expr, ty, j.direction),
                verify.run_nfree_econ(S.ImpCtx(), j.expr, ty, j.direction)]
        ee = econ.econ_expr(j.expr)
        ety = econ.econ_type(j.ty)
        outs.append(verify.run_elab_soundness(ee, ety if checking else None,
                                              j.direction, checker=checker,
                                              tpool=self.tpool))
        outs.append(verify.run_nfree_elab(ee, ety if checking else None, j.direction))
        if checking:
            r = econ.econ_check(S.EconCtx(), ee, ety)
        else:
            r = econ.econ_synth(S.EconCtx(), ee)
        er = elaborate.elaborate(r.deriv)
        outs.append(verify.run_type_safety(er.term, elaborate.ty_target(r.ty),
                                           self.tpool, FUEL, checker=tchecker))
        yield [o.verdict for o in outs]

    def check(self, j, results):
        bad = [v for v in results[0] if v not in (verify.PASS, verify.VACUOUS)]
        if bad:
            return [f"{inputs.judgment_key(j)}: verdicts {results[0]}"]
        return []


class Simulate(Workload):
    """``eopoly verify FILE`` on every corpus file; each check is one
    timed result, charged with the front-end work that precedes it.  Each
    file starts from empty caches, as one CLI process per file does."""

    name = "simulate"
    cold_requests = True

    def setup(self, root, seed):
        files = list(load_corpus(root).items())
        random.Random(seed).shuffle(files)
        self.requests = files

    def expected_results(self, req):
        return len(answers.expected_checks(req[0]))

    def execute(self, req, shared):
        name, text = req
        prog = program.parse_program(text)
        if prog.lang == "impartial":
            yield verify.run_econ_preservation(S.ImpCtx(), prog.main, None, S.SYNTH, name)
            yield verify.run_nfree_econ(S.ImpCtx(), prog.main, None, S.SYNTH, name)
            e = econ.econ_expr(prog.main)
        else:
            e = prog.main
        r = econ.econ_synth(S.EconCtx(), e)
        yield verify.run_elab_soundness(e, None, S.SYNTH, name)
        yield verify.run_nfree_elab(e, None, S.SYNTH, name)
        er = elaborate.elaborate(r.deriv)
        pool = verify.target_pool(verify.build_pool(e, [r.ty]))
        yield verify.run_type_safety(er.term, elaborate.ty_target(r.ty), pool, FUEL, name)
        yield verify.run_consistency(e, None, S.SYNTH, FUEL, SEARCH_DEPTH, name).outcome()
        yield verify.run_cbv_endpoint(e, None, S.SYNTH, FUEL, name)

    def check(self, req, results):
        name = req[0]
        out = []
        for (check, want), got in zip(answers.expected_checks(name), results):
            if got.check != check or got.verdict != want:
                out.append(_mismatch(name, check, (got.check, got.verdict), want))
        return out


WORKLOADS = {w.name: w for w in (Compile, Run, VerifyEnum, Simulate)}
