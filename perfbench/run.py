"""eopoly benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload compile --seed 1 --seconds 10 --trace 0

Run from the root of a checkout: the package is imported from ``src/``
and the corpus read from ``corpus/``.  One client sends requests in a
closed loop, one after another, with no threads.  The workload's request
list is one *pass*; passes repeat, each from cleared package caches and
with fresh shared checkers, until ``--seconds`` of timed work (at least
one pass).  Every result is checked against a known answer after its
pass, outside the timed region.

On a machine whose cores are shared with other work, speed swings by
half or more within seconds, so every timed region is paired with the
speed the machine ran at during it (see ``Probe``) and reported in
seconds at a fixed reference speed.  Each result's time is the median of
its repetitions across the run's passes: the latency quantiles are taken
over those, ``wall_s`` is their sum (one pass at each result's median) and
``throughput_rps`` is results per pass over ``wall_s``.  ``setup_s`` is
the median of several complete set-ups, each importing the package
afresh.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one pass
untraced and the same pass traced, and prints the per-layer metrics and
the tracing overhead.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# Set-ups per run: at least the first, and more while they stay cheap.
SETUP_REPEATS = (3, 15)
SETUP_BUDGET_S = 2.0
# Repetitions of one request in a workload whose requests start cold.
COLD_REPEATS = 3
COLD_REPEAT_S = 1.0
MAX_SPANS = 100_000
# Seconds that ``reference_loop`` takes at the reference speed (about its
# time on an idle 2-vCPU Xeon virtual machine), how often the run is
# interrupted to time it, and how many of those samples on each side of a
# timed region join the ones inside it to give the speed during it.
REFERENCE_S = 0.0004
PROBE_EVERY_S = 0.01
PROBE_NEIGHBOURS = 4
# Modules imported afresh by every set-up: the package and the benchmark
# modules that bind its names.
FRESH = ("eopoly", "workloads", "inputs", "answers", "syntaxio", "tracer")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("compile", "run", "verify_enum", "simulate"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def check_checkout() -> None:
    """Import eopoly only from this checkout's ``src/``."""
    src = ROOT / "src"
    if not (src / "eopoly" / "__init__.py").is_file() or not (ROOT / "corpus").is_dir():
        sys.exit(f"error: no eopoly sources under {src} or no corpus under {ROOT}")
    sys.path.insert(0, str(src))
    sys.setrecursionlimit(100_000)  # as the CLI does: terms nest deeply


def fresh_setup(name: str, seed: int):
    """Import the package and the workload afresh, then set the workload up."""
    for mod in [m for m in sys.modules if m.split(".")[0] in FRESH]:
        del sys.modules[mod]
    gc.collect()
    import workloads

    wl = workloads.WORKLOADS[name]()
    wl.setup(ROOT, seed)
    return wl


def package_caches():
    """Every memo table the package keeps per process (lru_cache wrappers)."""
    out = []
    for name, mod in list(sys.modules.items()):
        if name == "eopoly" or name.startswith("eopoly."):
            out += [v for v in vars(mod).values()
                    if callable(getattr(v, "cache_clear", None))
                    and hasattr(v, "cache_info")]
    return out


def reset_caches(caches) -> None:
    for fn in caches:
        fn.cache_clear()
    gc.collect()


class _Node:
    __slots__ = ("op", "kids")

    def __init__(self, op, kids):
        self.op = op
        self.kids = kids


def _build(depth: int, i: int) -> _Node:
    if depth == 0:
        return _Node(i % 7, ())
    return _Node(i % 5, (_build(depth - 1, 2 * i), _build(depth - 1, 2 * i + 1)))


def _walk(node: _Node, env: dict):
    if node.kids:
        return node.op, tuple(_walk(k, env) for k in node.kids)
    return env.get(node.op, node.op)


def reference_loop() -> int:
    """A fixed piece of work shaped like the package's: build a small tree
    of objects, rebuild it three times as tuples under a substitution, hash
    the results.  It calls nothing in the package."""
    tree = _build(7, 1)
    return len({hash(_walk(tree, {j: -j})) for j in range(3)})


class Probe:
    """The machine's speed throughout a run.

    Other tenants of a shared machine slow a process by half or more for
    seconds at a time, the workload and a loop of similar Python work alike.
    While the probe is on, a timer signal times ``reference_loop`` every
    ``PROBE_EVERY_S``.  ``now`` is a clock that leaves out the time those
    samples take, and ``reference_s`` scales a region timed with it by
    ``REFERENCE_S`` over the loop's median time during the region and
    ``PROBE_NEIGHBOURS`` samples either side: a region that ran while the
    machine was twice as slow reads the same, while a change to the
    package, which cannot move the loop, reads in full.  The loop runs with
    the garbage collector off, so that the package's heap does not move it.
    """

    def __init__(self):
        self.at: list[float] = []  # when each sample started, on ``now``
        self.took: list[float] = []
        self.spent = 0.0

    def _sample(self, signum=None, frame=None) -> None:
        enabled = gc.isenabled()
        gc.disable()
        t = time.perf_counter()
        reference_loop()
        took = time.perf_counter() - t
        if enabled:
            gc.enable()
        self.at.append(t - self.spent)
        self.took.append(took)
        self.spent += time.perf_counter() - t

    def now(self) -> float:
        return time.perf_counter() - self.spent

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        for _ in range(PROBE_NEIGHBOURS):  # neighbours for the last region
            self._sample()

    def reference_s(self, t0: float, t1: float) -> float:
        """The region from ``t0`` to ``t1`` on ``now``, in seconds at the
        reference speed; only once the probe is off."""
        lo = max(bisect.bisect_left(self.at, t0) - PROBE_NEIGHBOURS, 0)
        hi = bisect.bisect_right(self.at, t1) + PROBE_NEIGHBOURS
        return (t1 - t0) * REFERENCE_S / statistics.median(self.took[lo:hi])


def run_request(wl, req, shared, tracer=None, clock=time.perf_counter):
    """One request: ((start, end) of each result on ``clock``, results,
    traceback or None)."""
    regions: list[tuple[float, float]] = []
    results: list = []
    error = None
    frame = tracer.open("request") if tracer is not None else None
    t0 = clock()
    try:
        for out in wl.execute(req, shared):
            t1 = clock()
            regions.append((t0, t1))
            results.append(out)
            t0 = clock()
    except Exception:  # a request that raises is a failed request
        regions.append((t0, clock()))
        error = traceback.format_exc(limit=3)
    finally:
        if frame is not None:
            tracer.close(frame)
    return regions, results, error


def run_pass(wl, caches, tracer=None, probe=None):
    """One closed-loop pass: (wall_s, [(start, end) of each repetition]
    per result, [(request, results, error)]).

    A workload whose requests stand for separate CLI processes starts each
    one from empty package caches and a collected heap, outside the timed
    region.  Such a pass is too long to repeat whole, so, when measured
    (given ``probe``, whose clock it then uses), it makes up to
    ``COLD_REPEATS`` rounds: later rounds rerun the requests that have so
    far taken under ``COLD_REPEAT_S`` in all.
    """
    shared = wl.new_pass()
    reps: list[list[list[tuple[float, float]]]] = [[] for _ in wl.requests]
    clock = probe.now if probe is not None else time.perf_counter
    first: list = [None] * len(wl.requests)
    rounds = COLD_REPEATS if wl.cold_requests and probe is not None else 1
    start = time.perf_counter()
    for round_ in range(rounds):
        for i, req in enumerate(wl.requests):
            if round_ and (sum(t1 - t0 for rep in reps[i] for t0, t1 in rep)
                           >= COLD_REPEAT_S
                           or len(reps[i]) < round_):
                continue
            if tracer is not None:
                tracer.request = i
            if wl.cold_requests:
                reset_caches(caches)
            regions, results, error = run_request(wl, req, shared, tracer, clock)
            if first[i] is None:
                first[i] = (req, results, error)
            if not reps[i] or len(regions) == len(reps[i][0]):
                reps[i].append(regions)  # a repetition that raised is dropped
    timings = [list(r) for rs in reps for r in zip(*rs)]
    return time.perf_counter() - start, timings, first


def check_pass(wl, collected, first=None) -> tuple[int, list[str]]:
    """Compare a pass's results with their known answers, or, given the
    first pass's results (which were so compared), with those; evaluation
    is deterministic, so every pass must reproduce them.  Returns
    (attempted, failures)."""
    attempted = 0
    failures: list[str] = []
    for i, (req, results, error) in enumerate(collected):
        expected = wl.expected_results(req)
        attempted += expected
        if first is not None:
            if results != first[i][1][:len(results)]:
                failures.append(f"request {i}: results differ from the first pass")
        elif results:
            failures += wl.check(req, results)
        if len(results) < expected:
            failures += [f"request raised or stopped early:\n{error}"] * (
                expected - len(results))
    return attempted, failures


def measure(wl, caches, seconds: float, probe: Probe):
    """Passes until ``seconds`` of timed work, at least one.

    Returns the pass walls, each pass's timings, attempted and failures.
    """
    walls, timings, attempted, failures = [], [], 0, []
    first = None
    while sum(walls) < seconds:
        reset_caches(caches)
        wall, pass_timings, collected = run_pass(wl, caches, probe=probe)
        att, fail = check_pass(wl, collected, first)
        first = first or collected
        walls.append(wall)
        timings.append(pass_timings)
        attempted += att
        failures += fail
    return walls, timings, attempted, failures


def median_timings(per_pass, probe: Probe) -> list[tuple[float, int]]:
    """Each result's median over all its repetitions, in seconds at the
    reference speed, and their number; the first pass alone if passes
    differ in length (a request raised)."""
    if len({len(p) for p in per_pass}) > 1:
        per_pass = per_pass[:1]
    return [(statistics.median(probe.reference_s(*r) for r in sum(reps, [])),
             sum(map(len, reps)))
            for reps in zip(*per_pass)]


def end_to_end(name: str, args):
    least, most = SETUP_REPEATS
    setups = []
    with Probe() as probe:
        while len(setups) < least or (
                sum(t1 - t0 for t0, t1 in setups) < SETUP_BUDGET_S
                and len(setups) < most):
            t0 = probe.now()
            wl = fresh_setup(name, args.seed)
            setups.append((t0, probe.now()))
        caches = package_caches()
        walls, per_pass, attempted, failures = measure(wl, caches, args.seconds, probe)
    timings = median_timings(per_pass, probe)
    times = [t for t, _ in timings]
    wall = sum(times)
    reps = sorted({n for _, n in timings})
    shown = ", ".join(f"{w:.3f}" for w in walls)
    metrics = {
        "setup_s": (statistics.median(probe.reference_s(*r) for r in setups), "s",
                    f"median of {len(setups)} set-ups, measured "
                    + ", ".join(f"{t1 - t0:.3f}" for t0, t1 in setups)),
        "throughput_rps": (len(times) / wall, "1/s", f"{len(times)} results per pass"),
        "latency_p50_ms": (statistics.median(times) * 1e3, "ms",
                           f"{len(times)} samples, each the median of "
                           f"{reps[0]} to {reps[-1]} repetitions"),
        "latency_p90_ms": (statistics.quantiles(times, n=10)[8] * 1e3, "ms",
                           f"{len(times)} samples, {len(times) // 10} beyond"),
        "wall_s": (wall, "s",
                   f"sum of the results' medians; whole passes, probes "
                   f"included, measured {shown}; {len(probe.took)} reference loops"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB", "max resident set of the process"),
    }
    return wl, metrics, attempted, failures


def per_layer(name: str, args):
    wl = fresh_setup(name, args.seed)  # untraced, to import the package
    caches = package_caches()
    from tracer import Tracer

    tracer = Tracer(MAX_SPANS)
    reset_caches(caches)
    tracer.install()
    try:
        wl.setup(ROOT, args.seed)
    finally:
        tracer.uninstall()
    setup_calls = dict(tracer.calls)
    setup_self = dict(tracer.self_s)
    setup_counts = dict(tracer.counts)
    tracer.reset()

    reset_caches(caches)
    plain_wall, _, collected = run_pass(wl, caches)
    att1, fail1 = check_pass(wl, collected)
    reset_caches(caches)
    tracer.install()
    try:
        traced_wall, _, collected = run_pass(wl, caches, tracer)
    finally:
        tracer.uninstall()
    att2, fail2 = check_pass(wl, collected)

    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{wl.name}-{args.seed}.jsonl"
    tracer.write_spans(str(spans_path))

    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    c = "count"
    metrics = {
        "parser.calls": (calls["parser"], c),
        "parser.tokens": (counts["parser.tokens"], c),
        "parser.self_s": (self_s["parser"], "s"),
        "impartial.calls": (calls["impartial"], c),
        "impartial.self_s": (self_s["impartial"], "s"),
        "econ.translate_s": (self_s["econ.translate"], "s"),
        "econ.check_calls": (calls["econ.check"], c),
        "econ.check_s": (self_s["econ.check"], "s"),
        "elaborate.calls": (calls["elaborate"], c),
        "elaborate.self_s": (self_s["elaborate"], "s"),
        "elaborate.core_nodes": (counts["elaborate.core_nodes"], c),
        "pretty.self_s": (self_s["pretty"], "s"),
        "target.steps": (counts["target.steps"], c),
        "target.step_s": (self_s["target.step"], "s"),
        "target.peak_term_nodes": (counts["target.peak_term_nodes"], c),
        "source.cbv_steps": (counts["source.cbv_steps"], c),
        "source.cbv_s": (self_s["source.cbv"], "s"),
        "targetcheck.calls": (calls["targetcheck"], c),
        "targetcheck.self_s": (self_s["targetcheck"], "s"),
        "elabcheck.calls": (calls["elabcheck"], c),
        "elabcheck.self_s": (self_s["elabcheck"], "s"),
        "elabcheck.hit_ratio": (ratio(counts["elabcheck.hits"], calls["elabcheck"]),
                                "ratio"),
        "source.enum_calls": (calls["source.enum"], c),
        "source.enum_listed": (counts["source.enum_listed"], c),
        "source.enum_s": (self_s["source.enum"], "s"),
        "search.candidates": (counts["search.candidates"], c),
        "search.match_ratio": (ratio(counts["search.matches"],
                                     counts["search.candidates"]), "ratio"),
        "syntax.alpha_key_calls": (calls["syntax.alpha_key"], c),
        "syntax.alpha_key_s": (self_s["syntax.alpha_key"], "s"),
        "enum_terms.judgments": (setup_counts.get("enum_terms.judgments", 0), c),
        "enum_terms.self_s": (setup_self.get("enum_terms", 0.0), "s"),
        "nfree.self_s": (self_s["nfree"], "s"),
        "verify.self_s": (self_s["verify"], "s"),
        "trace.untraced_wall_s": (plain_wall, "s"),
        "trace.traced_wall_s": (traced_wall, "s"),
        "trace.overhead_s": (traced_wall - plain_wall, "s"),
    }
    notes = {"enum_terms.judgments": f"from the traced set-up "
                                     f"({setup_calls.get('enum_terms', 0)} calls)",
             "trace.overhead_s": f"spans: {tracer.opened} opened, "
                                 f"{len(tracer.spans)} written to {spans_path.name}"}
    return (wl, {k: (v, u, notes.get(k, "")) for k, (v, u) in metrics.items()},
            att1 + att2, fail1 + fail2)


def main(argv=None) -> int:
    args = parse_args(argv)
    check_checkout()
    measure_fn = per_layer if args.trace else end_to_end
    wl, metrics, attempted, failures = measure_fn(args.workload, args)

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"requests/pass {len(wl.requests)}")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:24s} {value:14.6f} {unit:6s} {note}")
    print(f"  {'failed_share':24s} {len(failures) / attempted:14.6f} {'':6s} "
          f"{len(failures)} of {attempted} results disagree with their known answer")
    for f in failures[:5]:
        print(f"  FAILED {f}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
