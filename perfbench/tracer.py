"""Spans and counts at the package's layer boundaries, from outside it.

``Tracer.install`` replaces each listed public function, in every module
that holds a reference to it, by a wrapper that opens a span; methods are
replaced on their class.  A call that re-enters a layer whose span is the
innermost open one (``target.step`` descending into a subterm,
``ElabChecker.check`` re-checking a premise) runs unwrapped, so only the
outermost entry is counted and timed.  A span's self time is its duration
minus the durations of its child spans; totals are kept as spans close,
and the first ``max_spans`` spans are kept in memory for writing out.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

from eopoly import syntax as S

# (module, attribute, layer).  "Class.method" names a method.
LAYERS = [
    ("eopoly.program", "parse_program", "parser"),
    ("eopoly.impartial", "synth", "impartial"),
    ("eopoly.impartial", "check", "impartial"),
    ("eopoly.econ", "econ_expr", "econ.translate"),
    ("eopoly.econ", "econ_type", "econ.translate"),
    ("eopoly.econ", "econ_ctx", "econ.translate"),
    ("eopoly.econ", "econ_synth", "econ.check"),
    ("eopoly.econ", "econ_check", "econ.check"),
    ("eopoly.elaborate", "elaborate", "elaborate"),
    ("eopoly.pretty", "pretty_term", "pretty"),
    ("eopoly.pretty", "pretty_ty", "pretty"),
    ("eopoly.pretty", "pretty_expr", "pretty"),
    ("eopoly.target", "step", "target.step"),
    ("eopoly.target", "TargetChecker.check", "targetcheck"),
    ("eopoly.target", "target_check", "targetcheck"),
    ("eopoly.source", "cbv_step", "source.cbv"),
    ("eopoly.source", "enumerate_steps", "source.enum"),
    ("eopoly.elaborate", "ElabChecker.check", "elabcheck"),
    ("eopoly.elaborate", "check_elab", "elabcheck"),
    ("eopoly.verify", "_search_match", "search"),
    ("eopoly.syntax", "alpha_key", "syntax.alpha_key"),
    ("eopoly.enum_terms", "enumerate_welltyped", "enum_terms"),
    ("eopoly.nfree", "n_free_impartial_type", "nfree"),
    ("eopoly.nfree", "n_free_econ_type", "nfree"),
    ("eopoly.nfree", "n_free_impartial_judgment", "nfree"),
    ("eopoly.nfree", "n_free_econ_judgment", "nfree"),
    ("eopoly.nfree", "n_free_target", "nfree"),
    ("eopoly.verify", "run_econ_preservation", "verify"),
    ("eopoly.verify", "run_nfree_econ", "verify"),
    ("eopoly.verify", "run_elab_soundness", "verify"),
    ("eopoly.verify", "run_nfree_elab", "verify"),
    ("eopoly.verify", "run_type_safety", "verify"),
    ("eopoly.verify", "run_consistency", "verify"),
    ("eopoly.verify", "run_cbv_endpoint", "verify"),
    ("eopoly.verify", "build_pool", "verify"),
    ("eopoly.verify", "target_pool", "verify"),
]


def node_count(root) -> int:
    n = 0
    todo = [root]
    while todo:
        node = todo.pop()
        n += 1
        todo.extend(v for _, v in S.children(node) if isinstance(v, S.Node))
    return n


class Tracer:
    def __init__(self, max_spans: int = 100_000):
        self.max_spans = max_spans
        self.stack: list[list] = []  # [layer, start, child_s, id, parent]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.opened = 0
        self.request = -1  # the request the next spans belong to
        self._undo: list[tuple] = []

    # -- spans ------------------------------------------------------------

    def open(self, layer: str) -> list:
        parent = self.stack[-1][3] if self.stack else -1
        frame = [layer, time.perf_counter(), 0.0, self.opened, parent]
        self.opened += 1
        self.stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = time.perf_counter()
        self.stack.pop()
        layer, start, child, span_id, parent = frame
        dur = end - start
        self.calls[layer] += 1
        self.self_s[layer] += dur - child
        if self.stack:
            self.stack[-1][2] += dur
        if len(self.spans) < self.max_spans:
            self.spans.append((span_id, parent, layer, start, end, self.request))

    def exclude(self, seconds: float) -> None:
        """Bookkeeping done between spans: keep it out of the parent's
        self time."""
        if self.stack:
            self.stack[-1][2] += seconds

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()

    # -- installation -----------------------------------------------------

    def _wrap(self, fn, layer: str):
        tracer = self
        hook = HOOKS.get(layer)

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = tracer.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(frame)
            if hook is not None:
                t = time.perf_counter()
                hook(tracer, args, result)
                tracer.exclude(time.perf_counter() - t)
            return result

        return wrapper

    def _count_tokens(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            toks = fn(*args, **kwargs)
            tracer.counts["parser.tokens"] += len(toks)
            return toks

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "eopoly" or name.startswith("eopoly.")]
        for mod, attr, layer in LAYERS + [("eopoly.parser", "tokenize", None)]:
            owner = sys.modules[mod]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(orig, layer))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(owner, attr)
            wrapped = (self._wrap(orig, layer) if layer is not None
                       else self._count_tokens(orig))
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, name, wrapped)
                        self._undo.append((m, name, orig))

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()

    # -- output -----------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, layer, start, end, request in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "name": layer, "start": start, "end": end,
                                     "request": request}) + "\n")


# Counters read off a call's arguments and result, at the outermost entry.

def _step_hook(tracer, args, result):
    tracer.counts["target.steps"] += result.kind == "step"
    size = node_count(args[0])
    if size > tracer.counts["target.peak_term_nodes"]:
        tracer.counts["target.peak_term_nodes"] = size


def _cbv_hook(tracer, args, result):
    if result.kind == "step":
        tracer.counts["source.cbv_steps"] += 1


def _enum_hook(tracer, args, result):
    tracer.counts["source.enum_listed"] += len(result)


def _elabcheck_hook(tracer, args, result):
    tracer.counts["elabcheck.hits"] += result is not None
    if tracer.stack and tracer.stack[-1][0] == "search":
        tracer.counts["search.candidates"] += 1


def _search_hook(tracer, args, result):
    tracer.counts["search.matches"] += result[0] is not None


def _elaborate_hook(tracer, args, result):
    tracer.counts["elaborate.core_nodes"] += node_count(result.term)


def _judgments_hook(tracer, args, result):
    tracer.counts["enum_terms.judgments"] += len(result)


HOOKS = {
    "target.step": _step_hook,
    "source.cbv": _cbv_hook,
    "source.enum": _enum_hook,
    "elabcheck": _elabcheck_hook,
    "search": _search_hook,
    "elaborate": _elaborate_hook,
    "enum_terms": _judgments_hook,
}
