"""Spans and counts recorded from the benchmark's side of each layer boundary.

Public functions are wrapped at the module attributes their callers resolve
(``slramsey.pipeline.row_monotone_submatrix`` is what the pipeline calls,
``slramsey.cli.decompose_primitive`` what ``verify`` calls), so the program
runs unchanged.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name); a name may sit behind several attributes
SPANS = (
    ("slramsey.pipeline", "semilinear_ramsey_extract", "pipeline.extract"),
    ("slramsey.pipeline", "decompose_primitive", "semilinear.decompose"),
    ("slramsey.cli", "decompose_primitive", "semilinear.decompose"),
    ("slramsey.pipeline", "perturb_matrix", "exactnum.perturb"),
    ("slramsey.cli", "perturb_matrix", "exactnum.perturb"),
    ("slramsey.pipeline", "floor_log", "exactnum.floor_log"),
    # verify imports floor_log from exactnum at call time
    ("slramsey.exactnum", "floor_log", "exactnum.floor_log"),
    ("slramsey.pipeline", "row_monotone_submatrix", "streamline.monotone"),
    ("slramsey.pipeline", "cupcap_submatrix_greedy", "streamline.cupcap"),
    ("slramsey.pipeline", "exponential_shift", "streamline.expshift"),
    ("slramsey.pipeline", "domination_clique", "domination.clique"),
    ("slramsey.domination", "domination_clique", "domination.clique"),
    ("slramsey.jsonio", "pipeline_result_to_json", "jsonio.to_json"),
    ("slramsey.jsonio", "domination_result_to_json", "jsonio.to_json"),
    ("slramsey.jsonio", "dumps", "jsonio.dumps"),
    ("slramsey.cli", "main", "cli.verify"),
    ("slramsey.hypergraph", "brute_omega", "hypergraph.omega"),
    ("slramsey.hypergraph", "brute_alpha", "hypergraph.alpha"),
)


def _count_result(counts, name, result) -> None:
    """Counts taken from a boundary's return value."""
    if name == "domination.clique":
        steps = [s.get("step") for s in result.trace]
        counts["domination.steps"] += len(steps)
        counts["domination.fallbacks"] += "verification-fallback" in steps
        counts["domination.below_threshold_jobs"] += bool(result.below_threshold)
    elif name == "jsonio.dumps":
        counts["jsonio.certificate_bytes"] += len(result.encode())


class Tracer:
    """Records spans (job, name, start, end, parent) while installed, and
    per job the calls, seconds and self seconds of each span name plus the
    counts read off return values.  :meth:`uninstall` restores every
    attribute."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[int, defaultdict] = defaultdict(lambda: defaultdict(int))
        self.job = -1
        self._open: list[list] = []  # [span index, child seconds]
        self._saved: list[tuple] = []

    def install(self) -> None:
        for mod_name, attr, name in SPANS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer._open[-1][0] if tracer._open else None
            idx = len(tracer.spans)
            span = {"job": tracer.job, "name": name, "parent": parent}
            tracer.spans.append(span)
            tracer._open.append([idx, 0.0])
            span["start"] = perf_counter()
            counts = tracer.counts[tracer.job]
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = end = perf_counter()
                _, child = tracer._open.pop()
                dur = end - span["start"]
                if tracer._open:
                    tracer._open[-1][1] += dur
                counts[f"{name}.calls"] += 1
                counts[f"{name}.s"] += dur
                counts[f"{name}.self_s"] += dur - child
            _count_result(counts, name, result)
            return result

        return traced

    def predicate(self, fn):
        """Count and time an edge predicate handed to a lazy hypergraph.

        Calls number in the hundreds of thousands, so they are summed per
        job instead of kept as spans.
        """
        tracer = self

        def timed(t):
            t0 = perf_counter()
            out = fn(t)
            counts = tracer.counts[tracer.job]
            counts["hypergraph.edge_tests"] += 1
            counts["constructions.edge_fn_s"] += perf_counter() - t0
            return out

        return timed

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)
