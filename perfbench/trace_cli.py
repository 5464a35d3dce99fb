"""Run one ``benchuq`` command in-process with spans around each layer call.

    PYTHONPATH=src python3 perfbench/trace_cli.py --spans OUT.json -- report ...

The tracer wraps the public functions at the names ``benchuq.cli`` looks
up, plus ``benchuq.report.write_text``.  Each call becomes a span (name,
start, end, parent) with a few attributes.  ``benchuq.rng.substream`` and
``benchuq.bhm.slice_sample_step`` (and the log density passed to it) are
only counted, since they run hundreds of thousands of times.  Spans and
counts stay in memory and are written once, after the command returns, to
``--spans``, which must lie outside the command's ``--out-dir``.  The exit
code is the command's.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time


class Tracer:
    """In-memory spans and counters of one process."""

    def __init__(self):
        self.spans = []
        self.counts = {"rng.substreams": 0, "bhm.slice_steps": 0,
                       "bhm.logdensity_evals": 0}
        self._stack = []

    def span(self, name, fn, attrs=None):
        """Return ``fn`` wrapped so that each call records a span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = {"name": name, "parent": self._stack[-1] if self._stack else None,
                      "start": time.perf_counter()}
            self.spans.append(record)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                record.update(attrs(args, kwargs, result))
            return result

        return wrapper

    def counter(self, key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def self_times(self):
        """Span length minus the time its direct children cover, per span."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        return [s["end"] - s["start"] - c for s, c in zip(self.spans, child_time)]


def _store_attrs(args, kwargs, store):
    b, m, t = store.replicates.shape
    return {"replicates": b, "store_bytes": b * m * t * 8}


def _rank_attrs(args, kwargs, result):
    from benchuq.bootstrap import ReplicateStore

    samples = args[0]
    scheme = args[1] if len(args) > 1 else kwargs["scheme"]
    raw = isinstance(samples, ReplicateStore)
    n = samples.n_replicates if raw else len(samples)
    return {"scheme": getattr(scheme, "value", scheme),
            "kind": "raw" if raw else "normalized", "samples": n}


def _bhm_attrs(args, kwargs, draws):
    diag = draws.diagnostics.values()
    cfg = draws.config
    return {"chain_iterations": cfg.chains * cfg.total_iterations,
            "ess_min": min(d["ess"] for d in diag),
            "rhat_max": max(d["rhat"] for d in diag)}


def _simplex_attrs(args, kwargs, field):
    return {"cells": len(field.cells)}


def _write_attrs(args, kwargs, path):
    content = args[1] if len(args) > 1 else kwargs["content"]
    return {"bytes": len(content.encode("utf-8"))}


# Name the span is recorded under, per benchuq.cli attribute.
CLI_LAYERS = {
    "load_vtab": ("core.load", None),
    "load_eval_table": ("core.load", None),
    "run_bootstrap": ("bootstrap.run", _store_attrs),
    "aggregate_interval": ("bootstrap.intervals", None),
    "pairwise_difference_intervals": ("bootstrap.intervals", None),
    "estimate_bounds": ("normalize.bounds", None),
    "normalize_scores": ("normalize.scores", None),
    "rank_intervals": ("ranking", _rank_attrs),
    "fit_bhm": ("bhm.fit", _bhm_attrs),
    "credible_interval": ("bhm.credible", None),
    "simplex_scan": ("weighting.simplex", _simplex_attrs),
    "render_ternary": ("viz.render", None),
}


def install(tracer: Tracer):
    """Wrap the layer entry points; return the traced ``cli.main``."""
    import benchuq.bhm as bhm
    import benchuq.cli as cli
    import benchuq.report as report
    import benchuq.rng as rng

    for attr, (name, attrs) in CLI_LAYERS.items():
        setattr(cli, attr, tracer.span(name, getattr(cli, attr), attrs))
    report.write_text = tracer.span("report.write", report.write_text, _write_attrs)
    rng.substream = tracer.counter("rng.substreams", rng.substream)

    step = bhm.slice_sample_step
    counts = tracer.counts

    @functools.wraps(step)
    def counted_step(logdensity, *args, **kwargs):
        counts["bhm.slice_steps"] += 1

        def counted_logdensity(x):
            counts["bhm.logdensity_evals"] += 1
            return logdensity(x)

        return step(counted_logdensity, *args, **kwargs)

    bhm.slice_sample_step = counted_step
    return tracer.span("cli.main", cli.main)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="JSON file for spans and counts")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="-- followed by the benchuq arguments")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    start = time.perf_counter()
    import benchuq.cli  # noqa: F401  (timed: this is the command's import cost)
    import_s = time.perf_counter() - start

    tracer = Tracer()
    code = install(tracer)(command)
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        span["self_s"] = self_s
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump({"argv": command, "exit_code": code, "import_s": import_s,
                   "counts": tracer.counts, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
