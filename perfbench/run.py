"""End-to-end benchmark of the ``benchuq`` command-line tool.

    python3 perfbench/run.py --workload report-vtab --seed 1 --seconds 30 --trace 0

Run from the repository root.  Each command runs as a user runs it: a fresh
``python -m benchuq.cli`` process with ``PYTHONPATH=src``, ``--workers 1``
and BLAS/OpenMP pinned to one thread, one command at a time.  A round runs
the workload's commands once; rounds repeat until ``--seconds`` would be
exceeded (at least one round).  After the timed rounds, the first round's
outputs are checked (see ``checks.py``) and every later round must have
written byte-identical files.

``--trace 0`` reports the end-to-end metrics: medians over rounds of wall
time, CPU time and peak RSS, and the median set-up time of several fresh
processes that import ``benchuq.cli`` and load the workload's table.
``--trace 1`` alternates untraced rounds with rounds run under
``trace_cli.py`` and reports the per-layer metrics (medians over traced
rounds) and the tracing overhead.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Scratch files go to ``.perfbench-work/`` in the working directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402

WORK = Path(".perfbench-work")
SETUP_SAMPLES = 5
# Every child must end well inside the 180 s a run may take.
RUN_LIMIT_S = 170.0

# Sizes are cut from the command defaults so that one round takes 3.5-9 s on
# two cores and a 30 s run holds three to eight rounds: round times on a
# shared machine swing by up to a third, so the median needs many rounds.
# See README.md.
REPORT_VTAB = ["report", "--replicates", "1000", "--iterations", "600",
               "--burn-in", "100", "--thinning", "1"]
SIMSTUDY = ["simstudy", "--iterations", "1500", "--burn-in", "300", "--thinning", "3"]
SCREEN_REPORT = ["report", "--no-bhm", "--replicates", "1000"]
SCREEN_SIMPLEX = ["simplex", "--normalized", "--grid-step", "0.01", "--replicates", "1000"]
GRID_STEP = 0.01

# label -> argv, per workload; the label names the command's --out-dir.
WORKLOADS = {
    "report-vtab": {"report": REPORT_VTAB},
    "simstudy": {"simstudy": SIMSTUDY},
    "screen-wide": {"report": SCREEN_REPORT, "simplex": SCREEN_SIMPLEX},
}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}

_SPAN_SECONDS = ("core.load", "bootstrap.run", "bootstrap.intervals", "normalize.bounds",
                 "normalize.scores", "bhm.fit", "bhm.credible", "weighting.simplex",
                 "viz.render", "report.write")
# Per-layer metric -> unit.  A layer that does not run on a workload reads 0.
PER_LAYER = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "core.load_s": "s",
    "rng.substreams": "count",
    "bootstrap.run_s": "s",
    "bootstrap.replicates_per_s": "1/s",
    "bootstrap.store_mib": "MiB",
    "bootstrap.intervals_s": "s",
    "normalize.bounds_s": "s",
    "normalize.scores_s": "s",
    **{f"ranking.{s}.{kind}_s": "s" for s in checks.SCHEMES for kind in ("raw", "normalized")},
    "ranking.samples_per_s": "1/s",
    "bhm.fit_s": "s",
    "bhm.chain_1k_iter_s": "s",
    "bhm.slice_steps": "count",
    "bhm.logdensity_evals": "count",
    "bhm.evals_per_step": "evals/step",
    "bhm.ess_min": "count",
    "bhm.ess_per_s": "1/s",
    "bhm.rhat_max": "ratio",
    "bhm.credible_s": "s",
    "weighting.simplex_s": "s",
    "weighting.cells_per_s": "1/s",
    "viz.render_s": "s",
    "report.write_s": "s",
    "report.bytes_written": "bytes",
    "trace.overhead_s": "s",
}


@dataclass
class Round:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mib: float = 0.0
    failed: int = 0
    out_dir: Path = None
    spans: list = field(default_factory=list)


class Runner:
    """Runs child processes with a shared deadline and counts operations."""

    def __init__(self, env, deadline):
        self.env = env
        self.deadline = deadline
        self.attempted = 0

    def run(self, argv, log_path):
        """Run argv to its end; return (exit code, wall s, cpu s, peak RSS MiB)."""
        self.attempted += 1
        with open(log_path, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=self.env)
            timer = threading.Timer(max(self.deadline - time.monotonic(), 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        return proc.returncode, wall, cpu, usage.ru_maxrss / 1024.0


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def tree_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def run_round(runner, workload, inputs, run_dir, k, traced) -> Round:
    rnd = Round(out_dir=run_dir / f"round-{k}")
    for label, argv in WORKLOADS[workload].items():
        out = rnd.out_dir / label
        full = [*argv, "--workers", "1", "--out-dir", str(out), *inputs]
        if traced:
            spans = run_dir / f"spans-{k}-{label}.json"
            cmd = [sys.executable, str(HERE / "trace_cli.py"), "--spans", str(spans), "--", *full]
        else:
            cmd = [sys.executable, "-m", "benchuq.cli", *full]
        code, wall, cpu, rss = runner.run(cmd, run_dir / f"log-{k}-{label}.txt")
        if code != 0:
            print(f"{workload} round {k} {label}: exit {code}, see "
                  f"{run_dir / f'log-{k}-{label}.txt'}", file=sys.stderr)
            rnd.failed += 1
        elif traced:
            rnd.spans.append(json.loads(spans.read_text()))
        rnd.wall_s += wall
        rnd.cpu_s += cpu
        rnd.peak_rss_mib = max(rnd.peak_rss_mib, rss)
    return rnd


def run_rounds(runner, workload, inputs, run_dir, seconds, traced):
    """Untraced rounds, or (untraced, traced) pairs, for ``seconds``."""
    rounds = []
    start = time.monotonic()
    while True:
        begun = time.monotonic()
        rounds.append(run_round(runner, workload, inputs, run_dir, len(rounds), False))
        if traced:
            rounds.append(run_round(runner, workload, inputs, run_dir, len(rounds), True))
        took = time.monotonic() - begun
        if time.monotonic() - start + took > seconds:
            return rounds


def setup_times(runner, load, run_dir):
    """Wall times of fresh processes that import benchuq.cli and run ``load``."""
    argv = [sys.executable, "-c", f"import benchuq.cli as cli; {load}"]
    times = []
    for k in range(SETUP_SAMPLES):
        code, wall, _, _ = runner.run(argv, run_dir / f"log-setup-{k}.txt")
        if code != 0:
            raise RuntimeError(f"set-up process exited {code}; see {run_dir}")
        times.append(wall)
    return times


def layer_metrics(docs) -> dict:
    """Per-layer metrics of one traced round (one spans document per command)."""
    m = {name: 0.0 for name in PER_LAYER}
    reps = samples = rank_s = cells = chain_iters = 0.0
    ess, rhat = [], []
    for doc in docs:
        m["cli.import_s"] += doc["import_s"]
        for key, n in doc["counts"].items():
            m[key] += n
        for s in doc["spans"]:
            name, dur = s["name"], s["end"] - s["start"]
            if name in _SPAN_SECONDS:
                m[f"{name}_s"] += dur
            if name == "cli.main":
                m["cli.self_s"] += s["self_s"]
            elif name == "ranking":
                m[f"ranking.{s['scheme']}.{s['kind']}_s"] += dur
                samples += s["samples"]
                rank_s += dur
            elif name == "bootstrap.run":
                reps += s["replicates"]
                m["bootstrap.store_mib"] = max(m["bootstrap.store_mib"],
                                               s["store_bytes"] / 2**20)
            elif name == "bhm.fit":
                chain_iters += s["chain_iterations"]
                ess.append(s["ess_min"])
                rhat.append(s["rhat_max"])
            elif name == "weighting.simplex":
                cells += s["cells"]
            elif name == "report.write":
                m["report.bytes_written"] += s["bytes"]

    def ratio(a, b):
        return a / b if b else 0.0

    m["bootstrap.replicates_per_s"] = ratio(reps, m["bootstrap.run_s"])
    m["ranking.samples_per_s"] = ratio(samples, rank_s)
    m["weighting.cells_per_s"] = ratio(cells, m["weighting.simplex_s"])
    m["bhm.chain_1k_iter_s"] = ratio(m["bhm.fit_s"], chain_iters / 1000.0)
    m["bhm.evals_per_step"] = ratio(m["bhm.logdensity_evals"], m["bhm.slice_steps"])
    m["bhm.ess_min"] = min(ess, default=0.0)
    m["bhm.rhat_max"] = max(rhat, default=0.0)
    m["bhm.ess_per_s"] = ratio(m["bhm.ess_min"], m["bhm.fit_s"])
    return m


def check_outputs(workload, out_dir: Path, table) -> list[str]:
    if workload == "report-vtab":
        return checks.check_report(out_dir / "report", table, bhm=True)
    if workload == "simstudy":
        return checks.check_simstudy(out_dir / "simstudy", table)
    return (checks.check_report(out_dir / "report", table, bhm=False)
            + checks.check_simplex(out_dir / "simplex", table, GRID_STEP))


def prepare_inputs(workload, seed, root: Path, run_dir: Path):
    """The workload's table: program arguments, the checker's copy, and the
    expression that loads it in ``benchuq.cli`` (timed by ``setup_s``)."""
    if workload == "screen-wide":
        counts, tasks = gen.write_table(seed, run_dir / "input")
        return (["--eval", str(counts), "--tasks", str(tasks)],
                checks.read_counts_table(counts, tasks),
                f"cli.load_eval_table({str(counts)!r}, {str(tasks)!r})")
    if workload == "simstudy":
        return [], checks.simstudy_table(), "cli.simulation_study_table()"
    data = root / "src" / "benchuq" / "data"
    return ([], checks.read_accuracy_table(data / "vtab_accuracy.csv", data / "vtab_tasks.csv"),
            "cli.load_vtab()")


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "benchuq" / "cli.py").is_file():
        print(f"no benchuq sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = Runner(child_env(root), time.monotonic() + RUN_LIMIT_S)
    inputs, table, load = prepare_inputs(args.workload, args.seed, root, run_dir)
    # Byte-compile first so that no timed process pays for it.
    code, _, _, _ = runner.run([sys.executable, "-m", "compileall", "-q", "src/benchuq"],
                               run_dir / "log-compile.txt")
    runner.attempted = 0
    if code != 0:
        print(f"byte-compiling src/benchuq failed; see {run_dir}", file=sys.stderr)
        return 2

    setup = [] if args.trace else setup_times(runner, load, run_dir)
    rounds = run_rounds(runner, args.workload, inputs, run_dir, args.seconds, args.trace)

    ok = [r for r in rounds if not r.failed]
    errors = [] if ok else ["every round failed"]
    if ok:
        errors += check_outputs(args.workload, ok[0].out_dir, table)
        first = tree_digest(ok[0].out_dir)
        errors += [f"{r.out_dir} differs from {ok[0].out_dir}"
                   for r in ok[1:] if tree_digest(r.out_dir) != first]
    for err in errors:
        print(f"CHECK FAILED: {err}", file=sys.stderr)
    print("round wall times (s): " + " ".join(f"{r.wall_s:.3f}" for r in rounds),
          file=sys.stderr)

    if args.trace:
        traced = [r for r in ok if r.spans]
        per_round = [layer_metrics(r.spans) for r in traced]
        metrics = {name: metric(statistics.median(m[name] for m in per_round) if per_round
                                else 0.0, unit) for name, unit in PER_LAYER.items()}
        overheads = [t.wall_s - u.wall_s for u, t in zip(rounds[::2], rounds[1::2])
                     if not (u.failed or t.failed)]
        metrics["trace.overhead_s"]["value"] = statistics.median(overheads) if overheads else 0.0
    else:
        metrics = {
            "wall_s": statistics.median(r.wall_s for r in ok) if ok else 0.0,
            "cpu_s": statistics.median(r.cpu_s for r in ok) if ok else 0.0,
            "setup_s": statistics.median(setup),
            "peak_rss_mib": statistics.median(r.peak_rss_mib for r in ok) if ok else 0.0,
        }
        metrics = {name: metric(v, END_TO_END[name]) for name, v in metrics.items()}

    # Keep the checked output tree only when it is needed to read a failure.
    for r in rounds:
        if not (errors and ok and r is ok[0]):
            shutil.rmtree(r.out_dir, ignore_errors=True)
    failed = sum(r.failed for r in rounds)
    print(json.dumps({"correct": not errors, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
