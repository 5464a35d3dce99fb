"""Output checks for the benchmark workloads.

Every check recomputes what it needs from the input table with its own
numpy code, or tests a property the method must have.  None compares with
a stored copy of an earlier output.  Each ``check_*`` function returns a
list of error strings; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

import numpy as np

INDETERMINATE = "INDETERMINATE"
BOOT_COLUMN = "Avg Acc (bootstrap)"
NORM_COLUMN = "Avg Norm Acc (bootstrap)"
BHM_COLUMN = "Avg Acc (BHM)"
PAIR_COLUMNS = {"Diff (bootstrap)": BOOT_COLUMN, "Diff (normalized)": NORM_COLUMN}
SCHEMES = ("by-average", "geometric-mean", "average-rank", "average-rank-noise",
           "average-rank-binned")
SIMPLEX_SETTINGS = ((2.0, 0.0), (2.0 / math.sqrt(2.0), 0.5))

# Gates.  Points: 5 Monte Carlo standard errors.  Half-widths: 5% as at
# B = 10,000, or 5 Monte Carlo standard errors of the half-width when B is
# smaller and that is wider.
POINT_MCSE = 5.0
HALF_WIDTH_REL = 0.05
BHM_POINT_ABS = 0.001  # 0.1 percentage points
BHM_HALF_WIDTH_REL = 0.10
RHAT_MAX = 1.01
ESS_MIN = 400.0
SUM_TOL = 1e-9
SIMSTUDY_TARGET = (-0.021, -0.003)
SIMSTUDY_TOL = 0.005

REPORT_FILES = ("leaderboard.md", "leaderboard.csv", "pairwise.md", "pairwise.csv",
                "ranks_raw.md", "ranks_raw.csv", "ranks_normalized.md",
                "ranks_normalized.csv", "report.json")
SIMSTUDY_FILES = ("simstudy.txt", "simstudy.json")


@dataclass(frozen=True)
class Table:
    """The checker's own view of an input table."""

    models: tuple[str, ...]
    tasks: tuple[tuple[str, str, int], ...]  # (task, category, test size)
    counts: np.ndarray

    @property
    def sizes(self) -> np.ndarray:
        return np.array([n for _, _, n in self.tasks], dtype=float)

    @property
    def accuracy(self) -> np.ndarray:
        return self.counts / self.sizes[None, :]

    @property
    def categories(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(c for _, c, _ in self.tasks))


def _rows(path):
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[0], rows[1:]


def _read_tasks(path):
    _, body = _rows(path)
    return tuple((t, c, int(n)) for t, c, n in body)


def _assemble(tasks, cells) -> Table:
    models = tuple(dict.fromkeys(m for m, _ in cells))
    col = {t: j for j, (t, _, _) in enumerate(tasks)}
    counts = np.zeros((len(models), len(tasks)), dtype=np.int64)
    for i, m in enumerate(models):
        for t, _, _ in tasks:
            counts[i, col[t]] = cells[(m, t)]
    return Table(models, tasks, counts)


def read_counts_table(counts_csv, tasks_csv) -> Table:
    """Read a ``model,task,correct`` table with its task file."""
    tasks = _read_tasks(tasks_csv)
    _, body = _rows(counts_csv)
    return _assemble(tasks, {(m, t): int(y) for m, t, y in body})


def read_accuracy_table(accuracy_csv, tasks_csv) -> Table:
    """Read a ``model,task,accuracy_percent`` table; Y = round-half-even(p N)."""
    tasks = _read_tasks(tasks_csv)
    size = {t: n for t, _, n in tasks}
    _, body = _rows(accuracy_csv)
    cells = {(m, t): int(np.rint(float(a) / 100.0 * size[t])) for m, t, a in body}
    return _assemble(tasks, cells)


def simstudy_table() -> Table:
    """The paper's two-model study: B is better only where N is small."""
    tasks = (("task-1", "synthetic", 200), ("task-2", "synthetic", 10_000),
             ("task-3", "synthetic", 20_000))
    return Table(("A", "B"), tasks, np.array([[100, 5_000, 10_000], [115, 5_000, 10_000]]))


# ------------------------------------------------------------------ helpers


def load_json(path):
    """Parse a JSON file, rejecting NaN and infinities."""

    def reject(token):
        raise ValueError(f"non-finite number {token}")

    return json.loads(Path(path).read_text(), parse_constant=reject)


def _load(out_dir, name, errors):
    try:
        return load_json(Path(out_dir) / name)
    except (OSError, ValueError) as exc:
        errors.append(f"{name}: {exc}")
        return None


def check_files(out_dir, names) -> list[str]:
    out_dir = Path(out_dir)
    return [f"missing or empty output {out_dir / n}" for n in names
            if not (out_dir / n).is_file() or (out_dir / n).stat().st_size == 0]


def _z(level: float) -> float:
    return NormalDist().inv_cdf(0.5 + level / 2.0)


def half_width_tolerance(level: float, B: int) -> float:
    """Relative gate on a percentile half-width from B draws.

    Under normality the half-width's relative Monte Carlo standard error is
    sqrt(a (1 - 2a) / (2B)) / (z phi(z)), with a = (1 - level) / 2.
    """
    a = (1.0 - level) / 2.0
    z = _z(level)
    mcse = math.sqrt(a * (1.0 - 2.0 * a) / (2.0 * B)) / (z * NormalDist().pdf(z))
    return max(HALF_WIDTH_REL, POINT_MCSE * mcse)


def _binomial_sd(table: Table) -> np.ndarray:
    """Standard deviation of each model's mean accuracy, tasks independent."""
    p = table.accuracy
    return np.sqrt((p * (1.0 - p) / table.sizes[None, :]).sum(axis=1)) / p.shape[1]


# ------------------------------------------------------------------- checks


def check_bootstrap_leaderboard(doc, table: Table) -> list[str]:
    """Bootstrap column against the binomial mean and its normal interval."""
    errors = []
    B, level = doc["replicates"], doc["level"]
    column = doc["leaderboard"][BOOT_COLUMN]
    observed = table.accuracy.mean(axis=1)
    sd = _binomial_sd(table)
    z = _z(level)
    tol = half_width_tolerance(level, B)
    for i, model in enumerate(table.models):
        est = column[model]
        mcse = sd[i] / math.sqrt(B)
        if abs(est["point"] - observed[i]) > POINT_MCSE * mcse:
            errors.append(f"bootstrap point of {model} is {est['point']!r}, observed "
                          f"mean {observed[i]!r} (MC SE {mcse:.3g})")
        ratio = (est["upper"] - est["lower"]) / 2.0 / (z * sd[i])
        if abs(ratio - 1.0) > tol:
            errors.append(f"bootstrap half-width of {model} is {ratio:.4f} x the "
                          f"binomial one (gate 1 +- {tol:.3f})")
    for model in table.models:
        est = doc["leaderboard"][NORM_COLUMN][model]
        if not 0.0 <= est["lower"] <= est["point"] <= est["upper"] <= 1.0:
            errors.append(f"normalized estimate of {model} leaves [0, 1]: {est}")
    return errors


def check_pairwise(doc, models) -> list[str]:
    """Each pairwise point is the difference of the two leaderboard points."""
    errors = []
    names = {f"{a} - {b}": (a, b) for a in models for b in models if a != b}
    for label, source in PAIR_COLUMNS.items():
        points = doc["leaderboard"][source]
        for key, est in doc["pairwise"][label].items():
            a, b = names[key]
            expected = points[a]["point"] - points[b]["point"]
            if abs(est["point"] - expected) > SUM_TOL:
                errors.append(f"{label} {key}: point {est['point']!r}, "
                              f"leaderboard difference {expected!r}")
    return errors


def check_bhm(doc, table: Table, diagnostics) -> list[str]:
    """BHM column against the observed means; R-hat and ESS gates."""
    errors = []
    level = doc["level"]
    column = doc["leaderboard"][BHM_COLUMN]
    observed = table.accuracy.mean(axis=1)
    sd = _binomial_sd(table)
    z = _z(level)
    for i, model in enumerate(table.models):
        est = column[model]
        if abs(est["point"] - observed[i]) > BHM_POINT_ABS:
            errors.append(f"BHM point of {model} is {est['point']!r}, observed "
                          f"mean {observed[i]!r}")
        ratio = (est["upper"] - est["lower"]) / 2.0 / (z * sd[i])
        if abs(ratio - 1.0) > BHM_HALF_WIDTH_REL:
            errors.append(f"BHM half-width of {model} is {ratio:.4f} x the binomial one")
    errors += check_convergence(diagnostics, ess_min=ESS_MIN)
    return errors


def check_convergence(diagnostics, ess_min=None) -> list[str]:
    errors = []
    for model, d in diagnostics.items():
        if not d["rhat"] <= RHAT_MAX:
            errors.append(f"R-hat of {model} is {d['rhat']!r} > {RHAT_MAX}")
        if ess_min is not None and not d["ess"] >= ess_min:
            errors.append(f"ESS of {model} is {d['ess']!r} < {ess_min}")
    return errors


def check_rank_tables(ranks, models, n_samples) -> list[str]:
    """Rank tables: point sum, endpoint range and point placement.

    The point is the mean rank over samples and the interval its percentile
    interval, so the point can leave the interval only by the share of
    samples beyond an endpoint: at most tail + 1/S, each sample at most at
    rank 1 or M.
    """
    errors = []
    M = len(models)
    level = ranks["level"]
    slack = (1.0 - level) / 2.0 + 1.0 / n_samples
    for section in ("raw", "normalized"):
        for scheme in SCHEMES:
            rows = ranks[section][scheme]
            where = f"ranks {section}/{scheme}"
            if [r["model"] for r in rows] != list(models):
                errors.append(f"{where}: models differ from the table")
                continue
            total = sum(r["interval"]["point"] for r in rows)
            if abs(total - M * (M + 1) / 2.0) > SUM_TOL:
                errors.append(f"{where}: points sum to {total!r}, not {M * (M + 1) / 2}")
            for r in rows:
                lo, pt, hi = (r["interval"][k] for k in ("lower", "point", "upper"))
                if not 1.0 <= lo <= hi <= M:
                    errors.append(f"{where} {r['model']}: interval ({lo}, {hi}) "
                                  f"outside [1, {M}] or reversed")
                elif not (lo - slack * (lo - 1.0) - SUM_TOL <= pt
                          <= hi + slack * (M - hi) + SUM_TOL):
                    errors.append(f"{where} {r['model']}: point {pt} too far "
                                  f"outside ({lo}, {hi})")
    return errors


def check_report(out_dir, table: Table, bhm: bool) -> list[str]:
    """Everything ``benchuq report`` writes."""
    errors = check_files(out_dir, REPORT_FILES)
    doc = _load(out_dir, "report.json", errors)
    if doc is None:
        return errors
    errors += check_bootstrap_leaderboard(doc, table)
    errors += check_pairwise(doc, table.models)
    errors += check_rank_tables(doc["ranks"], table.models, doc["replicates"])
    if bhm:
        errors += check_bhm(doc, table, doc.get("bhm_diagnostics", {}))
        if set(doc.get("bhm_diagnostics", {})) != set(table.models):
            errors.append("report.json lacks BHM diagnostics for some model")
    return errors


def _read_simplex_csv(path):
    header, body = _rows(path)
    if header != ["w_nat", "w_sp", "w_str", "winner", "margin_se"]:
        raise ValueError(f"{path}: unexpected header {header}")
    weights = np.array([[float(x) for x in r[:3]] for r in body])
    winners = [r[3] for r in body]
    margins = np.array([float(r[4]) for r in body])
    return weights, winners, margins


def _grid(step: float) -> np.ndarray:
    steps = round(1.0 / step)
    return np.array([(a, b, steps - a - b) for a in range(steps + 1)
                     for b in range(steps + 1 - a)], dtype=float) / steps


def simplex_margins(table: Table, weights: np.ndarray, rho: float):
    """Per cell: argmax of the category-weighted scores and its margin in SEs.

    Runners-up tied with second place (to a relative 1e-12 of the top score)
    all count; the margin is the smallest over them, 0 on a tie for first.
    """
    p = table.accuracy
    task_var = p * (1.0 - p) / table.sizes[None, :]
    cats = [np.array([c == cat for _, c, _ in table.tasks]) for cat in table.categories]
    cat_mean = np.stack([p[:, m].mean(axis=1) for m in cats], axis=1)
    cat_var = np.stack([task_var[:, m].sum(axis=1) / m.sum() ** 2 for m in cats], axis=1)
    scores = weights @ cat_mean.T  # cells x models
    variances = (weights ** 2) @ cat_var.T
    cells = np.arange(len(weights))
    order = np.argsort(-scores, axis=1, kind="stable")
    top, second = order[:, 0], order[:, 1]
    top_score = scores[cells, top]
    second_score = scores[cells, second]
    runner = (second_score[:, None] - scores <= 1e-12 * np.abs(top_score)[:, None])
    runner[cells, top] = False
    v_top = variances[cells, top][:, None]
    se = np.sqrt(np.maximum(v_top + variances - 2.0 * rho * np.sqrt(v_top * variances), 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(se > 0, (top_score[:, None] - scores) / se, np.inf)
    margin = np.where(runner, ratio, np.inf).min(axis=1)
    margin[second_score == top_score] = 0.0
    return top, margin


def _six_digits_match(written: float, value: float) -> bool:
    if math.isinf(written) or math.isinf(value):
        return written == value
    if written == 0.0:
        return abs(value) < 1e-300
    unit = 10.0 ** (math.floor(math.log10(abs(written))) - 5)
    return abs(written - value) <= 0.51 * unit


def check_simplex(out_dir, table: Table, grid_step: float) -> list[str]:
    """Raw maps recomputed cell by cell; normalized maps checked for shape."""
    errors = []
    out_dir = Path(out_dir)
    grid = _grid(grid_step)
    names = []
    for variant in ("simplex", "simplex_normalized"):
        for z, rho in SIMPLEX_SETTINGS:
            names.append((variant, z, rho, f"{variant}_{z:g}_{rho:g}"))
    errors += check_files(out_dir, [f"{n}.{ext}" for *_, n in names for ext in ("csv", "svg")]
                          + ["simplex.json"])
    doc = _load(out_dir, "simplex.json", errors)
    if errors:
        return errors
    allowed = set(table.models) | {INDETERMINATE}
    for k, (variant, z, rho, name) in enumerate(names):
        weights, winners, margins = _read_simplex_csv(out_dir / f"{name}.csv")
        if weights.shape != grid.shape or np.abs(weights - grid).max() > 1e-6:
            errors.append(f"{name}: cells are not the {grid_step} grid")
            continue
        if np.abs(weights.sum(axis=1) - 1.0).max() > 1e-6:
            errors.append(f"{name}: a weight row does not sum to 1")
        if not set(winners) <= allowed:
            errors.append(f"{name}: unknown winners {sorted(set(winners) - allowed)}")
        field = doc["fields"][k]
        n_indet = sum(w == INDETERMINATE for w in winners)
        if field["indeterminate_cells"] != n_indet:
            errors.append(f"{name}: simplex.json counts {field['indeterminate_cells']} "
                          f"INDETERMINATE cells, the CSV {n_indet}")
        if variant != "simplex":
            continue
        top, margin = simplex_margins(table, grid, rho)
        for c, winner in enumerate(winners):
            where = f"{name} cell {tuple(grid[c])}"
            if winner == INDETERMINATE:
                if not margin[c] < z:
                    errors.append(f"{where}: INDETERMINATE with margin {margin[c]!r} >= {z}")
            elif winner != table.models[top[c]] or not margin[c] >= z:
                errors.append(f"{where}: winner {winner}, recomputed "
                              f"{table.models[top[c]]} at margin {margin[c]!r}")
            if not _six_digits_match(margins[c], margin[c]):
                errors.append(f"{where}: margin {margins[c]!r} written, {margin[c]!r} "
                              "recomputed")
            if len(errors) > 20:
                return errors
    return errors


def check_simstudy(out_dir, table: Table) -> list[str]:
    """The study's own checks, re-done from its JSON, plus R-hat."""
    errors = check_files(out_dir, SIMSTUDY_FILES)
    doc = _load(out_dir, "simstudy.json", errors)
    if doc is None:
        return errors
    B = doc["replicates"]
    if not all(c["passed"] for c in doc["checks"]) or len(doc["checks"]) != 3:
        errors.append(f"simstudy checks: {doc['checks']}")
    boot, bhm = doc["bootstrap"], doc["bhm"]
    p = table.accuracy
    diff = p[0].mean() - p[1].mean()
    sd = math.sqrt((p * (1.0 - p) / table.sizes[None, :]).sum()) / p.shape[1]
    if abs(boot["point"] - diff) > POINT_MCSE * sd / math.sqrt(B):
        errors.append(f"bootstrap A-B point {boot['point']!r}, observed {diff!r}")
    ratio = (boot["upper"] - boot["lower"]) / 2.0 / (_z(boot["level"]) * sd)
    if abs(ratio - 1.0) > half_width_tolerance(boot["level"], B):
        errors.append(f"bootstrap A-B half-width is {ratio:.4f} x the binomial one")
    if not boot["lower"] <= 0.0 <= boot["upper"]:
        errors.append(f"bootstrap A-B interval excludes 0: {boot}")
    lo, hi = SIMSTUDY_TARGET
    if not (bhm["upper"] < 0.0 and abs(bhm["lower"] - lo) <= SIMSTUDY_TOL
            and abs(bhm["upper"] - hi) <= SIMSTUDY_TOL):
        errors.append(f"BHM A-B interval {bhm} misses ({lo}, {hi}) +- {SIMSTUDY_TOL}")
    errors += check_convergence(doc["diagnostics"])
    return errors
