"""Each output check passes real output and rejects a corrupted copy of it."""

import json
import math
import shutil

import numpy as np
import pytest

import checks
import gen
from benchuq.cli import main

GRID = 0.05


@pytest.fixture(scope="module")
def screen(tmp_path_factory):
    """A small-B report and simplex run on a generated table."""
    root = tmp_path_factory.mktemp("screen")
    counts, tasks = gen.write_table(0, root / "input")
    inputs = ["--eval", str(counts), "--tasks", str(tasks), "--replicates", "200"]
    assert main(["report", "--no-bhm", "--out-dir", str(root / "report"), *inputs]) == 0
    assert main(["simplex", "--normalized", "--grid-step", str(GRID),
                 "--out-dir", str(root / "simplex"), *inputs]) == 0
    return root, checks.read_counts_table(counts, tasks)


def copy(screen, tmp_path, name):
    root, table = screen
    shutil.copytree(root / name, tmp_path / name)
    return tmp_path / name, table


def edit_json(path, change):
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))


def test_real_output_passes(screen):
    root, table = screen
    assert checks.check_report(root / "report", table, bhm=False) == []
    assert checks.check_simplex(root / "simplex", table, GRID) == []


def test_shifted_leaderboard_point_fails(screen, tmp_path):
    out, table = copy(screen, tmp_path, "report")

    def shift(doc):
        doc["leaderboard"][checks.BOOT_COLUMN][table.models[5]]["point"] += 0.002

    edit_json(out / "report.json", shift)
    errors = checks.check_report(out, table, bhm=False)
    assert any("bootstrap point of model-05" in e for e in errors)


def test_wide_half_width_fails(screen, tmp_path):
    out, table = copy(screen, tmp_path, "report")

    def widen(doc):
        est = doc["leaderboard"][checks.BOOT_COLUMN][table.models[0]]
        est["upper"] += est["upper"] - est["lower"]

    edit_json(out / "report.json", widen)
    assert any("half-width" in e for e in checks.check_report(out, table, bhm=False))


def test_normalized_column_outside_unit_interval_fails(screen, tmp_path):
    out, table = copy(screen, tmp_path, "report")
    edit_json(out / "report.json",
              lambda d: d["leaderboard"][checks.NORM_COLUMN][table.models[1]].update(upper=1.01))
    assert any("leaves [0, 1]" in e for e in checks.check_report(out, table, bhm=False))


def test_pairwise_point_mismatch_fails(screen, tmp_path):
    out, table = copy(screen, tmp_path, "report")

    def shift(doc):
        for est in doc["pairwise"]["Diff (normalized)"].values():
            est["point"] += 1e-6
            return

    edit_json(out / "report.json", shift)
    assert any("Diff (normalized)" in e for e in checks.check_report(out, table, bhm=False))


def test_rank_points_not_summing_fails(screen, tmp_path):
    out, table = copy(screen, tmp_path, "report")
    edit_json(out / "report.json",
              lambda d: d["ranks"]["raw"]["average-rank"][3]["interval"].update(point=10.0))
    errors = checks.check_report(out, table, bhm=False)
    assert any("ranks raw/average-rank: points sum" in e for e in errors)


def test_rank_endpoint_outside_range_fails(screen, tmp_path):
    out, table = copy(screen, tmp_path, "report")
    edit_json(out / "report.json",
              lambda d: d["ranks"]["normalized"]["by-average"][0]["interval"].update(upper=65.0))
    errors = checks.check_report(out, table, bhm=False)
    assert any("ranks normalized/by-average model-00" in e for e in errors)


def test_rank_point_far_outside_interval_fails():
    rows = [{"model": m, "interval": {"lower": lo, "point": pt, "upper": hi}}
            for m, (lo, pt, hi) in zip("abc", [(1, 1.5, 1), (2, 2.0, 2), (3, 2.5, 3)])]
    ranks = {"level": 0.95, "raw": {s: rows for s in checks.SCHEMES},
             "normalized": {s: rows for s in checks.SCHEMES}}
    errors = checks.check_rank_tables(ranks, ("a", "b", "c"), 1000)
    assert any("too far outside" in e for e in errors)
    # Within the share of samples beyond the endpoint, the point may leave it.
    ok = [{"model": m, "interval": {"lower": lo, "point": pt, "upper": hi}}
          for m, (lo, pt, hi) in zip("abc", [(1, 1.01, 1), (2, 2.0, 2), (3, 2.99, 3)])]
    ranks = {"level": 0.95, "raw": {s: ok for s in checks.SCHEMES},
             "normalized": {s: ok for s in checks.SCHEMES}}
    assert checks.check_rank_tables(ranks, ("a", "b", "c"), 1000) == []


def test_nan_in_json_fails(screen, tmp_path):
    out, table = copy(screen, tmp_path, "report")
    path = out / "report.json"
    path.write_text(path.read_text().replace('"level": 0.834', '"level": NaN', 1))
    assert any("non-finite" in e for e in checks.check_report(out, table, bhm=False))


def test_missing_file_fails(screen, tmp_path):
    out, table = copy(screen, tmp_path, "report")
    (out / "ranks_raw.md").unlink()
    assert any("ranks_raw.md" in e for e in checks.check_report(out, table, bhm=False))


def _rewrite_cell(path, change):
    lines = path.read_text().splitlines()
    for k, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if change(cells):
            lines[k] = ",".join(cells)
            break
    path.write_text("\n".join(lines) + "\n")


def test_simplex_wrong_winner_fails(screen, tmp_path):
    out, table = copy(screen, tmp_path, "simplex")

    def swap(cells):
        if cells[3] == checks.INDETERMINATE:
            return False
        cells[3] = next(m for m in table.models if m != cells[3])
        return True

    _rewrite_cell(out / "simplex_2_0.csv", swap)
    assert any("winner" in e for e in checks.check_simplex(out, table, GRID))


def test_simplex_wrong_margin_fails(screen, tmp_path):
    out, table = copy(screen, tmp_path, "simplex")

    def nudge(cells):
        cells[4] = f"{float(cells[4]) * 1.0001:.6g}"
        return True

    _rewrite_cell(out / "simplex_1.41421_0.5.csv", nudge)
    assert any("margin" in e for e in checks.check_simplex(out, table, GRID))


def test_simplex_indeterminate_with_clear_margin_fails(screen, tmp_path):
    out, table = copy(screen, tmp_path, "simplex")

    def blank(cells):
        if cells[3] == checks.INDETERMINATE or float(cells[4]) < 3.0:
            return False
        cells[3] = checks.INDETERMINATE
        return True

    _rewrite_cell(out / "simplex_2_0.csv", blank)
    errors = checks.check_simplex(out, table, GRID)
    assert any("INDETERMINATE with margin" in e for e in errors)


def test_normalized_simplex_unknown_winner_fails(screen, tmp_path):
    out, table = copy(screen, tmp_path, "simplex")

    def rename(cells):
        cells[3] = "no-such-model"
        return True

    _rewrite_cell(out / "simplex_normalized_2_0.csv", rename)
    assert any("unknown winners" in e for e in checks.check_simplex(out, table, GRID))


def test_simplex_margins_match_decide_winner():
    from benchuq.weighting import decide_winner

    models, tasks, counts = gen.generate(4)
    table = checks.Table(tuple(models), tuple(tasks), counts)
    grid = checks._grid(0.1)
    top, margin = checks.simplex_margins(table, grid, 0.5)
    p = table.accuracy
    var = p * (1 - p) / table.sizes
    cats = [np.array([c == cat for _, c, _ in tasks]) for cat in gen.CATEGORIES]
    means = np.stack([p[:, m].mean(1) for m in cats], 1)
    cvars = np.stack([var[:, m].sum(1) / m.sum() ** 2 for m in cats], 1)
    for c, w in enumerate(grid):
        idx, m = decide_winner(means @ w, cvars @ w**2, 0.0, 0.5)
        assert math.isclose(m, margin[c], rel_tol=1e-9)
        assert idx == top[c]


def bhm_doc(table, shift=0.0):
    level = 0.834
    z = checks._z(level)
    sd = checks._binomial_sd(table)
    mean = table.accuracy.mean(axis=1)
    column = {m: {"point": mean[i] + shift, "lower": mean[i] - z * sd[i],
                  "upper": mean[i] + z * sd[i]} for i, m in enumerate(table.models)}
    return {"level": level, "leaderboard": {checks.BHM_COLUMN: column}}


def test_bhm_checks():
    table = checks.simstudy_table()
    good = {m: {"rhat": 1.001, "ess": 1500.0} for m in table.models}
    assert checks.check_bhm(bhm_doc(table), table, good) == []
    assert any("BHM point" in e for e in checks.check_bhm(bhm_doc(table, 0.002), table, good))
    assert any("R-hat" in e for e in checks.check_bhm(
        bhm_doc(table), table, {**good, "A": {"rhat": 1.02, "ess": 1500.0}}))
    assert any("ESS" in e for e in checks.check_bhm(
        bhm_doc(table), table, {**good, "B": {"rhat": 1.0, "ess": 399.0}}))


def simstudy_dir(tmp_path, **changes):
    table = checks.simstudy_table()
    p = table.accuracy
    diff = p[0].mean() - p[1].mean()
    sd = math.sqrt((p * (1 - p) / table.sizes).sum()) / 3
    z = checks._z(0.95)
    doc = {
        "replicates": 10_000,
        "bootstrap": {"point": diff, "lower": diff - z * sd, "upper": diff + z * sd,
                      "level": 0.95},
        "bhm": {"point": -0.012, "lower": -0.0205, "upper": -0.0035, "level": 0.95},
        "checks": [{"label": str(k), "passed": True} for k in range(3)],
        "diagnostics": {"A": {"rhat": 1.0, "ess": 3000.0}, "B": {"rhat": 1.0, "ess": 3000.0}},
    }
    doc.update(changes)
    tmp_path.mkdir()
    (tmp_path / "simstudy.json").write_text(json.dumps(doc))
    (tmp_path / "simstudy.txt").write_text("study\n")
    return tmp_path, table


def test_simstudy_checks(tmp_path):
    assert checks.check_simstudy(*simstudy_dir(tmp_path / "ok")) == []
    off = {"point": -0.012, "lower": -0.030, "upper": -0.0035, "level": 0.95}
    assert any("misses" in e
               for e in checks.check_simstudy(*simstudy_dir(tmp_path / "a", bhm=off)))
    failed = [{"label": "x", "passed": False}] * 3
    assert checks.check_simstudy(*simstudy_dir(tmp_path / "b", checks=failed))
    bad_rhat = {"A": {"rhat": 1.05, "ess": 3000.0}, "B": {"rhat": 1.0, "ess": 3000.0}}
    assert any("R-hat" in e for e in checks.check_simstudy(
        *simstudy_dir(tmp_path / "c", diagnostics=bad_rhat)))


def test_half_width_tolerance_is_five_percent_at_ten_thousand():
    assert checks.half_width_tolerance(0.834, 10_000) == 0.05
    assert checks.half_width_tolerance(0.834, 2_000) == pytest.approx(0.0984, abs=5e-4)
