"""Command-line driver: exit codes, file emission, config handling.

Statistical behavior is covered by the module tests; here we keep replicate
and iteration counts small and check the plumbing around them.
"""

import importlib.util
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import benchuq
import benchuq.bhm as bhm_mod
import benchuq.cli as cli
import benchuq.ranking as ranking_mod
from benchuq.bhm import DEFAULT_PRIOR_RATE, McmcConfig
from benchuq.bootstrap import run_bootstrap
from benchuq.core import EvalTable, TaskSpec
from benchuq.errors import ConvergenceWarning
from benchuq.normalize import estimate_bounds
from benchuq.cli import (
    EXIT_COMPUTE,
    EXIT_DATA,
    EXIT_OK,
    EXIT_USAGE,
    SIMSTUDY_PRIORS,
    build_parser,
    main,
    simulation_study_table,
)

FAST_BOOT = ["--replicates", "200"]
FAST_MCMC = ["--iterations", "600", "--burn-in", "200", "--thinning", "2",
             "--chains", "2"]


def run(argv):
    return main(argv)


def write_counts_csv(tmp_path):
    tasks = tmp_path / "tasks.csv"
    tasks.write_text(
        "task_id,category,test_size\n"
        "t1,alpha,400\n"
        "t2,alpha,900\n"
        "t3,beta,1600\n"
    )
    evals = tmp_path / "counts.csv"
    evals.write_text(
        "model,task,correct\n"
        "m1,t1,200\nm1,t2,450\nm1,t3,800\n"
        "m2,t1,300\nm2,t2,700\nm2,t3,1200\n"
        "m3,t1,100\nm3,t2,300\nm3,t3,500\n"
    )
    return evals, tasks


# ----------------------------------------------------------- argument layer


def test_no_command_is_usage_error(capsys):
    assert run([]) == EXIT_USAGE
    assert "a command is required" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert run(["--help"]) == EXIT_OK
    assert "usage" in capsys.readouterr().out.lower()


def test_unknown_command_is_usage_error():
    assert run(["frobnicate"]) == EXIT_USAGE


def test_unknown_flag_is_usage_error():
    assert run(["bootstrap", "--no-such-flag"]) == EXIT_USAGE


def test_eval_without_tasks_is_usage_error(capsys):
    assert run(["ingest", "--eval", "only.csv"]) == EXIT_USAGE
    assert "--eval and --tasks must be given together" in capsys.readouterr().err


def test_bad_format_name_is_usage_error(tmp_path, capsys):
    argv = ["bootstrap", "--out-dir", str(tmp_path), "--formats", "markdown,bogus"]
    assert run(argv) == EXIT_USAGE
    assert "argument --formats: unknown format(s) ['bogus']" in capsys.readouterr().err


def test_z_without_rho_is_usage_error(tmp_path):
    argv = ["simplex", "--out-dir", str(tmp_path), "--z", "2.0"]
    assert run(argv) == EXIT_USAGE


def test_invalid_mcmc_shape_is_data_error(tmp_path):
    argv = ["bhm", "--out-dir", str(tmp_path),
            "--iterations", "100", "--burn-in", "200"]
    assert run(argv) == EXIT_DATA


def test_too_few_retained_draws_fail_before_sampling(tmp_path, capsys, monkeypatch):
    # (3000 - 2990) // 5 = 2 draws per chain; split R-hat needs 4.
    def sampler(*args):
        raise AssertionError("the sampler ran")

    monkeypatch.setattr(bhm_mod, "_posterior_grid", sampler)
    argv = ["bhm", "--out-dir", str(tmp_path / "out"),
            "--iterations", "3000", "--burn-in", "2990", "--thinning", "5"]
    assert run(argv) == EXIT_DATA
    err = capsys.readouterr().err
    for part in ("iterations 3000", "burn-in 2990", "thinning 5", "= 2", "K >= 4"):
        assert part in err


@pytest.mark.parametrize("rate", ["nan", "inf"])
def test_nonfinite_prior_rate_is_data_error(rate, tmp_path, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["bhm", "--out-dir", str(tmp_path), "--prior-rate", rate]) == EXIT_DATA
    assert f"exponential prior rate must be finite, got {rate}" in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_parser_covers_documented_commands():
    _, subs = build_parser()
    assert set(subs) == {"ingest", "bootstrap", "bhm", "ranks", "simplex",
                         "report", "simstudy"}


def test_mcmc_flag_defaults_are_the_library_defaults():
    _, subs = build_parser()
    args = subs["bhm"].parse_args([])
    assert McmcConfig(
        total_iterations=args.iterations, burn_in=args.burn_in,
        thinning=args.thinning, chains=args.chains,
    ) == McmcConfig()
    assert args.prior_rate == DEFAULT_PRIOR_RATE


# Every subcommand's long options: {option: (dest, value of parse_args([]))}.
# A change here renames, drops or re-defaults an option users may script.
COMMON_OPTIONS = {"--config": ("config", None), "--seed": ("seed", 0),
                  "--workers": ("workers", 1)}
DATA_OPTIONS = {"--eval": ("eval_path", None), "--tasks": ("task_path", None),
                "--input-format": ("input_format", "counts")}
OUTPUT_OPTIONS = {"--out-dir": ("out_dir", Path("benchuq-out")),
                  "--formats": ("formats", {"markdown", "csv", "json"})}
MCMC_OPTIONS = {"--iterations": ("iterations", 12_000), "--burn-in": ("burn_in", 2_000),
                "--thinning": ("thinning", 5), "--chains": ("chains", 4),
                "--prior-rate": ("prior_rate", 1e-4), "--strict": ("strict", False)}
OPTION_INVENTORY = {
    "ingest": {**COMMON_OPTIONS, **DATA_OPTIONS, "--published": ("published", None),
               "--tolerance": ("tolerance", 0.1)},
    "bootstrap": {**COMMON_OPTIONS, **DATA_OPTIONS, **OUTPUT_OPTIONS,
                  "--replicates": ("replicates", 10_000), "--level": ("level", 0.834),
                  "--normalized": ("normalized", False)},
    "bhm": {**COMMON_OPTIONS, **DATA_OPTIONS, **OUTPUT_OPTIONS,
            "--level": ("level", 0.834), **MCMC_OPTIONS},
    "ranks": {**COMMON_OPTIONS, **DATA_OPTIONS, **OUTPUT_OPTIONS,
              "--replicates": ("replicates", 10_000), "--level": ("level", 0.95),
              "--scheme": ("scheme", None), "--normalized": ("normalized", False)},
    "simplex": {**COMMON_OPTIONS, **DATA_OPTIONS, **OUTPUT_OPTIONS,
                "--replicates": ("replicates", 10_000), "--z": ("z", None),
                "--rho": ("rho", None), "--grid-step": ("grid_step", 0.05),
                "--normalized": ("normalized", False)},
    "report": {**COMMON_OPTIONS, **DATA_OPTIONS, **OUTPUT_OPTIONS,
               "--replicates": ("replicates", 10_000), "--level": ("level", 0.834),
               "--rank-level": ("rank_level", 0.95), "--no-bhm": ("no_bhm", False),
               **MCMC_OPTIONS},
    "simstudy": {**COMMON_OPTIONS, **OUTPUT_OPTIONS,
                 "--replicates": ("replicates", 10_000),
                 "--bootstrap-only": ("bootstrap_only", False), **MCMC_OPTIONS},
}


@pytest.mark.parametrize("command", sorted(OPTION_INVENTORY))
def test_option_inventory_is_frozen(command):
    _, subs = build_parser()
    assert set(subs) == set(OPTION_INVENTORY)
    parser = subs[command]
    args = vars(parser.parse_args([]))
    found = {option: (action.dest, args[action.dest]) for action in parser._actions
             for option in action.option_strings
             if option.startswith("--") and option != "--help"}
    assert found == OPTION_INVENTORY[command]
    # Equality alone would accept 10000.0 for 10000, or 0 for False.
    for dest, value in OPTION_INVENTORY[command].values():
        assert type(args[dest]) is type(value), dest


# ------------------------------------------------------------------- config


def test_config_sets_defaults_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"replicates": 150, "out-dir": str(tmp_path / "a")}))
    assert run(["bootstrap", "--config", str(cfg), "--formats", "json"]) == EXIT_OK
    capsys.readouterr()
    payload = json.loads((tmp_path / "a" / "bootstrap.json").read_text())
    assert payload["replicates"] == 150

    assert run(["bootstrap", "--config", str(cfg), "--formats", "json",
                "--replicates", "77", "--out-dir", str(tmp_path / "b")]) == EXIT_OK
    payload = json.loads((tmp_path / "b" / "bootstrap.json").read_text())
    assert payload["replicates"] == 77  # explicit flag beats config default


def test_config_unknown_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"not-an-option": 1}))
    assert run(["bootstrap", "--config", str(cfg)]) == EXIT_USAGE
    assert "unknown option" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("config", "nested.json"), ("help", True)])
def test_config_key_that_sets_nothing_is_usage_error(key, value, tmp_path, capsys):
    # A default of --config or --help has no effect, so the key is refused.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    argv = ["bootstrap", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]
    assert run(argv) == EXIT_USAGE
    assert f"option {key!r} cannot be set in a config file" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_must_be_object(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    assert run(["bootstrap", "--config", str(cfg)]) == EXIT_USAGE


def test_config_missing_file_is_usage_error(tmp_path):
    argv = ["bootstrap", "--config", str(tmp_path / "absent.json")]
    assert run(argv) == EXIT_USAGE


@pytest.mark.parametrize(
    "command, config, flag",
    [
        ("bootstrap", {"replicates": 2.5}, "--replicates"),
        ("ranks", {"scheme": "nope"}, "--scheme"),
        # A flag takes only a JSON boolean: the string "false" is not false.
        ("report", {"no-bhm": "false"}, "--no-bhm"),
        ("report", {"no_bhm": 1}, "--no-bhm"),
        # Keys are option names, not argparse's internal destinations.
        ("bootstrap", {"eval_path": 3, "task_path": "tasks.csv"}, "'eval_path'"),
        ("simstudy", {"formats": "csv,bogus"}, "--formats"),
    ],
)
def test_config_value_of_wrong_type_or_choice_is_usage_error(
    command, config, flag, tmp_path, capsys
):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    argv = [command, "--config", str(cfg), "--out-dir", str(tmp_path / "out")]
    assert run(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "usage:" in err and flag in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_config_string_values_are_converted(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": "3", "replicates": 20}))
    out = tmp_path / "out"
    argv = ["bootstrap", "--config", str(cfg), "--formats", "json", "--out-dir", str(out)]
    assert run(argv) == EXIT_OK
    payload = json.loads((out / "bootstrap.json").read_text())
    assert (payload["seed"], payload["replicates"]) == (3, 20)


def test_config_eval_and_tasks_load_the_table(tmp_path, capsys):
    evals, tasks = write_counts_csv(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eval": str(evals), "tasks": str(tasks)}))
    assert run(["ingest", "--config", str(cfg)]) == EXIT_OK
    assert "3 models x 3 tasks" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["bootstrap", "bhm"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_zero_workers_is_usage_error(command, source, tmp_path, capsys):
    argv = [command, "--chains", "2"] if command == "bhm" else [command]
    if source == "flag":
        argv += ["--workers", "0"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"workers": 0}))
        argv += ["--config", str(cfg)]
    assert run(argv + ["--out-dir", str(tmp_path / "out")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "usage:" in err and "--workers" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["bootstrap", "bhm", "simstudy"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_negative_seed_is_usage_error(command, source, tmp_path, capsys):
    # Refused by argparse before any table is loaded or grid built.
    argv = [command, "--out-dir", str(tmp_path / "out")]
    if source == "flag":
        argv += ["--seed", "-1"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": -1}))
        argv += ["--config", str(cfg)]
    assert run(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--seed" in err and "must be an integer >= 0, got '-1'" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


# ------------------------------------------------------------- subcommands


def test_ingest_fixture_reports_consistency(capsys):
    assert run(["ingest"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "16 models x 19 tasks" in out
    assert "consistency PASS" in out


def test_ingest_tight_tolerance_fails_with_data_error(capsys):
    assert run(["ingest", "--tolerance", "0.0001"]) == EXIT_DATA
    assert "exceeds" in capsys.readouterr().err


def test_ingest_counts_csv_without_published_means(tmp_path, capsys):
    evals, tasks = write_counts_csv(tmp_path)
    argv = ["ingest", "--eval", str(evals), "--tasks", str(tasks)]
    assert run(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert "3 models x 3 tasks" in out
    assert "consistency check skipped" in out


def test_ingest_missing_published_file_is_data_error(tmp_path, capsys):
    missing = tmp_path / "absent.csv"
    assert run(["ingest", "--published", str(missing)]) == EXIT_DATA
    assert "absent.csv" in capsys.readouterr().err


def test_ingest_non_numeric_published_cell_is_data_error(tmp_path, capsys):
    published = tmp_path / "published.csv"
    published.write_text("# means\nmodel,natural,overall\nRotation,n/a,60.0\n")
    assert run(["ingest", "--published", str(published)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "published.csv" in err
    assert re.search(r"row 3, column 'natural': 'n/a'", err)


def test_ingest_malformed_eval_is_data_error(tmp_path):
    evals, tasks = write_counts_csv(tmp_path)
    evals.write_text("model,task,correct\nm1,t1,not-a-number\n")
    argv = ["ingest", "--eval", str(evals), "--tasks", str(tasks)]
    assert run(argv) == EXIT_DATA


def test_bootstrap_writes_selected_formats(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["bootstrap", *FAST_BOOT, "--out-dir", str(out)]
    assert run(argv) == EXIT_OK
    stdout = capsys.readouterr().out
    assert stdout.count("wrote ") == 3
    md = (out / "leaderboard_bootstrap.md").read_text()
    assert md.count("\n") == 2 + 16  # header, separator, one row per model
    csv_text = (out / "leaderboard_bootstrap.csv").read_text()
    assert csv_text.startswith("model,")
    payload = json.loads((out / "bootstrap.json").read_text())
    assert len(payload["leaderboard"]["Avg Acc (bootstrap)"]) == 16


def test_bootstrap_json_only(tmp_path):
    out = tmp_path / "out"
    argv = ["bootstrap", *FAST_BOOT, "--out-dir", str(out), "--formats", "json"]
    assert run(argv) == EXIT_OK
    assert [p.name for p in out.iterdir()] == ["bootstrap.json"]


def test_bootstrap_normalized_adds_column(tmp_path):
    out = tmp_path / "out"
    argv = ["bootstrap", *FAST_BOOT, "--out-dir", str(out), "--normalized",
            "--formats", "json"]
    assert run(argv) == EXIT_OK
    payload = json.loads((out / "bootstrap.json").read_text())
    assert set(payload["leaderboard"]) == {"Avg Acc (bootstrap)",
                                           "Avg Norm Acc (bootstrap)"}


def test_bootstrap_counts_input(tmp_path):
    evals, tasks = write_counts_csv(tmp_path)
    out = tmp_path / "out"
    argv = ["bootstrap", *FAST_BOOT, "--eval", str(evals), "--tasks", str(tasks),
            "--out-dir", str(out), "--formats", "json"]
    assert run(argv) == EXIT_OK
    payload = json.loads((out / "bootstrap.json").read_text())
    board = payload["leaderboard"]["Avg Acc (bootstrap)"]
    assert set(board) == {"m1", "m2", "m3"}
    assert board["m2"]["point"] > board["m1"]["point"] > board["m3"]["point"]


def test_ranks_single_scheme(tmp_path):
    out = tmp_path / "out"
    argv = ["ranks", *FAST_BOOT, "--out-dir", str(out), "--scheme", "by-average"]
    assert run(argv) == EXIT_OK
    payload = json.loads((out / "ranks.json").read_text())
    assert set(payload["ranks"]) == {"raw", "level"}
    assert set(payload["ranks"]["raw"]) == {"by-average"}
    assert len(payload["ranks"]["raw"]["by-average"]) == 16
    assert (out / "ranks_raw.md").exists()
    assert not (out / "ranks_normalized.md").exists()


def test_ranks_all_schemes_normalized(tmp_path):
    out = tmp_path / "out"
    argv = ["ranks", *FAST_BOOT, "--out-dir", str(out), "--normalized"]
    assert run(argv) == EXIT_OK
    payload = json.loads((out / "ranks.json").read_text())
    assert set(payload["ranks"]) == {"raw", "normalized", "level"}
    assert set(payload["ranks"]["raw"]) == {
        "by-average", "geometric-mean", "average-rank",
        "average-rank-noise", "average-rank-binned",
    }
    assert (out / "ranks_normalized.csv").exists()
    header = (out / "ranks_raw.md").read_text().splitlines()[0]
    assert header.startswith("| Model | by-average |")


def test_ranks_noise_rows_do_not_depend_on_the_other_schemes(tmp_path):
    # Every scheme of a section is ranked in one pass that draws the noise
    # once per block; ranking the noise scheme alone draws the same normals.
    payloads = []
    for name, extra in (("all", []), ("noise", ["--scheme", "average-rank-noise"])):
        out = tmp_path / name
        argv = ["ranks", *FAST_BOOT, "--normalized", "--formats", "json",
                "--out-dir", str(out), *extra]
        assert run(argv) == EXIT_OK
        payloads.append(json.loads((out / "ranks.json").read_text())["ranks"])
    every, alone = payloads
    for section in ("raw", "normalized"):
        assert alone[section] == {
            "average-rank-noise": every[section]["average-rank-noise"]}


def test_simplex_default_settings(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["simplex", "--out-dir", str(out), "--grid-step", "0.2"]
    assert run(argv) == EXIT_OK
    capsys.readouterr()
    sqrt_name = f"{2.0 / math.sqrt(2.0):g}"
    expected = {
        "simplex_2_0.csv", "simplex_2_0.svg",
        f"simplex_{sqrt_name}_0.5.csv", f"simplex_{sqrt_name}_0.5.svg",
        "simplex.json",
    }
    assert {p.name for p in out.iterdir()} == expected
    assert "<svg" in (out / "simplex_2_0.svg").read_text()
    payload = json.loads((out / "simplex.json").read_text())
    assert [f["variant"] for f in payload["fields"]] == ["simplex", "simplex"]


def test_simplex_single_model_wins_every_cell(tmp_path, capsys):
    tasks = tmp_path / "tasks.csv"
    tasks.write_text("task,category,test_size\nt1,a,100\nt2,b,200\nt3,c,300\n")
    evals = tmp_path / "counts.csv"
    evals.write_text("model,task,correct\nsolo,t1,50\nsolo,t2,150\nsolo,t3,90\n")
    out = tmp_path / "out"
    argv = ["simplex", "--eval", str(evals), "--tasks", str(tasks),
            "--out-dir", str(out), "--grid-step", "0.25"]
    assert run(argv) == EXIT_OK
    capsys.readouterr()
    rows = (out / "simplex_2_0.csv").read_text().splitlines()
    assert len(rows) == 1 + 15
    assert all(row.endswith(",solo,inf") for row in rows[1:])
    payload = json.loads((out / "simplex.json").read_text())
    for field in payload["fields"]:
        assert field["winners"] == ["solo"]
        assert field["indeterminate_cells"] == 0


def test_simplex_explicit_setting_and_zero_z(tmp_path):
    out = tmp_path / "out"
    argv = ["simplex", "--out-dir", str(out), "--z", "0", "--rho", "0",
            "--grid-step", "0.2"]
    assert run(argv) == EXIT_OK
    csv_lines = (out / "simplex_0_0.csv").read_text().splitlines()
    assert csv_lines[0] == "w_nat,w_sp,w_str,winner,margin_se"
    assert len(csv_lines) == 1 + 21  # 5-step barycentric grid has 21 cells
    payload = json.loads((out / "simplex.json").read_text())
    assert payload["fields"][0]["indeterminate_cells"] == 0


def test_simplex_normalized_variant(tmp_path):
    out = tmp_path / "out"
    argv = ["simplex", *FAST_BOOT, "--out-dir", str(out), "--normalized",
            "--z", "2", "--rho", "0", "--grid-step", "0.2", "--formats", "json"]
    assert run(argv) == EXIT_OK
    payload = json.loads((out / "simplex.json").read_text())
    assert [f["variant"] for f in payload["fields"]] == [
        "simplex", "simplex_normalized",
    ]
    # json-only still emits the SVGs (they are the deliverable), not the CSVs
    names = {p.name for p in out.iterdir()}
    assert "simplex_2_0.svg" in names
    assert "simplex_2_0.csv" not in names


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--grid-step", "0"], "does not divide 1"),
        (["--z", "2", "--rho", "2"], "rho must lie in"),
        (["--z", "2", "--rho", "-1.5"], "rho must lie in"),
    ],
)
def test_simplex_bad_flag_values_are_data_errors(flags, message, tmp_path, capsys):
    argv = ["simplex", "--out-dir", str(tmp_path / "out"), *flags]
    assert run(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_report_without_bhm(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["report", *FAST_BOOT, "--out-dir", str(out), "--no-bhm"]
    assert run(argv) == EXIT_OK
    capsys.readouterr()
    names = {p.name for p in out.iterdir()}
    assert names == {"leaderboard.md", "leaderboard.csv", "pairwise.md",
                     "pairwise.csv", "ranks_raw.md", "ranks_raw.csv",
                     "ranks_normalized.md", "ranks_normalized.csv",
                     "report.json"}
    payload = json.loads((out / "report.json").read_text())
    assert "bhm_diagnostics" not in payload
    assert len(payload["pairwise"]["Diff (bootstrap)"]) == 3
    board = payload["leaderboard"]["Avg Acc (bootstrap)"]
    first_row_model = (out / "leaderboard.md").read_text().splitlines()[2]
    leader = max(board, key=lambda m: board[m]["point"])
    assert first_row_model.startswith(f"| {leader} |")


def write_one_model_csv(tmp_path):
    tasks = tmp_path / "tasks.csv"
    tasks.write_text("task,category,test_size\nt1,a,100\nt2,b,200\nt3,c,300\n")
    evals = tmp_path / "counts.csv"
    evals.write_text("model,task,correct\nsolo,t1,50\nsolo,t2,150\nsolo,t3,90\n")
    return evals, tasks


@pytest.mark.parametrize("bhm", [False, True])
def test_report_on_one_model_has_no_pairwise(tmp_path, capsys, bhm):
    evals, tasks = write_one_model_csv(tmp_path)
    out = tmp_path / "out"
    argv = ["report", *FAST_BOOT, "--eval", str(evals), "--tasks", str(tasks),
            "--out-dir", str(out)]
    argv += FAST_MCMC if bhm else ["--no-bhm"]
    assert run(argv) == EXIT_OK
    capsys.readouterr()
    assert not any(p.name.startswith("pairwise.") for p in out.iterdir())
    payload = json.loads((out / "report.json").read_text())
    assert payload["pairwise"] == {}
    assert list(payload["leaderboard"]["Avg Acc (bootstrap)"]) == ["solo"]
    assert ("bhm_diagnostics" in payload) == bhm


def test_bhm_subcommand_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["bhm", *FAST_MCMC, "--out-dir", str(out)]
    assert run(argv) == EXIT_OK
    capsys.readouterr()
    diag = (out / "bhm_diagnostics.csv").read_text().splitlines()
    assert diag[0] == "model,rhat,ess"
    assert len(diag) == 1 + 16
    float(diag[1].split(",")[1])  # diagnostics round-trip as numbers
    payload = json.loads((out / "bhm.json").read_text())
    assert payload["mcmc"]["iterations"] == 600
    assert len(payload["leaderboard"]) == 16
    for stats in payload["diagnostics"].values():
        assert isinstance(stats["rhat"], float)
        assert isinstance(stats["ess"], float)
        assert 0.0 <= stats["edge_mass"] <= bhm_mod.EDGE_MASS_WARN_THRESHOLD
        lo_a, hi_a, lo_b, hi_b = stats["box"]
        assert lo_a < hi_a and lo_b < hi_b


# K = 2 chunks + 3 draws per chain: the last chunk of each chain is short.
CHUNKED_MCMC = ["--iterations", str(2 * bhm_mod._CHUNK + 103), "--burn-in", "100",
                "--thinning", "1", "--chains", "2"]


@pytest.mark.filterwarnings("ignore::benchuq.errors.ConvergenceWarning")
def test_report_bhm_column_equals_intervals_of_the_stacked_fit():
    args = build_parser()[0].parse_args(["report", *CHUNKED_MCMC])
    table = benchuq.load_vtab()
    column, diagnostics = cli._bhm_column(table, args)
    draws = bhm_mod.fit_bhm(table, priors=bhm_mod.PriorSpec.exponential(args.prior_rate),
                            config=cli._mcmc_config(args))
    assert column == {m: bhm_mod.credible_interval(draws, m, level=args.level)
                      for m in table.models}
    assert diagnostics == draws.diagnostics


@pytest.mark.filterwarnings("ignore::benchuq.errors.ConvergenceWarning")
def test_simstudy_bhm_interval_equals_the_stacked_fit(tmp_path, capsys):
    argv = ["simstudy", *CHUNKED_MCMC, *FAST_BOOT, "--formats", "json",
            "--out-dir", str(tmp_path)]
    assert run(argv) in (EXIT_OK, EXIT_COMPUTE)  # a short fit may miss the targets
    payload = json.loads((tmp_path / "simstudy.json").read_text())
    config = McmcConfig(2 * bhm_mod._CHUNK + 103, 100, 1, 2, 0)
    draws = bhm_mod.fit_bhm(simulation_study_table(), priors=SIMSTUDY_PRIORS, config=config)
    expected = bhm_mod.credible_interval(draws, "A", other="B", level=0.95)
    assert payload["bhm"] == cli.rpt.interval_dict(expected)
    assert payload["diagnostics"] == json.loads(json.dumps(draws.diagnostics))


@pytest.mark.filterwarnings("ignore::benchuq.errors.ConvergenceWarning")
def test_cli_bhm_path_holds_no_theta():
    # 2 chains x 8,000 draws of 4 models x 60 tasks: theta would take 30 MiB.
    gen = np.random.default_rng(2)
    sizes = gen.integers(100, 5_000, size=60)
    table = EvalTable(
        models=tuple(f"m{i}" for i in range(4)),
        tasks=tuple(TaskSpec(f"t{j}", "c", int(n)) for j, n in enumerate(sizes)),
        counts=gen.binomial(sizes, gen.uniform(0.3, 0.9, size=(4, 60))),
    )
    args = build_parser()[0].parse_args(
        ["bhm", "--iterations", "8000", "--burn-in", "0", "--thinning", "1", "--chains", "2"])
    theta_bytes = 2 * 8_000 * 4 * 60 * 8
    tracemalloc.start()
    try:
        column, _ = cli._bhm_column(table, args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(column) == 4
    assert theta_bytes >= 16 * 2**20
    assert peak < theta_bytes / 4


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("command", ["bhm", "report"])
def test_strict_turns_convergence_warning_into_exit_3(tmp_path, capsys, command, strict):
    # Eight draws per chain give a noisy split R-hat: at seed 0 some
    # model's is above 1.05 on both commands.
    argv = [command, "--out-dir", str(tmp_path), "--iterations", "10",
            "--burn-in", "2", "--thinning", "1", "--seed", "0", "--formats", "json"]
    if command == "report":
        argv += ["--replicates", "50"]
    if strict:
        assert run([*argv, "--strict"]) == EXIT_COMPUTE
        assert "convergence failure: split-chain R-hat" in capsys.readouterr().err
    else:
        with pytest.warns(ConvergenceWarning, match="R-hat"):
            assert run(argv) == EXIT_OK


def test_simstudy_bootstrap_only(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["simstudy", "--out-dir", str(out), "--bootstrap-only",
            "--replicates", "500"]
    assert run(argv) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "[PASS] bootstrap interval contains 0" in stdout
    text = (out / "simstudy.txt").read_text()
    assert "[PASS] bootstrap interval contains 0" in text
    payload = json.loads((out / "simstudy.json").read_text())
    assert "bhm" not in payload
    assert payload["checks"][0]["passed"] is True


def test_simstudy_table_is_the_documented_design():
    table = simulation_study_table()
    assert table.models == ("A", "B")
    assert [t.test_size for t in table.tasks] == [200, 10_000, 20_000]
    assert table.counts.tolist() == [[100, 5_000, 10_000],
                                     [115, 5_000, 10_000]]
    assert set(SIMSTUDY_PRIORS) == {"A", "B"}


# -------------------------------------------------------------- determinism


def tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_report_outputs_are_byte_identical_across_reruns_and_workers(tmp_path):
    outs = [tmp_path / name for name in ("a", "b", "c")]
    for out, workers in zip(outs, ("1", "1", "2")):
        argv = ["report", *FAST_BOOT, "--out-dir", str(out), "--no-bhm",
                "--workers", workers]
        assert run(argv) == EXIT_OK
    first = tree_bytes(outs[0])
    assert first == tree_bytes(outs[1])
    assert first == tree_bytes(outs[2])


# ------------------------------------------------------- import and docs


def source_env():
    """The environment of a fresh process that imports this benchuq."""
    src = str(Path(benchuq.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": src}


def test_importing_the_cli_loads_no_scipy_stats():
    # scipy.stats costs most of a second at start-up, which every command
    # would pay; the rank code uses its own average-rank helper instead.
    code = "import benchuq.cli, sys; sys.exit('scipy.stats' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=source_env(), timeout=120)
    assert result.returncode == 0


def test_importing_the_cli_loads_no_scipy_until_a_bhm_fit():
    # scipy.special costs about a third of a second and 15 MiB at start-up;
    # the BHM computes its log-gamma values in numpy instead.
    code = (
        "import sys, warnings, benchuq, benchuq.cli\n"
        "loaded = [m for m in sys.modules if m.partition('.')[0] == 'scipy']\n"
        "assert not loaded, loaded\n"
        "from benchuq.bhm import McmcConfig, fit_bhm\n"
        "warnings.simplefilter('ignore')\n"
        "config = McmcConfig(total_iterations=60, burn_in=20, thinning=1, chains=2)\n"
        "draws = fit_bhm(benchuq.cli.simulation_study_table(), config=config)\n"
        "assert draws.n_draws == 80, draws.n_draws\n"
        "loaded = [m for m in sys.modules if m.partition('.')[0] == 'scipy']\n"
        "assert not loaded, loaded\n"
    )
    result = subprocess.run([sys.executable, "-c", code], env=source_env(),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_simstudy_process_imports_no_scipy(tmp_path):
    # -X importtime reports every module the process imports on stderr.
    argv = [sys.executable, "-X", "importtime", "-m", "benchuq.cli", "simstudy",
            "--out-dir", str(tmp_path / "out")]
    result = subprocess.run(argv, env=source_env(), capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == EXIT_OK, result.stderr
    imported = [line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()
                if line.startswith("import time:")]
    assert "benchuq.bhm" in imported
    assert not [m for m in imported if m.partition(".")[0] == "scipy"]


def test_bhm_strict_accepts_weakly_identified_table(tmp_path, capsys):
    # One model, three tasks of N = 1 all scored 0: the posterior of
    # (alpha, beta) is a long banana, which the grid still covers.
    tasks = tmp_path / "tasks.csv"
    tasks.write_text("task,category,test_size\nt1,a,1\nt2,a,1\nt3,a,1\n")
    evals = tmp_path / "counts.csv"
    evals.write_text("model,task,correct\nsolo,t1,0\nsolo,t2,0\nsolo,t3,0\n")
    out = tmp_path / "out"
    argv = ["bhm", "--strict", "--eval", str(evals), "--tasks", str(tasks),
            "--out-dir", str(out), "--formats", "json"]
    assert run(argv) == EXIT_OK, capsys.readouterr().err
    stats = json.loads((out / "bhm.json").read_text())["diagnostics"]["solo"]
    assert stats["rhat"] <= 1.05 and stats["edge_mass"] <= bhm_mod.EDGE_MASS_WARN_THRESHOLD


def test_cli_warnings_name_the_input_not_the_source(tmp_path):
    # With one model, each task's lowest bootstrap accuracy is that model's,
    # so normalized replicates hold zeros and the geometric mean warns.
    evals, tasks = write_one_model_csv(tmp_path)
    argv = ["report", "--no-bhm", *FAST_BOOT, "--eval", str(evals),
            "--tasks", str(tasks), "--out-dir", str(tmp_path / "out")]
    result = subprocess.run([sys.executable, "-m", "benchuq.cli", *argv],
                            env=source_env(), capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == EXIT_OK, result.stderr
    assert re.search(r"^benchuq: warning: \d+ \(sample, model\) pair\(s\) have "
                     r"a zero accuracy", result.stderr, re.M)
    assert ".py:" not in result.stderr


# Stores of the bundled fixture (16 models x 19 tasks) at this B are 14 MiB,
# far above the block-sized temporaries of the rank and simplex passes.
TRACED_B = 6000


def test_normalized_rank_tables_hold_no_copy_of_the_store():
    store = run_bootstrap(benchuq.load_vtab(), B=TRACED_B, seed=0)
    bounds = estimate_bounds(store)
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            sections = cli.rank_tables(store, cli.ALL_SCHEMES, cli.RANK_LEVEL,
                                       normalizer=bounds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(sections["normalized"]) == len(cli.ALL_SCHEMES)
    assert peak < store.replicates.nbytes


def test_normalized_rank_section_normalizes_each_block_once(monkeypatch):
    store = run_bootstrap(benchuq.load_vtab(), B=1000, seed=0)
    bounds = estimate_bounds(store)
    clamped = ranking_mod._clamped_scores
    rows = []

    def counted(block, bounds):
        rows.append(len(block))
        return clamped(block, bounds)

    monkeypatch.setattr(ranking_mod, "_clamped_scores", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        cli.rank_tables(store, cli.ALL_SCHEMES, cli.RANK_LEVEL, normalizer=bounds)
    step = ranking_mod._BLOCK_CELLS // store.replicates[0].size
    assert len(rows) == -(-store.n_replicates // step) > 1
    assert sum(rows) == store.n_replicates


def test_rank_sections_rank_in_one_pass_and_draw_the_noise_once(monkeypatch):
    store = run_bootstrap(benchuq.load_vtab(), B=1000, seed=0)
    bounds = estimate_bounds(store)
    passes, drawn = [], []
    section_rank_sums = ranking_mod._section_rank_sums
    substream = ranking_mod._rng.substream

    def counted_pass(values, schemes, sections, *args):
        passes.append(sections)
        return section_rank_sums(values, schemes, sections, *args)

    class CountedNormals:
        def __init__(self, gen):
            self.gen = gen

        def standard_normal(self, *args, **kwargs):
            normals = self.gen.standard_normal(*args, **kwargs)
            drawn.append(normals.size)
            return normals

    def counted_substream(seed, stream):
        gen = substream(seed, stream)
        return CountedNormals(gen) if stream == ranking_mod._rng.RANK_NOISE else gen

    monkeypatch.setattr(ranking_mod, "_section_rank_sums", counted_pass)
    monkeypatch.setattr(ranking_mod._rng, "substream", counted_substream)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        sections = cli.rank_tables(store, cli.ALL_SCHEMES, cli.RANK_LEVEL, normalizer=bounds)
    assert list(sections) == ["raw", "normalized"]
    assert passes == [("raw", "normalized")]
    # Both noise columns share each block's normals: S x M x T in all.
    assert sum(drawn) == store.replicates.size


def test_simplex_frees_the_store_before_its_scans(tmp_path, monkeypatch):
    scan = cli.simplex_scan
    held = []

    def traced_scan(*args, **kwargs):
        held.append(tracemalloc.get_traced_memory()[0])
        return scan(*args, **kwargs)

    monkeypatch.setattr(cli, "simplex_scan", traced_scan)
    argv = ["simplex", "--normalized", "--replicates", str(TRACED_B),
            "--grid-step", "0.1", "--formats", "json", "--out-dir", str(tmp_path)]
    tracemalloc.start()
    try:
        assert run(argv) == EXIT_OK
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    store_bytes = TRACED_B * 16 * 19 * run_bootstrap(benchuq.load_vtab(), B=1).counts.itemsize
    assert len(held) == 4
    assert max(held) < store_bytes
    assert peak < store_bytes  # the bounds come block by block, from no store


def test_traced_layers_are_cli_attributes():
    # perfbench/trace_cli.py wraps these names on benchuq.cli; a rename
    # there would silently drop a layer from the benchmark's traced runs.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "trace_cli.py"
    spec = importlib.util.spec_from_file_location("perfbench_trace_cli", path)
    trace_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_cli)
    import benchuq.cli as cli

    missing = [name for name in trace_cli.CLI_LAYERS if not hasattr(cli, name)]
    assert trace_cli.CLI_LAYERS and not missing


def readme_cli_lines():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```bash\n(.*?)```", readme.read_text(), flags=re.S)
    return [line.strip() for block in blocks for line in block.splitlines()
            if line.strip().startswith("benchuq ")]


@pytest.mark.parametrize("line", readme_cli_lines())
def test_readme_cli_line_parses(line):
    parser, _ = build_parser()
    args = parser.parse_args(shlex.split(line, comments=True)[1:])
    assert args.command == shlex.split(line)[1]
