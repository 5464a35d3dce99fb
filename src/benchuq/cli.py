"""Command-line front end over the library operations.

Subcommands: ``ingest``, ``bootstrap``, ``bhm``, ``ranks``, ``simplex``,
``report``, ``simstudy``.  Each statistic in an emitted artifact comes from
exactly one library call; the CLI only orchestrates and formats, so a fixed
configuration produces a byte-identical output tree on every run.

Exit codes: 0 success; 1 usage error (bad flags or config); 2 input-data
validation error; 3 computation failure — including reproduction checks
that miss their targets and, under ``--strict``, escalated convergence
warnings.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import report as rpt
from .bhm import (
    DEFAULT_PRIOR_RATE,
    McmcConfig,
    PriorSpec,
    credible_interval,
    fit_bhm,
)
from .bootstrap import (
    DEFAULT_REPLICATES,
    DISPLAY_LEVEL,
    aggregate_interval,
    pairwise_difference_intervals,
    run_bootstrap,
)
from .core import EvalTable, TaskSpec, load_eval_table, validate_consistency
from .errors import BenchuqError, ConvergenceWarning, ValidationError
from .fixtures import load_vtab, published_means_from_csv, vtab_published_means
# Kept for the tracer: perfbench/trace_cli.py wraps normalize_scores and
# rank_intervals beside the other layer entry points; nothing here calls them.
from .normalize import estimate_bounds, normalize_scores  # noqa: F401
from .ranking import RankScheme, rank_intervals, rank_tables  # noqa: F401
from .viz import render_ternary
from .weighting import INDETERMINATE, simplex_scan

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_COMPUTE = 3

# Rank tables are reported at 95% like the published tables, while interval
# leaderboards default to the 83.4% display level.
RANK_LEVEL = 0.95
PAIRWISE_TOP = 3

# Default (z, rho) settings scanned by `simplex`: the plain two-SE rule and
# the correlation-adjusted variant whose threshold shrinks by the same
# factor the SE does at rho = 0.5 (z = 2 / sqrt(2)).
SIMPLEX_SETTINGS = ((2.0, 0.0), (2.0 / np.sqrt(2.0), 0.5))

ALL_SCHEMES = tuple(RankScheme)


class _UsageError(Exception):
    """Bad flag/config combination discovered after parsing."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage problems; our contract says 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# ------------------------------------------------------------- configuration


def _int_at_least(low: int):
    """argparse type for an integer that must be at least ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
        return value
    parse.__name__ = "int"  # argparse names it in "invalid int value: 'x'"
    return parse


def format_set(text: str) -> set[str]:
    """argparse type for --formats: the formats named in a comma list."""
    formats = {part.strip() for part in text.split(",") if part.strip()}
    unknown = formats - set(rpt.REPORT_FORMATS)
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown format(s) {sorted(unknown)}; choose from "
            f"{', '.join(rpt.REPORT_FORMATS)}"
        )
    if not formats:
        raise argparse.ArgumentTypeError("no output formats selected")
    return formats


def _add_common(p: _Parser, *, data: bool = True, outputs: bool = True) -> None:
    p.add_argument("--config", metavar="JSON",
                   help="JSON file of option defaults; flags override it")
    if data:
        p.add_argument("--eval", dest="eval_path", metavar="CSV",
                       help="evaluation table (default: bundled fixture)")
        p.add_argument("--tasks", dest="task_path", metavar="CSV",
                       help="task/category/size table (required with --eval)")
        p.add_argument("--input-format", choices=("counts", "accuracies+sizes"),
                       default="counts",
                       help="schema of --eval (default: %(default)s)")
    if outputs:
        p.add_argument("--out-dir", type=Path, default="benchuq-out",
                       help="artifact directory (default: %(default)s)")
        p.add_argument("--formats", type=format_set, default="markdown,csv,json",
                       help="comma list from markdown,csv,json "
                            "(default: %(default)s)")
    p.add_argument("--seed", type=_int_at_least(0), default=0,
                   help="root seed for all random streams, >= 0 (default: %(default)s)")
    p.add_argument("--workers", type=_int_at_least(1), default=1,
                   help="accepted for compatibility and must be >= 1; all "
                        "work runs in one thread (default: %(default)s)")


def _add_mcmc_args(p: _Parser) -> None:
    p.add_argument("--iterations", type=int, default=McmcConfig.total_iterations,
                   help="with --burn-in, --thinning and --chains, sets only the "
                        "BHM draw count, chains x ((iterations - burn-in) // "
                        "thinning) (default: %(default)s)")
    p.add_argument("--burn-in", type=int, default=McmcConfig.burn_in,
                   help="subtracted from --iterations in the draw count "
                        "(default: %(default)s)")
    p.add_argument("--thinning", type=int, default=McmcConfig.thinning,
                   help="divides the draw count per chain (default: %(default)s)")
    p.add_argument("--chains", type=int, default=McmcConfig.chains,
                   help="draw streams, each of (iterations - burn-in) // thinning "
                        "independent draws (default: %(default)s)")
    p.add_argument("--prior-rate", type=float, default=DEFAULT_PRIOR_RATE,
                   help="rate of the exponential hyperpriors "
                        "(default: %(default)s)")
    p.add_argument("--strict", action="store_true",
                   help="treat convergence warnings (R-hat, grid edge mass) as "
                        "failures (exit 3)")


def build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    parser = _Parser(
        prog="benchuq",
        description="Benchmark leaderboards with quantified uncertainty.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    subs: dict[str, _Parser] = {}

    def command(name: str, func, help_text: str, *, replicates: str = "",
                level: tuple[float, str] | None = None, normalized: str = "",
                **kw) -> _Parser:
        """Add a subcommand.  ``replicates`` and ``normalized`` give the help of
        those options and ``level`` the default and help of ``--level``; each
        option is added only when given."""
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.set_defaults(func=func)
        subs[name] = p
        _add_common(p, **kw)
        if replicates:
            p.add_argument("--replicates", type=int, default=DEFAULT_REPLICATES,
                           help=f"{replicates} (default: %(default)s)")
        if level:
            p.add_argument("--level", type=float, default=level[0],
                           help=f"{level[1]} (default: %(default)s)")
        if normalized:
            p.add_argument("--normalized", action="store_true", help=normalized)
        return p

    p = command("ingest", cmd_ingest,
                "Load and validate an evaluation table.", outputs=False)
    p.add_argument("--published", metavar="CSV",
                   help="published means to validate against (default: the "
                        "bundled table when using the bundled fixture)")
    p.add_argument("--tolerance", type=float, default=0.1,
                   help="allowed mean gap in percentage points "
                        "(default: %(default)s)")

    replicates_help = "bootstrap replicates B"
    board_level = (DISPLAY_LEVEL, "interval level for leaderboards")
    command("bootstrap", cmd_bootstrap, "Bootstrap interval leaderboard.",
            replicates=replicates_help, level=board_level,
            normalized="add a normalized-accuracy column")

    p = command("bhm", cmd_bhm, "Bayesian hierarchical-model interval leaderboard.",
                level=(DISPLAY_LEVEL, "credible level"))
    _add_mcmc_args(p)

    p = command("ranks", cmd_ranks, "Rank-aggregation tables over bootstrap replicates.",
                replicates=replicates_help, level=(RANK_LEVEL, "rank interval level"),
                normalized="also rank normalized accuracies")
    p.add_argument("--scheme", choices=[s.value for s in ALL_SCHEMES],
                   help="emit a single scheme (default: all five)")

    p = command("simplex", cmd_simplex, "Category-weight maps of the winning model.",
                replicates="bootstrap replicates for normalization bounds",
                normalized="also scan normalized accuracies")
    p.add_argument("--z", type=float,
                   help="margin threshold in SE units (default: scan both "
                        "built-in settings)")
    p.add_argument("--rho", type=float,
                   help="between-model correlation (default: see --z)")
    p.add_argument("--grid-step", type=float, default=0.05,
                   help="weight grid resolution (default: %(default)s)")

    p = command("report", cmd_report, "Full leaderboard report: intervals, pairwise, ranks.",
                replicates=replicates_help, level=board_level)
    p.add_argument("--rank-level", type=float, default=RANK_LEVEL,
                   help="rank interval level (default: %(default)s)")
    p.add_argument("--no-bhm", action="store_true",
                   help="skip the Bayesian hierarchical-model column")
    _add_mcmc_args(p)

    p = command("simstudy", cmd_simstudy,
                "Two-model simulation study with reproduction checks.",
                data=False, replicates=replicates_help)
    p.add_argument("--bootstrap-only", action="store_true",
                   help="print only the bootstrap interval; no BHM")
    _add_mcmc_args(p)

    return parser, subs


def _parse_args(argv, parser: _Parser, subs: dict[str, _Parser]):
    """Parse ``argv``.  A --config JSON file sets the chosen subcommand's
    defaults, and ``argv`` is parsed again so that its flags override them."""
    args = parser.parse_args(argv)
    path = getattr(args, "config", None)
    if path is None:
        return args
    try:
        loaded = json.loads(Path(path).read_text())
    except OSError as exc:
        raise _UsageError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _UsageError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise _UsageError(f"config {path} must be a JSON object")
    target = subs[args.command]
    # Keys are long option names without "--"; "_" may stand for "-".
    actions = {option[2:]: action for action in target._actions
               for option in action.option_strings if option.startswith("--")}
    defaults = {}
    for key, value in loaded.items():
        action = actions.get(key.replace("_", "-"))
        if action is None:
            target.error(f"config {path}: unknown option {key!r}")
        if action.dest in ("config", "help"):  # a default of either does nothing
            target.error(f"config {path}: option {key!r} cannot be set in a config file")
        # argparse checks only what it parses: a flag takes a JSON boolean,
        # and any other value goes through str and its option's type and choices.
        try:
            if action.nargs != 0:
                value = target._get_value(action, str(value))
                target._check_value(action, value)
            elif not isinstance(value, bool):
                raise argparse.ArgumentError(action, f"needs true or false, got {value!r}")
        except argparse.ArgumentError as exc:
            target.error(f"config {path}: {exc}")
        defaults[action.dest] = value
    target.set_defaults(**defaults)
    return parser.parse_args(argv)


# ------------------------------------------------------------------ helpers


def _load_table(args) -> EvalTable:
    if args.eval_path or args.task_path:
        if not (args.eval_path and args.task_path):
            raise _UsageError("--eval and --tasks must be given together")
        return load_eval_table(args.eval_path, args.task_path,
                               format=args.input_format)
    return load_vtab()


def _emit_tables(args, stem: str, rows, columns, *,
                 scale: float = 100.0, label: str = "Model") -> list[Path]:
    """Write one interval table as markdown and CSV, as ``args.formats`` selects.

    ``rows`` is a list of (name, {column: IntervalEstimate}) pairs.
    """
    columns = list(columns)
    written = []
    if "markdown" in args.formats:
        headers, body = rpt.interval_table(rows, columns, scale=scale, label=label)
        written.append(rpt.write_text(args.out_dir / f"{stem}.md",
                                      rpt.markdown_table(headers, body)))
    if "csv" in args.formats:
        headers, body = rpt.interval_csv_rows(rows, columns, label=label.lower())
        written.append(rpt.write_text(args.out_dir / f"{stem}.csv",
                                      rpt.csv_table(headers, body)))
    return written


def _finish(args, written: list[Path], doc_name: str, payload: dict) -> int:
    if "json" in args.formats:
        written.append(
            rpt.write_text(args.out_dir / doc_name, rpt.json_document(payload))
        )
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def _bootstrap_column(store, args, normalizer=None) -> dict:
    """Each model's bootstrap interval of its mean accuracy, normalized
    against ``normalizer`` when given."""
    return {m: aggregate_interval(store, m, normalizer=normalizer, level=args.level)
            for m in store.source.models}


def _bhm_column(table: EvalTable, args) -> tuple[dict, dict]:
    """Each model's BHM credible interval of its mean accuracy, and the fit's
    per-model diagnostics."""
    draws = fit_bhm(table, priors=PriorSpec.exponential(args.prior_rate),
                    config=McmcConfig(args.iterations, args.burn_in, args.thinning,
                                      args.chains, args.seed))
    column = {m: credible_interval(draws, m, level=args.level) for m in table.models}
    return column, draws.diagnostics


def _interval_rows(names, columns_by_label):
    """Pair each row name with its {column label: estimate} mapping."""
    return [
        (m, {label: column[m] for label, column in columns_by_label.items()
             if m in column})
        for m in names
    ]


def _columns_payload(columns_by_label) -> dict:
    """JSON form of {column label: {row name: estimate}}."""
    return {
        label: {name: rpt.interval_dict(est) for name, est in column.items()}
        for label, column in columns_by_label.items()
    }


def _leaderboard(args, stem: str, columns) -> tuple[list[str], list[Path]]:
    """Write interval ``columns`` as a table, best first by the first column's
    points and ties in table order; return that order and the files written."""
    first = next(iter(columns.values()))
    order = sorted(first, key=lambda m: -first[m].point)
    return order, _emit_tables(args, stem, _interval_rows(order, columns), columns)


def _rank_table_files(args, sections):
    written = []
    for section, by_scheme in sections.items():
        columns = list(by_scheme)  # rank_tables keeps the schemes' order
        rows = [(first.model, {c: by_scheme[c][i].interval for c in columns})
                for i, first in enumerate(by_scheme[columns[0]])]
        written += _emit_tables(args, f"ranks_{section}", rows, columns, scale=1.0)
    return written


def _rank_payload(sections, level):
    payload = {}
    for section, by_scheme in sections.items():
        payload[section] = {
            scheme: [
                {"model": s.model, "interval": rpt.interval_dict(s.interval)}
                for s in summaries
            ]
            for scheme, summaries in by_scheme.items()
        }
    payload["level"] = level
    return payload


# ------------------------------------------------------------- subcommands


def cmd_ingest(args) -> int:
    table = _load_table(args)
    sizes = table.sizes
    print(
        f"{len(table.models)} models x {len(table.tasks)} tasks; "
        f"test sizes {int(sizes.min())}-{int(sizes.max())}; "
        f"categories: {', '.join(table.categories)}"
    )
    published = None
    if args.published:
        published = published_means_from_csv(args.published)
    elif not args.eval_path:
        published = vtab_published_means()
    if published is None:
        print("no published means supplied; consistency check skipped")
        return EXIT_OK
    report = validate_consistency(table, published, tolerance=args.tolerance)
    print(report.format())
    if not report.passed:
        raise ValidationError(
            f"published-mean check failed: max gap {report.max_gap():.3f} "
            f"exceeds {args.tolerance}"
        )
    print(f"consistency PASS (max gap {report.max_gap():.3f} "
          f"<= {args.tolerance} percentage points)")
    return EXIT_OK


def cmd_bootstrap(args) -> int:
    table = _load_table(args)
    store = run_bootstrap(table, B=args.replicates, seed=args.seed)
    columns = {"Avg Acc (bootstrap)": _bootstrap_column(store, args)}
    if args.normalized:
        columns["Avg Norm Acc (bootstrap)"] = _bootstrap_column(
            store, args, estimate_bounds(store))
    _, written = _leaderboard(args, "leaderboard_bootstrap", columns)
    payload = {
        "command": "bootstrap",
        "seed": args.seed,
        "replicates": args.replicates,
        "level": args.level,
        "leaderboard": _columns_payload(columns),
    }
    return _finish(args, written, "bootstrap.json", payload)


def cmd_bhm(args) -> int:
    table = _load_table(args)
    column, diagnostics = _bhm_column(table, args)
    _, written = _leaderboard(args, "leaderboard_bhm", {"Avg Acc (BHM)": column})
    diag_rows = [
        (m, repr(diagnostics[m]["rhat"]), repr(diagnostics[m]["ess"]))
        for m in table.models
    ]
    if "csv" in args.formats:
        written.append(rpt.write_text(
            args.out_dir / "bhm_diagnostics.csv",
            rpt.csv_table(("model", "rhat", "ess"), diag_rows),
        ))
    payload = {
        "command": "bhm",
        "seed": args.seed,
        "level": args.level,
        "mcmc": {
            "iterations": args.iterations,
            "burn_in": args.burn_in,
            "thinning": args.thinning,
            "chains": args.chains,
            "prior_rate": args.prior_rate,
        },
        "leaderboard": {m: rpt.interval_dict(est) for m, est in column.items()},
        "diagnostics": diagnostics,
    }
    return _finish(args, written, "bhm.json", payload)


def cmd_ranks(args) -> int:
    store = run_bootstrap(_load_table(args), B=args.replicates, seed=args.seed)
    bounds = estimate_bounds(store) if args.normalized else None
    schemes = ALL_SCHEMES if args.scheme is None else (RankScheme(args.scheme),)
    sections = rank_tables(store, schemes, args.level, normalizer=bounds)
    written = _rank_table_files(args, sections)
    payload = {
        "command": "ranks",
        "seed": args.seed,
        "replicates": args.replicates,
        "ranks": _rank_payload(sections, args.level),
    }
    return _finish(args, written, "ranks.json", payload)


def cmd_simplex(args) -> int:
    table = _load_table(args)
    if (args.z is None) != (args.rho is None):
        raise _UsageError("--z and --rho must be given together")
    settings = SIMPLEX_SETTINGS if args.z is None else ((args.z, args.rho),)
    categories = table.categories
    variants = [("simplex", None)]
    if args.normalized:
        # Only the bounds are kept: the store is freed before the scans.
        variants.append(("simplex_normalized", estimate_bounds(
            run_bootstrap(table, B=args.replicates, seed=args.seed))))
    written = []
    fields = []
    for stem, bounds in variants:
        for z, rho in settings:
            field = simplex_scan(table, categories, grid_step=args.grid_step,
                                 z=z, rho=rho, normalizer=bounds)
            fields.append((stem, field))
            name = f"{stem}_{z:g}_{rho:g}"
            if "csv" in args.formats:
                written.append(rpt.write_text(args.out_dir / f"{name}.csv",
                                              rpt.simplex_csv(field)))
            svg = render_ternary(field)
            written.append(rpt.write_text(args.out_dir / f"{name}.svg", svg))
    payload = {
        "command": "simplex",
        "grid_step": args.grid_step,
        "settings": [{"z": z, "rho": rho} for z, rho in settings],
        "fields": [
            {
                "variant": stem,
                "z": field.z,
                "rho": field.rho,
                "categories": list(field.categories),
                "winners": list(field.winners()),
                "indeterminate_cells": sum(
                    1 for c in field.cells if c.winner == INDETERMINATE
                ),
            }
            for stem, field in fields
        ],
    }
    return _finish(args, written, "simplex.json", payload)


def cmd_report(args) -> int:
    table = _load_table(args)
    store = run_bootstrap(table, B=args.replicates, seed=args.seed)
    bounds = estimate_bounds(store)

    columns = {"Avg Acc (bootstrap)": _bootstrap_column(store, args)}
    bhm_diag = None
    if not args.no_bhm:
        columns["Avg Acc (BHM)"], bhm_diag = _bhm_column(table, args)
    columns["Avg Norm Acc (bootstrap)"] = _bootstrap_column(store, args, bounds)
    order, written = _leaderboard(args, "leaderboard", columns)

    top = order[:PAIRWISE_TOP]
    pair_columns = {}
    if len(top) >= 2:  # a lone model has no pairs to compare
        pair_columns = {
            label: {f"{a} - {b}": est for (a, b), est in intervals}
            for label, intervals in (
                ("Diff (bootstrap)", pairwise_difference_intervals(store, top)),
                ("Diff (normalized)",
                 pairwise_difference_intervals(store, top, normalizer=bounds)),
            )
        }
        pair_rows = _interval_rows(list(pair_columns["Diff (bootstrap)"]),
                                   pair_columns)
        written += _emit_tables(args, "pairwise", pair_rows, pair_columns, label="Pair")

    sections = rank_tables(store, ALL_SCHEMES, args.rank_level, normalizer=bounds)
    written += _rank_table_files(args, sections)

    payload = {
        "command": "report",
        "seed": args.seed,
        "replicates": args.replicates,
        "level": args.level,
        "rank_level": args.rank_level,
        "leaderboard": _columns_payload(columns),
        "pairwise": _columns_payload(pair_columns),
        "ranks": _rank_payload(sections, args.rank_level),
    }
    if bhm_diag is not None:
        payload["bhm_diagnostics"] = bhm_diag
    return _finish(args, written, "report.json", payload)


def simulation_study_table() -> EvalTable:
    """Two models, three tasks; model B is better where N is informative."""
    tasks = (
        TaskSpec("task-1", "synthetic", 200),
        TaskSpec("task-2", "synthetic", 10_000),
        TaskSpec("task-3", "synthetic", 20_000),
    )
    counts = np.array([[100, 5_000, 10_000], [115, 5_000, 10_000]])
    return EvalTable(models=("A", "B"), tasks=tasks, counts=counts)


# Truncated-normal hyperpriors centered so the hierarchy believes both
# models are near 50% but B slightly better (2100 vs 2000 pseudo-successes).
SIMSTUDY_PRIORS = {
    "A": (PriorSpec.truncated_normal(2000.0, 10.0),
          PriorSpec.truncated_normal(2000.0, 10.0)),
    "B": (PriorSpec.truncated_normal(2100.0, 10.0),
          PriorSpec.truncated_normal(1900.0, 10.0)),
}

SIMSTUDY_TARGET = (-0.021, -0.003)
SIMSTUDY_TOLERANCE = 0.005


def cmd_simstudy(args) -> int:
    table = simulation_study_table()
    lines = []
    checks = []

    def say(text):
        lines.append(text)
        print(text)

    def check(label, ok):
        checks.append((label, bool(ok)))
        say(f"[{'PASS' if ok else 'FAIL'}] {label}")

    store = run_bootstrap(table, B=args.replicates, seed=args.seed)
    ((_, boot),) = pairwise_difference_intervals(store, ["A", "B"], level=0.95)
    say(f"bootstrap 95% interval for the A-B accuracy difference: "
        f"{rpt.format_interval(boot, digits=3)}")
    check("bootstrap interval contains 0", boot.lower <= 0.0 <= boot.upper)

    payload = {
        "command": "simstudy",
        "seed": args.seed,
        "replicates": args.replicates,
        "bootstrap": rpt.interval_dict(boot),
    }
    if not args.bootstrap_only:
        draws = fit_bhm(table, priors=SIMSTUDY_PRIORS,
                        config=McmcConfig(args.iterations, args.burn_in, args.thinning,
                                          args.chains, args.seed))
        a_minus_b = credible_interval(draws, "A", other="B", level=0.95)
        say(f"BHM 95% credible interval for the A-B theta difference: "
            f"{rpt.format_interval(a_minus_b, digits=3)}")
        check("BHM interval is strictly negative (B better)",
              a_minus_b.upper < 0.0)
        lo, hi = SIMSTUDY_TARGET
        check(
            f"BHM endpoints within {SIMSTUDY_TOLERANCE} of ({lo}, {hi})",
            abs(a_minus_b.lower - lo) <= SIMSTUDY_TOLERANCE
            and abs(a_minus_b.upper - hi) <= SIMSTUDY_TOLERANCE,
        )
        payload["bhm"] = rpt.interval_dict(a_minus_b)
        payload["diagnostics"] = draws.diagnostics
    payload["checks"] = [{"label": label, "passed": ok} for label, ok in checks]

    written = []
    if "markdown" in args.formats or "csv" in args.formats:
        written.append(rpt.write_text(args.out_dir / "simstudy.txt",
                                      "\n".join(lines) + "\n"))
    code = _finish(args, written, "simstudy.json", payload)
    if any(not ok for _, ok in checks):
        return EXIT_COMPUTE
    return code


# ------------------------------------------------------------------- driver


def main(argv=None) -> int:
    parser, subs = build_parser()
    try:
        try:
            args = _parse_args(argv, parser, subs)
        except SystemExit as exc:  # argparse already printed its message
            return int(exc.code or 0)
        if getattr(args, "command", None) is None:
            parser.print_usage(sys.stderr)
            print(f"{parser.prog}: error: a command is required", file=sys.stderr)
            return EXIT_USAGE
        with warnings.catch_warnings():
            if getattr(args, "strict", False):
                warnings.simplefilter("error", ConvergenceWarning)
            # A warning names the input's problem; the benchuq source line
            # that raised it means nothing to a CLI user.
            formatwarning = warnings.formatwarning
            warnings.formatwarning = (
                lambda message, *_: f"{parser.prog}: warning: {message}\n")
            try:
                return args.func(args)
            finally:
                warnings.formatwarning = formatwarning
    except _UsageError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValidationError as exc:
        print(f"{parser.prog}: invalid input: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ConvergenceWarning as exc:
        print(f"{parser.prog}: convergence failure: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except BenchuqError as exc:
        print(f"{parser.prog}: computation failed: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    raise SystemExit(main())
