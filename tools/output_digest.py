#!/usr/bin/env python3
"""Hash the output trees of a fixed list of ``benchuq`` commands.

Usage (from the repository root):

    python3 tools/output_digest.py --src src
    python3 tools/output_digest.py --src /path/to/other/checkout/src

Each command runs as ``python -m benchuq.cli`` with ``PYTHONPATH=<--src>``,
``--seed 0`` and its own ``--out-dir`` inside a fresh temporary directory.
The wide table comes from ``perfbench/gen.py --seed 1`` next to this script,
and the ``--config`` file of ``report-config`` is written beside it.
The script prints one ``sha256  command/relative/path`` line per output file,
sorted, and then the sha256 of that listing.  Two checkouts whose listings
hash the same wrote byte-identical output trees.  It exits 1 if any command
exits nonzero.  Each command's peak resident set size (``ru_maxrss`` from
``os.wait4``, read as KiB as Linux reports it), minor page faults
(``ru_minflt``), CPU time (``ru_utime + ru_stime``) and wall time go to
standard error, so standard output stays the listing alone.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIDE = "{wide}"  # replaced by the generated table's directory
CONFIG = "{config}"  # replaced by the path of CONFIG_JSON, written per run
# Options that ``report-config`` takes from its --config file, not its argv.
CONFIG_JSON = {"no-bhm": True, "replicates": 500, "rank-level": 0.9}

# (output directory name, arguments after ``benchuq``)
COMMANDS = (
    ("report", "report --replicates 1000 --iterations 600 --burn-in 100 --thinning 1"),
    ("bootstrap", "bootstrap --normalized --replicates 2000"),
    ("ranks", "ranks --normalized --replicates 1000"),
    ("bhm", "bhm --iterations 600 --burn-in 100 --thinning 1"),
    ("simplex-001", "simplex --normalized --replicates 1000 --grid-step 0.01"),
    ("simplex-005", "simplex --normalized --replicates 1000 --grid-step 0.05"),
    ("simstudy", "simstudy --iterations 1500 --burn-in 300 --thinning 3"),
    ("wide-report", f"report --no-bhm --replicates 1000 "
                    f"--eval {WIDE}/counts.csv --tasks {WIDE}/tasks.csv"),
    ("wide-simplex", f"simplex --normalized --replicates 1000 --grid-step 0.01 "
                     f"--eval {WIDE}/counts.csv --tasks {WIDE}/tasks.csv"),
    # The default 2,000 draws per chain span several theta chunks.
    ("wide-bhm", f"bhm --eval {WIDE}/counts.csv --tasks {WIDE}/tasks.csv"),
    ("bootstrap-raw", "bootstrap --replicates 1000"),
    ("ranks-noise", "ranks --scheme average-rank-noise --replicates 1000"),
    ("simplex-setting", "simplex --z 1.5 --rho 0.25"),
    ("simstudy-bootstrap", "simstudy --bootstrap-only"),
    ("report-markdown", "report --no-bhm --replicates 1000 --formats markdown"),
    ("report-config", f"report --config {CONFIG}"),
)


def listing(out_root: Path) -> str:
    """Sorted ``sha256  relative/path`` lines for every file under out_root."""
    lines = [
        f"{hashlib.sha256(path.read_bytes()).hexdigest()}  "
        f"{path.relative_to(out_root).as_posix()}"
        for path in out_root.rglob("*") if path.is_file()
    ]
    return "".join(line + "\n" for line in sorted(lines))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True,
                        help="directory holding the benchuq package to run")
    args = parser.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=str(Path(args.src).resolve()),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    failed = []
    with tempfile.TemporaryDirectory(prefix="benchuq-digest-") as tmp:
        tmp = Path(tmp)
        wide = tmp / "wide"
        subprocess.run([sys.executable, str(ROOT / "perfbench" / "gen.py"),
                        "--seed", "1", "--out-dir", str(wide)],
                       check=True, stdout=subprocess.DEVNULL)
        config = tmp / "config.json"
        config.write_text(json.dumps(CONFIG_JSON))
        out_root = tmp / "out"
        for name, command in COMMANDS:
            argv_ = command.replace(WIDE, str(wide)).replace(CONFIG, str(config)).split()
            start = time.perf_counter()
            with subprocess.Popen(
                [sys.executable, "-m", "benchuq.cli", *argv_, "--seed", "0",
                 "--out-dir", str(out_root / name)],
                env=env, cwd=tmp, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True,
            ) as proc:
                stderr = proc.stderr.read()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            print(f"{name}: peak RSS {usage.ru_maxrss / 1024:.1f} MiB, "
                  f"{usage.ru_minflt} minor faults, "
                  f"CPU {usage.ru_utime + usage.ru_stime:.2f} s, "
                  f"wall {time.perf_counter() - start:.2f} s", file=sys.stderr)
            if proc.returncode != 0:
                failed.append(name)
                print(f"{name}: exit {proc.returncode}\n{stderr}", file=sys.stderr)
        text = listing(out_root)
    sys.stdout.write(text)
    print(f"{text.count(chr(10))} files, listing sha256 "
          f"{hashlib.sha256(text.encode()).hexdigest()}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
