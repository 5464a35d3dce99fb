#!/usr/bin/env python3
"""Hash the output trees of a fixed list of ``benchuq`` commands.

Usage (from the repository root):

    python3 tools/output_digest.py --src src
    python3 tools/output_digest.py --src /path/to/other/checkout/src

Each command runs as ``python -m benchuq.cli`` with ``PYTHONPATH=<--src>``,
``--seed 0`` and its own ``--out-dir`` inside a fresh temporary directory.
The wide table comes from ``perfbench/gen.py --seed 1`` next to this script.
The script prints one ``sha256  command/relative/path`` line per output file,
sorted, and then the sha256 of that listing.  Two checkouts whose listings
hash the same wrote byte-identical output trees.  It exits 1 if any command
exits nonzero.  Each command's peak resident set size (``ru_maxrss`` from
``os.wait4``, read as KiB as Linux reports it) and wall time go to standard
error, so standard output stays the listing alone.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIDE = "{wide}"  # replaced by the generated table's directory

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
        out_root = tmp / "out"
        for name, command in COMMANDS:
            argv_ = command.replace(WIDE, str(wide)).split()
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
