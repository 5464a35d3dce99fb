"""Seeded generator of the ``screen-wide`` evaluation table.

The table has 64 models and 57 tasks, 19 tasks in each of the three VTAB
categories (natural, specialized, structured).  Each task's test size is
drawn from the 19 VTAB test sizes.  Accuracies follow a logistic
ability-minus-difficulty model and every count is clipped so that its
accuracy stays inside [1%, 99%]: no task is saturated (no task has every
model at 100%) and no cell is zero.

    python3 perfbench/gen.py --seed 3 --out-dir /tmp/screen

writes ``counts.csv`` (``model,task,correct``) and ``tasks.csv``
(``task,category,test_size``).  The same seed gives byte-identical files.
"""

from __future__ import annotations

import argparse
import math
from pathlib import Path

import numpy as np

N_MODELS = 64
TASKS_PER_CATEGORY = 19
CATEGORIES = ("natural", "specialized", "structured")
VTAB_SIZES = (6084, 10000, 1880, 6149, 3669, 21750, 26032, 32768, 5400, 6300,
              42670, 15000, 15000, 22735, 73728, 73728, 711, 12150, 12150)
ACC_LOW, ACC_HIGH = 0.01, 0.99

# The generator's stream is keyed on this constant and the workload seed, so
# it does not overlap the program's own streams.
_STREAM_KEY = 0x5C5EE


def generate(seed: int):
    """Return (models, tasks, counts) for one seed.

    ``tasks`` is a list of (task, category, test_size) and ``counts`` a
    models x tasks int64 array.
    """
    gen = np.random.default_rng([_STREAM_KEY, int(seed)])
    n_tasks = TASKS_PER_CATEGORY * len(CATEGORIES)
    sizes = gen.choice(np.array(VTAB_SIZES, dtype=np.int64), size=n_tasks)
    tasks = [
        (f"{cat}-{k:02d}", cat, int(sizes[c * TASKS_PER_CATEGORY + k]))
        for c, cat in enumerate(CATEGORIES)
        for k in range(TASKS_PER_CATEGORY)
    ]
    ability = gen.normal(0.0, 1.0, size=N_MODELS)
    # Models differ in which category they are good at, so the simplex maps
    # have more than one winner.
    category_skill = gen.normal(0.0, 0.35, size=(N_MODELS, len(CATEGORIES)))
    difficulty = gen.normal(-0.6, 1.0, size=n_tasks)
    cat_of_task = np.repeat(np.arange(len(CATEGORIES)), TASKS_PER_CATEGORY)
    logit = (ability[:, None] + category_skill[:, cat_of_task] - difficulty[None, :]
             + gen.normal(0.0, 0.3, size=(N_MODELS, n_tasks)))
    p = np.clip(1.0 / (1.0 + np.exp(-logit)), ACC_LOW, ACC_HIGH)
    counts = gen.binomial(sizes[None, :], p)
    low = np.array([math.ceil(ACC_LOW * n) for n in sizes])
    high = np.array([math.floor(ACC_HIGH * n) for n in sizes])
    counts = np.clip(counts, low[None, :], high[None, :]).astype(np.int64)
    models = [f"model-{i:02d}" for i in range(N_MODELS)]
    return models, tasks, counts


def write_table(seed: int, out_dir) -> tuple[Path, Path]:
    """Write counts.csv and tasks.csv for ``seed``; return their paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    models, tasks, counts = generate(seed)
    task_path = out_dir / "tasks.csv"
    count_path = out_dir / "counts.csv"
    task_lines = ["task,category,test_size"]
    task_lines += [f"{t},{c},{n}" for t, c, n in tasks]
    task_path.write_text("\n".join(task_lines) + "\n")
    count_lines = ["model,task,correct"]
    for i, model in enumerate(models):
        count_lines += [f"{model},{t},{counts[i, j]}" for j, (t, _, _) in enumerate(tasks)]
    count_path.write_text("\n".join(count_lines) + "\n")
    return count_path, task_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)
    for path in write_table(args.seed, args.out_dir):
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
