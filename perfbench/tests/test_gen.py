"""The screen-wide input generator."""

import math

import numpy as np

import gen
from benchuq.core import load_eval_table


def test_same_seed_gives_byte_identical_files(tmp_path):
    first = gen.write_table(7, tmp_path / "a")
    second = gen.write_table(7, tmp_path / "b")
    for p, q in zip(first, second):
        assert p.read_bytes() == q.read_bytes()
    other = gen.write_table(8, tmp_path / "c")
    assert other[0].read_bytes() != first[0].read_bytes()


def test_no_task_saturated_and_no_cell_zero():
    for seed in range(10):
        _, tasks, counts = gen.generate(seed)
        sizes = np.array([n for _, _, n in tasks])
        assert not np.any((counts == sizes[None, :]).all(axis=0))
        assert counts.min() > 0
        low = np.array([math.ceil(0.01 * n) for n in sizes])
        high = np.array([math.floor(0.99 * n) for n in sizes])
        assert np.all((counts >= low) & (counts <= high))


def test_table_shape_and_sizes():
    models, tasks, counts = gen.generate(0)
    assert counts.shape == (64, 57)
    assert len(set(models)) == 64
    for category in gen.CATEGORIES:
        assert sum(c == category for _, c, _ in tasks) == 19
    assert {n for _, _, n in tasks} <= set(gen.VTAB_SIZES)


def test_program_loads_the_files(tmp_path):
    counts_csv, tasks_csv = gen.write_table(3, tmp_path)
    table = load_eval_table(counts_csv, tasks_csv)
    _, _, counts = gen.generate(3)
    assert np.array_equal(table.counts, counts)
    assert table.categories == gen.CATEGORIES
