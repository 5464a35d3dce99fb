"""Bundled benchmark fixture: integrity, provenance, and published means."""

import numpy as np
import pytest

from benchuq.core import accuracy_of, validate_consistency
from benchuq.fixtures import (
    VTAB_CATEGORIES,
    _data_dir,
    load_vtab,
    vtab_published_means,
)


@pytest.fixture(scope="module")
def table():
    return load_vtab()


def test_shape_and_identity(table):
    assert len(table.models) == 16
    assert len(table.tasks) == 19
    assert table.models[0] == "Sup-Rotation-100%"
    assert table.models[1] == "Sup-Exemplar-100%"
    assert table.models[5] == "Rotation"
    assert {t.category for t in table.tasks} == set(VTAB_CATEGORIES)
    sizes = [t.test_size for t in table.tasks]
    assert min(sizes) == 711 and max(sizes) == 73728


def test_category_task_counts(table):
    by_cat = {c: 0 for c in VTAB_CATEGORIES}
    for t in table.tasks:
        by_cat[t.category] += 1
    assert by_cat == {"natural": 7, "specialized": 4, "structured": 8}


def test_consistency_against_published_means(table):
    # 0.1 percentage points absorbs the rounding chain from two-decimal
    # stored accuracies through count recovery at the smallest test set
    # (N = 711); `ingest` checks at the same default tolerance.
    report = validate_consistency(table, vtab_published_means(), 0.1)
    assert report.passed, report.format()
    assert report.max_gap() <= 0.1


def test_published_means_table():
    pub = vtab_published_means()
    assert len(pub) == 16
    sr = pub["Sup-Rotation-100%"]
    assert sr["natural"] == 73.6
    assert sr["specialized"] == 83.1
    assert sr["structured"] == 55.5
    assert sr["overall"] == 68.0


def test_rotation_leads_structured_category(table):
    acc = accuracy_of(table).values * 100.0
    idx = [j for j, t in enumerate(table.tasks) if t.category == "structured"]
    means = acc[:, idx].mean(axis=1)
    best = int(np.argmax(means))
    assert table.models[best] == "Rotation"
    assert means[best] == pytest.approx(57.3, abs=0.05)


def test_data_files_document_provenance():
    # The accuracy file must say its per-task values are synthetic.
    with (_data_dir() / "vtab_accuracy.csv").open() as fh:
        head = fh.readline()
    assert head.startswith("#")
    assert "synthetic" in head.lower() or "calibrat" in head.lower()
