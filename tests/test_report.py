"""Formatting layer: tables, JSON documents, file writing."""

import json

import numpy as np
import pytest

from benchuq.bootstrap import IntervalEstimate
from benchuq.core import EvalTable, TaskSpec
from benchuq.report import (
    REPORT_FORMATS,
    csv_table,
    format_interval,
    interval_csv_rows,
    interval_dict,
    interval_table,
    json_document,
    markdown_table,
    simplex_csv,
    write_text,
)
from benchuq.weighting import simplex_scan


def est(point, lower, upper, level=0.834):
    return IntervalEstimate(point=point, lower=lower, upper=upper,
                            level=level, method="bootstrap-percentile")


def test_report_formats_registry():
    assert REPORT_FORMATS == ("markdown", "csv", "json")


def test_format_interval_scales_and_rounds():
    e = est(0.68012, 0.67779, 0.68141)
    assert format_interval(e, scale=100.0) == "68.0 (67.8, 68.1)"
    assert format_interval(e, scale=100.0, digits=2) == "68.01 (67.78, 68.14)"


def test_format_interval_default_scale_is_identity():
    e = est(3.8, 3.6, 4.0)
    assert format_interval(e) == "3.8 (3.6, 4.0)"


def test_markdown_table_layout():
    text = markdown_table(["Model", "Score"], [["a", "1"], ["b", "2"]])
    lines = text.splitlines()
    assert lines[0] == "| Model | Score |"
    assert lines[1] == "| --- | --- |"
    assert lines[2] == "| a | 1 |"
    assert text.endswith("\n")


def test_markdown_table_rejects_ragged_rows():
    with pytest.raises(ValueError):
        markdown_table(["a", "b"], [["only-one"]])


def test_csv_table_uses_lf_and_quotes_when_needed():
    text = csv_table(["model", "note"], [["a", 'has "quote"'], ["b", "x,y"]])
    assert "\r" not in text
    rows = text.splitlines()
    assert rows[0] == "model,note"
    assert rows[1] == 'a,"has ""quote"""'
    assert rows[2] == 'b,"x,y"'


def test_interval_dict_round_trips_fields():
    e = est(0.5, 0.4, 0.6)
    d = interval_dict(e)
    assert d == {"point": 0.5, "lower": 0.4, "upper": 0.6,
                 "level": 0.834, "method": "bootstrap-percentile"}


def test_json_document_is_sorted_and_newline_terminated():
    doc = json_document({"b": 1, "a": {"z": 2, "y": 3}})
    assert doc.endswith("\n")
    assert doc.index('"a"') < doc.index('"b"')
    assert json.loads(doc) == {"b": 1, "a": {"z": 2, "y": 3}}


def test_json_document_rejects_nan():
    with pytest.raises(ValueError):
        json_document({"x": float("nan")})


def test_interval_table_fills_missing_with_dash():
    rows = [("a", {"Accuracy": est(0.68, 0.67, 0.69)}), ("b", {})]
    headers, body = interval_table(rows, ["Accuracy"], scale=100.0)
    assert headers == ["Model", "Accuracy"]
    assert body[0] == ["a", "68.0 (67.0, 69.0)"]
    assert body[1] == ["b", "—"]


def test_interval_csv_rows_are_full_precision():
    e = est(0.6801234567, 0.67, 0.69)
    headers, body = interval_csv_rows([("a", {"Accuracy": e})], ["Accuracy"])
    assert headers == ["model", "accuracy_lower", "accuracy_point", "accuracy_upper"]
    assert body[0][2] == repr(0.6801234567)  # no rounding on the numeric form


def test_write_text_creates_parents_and_lf(tmp_path):
    target = tmp_path / "nested" / "out.txt"
    write_text(target, "line1\nline2\n")
    raw = target.read_bytes()
    assert raw == b"line1\nline2\n"


def test_simplex_csv_shape(tmp_path):
    # One specialist per category; a 0.5 grid step has 6 cells.
    categories = ("natural", "specialized", "structured")
    tasks = tuple(TaskSpec(f"t{j}", c, 1000) for j, c in enumerate(categories))
    table = EvalTable(models=("nat-pro", "spec-pro", "str-pro"), tasks=tasks,
                      counts=900 * np.eye(3, dtype=int) + 100 * (1 - np.eye(3, dtype=int)))
    field = simplex_scan(table, categories, grid_step=0.5)
    text = simplex_csv(field)
    lines = text.strip().split("\n")
    assert lines[0] == "w_nat,w_sp,w_str,winner,margin_se"
    assert len(lines) == 1 + 6
    assert lines[1] == "0,0,1,str-pro,59.6285"  # weights and margin at 6 digits
    assert lines[2] == "0,0.5,0.5,INDETERMINATE,0"
    write_text(tmp_path / "field.csv", text)
    assert (tmp_path / "field.csv").read_text() == text
