"""JSONL campaign log store."""

import json

import numpy as np
import pytest

from repro.util.jsonlog import JsonlLog, dump_records, load_records, load_records_tolerant


def test_append_and_iterate(tmp_path):
    log = JsonlLog(tmp_path / "log.jsonl")
    log.append({"a": 1})
    log.append({"a": 2})
    assert [r["a"] for r in log] == [1, 2]
    assert len(log) == 2


def test_extend(tmp_path):
    log = JsonlLog(tmp_path / "log.jsonl")
    log.extend([{"x": i} for i in range(5)])
    assert len(log) == 5


def test_numpy_values_sanitised(tmp_path):
    log = JsonlLog(tmp_path / "log.jsonl")
    log.append(
        {
            "scalar": np.int64(7),
            "floaty": np.float32(1.5),
            "array": np.arange(3),
            "nested": {"v": np.float64(2.5), "list": [np.int32(1)]},
        }
    )
    record = next(iter(log))
    assert record["scalar"] == 7
    assert record["floaty"] == 1.5
    assert record["array"] == [0, 1, 2]
    assert record["nested"]["v"] == 2.5
    assert record["nested"]["list"] == [1]


def test_missing_file_iterates_empty(tmp_path):
    log = JsonlLog(tmp_path / "nope.jsonl")
    assert list(log) == []
    assert len(log) == 0


def test_dump_overwrites(tmp_path):
    path = tmp_path / "out.jsonl"
    dump_records(path, [{"v": 1}])
    dump_records(path, [{"v": 2}])
    assert load_records(path) == [{"v": 2}]


def test_load_skips_blank_lines(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"a": 1}\n\n{"a": 2}\n')
    assert len(load_records(path)) == 2


def test_creates_parent_dirs(tmp_path):
    log = JsonlLog(tmp_path / "deep" / "dir" / "log.jsonl")
    log.append({"ok": True})
    assert len(log) == 1


def test_records_durable_without_close(tmp_path):
    """Every append is flushed, so a second reader sees it immediately."""
    log = JsonlLog(tmp_path / "log.jsonl")
    log.append({"v": 1})
    assert load_records(tmp_path / "log.jsonl") == [{"v": 1}]  # handle still open
    log.close()


def test_context_manager_appends(tmp_path):
    with JsonlLog(tmp_path / "log.jsonl") as log:
        log.append({"v": 1})
    assert load_records(tmp_path / "log.jsonl") == [{"v": 1}]


def test_partial_trailing_line_skipped(tmp_path):
    """A writer killed mid-append must not poison later reads."""
    path = tmp_path / "log.jsonl"
    path.write_text('{"a": 1}\n{"a": 2}\n{"a": 3, "tru', encoding="utf-8")
    assert load_records(path) == [{"a": 1}, {"a": 2}]
    assert [r["a"] for r in JsonlLog(path)] == [1, 2]


def test_partial_trailing_line_strict_raises(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"a": 1}\n{"a": 2, "tru', encoding="utf-8")
    with pytest.raises(json.JSONDecodeError):
        load_records(path, strict=True)


def test_interior_corruption_still_raises(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"a": 1}\nnot json at all\n{"a": 3}\n', encoding="utf-8")
    with pytest.raises(json.JSONDecodeError):
        load_records(path)


def test_append_after_close_reopens(tmp_path):
    log = JsonlLog(tmp_path / "log.jsonl")
    log.append({"v": 1})
    log.close()
    log.append({"v": 2})
    log.close()
    assert len(log) == 2


def test_tolerant_reader_counts_corrupt_interior_lines(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text(
        '{"a": 1}\nnot json at all\n{"b": 2}\n[1, 2, 3]\n{"c": 3}\n',
        encoding="utf-8",
    )
    records, skipped = load_records_tolerant(path)
    assert records == [{"a": 1}, {"b": 2}, {"c": 3}]
    assert skipped == 2  # one unparseable line, one non-dict record


def test_tolerant_reader_counts_a_corrupt_last_line(tmp_path):
    """Unlike the strict reader, a damaged final line is counted, not
    dropped silently as a partial write."""
    path = tmp_path / "log.jsonl"
    path.write_text('{"a": 1}\n{"b": 2}\nalso not json\n', encoding="utf-8")
    assert load_records_tolerant(path) == ([{"a": 1}, {"b": 2}], 1)


def test_tolerant_reader_missing_file(tmp_path):
    assert load_records_tolerant(tmp_path / "absent.jsonl") == ([], 0)


def test_tolerant_reader_clean_file(tmp_path):
    path = tmp_path / "log.jsonl"
    with JsonlLog(path) as log:
        log.extend([{"i": i} for i in range(3)])
    records, skipped = load_records_tolerant(path)
    assert len(records) == 3 and skipped == 0
