"""tools/bench_record.py: medians and paired wins from two sets of runs."""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def _write(path, rows):
    with open(path, "w", encoding="utf-8") as handle:
        for workload, seed, total, rss in rows:
            result = {"correct": True, "attempted": 10, "failed": 0,
                      "metrics": {"total_s": {"value": total, "unit": "s"},
                                  "peak_rss_mb": {"value": rss, "unit": "MB"}}}
            handle.write(json.dumps({"workload": workload, "seed": seed, "result": result}) + "\n")


def test_record_keeps_medians_and_paired_wins(tmp_path):
    _write(tmp_path / "a.jsonl", [("covers", 1, 2.0, 19.0), ("covers", 2, 1.8, 19.0),
                                  ("covers", 3, 1.9, 19.0), ("chartable", 1, 0.5, 24.0)])
    _write(tmp_path / "b.jsonl", [("covers", 1, 1.7, 19.0), ("covers", 2, 1.9, 18.0),
                                  ("covers", 3, 1.6, 19.5)])
    out = tmp_path / "BENCH_7.json"
    assert bench_record.main(["--pr", "7", "--parent", str(tmp_path / "a.jsonl"),
                              "--change", str(tmp_path / "b.jsonl"), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["pr"] == 7 and list(doc["workloads"]) == ["covers"]
    covers = doc["workloads"]["covers"]
    assert covers["seeds"] == {"parent": [1, 2, 3], "change": [1, 2, 3]}
    assert covers["correct"] and covers["failed"] == {"parent": 0, "change": 0}
    total = covers["metrics"]["total_s"]
    assert total["parent"]["median"] == 1.9 and total["change"]["median"] == 1.7
    assert total["better"] == "lower" and total["change_better_in_pairs"] == "2/3"
    assert covers["metrics"]["peak_rss_mb"]["change_better_in_pairs"] == "1/3"


def test_no_common_workload_is_an_error(tmp_path):
    _write(tmp_path / "a.jsonl", [("covers", 1, 2.0, 19.0)])
    _write(tmp_path / "b.jsonl", [("chartable", 1, 0.5, 24.0)])
    assert bench_record.main(["--pr", "7", "--parent", str(tmp_path / "a.jsonl"),
                              "--change", str(tmp_path / "b.jsonl"),
                              "--out", str(tmp_path / "x.json")]) == 1
