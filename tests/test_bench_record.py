"""tools/bench_record.py: the pair summary, on hand-written records."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_record  # noqa: E402


def _rec(label, workload, seed, rate, p50, families=None):
    metrics = {"rate_per_s": {"value": rate, "unit": "1/s"},
               "op_ms_p50": {"value": p50, "unit": "ms"}}
    result = json.dumps({"correct": True, "attempted": 10, "failed": 0, "metrics": metrics})
    return {"label": label, "commit": "abc", "workload": workload, "seed": seed,
            "result": result, "families": families or {}, "src_lines": 100,
            "python": "3.11.7", "cpu_count": 2}


FIXTURE = [
    _rec("parent", "laws", 1, 100.0, 2.0), _rec("change", "laws", 1, 210.0, 1.0),
    _rec("change", "laws", 2, 190.0, 1.1), _rec("parent", "laws", 2, 110.0, 2.2),
    _rec("parent", "laws", 3, 90.0, 1.9), _rec("change", "laws", 3, 80.0, 2.5),
    _rec("parent", "certify", 7, 50.0, 3.0, {"egcd_per_s": 10.0}),
    _rec("change", "certify", 7, 55.0, 3.0, {"egcd_per_s": 12.0}),
]


def _row(rows, workload, metric):
    (row,) = [r for r in rows if r["workload"] == workload and r["metric"] == metric]
    return row


def test_summary_reports_medians_quartiles_ratio_and_wins():
    rows = bench_record.summarize(FIXTURE)
    rate = _row(rows, "laws", "rate_per_s")
    assert list(rate["labels"]) == ["parent", "change"]
    assert rate["labels"]["parent"] == (100.0, 95.0, 105.0, 3)
    assert rate["labels"]["change"] == (190.0, 135.0, 200.0, 3)
    assert rate["ratio"] == 1.9
    assert (rate["wins"], rate["pairs"]) == (2, 3)
    # lower is better for every metric but a rate; a tie is no win
    p50 = _row(rows, "laws", "op_ms_p50")
    assert p50["labels"]["change"][0] == 1.1
    assert (p50["wins"], p50["pairs"]) == (2, 3)
    assert (_row(rows, "certify", "op_ms_p50")["wins"],
            _row(rows, "certify", "op_ms_p50")["pairs"]) == (0, 1)
    egcd = _row(rows, "certify", "egcd_per_s")
    assert egcd["labels"]["parent"] == (10.0, 10.0, 10.0, 1)
    assert egcd["ratio"] == 1.2 and egcd["wins"] == 1


def test_summary_of_one_label_has_no_ratio():
    rows = bench_record.summarize([r for r in FIXTURE if r["label"] == "parent"])
    rate = _row(rows, "laws", "rate_per_s")
    assert rate["ratio"] is None and rate["wins"] is None and rate["pairs"] == 0


def test_compare_prints_each_row(tmp_path, capsys):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(FIXTURE))
    assert bench_record.main(["--compare", str(path)]) == 0
    out = capsys.readouterr().out
    assert "laws rate_per_s" in out and "change/parent 1.900, change wins 2/3 pairs" in out


def test_stderr_table_rows_give_the_family_rates():
    line = "certify  egcd_per_s                               12345.678900 1/s    n=5"
    m = bench_record._TABLE_ROW.match(line)
    assert (m[1], m[2], float(m[3])) == ("certify", "egcd_per_s", 12345.6789)
