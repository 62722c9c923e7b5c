"""tools/bench_record.py: the pair summary, on hand-written records."""

import json
import sys
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_record  # noqa: E402


def _rec(label, workload, seed, rate, p50, families=None, src_lines=100):
    metrics = {"rate_per_s": {"value": rate, "unit": "1/s"},
               "op_ms_p50": {"value": p50, "unit": "ms"}}
    result = json.dumps({"correct": True, "attempted": 10, "failed": 0, "metrics": metrics})
    return {"label": label, "commit": "abc", "workload": workload, "seed": seed,
            "result": result, "families": families or {}, "src_lines": src_lines,
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
    assert rate["verdict"] is None


def test_compare_prints_each_row(tmp_path, capsys):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(FIXTURE))
    assert bench_record.main(["--compare", str(path)]) == 0
    out = capsys.readouterr().out
    assert "laws rate_per_s" in out
    # the bounds come from the repository's BENCHMARK.json: 1.9x in 2 of 3
    # pairs is no gain, and rate_per_s has a bound; egcd_per_s has none
    assert "change/parent 1.900, change wins 2/3 pairs: within bound" in out
    assert "change/parent 1.200, change wins 1/1 pairs: gain" in out


def test_compare_reports_the_src_line_count_of_each_workload(tmp_path, capsys):
    records = [_rec("parent", w, seed, 100.0, 1.0, src_lines=3194)
               for w in ("laws", "certify") for seed in (1, 2, 3)]
    records += [_rec("change", w, seed, 100.0, 1.0, src_lines=lines)
                for w in ("laws", "certify") for seed, lines in ((1, 3190), (2, 3190), (3, 3200))]
    rows = bench_record.summarize(records)
    for workload in ("laws", "certify"):
        row = _row(rows, workload, "src_lines")
        assert row["labels"]["parent"] == (3194, 3194, 3194, 3)
        assert row["labels"]["change"][0] == 3190
        # lower is better: two fewer-line runs of three
        assert (row["wins"], row["pairs"]) == (2, 3)
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(records))
    assert bench_record.main(["--compare", str(path)]) == 0
    out = capsys.readouterr().out
    assert "laws src_lines" in out and "certify src_lines" in out


def test_stderr_table_rows_give_the_family_rates():
    line = "certify  egcd_per_s                               12345.678900 1/s    n=5"
    m = bench_record._TABLE_ROW.match(line)
    assert (m[1], m[2], float(m[3])) == ("certify", "egcd_per_s", 12345.6789)


def test_bounds_are_read_from_the_benchmark_declaration():
    declared = json.loads((bench_record.REPO / "BENCHMARK.json").read_text())
    assert bench_record.bounds() == {m["name"]: m["bound"] for m in declared["end_to_end"]}


# parent rates 100..109 over ten seeds: median 104.5, interquartile range 4.5
PARENT = [100.0 + i for i in range(10)]
BOUNDS = {"rate_per_s": 0.25, "op_ms_p50": 0.25}


def _verdicts(change_rates, change_p50=1.0, parent=PARENT):
    records = []
    for seed, (a, b) in enumerate(zip(parent, change_rates)):
        records += [_rec("parent", "laws", seed, a, 1.0, {"egcd_per_s": a}),
                    _rec("change", "laws", seed, b, change_p50, {"egcd_per_s": b})]
    rows = bench_record.summarize(records, BOUNDS)
    return {r["metric"]: r["verdict"] for r in rows}


def test_a_gain_needs_nine_of_ten_wins_and_a_gap_past_the_parent_iqr():
    # 10/10 and 9/10 wins by 10, more than the parent's IQR of 4.5
    assert _verdicts([a + 10 for a in PARENT])["rate_per_s"] == "gain"
    assert _verdicts([a + 10 for a in PARENT[:9]] + [0.0])["rate_per_s"] == "gain"
    # 8/10 wins is too few, however large the gap
    assert _verdicts([a + 10 for a in PARENT[:8]] + [0.0, 0.0])["rate_per_s"] == "within bound"
    # 10/10 wins by 4, inside the parent's IQR
    assert _verdicts([a + 4 for a in PARENT])["rate_per_s"] == "within bound"
    # a lower-is-better metric gains when its median falls
    assert _verdicts(PARENT, change_p50=0.5)["op_ms_p50"] == "gain"


def test_a_median_past_its_bound_is_worse():
    assert _verdicts([a * 0.76 for a in PARENT])["rate_per_s"] == "within bound"
    assert _verdicts([a * 0.74 for a in PARENT])["rate_per_s"] == "worse"
    assert _verdicts(PARENT, change_p50=1.2)["op_ms_p50"] == "within bound"
    assert _verdicts(PARENT, change_p50=1.3)["op_ms_p50"] == "worse"


def test_a_metric_without_a_bound_is_a_gain_or_unresolved():
    assert _verdicts([a + 10 for a in PARENT])["egcd_per_s"] == "gain"
    assert _verdicts([a * 0.5 for a in PARENT])["egcd_per_s"] == "unresolved"
    assert _verdicts(PARENT)["egcd_per_s"] == "unresolved"


def test_a_spread_past_its_bound_is_unresolved_unless_every_run_beats_every_run():
    # parent rates with median 100 and interquartile range 45, past 0.25 * 100
    wide = [20.0, 30.0, 40.0] + [100.0] * 6 + [102.0]
    assert _verdicts(wide, parent=wide)["rate_per_s"] == "unresolved"
    assert _verdicts([a * 0.9 for a in wide], parent=wide)["rate_per_s"] == "unresolved"
    # every run above 102, by less than the range: no gain, but no doubt either
    assert _verdicts([103.0] * 10, parent=wide)["rate_per_s"] == "within bound"
    # a gain and a worse median keep their rules
    assert _verdicts([200.0] * 10, parent=wide)["rate_per_s"] == "gain"
    assert _verdicts([70.0] * 10, parent=wide)["rate_per_s"] == "worse"


def test_a_record_says_whether_the_bytecode_cache_was_on(tmp_path, monkeypatch, capsys):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "m.py").write_text("x = 1\n")
    result = json.loads(FIXTURE[0]["result"])

    def run(argv, **kwargs):  # both the git call and the perfbench run
        return types.SimpleNamespace(stdout=json.dumps(result) + "\n", stderr="")

    monkeypatch.setattr(bench_record.subprocess, "run", run)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    off = bench_record.record(tmp_path, "parent", "laws", 1)
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE")
    on = bench_record.record(tmp_path, "change", "laws", 1)
    assert (off["bytecode_cache"], on["bytecode_cache"], on["src_lines"]) == (False, True, 1)
    path = tmp_path / "bench.json"
    path.write_text(json.dumps([off, on]))
    assert bench_record.main(["--compare", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["parent     bytecode_cache False", "change     bytecode_cache True"]
    # a file written before the field reads back as it did
    path.write_text(json.dumps(FIXTURE))
    assert bench_record.main(["--compare", str(path)]) == 0
    assert "bytecode_cache" not in capsys.readouterr().out
