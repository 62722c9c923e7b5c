"""Record perfbench runs and compare them; stdlib only.

    python3 tools/bench_record.py --label L --workload W --seed S --out FILE [--root DIR]
    python3 tools/bench_record.py --compare FILE

The first form runs the checkout's own `perfbench/run.py --workload W --seed S`
(at its default length) from DIR, default this repository, and appends one
record to FILE, a JSON list: the label, the commit, the workload, the seed,
the run's last stdout line verbatim, the family rates (`*_per_s`) from its
stderr table, the line count of DIR/src, the Python version and
os.cpu_count(). To compare two checkouts, record them alternately, with the
same seeds.

The second form prints, per workload and metric (the run's metrics, the
family rates and src_lines), each label's median [q1, q3] over its runs,
then the ratio of the last label's median to the first label's, the last
label's wins over the pairs, a pair being one run of each label on the same
workload and seed, and a verdict on the last label:
- "gain": it wins at least 9 of 10 pairs, and its median is better than the
  first label's by more than the first label's interquartile range;
- "worse": its median is worse by more than the metric's bound, read from
  the `end_to_end` list of the repository's BENCHMARK.json;
- "within bound": neither, on a metric with a bound;
- "unresolved": neither, on a metric without one.
Rates (`*_per_s`) are better higher, every other metric lower.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
_TABLE_ROW = re.compile(r"^(\S+)\s+(\w+_per_s)\s+(\S+)\s")


def _commit(root: Path):
    proc = subprocess.run(["git", "-C", str(root), "describe", "--always", "--dirty"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def _src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py")))


def record(root: Path, label: str, workload: str, seed: int) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed)],
                          cwd=root, capture_output=True, text=True, check=True)
    families = {m[2]: float(m[3]) for m in map(_TABLE_ROW.match, proc.stderr.splitlines())
                if m and m[1] == workload}
    return {"label": label, "commit": _commit(root), "workload": workload, "seed": seed,
            "result": proc.stdout.strip().splitlines()[-1], "families": families,
            "src_lines": _src_lines(root), "python": platform.python_version(),
            "cpu_count": os.cpu_count()}


def _metrics(rec: dict) -> dict:
    out = {k: m["value"] for k, m in json.loads(rec["result"])["metrics"].items()}
    out.update(rec["families"])
    out["src_lines"] = rec["src_lines"]
    return out


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


def bounds() -> dict:
    """{metric: relative bound} from the `end_to_end` list of BENCHMARK.json."""
    declared = json.loads((REPO / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in declared["end_to_end"]}


def _verdict(row, first, last, bound) -> str:
    (m0, q1, q3, _), (m1, _, _, _) = row["labels"][first], row["labels"][last]
    gap = m1 - m0 if row["metric"].endswith("_per_s") else m0 - m1  # > 0 is better
    if 10 * row["wins"] >= 9 * row["pairs"] > 0 and gap > q3 - q1:
        return "gain"
    if bound is None:
        return "unresolved"
    return "worse" if -gap > bound * abs(m0) else "within bound"


def summarize(records, bound_of=None) -> list:
    """One row per (workload, metric): {"workload", "metric", "labels":
    {label: (median, q1, q3, runs)}, "ratio", "wins", "pairs", "verdict"}.
    Labels keep the order they first appear in; ratio, wins and verdict
    compare the last label with the first and are None when a workload has
    one label. bound_of maps a metric to its relative bound, as bounds()
    reads them."""
    bound_of = bound_of or {}
    labels = list(dict.fromkeys(r["label"] for r in records))
    rows = []
    for workload in dict.fromkeys(r["workload"] for r in records):
        runs = {lb: [(r["seed"], _metrics(r)) for r in records
                     if r["workload"] == workload and r["label"] == lb] for lb in labels}
        present = [lb for lb in labels if runs[lb]]
        first, last = present[0], present[-1]
        for name in dict.fromkeys(k for lb in present for _, m in runs[lb] for k in m):
            row = {"workload": workload, "metric": name, "labels": {},
                   "ratio": None, "wins": None, "pairs": 0, "verdict": None}
            for lb in present:
                values = [m[name] for _, m in runs[lb] if name in m]
                row["labels"][lb] = (*_quartiles(values), len(values))
            if first != last:
                row["ratio"] = row["labels"][last][0] / row["labels"][first][0]
                higher = name.endswith("_per_s")
                wins = pairs = 0
                for seed in dict.fromkeys(s for s, _ in runs[first]):
                    a = [m[name] for s, m in runs[first] if s == seed and name in m]
                    b = [m[name] for s, m in runs[last] if s == seed and name in m]
                    for x, y in zip(a, b):
                        pairs += 1
                        wins += y > x if higher else y < x
                row["wins"], row["pairs"] = wins, pairs
                row["verdict"] = _verdict(row, first, last, bound_of.get(name))
            rows.append(row)
    return rows


def _print(rows):
    for row in rows:
        print(f"{row['workload']} {row['metric']}")
        for lb, (med, q1, q3, n) in row["labels"].items():
            print(f"  {lb:10} {med:14.6g} [{q1:.6g}, {q3:.6g}]  n={n}")
        if row["ratio"] is not None:
            last, first = list(row["labels"])[-1], list(row["labels"])[0]
            print(f"  {last}/{first} {row['ratio']:.3f}, "
                  f"{last} wins {row['wins']}/{row['pairs']} pairs: {row['verdict']}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--compare", metavar="FILE", type=Path)
    p.add_argument("--root", type=Path, default=REPO)
    p.add_argument("--label")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    if args.compare:
        _print(summarize(json.loads(args.compare.read_text()), bounds()))
        return 0
    if None in (args.label, args.workload, args.seed, args.out):
        p.error("recording needs --label, --workload, --seed and --out")
    rec = record(args.root.resolve(), args.label, args.workload, args.seed)
    records = json.loads(args.out.read_text()) if args.out.exists() else []
    records.append(rec)
    args.out.write_text(json.dumps(records, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
