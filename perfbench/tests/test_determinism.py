"""Same seed, same inputs, outputs and exact counts; tracing changes none of
them; a different seed changes the inputs. Each workload runs a small slice
of its pass so the tests stay quick.

Run with: python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import certify_workload
import cli_workload
import harness
import laws_workload
import run

REPO = Path(__file__).resolve().parent.parent.parent


def _laws_slice(jobs):
    return jobs[:3] + [j for j in jobs if j.family == "control"]


def _certify_slice(jobs):
    families = dict.fromkeys(j.family for j in jobs)
    return [j for fam in families for j in [j for j in jobs if j.family == fam][:6]]


def _cli_slice(jobs):
    normal = [j for j in jobs if j.expect[0] == 0 and not j.known_defect][:3]
    return normal + [j for j in jobs if j.expect[0] == 3]


WORKLOADS = [(laws_workload, _laws_slice), (certify_workload, _certify_slice),
             (cli_workload, _cli_slice)]


def one_pass(wl, pick, seed, traced=False):
    ctx = wl.setup()
    tracer = harness.Tracer() if traced else None
    if traced:
        ctx = wl.traced_ctx(ctx, tracer)
    jobs = pick(wl.make_jobs(seed, ctx))
    [p] = harness.run_passes(wl, ctx, wl.api(tracer), jobs, 0, tracer)
    assert p.failures == [None] * len(jobs)
    return p


@pytest.mark.parametrize("wl,pick", WORKLOADS, ids=lambda x: getattr(x, "__name__", ""))
def test_same_seed_repeats_and_tracing_changes_nothing(wl, pick):
    first, second = one_pass(wl, pick, 11), one_pass(wl, pick, 11)
    traced, traced_again = one_pass(wl, pick, 11, True), one_pass(wl, pick, 11, True)
    assert first.digest == second.digest == traced.digest
    assert first.counts == second.counts
    assert traced.counts == traced_again.counts
    assert {k: traced.counts[k] for k in first.counts} == first.counts
    assert one_pass(wl, pick, 12).digest != first.digest


def test_exact_counts_are_recorded():
    laws = one_pass(laws_workload, _laws_slice, 5, True).counts
    certify = one_pass(certify_workload, _certify_slice, 5, True).counts
    assert laws["structures.cases"] > 0
    for name in ("numbers.squarings", "certlists.leq.calls", "euclid.div_mod.calls"):
        assert certify[name] > 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


def test_fails_without_sources(tmp_path):
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "laws",
                           "--seconds", "1"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
