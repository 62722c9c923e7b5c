"""certalg benchmark: closed loop, one caller, stdlib only.

    python3 perfbench/run.py --workload laws|certify|cli|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the run measures half its
time untraced and half traced, and reports the per-layer metrics. A table
of the figures, with units and sample counts, goes to stderr. `all` runs
the three workloads one after another, each in its own process.
See METRICS.md for what each metric means and which layer moves which.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
from cli_workload import SUBCOMMANDS  # noqa: E402

WORKLOADS = ("laws", "certify", "cli")
FAMILIES = ("egcd", "primality", "factor", "frac", "poly", "sort", "prove", "pow")
SRC_MODULES = ("init", "certlists", "cli", "eqprover", "errors", "euclid",
               "factorization", "fractions", "numbers", "polynomials", "structures")
CARRIER_MODULES = ("numbers", "euclid", "fractions", "polynomials", "factorization")

# set-up probes run one after each pass, so they sample the run's whole
# span; at least this many
MIN_PROBES = 5

END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("rate_per_s", "1/s"),
              ("op_ms_p50", "ms"), ("op_ms_p90", "ms"))


def _layer_spec():
    spec = [("structures.check_laws.calls", "count"),
            ("structures.check_laws.busy_s", "s"),
            ("structures.check_laws.self_s", "s"),
            ("structures.cases", "count"), ("structures.failures", "count")]
    for m in CARRIER_MODULES:
        spec += [(f"{m}.eq.calls", "count"), (f"{m}.eq.busy_s", "s"),
                 (f"{m}.sample.busy_s", "s"), (f"{m}.ops.calls", "count"),
                 (f"{m}.ops.busy_s", "s")]
    for fn in ("euclid.extended_gcd", "euclid.is_prime", "factorization.factor",
               "eqprover.prove_eq"):
        spec += [(f"{fn}.calls", "count"), (f"{fn}.busy_s", "s"),
                 (f"{fn}.us_p50", "us"), (f"{fn}.us_p99", "us")]
    spec += [("euclid.verify_bezout.busy_s", "s"), ("euclid.verify_primality.busy_s", "s"),
             ("euclid.div_mod.calls", "count"),
             ("factorization.check_factorization.busy_s", "s")]
    for fn in ("fractions.add_optimized", "fractions.mul_fractions", "polynomials.poly_add"):
        spec += [(f"{fn}.calls", "count"), (f"{fn}.busy_s", "s"), (f"{fn}.us_p50", "us")]
    for fn in ("polynomials.poly_mul", "certlists.sort_certified"):
        spec += [(f"{fn}.calls", "count"), (f"{fn}.busy_s", "s"), (f"{fn}.ms_p50", "ms")]
    spec += [("certlists.verify_sort_result.busy_s", "s"), ("certlists.leq.calls", "count")]
    spec += [(f"eqprover.prove_eq.{t}.busy_s", "s")
             for t in ("monoid", "semiring", "commsemiring")]
    spec += [("numbers.power.calls", "count"), ("numbers.power.busy_s", "s"),
             ("numbers.squarings", "count")]
    spec += [("cli.interp_ms", "ms"), ("cli.import_ms", "ms"), ("cli.main.ms_p50", "ms"),
             ("cli.parse_command.us_p50", "us")]
    spec += [(f"cli.{s}.ms_p50", "ms") for s in SUBCOMMANDS]
    spec += [("cli.exit_mismatch", "count"), ("cli.timeouts", "count")]
    spec += [(f"{m}.src_lines", "lines") for m in SRC_MODULES]
    spec += [("trace_overhead", "ratio")]
    spec += [(f"{f}_per_s", "1/s") for f in FAMILIES]
    spec += [("failed_ratio", "ratio")]
    return tuple(spec)


PER_LAYER = _layer_spec()


def _end_to_end(name, passes, probes):
    best = harness.best_times(passes)
    values = {
        "setup_s": statistics.median(probes),
        "peak_rss_mb": harness.peak_rss_mb(children=name == "cli"),
        "rate_per_s": harness.rate(passes),
        "op_ms_p50": harness.quantile(best, 0.5) * 1e3,
        "op_ms_p90": harness.quantile(best, 0.9) * 1e3,
    }
    samples = {"setup_s": len(probes), "peak_rss_mb": 1, "rate_per_s": len(passes),
               "op_ms_p50": len(best), "op_ms_p90": len(best)}
    return values, samples


def _named(name, jobs, passes, values, samples):
    """The figures under the names used in METRICS.md, for the stderr table."""
    attempted, failed, _ = harness.tally(jobs, passes)
    out = {"failed_ratio": (failed / attempted, "ratio", attempted)}
    if name == "laws":
        out["law_cases_per_s"] = (values["rate_per_s"], "1/s", len(passes))
    elif name == "certify":
        for fam, rate in harness.family_rates(jobs, passes).items():
            out[f"{fam}_per_s"] = (rate, "1/s", len(passes))
    else:
        out["call_ms_p50"] = (values["op_ms_p50"], "ms", samples["op_ms_p50"])
        out["call_ms_p90"] = (values["op_ms_p90"], "ms", samples["op_ms_p90"])
    return out


def _layer_values(name, wl, ctx, jobs, plain, traced, tracer):
    n = len(traced)
    stats = tracer.stats
    out = {}

    def total(key, i):
        return stats[key][i] / n if key in stats else 0.0

    out["structures.check_laws.calls"] = total("structures.check_laws", 0)
    out["structures.check_laws.busy_s"] = total("structures.check_laws", 1)
    out["structures.check_laws.self_s"] = total("structures.check_laws", 2)
    for m in CARRIER_MODULES:
        out[f"{m}.eq.calls"] = total(f"{m}.eq", 0)
        out[f"{m}.eq.busy_s"] = total(f"{m}.eq", 1)
        out[f"{m}.sample.busy_s"] = total(f"{m}.sample", 1)
        out[f"{m}.ops.calls"] = total(f"{m}.ops", 0)
        out[f"{m}.ops.busy_s"] = total(f"{m}.ops", 1)

    def timed(metric, names, stats_out):
        durs = tracer.durations(*names)
        for stat in stats_out:
            if stat == "calls":
                out[f"{metric}.calls"] = len(durs) / n
            elif stat == "busy_s":
                out[f"{metric}.busy_s"] = sum(durs) / n
            else:
                unit, q = stat.split("_p")
                scale = {"us": 1e6, "ms": 1e3}[unit]
                out[f"{metric}.{stat}"] = harness.quantile(durs, int(q) / 100) * scale

    four = ("calls", "busy_s", "us_p50", "us_p99")
    theories = [f"eqprover.prove_eq.{t}" for t in ("monoid", "semiring", "commsemiring")]
    timed("euclid.extended_gcd", ["euclid.extended_gcd"], four)
    timed("euclid.is_prime", ["euclid.is_prime"], four)
    timed("factorization.factor", ["factorization.factor"], four)
    timed("eqprover.prove_eq", theories, four)
    for t in theories:
        timed(t, [t], ("busy_s",))
    for fn in ("euclid.verify_bezout", "euclid.verify_primality",
               "factorization.check_factorization", "certlists.verify_sort_result"):
        timed(fn, [fn], ("busy_s",))
    for fn in ("fractions.add_optimized", "fractions.mul_fractions", "polynomials.poly_add"):
        timed(fn, [fn], ("calls", "busy_s", "us_p50"))
    for fn in ("polynomials.poly_mul", "certlists.sort_certified"):
        timed(fn, [fn], ("calls", "busy_s", "ms_p50"))
    timed("numbers.power", ["numbers.power"], ("calls", "busy_s"))

    # exact counts: identical in every pass, so the first traced pass stands
    out.update(traced[0].counts)
    if name == "cli":
        out.update(_cli_values(wl, ctx, jobs, traced, tracer))
    out.update(harness.src_lines())
    out["trace_overhead"] = (sum(harness.best_times(traced))
                             / sum(harness.best_times(plain)) - 1)
    if name == "certify":
        for fam, rate in harness.family_rates(jobs, plain).items():
            out[f"{fam}_per_s"] = rate
    attempted, failed, _ = harness.tally(jobs, plain + traced)
    out["failed_ratio"] = failed / attempted
    return out


def _cli_values(wl, ctx, jobs, traced, tracer):
    n = len(traced)
    out = {f"cli.{sub}.ms_p50": harness.quantile(tracer.durations(f"cli.{sub}"), 0.5) * 1e3
           for sub in SUBCOMMANDS}
    labels = [label for p in traced for label in p.failures]
    out["cli.exit_mismatch"] = labels.count("exit_mismatch") / n
    out["cli.timeouts"] = labels.count("timeout") / n
    out.update(wl.layer_metrics(ctx, jobs))
    return out


def _cli_layer(seed):
    """The cli layer, measured during the traced certify run by a child that
    runs the cli workload's traced run with one pass each way, so that the
    calls start from a small parent, as they do on the cli workload.
    Returns the cli figures and whether that run was correct."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", "cli",
            "--seed", str(seed), "--seconds", "0", "--trace", "1"]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    values = {k: m["value"] for k, m in result["metrics"].items() if k.startswith("cli.")}
    return values, result["correct"]


def _consistent(plain, traced) -> bool:
    """Same outputs and exact counts with and without tracing, and the same
    counts in every traced pass."""
    untraced_counts = {k: v for k, v in traced[0].counts.items() if k in plain[0].counts}
    return (plain[0].digest == traced[0].digest
            and plain[0].counts == untraced_counts
            and all(p.counts == traced[0].counts for p in traced))


def run_workload(name, seed, seconds, trace):
    wl = importlib.import_module(f"{name}_workload")
    ctx = wl.setup()
    jobs = wl.make_jobs(seed, ctx)
    if not trace:
        probes = []
        passes = harness.run_passes(wl, ctx, wl.api(), jobs, seconds, min_passes=2,
                                    between=lambda: probes.extend(
                                        harness.setup_seconds(name, 1)))
        probes += harness.setup_seconds(name, max(0, MIN_PROBES - len(probes)))
        attempted, failed, wrong = harness.tally(jobs, passes)
        values, samples = _end_to_end(name, passes, probes)
        table = {k: (values[k], unit, samples[k]) for k, unit in END_TO_END}
        table.update(_named(name, jobs, passes, values, samples))
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}
        correct = wrong == 0
    else:
        plain = harness.run_passes(wl, ctx, wl.api(), jobs, seconds / 2)
        tracer = harness.Tracer()
        tctx = wl.traced_ctx(ctx, tracer)
        tjobs = wl.make_jobs(seed, tctx)
        traced = harness.run_passes(wl, tctx, wl.api(tracer), tjobs, seconds / 2, tracer)
        tracer.dump(harness.OUT / f"trace-{name}-{seed}.jsonl")
        values = _layer_values(name, wl, ctx, jobs, plain, traced, tracer)
        attempted, failed, wrong = harness.tally(jobs, plain + traced)
        cli_correct = True
        if name == "certify":
            cli_values, cli_correct = _cli_layer(seed)
            values.update(cli_values)
        table = {k: (values.get(k, 0.0), unit, len(traced)) for k, unit in PER_LAYER}
        metrics = {k: {"value": values.get(k, 0.0), "unit": unit} for k, unit in PER_LAYER}
        correct = wrong == 0 and cli_correct and _consistent(plain, traced)
    for key, (value, unit, n) in table.items():
        print(f"{name:8} {key:44} {value:16.6f} {unit:6} n={n}", file=sys.stderr)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(args):
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (harness.SRC / "certalg" / "__init__.py").is_file():
        print(f"error: certalg sources not found under {harness.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.SRC))
    if args.workload == "all":
        return run_all(args)
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
