"""Shared benchmark machinery: jobs, the closed-loop pass runner, the tracer,
set-up probes and small statistics helpers. Stdlib only.

A workload module provides:
  setup()                      import certalg and build instances (timed as setup_s)
  make_jobs(seed, ctx)         the fixed job list of one pass, from the seed
  execute(job, ctx, api)       run one job, return (output, items)
  check(job, output)           None when right, else a failure label
  api(tracer)                  the library calls the jobs make; traced when tracer
  traced_ctx(ctx, tracer)      ctx whose instances are wrapped or counted
and optionally exact_counts(jobs, outputs) -> {name: int}.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import resource
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

@dataclass(slots=True)
class Job:
    family: str
    args: tuple
    expect: object = None
    known_defect: bool = False
    deadline: float | None = None


@dataclass
class Pass:
    times: list = field(default_factory=list)
    items: int = 0
    digest: str = ""
    failures: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)

    @property
    def busy_s(self) -> float:
        return math.fsum(self.times)


class Tracer:
    """Spans around the benchmark's calls into certalg, kept in memory.

    A kept span is (id, name, job, parent, start, end); parent is the
    nearest enclosing kept span. Fine-grained wrappers (keep=False) only
    add to the per-name totals [calls, busy_s, self_s], because a laws pass
    makes millions of carrier calls. Self time is a span's duration minus
    the time covered by the spans directly inside it.
    """

    def __init__(self):
        self.spans = []
        self.stats = {}
        self.counts = Counter()
        self.job = None
        self._stack = []
        self._ids = itertools.count(1)

    def wrap(self, name, fn, keep=True):
        spans, stack, ids = self.spans, self._stack, self._ids
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [next(ids) if keep else parent, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - frame[1]
                if keep:
                    spans.append((frame[0], name, self.job, parent, start, end))

        return traced

    def counted(self, name, fn):
        counts = self.counts

        def counting(*args):
            counts[name] += 1
            return fn(*args)

        return counting

    def durations(self, *names) -> list:
        wanted = set(names)
        return [end - start for _, name, _, _, start, end in self.spans
                if name in wanted]

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for sid, name, job, parent, start, end in self.spans:
                f.write(json.dumps({"id": sid, "name": name, "job": job,
                                    "parent": parent, "start": start,
                                    "end": end}) + "\n")
            for name, (calls, busy, self_s) in sorted(self.stats.items()):
                f.write(json.dumps({"totals": name, "calls": calls,
                                    "busy_s": busy, "self_s": self_s}) + "\n")


def run_passes(wl, ctx, api, jobs, seconds, tracer=None, between=None,
               min_passes=1) -> list:
    """Closed loop, one caller: whole passes over `jobs`, at least
    `min_passes`, then another only while it should end within `seconds`,
    judged by the last pass. Passes take turns on the CPUs this process may
    use, so that best_times can pick the less loaded one. Outputs are
    checked against the oracles on the first pass; a later pass with the
    same output digest shares its verdicts, any other pass is checked
    again. `between` runs untimed after each pass."""
    passes = []
    stop = perf_counter() + seconds
    cpus = sorted(os.sched_getaffinity(0))
    try:
        while True:
            t_iter = perf_counter()
            os.sched_setaffinity(0, {cpus[len(passes) % len(cpus)]})
            passes.append(_one_pass(wl, ctx, api, jobs, tracer, passes))
            if between is not None:
                between()
            now = perf_counter()
            if len(passes) >= min_passes and now + (now - t_iter) > stop:
                return passes
    finally:
        os.sched_setaffinity(0, cpus)


def _one_pass(wl, ctx, api, jobs, tracer, passes) -> Pass:
    p = Pass()
    outputs = []
    before = Counter(tracer.counts) if tracer is not None else None
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = [len(passes), i]
        t0 = perf_counter()
        out, items = wl.execute(job, ctx, api)
        dt = perf_counter() - t0
        if job.deadline is not None and dt > job.deadline:
            dt = job.deadline
        p.times.append(dt)
        p.items += items
        outputs.append(out)
    p.digest = digest(outputs)
    first = passes[0] if passes else None
    if first is not None and p.digest == first.digest:
        p.failures = first.failures
    else:
        p.failures = [wl.check(job, out) for job, out in zip(jobs, outputs)]
    if hasattr(wl, "exact_counts"):
        p.counts = wl.exact_counts(jobs, outputs)
    if tracer is not None:
        p.counts.update({k: v - before[k] for k, v in tracer.counts.items()})
    return p


def digest(outputs) -> str:
    h = hashlib.sha256()
    for out in outputs:
        h.update(repr(out).encode())
        h.update(b"\0")
    return h.hexdigest()


def tally(jobs, passes):
    """(attempted, failed, wrong): wrong counts the failures that make a run
    incorrect. A call that passes its deadline, or a known defect failing,
    is failed but not wrong."""
    attempted = failed = wrong = 0
    for p in passes:
        attempted += len(p.failures)
        for job, label in zip(jobs, p.failures):
            if label is not None:
                failed += 1
                if label != "timeout" and not job.known_defect:
                    wrong += 1
    return attempted, failed, wrong


def best_times(passes) -> list:
    """Each job's fastest time over the passes. On a shared 2-vCPU virtual
    machine, speed drifts by up to 1.7x as other tenants load the host; like
    timeit, take the minimum, the run least disturbed by interference."""
    return [min(ts) for ts in zip(*(p.times for p in passes))]


def rate(passes) -> float:
    """Items of one pass per second of its best-of-passes busy time."""
    return passes[0].items / math.fsum(best_times(passes))


def family_rates(jobs, passes) -> dict:
    """Jobs per second of each family's best-of-passes busy time."""
    best = best_times(passes)
    out = {}
    for fam in dict.fromkeys(j.family for j in jobs):
        times = [t for t, j in zip(best, jobs) if j.family == fam]
        out[fam] = len(times) / math.fsum(times)
    return out


def quantile(values, q: float) -> float:
    """Nearest-rank quantile; 0.0 for no samples (an idle layer)."""
    if not values:
        return 0.0
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def peak_rss_mb(children=False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv, timeout, stdin_text=None):
    """Run one child process to completion; kill it at the deadline.
    Returns (exit_code or None on timeout, stdout text)."""
    stdin = subprocess.DEVNULL if stdin_text is None else subprocess.PIPE
    proc = subprocess.Popen(argv, stdin=stdin, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=child_env(), cwd=ROOT,
                            text=True)
    try:
        out, _ = proc.communicate(stdin_text, timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, ""
    return proc.returncode, out


def setup_seconds(workload: str, repeats: int) -> list:
    """Times from a fresh interpreter until the workload's instances are
    built (certalg import included, input generation excluded)."""
    values = []
    for _ in range(repeats):
        code, out = run_child([sys.executable, str(HERE / "probe.py"), workload], 60)
        if code != 0:
            raise RuntimeError(f"set-up probe for {workload} exited with {code}")
        values.append(float(out.split()[-1]))
    return values


def src_lines() -> dict:
    out = {}
    for path in sorted((SRC / "certalg").glob("*.py")):
        name = "init" if path.stem == "__init__" else path.stem
        with open(path) as f:
            out[f"{name}.src_lines"] = sum(1 for _ in f)
    return out
