"""Set-up probe, run in a fresh interpreter by the benchmark.

    python3 perfbench/probe.py <workload>

Prints the seconds that workload's setup() takes: importing certalg and
building the instances, rings and orders the timed phase uses.
"""

import importlib
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

if __name__ == "__main__":
    workload = importlib.import_module(f"{sys.argv[1]}_workload")
    t0 = perf_counter()
    workload.setup()
    print(perf_counter() - t0)
