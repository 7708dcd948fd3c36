"""Size sweep of the graph commands on complete graphs and line graphs.

For each order it writes K_m and L(K_m), with m chosen so that the order is
near the target, as JSON graph files in a temporary directory, and runs
``check-intro2``, ``bose-laskar``, ``assoc`` and ``lambda-min`` on each in a
fresh ``python -m hoffman.cli`` process.  A command passes when it writes a
report to stdout or exactly one line to stderr; a traceback, any other
stderr, or a run past ``--timeout`` fails it.  One line per run is printed
with the exit code and the wall time, and the script exits 1 when any run
failed.

    PYTHONPATH=src python scripts/size_sweep.py --orders 1000,2000 --timeout 600

The sweep is not part of the test suite: at order 2000 it runs for minutes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from itertools import combinations
from pathlib import Path


def complete_graph(m: int) -> dict:
    return {"n": m, "edges": [[i, j] for i, j in combinations(range(m), 2)]}


def line_graph_of_complete(m: int) -> dict:
    """L(K_m): the pairs of 0..m-1, adjacent when they share an element."""
    pairs = list(combinations(range(m), 2))
    index = {pair: k for k, pair in enumerate(pairs)}
    edges = []
    for w in range(m):
        star = [index[tuple(sorted((w, u)))] for u in range(m) if u != w]
        edges += [[a, b] for a, b in combinations(sorted(star), 2)]
    return {"n": len(pairs), "edges": edges}


def graphs_near(order: int) -> list[tuple[str, dict, int]]:
    """K_order and the L(K_m) whose order m(m-1)/2 is nearest, each with its mu."""
    m = min(range(2, 2 * math.isqrt(order) + 3), key=lambda k: abs(k * (k - 1) // 2 - order))
    return [(f"K_{order}", complete_graph(order), 0),
            (f"L(K_{m})", line_graph_of_complete(m), 4)]


def commands(path: str, mu: int) -> list[list[str]]:
    c = str(max(1, mu))
    return [
        ["check-intro2", "--graph", path, "--c", c],
        ["bose-laskar", "--graph", path, "--x", "0", "--lam", "3", "--c", c, "--r", "1"],
        ["assoc", "--graph", path, "--q", "2"],
        ["lambda-min", "--graph", path],
    ]


def run(argv: list[str], timeout: float) -> tuple[str, float]:
    """One CLI process: its outcome ("exit N: report", "exit N: one line",
    "traceback", "stderr" or "timeout") and its wall time."""
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "hoffman.cli", *argv],
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start
    wall = time.perf_counter() - start
    if "Traceback" in proc.stderr:
        return "traceback", wall
    if proc.stdout.lstrip().startswith("{") and not proc.stderr:
        return f"exit {proc.returncode}: report", wall
    if not proc.stdout and proc.stderr.count("\n") == 1:
        return f"exit {proc.returncode}: one line ({proc.stderr.strip()[:60]})", wall
    return "stderr", wall


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--orders", default="1000,2000",
                        help="comma list of target orders (default 1000,2000)")
    parser.add_argument("--timeout", type=float, default=600.0,
                        help="seconds one command may run (default 600)")
    args = parser.parse_args()
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for order in (int(x) for x in args.orders.split(",")):
            for name, graph, mu in graphs_near(order):
                path = Path(tmp) / f"{name}.json"
                path.write_text(json.dumps(graph))
                for argv in commands(str(path), mu):
                    outcome, wall = run(argv, args.timeout)
                    failed += not outcome.startswith("exit")
                    print(f"{name:10} n={graph['n']:5} {argv[0]:13} {wall:8.2f} s  {outcome}",
                          flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
