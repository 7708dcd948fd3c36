"""Self-check of the benchmark at a tiny size; takes under a minute.

    python3 perfbench/selfcheck.py

For every workload it runs ``run.py --size tiny`` untraced and traced and
requires that each metric named in ``BENCHMARK.json`` is printed by name
with its unit, both on a ``metric`` line and in the final JSON line, with no
failed operation.  It then corrupts one pinned expected value per workload
and requires that the run counts a failed operation.  Exits 0 when all
checks pass.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from spans import metric_names

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, trace: int, *extra: str) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra],
        capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_metrics(workload: str, trace: int, problems: list[str]) -> None:
    lines, result = run(workload, trace)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{workload} trace {trace}: {result['failed']} failed operations")
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        problems.append(f"{workload} trace {trace}: metric set differs from BENCHMARK.json")
    for m in wanted:
        got = result["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{workload}: {m['name']} is {got} in the JSON line")
        if not any(line.startswith(f"metric {m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines):
            problems.append(f"{workload}: no 'metric {m['name']} = ... {m['unit']}' line")
    if not any(line.startswith("error_rate = 0 ratio") for line in lines):
        problems.append(f"{workload} trace {trace}: error_rate line missing or not 0")


def main() -> int:
    problems = []
    if {m["name"] for m in SPEC["per_layer"]} != set(metric_names()):
        problems.append("per_layer in BENCHMARK.json differs from spans.metric_names()")
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            check_metrics(w["name"], trace, problems)
        _, corrupted = run(w["name"], 0, "--corrupt")
        if corrupted["correct"] or corrupted["failed"] < 1:
            problems.append(f"{w['name']}: a corrupted expected value was not a failure")
        print(f"{w['name']}: checked")
    for p in problems:
        print(f"PROBLEM {p}")
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
