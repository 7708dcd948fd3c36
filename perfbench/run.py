"""Benchmark of the hoffman exact verifier, driven through its CLI.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

Run from the root of a source checkout; the library is imported from
``src/``.  Each operation is one in-process call of ``hoffman.cli.main(argv)``
with its output captured, parsed and checked against pinned results.  A pass
runs every operation of the workload once; passes repeat until ``--seconds``
would be exceeded (at least one pass).

``--trace 0`` prints the end-to-end metrics of untraced passes.  ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics of the
traced ones (see ``spans.py``).  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
metric names and units come from ``BENCHMARK.json``.  Everything the run
writes goes under ``perfbench/work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

import workloads
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
SETUP_REPEATS = 7
WARMUP_ARGV = ["drg", "params", "--D", "4", "--b", "2", "--alpha", "2", "--beta", "62"]
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import hoffman.cli; print(time.perf_counter() - t)"
)
# the layer expected to hold the most self time in a traced pass
PREDICTED_DOMINANT = {
    "certify": ("exact.psd_refuted.s",),
    "scan-psd": ("drg.feasibility_scan.s", "exact.psd_holds.s"),
    "extract": ("cli.", "graphs.", "forbidden.scan_M_t.s"),
}


@dataclass
class Pass:
    wall: float
    cpu: float
    latencies: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> None:
    """One BLAS thread, whatever the caller's environment asks for.

    Idle OpenBLAS workers spin-wait after each call, which adds CPU time that
    varies from run to run; the dense eigensolves here are too small to gain
    from a second thread.  Must run before numpy is imported.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def run_pass(ops, main, tracer=None) -> Pass:
    result = Pass(0.0, 0.0)
    wall0, cpu0 = perf_counter(), process_time()
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.run_id += 1
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(op.argv))
        except Exception:  # a crash is a failed operation; keep measuring
            code = None
            err.write(traceback.format_exc())
        result.latencies.append(perf_counter() - t0)
        try:
            report = json.loads(out.getvalue())
        except json.JSONDecodeError:
            report = None
        try:
            observed = op.observe(code, report)
        except Exception:  # malformed report: the operation failed
            observed = {"unreadable report": traceback.format_exc(limit=1)}
        if observed != op.expected:
            result.failures.append(
                f"{' '.join(op.argv)}: expected {op.expected!r}, observed {observed!r}; "
                f"stderr: {err.getvalue().strip()[-400:]}"
            )
    result.wall = perf_counter() - wall0
    result.cpu = process_time() - cpu0
    return result


def setup(workload: str, seed: int, workdir: Path, tiny: bool):
    """Import the library and write the inputs, several times; median time."""
    times = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        shutil.rmtree(workdir, ignore_errors=True)
        t0 = perf_counter()
        ops = workloads.build(workload, seed, workdir, tiny)
        times.append(float(probe.stdout) + perf_counter() - t0)
    return ops, statistics.median(times)


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def stamp(np_module) -> dict:
    """Commit, machine and library versions the numbers were taken with."""
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = git.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((SRC / "hoffman").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    blas = np_module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np_module.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if unknown."""
    import ctypes

    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def measure(ops, main, seconds: float) -> list[Pass]:
    passes = []
    start = perf_counter()
    while True:
        passes.append(run_pass(ops, main))
        typical = statistics.median(p.wall for p in passes)
        if perf_counter() - start + typical > seconds:
            return passes


def measure_traced(ops, main, seconds: float, tracer: Tracer):
    """Alternate untraced and traced passes; returns (untraced, traced)."""
    plain, traced = [], []
    entry = tracer.entry(main)
    start = perf_counter()
    while True:
        plain.append(run_pass(ops, main))
        tracer.install()
        try:
            traced.append(run_pass(ops, entry, tracer))
        finally:
            tracer.uninstall()
        pair = statistics.median(p.wall for p in plain) + statistics.median(
            p.wall for p in traced)
        if perf_counter() - start + pair > seconds:
            return plain, traced


def dominant_layer(workload: str, metrics: dict) -> dict:
    times = {k: v for k, v in metrics.items()
             if k.endswith(".s") and k != "drg.feasibility_scan.max_b.s"}
    top = max(times, key=times.get)
    predicted = PREDICTED_DOMINANT[workload]
    return {"dominant": top, "predicted": list(predicted),
            "match": any(top == p or (p.endswith(".") and top.startswith(p))
                         for p in predicted)}


def run_workload(args, spec) -> int:
    if not (SRC / "hoffman" / "cli.py").is_file():
        print(f"error: {SRC / 'hoffman'} not found; run from a source checkout",
              file=sys.stderr)
        return 2
    pin_blas_threads()
    WORK.mkdir(exist_ok=True)
    tiny = args.size == "tiny"
    workdir = WORK / f"inputs-{args.workload}-{os.getpid()}"
    try:
        ops, setup_s = setup(args.workload, args.seed, workdir, tiny)
        if args.corrupt:
            workloads.corrupt(ops)
        sys.path.insert(0, str(SRC))
        import numpy
        import hoffman.cli

        if not Path(hoffman.cli.__file__).resolve().is_relative_to(SRC):
            raise RuntimeError(f"imported {hoffman.cli.__file__}, not the checkout's src/")
        with contextlib.redirect_stdout(io.StringIO()):
            hoffman.cli.main(WARMUP_ARGV)  # lazy imports, before timing

        info = {"workload": args.workload, "seed": args.seed,
                "seed_use": workloads.why_seed_matters(args.workload),
                "size": args.size, "stamp": stamp(numpy)}
        if args.trace:
            tracer = Tracer()
            plain, traced = measure_traced(ops, hoffman.cli.main, args.seconds, tracer)
            passes = plain + traced
            metrics = tracer.layer_metrics(len(traced), sum(p.wall for p in traced))
            metrics["trace.overhead"] = (statistics.median(p.wall for p in traced)
                                         / statistics.median(p.wall for p in plain))
            wanted = spec["per_layer"]
            info["dominant_layer"] = dominant_layer(args.workload, metrics)
            tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
        else:
            passes = measure(ops, hoffman.cli.main, args.seconds)
            latencies = [t for p in passes for t in p.latencies]
            metrics = {
                "setup_s": setup_s,
                "wall_s": statistics.median(p.wall for p in passes),
                "cpu_s": statistics.median(p.cpu for p in passes),
                "op_p90_s": p90(latencies),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            wanted = spec["end_to_end"]
            info["op_samples"] = len(latencies)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p.latencies) for p in passes)
    failures = [f for p in passes for f in p.failures]
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
           for m in wanted}
    info.update(passes=len(passes), pass_walls=[p.wall for p in passes],
                attempted=attempted, failed=len(failures), failures=failures[:20],
                metrics=out)
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(info, indent=2, default=str), encoding="ascii")

    for failure in failures[:5]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"stamp {json.dumps(info['stamp'], sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} ({info['seed_use']}), "
          f"{len(passes)} passes, {attempted} operations")
    for name, m in out.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    if "op_samples" in info:
        print(f"op_p90_s pooled over {info['op_samples']} operation samples")
    print(f"error_rate = {len(failures) / attempted:.6g} ratio "
          f"({len(failures)} of {attempted} operations failed)")
    if "dominant_layer" in info:
        d = info["dominant_layer"]
        print(f"dominant layer {d['dominant']}, predicted {' or '.join(d['predicted'])}: "
              f"{'match' if d['match'] else 'MISMATCH'}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": out}))
    return 0


def run_all(args, spec) -> int:
    """Every workload in its own fresh process, then a summary table."""
    rows, status = [], 0
    for w in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--size", args.size],
            capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("".join(f"{line}\n" for line in lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            rows.append(f"{w['name']}: exited {proc.returncode} without a result")
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= not result["correct"]
        shown = ", ".join(f"{k} {m['value']:.4g} {m['unit']}"
                          for k, m in result["metrics"].items())
        rows.append(f"{w['name']}: error_rate {result['failed'] / result['attempted']:.4g} "
                    f"ratio; {shown}")
    print("summary")
    for row in rows:
        print(f"  {row}")
    return status


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a seconds-long variant for the self-check")
    parser.add_argument("--corrupt", action="store_true",
                        help="self-check: corrupt one pinned expected value")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
