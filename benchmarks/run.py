"""dtslab benchmark: end-to-end metrics (untraced) or per-layer metrics (traced).

Run from the repository root:

    python3 benchmarks/run.py --workload mc-grid --seed 1 --seconds 25 --trace 0

The package is imported from ``src/`` of the same checkout; without it the
benchmark exits with code 2 and prints no result.  Set-up time is the median
over fresh interpreters of ``import dtslab.cli``.  The workload itself runs
in one more fresh interpreter (``workload.py``).  Every line but the last is
a human-readable report with the machine facts and all raw samples; the
last stdout line is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics; both sets are listed in ``README.md``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmarks"
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
WORKLOADS = ("mc-grid", "mc-csv", "oracle")
SETUP_PROBES = 15
IMPORTTIME_PROBES = 5
CHILD_TIMEOUT_S = 150

# sampler spans of the traced run -> name of their computed work count
SAMPLER_COUNTS = {
    "rng.uniform_block": "words",
    "rng.box_muller": "pairs",
    "states.heterodyne": "outcomes",
    "states.photon": "draws",
}


class BenchError(Exception):
    """The benchmark could not run: no result is printed and the exit code is 2."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str]) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[1:]} did not finish in {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{argv[1:]} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc


def setup_times(count: int) -> list[float]:
    """Time to import dtslab.cli in each of `count` fresh interpreters."""
    probe = ("import time; t = time.perf_counter(); import dtslab.cli; "
             "print(time.perf_counter() - t)")
    return [float(run_child([sys.executable, "-c", probe]).stdout) for _ in range(count)]


def importtime_split(stderr: str) -> tuple[float, float]:
    """(dtslab, scipy) cumulative import seconds from ``python -X importtime``.

    Lines are printed children first; a name's indentation gives its depth.
    dtslab is the sum over top-level dtslab entries, scipy over scipy entries
    not nested inside another scipy entry.
    """
    entries = []  # (depth, name, cumulative_us)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cumulative)))
    parent_name = [None] * len(entries)
    pending: list[int] = []
    for i, (depth, _, _) in enumerate(entries):
        while pending and entries[pending[-1]][0] > depth:
            parent_name[pending.pop()] = entries[i][1]
        pending.append(i)
    dtslab_us = scipy_us = 0
    for i, (depth, name, cumulative) in enumerate(entries):
        top = name.split(".")[0]
        if top == "dtslab" and parent_name[i] is None:
            dtslab_us += cumulative
        if top == "scipy" and (parent_name[i] or "").split(".")[0] != "scipy":
            scipy_us += cumulative
    return dtslab_us / 1e6, scipy_us / 1e6


def machine_facts() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        **versions,
        "threads": 2,
        "src_lines": src_lines,
    }


def run_workload(workload: str, seed: int, seconds: int, mode: str) -> dict:
    proc = run_child([sys.executable, str(BENCH / "workload.py"), "--workload", workload,
                      "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
                      "--out-dir", str(RUN_DIR / workload)])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(result["dtslab_file"]).resolve().is_relative_to(SRC):
        raise BenchError(f"dtslab was imported from {result['dtslab_file']}, not from {SRC}")
    return result


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(seed: int, seconds: int, workload: str, report: dict) -> tuple[dict, dict]:
    # on a shared virtual machine the CPU speed can shift every few seconds,
    # so the set-up probes are split around the workload, not taken in one burst
    setup = setup_times(SETUP_PROBES // 2 + 1)
    result = run_workload(workload, seed, seconds, "timed")
    setup += setup_times(SETUP_PROBES // 2)
    wall = statistics.median(result["passes"])
    report.update(setup_samples_s=setup, wall_samples_s=result["passes"])
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "wall_s": metric(wall, "s"),
        "peak_rss_mb": metric(result["peak_rss_mb"], "MiB"),
    }
    # throughput is fixed work over wall_s, so it is reported beside the
    # gated metrics rather than gated twice
    report["throughput"] = throughput(result, wall)
    return metrics, result


def throughput(result: dict, wall: float) -> dict:
    attempted = result["attempted"]
    return {
        "trials_per_s": metric(result["trials_per_pass"] / wall, "1/s"),
        "copies_per_s": metric(result["copies_per_pass"] / wall, "1/s"),
        "csv_mb_per_s": metric(result["csv_bytes_per_pass"] / 1e6 / wall, "MB/s"),
        "error_rate": metric(len(result["failures"]) / attempted, "ratio"),
    }


def per_layer(seed: int, seconds: int, workload: str, report: dict) -> tuple[dict, dict]:
    probes = []
    for _ in range(IMPORTTIME_PROBES):
        proc = run_child([sys.executable, "-X", "importtime", "-c", "import dtslab.cli"])
        probes.append(importtime_split(proc.stderr))
    result = run_workload(workload, seed, seconds, "traced")
    layers = result["layers"]

    def layer(name: str, field: str) -> float:
        return layers.get(name, {}).get(field, 0)

    metrics = {}
    for span, count_name in SAMPLER_COUNTS.items():
        metrics[f"{span}.self_s"] = metric(layer(span, "self_s"), "s")
        metrics[f"{span}.{count_name}"] = metric(layer(span, "count"), "count")
    mse_2threads = layer("estimator.mse", "total_s")
    metrics.update({
        "estimator.mse.self_s": metric(layer("estimator.mse", "self_s"), "s"),
        "estimator.mse.chunks": metric(layer("estimator.chunk", "calls"), "count"),
        "estimator.chunk.self_s": metric(layer("estimator.chunk", "self_s"), "s"),
        # 0 where the workload runs no Monte Carlo
        "estimator.thread_speedup": metric(
            result["mse_1thread_s"] / mse_2threads if mse_2threads else 0.0, "ratio"),
        "cli.csv_sink.self_s": metric(layer("cli.csv_sink", "self_s"), "s"),
        "cli.csv_sink.bytes": metric(result["csv_bytes_per_pass"], "bytes"),
        "cli.self_s": metric(layer("cli", "self_s"), "s"),
        "fock.beam_splitter.self_s": metric(layer("fock.beam_splitter", "self_s"), "s"),
        "fock.beam_splitter.calls": metric(layer("fock.beam_splitter", "calls"), "count"),
        "fock.expm.self_s": metric(layer("fock.expm", "self_s"), "s"),
        "fock.expm.calls": metric(layer("fock.expm", "calls"), "count"),
        "fock.operator_bytes": metric(result["operator_bytes"], "bytes"),
        "fock.operator_side_max": metric(result["operator_side_max"], "count"),
        "fock.verify.self_s": metric(layer("fock.verify", "self_s"), "s"),
        "fock.density.self_s": metric(layer("fock.density", "self_s"), "s"),
        "fock.partial_trace.self_s": metric(layer("fock.partial_trace", "self_s"), "s"),
        "fock.rld_fisher.self_s": metric(layer("fock.rld_fisher", "self_s"), "s"),
        "linalg.trace_distance.self_s": metric(layer("linalg.trace_distance", "self_s"), "s"),
        "linalg.trace_distance.calls": metric(layer("linalg.trace_distance", "calls"), "count"),
        "bounds.self_s": metric(layer("bounds", "self_s"), "s"),
        "import.dtslab_s": metric(statistics.median(p[0] for p in probes), "s"),
        "import.scipy_s": metric(statistics.median(p[1] for p in probes), "s"),
        "trace.overhead_s": metric(result["traced_wall_s"] - result["untraced_wall_s"], "s"),
    })
    metrics.update(throughput(result, result["untraced_wall_s"]))
    report.update(layers=layers, untraced_wall_s=result["untraced_wall_s"],
                  traced_wall_s=result["traced_wall_s"], importtime_samples_s=probes,
                  computed_counts=[name for name, m in metrics.items()
                                   if m["unit"] in ("count", "bytes")])
    return metrics, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dtslab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (SRC / "dtslab" / "__init__.py").is_file():
            raise BenchError(f"no dtslab sources under {SRC}")
        report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "machine": machine_facts()}
        measure = per_layer if args.trace else end_to_end
        metrics, result = measure(args.seed, args.seconds, args.workload, report)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    failures = result["failures"]
    report.update(determinism_gate=result.get("determinism_gate"), failures=failures[:20])
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not failures,
        "attempted": result["attempted"],
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
