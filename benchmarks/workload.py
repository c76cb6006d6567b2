"""One benchmark workload, run in a fresh interpreter by ``run.py``.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python3 benchmarks/workload.py --workload mc-csv --seed 3 --seconds 25 \
        --mode timed --out-dir .bench_run

A single closed-loop client calls ``dtslab.cli.main(argv)`` in-process for
each operation of the workload, one after another, and checks every
operation's output.  ``--mode timed`` repeats passes over the operation list
for up to ``--seconds`` (at least two passes); ``--mode traced`` runs two
untraced passes and then traced passes (see ``tracer.py``).  The last stdout
line is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import inspect
import io
import json
import math
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import Tracer

THREADS = "2"
# correctness tolerance in standard errors of the estimated ratio
RATIO_SIGMAS = 5.0


@dataclass
class Op:
    """One CLI call, its expected output and the work it represents."""

    argv: list[str]
    kind: str  # "grid", "summary" or "oracle": selects the output check
    trials: int = 0
    copies: int = 0
    out: Path | None = None
    csv: Path | None = None


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

GRID_N_MEANS = (0.5, 1.0, 2.0)
GRID_COPIES = (10, 100, 1000)
GRID_TRIALS = 20000
CSV_PROTOCOLS = ("collective", "separable", "known-n")
CSV_COPIES = 10
CSV_TRIALS = 100000


def build_ops(workload: str, seed: int, out_dir: Path) -> list[Op]:
    if workload == "mc-grid":
        # the paper's headline artifact; per-copy sampling at n up to 1000
        argv = ["simulate", "--ratio-table", "--trials", str(GRID_TRIALS),
                "--threads", THREADS, "--seed", str(seed), "--json"]
        cells = len(GRID_N_MEANS) * len(GRID_COPIES) * 2
        copies = 2 * len(GRID_N_MEANS) * sum(GRID_COPIES) * GRID_TRIALS
        return [Op(argv, "grid", trials=cells * GRID_TRIALS, copies=copies)]
    if workload == "mc-csv":
        # cheap sampling at n = 10, so the CSV sink and output writing dominate
        ops = []
        for protocol in CSV_PROTOCOLS:
            out = out_dir / f"{protocol}.json"
            csv = out_dir / f"{protocol}.csv"
            argv = ["simulate", "--protocol", protocol, "--n-mean", "1", "--zeta-re", "0.5",
                    "--n-copies", str(CSV_COPIES), "--trials", str(CSV_TRIALS),
                    "--threads", THREADS, "--seed", str(seed),
                    "--trial-csv", str(csv), "--out", str(out)]
            ops.append(Op(argv, "summary", trials=CSV_TRIALS,
                          copies=CSV_TRIALS * CSV_COPIES, out=out, csv=csv))
        return ops
    if workload == "oracle":
        # Fock oracle only: cutoff 40 (1600-side two-mode operators) with the
        # n = 3 cascade, then N = 0.5 (cutoff 26, 676-side); no randomness,
        # so the seed does not enter
        return [Op(["oracle-check", "--deep", "--json"], "oracle"),
                Op(["oracle-check", "--n-mean", "0.5", "--json"], "oracle")]
    raise SystemExit(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# correctness checks
# ---------------------------------------------------------------------------

def finite_n_target(protocol: str, n_mean: float, n_copies: int) -> tuple[float, float]:
    """Exact finite-n value of n Tr(V)/C_R for identity weights, and C_R.

    The same closed forms as ``estimator.expected_finite_n_trace``, written
    out here so the check does not depend on the code it checks.
    """
    amplitude = 2.0 * (n_mean + 1.0)
    if protocol == "known-n":
        return 1.0, amplitude
    c_r = (n_mean + 1.0) * (n_mean + 2.0)
    if protocol == "collective":
        photon = n_copies * n_mean * (n_mean + 1.0) / (n_copies - 1.0)
    else:
        photon = n_copies * (n_mean + 1.0) ** 2 / (n_copies - 1.0)
    return (amplitude + photon) / c_r, c_r


def check_ratio(label, protocol, n_mean, n_copies, ratio, ratio_se, c_r) -> str | None:
    target, c_r_exact = finite_n_target(protocol, n_mean, n_copies)
    if not math.isclose(c_r, c_r_exact, rel_tol=1e-12):
        return f"{label}: c_r {c_r!r} != {c_r_exact!r}"
    if not (abs(ratio - target) <= RATIO_SIGMAS * ratio_se):
        return f"{label}: ratio {ratio!r} is not within {RATIO_SIGMAS} se ({ratio_se!r}) of {target!r}"
    return None


def check_op(op: Op, rc, stdout: str) -> tuple[str | None, bytes]:
    """Failure message (None when correct) and the bytes a rerun must repeat."""
    if rc != 0:
        return f"{op.argv[0]} exited with {rc!r}", b""
    if op.kind == "grid":
        payload = json.loads(stdout)
        rows = payload["table"]
        if len(rows) != len(GRID_N_MEANS) * len(GRID_COPIES):
            return f"ratio table has {len(rows)} rows", b""
        for row in rows:
            for protocol in ("collective", "separable"):
                msg = check_ratio(f"N={row['n_mean']} n={row['n_copies']} {protocol}", protocol,
                                  row["n_mean"], row["n_copies"], row[f"{protocol}_ratio"],
                                  row[f"{protocol}_se"], row["c_r"])
                if msg:
                    return msg, b""
        return None, stdout.encode()
    if op.kind == "summary":
        text = op.out.read_bytes()
        summary = json.loads(text)
        msg = check_ratio(summary["protocol"], summary["protocol"], summary["theta"]["n_mean"],
                          summary["n_copies"], summary["ratio"], summary["ratio_se"], summary["c_r"])
        if msg:
            return msg, b""
        with open(op.csv, "rb") as fh:
            lines = sum(1 for _ in fh)
        if lines != op.trials + 1:
            return f"{op.csv.name} has {lines} lines, expected {op.trials + 1}", b""
        return None, text
    payload = json.loads(stdout)
    failing = [c["name"] for c in payload["checks"] if c["pass"] is not True]
    if payload["pass"] is not True or failing or not payload["checks"]:
        return f"oracle checks failed: {failing}", b""
    return None, b""


# ---------------------------------------------------------------------------
# running operations
# ---------------------------------------------------------------------------

class Client:
    """Closed-loop client: one operation at a time, each output checked."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failures: list[str] = []
        self.outputs: dict[str, bytes] = {}  # argv -> bytes every rerun must repeat

    def call(self, op: Op, argv: list[str] | None = None, tracer: Tracer | None = None) -> float:
        """Run one operation; return its wall time.  Checks run outside the timing."""
        argv = op.argv if argv is None else argv
        buf = io.StringIO()
        error = None
        with contextlib.redirect_stdout(buf):
            start = time.perf_counter()
            try:
                if tracer is None:
                    rc = self.cli.main(argv)
                else:
                    rc = tracer.run_root("cli", self.cli.main, argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # a traceback is a failed operation, not a crash
                rc, error = None, f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - start
        self.attempted += 1
        try:
            msg, output = (error, b"") if error else check_op(op, rc, buf.getvalue())
        except (OSError, ValueError, KeyError, TypeError) as exc:
            msg, output = f"unreadable output: {type(exc).__name__}: {exc}", b""
        if msg is None and output:
            key = " ".join(op.argv)
            expected = self.outputs.setdefault(key, output)
            if output != expected:
                msg = "output differs from the first run of the same operation"
        if msg is not None:
            self.failures.append(f"{' '.join(argv)}: {msg}")
        return wall

    def run_pass(self, ops: list[Op], tracer: Tracer | None = None, threads: str | None = None) -> float:
        total = 0.0
        for op in ops:
            argv = op.argv if threads is None else with_threads(op.argv, threads)
            total += self.call(op, argv, tracer)
        return total


def with_threads(argv: list[str], threads: str) -> list[str]:
    if "--threads" not in argv:
        return argv
    argv = list(argv)
    argv[argv.index("--threads") + 1] = threads
    return argv


def determinism_gate(client: Client, ops: list[Op]) -> dict:
    """Summary JSON of one mc-csv operation at --threads 1 and 2 must match byte for byte.

    The client compares every run of an operation with its first run, so the
    threads-2 run is checked against the threads-1 run here, and every timed
    pass against both.
    """
    op = ops[0]
    failures = len(client.failures)
    digests = {}
    for threads in ("1", THREADS):
        client.call(op, with_threads(op.argv, threads))
        if op.out.exists():
            digests[threads] = hashlib.sha256(op.out.read_bytes()).hexdigest()
    return {"operation": " ".join(op.argv), "sha256": digests, "pass": len(client.failures) == failures}


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def install_tracer(tracer: Tracer, op_stats: dict) -> None:
    """Wrap the public functions of each dtslab layer.

    Work counts are computed from array shapes, so they repeat exactly for
    a given seed.  `op_stats` collects the dense two-mode operators (side
    cutoff^2) that cross the wrapped fock and linalg boundaries.
    """
    import numpy as np

    two_mode_sides = set()

    def note_operators(*arrays) -> int:
        for a in arrays:
            if isinstance(a, np.ndarray) and a.ndim == 2 and a.shape[0] in two_mode_sides:
                op_stats["operator_bytes"] += a.nbytes
                op_stats["operator_side_max"] = max(op_stats["operator_side_max"], a.shape[0])
        return 0

    def size(a, k, r):
        return int(np.size(r))

    def beam_splitter_sides(fn):
        def beam_splitter(phi, cutoff, *args, **kwargs):
            two_mode_sides.add(cutoff * cutoff)
            return fn(phi, cutoff, *args, **kwargs)

        return beam_splitter

    def trace_sink(fn):
        def monte_carlo_mse(config, *args, **kwargs):
            if kwargs.get("trial_sink") is not None:
                kwargs["trial_sink"] = tracer.span("cli.csv_sink", kwargs["trial_sink"])
            return fn(config, *args, **kwargs)

        return monte_carlo_mse

    tracer.patch("dtslab.rng", "uniform_block", "rng.uniform_block", count=size)
    tracer.patch("dtslab.rng", "box_muller", "rng.box_muller", count=lambda a, k, r: int(np.size(r)) // 2)
    tracer.patch("dtslab.states", "heterodyne_from_normal_pairs", "states.heterodyne", count=size)
    tracer.patch("dtslab.states", "photon_from_uniforms", "states.photon", count=size)
    tracer.patch("dtslab.estimator", "_chunk_estimates", "estimator.chunk")
    tracer.patch("dtslab.cli", "monte_carlo_mse", "estimator.mse", wrap=trace_sink)
    tracer.patch("dtslab.fock", "beam_splitter", "fock.beam_splitter",
                 count=lambda a, k, r: note_operators(r), wrap=beam_splitter_sides)
    tracer.patch("dtslab.fock", "expm", "fock.expm", count=lambda a, k, r: note_operators(a[0]))
    tracer.patch("dtslab.fock", "verify_concentration_n2", "fock.verify")
    tracer.patch("dtslab.fock", "verify_concentration_cascade", "fock.verify")
    tracer.patch("dtslab.fock", "displaced_thermal_density", "fock.density")
    tracer.patch("dtslab.fock", "partial_trace", "fock.partial_trace",
                 count=lambda a, k, r: note_operators(a[0]))
    tracer.patch("dtslab.fock", "numeric_rld_fisher", "fock.rld_fisher")
    tracer.patch("dtslab.fock", "trace_distance", "linalg.trace_distance",
                 count=lambda a, k, r: note_operators(a[0], a[1]))
    bounds = sys.modules["dtslab.bounds"]
    for name, fn in vars(bounds).copy().items():
        if inspect.isfunction(fn) and fn.__module__ == bounds.__name__ and not name.startswith("_"):
            tracer.patch("dtslab.bounds", name, "bounds")


def traced_pass(client: Client, ops: list[Op], threads: str | None, spans_path: Path) -> tuple[float, dict, dict]:
    tracer = Tracer()
    op_stats = {"operator_bytes": 0, "operator_side_max": 0}
    install_tracer(tracer, op_stats)
    try:
        wall = client.run_pass(ops, tracer, threads)
    finally:
        tracer.unpatch()
    with open(spans_path, "w", encoding="utf-8") as fh:
        for s in tracer.spans:
            fh.write(json.dumps(s.__dict__) + "\n")
    return wall, tracer.summary(), op_stats


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("timed", "traced"), required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args()

    import dtslab.cli as cli

    args.out_dir.mkdir(parents=True, exist_ok=True)
    ops = build_ops(args.workload, args.seed, args.out_dir)
    client = Client(cli)
    result = {
        "dtslab_file": cli.__file__,
        "trials_per_pass": sum(op.trials for op in ops),
        "copies_per_pass": sum(op.copies for op in ops),
    }

    if args.workload == "mc-csv":
        result["determinism_gate"] = determinism_gate(client, ops)

    if args.mode == "timed":
        # at least two passes, so even the oracle's ~20 s pass gets a median;
        # a further pass starts only if, at the length of the last one, it
        # ends within --seconds
        start = time.perf_counter()
        passes = [client.run_pass(ops), client.run_pass(ops)]
        while time.perf_counter() - start + passes[-1] <= args.seconds:
            passes.append(client.run_pass(ops))
        result["passes"] = passes
    else:
        # the first pass in a process pays page faults that later passes do
        # not, so the traced pass is compared with the second untraced pass
        result["warmup_wall_s"] = client.run_pass(ops)
        result["untraced_wall_s"] = client.run_pass(ops)
        spans = args.out_dir / f"spans-{args.workload}-{args.seed}"
        wall, summary, op_stats = traced_pass(client, ops, None, spans.with_suffix(".threads2.jsonl"))
        result.update(traced_wall_s=wall, layers=summary, **op_stats)
        if "estimator.mse" in summary:
            _, summary1, _ = traced_pass(client, ops, "1", spans.with_suffix(".threads1.jsonl"))
            result["mse_1thread_s"] = summary1["estimator.mse"]["total_s"]

    result["csv_bytes_per_pass"] = sum(op.csv.stat().st_size for op in ops if op.csv and op.csv.exists())
    result["attempted"] = client.attempted
    result["failures"] = client.failures
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
