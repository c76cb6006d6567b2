"""Command-line front-end: bounds | simulate | oracle-check.

Exit codes are a stable contract: 0 success, 1 a failed `oracle-check`
verdict, 2 usage/input error, 3 mathematical-domain error.

All randomized output is fully determined by --seed.  Simulation runs on
one thread, one chunk of trials at a time; --threads is accepted and
ignored, so summaries are byte-identical for any value.  Summary JSON
carries the deterministic run description (config echo, algorithm
identifiers, version); volatile facts (command line, wall time) go to a
.manifest.json file written next to --out (or the trial CSV without it).
No exit other than 0 leaves an output file: each is written beside its
path and renamed onto it only when the run has succeeded.

--trial-csv writes one CSV row per trial, chunk by chunk as the trials
are reduced, through `csvtext.RowWriter`: the bytes `csv.writer` would
write, with the IEEE squares of the errors.  It may not name the --out
file or its manifest.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__, csvtext, fock, rng
from .bounds import (
    ThetaPoint,
    WeightMatrix,
    c_r_closed_2param,
    c_r_closed_3param,
    c_r_general,
    load_weight,
    optimal_gaussian_tradeoff,
)
from .errors import DomainError
from .estimator import (
    ExperimentConfig,
    ProtocolKind,
    compare_to_bounds,
    monte_carlo_mse,
)

_ALGORITHMS = {
    "rng": rng.MIXER_NAME,
    "gaussian": rng.GAUSSIAN_NAME,
    "gamma": rng.GAMMA_NAME,
    "poisson": rng.POISSON_NAME,
    "estimates": "sufficient-statistics",
    "trial_csv": "shortest-repr-ieee-squares",
}

_CELL_SEED_STEP = 1000003  # cell c of the --ratio-table grid, c < 18, runs at seed + c * step

CSV_COLUMNS = (
    "trial",
    "zeta_hat_re",
    "zeta_hat_im",
    "n_hat",
    "err_sq_theta1",
    "err_sq_theta2",
    "err_sq_n",
)


def _theta_from_args(args) -> ThetaPoint:
    by_theta = args.theta1 is not None or args.theta2 is not None
    by_zeta = args.zeta_re is not None or args.zeta_im is not None
    if by_theta and by_zeta:
        raise ValueError("give either --theta1/--theta2 or --zeta-re/--zeta-im, not both")
    if by_theta:
        return ThetaPoint(args.theta1 or 0.0, args.theta2 or 0.0, args.n_mean)
    return ThetaPoint.from_zeta(complex(args.zeta_re or 0.0, args.zeta_im or 0.0), args.n_mean)


def _theta_echo(theta: ThetaPoint) -> dict:
    return {
        "theta1": theta.theta1,
        "theta2": theta.theta2,
        "zeta_re": theta.zeta.real,
        "zeta_im": theta.zeta.imag,
        "n_mean": theta.n_mean,
    }


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def cmd_bounds(args, argv) -> int:
    weight = load_weight(args.weight or ("identity2" if args.known_n else "identity3"))
    if args.known_n and weight.dim != 2:
        raise ValueError("--known-n requires a 2x2 weight matrix")
    n_mean = args.n_mean
    general = c_r_general(weight, n_mean)
    if weight.dim == 2:
        closed = c_r_closed_2param(*weight.two_param_gs(), n_mean)
    else:
        closed = c_r_closed_3param(*weight.three_param_gs(), n_mean)
    try:
        tradeoff = optimal_gaussian_tradeoff(*weight.two_param_gs(), n_mean)
    except DomainError:
        tradeoff = None  # a rank-deficient block, g1 = 0 included: no finite squeeze, reported as null

    payload = {
        "n_mean": n_mean,
        "weight": weight.entries.tolist(),
        "c_r_general": general,
        "c_r_closed": closed,
        "difference": general - closed,
        "squeeze": None
        if tradeoff is None
        else {
            "r": tradeoff.squeeze_r,
            "angle": tradeoff.squeeze_angle,
            "achieved": tradeoff.achieved,
        },
        "version": __version__,
    }
    if args.json:
        sys.stdout.write(_dump_json(payload))
        return 0
    print(f"C_R (general matrix formula) = {general:.12g}")
    print(f"C_R (closed form)            = {closed:.12g}")
    print(f"difference                   = {general - closed:.3e}")
    if tradeoff is not None:
        print(
            f"optimal squeezed heterodyne: r = {tradeoff.squeeze_r:.6g}, "
            f"angle = {tradeoff.squeeze_angle:.6g}, achieved = {tradeoff.achieved:.12g}"
        )
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _config_value(action: argparse.Action, value):
    """A --config value, checked and typed as its flag's command-line text would be."""
    if action.nargs == 0:  # store_true
        ok, expected = isinstance(value, bool), "true or false"
    elif action.type is None:
        ok = isinstance(value, str) and (action.choices is None or value in action.choices)
        expected = "a string" if action.choices is None else f"one of {', '.join(action.choices)}"
    else:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        expected = f"a number of type {action.type.__name__}"
        if ok:
            try:
                value = action.type(str(value))  # the text form: int refuses 10.5
            except ValueError:
                ok = False
    if not ok:
        raise ValueError(f"must be {expected}, got {value!r}")
    return value


def _merge_config_file(args) -> None:
    if not args.config:
        return
    with open(args.config, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"config file {args.config!r} must contain a JSON object")
    actions = {a.dest: a for a in args.parser._actions if a.dest not in ("help", "config")}
    for key, value in data.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise ValueError(f"config file {args.config!r} has unknown key {key!r}")
        try:
            value = _config_value(action, value)
        except ValueError as exc:
            raise ValueError(f"config file {args.config!r}: key {key!r} {exc}") from None
        if getattr(args, action.dest) is None:
            setattr(args, action.dest, value)


def _staged(staged: list, path: str):
    """Open the file that takes the output meant for `path`.

    For a regular file, or a new one, that is a new file beside the file
    the path resolves to, which the run renames onto it once it has
    succeeded.  Anything else, such as a directory or /dev/null, is opened
    as itself, so a directory is refused here, as writing it would be.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        return open(path, "wb")
    target = os.path.realpath(path)  # a symbolic link keeps pointing at its output
    temporary = f"{target}.{os.getpid()}.tmp"
    try:
        fh = open(temporary, "wb")
    except OSError as exc:  # name the output, as opening it would
        raise OSError(exc.errno, exc.strerror, path) from None
    staged.append((temporary, target))
    return fh


def _refuse_colliding_outputs(out: str | None, trial_csv: str | None) -> None:
    """Refuse a trial CSV that would share a file with the summary or the manifest."""
    if not (out and trial_csv):
        return  # the manifest of a lone output is that path plus a suffix
    csv_path = os.path.realpath(trial_csv)
    if csv_path == os.path.realpath(out):
        raise ValueError(f"--out and --trial-csv name the same file {out!r}")
    if csv_path == os.path.realpath(out + ".manifest.json"):
        raise ValueError(
            f"--trial-csv {trial_csv!r} is the manifest that --out {out!r} writes"
        )


def _summary_payload(config: ExperimentConfig, mse, comparison) -> dict:
    return {
        "protocol": config.protocol.value,
        "theta": _theta_echo(config.theta),
        "n_copies": config.n_copies,
        "trials": config.trials,
        "seed": config.seed,
        "clip_nonneg": config.clip_nonneg,
        "weight": config.weight.entries.tolist(),
        "mse_entries": mse.entries.tolist(),
        "n_trace_gv": mse.n_trace_gv,
        "se": mse.se_trace,
        "c_r": comparison.c_r,
        "ratio": comparison.ratio,
        "ratio_se": comparison.ratio_se,
        "expected_ratio_large_n": comparison.expected_ratio_large_n,
        "algorithms": _ALGORITHMS,
        "version": __version__,
    }


def cmd_simulate(args, argv) -> int:
    """One run, or the --ratio-table grid; no exit other than 0 leaves an output file.

    Every output is written to a temporary file beside its path, and all of
    them are renamed onto their paths only once the run and its summary
    have succeeded; any exception removes them.
    """
    _merge_config_file(args)
    # a stream key takes the seed as a 64-bit word, so every run's seed must be one
    seed = args.seed if args.seed is not None else 0
    top = 2**64 - 1 - (17 * _CELL_SEED_STEP if args.ratio_table else 0)
    if not 0 <= seed <= top:
        raise ValueError(f"--seed must be in [0, {top}], got {seed}")
    if args.ratio_table:
        for dest in ("protocol", "n_mean", "theta1", "theta2", "zeta_re", "zeta_im",
                     "n_copies", "weight", "clip_nonneg", "trial_csv"):
            if getattr(args, dest) is not None:  # a flag, or a --config key
                raise ValueError(f"--ratio-table runs a fixed grid; drop --{dest.replace('_', '-')}")
    else:
        if args.protocol is None:
            raise ValueError("--protocol is required (collective | separable | known-n)")
        if args.n_mean is None:
            raise ValueError("--n-mean is required")
        n_copies = args.n_copies if args.n_copies is not None else 100
        if n_copies < 2:
            raise ValueError(f"--n-copies must be at least 2, got {n_copies}")
    trials = args.trials if args.trials is not None else (20000 if args.ratio_table else 100000)
    if trials < 100:
        raise ValueError(f"--trials must be at least 100, got {trials}")
    _refuse_colliding_outputs(args.out, args.trial_csv)
    staged = []  # (temporary, path) of each output written so far
    try:
        start_time = time.perf_counter()
        if args.ratio_table:
            payload = _ratio_table(seed, trials, args.json)
        else:
            payload = _single_run(args, seed, trials, n_copies, staged)
        wall = time.perf_counter() - start_time
        summary = _dump_json(payload)
        if args.json or not args.ratio_table:
            sys.stdout.write(summary)
        outputs = [path for path in (args.out, args.trial_csv) if path]
        if args.out:
            with _staged(staged, args.out) as fh:
                fh.write(summary.encode())
        if outputs:
            manifest = {
                "command": "dtslab " + " ".join(argv),
                "wall_time_s": wall,
                "outputs": outputs,
                "version": __version__,
                "algorithms": _ALGORITHMS,
            }
            with _staged(staged, outputs[0] + ".manifest.json") as fh:
                fh.write(_dump_json(manifest).encode())
        for temporary, path in staged:
            os.replace(temporary, path)
    except BaseException:
        for temporary, _ in staged:
            if os.path.exists(temporary):
                os.remove(temporary)
        raise
    return 0


def _single_run(args, seed: int, trials: int, n_copies: int, staged: list) -> dict:
    protocol = ProtocolKind(args.protocol)
    theta = _theta_from_args(args)
    weight = load_weight(
        args.weight or ("identity2" if protocol is ProtocolKind.KNOWN_N_HETERODYNE else "identity3")
    )
    config = ExperimentConfig(
        protocol=protocol,
        theta=theta,
        n_copies=n_copies,
        trials=trials,
        seed=seed,
        weight=weight,
        clip_nonneg=bool(args.clip_nonneg),
    )
    if not args.trial_csv:
        mse = monte_carlo_mse(config)
    else:
        with _staged(staged, args.trial_csv) as fh:
            writer = csvtext.RowWriter(fh, CSV_COLUMNS)

            def sink(start, zeta_hat, n_hat, errors):
                # IEEE products are the correctly rounded squares, which libm's
                # pow (float ** 2) is not always; the MSE reduction uses them too
                squares = list((errors * errors).T)
                if len(squares) == 2:
                    squares.append(None)
                writer.write(start, [zeta_hat.real, zeta_hat.imag, n_hat, *squares])

            mse = monte_carlo_mse(config, trial_sink=sink)
    return _summary_payload(config, mse, compare_to_bounds(mse, config))


def _ratio_table(seed: int, trials: int, as_json: bool) -> dict:
    """Artifact convenience grid: collective vs separable ratio over (N, n); its summary.

    Unless `as_json`, the grid is printed here as a table.
    """
    weight = WeightMatrix.identity(3)
    rows = []
    cell = 0
    for n_mean in (0.5, 1.0, 2.0):
        for n_copies in (10, 100, 1000):
            theta = ThetaPoint.from_zeta(0.5 + 0j, n_mean)
            cell_rows = {}
            for protocol in (
                ProtocolKind.COLLECTIVE_CONCENTRATION,
                ProtocolKind.SEPARABLE_HETERODYNE,
            ):
                config = ExperimentConfig(
                    protocol=protocol,
                    theta=theta,
                    n_copies=n_copies,
                    trials=trials,
                    seed=seed + _CELL_SEED_STEP * cell,
                    weight=weight,
                )
                cell += 1
                mse = monte_carlo_mse(config)
                cell_rows[protocol.value] = compare_to_bounds(mse, config)
            rows.append(
                {
                    "n_mean": n_mean,
                    "n_copies": n_copies,
                    "collective_ratio": cell_rows["collective"].ratio,
                    "collective_se": cell_rows["collective"].ratio_se,
                    "separable_ratio": cell_rows["separable"].ratio,
                    "separable_se": cell_rows["separable"].ratio_se,
                    "c_r": cell_rows["collective"].c_r,
                }
            )
    if not as_json:
        print("artifact ratio grid (n*TrV / C_R, identity weight)")
        print(f"{'N':>5} {'n':>6} {'collective':>12} {'separable':>12} {'C_R':>8}")
        for row in rows:
            print(
                f"{row['n_mean']:>5.2f} {row['n_copies']:>6d} "
                f"{row['collective_ratio']:>12.4f} {row['separable_ratio']:>12.4f} "
                f"{row['c_r']:>8.3f}"
            )
    return {
        "table": rows,
        "trials": trials,
        "seed": seed,
        "weight": weight.entries.tolist(),
        "note": "artifact output: empirical n*Tr(V)/C_R grid, identity weight",
        "algorithms": _ALGORITHMS,
        "version": __version__,
    }


# ---------------------------------------------------------------------------
# oracle-check
# ---------------------------------------------------------------------------

def cmd_oracle_check(args, argv) -> int:
    checks = fock.oracle_checks(complex(args.zeta_re, args.zeta_im), args.n_mean, 3 if args.deep else 2)
    ok = all(c["pass"] for c in checks)
    if args.json:
        sys.stdout.write(_dump_json({"checks": checks, "pass": ok, "version": __version__}))
    else:
        for c in checks:
            status = "PASS" if c["pass"] else "FAIL"
            print(f"check {c['name']:<22} max dev {c['max_dev']:.3e}  tol {c['tol']:.1e}  {status}")
        if not ok:
            failing = ", ".join(c["name"] for c in checks if not c["pass"])
            print(f"FAILED: {failing}", file=sys.stderr)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtslab",
        description="Estimation bounds and Monte Carlo experiments for displaced thermal states.",
    )
    parser.add_argument("--version", action="version", version=f"dtslab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="print Cramér-Rao type bound values")
    p_bounds.add_argument("--n-mean", type=float, required=True, help="mean thermal photon number")
    p_bounds.add_argument("--weight", help="weight matrix: identity2, identity3, or a file path")
    p_bounds.add_argument("--known-n", action="store_true", help="two-parameter case (N known)")
    p_bounds.add_argument("--json", action="store_true")
    p_bounds.set_defaults(func=cmd_bounds)

    p_sim = sub.add_parser("simulate", help="Monte Carlo MSE against the bound")
    p_sim.add_argument("--protocol", choices=[p.value for p in ProtocolKind])
    p_sim.add_argument("--n-mean", type=float)
    p_sim.add_argument("--theta1", type=float)
    p_sim.add_argument("--theta2", type=float)
    p_sim.add_argument("--zeta-re", type=float)
    p_sim.add_argument("--zeta-im", type=float)
    p_sim.add_argument("--n-copies", type=int)
    p_sim.add_argument("--trials", type=int)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--weight")
    # store_true flags default to None so that --config can tell them unset
    p_sim.add_argument(
        "--clip-nonneg",
        action="store_true",
        default=None,
        help="clip photon-number estimates at 0 (default: record them raw)",
    )
    p_sim.add_argument(
        "--threads", type=int, help="accepted and ignored: simulation runs on one thread"
    )
    p_sim.add_argument("--out", help="write the summary JSON here (plus a .manifest.json)")
    p_sim.add_argument("--trial-csv", help="write per-trial records to this CSV file")
    p_sim.add_argument("--config", help="JSON file mirroring the flags; flags override it")
    p_sim.add_argument(
        "--json",
        action="store_true",
        default=None,
        help="print the --ratio-table grid as JSON; a single run always prints JSON",
    )
    p_sim.add_argument(
        "--ratio-table",
        action="store_true",
        default=None,
        help="emit the collective-vs-separable ratio grid over N x n instead of one run",
    )
    p_sim.set_defaults(func=cmd_simulate, parser=p_sim)  # --config reads its actions

    p_oracle = sub.add_parser("oracle-check", help="certify analytic laws against the Fock oracle")
    p_oracle.add_argument("--n-mean", type=float, default=1.0)
    p_oracle.add_argument("--zeta-re", type=float, default=0.5)
    p_oracle.add_argument("--zeta-im", type=float, default=0.0)
    p_oracle.add_argument("--deep", action="store_true", help="also verify the n=3 cascade")
    p_oracle.add_argument("--json", action="store_true")
    p_oracle.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, list(argv))
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
