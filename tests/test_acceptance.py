"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run `pytest tests/test_acceptance.py -s` to see the lines as they execute.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import json
import math
import time

import numpy as np
import pytest

from dtslab import cli, fock
from dtslab.bounds import (
    ThetaPoint,
    WeightMatrix,
    c_r_closed_2param,
    c_r_closed_3param,
    c_r_general,
    optimal_gaussian_tradeoff,
    rld_inverse_2param,
    rld_inverse_3param,
)
from dtslab.estimator import (
    ExperimentConfig,
    ProtocolKind,
    monte_carlo_mse,
)
from dtslab.states import heterodyne_pdf, photon_pmf
from test_estimator import expected_finite_n_trace

N_GRID = (0.5, 1.0, 2.0)


def report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {status} {name}: {detail}")


def random_two_param_gs(rng):
    a = rng.normal(size=(2, 2))
    m = a @ a.T
    return (m[0, 0] + m[1, 1]) / 2, (m[0, 0] - m[1, 1]) / 2, m[0, 1]


def mc_config(protocol, trials=100_000, n_copies=100, n_mean=1.0, seed=42):
    dim = 2 if protocol is ProtocolKind.KNOWN_N_HETERODYNE else 3
    return ExperimentConfig(
        protocol=protocol,
        theta=ThetaPoint.from_zeta(0.7071 + 0j, n_mean),
        n_copies=n_copies,
        trials=trials,
        seed=seed,
        weight=WeightMatrix.identity(dim),
    )


@pytest.fixture(scope="module")
def collective_run():
    start = time.perf_counter()
    config = mc_config(ProtocolKind.COLLECTIVE_CONCENTRATION)
    mse = monte_carlo_mse(config)
    return config, mse, time.perf_counter() - start


@pytest.fixture(scope="module")
def separable_run():
    start = time.perf_counter()
    config = mc_config(ProtocolKind.SEPARABLE_HETERODYNE)
    mse = monte_carlo_mse(config)
    return config, mse, time.perf_counter() - start


def test_criterion_1_closed_form_consistency():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(100):
        g1, g2, g3 = random_two_param_gs(rng)
        weight = WeightMatrix(np.array([[g1 + g2, g3], [g3, g1 - g2]]))
        for n_mean in N_GRID:
            closed = c_r_closed_2param(g1, g2, g3, n_mean)
            general = c_r_general(weight, n_mean)
            worst = max(worst, abs(closed - general))
    for _ in range(100):
        g1, g2, g3 = random_two_param_gs(rng)
        g0 = rng.uniform(0.0, 2.0)
        weight = WeightMatrix(np.array([[g1 + g2, g3, 0.0], [g3, g1 - g2, 0.0], [0.0, 0.0, g0]]))
        for n_mean in N_GRID:
            closed = c_r_closed_3param(g0, g1, g2, g3, n_mean)
            general = c_r_general(weight, n_mean)
            worst = max(worst, abs(closed - general))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 1.0
    report(1, "closed-form consistency", ok, f"max |general - closed| = {worst:.2e} "
           f"(tol 1e-10), {elapsed:.2f} s (budget 1 s)")
    assert worst < 1e-10
    assert elapsed < 1.0


def test_criterion_2_rld_matrices_reproduced():
    # the truncated family's inverse is the same at every zeta (the argument
    # is in fock.truncated_rld_inverse; tests/test_fock.py checks it against a
    # dense reference at zeta != 0), so it is built at zeta = 0
    start = time.perf_counter()
    worst = 0.0
    for n_mean in N_GRID:
        inverse = fock.truncated_rld_inverse(n_mean)
        for block, closed in (
            (inverse[:2, :2], rld_inverse_2param(n_mean)),
            (inverse, rld_inverse_3param(n_mean)),
        ):
            dev = float(np.max(np.abs(block - closed)) / np.max(np.abs(closed)))
            worst = max(worst, dev)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 30.0
    report(2, "RLD matrices reproduced numerically", ok,
           f"max relative dev = {worst:.2e} (tol 1e-9), {elapsed:.1f} s (budget 30 s)")
    assert worst < 1e-9
    assert elapsed < 30.0


def test_criterion_3_measurement_laws():
    start = time.perf_counter()
    radius = 3.0 / math.sqrt(2.0)
    axis = np.linspace(-radius, radius, 5)
    worst_het = 0.0
    for zeta in (0j, 0.5 + 0j):
        for n_mean in (0.5, 1.0):
            cutoff = fock.cutoff_for(n_mean, 3.0 + abs(zeta))
            rho = fock.displaced_thermal_density(zeta, n_mean, cutoff)
            theta = ThetaPoint.from_zeta(zeta, n_mean)
            for re in axis:
                for im in axis:
                    alpha = complex(re, im)
                    dev = abs(
                        heterodyne_pdf(theta, alpha)
                        - fock.heterodyne_probability_density(rho, alpha)
                    )
                    worst_het = max(worst_het, dev)
    worst_pmf = 0.0
    for n_mean in (0.5, 1.0):
        cutoff = fock.cutoff_for(n_mean)
        thermal = fock.thermal_density(n_mean, cutoff)
        for k in range(cutoff):
            worst_pmf = max(worst_pmf, abs(photon_pmf(n_mean, k) - thermal[k, k].real))
    elapsed = time.perf_counter() - start
    ok = worst_het < 1e-6 and worst_pmf < 1e-12 and elapsed < 10.0
    report(3, "measurement-law certification", ok,
           f"heterodyne dev = {worst_het:.2e} (tol 1e-6), pmf dev = {worst_pmf:.2e} "
           f"(tol 1e-12), {elapsed:.1f} s (budget 10 s)")
    assert worst_het < 1e-6
    assert worst_pmf < 1e-12
    assert elapsed < 10.0


def test_criterion_4_concentration_identity():
    start = time.perf_counter()
    result = fock.verify_concentration_cascade(0.5, 0.5, n_copies=2)[0]
    elapsed = time.perf_counter() - start
    phi_exact = result.phi == math.pi / 4.0
    ok = result.dist_first < 1e-6 and result.dist_second < 1e-6 and phi_exact and elapsed < 20.0
    report(4, "concentration identity at n=2", ok,
           f"dist_first = {result.dist_first:.2e}, dist_second = {result.dist_second:.2e} "
           f"(tol 1e-6), phi == pi/4: {phi_exact}, {elapsed:.1f} s (budget 20 s)")
    assert result.dist_first < 1e-6
    assert result.dist_second < 1e-6
    assert phi_exact
    assert elapsed < 20.0


def test_criterion_5_collective_attains_bound(collective_run):
    config, mse, elapsed = collective_run
    # exact finite-n value 2(N+1) + n N(N+1)/(n-1) = 6.0202... at N=1, n=100
    expected = expected_finite_n_trace(config)
    bound = c_r_closed_3param(1.0, 1.0, 0.0, 0.0, 1.0)
    dev = abs(mse.n_trace_gv - expected)
    within_se = dev < 3.0 * mse.se_trace
    near_bound = abs(mse.n_trace_gv / bound - 1.0) < 0.02
    ok = within_se and near_bound and bound == 6.0 and elapsed < 60.0
    report(5, "collective attains C_R(I)", ok,
           f"n*TrV = {mse.n_trace_gv:.4f} vs exact {expected:.4f} "
           f"(dev {dev:.4f}, 3 SE = {3 * mse.se_trace:.4f}), C_R = {bound}, "
           f"{elapsed:.1f} s (budget 60 s)")
    assert within_se
    assert near_bound
    assert bound == 6.0
    assert elapsed < 60.0


def test_criterion_6_separable_gap(collective_run, separable_run):
    _, mse_coll, _ = collective_run
    config, mse_sep, _ = separable_run
    expected = expected_finite_n_trace(config)  # 2(N+1) + n (N+1)^2/(n-1) ~ 8.04
    dev = abs(mse_sep.n_trace_gv - expected)
    within_se = dev < 3.0 * mse_sep.se_trace
    near_8 = abs(expected - (1.0 + 1.0) * (1.0 + 3.0)) < 0.1
    gap = mse_sep.n_trace_gv - mse_coll.n_trace_gv
    gap_se = math.hypot(mse_sep.se_trace, mse_coll.se_trace)
    separated = gap > 5.0 * gap_se
    ok = within_se and near_8 and separated
    report(6, "separable strategy stays above the bound", ok,
           f"n*TrV = {mse_sep.n_trace_gv:.4f} vs exact {expected:.4f} "
           f"(dev {dev:.4f}, 3 SE = {3 * mse_sep.se_trace:.4f}); "
           f"gap = {gap:.4f} = {gap / gap_se:.0f} SE (needs >= 5)")
    assert within_se
    assert near_8
    assert separated


def test_criterion_7_known_n_heterodyne():
    config = mc_config(ProtocolKind.KNOWN_N_HETERODYNE)
    mse = monte_carlo_mse(config)
    bound = c_r_closed_2param(1.0, 0.0, 0.0, 1.0)
    dev = abs(mse.n_trace_gv - bound)
    ok = bound == 4.0 and dev < 3.0 * mse.se_trace
    report(7, "known-N heterodyne meets the two-parameter bound", ok,
           f"n*TrV = {mse.n_trace_gv:.4f} vs C_R = {bound} "
           f"(dev {dev:.4f}, 3 SE = {3 * mse.se_trace:.4f})")
    assert bound == 4.0
    assert dev < 3.0 * mse.se_trace


def test_criterion_8_gaussian_tradeoff():
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(50):
        g1 = rng.uniform(0.2, 2.0)
        magnitude = rng.uniform(0.0, 0.95) * g1
        angle = rng.uniform(0.0, 2.0 * math.pi)
        g2, g3 = magnitude * math.cos(angle), magnitude * math.sin(angle)
        n_mean = rng.uniform(0.3, 3.0)
        achieved = optimal_gaussian_tradeoff(g1, g2, g3, n_mean).achieved
        closed = c_r_closed_2param(g1, g2, g3, n_mean)
        worst = max(worst, abs(achieved - closed))
    ok = worst < 1e-6
    report(8, "squeezed-heterodyne trade-off achieves the closed form", ok,
           f"max |achieved - closed| = {worst:.2e} (tol 1e-6) over 50 random weights")
    assert worst < 1e-6


def test_criterion_9_determinism_across_threads(tmp_path, capsys):
    args = [
        "simulate", "--protocol", "collective", "--n-mean", "1", "--zeta-re", "0.7071",
        "--n-copies", "100", "--trials", "2000", "--seed", "42",
    ]
    out1, out2 = tmp_path / "run1.json", tmp_path / "run2.json"
    code1 = cli.main(args + ["--threads", "1", "--out", str(out1)])
    code2 = cli.main(args + ["--threads", "8", "--out", str(out2)])
    capsys.readouterr()
    identical = out1.read_bytes() == out2.read_bytes()
    ok = code1 == 0 and code2 == 0 and identical
    report(9, "summary JSON is byte-identical across --threads", ok,
           f"exit codes ({code1}, {code2}), identical bytes: {identical}")
    assert code1 == 0 and code2 == 0
    assert identical
    json.loads(out1.read_text())  # summary must stay valid JSON
