"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Criterion 6 contains one known-red sub-case (the almost-periodic forcing
at the stated horizon/threshold); the failure message documents the
measured value and the cross-checked convergence behaviour.
"""

import math
import time

import numpy as np
import pytest

from lurelab import apsignals, comparison
from lurelab.certcore import (FiniteDifferenceLyapunov, certify_p,
                              construct_iss_lyapunov, construct_q_certificate,
                              detectability_check, lmi_verify)
from lurelab.experiments import (derive_sector_candidates, preset_one_mass,
                                 preset_two_mass, preset_wec, run_entrainment,
                                 two_mass_matrices)
from lurelab.sectorcore import (CompactSetSpec, HypothesisGrid, SectorData,
                                neg_identity_nonlinearity, power_law_eval,
                                sector_epsilon, verify_sector_hypotheses)
from lurelab.simcore import (fit_exponential, incremental_gap,
                             lyapunov_monotonicity, simulate)

GAP_THRESHOLD = 1e-2
RESIDUAL_THRESHOLD = 5e-3


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def two_mass():
    return preset_two_mass(verify=True)


@pytest.fixture(scope="module")
def entrainment_runs(two_mass):
    """The four benchmark runs at the stated horizon and step."""
    t0 = time.perf_counter()
    runs = {
        name: run_entrainment(two_mass, name, horizon=100.0, dt=1e-3)
        for name in ("v_p", "v_s", "v_ap", "v_aap")
    }
    return runs, time.perf_counter() - t0


def test_criterion_1_certificate_exactness():
    tol = 1e-10
    cases = []
    t0 = time.perf_counter()
    p1 = preset_one_mass(m=0.8, k=1.9, verify=False)
    v1 = lmi_verify(p1.triple, p1.p_cert)
    cases.append(("one-mass", v1, time.perf_counter() - t0))

    t0 = time.perf_counter()
    triple2, P2 = two_mass_matrices()
    v2 = lmi_verify(triple2, P2)
    cases.append(("two-mass", v2, time.perf_counter() - t0))

    t0 = time.perf_counter()
    pw = preset_wec(verify=False)
    v3 = lmi_verify(pw.triple, pw.p_cert)
    cases.append(("wec", v3, time.perf_counter() - t0))

    ok = all(v.ok and v.block_eig_max <= tol * v.scale and dt < 1.0
             for _, v, dt in cases)
    report(1, ok, "; ".join(
        f"{n}: max block eig {v.block_eig_max:.1e} in {dt * 1e3:.0f} ms"
        for n, v, dt in cases))
    for name, verdict, elapsed in cases:
        assert verdict.ok, name
        assert verdict.block_eig_max <= tol * verdict.scale, name
        assert elapsed < 1.0, name


def test_criterion_2_dissipation_identity():
    t0 = time.perf_counter()
    triple, P = two_mass_matrices()
    closed = triple.A - triple.B @ triple.C
    M = closed.T @ P + P @ closed
    rng = np.random.default_rng(20_240_101)
    xs = rng.uniform(-5.0, 5.0, size=(10_000, 4))
    lhs = np.einsum("ij,jk,ik->i", xs, M, xs)
    rhs = -2.0 * xs[:, 1] ** 2 - 2.0 * (xs[:, 1] - xs[:, 3]) ** 2
    rel = float(np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs))))
    elapsed = time.perf_counter() - t0
    ok = rel <= 1e-9 and elapsed < 1.0
    report(2, ok, f"max relative error {rel:.2e} over 10^4 points "
                  f"in {elapsed * 1e3:.0f} ms")
    assert rel <= 1e-9
    assert elapsed < 1.0


def test_criterion_3_power_law_inequality():
    t0 = time.perf_counter()
    zs = np.linspace(0.0, 3.0, 200)
    Z1, Z2 = np.meshgrid(zs, zs, indexing="ij")
    worst = math.inf
    for d in (1, 2, 3, 4):
        g1 = power_law_eval(0.0, 1.0, d, Z1)
        g2 = power_law_eval(0.0, 1.0, d, Z2)
        h = (Z1 - Z2) * (g1 - g2)
        margin = h - (Z1 - Z2) ** (d + 2)
        mask = Z1 >= Z2
        worst = min(worst, float(np.min(margin[mask])))
    elapsed = time.perf_counter() - t0
    ok = worst >= -1e-12 and elapsed < 5.0
    report(3, ok, f"min margin {worst:.2e} on 200x200 grid, d in 1..4, "
                  f"{elapsed:.2f} s")
    assert worst >= -1e-12
    assert elapsed < 5.0


def test_criterion_4_hypothesis_suite(two_mass):
    t0 = time.perf_counter()
    f = two_mass.system.f
    lines = []
    for radius in (1.0, 2.0, 5.0):
        gamma = CompactSetSpec.ball(2, radius)
        grid = HypothesisGrid(radius=10.0, n_gamma=15)
        cand = derive_sector_candidates(f, gamma, grid)
        rep = verify_sector_hypotheses(f, gamma, cand, grid)
        assert rep.upper_envelope.passed, radius
        assert rep.monotonicity.passed, radius
        assert rep.monotonicity_kinf.passed, radius
        assert rep.alignment.passed, radius
        assert not rep.strong_monotonicity.passed, radius
        lines.append(f"r={radius:g}: A1-A4 pass, A5 fails")
    neg = neg_identity_nonlinearity(2)
    gamma = CompactSetSpec.ball(2, 1.0)
    grid = HypothesisGrid(radius=10.0, n_gamma=15)
    cand = derive_sector_candidates(neg, gamma, grid)
    rep = verify_sector_hypotheses(neg, gamma, cand, grid)
    assert not rep.monotonicity.passed
    assert rep.monotonicity.at is not None and "y" in rep.monotonicity.at
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0
    report(4, ok, "; ".join(lines)
           + f"; sign violation located at y={rep.monotonicity.at['y']}"
           + f" [{elapsed:.1f} s]")
    assert elapsed < 30.0


def test_criterion_5_unforced_monotonicity(two_mass):
    t0 = time.perf_counter()
    rng = np.random.default_rng(55)
    one_mass = preset_one_mass(verify=False)
    worst = -math.inf
    for preset, n_state, scale in ((one_mass, 2, 2.0), (two_mass, 4, 1.0)):
        zero = preset.forcings["zero"]
        # one batch of 10: the same draws in the same order, and each row
        # is bit-identical to its own K = 1 run
        x0s = rng.uniform(-scale, scale, (10, n_state))
        trajs = simulate(preset.system, x0s, zero, 10.0, 1e-3)
        for x0, traj in zip(x0s, trajs):
            res = lyapunov_monotonicity(traj, preset.p_cert)
            assert res.passed, (preset.name, x0, res)
            worst = max(worst, res.max_increase)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    report(5, ok, f"20 unforced runs, worst V_P increase {worst:.2e} "
                  f"[{elapsed:.0f} s]")
    assert elapsed < 60.0


@pytest.mark.parametrize("forcing", ["v_p", "v_s", "v_ap", "v_aap"])
def test_criterion_6_entrainment_gap(entrainment_runs, forcing):
    runs, _ = entrainment_runs
    res = runs[forcing]
    ok = res.final_decile_sup <= GAP_THRESHOLD
    report(6, ok, f"{forcing}: final-decile gap {res.final_decile_sup:.2e} "
                  f"(threshold {GAP_THRESHOLD:g})")
    assert res.final_decile_sup <= GAP_THRESHOLD, (
        f"{forcing}: final-decile gap {res.final_decile_sup:.3e} exceeds "
        f"{GAP_THRESHOLD:g} at horizon 100 / dt 1e-3. The pair does "
        "converge (gap ~1e-3 by t=150, ~1e-5 by t=300; cross-checked with "
        "an independent adaptive integrator), but the high-frequency "
        "forcing excites a small-amplitude response whose position "
        "transient decays too slowly for this horizon/threshold "
        "combination.")


def test_criterion_6_periodicity_and_runtime(entrainment_runs):
    runs, elapsed = entrainment_runs
    res = runs["v_p"]
    ok = (res.periodicity_residual is not None
          and res.periodicity_residual <= RESIDUAL_THRESHOLD
          and elapsed < 300.0)
    report(6, ok, f"v_p periodicity residual {res.periodicity_residual:.2e} "
                  f"(threshold {RESIDUAL_THRESHOLD:g}); four runs took "
                  f"{elapsed:.0f} s")
    assert res.periodicity_residual is not None
    assert res.periodicity_residual <= RESIDUAL_THRESHOLD
    assert elapsed < 300.0


def test_criterion_7_incremental_envelope(two_mass, entrainment_runs):
    t0 = time.perf_counter()
    runs, _ = entrainment_runs
    v = two_mass.forcings["v_p"]
    train = runs["v_p"].gap
    fit = fit_exponential(train, window=(10.0, 100.0))
    # envelope constant: smallest M that covers the training curve
    env_m = float(np.max(
        train.values / (max(train.initial(), 1e-300)
                        * np.exp(-fit.gamma * train.times)))) * 1.05
    # held-out pair within the data radius: ||x0|| + ||v||_inf <= 2
    rng = np.random.default_rng(77)
    x1 = rng.standard_normal(4)
    x1 *= 0.9 / np.linalg.norm(x1)
    x2 = rng.standard_normal(4)
    x2 *= 0.3 / np.linalg.norm(x2)
    ta, tb = simulate(two_mass.system, np.stack([x1, x2]), v, 100.0, 1e-3)
    held = incremental_gap(ta, tb, v, v)
    mask = held.times >= 10.0
    bound = env_m * held.initial() * np.exp(-fit.gamma * held.times[mask])
    coverage = float(np.mean(held.values[mask] <= bound))
    elapsed = time.perf_counter() - t0
    ok = fit.gamma > 0 and fit.residual < 0.5 and coverage >= 0.99 \
        and elapsed < 120.0
    report(7, ok, f"gamma {fit.gamma:.4f}, residual {fit.residual:.3f}, "
                  f"held-out coverage {100 * coverage:.2f}% [{elapsed:.0f} s]")
    assert fit.gamma > 0
    assert fit.residual < 0.5
    assert coverage >= 0.99
    assert elapsed < 120.0


def test_criterion_8_signal_oracles(entrainment_runs):
    t0 = time.perf_counter()
    sin_sig = apsignals.SignalSpec(
        "sin2pi", lambda ts: np.sin(2 * math.pi * np.asarray(ts))[:, None],
        1, tag="periodic", period=1.0)
    norm = apsignals.stepanov_norm(sin_sig, 10.0)
    norm_ok = abs(norm - 2.0 / math.pi) <= 1e-3

    forcings = apsignals.make_example_forcings()
    v_p = forcings["v_p"]
    tau_p = v_p.period
    scan = apsignals.stepanov_period_scan(
        v_p, 0.05, (0.5 * tau_p, 5.2 * tau_p), scan_range=(0.0, 30.0))
    period_dists = []
    for k in range(1, 6):
        i = int(np.argmin(np.abs(scan.taus - k * tau_p)))
        period_dists.append(scan.distances[i])
    scan_ok = max(period_dists) <= 1e-10

    v_ap = forcings["v_ap"]
    mags = [float(np.linalg.norm(
        apsignals.fourier_coefficient(v_ap, lam, 500.0)))
        for lam in (2 * math.pi, 2 * math.sqrt(2) * math.pi)]
    fourier_ok = all(abs(m - 0.5) <= 1e-2 for m in mags)

    runs, _ = entrainment_runs
    verdict = runs["v_ap"].module_verdict
    module_ok = verdict is not None and bool(verdict)

    elapsed = time.perf_counter() - t0
    ok = norm_ok and scan_ok and fourier_ok and module_ok and elapsed < 120.0
    report(8, ok, f"stepanov norm err {abs(norm - 2 / math.pi):.1e}; "
                  f"period distances <= {max(period_dists):.1e}; "
                  f"fourier magnitudes {mags[0]:.3f}/{mags[1]:.3f}; "
                  f"module contained {module_ok} [{elapsed:.0f} s]")
    assert norm_ok and scan_ok and fourier_ok and module_ok
    assert elapsed < 120.0


def test_criterion_9_numerics_hygiene(two_mass):
    from lurelab.certcore import LinearTriple
    from lurelab.sectorcore import custom_nonlinearity
    from lurelab.simcore import LureSystem

    # RK4 order on the closed-form linear test
    zero_f = custom_nonlinearity(lambda t, y: np.zeros_like(y), 1)
    scalar = LureSystem(
        LinearTriple(np.array([[-1.0]]), np.array([[1.0]]), np.array([[1.0]])),
        zero_f)
    errs = []
    for dt in (0.2, 0.1):
        traj = simulate(scalar, np.array([1.0]), apsignals.zero_signal(1),
                        2.0, dt)
        errs.append(abs(traj.states[-1, 0] - math.exp(-2.0)))
    ratio = errs[0] / errs[1]
    ratio_ok = 12.0 <= ratio <= 20.0

    # analytic gradient of the composite Lyapunov function
    p1 = preset_one_mass(verify=True)
    theta, alpha = p1.candidates.theta, p1.candidates.alpha
    sector = SectorData(theta, alpha, mu=p1.candidates.mu,
                        c=p1.candidates.c, variant="F")
    inner = comparison.from_callable(lambda s: s + theta(s), "Kinf")
    weight = comparison.from_callable(
        lambda s: 2.0 * (s**2 + theta(s) ** 2), "Kinf")
    budget = comparison.from_callable(lambda s: s * alpha(s), "Kinf")
    gain = comparison.compose_gain(inner, weight, budget, sector.mu)
    V = construct_iss_lyapunov(p1.triple, p1.p_cert, p1.system.q_cert,
                               gain, sector_epsilon(sector))
    fd = FiniteDifferenceLyapunov(V.value)
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        z = rng.uniform(-10.0, 10.0, 2)
        g = V.gradient(z)
        worst = max(worst, float(np.linalg.norm(g - fd.gradient(z))
                                 / (1.0 + np.linalg.norm(g))))
    grad_ok = worst <= 1e-5

    # bit-reproducibility
    v = two_mass.forcings["v_s"]
    x0 = np.array([0.25, 0.25, -0.05, -0.025])
    a = simulate(two_mass.system, x0, v, 3.0, 1e-3)
    b = simulate(two_mass.system, x0, v, 3.0, 1e-3)
    repro_ok = np.array_equal(a.states, b.states)

    ok = ratio_ok and grad_ok and repro_ok
    report(9, ok, f"RK4 ratio {ratio:.1f}; gradient worst rel {worst:.1e}; "
                  f"bit-reproducible {repro_ok}")
    assert ratio_ok
    assert grad_ok
    assert repro_ok
