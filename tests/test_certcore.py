import functools
import os
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lurelab import comparison
from lurelab.certcore import (CertificateP, FiniteDifferenceLyapunov,
                              LinearTriple, QuadraticForm, assemble_lmi_block,
                              certify_p, construct_iss_lyapunov,
                              construct_q_certificate, detectability_check,
                              hurwitz_check, iss_estimate, iss_lyapunov_check,
                              lmi_verify)
from lurelab.certcore import _adaptive_simpson, _matvec, _solve_lyapunov
from lurelab.experiments import preset_by_name, two_mass_matrices
from lurelab.sectorcore import SectorData
import oracles
from oracles import CachedIntegral, iss_kernel, recursive_simpson


def one_mass_triple(k=1.0, m=1.0):
    return LinearTriple(np.array([[0.0, 1.0], [-k / m, 0.0]]),
                        np.array([[0.0], [1.0 / m]]),
                        np.array([[0.0, 1.0]]))


# ---------------------------------------------------------------------------
# independent eigenvalue path: complex shifted QR iteration with deflation


def qr_eigenvalues(M, tol=1e-12, max_sweeps=50_000):
    A = np.array(M, dtype=complex)
    eigs = []
    m = A.shape[0]
    sweeps = 0
    while m > 1:
        sweeps += 1
        if sweeps > max_sweeps:
            raise RuntimeError("QR iteration did not converge")
        off = abs(A[m - 1, m - 2])
        if off <= tol * (abs(A[m - 1, m - 1]) + abs(A[m - 2, m - 2]) + 1e-300):
            eigs.append(A[m - 1, m - 1])
            m -= 1
            continue
        a, b = A[m - 2, m - 2], A[m - 2, m - 1]
        c, d = A[m - 1, m - 2], A[m - 1, m - 1]
        tr, det = a + d, a * d - b * c
        disc = np.sqrt(tr * tr / 4.0 - det + 0j)
        mu1, mu2 = tr / 2.0 + disc, tr / 2.0 - disc
        mu = mu1 if abs(mu1 - d) <= abs(mu2 - d) else mu2
        Q, R = np.linalg.qr(A[:m, :m] - mu * np.eye(m))
        A[:m, :m] = R @ Q + mu * np.eye(m)
    eigs.append(A[0, 0])
    return np.array(eigs)


class TestHurwitz:
    def test_negated_identity(self):
        res = hurwitz_check(-np.eye(2))
        assert res.hurwitz and res.abscissa == pytest.approx(-1.0)

    def test_one_mass_closed_loop(self):
        # A - BC at k = m = 1: roots of s^2 + s + 1, real part -1/2
        t = one_mass_triple()
        res = hurwitz_check(t.A - t.B @ t.C)
        assert res.hurwitz
        assert res.abscissa == pytest.approx(-0.5, abs=1e-12)

    def test_pure_oscillator_is_not_hurwitz(self):
        res = hurwitz_check(one_mass_triple().A)
        assert not res.hurwitz
        assert res.abscissa == pytest.approx(0.0, abs=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            hurwitz_check(np.ones((2, 3)))

    def test_matches_independent_qr_iteration_on_random_matrices(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            M = rng.standard_normal((4, 4))
            absc = hurwitz_check(M).abscissa
            absc_qr = float(np.max(qr_eigenvalues(M).real))
            assert absc == pytest.approx(absc_qr, abs=1e-6)
            if abs(absc) > 1e-6:
                assert (absc < 0) == (absc_qr < 0)


class TestDetectability:
    def test_one_mass_detectable_with_feedthrough_witness(self):
        rep = detectability_check(one_mass_triple(0.7, 1.3))
        assert rep.detectable
        assert rep.witness.spectral_abscissa < 0
        # H = B is accepted because A - BC is already Hurwitz
        np.testing.assert_allclose(rep.witness.H,
                                   one_mass_triple(0.7, 1.3).B)

    def test_unobservable_marginal_mode_is_rejected(self):
        t = LinearTriple(np.zeros((1, 1)), np.ones((1, 1)), np.zeros((1, 1)))
        rep = detectability_check(t)
        assert not rep.detectable
        assert rep.witness is None
        assert any(abs(lam) < 1e-9 for lam in rep.offending_eigenvalues)

    def test_two_mass_detectable(self):
        triple, _ = two_mass_matrices()
        rep = detectability_check(triple)
        assert rep.detectable
        assert hurwitz_check(triple.A - rep.witness.H @ triple.C).hurwitz

    def test_riccati_path_when_feedthrough_fails(self):
        # stable-but-oscillatory pair where A - BC is unstable
        A = np.array([[0.0, 1.0], [-1.0, -0.2]])
        B = np.array([[0.0], [-2.0]])
        C = np.array([[1.0, 0.0]])
        t = LinearTriple(A, B, C)
        assert not hurwitz_check(A - B @ C).hurwitz
        rep = detectability_check(t)
        assert rep.detectable
        assert hurwitz_check(A - rep.witness.H @ C).hurwitz


class TestLmiVerify:
    def test_one_mass_energy_matrix_exact(self):
        k, m = 1.7, 0.4
        t = one_mass_triple(k, m)
        P = np.diag([k, m])
        block = assemble_lmi_block(t, P)
        assert np.max(np.abs(block)) <= 1e-14
        assert lmi_verify(t, P).ok

    def test_two_mass_printed_matrix(self):
        triple, P = two_mass_matrices()
        verdict = lmi_verify(triple, P)
        assert verdict.ok
        assert verdict.block_eig_max <= 1e-10 * verdict.scale

    def test_unstable_scalar_fails(self):
        t = LinearTriple(np.ones((1, 1)), np.ones((1, 1)), np.ones((1, 1)))
        verdict = lmi_verify(t, np.ones((1, 1)))
        assert not verdict.ok
        assert verdict.block_eig_max == pytest.approx(2.0)

    def test_rejects_asymmetric_p(self):
        t = one_mass_triple()
        with pytest.raises(ValueError):
            lmi_verify(t, np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_strict_variant(self):
        # A = -I, B = C' = e1: strict with eps up to 2
        t = LinearTriple(-np.eye(2), np.array([[1.0], [0.0]]),
                         np.array([[1.0, 0.0]]))
        cert = certify_p(t, np.eye(2), strictness="strict", eps=1.0)
        verdict = lmi_verify(t, cert)
        assert verdict.ok and verdict.strict_ok
        bad = certify_p(t, np.eye(2), strictness="strict", eps=3.0)
        assert not lmi_verify(t, bad).ok


class TestQCertificate:
    def test_identity_observer_closed_form(self):
        # A - HC = -I with ||H|| <= 1, ||B|| <= 1: Q = I/2, delta = 1
        A = -np.eye(2)
        t = LinearTriple(A, np.array([[0.5], [0.0]]), np.array([[0.0, 0.0]]))
        from lurelab.certcore import DetectabilityWitness
        witness = DetectabilityWitness(np.zeros((2, 1)), -1.0)
        q = construct_q_certificate(t, witness)
        np.testing.assert_allclose(q.Q, np.eye(2) / 2.0, atol=1e-12)
        assert q.delta == pytest.approx(1.0, rel=1e-9)

    def test_one_mass_certificate_passes_sampled_inequality(self):
        t = one_mass_triple()
        rep = detectability_check(t)
        q = construct_q_certificate(t, rep.witness, n_check=10_000, seed=1)
        assert q.check_margin <= 0.0
        assert q.q1 > 0 and q.q2 >= q.q1 and q.delta > 0

    def test_two_mass_certificate(self):
        triple, _ = two_mass_matrices()
        rep = detectability_check(triple)
        q = construct_q_certificate(triple, rep.witness, n_check=10_000, seed=2)
        assert q.check_margin <= 0.0

    def test_quadratic_form_bounds_on_unit_vectors(self):
        triple, _ = two_mass_matrices()
        rep = detectability_check(triple)
        q = construct_q_certificate(triple, rep.witness)
        rng = np.random.default_rng(0)
        for _ in range(200):
            z = rng.standard_normal(4)
            z /= np.linalg.norm(z)
            val = q.quadratic_form(z)
            assert q.q1 - 1e-12 <= val <= q.q2 + 1e-12

    def test_requires_hurwitz_witness(self):
        t = one_mass_triple()
        from lurelab.certcore import DetectabilityWitness
        with pytest.raises(ValueError):
            # zero injection leaves the undamped oscillator: not Hurwitz
            witness = DetectabilityWitness(np.zeros((2, 1)), -1.0)
            construct_q_certificate(t, witness)


# ---------------------------------------------------------------------------
# the numpy Lyapunov solve against scipy, and what the presets build with it

# q_cert.delta and the hypothesis outcomes (passed, worst margin) of the
# verified presets, as built with scipy.linalg.solve_continuous_lyapunov
PRESET_REFERENCE = {
    "one-mass": (0.27639320225002095, {
        "upper_envelope": (True, -2.00005000000392e-05),
        "monotonicity": (True, -5.000000000000019e-14),
        "monotonicity_kinf": (True, -5.000000000000019e-14),
        "alignment": (True, -0.056189089405293324),
        "strong_monotonicity": (False, 0.21622776601683796)}),
    "two-mass": (0.0346420610061617, {
        "upper_envelope": (True, -1.9035995010030515e-05),
        "monotonicity": (True, -4.999999999989802e-16),
        "monotonicity_kinf": (True, -4.999999999989802e-16),
        "alignment": (True, -0.09565296475534235),
        "strong_monotonicity": (False, 0.28460498941521223)}),
    "wec": (0.1995449571376833, {
        "upper_envelope": (True, -2.00005000000392e-05),
        "monotonicity": (True, -5.000000000000019e-14),
        "monotonicity_kinf": (True, -5.000000000000019e-14),
        "alignment": (True, -0.056189089405293324),
        "strong_monotonicity": (False, 0.21622776601683796)}),
}


def lyapunov_residual(M, Q0):
    return np.linalg.norm(M.T @ Q0 + Q0 @ M + np.eye(len(M)))


@pytest.fixture(scope="module")
def verified_presets():
    return {name: preset_by_name(name, verify=True)
            for name in PRESET_REFERENCE}


class TestLyapunovSolve:
    @pytest.mark.parametrize("name", sorted(PRESET_REFERENCE))
    def test_matches_scipy_on_presets(self, name, verified_presets):
        p = verified_presets[name]
        M = p.triple.A - p.witness.H @ p.triple.C
        Q0 = _solve_lyapunov(M)
        ref = scipy.linalg.solve_continuous_lyapunov(M.T, -np.eye(len(M)))
        assert np.max(np.abs(Q0 - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert np.array_equal(Q0, Q0.T)
        assert lyapunov_residual(M, Q0) <= 1e-12 * (1.0 + np.linalg.norm(Q0))

    @pytest.mark.parametrize("name", sorted(PRESET_REFERENCE))
    def test_preset_verdicts_unchanged(self, name, verified_presets):
        p = verified_presets[name]
        delta, outcomes = PRESET_REFERENCE[name]
        q = p.system.q_cert
        assert q.delta == pytest.approx(delta, rel=1e-12)
        assert q.check_margin <= 0.0
        report = p.hypothesis_report.as_dict()
        assert set(report) == set(outcomes)
        for key, (passed, margin) in outcomes.items():
            assert report[key]["passed"] is passed
            assert report[key]["worst_margin"] == pytest.approx(margin,
                                                                rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(S=st.integers(1, 6).flatmap(lambda n: hnp.arrays(
               np.float64, (n, n), elements=st.floats(-3.0, 3.0))),
           margin=st.floats(0.01, 2.0))
    def test_residual_on_random_hurwitz_matrices(self, S, margin):
        M = S - (np.max(np.abs(np.linalg.eigvals(S))) + margin) * np.eye(len(S))
        Q0 = _solve_lyapunov(M)
        assert np.array_equal(Q0, Q0.T)
        assert lyapunov_residual(M, Q0) <= 1e-12 * (1.0 + np.linalg.norm(Q0))


def _after_import_and_verified_presets(report):
    """stdout of a fresh process that imports lurelab and lurelab.cli,
    builds the three presets verified, then runs ``report``."""
    code = ("import sys, lurelab, lurelab.cli\n"
            "from lurelab.experiments import preset_by_name\n"
            "for name in ('one-mass', 'two-mass', 'wec'):\n"
            "    preset_by_name(name, verify=True)\n" + report)
    import lurelab
    src = os.path.dirname(os.path.dirname(lurelab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120, env=env)
    return out.stdout.strip()


def test_import_and_verified_presets_load_no_scipy():
    out = _after_import_and_verified_presets(
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert out == "[]"


def test_import_and_verified_presets_load_no_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on its first call; simulating and
    # analysing a signal with jumps, and the off-module probes of an
    # almost periodic entrainment, once made that call
    runs = [["simulate", "--preset", "two-mass", "--forcing", "v_s",
             "--horizon", "10", "--dt", "0.02", "--out", str(tmp_path / "sim")],
            ["analyze", "--signal", "v_s", "--scan-periods",
             "--out", str(tmp_path / "analyze")],
            ["entrain", "--preset", "two-mass", "--forcing", "v_ap",
             "--horizon", "5", "--dt", "0.02", "--out", str(tmp_path / "ent")]]
    out = _after_import_and_verified_presets(
        f"codes = [lurelab.cli.main(argv) for argv in {runs!r}]\n"
        "print(codes, 'numpy.ma' in sys.modules)")
    # entrain exits 1: the v_ap gap fails its gate, as it does at H = 100
    assert out.splitlines()[-1] == "[0, 0, 1] False"


def test_triple_json_roundtrip():
    t = one_mass_triple(1.3, 0.6)
    back = LinearTriple.from_dict(t.as_dict())
    np.testing.assert_array_equal(back.A, t.A)
    np.testing.assert_array_equal(back.B, t.B)
    np.testing.assert_array_equal(back.C, t.C)
    cert = certify_p(t, np.diag([1.3, 0.6]))
    d = cert.as_dict()
    assert d["eigenvalues"]["P"][0] > 0
    assert d["eigenvalues"]["block"] == [cert.block_eig_min, cert.block_eig_max]


def test_two_mass_dissipation_identity_at_random_points():
    # <xi, ((A-BC)'P + P(A-BC)) xi> = -2 xi2^2 - 2 (xi2 - xi4)^2
    triple, P = two_mass_matrices()
    M = (triple.A - triple.B @ triple.C).T @ P + P @ (triple.A - triple.B @ triple.C)
    rng = np.random.default_rng(123)
    xs = rng.uniform(-5, 5, size=(10_000, 4))
    lhs = np.einsum("ij,jk,ik->i", xs, M, xs)
    rhs = -2.0 * xs[:, 1] ** 2 - 2.0 * (xs[:, 1] - xs[:, 3]) ** 2
    rel = np.abs(lhs - rhs) / (1.0 + np.abs(rhs))
    assert float(rel.max()) <= 1e-9


# ---------------------------------------------------------------------------
# composite Lyapunov function


@pytest.fixture(scope="module")
def one_mass_setup():
    """The one-mass loop with a hand sector, its Q certificate and its
    ISS estimate."""
    t = one_mass_triple()
    sector = SectorData(comparison.power(1.0, 2.0), comparison.power(1.0, 0.5),
                        mu=1.0, c=2.0, variant="F")
    rep = detectability_check(t)
    q = construct_q_certificate(t, rep.witness)
    p = certify_p(t, np.diag([1.0, 1.0]))
    return t, sector, q, iss_estimate(p, q, sector)


@functools.cache
def _preset_iss(name):
    """A verified preset and its ISS estimate on its fitted sector."""
    p = preset_by_name(name, verify=True)
    return p, iss_estimate(p.p_cert, p.system.q_cert, p.sector)


class TestCompositeLyapunov:
    def test_zero_values(self, one_mass_setup):
        V = one_mass_setup[-1].V
        assert V.value(np.zeros(2)) == 0.0
        np.testing.assert_allclose(V.gradient(np.zeros(2)), np.zeros(2))

    def test_radial_monotonicity(self, one_mass_setup):
        V = one_mass_setup[-1].V
        rng = np.random.default_rng(5)
        for _ in range(50):
            z = rng.uniform(-4, 4, 2)
            if np.linalg.norm(z) < 1e-6:
                continue
            assert V.value(2.0 * z) > V.value(z)
        # increasing along rays
        z = np.array([0.3, -1.1])
        vals = [V.value(r * z) for r in np.linspace(0.1, 20.0, 30)]
        assert np.all(np.diff(vals) > 0)

    def test_gradient_matches_finite_differences(self, one_mass_setup):
        V = one_mass_setup[-1].V
        fd = FiniteDifferenceLyapunov(V.value)
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(1000):
            z = rng.uniform(-10, 10, 2)
            g = V.gradient(z)
            rel = np.linalg.norm(g - fd.gradient(z)) / (1.0 + np.linalg.norm(g))
            worst = max(worst, rel)
        assert worst <= 1e-5

    def test_cached_integral_matches_direct_quadrature(self, one_mass_setup):
        *_, q, est = one_mass_setup
        V = est.V
        from scipy.integrate import quad
        # in u = sqrt(s) the integrand 2u k(u^2) is smooth between the
        # nodes of the kernel's gain table, u = xs / c2, so the reference
        # integrates piece by piece
        c2 = q.delta / (4.0 * q.q2)
        kinks = np.geomspace(1e-9, c2 * np.sqrt(1e8) * 1.5, 4096) / c2
        for s in [1e-3, 0.1, 1.0, 10.0, 300.0]:
            top = np.sqrt(s)
            edges = np.concatenate(([0.0], kinks[kinks < top], [top]))
            ref = sum(quad(lambda u: 2.0 * u * V.k(u * u), a, b, epsabs=0.0,
                           epsrel=1e-13)[0]
                      for a, b in zip(edges[:-1], edges[1:]))
            assert V.h(s) == pytest.approx(ref, rel=1e-6, abs=1e-12)

    def test_decrease_inequality_sampled(self, one_mass_setup):
        # the hand sector on one-mass, then each preset's fitted sector
        t, sector, _, est = one_mass_setup
        cases = [("hand", t, sector, est)]
        for name in ("one-mass", "two-mass", "wec"):
            p, est = _preset_iss(name)
            cases.append((name, p.triple, p.sector, est))
        for name, t, sector, est in cases:
            chk = iss_lyapunov_check(est.V, t, sector, est.decay,
                                     est.input_gain, box=10.0, n_samples=800,
                                     seed=3)
            assert chk.passed, (name, chk)

    def test_zero_candidate_fails(self, one_mass_setup):
        t, sector, *_ = one_mass_setup
        V0 = QuadraticForm(np.zeros((2, 2)))
        decay = comparison.power(2.0)
        gain = comparison.power(2.0)
        chk = iss_lyapunov_check(V0, t, sector, decay, gain,
                                 n_samples=300, seed=4)
        assert not chk.passed
        assert chk.worst_violation > 0

    def test_strict_lmi_quadratic_candidate_passes(self):
        # strongly passive loop: quadratic V with quadratic comparison pair
        t = LinearTriple(-np.eye(2), np.array([[1.0], [0.0]]),
                         np.array([[1.0, 0.0]]))
        sector = SectorData(comparison.power(1.0, 2.0),
                            comparison.power(1.0, 0.5),
                            mu=1.0, c=2.0, variant="F")
        V = QuadraticForm(np.eye(2))
        # <grad V, Az - B(w-u)> <= -2||z||^2 + 2<u, Cz> - 2<w, Cz>
        #                       <= -||z||^2 + ||u||^2 (Young + sector sign)
        decay = comparison.power(2.0, 1.0)
        gain = comparison.power(2.0, 1.0)
        chk = iss_lyapunov_check(V, t, sector, decay, gain,
                                 n_samples=800, seed=5)
        assert chk.passed, chk


def _iss_cases(one_mass_setup):
    """(V, triple, decay, input gain) of the oracle comparisons, by name:
    the composite V of the one-mass loop with array gauges and with
    gauges built entry by entry on the scalar inverse, and a quadratic V
    on a loop with two inputs."""
    t, sector, _, est = one_mass_setup
    alpha = sector.alpha

    def gain_fn(r):
        r = np.atleast_1d(np.asarray(r, float))
        return 0.05 * r * r + 2.0 * alpha.inverse(2.0 * r) * r

    def entrywise(fn):
        return lambda s: np.array([fn(x) for x in np.ravel(s)]).reshape(
            np.shape(s))

    two_input = LinearTriple(
        np.array([[-1.1, 0.5, 0.25], [-0.3, -1.0, 0.3], [0.2, -0.4, -2.0]]),
        np.array([[1.0, 0.3], [-0.2, 1.0], [0.5, 0.7]]),
        np.array([[1.0, -0.2, 0.5], [0.3, 1.0, 0.7]]))
    return {
        "composite": (est.V, t, est.decay,
                      comparison.from_callable(gain_fn, "P")),
        "composite-entrywise": (
            est.V, t, comparison.from_callable(entrywise(est.decay), "P"),
            comparison.from_callable(entrywise(gain_fn), "P")),
        "two-input": (QuadraticForm(np.eye(3)), two_input,
                      comparison.power(2.0, 0.5), comparison.power(2.0, 1.0)),
    }


@pytest.mark.parametrize("variant,c", [("F", 2.0), ("F0", 2.0), ("F", 1.0)])
@pytest.mark.parametrize("case", ["composite", "composite-entrywise",
                                  "two-input"])
def test_iss_check_matches_draw_by_draw_oracle(one_mass_setup, case,
                                               variant, c):
    V, triple, decay, gain = _iss_cases(one_mass_setup)[case]
    sector = SectorData(comparison.power(1.0, 2.0), comparison.power(1.0, 0.5),
                        mu=1.0, c=c, variant=variant)
    for seed in (0, 3, 11, 5, 29):
        got = iss_lyapunov_check(V, triple, sector, decay, gain,
                                 n_samples=60, seed=seed)
        ref = oracles.iss_lyapunov_check(V, triple, sector, decay, gain,
                                         n_samples=60, seed=seed)
        assert oracles.float_bits(got) == oracles.float_bits(ref), seed


@pytest.mark.parametrize("shape", [(2, 2), (2, 1), (3, 2), (4, 4)])
def test_matvec_rows_have_the_bits_of_single_products(shape):
    rng = np.random.default_rng(sum(shape))
    M = rng.standard_normal(shape)
    X = 10.0 * rng.standard_normal((2000, shape[1]))
    ref = np.array([M @ x for x in X])
    assert _matvec(M, X).tobytes() == ref.tobytes()


def test_iss_check_without_samples_passes_vacuously(one_mass_setup):
    V, triple, decay, gain = _iss_cases(one_mass_setup)["composite"]
    chk = iss_lyapunov_check(V, triple, one_mass_setup[1], decay, gain,
                             n_samples=0)
    assert (chk.passed, chk.worst_violation, chk.at, chk.n_samples) == (
        True, -np.inf, None, 0)


# ---------------------------------------------------------------------------
# array adaptive Simpson against the recursive rule


@pytest.mark.parametrize("name", ["one-mass", "two-mass", "wec"])
def test_composite_lyapunov_bit_identical_to_recursive_quadrature(name):
    p, est = _preset_iss(name)
    V = est.V
    k_ref = iss_kernel(p.system.q_cert, est.gain, est.eps)
    h_ref = CachedIntegral(k_ref)
    assert V.h.cumulative.tobytes() == h_ref.cumulative.tobytes()
    # the kernel takes arrays, and a scalar still gives a float
    s = np.concatenate(([0.0], np.geomspace(1e-9, 1e9, 41)))
    assert isinstance(V.k(1.0), float)
    k_ref_s = np.array([k_ref(x) for x in s])
    assert np.array([V.k(x) for x in s]).tobytes() == k_ref_s.tobytes()
    assert V.k(s).tobytes() == k_ref_s.tobytes()
    # h on and between the breakpoints, and V at states of every scale
    sq = np.concatenate([h_ref.sigma_break ** 2, s])
    assert (np.array([V.h(x) for x in sq]).tobytes()
            == np.array([h_ref(x) for x in sq]).tobytes())
    rng = np.random.default_rng(0)
    zs = (rng.standard_normal((40, p.triple.n))
          * np.geomspace(1e-4, 1e3, 40)[:, None])
    ref = [float(z @ V.P @ z) + h_ref(float(z @ V.Q @ z)) for z in zs]
    assert (np.array([V.value(z) for z in zs]).tobytes()
            == np.array(ref).tobytes())


def _cusp_and_jump(c, j, p, q):
    """p sqrt|x - c| + q [x > j]: sqrt and a comparison give the same bits
    on a float and on an array."""
    def f(x):
        return p * np.sqrt(np.abs(x - c)) + q * (x > j)
    return f


@settings(max_examples=150, deadline=None)
# a jump inside keeps one interval open down to max_depth
@example(ends=[(0.0, 1.0), (2.0, 2.0)], c=5.0, j=0.3, p=0.0, q=1.0,
         rel_tol=1e-8, max_depth=30)
@example(ends=[(-1.0, 4.0), (4.0, -1.0)], c=0.5, j=2.0, p=1.0, q=-2.0,
         rel_tol=1e-6, max_depth=5)
@example(ends=[(3.0, 3.0)], c=0.0, j=0.0, p=1.0, q=1.0, rel_tol=1e-8,
         max_depth=30)
@given(ends=st.lists(st.tuples(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0)),
                     min_size=1, max_size=5),
       c=st.floats(-5.0, 5.0), j=st.floats(-5.0, 5.0), p=st.floats(-3.0, 3.0),
       q=st.floats(-3.0, 3.0), rel_tol=st.sampled_from([1e-3, 1e-6, 1e-9]),
       max_depth=st.integers(0, 12) | st.just(30))
def test_array_simpson_equals_recursive(ends, c, j, p, q, rel_tol, max_depth):
    f = _cusp_and_jump(c, j, p, q)
    a, b = (np.array(col, dtype=float) for col in zip(*ends))
    got = _adaptive_simpson(f, a, b, rel_tol, max_depth)
    ref = np.array([recursive_simpson(f, x, y, rel_tol, max_depth)
                    for x, y in ends])
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("max_depth", [0, 3, 30])
def test_array_simpson_bisects_a_jump_down_to_max_depth(max_depth):
    calls = []

    def step(x):
        calls.append(np.size(x))
        return (x > 0.3) * 1.0

    got = _adaptive_simpson(step, [0.0], [1.0], 1e-8, max_depth)
    # ends and midpoint, then one call per level
    assert len(calls) == max_depth + 2
    assert got[0] == recursive_simpson(step, 0.0, 1.0, 1e-8, max_depth)


@pytest.mark.parametrize("call, fragment", [
    pytest.param(lambda: LinearTriple(np.ones((2, 3)), np.ones((2, 1)),
                                      np.ones((1, 3))),
                 "A must be square", id="triple-A"),
    pytest.param(lambda: LinearTriple(np.eye(2), np.ones((3, 1)),
                                      np.ones((1, 2))),
                 "B must have n rows", id="triple-B"),
    pytest.param(lambda: LinearTriple(np.eye(2), np.ones((2, 1)),
                                      np.ones((2, 2))),
                 "C must be m x n", id="triple-C"),
    pytest.param(lambda: LinearTriple(np.eye(2), np.array([[0.0], [np.inf]]),
                                      np.ones((1, 2))),
                 "B has non-finite entries", id="triple-finite"),
    pytest.param(lambda: CertificateP(np.array([[1.0, 1.0], [0.0, 1.0]])),
                 "P is not symmetric", id="p-symmetric"),
    pytest.param(lambda: CertificateP(-np.eye(2)),
                 "P is not positive semi-definite", id="p-psd"),
    pytest.param(lambda: CertificateP(np.eye(2), strictness="loose"),
                 "strictness must be", id="p-strictness"),
    pytest.param(lambda: CertificateP(np.eye(2), strictness="strict"),
                 "strict certificate needs eps > 0", id="p-eps"),
    pytest.param(lambda: lmi_verify(one_mass_triple(), np.eye(3)),
                 "P has wrong dimensions", id="lmi-shape"),
    # both checks come before the certificates are read
    pytest.param(lambda: construct_iss_lyapunov(
        None, None, None, comparison.identity(), 0.0),
                 "eps must be positive", id="iss-eps"),
    pytest.param(lambda: construct_iss_lyapunov(
        None, None, None, comparison.from_callable(np.tanh, "K"), 1.0),
                 "gain must be of class Kinf", id="iss-gain"),
])
def test_bad_input_raises_a_typed_error(call, fragment):
    with pytest.raises(ValueError, match=re.escape(fragment)):
        call()
