import math

import numpy as np
import pytest

from lurelab import apsignals, experiments
from lurelab.certcore import assemble_lmi_block, lmi_verify
from lurelab.experiments import (PresetError, derive_sector_candidates,
                                 preset_by_name, preset_one_mass,
                                 preset_two_mass, preset_wec, run_entrainment,
                                 run_gain_ladder, two_mass_matrices)
from lurelab.sectorcore import neg_identity_nonlinearity
import oracles


@pytest.fixture(scope="module")
def two_mass():
    return preset_two_mass(verify=True)


class TestOneMassPreset:
    def test_published_state_space(self):
        p = preset_one_mass(m=1.0, k=1.0, verify=False)
        np.testing.assert_allclose(p.triple.A, [[0.0, 1.0], [-1.0, 0.0]])
        np.testing.assert_allclose(p.triple.B, [[0.0], [1.0]])
        np.testing.assert_allclose(p.triple.C, [[0.0, 1.0]])

    def test_energy_matrix_solves_lmi_exactly(self):
        p = preset_one_mass(m=0.7, k=2.3, verify=False)
        block = assemble_lmi_block(p.triple, p.p_cert.P)
        assert np.max(np.abs(block)) <= 1e-14

    def test_negative_mass_rejected(self):
        with pytest.raises(PresetError):
            preset_one_mass(m=-1.0, k=1.0)

    def test_verified_preset_carries_reports(self):
        p = preset_one_mass(verify=True)
        assert p.hypothesis_report is not None
        assert p.hypothesis_report.monotonicity.passed
        assert p.system.q_cert is not None


class TestTwoMassPreset:
    def test_printed_certificate_verifies(self, two_mass):
        verdict = lmi_verify(two_mass.triple, two_mass.p_cert)
        assert verdict.ok

    def test_dissipation_identity_random_points(self, two_mass):
        triple, P = two_mass_matrices()
        M = (triple.A - triple.B @ triple.C).T @ P \
            + P @ (triple.A - triple.B @ triple.C)
        rng = np.random.default_rng(9)
        xs = rng.uniform(-3, 3, size=(2000, 4))
        lhs = np.einsum("ij,jk,ik->i", xs, M, xs)
        rhs = -2.0 * xs[:, 1] ** 2 - 2.0 * (xs[:, 1] - xs[:, 3]) ** 2
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-12)

    def test_hypothesis_verdicts(self, two_mass):
        rep = two_mass.hypothesis_report
        assert rep.upper_envelope.passed
        assert rep.monotonicity.passed
        assert rep.alignment.passed
        # no linear damping term: the strong-monotonicity check must fail
        assert not rep.strong_monotonicity.passed

    def test_forcing_catalogue(self, two_mass):
        assert set(two_mass.forcings) == {"v_p", "v_s", "v_ap", "v_aap", "zero"}
        np.testing.assert_allclose(two_mass.initial_conditions[0],
                                   [0.25, 0.25, -0.05, -0.025])


class TestWecPreset:
    def test_default_radiation_block_is_passive(self):
        p = preset_wec(verify=False)
        Ar = p.triple.A[2:, 2:]
        sym = Ar + Ar.T
        assert np.max(np.linalg.eigvalsh(sym)) <= 1e-12

    def test_block_certificate_verifies(self):
        p = preset_wec(verify=False)
        verdict = lmi_verify(p.triple, p.p_cert)
        assert verdict.ok and verdict.block_eig_max <= 1e-12

    def test_antistable_radiation_rejected(self):
        with pytest.raises(PresetError):
            preset_wec(radiation=(np.eye(2), np.array([[1.0], [0.0]])))

    def test_higher_radiation_order(self):
        p = preset_wec(nr=4, verify=False)
        assert p.triple.n == 6
        assert lmi_verify(p.triple, p.p_cert).ok

    def test_pto_channel_adds_to_forcing(self):
        u = apsignals.constant_signal([0.5], name="pto")
        p = preset_wec(pto=u, verify=False)
        v = p.forcing("zero")
        np.testing.assert_allclose(v(1.0), [0.5])


class TestPresetByName:
    def test_known_names(self):
        for name in ("one-mass", "two-mass", "wec"):
            p = preset_by_name(name, verify=False)
            assert p.name == name

    def test_unknown_name(self):
        with pytest.raises(PresetError):
            preset_by_name("three-mass")


class TestEntrainment:
    def test_zero_forcing_zero_ics_all_zero(self, two_mass):
        res = run_entrainment(two_mass, "zero",
                              ic_pair=(np.zeros(4), np.zeros(4)),
                              horizon=5.0, dt=1e-3)
        assert np.all(res.gap.values == 0.0)
        assert res.final_decile_sup == 0.0
        assert res.converged

    def test_identical_ics_zero_gap(self, two_mass):
        x0 = np.array([0.25, 0.25, -0.05, -0.025])
        res = run_entrainment(two_mass, "v_p", ic_pair=(x0, x0),
                              horizon=5.0, dt=1e-3)
        assert np.all(res.gap.values == 0.0)

    def test_periodic_forcing_short_run(self, two_mass):
        res = run_entrainment(two_mass, "v_p", horizon=60.0, dt=2e-3)
        assert res.fit is not None and res.fit.gamma > 0
        assert res.periodicity_residual is not None

    def test_aap_settles_to_stepanov_response(self, two_mass):
        # the decaying part of the forcing vanishes, so the two responses
        # from the same start agree on the final decile
        x0 = np.zeros(4)
        r_s = run_entrainment(two_mass, "v_s", ic_pair=(x0, x0),
                              horizon=100.0, dt=1e-3)
        r_aap = run_entrainment(two_mass, "v_aap", ic_pair=(x0, x0),
                                horizon=100.0, dt=1e-3)
        xa = r_s.trajectories[0].states
        xb = r_aap.trajectories[0].states
        times = r_s.trajectories[0].times
        tail = times >= 90.0
        sup = float(np.max(np.linalg.norm(xa[tail] - xb[tail], axis=1)))
        assert sup <= 2e-2

    def test_v_ap_spectrum_matches_windowed_reference(self, two_mass):
        # the post-settle half of the run, cut by the time mask the
        # trajectory window used, through the coefficient-by-coefficient
        # table
        horizon = 40.0
        res = run_entrainment(two_mass, "v_ap", horizon=horizon, dt=0.02)
        traj = res.trajectories[1]
        keep = ((traj.times >= 0.5 * horizon - 1e-12)
                & (traj.times <= horizon + 1e-12))
        t = traj.times[keep]
        y = apsignals.signal_from_samples(
            t - t[0], traj.states[keep] @ two_mass.triple.C.T)
        spec = res.spectrum
        freqs, coefs, proxies, floor = oracles.fourier_table(
            y, spec.frequencies, t[-1] - t[0], window="hann")
        assert spec.horizon == t[-1] - t[0]
        assert spec.coefficients.tobytes() == coefs.tobytes()
        assert spec.proxies.tobytes() == proxies.tobytes()
        assert spec.floor == floor
        ref = apsignals.module_containment(
            apsignals.SpectrumEstimate(freqs, coefs, spec.horizon, proxies,
                                       floor),
            two_mass.forcing("v_ap").frequencies,
            tol=two_mass.thresholds.module_tol)
        assert res.module_verdict == ref


class TestGainLadder:
    def test_zero_radius_skipped(self, two_mass):
        rows = run_gain_ladder(two_mass, "zero", [0.0], horizon=5.0)
        assert rows[0].n_pairs == 0
        assert "skipped" in rows[0].note

    def test_positive_decay_per_radius(self, two_mass):
        rows = run_gain_ladder(two_mass, "zero", [1.0, 2.0], n_pairs=2,
                               horizon=30.0, dt=2e-3, seed=3)
        for r in rows:
            assert r.accepted and r.gamma > 0

    def test_sign_violating_loop_flagged(self):
        bad = preset_two_mass(f=neg_identity_nonlinearity(2), verify=False)
        rows = run_gain_ladder(bad, "zero", [1.0], n_pairs=1,
                               horizon=12.0, dt=2e-3, seed=1)
        assert not rows[0].accepted

    def test_deterministic_under_seed(self, two_mass):
        a = run_gain_ladder(two_mass, "zero", [1.0], n_pairs=2,
                            horizon=10.0, dt=2e-3, seed=11)
        b = run_gain_ladder(two_mass, "zero", [1.0], n_pairs=2,
                            horizon=10.0, dt=2e-3, seed=11)
        assert a == b


def test_derive_candidates_fallback_for_sign_violation():
    from lurelab.sectorcore import CompactSetSpec, HypothesisGrid
    cand = derive_sector_candidates(neg_identity_nonlinearity(1),
                                    CompactSetSpec.ball(1, 1.0),
                                    HypothesisGrid(n_gamma=9))
    # fallback candidates let the verifier locate the violation
    assert cand.alpha.descriptor == "fallback:identity"


def _ladder_reference(preset, forcing, R_values, n_pairs, horizon, dt, seed):
    """Ladder rows the radius-by-radius, pair-by-pair way: each radius
    draws all its pairs from the one stream, then integrates and fits them
    one pair at a time; a blow-up rejects the row and keeps the fits of
    the pairs before it.  A radius that admits no pair draws nothing and
    gives None, otherwise the row is (gamma, M, residual)."""
    from lurelab.simcore import (BlowUpError, InsufficientDataError,
                                 fit_exponential, incremental_gap, simulate)
    v = preset.forcing(forcing)
    v_sup = float(np.max(np.linalg.norm(
        v(np.linspace(0.0, min(horizon, 50.0), 2048)), axis=1)))
    rng = np.random.default_rng(seed)
    n = preset.triple.n
    rows = []
    for R in R_values:
        if R <= 0 or R - v_sup <= 0:
            rows.append(None)
            continue
        xs = []
        for _ in range(2 * n_pairs):
            x = rng.standard_normal(n)
            x *= (R - v_sup) * rng.random() / max(np.linalg.norm(x), 1e-12)
            xs.append(x)
        worst_gamma, worst_m, worst_res = math.inf, 0.0, 0.0
        for xa, xb in zip(xs[::2], xs[1::2]):
            try:
                ta, tb = (simulate(preset.system, x, v, horizon, dt)
                          for x in (xa, xb))
            except BlowUpError:
                worst_gamma = -math.inf
                break
            try:
                fit = fit_exponential(incremental_gap(ta, tb, v, v))
            except InsufficientDataError:
                continue
            if fit.gamma < worst_gamma:
                worst_gamma, worst_m, worst_res = fit.gamma, fit.M, fit.residual
        rows.append((worst_gamma, worst_m, worst_res))
    return rows


def _assert_ladder_matches_reference(rows, ref):
    assert len(rows) == len(ref)
    for row, want in zip(rows, ref):
        if want is None:
            assert row.n_pairs == 0 and "skipped" in row.note
        else:
            assert (row.gamma, row.M, row.residual) == want


def _cubic_one_mass():
    # damping that turns into cubic anti-damping at large amplitude:
    # small pairs settle, large ones escape
    from lurelab.sectorcore import custom_nonlinearity
    f = custom_nonlinearity(lambda t, y: y - 0.5 * y**3, 1)
    return preset_one_mass(f=f, verify=False)


class TestBatchedExperiments:
    def test_entrainment_pair_matches_single_runs(self, two_mass):
        from lurelab.simcore import simulate
        res = run_entrainment(two_mass, "v_s", horizon=20.0, dt=0.01)
        v = two_mass.forcing("v_s")
        for traj, x0 in zip(res.trajectories, two_mass.initial_conditions):
            alone = simulate(two_mass.system, x0, v, 20.0, 0.01)
            assert np.array_equal(traj.states, alone.states)
            assert traj.n_substeps == alone.n_substeps

    @pytest.mark.parametrize("forcing", ["zero", "v_p"])
    def test_ladder_matches_pairwise_reference(self, two_mass, forcing):
        row, = run_gain_ladder(two_mass, forcing, [2.0], n_pairs=3,
                               horizon=10.0, dt=0.02, seed=4)
        ref, = _ladder_reference(two_mass, forcing, [2.0], 3, 10.0, 0.02, 4)
        assert (row.gamma, row.M, row.residual) == ref

    @pytest.mark.parametrize("seed", [0, 5, 9])
    @pytest.mark.parametrize("forcing", ["zero", "v_p"])
    def test_multi_radius_ladder_matches_reference(self, two_mass, forcing,
                                                   seed):
        # R = 0 admits no pair under either forcing, R = 1 none under v_p
        radii = [1.0, 2.5, 0.0, 5.0]
        rows = run_gain_ladder(two_mass, forcing, radii, n_pairs=2,
                               horizon=10.0, dt=0.02, seed=seed)
        ref = _ladder_reference(two_mass, forcing, radii, 2, 10.0, 0.02, seed)
        assert sum(want is None for want in ref) == (1 if forcing == "zero"
                                                     else 2)
        _assert_ladder_matches_reference(rows, ref)

    def test_ladder_blow_up_keeps_earlier_fits(self):
        p = _cubic_one_mass()
        row, = run_gain_ladder(p, "zero", [2.0], n_pairs=6, horizon=10.0,
                               dt=0.02, seed=1)
        ref, = _ladder_reference(p, "zero", [2.0], 6, 10.0, 0.02, 1)
        assert row.gamma == -math.inf and not row.accepted
        assert ref[0] == -math.inf and ref[1] > 0.0
        assert (row.gamma, row.M, row.residual) == ref

    # R = 2 keeps the fits of its first pairs; R = 3 blows up on its
    # first pair, the first row of its block
    @pytest.mark.parametrize("radii,seed,kept", [([1.0, 2.0, 1.5], 1, True),
                                                 ([1.0, 3.0, 1.5], 2, False)])
    def test_blow_up_between_settling_radii(self, radii, seed, kept):
        p = _cubic_one_mass()
        rows = run_gain_ladder(p, "zero", radii, n_pairs=6, horizon=10.0,
                               dt=0.02, seed=seed)
        assert [r.accepted for r in rows] == [True, False, True]
        assert rows[1].gamma == -math.inf and (rows[1].M > 0.0) == kept
        _assert_ladder_matches_reference(
            rows, _ladder_reference(p, "zero", radii, 6, 10.0, 0.02, seed))

    @pytest.mark.parametrize("case", ["settles", "blows up"])
    def test_one_simulate_call_per_blow_up_plus_one(self, monkeypatch,
                                                    two_mass, case):
        from lurelab import experiments, simcore
        calls, blow_ups = [], []

        def counting(*args, **kwargs):
            calls.append(len(args[1]))
            try:
                return simcore.simulate(*args, **kwargs)
            except simcore.BlowUpError:
                blow_ups.append(calls[-1])
                raise

        monkeypatch.setattr(experiments, "simulate", counting)
        if case == "settles":
            run_gain_ladder(two_mass, "v_p", [1.0, 2.0, 5.0], n_pairs=3,
                            horizon=10.0, dt=0.02, seed=0)
            assert calls == [12] and not blow_ups
        else:
            run_gain_ladder(_cubic_one_mass(), "zero", [1.0, 2.0, 1.5],
                            n_pairs=6, horizon=10.0, dt=0.02, seed=1)
            assert blow_ups and len(calls) == len(blow_ups) + 1


def _lattice_probes_reference(gens):
    """Probe list of run_entrainment, with the lattice loops written out."""
    gens = np.asarray(gens, dtype=float)
    on, off = set(), set()
    for c1 in range(-2, 3):
        for c2 in range(-2, 3):
            val = c1 * gens[0] + (c2 * gens[1] if len(gens) > 1 else 0.0)
            if val > 1e-9:
                on.add(round(float(val), 12))
            if val > 0:
                off.add(val)
    lattice = np.array(sorted(off))
    cands = np.linspace(0.3 * gens.min(), 3.0 * gens.max(), 400)
    dists = np.min(np.abs(cands[:, None] - lattice[None, :]), axis=1)
    return sorted(on) + [float(x) for x in cands[np.argsort(-dists)[:4]]]


class TestModuleLattice:
    @pytest.mark.parametrize("gens", [
        (2.0 * math.pi, 2.0 * math.sqrt(2.0) * math.pi),
        (0.75, 0.75 * math.sqrt(2.0)), (1.3,), (0.5, 0.7, 0.9)])
    def test_probe_lists_match_written_out_loops(self, gens):
        from lurelab.experiments import _module_lattice, _off_module_probes
        probes = sorted({round(float(v), 12) for v in _module_lattice(gens)
                         if v > 1e-9})
        probes += [float(x) for x in _off_module_probes(gens)]
        ref = _lattice_probes_reference(gens)
        assert np.array(probes).tobytes() == np.array(ref).tobytes()

    def test_entrainment_probes(self, two_mass):
        res = run_entrainment(two_mass, "v_ap", horizon=4.0, dt=0.02)
        ref = _lattice_probes_reference(two_mass.forcing("v_ap").frequencies)
        assert res.spectrum.frequencies.tobytes() == np.array(ref).tobytes()


# ---------------------------------------------------------------------------
# preset snapshots: what each builder returned before the builders shared
# one assembly path

PRESET_SNAPSHOT = {
    "one-mass": dict(
        A=[[0.0, 1.0], [-1.0, 0.0]],
        B=[[0.0], [1.0]],
        C=[[0.0, 1.0]],
        P=[[1.0, 0.0], [0.0, 1.0]],
        p_eig=(1.0, 1.0, 0.0, 0.0),
        H=[[0.0], [1.0]], abscissa=-0.5,
        Q=[[0.4145898033750315, 0.1381966011250105],
           [0.1381966011250105, 0.276393202250021]],
        delta=0.27639320225002095,
        forcings=["saw", "sin", "zero"], ics=[[1.0, 0.0], [0.0, 0.0]],
        gamma=(1, 2.0)),
    "two-mass": dict(
        A=[[0.0, 1.0, 0.0, 0.0],
           [-1.1333333333333333, 0.0, 0.7999999999999999, 0.0],
           [0.0, 0.0, 0.0, 1.0],
           [1.5999999999999999, 0.0, -1.5999999999999999, 0.0]],
        B=[[0.0, 0.0], [0.6666666666666666, -0.6666666666666666],
           [0.0, 0.0], [0.0, 1.3333333333333333]],
        C=[[0.0, 1.0, 0.0, 0.0], [0.0, -1.0, 0.0, 1.0]],
        P=[[1.7, 0.0, -1.2, 0.0], [0.0, 1.5, 0.0, 0.0],
           [-1.2, 0.0, 1.2, 0.0], [0.0, 0.0, 0.0, 0.75]],
        p_eig=(0.2242349327868738, 2.6757650672131263, 0.0, 0.0),
        H=[[0.0, 0.0], [0.6666666666666666, -0.6666666666666666],
           [0.0, 0.0], [0.0, 1.3333333333333333]],
        abscissa=-0.20734240637854723,
        Q=[[0.09603311167383179, 0.09734044344544507,
            0.01324733116013599, 0.058123836709431234],
           [0.09734044344544507, 0.20110599866946746,
            0.006585739573041698, 0.11510989320807279],
           [0.01324733116013599, 0.006585739573041698,
            0.052161645310734146, 0.014118513850946554],
           [0.058123836709431234, 0.11510989320807279,
            0.014118513850946554, 0.08113460486955715]],
        delta=0.034642061006162204,
        forcings=["v_aap", "v_ap", "v_p", "v_s", "zero"],
        ics=[[0.25, 0.25, -0.05, -0.025], [0.0, 0.0, 0.0, 0.0]],
        gamma=(2, 2.0)),
    "wec": dict(
        A=[[0.0, 1.0, 0.0, 0.0],
           [-0.6666666666666666, 0.0, -0.6666666666666666, 0.0],
           [0.0, 1.0, -1.0, -2.0], [0.0, 0.0, 2.0, -1.0]],
        B=[[0.0], [0.6666666666666666], [0.0], [0.0]],
        C=[[0.0, 1.0, 0.0, 0.0]],
        P=[[1.0, 0.0, 0.0, 0.0], [0.0, 1.5, 0.0, 0.0],
           [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]],
        p_eig=(1.0, 1.5, -2.0, 0.0),
        H=[[0.0], [0.6666666666666666], [0.0], [0.0]],
        abscissa=-0.3717352943001385,
        Q=[[0.34806044867401276, 0.14965871785326318,
            -0.028476728258190358, 0.02577455696361755],
           [0.14965871785326318, 0.3297168627704705,
            -0.02961995457512501, 0.04676834932914474],
           [-0.028476728258190358, -0.02961995457512501,
            0.1053846804883395, -0.007067217231959657],
           [0.02577455696361755, 0.04676834932914474,
            -0.007067217231959657, 0.11390691303276143]],
        delta=0.1995449571376842,
        forcings=["sin", "zero"], ics=[[0.5, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]],
        gamma=(1, 2.0)),
}


class TestPresetSnapshots:
    @pytest.mark.parametrize("verify", [True, False])
    @pytest.mark.parametrize("name", sorted(PRESET_SNAPSHOT))
    def test_matches_snapshot(self, name, verify):
        snap = PRESET_SNAPSHOT[name]
        p = preset_by_name(name, verify=verify)
        for key in ("A", "B", "C"):
            assert np.array_equal(getattr(p.triple, key), snap[key]), key
        assert np.array_equal(p.p_cert.P, snap["P"])
        eigs = (p.p_cert.p_eig_min, p.p_cert.p_eig_max,
                p.p_cert.block_eig_min, p.p_cert.block_eig_max)
        np.testing.assert_allclose(eigs, snap["p_eig"], rtol=1e-12, atol=1e-15)
        assert np.array_equal(p.witness.H, snap["H"])
        assert p.witness.spectral_abscissa == pytest.approx(snap["abscissa"],
                                                            rel=1e-12)
        if verify:
            np.testing.assert_allclose(p.system.q_cert.Q, snap["Q"], rtol=1e-12)
            assert p.system.q_cert.delta == pytest.approx(snap["delta"],
                                                          rel=1e-12)
        else:
            assert p.system.q_cert is None and p.hypothesis_report is None
        assert sorted(p.forcings) == snap["forcings"]
        assert [x.tolist() for x in p.initial_conditions] == snap["ics"]
        assert (experiments.HORIZON, experiments.DT) == (100.0, 1e-3)
        assert (p.gamma.m, p.gamma.radius) == snap["gamma"]
        assert not np.any(p.gamma.center)

    @pytest.mark.parametrize("name", sorted(PRESET_SNAPSHOT))
    def test_unverified_witness_equals_verified(self, name):
        a = preset_by_name(name, verify=True).witness
        b = preset_by_name(name, verify=False).witness
        assert a.H.tobytes() == b.H.tobytes()
        assert a.spectral_abscissa == b.spectral_abscissa

    def test_sign_violation_raises_with_report(self):
        from lurelab.sectorcore import HypothesisReport
        with pytest.raises(PresetError) as err:
            preset_two_mass(f=neg_identity_nonlinearity(2))
        assert str(err.value) == (
            "two-mass: hypothesis checks failed: ['monotonicity', 'alignment']")
        assert isinstance(err.value.report, HypothesisReport)
        assert not err.value.report.monotonicity.passed


def test_v_ap_gap_decays_past_the_gate_horizon(two_mass):
    """The two-mass ``v_ap`` pair keeps converging after t = 100.

    The acceptance gate measures 2.0e-2 on [90, 100] against 1e-2; here
    the same pair runs to t = 300 at two step sizes: the gap is below
    2e-3 at t = 150 and below 2e-5 at t = 300, and the step sizes agree
    to 1e-3 relative, so the decay is the loop's, not the integrator's.
    """
    from lurelab.simcore import incremental_gap, simulate
    v = two_mass.forcing("v_ap")
    x0 = np.array(two_mass.initial_conditions)
    gaps = {}
    for dt in (0.02, 0.01):
        ta, tb = simulate(two_mass.system, x0, v, 300.0, dt)
        gap = incremental_gap(ta, tb, v, v)
        at = {t: int(round(t / dt)) for t in (150.0, 300.0)}
        assert all(gap.times[i] == pytest.approx(t) for t, i in at.items())
        gaps[dt] = {t: gap.values[i] for t, i in at.items()}
    for t, bound in ((150.0, 2e-3), (300.0, 2e-5)):
        coarse, fine = gaps[0.02][t], gaps[0.01][t]
        assert fine <= bound, (t, fine)
        assert coarse <= bound, (t, coarse)
        assert abs(coarse - fine) <= 1e-3 * fine, (t, coarse, fine)
