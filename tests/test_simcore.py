import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lurelab.apsignals import SignalSpec, constant_signal, zero_signal
from lurelab.certcore import LinearTriple, certify_p
from lurelab.experiments import preset_by_name, preset_one_mass, preset_two_mass
from lurelab.sectorcore import custom_nonlinearity, identity_nonlinearity
from lurelab.simcore import (BLOWUP_NORM, BlowUpError, GapSeries,
                             InsufficientDataError, LureSystem, Trajectory,
                             fit_exponential, fit_iiss_surrogates,
                             iiss_bound_check, incremental_gap,
                             lyapunov_monotonicity, simulate)
import oracles

ZERO_F = custom_nonlinearity(lambda t, y: np.zeros_like(y), 1, name="zero")


def scalar_system(a=-1.0):
    triple = LinearTriple(np.array([[a]]), np.array([[1.0]]), np.array([[1.0]]))
    return LureSystem(triple, ZERO_F)


def _blow_ups(system, X, v, T, dt):
    """The BlowUpErrors of simulate and of the allocating oracle loop."""
    errors = []
    for run in (simulate, oracles.simulate):
        with pytest.raises(BlowUpError) as err:
            run(system, X, v, T, dt)
        errors.append(err.value)
    return errors


class TestSimulate:
    def test_equilibrium_stays_at_zero(self):
        p = preset_one_mass(verify=False)
        traj = simulate(p.system, np.zeros(2), p.forcings["zero"], 2.0, 1e-3)
        assert np.all(traj.states == 0.0)

    def test_linear_decoupled_closed_form(self):
        traj = simulate(scalar_system(), np.array([1.0]), zero_signal(1),
                        2.0, 1e-3)
        exact = np.exp(-traj.times)
        assert np.max(np.abs(traj.states[:, 0] - exact)) <= 1e-8

    def test_rk4_order_against_closed_form(self):
        errs = []
        for dt in (0.2, 0.1):
            traj = simulate(scalar_system(), np.array([1.0]), zero_signal(1),
                            2.0, dt)
            errs.append(abs(traj.states[-1, 0] - math.exp(-2.0)))
        ratio = errs[0] / errs[1]
        assert 12.0 <= ratio <= 20.0

    def test_energy_quadratic_form_identity(self):
        # <x, Px>/2 with P = diag(k, m) is the stored mechanical energy
        k, m = 1.7, 0.8
        p = preset_one_mass(m=m, k=k, verify=False)
        traj = simulate(p.system, np.array([0.7, -0.4]), p.forcings["zero"],
                        3.0, 1e-3)
        z, zdot = traj.states[:, 0], traj.states[:, 1]
        energy = 0.5 * k * z**2 + 0.5 * m * zdot**2
        quad = 0.5 * np.einsum("ij,jk,ik->i", traj.states, p.p_cert.P,
                               traj.states)
        np.testing.assert_allclose(quad, energy, rtol=0, atol=1e-14)

    def test_unforced_energy_monotone(self):
        p = preset_one_mass(verify=False)
        traj = simulate(p.system, np.array([1.0, 0.0]), p.forcings["zero"],
                        20.0, 1e-3)
        res = lyapunov_monotonicity(traj, p.p_cert)
        assert res.passed, res

    def test_determinism_bit_identical(self):
        p = preset_two_mass(verify=False)
        v = p.forcings["v_p"]
        x0 = np.array([0.25, 0.25, -0.05, -0.025])
        a = simulate(p.system, x0, v, 5.0, 1e-3)
        b = simulate(p.system, x0, v, 5.0, 1e-3)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.times, b.times)

    def test_shift_invariance_reproduces_tail(self):
        p = preset_two_mass(verify=False)
        v = p.forcings["v_p"]

        def whole(T):  # the whole-step horizon nearest T
            return 1e-3 * round(T / 1e-3)

        full = simulate(p.system, np.array([0.25, 0.25, -0.05, -0.025]), v,
                        whole(2.0 + v.period), 1e-3)
        tau = 2.0
        k = int(round(tau / 1e-3))
        tail = simulate(p.system, full.states[k], v.shifted(tau),
                        whole(v.period), 1e-3)
        err = np.max(np.linalg.norm(tail.states - full.states[k:], axis=1))
        assert err <= 1e-6

    def test_blow_up_reported_with_escape_time(self):
        sys_unstable = scalar_system(a=3.0)
        with pytest.raises(BlowUpError) as err:
            simulate(sys_unstable, np.array([1.0]), zero_signal(1), 10.0, 1e-3)
        assert 0.0 < err.value.time <= 10.0
        assert np.isfinite(err.value.last_state).all()

    def test_blow_up_raises_only_the_typed_error(self):
        # cubic anti-damping: the stages of the escaping step overflow,
        # and the buffered loop runs on past it to the end of its block
        f = custom_nonlinearity(lambda t, y: y - 0.5 * y**3, 1)
        p = preset_one_mass(f=f, verify=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            new, ref = _blow_ups(p.system, np.array([[0.5, 0.0], [4.0, 4.0]]),
                                 p.forcings["zero"], 10.0, 0.02)
        assert (new.time, new.row) == (ref.time, ref.row)
        assert new.last_state.tobytes() == ref.last_state.tobytes()

    def test_rejects_bad_dt_and_dimensions(self):
        p = preset_one_mass(verify=False)
        with pytest.raises(ValueError):
            simulate(p.system, np.zeros(2), p.forcings["zero"], 1.0, 0.0)
        with pytest.raises(ValueError):
            simulate(p.system, np.zeros(2), zero_signal(2), 1.0, 1e-3)

    @pytest.mark.parametrize("T, dt", [
        (math.inf, 1e-3), (math.nan, 1e-3), (-1.0, 1e-3),
        (1.0, math.nan), (1.0, math.inf)])
    def test_rejects_non_finite_or_negative_horizon_and_step(self, T, dt):
        p = preset_one_mass(verify=False)
        with pytest.raises(ValueError, match="finite and positive"):
            simulate(p.system, np.zeros(2), p.forcings["zero"], T, dt)

    @pytest.mark.parametrize("x0", [[math.nan, 0.0], [0.0, math.inf],
                                    [[1.0, 0.0], [0.0, -math.inf]]])
    def test_rejects_non_finite_x0(self, x0):
        p = preset_one_mass(verify=False)
        with pytest.raises(ValueError, match="x0 must be finite"):
            simulate(p.system, np.array(x0), p.forcings["zero"], 1.0, 1e-2)

    def test_rejects_horizon_off_the_step_grid(self):
        # T = 1 at dt = 0.3 used to stop at t = 0.9 without a word
        p = preset_one_mass(verify=False)
        with pytest.raises(ValueError, match="multiple of dt"):
            simulate(p.system, np.array([1.0, 0.0]), p.forcings["zero"],
                     1.0, 0.3)
        # whole multiples that are not exact in binary still run to T
        for T, dt, n_steps in ((3.0, 0.1, 30), (100.0, 0.02, 5000),
                               (0.3, 0.1, 3)):
            traj = simulate(scalar_system(), np.array([1.0]), zero_signal(1),
                            T, dt)
            assert len(traj.times) == n_steps + 1
            assert traj.times[-1] == pytest.approx(T, rel=1e-12)

    def test_substeps_recorded_at_jumps(self):
        p = preset_two_mass(verify=False)
        v = p.forcings["v_p"]
        traj = simulate(p.system, np.zeros(4), v, 10.0, 1e-3)
        n_steps = int(round(10.0 / 1e-3))
        n_jumps = len(v.breakpoints(0.0, 10.0))
        assert traj.n_substeps == n_steps + n_jumps

    def test_counters_on_two_mass_v_s(self):
        p = preset_two_mass(verify=False)
        v = p.forcing("v_s")
        traj = simulate(p.system, p.initial_conditions[0], v, 20.0, 0.01)
        bps = v.breakpoints(0.0, 20.0)
        inside = np.min(np.abs(traj.times[:, None] - bps), axis=0) > 1e-12
        assert traj.n_steps == 2000 and np.count_nonzero(inside) == 5
        assert traj.n_substeps == traj.n_steps + np.count_nonzero(inside)
        assert traj.rhs_evals == 4 * traj.n_substeps
        assert traj.peak_norm == np.max(np.linalg.norm(traj.states, axis=1))


class TestDifferenceSystem:
    def test_difference_state_matches_augmented_integration(self):
        # integrating the subtracted vector field jointly reproduces x1 - x2
        p = preset_two_mass(verify=False)
        v1 = p.forcings["v_p"]
        v2 = p.forcings["zero"]
        x1 = np.array([0.25, 0.25, -0.05, -0.025])
        x2 = np.zeros(4)
        t1 = simulate(p.system, x1, v1, 10.0, 1e-3)
        t2 = simulate(p.system, x2, v2, 10.0, 1e-3)

        A, B, C = p.triple.A, p.triple.B, p.triple.C
        f = p.system.f
        A_aug = np.block([[A, np.zeros((4, 4))], [np.zeros((4, 4)), A]])
        B_aug = np.block([[B, np.zeros((4, 2))], [np.zeros((4, 2)), B]])
        C_aug = np.block([[C, C], [np.zeros((2, 4)), C]])

        def f_aug(t, y):
            y = np.asarray(y)
            y1, y2 = y[..., :2], y[..., 2:]
            return np.concatenate([f(t, y1 + y2) - f(t, y2), f(t, y2)],
                                  axis=-1)

        aug = LureSystem(LinearTriple(A_aug, B_aug, C_aug),
                         custom_nonlinearity(f_aug, 4))
        dv = SignalSpec("dv", lambda ts: v1.fn(ts) - v2.fn(ts), 2,
                        jump_lattices=v1.jump_lattices)
        v_aug = SignalSpec("aug", lambda ts: np.hstack([dv.fn(ts), v2.fn(ts)]),
                           4, jump_lattices=v1.jump_lattices + v2.jump_lattices)
        aug_traj = simulate(aug, np.concatenate([x1 - x2, x2]), v_aug,
                            10.0, 1e-3)
        xi = aug_traj.states[:, :4]
        direct = t1.states - t2.states
        assert np.max(np.linalg.norm(xi - direct, axis=1)) <= 1e-6


class TestIncrementalGap:
    def test_identical_trajectories_zero_gap(self):
        p = preset_one_mass(verify=False)
        v = p.forcings["zero"]
        t1 = simulate(p.system, np.array([1.0, 0.0]), v, 2.0, 1e-3)
        gap = incremental_gap(t1, t1, v, v)
        assert np.all(gap.values == 0.0)
        assert np.all(gap.forcing_l1 == 0.0)

    def test_same_forcing_is_not_evaluated(self):
        p = preset_two_mass(verify=False)
        v = p.forcing("v_s")
        a, b = simulate(p.system, np.array(p.initial_conditions[:2]), v,
                        5.0, 0.02)
        calls = []

        def fn(ts):
            calls.append(len(ts))
            return v.fn(ts)

        counted = replace(v, fn=fn)
        gap = incremental_gap(a, b, counted, counted)
        assert calls == []
        assert gap.forcing_l1.tobytes() == np.zeros(251).tobytes()
        assert gap.forcing_sup.tobytes() == np.zeros(251).tobytes()

    # the six pairs of the entrainment sweep; a copy of v is another
    # object, so its gap evaluates the forcing twice
    @pytest.mark.parametrize("name,forcing", [
        ("two-mass", "v_p"), ("two-mass", "v_s"), ("two-mass", "v_ap"),
        ("two-mass", "v_aap"), ("one-mass", "saw"), ("wec", "sin")])
    def test_same_forcing_gap_equals_two_evaluations(self, name, forcing):
        p = preset_by_name(name, verify=False)
        v = p.forcing(forcing)
        a, b = simulate(p.system, np.array(p.initial_conditions[:2],
                                           dtype=float), v, 20.0, 0.02)
        new, ref = incremental_gap(a, b, v, v), incremental_gap(a, b, v,
                                                                replace(v))
        for field in ("times", "values", "forcing_l1", "forcing_sup"):
            assert getattr(new, field).tobytes() == \
                getattr(ref, field).tobytes(), field
        assert new.values.tobytes() == \
            np.linalg.norm(a.states - b.states, axis=1).tobytes()

    def test_two_mass_gap_decays(self):
        p = preset_two_mass(verify=False)
        v = p.forcings["v_p"]
        a, b = simulate(p.system, np.array([[0.25, 0.25, -0.05, -0.025],
                                            np.zeros(4)]), v, 100.0, 1e-3)
        gap = incremental_gap(a, b, v, v)
        assert gap.values[-1] < 1e-2

    def test_constant_offset_static_gain(self):
        # f = 0, stable scalar loop: steady-state gap = |static gain| * offset
        sys1 = scalar_system(a=-2.0)
        c = 0.8
        v1 = constant_signal([c])
        v2 = zero_signal(1)
        t1 = simulate(sys1, np.zeros(1), v1, 10.0, 1e-3)
        t2 = simulate(sys1, np.zeros(1), v2, 10.0, 1e-3)
        gap = incremental_gap(t1, t2, v1, v2)
        static_gain = abs(-1.0 / -2.0)  # -A^{-1} B
        assert gap.values[-1] == pytest.approx(static_gain * c, rel=1e-6)

    def test_grid_mismatch_rejected(self):
        p = preset_one_mass(verify=False)
        v = p.forcings["zero"]
        t1 = simulate(p.system, np.zeros(2), v, 2.0, 1e-3)
        t2 = simulate(p.system, np.zeros(2), v, 2.0, 2e-3)
        with pytest.raises(ValueError):
            incremental_gap(t1, t2, v, v)


class TestFitExponential:
    def _series(self, fn, T=20.0, dt=1e-2):
        ts = dt * np.arange(int(T / dt) + 1)
        vals = fn(ts)
        zero = np.zeros_like(ts)
        return GapSeries(ts, vals, zero, zero)

    def test_exact_exponential_recovered(self):
        gap = self._series(lambda t: 3.0 * np.exp(-0.5 * t))
        fit = fit_exponential(gap, window=(0.0, 20.0))
        assert fit.M * gap.initial() == pytest.approx(3.0, rel=1e-10)
        assert fit.gamma == pytest.approx(0.5, abs=1e-12)
        assert fit.residual < 1e-12

    def test_modulated_envelope(self):
        gap = self._series(lambda t: np.exp(-t) * (2.0 + np.sin(t)))
        fit = fit_exponential(gap, window=(0.0, 20.0))
        assert 0.9 <= fit.gamma <= 1.1
        assert fit.residual > 0

    def test_two_mass_contraction_verdict(self):
        p = preset_two_mass(verify=False)
        v = p.forcings["v_p"]
        a, b = simulate(p.system, np.array([[0.25, 0.25, -0.05, -0.025],
                                            np.zeros(4)]), v, 60.0, 1e-3)
        fit = fit_exponential(incremental_gap(a, b, v, v))
        assert fit.gamma > 0

    def test_insufficient_nodes_raises(self):
        gap = self._series(lambda t: np.zeros_like(t), T=1.0, dt=0.1)
        with pytest.raises(InsufficientDataError):
            fit_exponential(gap)


class TestMonotonicity:
    def test_two_mass_published_ic(self):
        p = preset_two_mass(verify=False)
        traj = simulate(p.system, np.array([0.25, 0.25, -0.05, -0.025]),
                        p.forcings["zero"], 20.0, 1e-3)
        assert lyapunov_monotonicity(traj, p.p_cert).passed

    def test_zero_trajectory_trivially_passes(self):
        p = preset_one_mass(verify=False)
        traj = simulate(p.system, np.zeros(2), p.forcings["zero"], 1.0, 1e-3)
        res = lyapunov_monotonicity(traj, p.p_cert)
        assert res.passed and res.max_increase == 0.0

    def test_energy_pumping_detected(self):
        # unstable loop increases the quadratic form
        sys_bad = LureSystem(
            LinearTriple(np.array([[0.0, 1.0], [-1.0, 0.3]]),
                         np.array([[0.0], [1.0]]), np.array([[0.0, 1.0]])),
            ZERO_F)
        traj = simulate(sys_bad, np.array([1.0, 0.0]), zero_signal(1),
                        10.0, 1e-3)
        res = lyapunov_monotonicity(traj, certify_p(sys_bad.triple, np.eye(2)))
        assert not res.passed


@pytest.fixture(scope="module")
def ensemble():
    p = preset_two_mass(verify=False)
    vp = p.forcings["v_p"]
    bump = SignalSpec(
        "bump", lambda ts: 0.2 * np.exp(-0.5 * np.asarray(ts))[:, None]
        * np.array([[0.0, 1.0]]), 2)
    v_pert = vp + bump
    T = 40.0
    x0 = np.array([0.25, 0.25, -0.05, -0.025])
    # one K = 2 call per forcing; rows equal their K = 1 runs
    base, same = simulate(p.system, np.array([np.zeros(4), x0]), vp, T, 1e-3)
    same_forcing = incremental_gap(same, base, vp, vp)
    pert, held = simulate(p.system, np.array([x0, [0.1, -0.2, 0.15, 0.05]]),
                          v_pert, T, 1e-3)
    perturbed = incremental_gap(pert, base, v_pert, vp)
    held_out = incremental_gap(held, base, v_pert, vp)
    return same_forcing, perturbed, held_out


class TestIissBound:
    def test_zero_forcing_difference_reduces_to_envelope(self, ensemble):
        same_forcing, *_ = ensemble
        sur = fit_iiss_surrogates([same_forcing])
        verdict = iiss_bound_check([same_forcing], sur)[0]
        assert verdict.passed

    def test_train_and_held_out_split(self, ensemble):
        same_forcing, perturbed, held_out = ensemble
        sur = fit_iiss_surrogates([same_forcing, perturbed])
        assert sur.gamma > 0
        verdicts = iiss_bound_check([same_forcing, perturbed, held_out], sur)
        assert all(v.passed for v in verdicts), verdicts

    def test_adversarial_nonlinearity_fails(self):
        # sign-violating feedback destroys the contraction: the envelope
        # fitted on a stable pair cannot cover the growing gap
        from lurelab.sectorcore import neg_identity_nonlinearity
        triple = LinearTriple(np.array([[0.0, 1.0], [-1.0, 0.0]]),
                              np.array([[0.0], [1.0]]),
                              np.array([[0.0, 1.0]]))
        bad = LureSystem(triple, neg_identity_nonlinearity(1))
        v = zero_signal(1)
        a = simulate(bad, np.array([0.4, 0.0]), v, 12.0, 1e-3)
        b = simulate(bad, np.zeros(2), v, 12.0, 1e-3)
        growing = incremental_gap(a, b, v, v)
        sur = fit_iiss_surrogates([self._stable_gap()])
        verdict = iiss_bound_check([growing], sur)[0]
        assert not verdict.passed

    @staticmethod
    def _stable_gap():
        p = preset_one_mass(verify=False)
        v = p.forcings["zero"]
        a = simulate(p.system, np.array([0.4, 0.0]), v, 12.0, 1e-3)
        b = simulate(p.system, np.zeros(2), v, 12.0, 1e-3)
        return incremental_gap(a, b, v, v)


PRESET_FORCINGS = (
    [("one-mass", f) for f in ("zero", "sin", "saw")]
    + [("two-mass", f) for f in ("zero", "v_p", "v_s", "v_ap", "v_aap")]
    + [("wec", f) for f in ("zero", "sin")])


class TestBatch:
    @pytest.mark.parametrize("name,forcing", PRESET_FORCINGS)
    def test_rows_bit_identical_across_batch_sizes(self, name, forcing):
        p = preset_by_name(name, verify=False)
        v = p.forcing(forcing)
        X = np.random.default_rng(5).uniform(-1.0, 1.0, (64, p.triple.n))
        big = simulate(p.system, X, v, 20.0, 0.01)
        pair = simulate(p.system, X[:2], v, 20.0, 0.01)
        assert len(big) == 64 and len(pair) == 2
        for i in (0, 1, 37, 63):
            single = simulate(p.system, X[i], v, 20.0, 0.01)
            assert np.array_equal(single.states, big[i].states)
            assert single.n_substeps == big[i].n_substeps
            if i < 2:
                assert np.array_equal(single.states, pair[i].states)

    def test_blow_up_names_lowest_row(self):
        sys_unstable = scalar_system(a=3.0)
        X = np.array([[1e-3], [1.0], [1.0]])
        with pytest.raises(BlowUpError) as err:
            simulate(sys_unstable, X, zero_signal(1), 10.0, 1e-3)
        with pytest.raises(BlowUpError) as alone:
            simulate(sys_unstable, X[1], zero_signal(1), 10.0, 1e-3)
        assert err.value.row == 1
        assert err.value.time == alone.value.time
        assert np.array_equal(err.value.last_state, alone.value.last_state)

    def test_rejects_bad_state_shape(self):
        p = preset_one_mass(verify=False)
        with pytest.raises(ValueError):
            simulate(p.system, np.zeros((3, 4)), p.forcings["zero"], 1.0, 1e-2)
        with pytest.raises(ValueError):
            simulate(p.system, np.zeros((2, 3, 2)), p.forcings["zero"], 1.0,
                     1e-2)

    def test_nonlinearity_output_shape_checked(self):
        summed = custom_nonlinearity(lambda t, y: y.sum(axis=-1), 1)
        sys_bad = LureSystem(scalar_system().triple, summed)
        with pytest.raises(ValueError, match="nonlinearity"):
            simulate(sys_bad, np.ones((2, 1)), zero_signal(1), 1.0, 1e-2)


@settings(max_examples=25, deadline=None)
@given(case=st.sampled_from(PRESET_FORCINGS), k=st.integers(1, 8),
       data=st.data())
def test_rows_equal_single_runs_for_any_batch_and_order(case, k, data):
    name, forcing = case
    p = preset_by_name(name, verify=False)
    v = p.forcing(forcing)
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    X = np.random.default_rng(seed).uniform(-1.0, 1.0, (k, p.triple.n))
    order = data.draw(st.permutations(range(k)), label="order")
    # horizon 10 reaches the first jump of every jump lattice (5.92)
    batch = simulate(p.system, X[order], v, 10.0, 0.05)
    for row, i in zip(batch, order):
        single = simulate(p.system, X[i], v, 10.0, 0.05)
        assert np.array_equal(row.states, single.states)
        assert row.n_substeps == single.n_substeps


@pytest.mark.parametrize("offset", [0.0, 0.25])
def test_jump_stages_read_left_limit(offset):
    # dx/dt = -x + v with a square wave: at dt = 0.1 its jumps fall on
    # grid nodes (offset 0) or inside steps (offset 0.25); reading the
    # post-jump value at a closing stage would cost O(dt) per jump
    def square(ts):
        return (np.mod(np.asarray(ts) - offset, 1.0) >= 0.5).astype(float)[:, None]

    v = SignalSpec("square", square, 1, jump_lattices=((0.5, offset),))
    traj = simulate(scalar_system(), np.array([0.0]), v, 3.0, 0.1)
    jumps = v.breakpoints(0.0, 3.0)
    edges = np.concatenate([[0.0], jumps, [3.0]])
    x, exact = 0.0, []
    for a, b in zip(edges[:-1], edges[1:]):
        c = float(square(np.array([a]))[0, 0])
        nodes = traj.times[(traj.times >= a - 1e-12) & (traj.times < b - 1e-12)]
        exact.extend(c + (x - c) * np.exp(-(nodes - a)))
        x = c + (x - c) * math.exp(-(b - a))
    exact.append(x)
    assert len(jumps) >= 5
    assert np.max(np.abs(traj.states[:, 0] - np.array(exact))) <= 1e-6


# ---------------------------------------------------------------------------
# differential test against an independent adaptive integrator


def dop853_reference(system, v, x0, times):
    """The closed loop integrated by scipy's DOP853 (rtol 1e-11, atol
    1e-13), restarted at every declared jump of ``v``; each segment reads
    the forcing from its left end up to just before its right end."""
    from scipy.integrate import solve_ivp
    A, B, C = system.triple.A, system.triple.B, system.triple.C
    edges = np.concatenate([[0.0], v.breakpoints(0.0, times[-1]),
                            [times[-1]]])
    x, out = np.asarray(x0, dtype=float), []
    for a, b in zip(edges[:-1], edges[1:]):
        b_left = b - 1e-12 * max(1.0, abs(b))

        def rhs(t, x):
            vt = v(np.array([min(t, b_left)]))[0]
            return A @ x + B @ (vt - system.f(t, C @ x))

        sol = solve_ivp(rhs, (a, b), x, method="DOP853", rtol=1e-11,
                        atol=1e-13, dense_output=True)
        nodes = times[(times >= a) & (times < b)]
        out.append(sol.sol(nodes).T.reshape(len(nodes), len(x)))
        x = sol.y[:, -1]
    out.append(x[None, :])
    return np.concatenate(out)


# the forcings are read from t = 3.5 on, so that the first jumps of every
# jump lattice (at 8.38 and 5.92) fall inside the 5 s horizon
DIFF_SHIFT, DIFF_T = 3.5, 5.0
# RK4 error against the reference, max over nodes of the state norm; the
# largest seen on the ten pairs were 3.7e-10 at dt 1e-3 and 8.7e-7 at dt
# 0.02 (two-mass / v_ap), so the bounds leave a factor of ten or more
DIFF_BOUND = {1e-3: 5e-9, 0.02: 1e-5}


@pytest.mark.parametrize("dt", sorted(DIFF_BOUND))
@pytest.mark.parametrize("name,forcing", PRESET_FORCINGS)
def test_simulate_matches_dop853_reference(name, forcing, dt):
    p = preset_by_name(name, verify=False)
    v = p.forcing(forcing).shifted(DIFF_SHIFT)
    x0 = p.initial_conditions[0]
    traj = simulate(p.system, x0, v, DIFF_T, dt)
    ref = dop853_reference(p.system, v, x0, traj.times)
    err = np.max(np.linalg.norm(traj.states - ref, axis=1))
    assert err <= DIFF_BOUND[dt]


def test_v_ap_gate_gap_matches_dop853_reference():
    """The acceptance gate's two-mass ``v_ap`` pair (horizon 100),
    integrated by DOP853: its final-decile gap agrees with the RK4 one
    and is above the gate's 1e-2 too, so the gate's failure is the
    loop's slow decay, not the integrator's error."""
    from lurelab.experiments import preset_two_mass, run_entrainment
    p = preset_two_mass(verify=False)
    res = run_entrainment(p, "v_ap", horizon=100.0, dt=0.02)
    times = res.gap.times
    ref_a, ref_b = (dop853_reference(p.system, p.forcing("v_ap"), x0, times)
                    for x0 in p.initial_conditions)
    gap = np.linalg.norm(ref_a - ref_b, axis=1)
    ref_sup = float(np.max(gap[times >= 90.0 - 1e-12]))
    # measured: 2.02691e-2 (DOP853) against 2.02683e-2 (RK4, dt 0.02)
    assert ref_sup > 1e-2
    assert abs(res.final_decile_sup - ref_sup) <= 2e-4 * ref_sup


def test_dop853_error_falls_sixteen_fold_when_dt_halves():
    p = preset_by_name("wec", verify=False)
    v, x0 = p.forcing("zero"), p.initial_conditions[0]
    errs = []
    for dt in (0.04, 0.02, 0.01):
        traj = simulate(p.system, x0, v, DIFF_T, dt)
        ref = dop853_reference(p.system, v, x0, traj.times)
        errs.append(np.max(np.linalg.norm(traj.states - ref, axis=1)))
    for coarse, fine in zip(errs, errs[1:]):
        assert 14.0 <= coarse / fine <= 18.0


# ---------------------------------------------------------------------------
# fourth order on random Hurwitz linear loops


@settings(max_examples=100, deadline=None)
@given(G=st.integers(1, 4).flatmap(lambda n: hnp.arrays(
           np.float64, (n, n + 2), elements=st.floats(-3.0, 3.0))),
       margin=st.floats(0.01, 2.0))
def test_rk4_error_falls_sixteen_fold_on_random_linear_loops(G, margin):
    """Linear loops A, B, C with the identity nonlinearity and zero
    forcing; A - BC = S - (rho(S) + margin) I is Hurwitz, drawn as in
    the Lyapunov property of the certificate tests.  Time is scaled by
    s = ||(A - BC)^5||^(1/5), which is at least the spectral radius, so
    RK4's leading error (T dt^4 / 120) (A - BC)^5 x(T) has the same size
    on every draw: T = 2 / s is run in 20 and in 40 steps.  Over 6 000
    draws the error ratio lay in [14.3, 17.3], and the 40-step error was
    at least 2e-12 of the largest state norm, two hundred times the
    roundoff of 40 steps.  The loop is drawn in a fixed rotated basis,
    because scipy's ``expm`` loses digits on triangular matrices whose
    diagonal entries differ by rounding (it gave 17.5 for 17.32 on a
    2 x 2 Jordan-like block)."""
    from scipy.linalg import expm
    n = len(G)
    S, B, C = G[:, :n], G[:, n:n + 1], G[:, n + 1:].T
    M = S - (np.max(np.abs(np.linalg.eigvals(S))) + margin) * np.eye(n)
    Q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((n, n)))
    A, B, C = Q @ (M + B @ C) @ Q.T, Q @ B, C @ Q.T
    system = LureSystem(LinearTriple(A, B, C), identity_nonlinearity(1))
    x0 = np.random.default_rng(0).standard_normal(n)
    T = 2.0 / np.linalg.norm(np.linalg.matrix_power(A - B @ C, 5), 2) ** 0.2
    errs = []
    for n_steps in (20, 40):
        traj = simulate(system, x0, zero_signal(1), T, T / n_steps)
        exact = expm((A - B @ C) * traj.times[-1]) @ x0
        errs.append(np.linalg.norm(traj.states[-1] - exact))
    assert 12.0 <= errs[0] / errs[1] <= 20.0


# ---------------------------------------------------------------------------
# the buffered RK4 loop against the allocating one in oracles.simulate


def _runs_equal_bytewise(new, ref):
    new, ref = (r if isinstance(r, tuple) else (r,) for r in (new, ref))
    return len(new) == len(ref) and all(
        a.times.tobytes() == b.times.tobytes()
        and a.states.tobytes() == b.states.tobytes()
        and a.n_substeps == b.n_substeps for a, b in zip(new, ref))


@pytest.mark.parametrize("name,forcing", [
    ("two-mass", "v_p"), ("two-mass", "v_s"), ("two-mass", "v_ap"),
    ("two-mass", "v_aap"), ("one-mass", "saw"), ("wec", "sin")])
def test_entrainment_pairs_match_allocating_loop_bytewise(name, forcing):
    # the six pairs of the entrainment sweep, as run_entrainment runs them
    p = preset_by_name(name, verify=False)
    v = p.forcing(forcing)
    X0 = np.array(p.initial_conditions[:2], dtype=float)
    new = simulate(p.system, X0, v, 100.0, 0.02)
    assert _runs_equal_bytewise(new, oracles.simulate(p.system, X0, v, 100.0, 0.02))
    if (name, forcing) == ("one-mass", "saw"):
        # the CLI prints this final-decile gap as text
        gap = incremental_gap(*new, v, v)
        assert f"{np.max(gap.values[gap.times >= 90.0 - 1e-12]):.3e}" == "7.179e-15"


@pytest.mark.parametrize("k", [1, 64])
def test_batch_sizes_match_allocating_loop_bytewise(k):
    p = preset_two_mass(verify=False)
    v = p.forcing("v_s")
    X = np.random.default_rng(11).uniform(-2.0, 2.0, (k, 4))
    X_before = X.copy()
    new = simulate(p.system, X, v, 20.0, 0.02)
    assert _runs_equal_bytewise(new, oracles.simulate(p.system, X, v, 20.0, 0.02))
    assert np.array_equal(X, X_before)  # the loop works on its own copy
    if k == 1:
        assert _runs_equal_bytewise(simulate(p.system, X[0], v, 20.0, 0.02),
                                    new[0])


@pytest.mark.parametrize("name", ["one-mass", "two-mass", "wec"])
def test_unforced_runs_match_allocating_loop_bytewise(name):
    p = preset_by_name(name, verify=False)
    X0 = np.array(p.initial_conditions[:2], dtype=float)
    args = (p.forcing("zero"), 50.0, 0.02)
    assert _runs_equal_bytewise(simulate(p.system, X0, *args),
                                oracles.simulate(p.system, X0, *args))


@pytest.mark.parametrize("escape", [
    (1,), (65,), (96,), (128,), (140,), (96, 70, 70), (200, 128, 65),
    (150, 200)])
def test_blow_up_matches_allocating_loop(escape):
    # dx/dt = 3x grows by g per RK4 step of 0.01, so a row starting at
    # 1e9 g^(1/2 - j) first exceeds the blow-up norm at node j.  Nodes 1,
    # 65, 96 and 128 are the first, a middle and the last node of a block
    # of 64 stored nodes; 140 and 150 fall in the final partial block of
    # a 150-step run; a row set for node 200 never escapes
    z = 3.0 * 0.01
    g = 1.0 + z + z**2 / 2 + z**3 / 6 + z**4 / 24
    X = BLOWUP_NORM * g ** (0.5 - np.array(escape, dtype=float))[:, None]
    new, ref = _blow_ups(scalar_system(a=3.0), X, zero_signal(1), 1.5, 0.01)
    first = min(escape)
    assert ref.time == pytest.approx(0.01 * first) and ref.row == escape.index(first)
    assert (new.time, new.row) == (ref.time, ref.row)
    assert new.last_state.tobytes() == ref.last_state.tobytes()


def test_blow_up_to_nan_matches_allocating_loop():
    # the nonlinearity turns every state NaN from t = 0.955 on, inside a
    # block and without any state growing first
    f = custom_nonlinearity(lambda t, y: y + (np.nan if t > 0.955 else 0.0),
                            1, time_varying=True)
    system = LureSystem(scalar_system().triple, f)
    X = np.array([[0.5], [-0.25]])
    new, ref = _blow_ups(system, X, zero_signal(1), 1.5, 0.01)
    assert ref.time == pytest.approx(0.96) and ref.row == 0
    assert (new.time, new.row) == (ref.time, ref.row)
    assert new.last_state.tobytes() == ref.last_state.tobytes()


def test_pair_run_keeps_one_copy_of_the_states():
    # a K = 2, 5 000-step two-mass run holds its 313 KiB of states once;
    # a whole-run Python list or a second copy of the states would push
    # the traced peak past 1 MiB
    p = preset_two_mass(verify=False)
    v = p.forcing("v_p")
    X0 = np.array(p.initial_conditions[:2], dtype=float)
    simulate(p.system, X0, v, 1.0, 0.02)
    tracemalloc.start()
    try:
        simulate(p.system, X0, v, 100.0, 0.02)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("dt", [0.02, 9e-3])
@pytest.mark.parametrize("K", [1, 3])
@pytest.mark.parametrize("name,forcing", [
    ("two-mass", "v_p"), ("two-mass", "v_s"), ("one-mass", "saw"),
    ("two-mass", "zero")])
def test_table_block_edges_keep_bytes(monkeypatch, name, forcing, K, dt):
    # v_p's and saw's first jump, at 2 pi / 0.75 = 8.378, lies inside the
    # step that ends at node k: blocks of k - 1 and k steps put an edge on
    # either end of that step, and blocks of 1 and 7 steps put edges
    # everywhere.  A linear copy of the loop whose A is shifted by 2
    # blows up near t = 9.2, after that jump
    from lurelab import simcore
    p = preset_by_name(name, verify=False)
    v, T = p.forcing(forcing), 10.8
    k = math.ceil(2.0 * math.pi / 0.75 / dt)
    triple = p.system.triple
    grows = LureSystem(
        LinearTriple(triple.A + 2.0 * np.eye(triple.n), triple.B, triple.C),
        custom_nonlinearity(lambda t, y: np.zeros_like(y), triple.m))
    X = np.array([1.0, 3.0, -2.0])[:K, None] * np.ones(triple.n)
    if K == 1:
        X = X[0]
    ref = oracles.simulate(p.system, X, v, T, dt)
    with pytest.raises(BlowUpError) as err:
        oracles.simulate(grows, X, v, T, dt)
    old = err.value
    assert old.time > 8.4 and old.row == (1 if K == 3 else 0)
    for steps in (1, 7, k - 1, k):
        monkeypatch.setattr(simcore, "_TABLE_STEPS", steps)
        assert _runs_equal_bytewise(simulate(p.system, X, v, T, dt), ref), steps
        with pytest.raises(BlowUpError) as err:
            simulate(grows, X, v, T, dt)
        assert (err.value.time, err.value.row) == (old.time, old.row), steps
        assert err.value.last_state.tobytes() == old.last_state.tobytes()


def test_pair_run_holds_no_whole_run_table():
    # a K = 2, 20 000-step two-mass v_p run: beyond its states (1.2 MiB)
    # and times (0.2 MiB) it holds one block of the sub-step table; the
    # whole-run table peaked at 2.2 MiB more while it was built
    p = preset_two_mass(verify=False)
    v = p.forcing("v_p")
    X0 = np.array(p.initial_conditions[:2], dtype=float)
    T, dt = 40.0, 2e-3
    simulate(p.system, X0, v, 1.0, dt)
    tracemalloc.start()
    try:
        pair = simulate(p.system, X0, v, T, dt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(t.states.nbytes for t in pair) + pair[0].times.nbytes
    assert peak < held + 2**20, (peak - held) / 2**20


def _forced_gap():
    t = np.linspace(0.0, 1.0, 11)
    return GapSeries(t, np.exp(-t), t, np.ones_like(t))


@pytest.mark.parametrize("call, exc, fragment", [
    pytest.param(lambda: LureSystem(scalar_system().triple,
                                    identity_nonlinearity(2)),
                 ValueError, "nonlinearity dimension 2 != triple m 1",
                 id="system-m"),
    pytest.param(lambda: Trajectory(np.arange(3.0), np.zeros((2, 1))),
                 ValueError, "lengths differ", id="trajectory-lengths"),
    pytest.param(lambda: Trajectory(np.array([0.0, 1.0, 1.0]),
                                    np.zeros((3, 1))),
                 ValueError, "strictly increasing", id="trajectory-grid"),
    pytest.param(lambda: Trajectory(np.arange(2.0), np.array([[0.0], [np.nan]])),
                 ValueError, "non-finite", id="trajectory-finite"),
    pytest.param(lambda: fit_iiss_surrogates([_forced_gap()]),
                 InsufficientDataError, "need at least one equal-forcing pair",
                 id="iiss-no-unforced-pair"),
])
def test_bad_input_raises_a_typed_error(call, exc, fragment):
    with pytest.raises(exc, match=re.escape(fragment)):
        call()
