import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lurelab import apsignals as ap
from lurelab.apsignals import (SignalSpec, constant_signal,
                               fourier_coefficient, fourier_table,
                               make_example_forcings, module_containment,
                               sawtooth, signal_from_samples, stepanov_norm,
                               stepanov_period_scan, zero_signal)
import oracles

TAU_P = 2.0 * math.pi / 0.75


@settings(max_examples=200, deadline=None)
# t0 - offset rounded to -1.0 here, and the point 0.0 was dropped
@example(lattices=[(1.0, 1.0)], t0=-7.727512929733072e-69, length=1.0)
@given(lattices=st.lists(st.tuples(st.floats(0.05, 10.0),
                                   st.floats(-20.0, 20.0)), max_size=3),
       t0=st.floats(-30.0, 30.0), length=st.floats(0.0, 40.0))
def test_breakpoints_are_the_lattice_points_inside(lattices, t0, length):
    t1 = t0 + length
    v = SignalSpec("jumps", lambda ts: np.zeros((len(ts), 1)), 1,
                   jump_lattices=tuple(lattices))
    bps = v.breakpoints(t0, t1)
    assert np.all(np.diff(bps) > 0)
    assert np.all((bps > t0) & (bps < t1))
    # offset + k * period for every integer k of a window one wider on
    # each side, kept when strictly inside (t0, t1)
    inside = set()
    for period, offset in lattices:
        ks = np.arange(math.floor((t0 - offset) / period) - 1,
                       math.ceil((t1 - offset) / period) + 2)
        pts = offset + period * ks
        inside.update(pts[(pts > t0) & (pts < t1)].tolist())
    assert bps.tolist() == sorted(inside)


def _channels(m):
    """An m-channel signal with jumps: sawtooths at incommensurate rates
    and different heights plus a sine per channel."""
    rates = 0.75 * np.sqrt(np.arange(1.0, m + 1))
    heights = np.arange(1.0, m + 1)

    def fn(ts):
        ts = np.asarray(ts)[:, None]
        return heights * sawtooth(rates * ts) + np.sin(1.3 * rates * ts)

    lattices = tuple((2 * math.pi / r, 0.0) for r in rates)
    return SignalSpec(f"ch{m}", fn, m, jump_lattices=lattices)


def _test_signal(name):
    """A benchmark forcing, a t^2 ramp, a channel signal ``ch<m>`` or
    one-sided sampled noise ``noise<m>``."""
    if name == "t^2":
        return SignalSpec(name, lambda t: (t * t)[:, None], 1)
    if name.startswith("ch"):
        return _channels(int(name[2:]))
    if name.startswith("noise"):
        m = int(name[5:])
        tgrid = np.linspace(0.0, 60.0, 6001)
        vals = np.random.default_rng(m).uniform(-1, 1, (tgrid.size, m))
        return signal_from_samples(tgrid, vals, name)
    return make_example_forcings()[name]


class TestSawtooth:
    def test_anchor_values(self):
        assert sawtooth(0.0) == pytest.approx(-1.0)
        assert sawtooth(math.pi) == pytest.approx(0.0)
        assert sawtooth(2.0 * math.pi) == pytest.approx(-1.0)

    def test_periodic_and_in_range(self):
        ts = np.linspace(0.0, 50.0, 4001)
        vals = sawtooth(ts)
        assert np.all(vals >= -1.0) and np.all(vals < 1.0)
        np.testing.assert_allclose(sawtooth(ts + 2 * math.pi), vals, atol=1e-9)


def test_left_limit_reads_before_the_jump():
    v = make_example_forcings()["v_p"]
    jumps = v.breakpoints(0.0, 40.0)
    before = ap.left_limit(jumps)
    assert np.all(before < jumps)
    np.testing.assert_allclose(jumps - before, 1e-12 * np.maximum(1.0, jumps),
                               rtol=1e-3)
    # sawtooth falls from 1 to -1 at each jump
    np.testing.assert_allclose(v(before)[:, 1], 1.0, atol=1e-9)
    np.testing.assert_allclose(v(jumps)[:, 1], -1.0, atol=1e-9)


class TestExampleForcings:
    def setup_method(self):
        self.forcings = make_example_forcings()

    def test_initial_values(self):
        np.testing.assert_allclose(self.forcings["v_p"](0.0), [0.0, -1.0])
        np.testing.assert_allclose(self.forcings["v_s"](0.0), [0.0, -2.0])
        np.testing.assert_allclose(self.forcings["v_aap"](0.0), [0.0, -2.0])

    def test_tags_and_period(self):
        assert self.forcings["v_p"].tag == "periodic"
        assert self.forcings["v_p"].period == pytest.approx(TAU_P)
        assert self.forcings["v_s"].tag == "stepanov-ap"
        assert self.forcings["v_ap"].tag == "ap"
        assert self.forcings["v_aap"].tag == "aap"

    def test_first_channel_is_zero(self):
        ts = np.linspace(0.0, 30.0, 500)
        for name in ("v_p", "v_s", "v_ap", "v_aap"):
            vals = self.forcings[name](ts)
            assert np.all(vals[:, 0] == 0.0)

    def test_aap_decay_term(self):
        v_s, v_aap = self.forcings["v_s"], self.forcings["v_aap"]
        ts = np.linspace(0.0, 20.0, 400)
        diff = v_aap(ts) - v_s(ts)
        np.testing.assert_allclose(diff[:, 1], ts * np.exp(-1.5 * ts),
                                   atol=1e-12)

    def test_breakpoints_on_jump_lattice(self):
        v_p = self.forcings["v_p"]
        bps = v_p.breakpoints(0.0, 3.5 * TAU_P)
        np.testing.assert_allclose(bps, [TAU_P, 2 * TAU_P, 3 * TAU_P])
        shifted = v_p.shifted(1.0)
        bps_s = shifted.breakpoints(0.0, 2 * TAU_P)
        np.testing.assert_allclose(bps_s, [TAU_P - 1.0, 2 * TAU_P - 1.0])

    def test_ap_sup_norm_tail_property(self):
        # almost periodic signals attain their sup on every right tail
        v_ap = self.forcings["v_ap"]
        ts = np.linspace(0.0, 200.0, 160_000)
        ref = np.max(np.abs(v_ap(ts)[:, 1]))
        for tau in (0.0, 50.0, 100.0):
            tail = np.max(np.abs(v_ap(tau + ts)[:, 1]))
            assert tail >= 0.98 * ref


class TestStepanovNorm:
    def test_zero_and_constant(self):
        assert stepanov_norm(zero_signal(1), 5.0) == 0.0
        assert stepanov_norm(constant_signal([2.0]), 5.0) == pytest.approx(2.0)

    def test_sin_closed_form(self):
        v = SignalSpec("sin2pi",
                       lambda ts: np.sin(2 * math.pi * np.asarray(ts))[:, None],
                       1, tag="periodic", period=1.0)
        val = stepanov_norm(v, 10.0)
        assert val == pytest.approx(2.0 / math.pi, abs=1e-3)

    def test_norm_bounded_by_sup_norm(self):
        forcings = make_example_forcings()
        ts = np.linspace(0.0, 21.0, 40_000)
        for v in forcings.values():
            sup = float(np.max(np.linalg.norm(v(ts), axis=1)))
            assert stepanov_norm(v, 20.0) <= sup + 1e-9

    def test_requires_unit_window(self):
        with pytest.raises(ValueError):
            stepanov_norm(zero_signal(1), 0.5)

    @staticmethod
    def _oracle_signals():
        """The example forcings, sampled noise in 1 and 3 channels, and a
        sawtooth that jumps at the integers: window edges and grid nodes
        fall on its jumps, so windows get different node counts."""
        rng = np.random.default_rng(4)
        ts = np.linspace(0.0, 21.0, 2101)
        out = dict(make_example_forcings())
        out["noise-1"] = signal_from_samples(ts, rng.standard_normal(ts.size))
        out["noise-3"] = signal_from_samples(ts, rng.standard_normal((ts.size, 3)))
        out["saw-int"] = SignalSpec(
            "saw-int", lambda t: sawtooth(2.0 * math.pi * np.asarray(t))[:, None],
            1, jump_lattices=((1.0, 0.0), (0.5, 0.25)))
        return out

    @pytest.mark.parametrize("windows", [1, 7, ap._WINDOWS])
    def test_matches_window_by_window_oracle(self, monkeypatch, windows):
        monkeypatch.setattr(ap, "_WINDOWS", windows)
        for name, v in self._oracle_signals().items():
            for t_end in (7.3, 20.0):
                for n_nodes in (64, 128, 256):
                    got = stepanov_norm(v, t_end, n_nodes)
                    ref = oracles.stepanov_norm(v, t_end, n_nodes)
                    assert got.hex() == ref.hex(), (name, t_end, n_nodes)

    def test_one_forcing_call_per_chunk_of_windows(self):
        v = make_example_forcings()["v_s"]
        calls = []
        counted = replace(v, fn=lambda ts: calls.append(len(ts)) or v.fn(ts))
        stepanov_norm(counted, 20.0)
        assert len(calls) == math.ceil(381 / ap._WINDOWS)


class TestPeriodScan:
    def test_exact_periods_have_zero_distance(self):
        v_p = make_example_forcings()["v_p"]
        rep = stepanov_period_scan(v_p, 0.05, (0.5 * TAU_P, 5.2 * TAU_P),
                                   scan_range=(0.0, 30.0),
                                   density_length=1.2 * TAU_P)
        for k in range(1, 6):
            i = int(np.argmin(np.abs(rep.taus - k * TAU_P)))
            assert rep.distances[i] <= 1e-10
        assert rep.accepted.sum() == 5
        assert rep.relatively_dense

    def test_stepanov_ap_empirical_density(self):
        # simultaneous near-periods of the two incommensurate sawtooths
        # cluster near continued-fraction approximants of sqrt(2); the scan
        # window is long enough that jumps of both lattices share a window
        v_s = make_example_forcings()["v_s"]
        rep = stepanov_period_scan(v_s, 0.2, (1.0, 650.0), tau_step=0.01,
                                   refine=1, scan_range=(0.0, 45.0),
                                   density_length=350.0)
        acc = rep.accepted_taus()
        assert acc.size > 0
        assert rep.relatively_dense
        # both strong coincidence clusters are represented
        for cluster in (242.9, 586.4):
            assert np.min(np.abs(acc - cluster)) < 0.5

    @staticmethod
    def _full_series_distances(v, tau_step, tau_range, scan_range, refine=4):
        """Window sums over the whole shifted series with row norms
        ``np.linalg.norm(axis=1)``, as first written."""
        h = tau_step / refine
        n_lo = max(1, int(math.ceil(tau_range[0] / tau_step - 1e-9)))
        n_hi = int(math.floor(tau_range[1] / tau_step + 1e-9))
        taus = tau_step * np.arange(n_lo, n_hi + 1)
        t_max = scan_range[1] + 1.0 + taus[-1] + h
        n_nodes = int(math.ceil((t_max - scan_range[0]) / h)) + 1
        V = v(scan_range[0] + h * (np.arange(n_nodes) + 0.5))
        w = int(round(1.0 / h))
        n_windows = int(math.floor((scan_range[1] - scan_range[0]) / h)) + 1
        dists = []
        for tau in taus:
            k = int(round(tau / h))
            diff = np.linalg.norm(V[k:] - V[: len(V) - k], axis=1)
            cells = 0.5 * h * (diff[:-1] + diff[1:])
            cum = np.concatenate([[0.0], np.cumsum(cells)])
            dists.append(float(np.max((cum[w:] - cum[:-w])[:n_windows])))
        return taus, np.array(dists)

    @pytest.mark.parametrize("name, tau_step, tau_range, scan_range", [
        ("v_p", TAU_P / 200.0, (0.5 * TAU_P, 2.2 * TAU_P), (0.0, 12.0)),
        ("v_s", 0.01, (1.0, 6.0), (0.0, 10.0)),
        # shift distances grow with t, so the last window holds the maximum
        ("t^2", 0.05, (0.5, 3.0), (0.0, 5.0)),
        ("ch4", 0.05, (0.5, 4.0), (0.0, 8.0)),
    ])
    def test_prefix_scan_matches_full_series(self, name, tau_step, tau_range,
                                             scan_range):
        v = _test_signal(name)
        rep = stepanov_period_scan(v, 0.2, tau_range, tau_step=tau_step,
                                   scan_range=scan_range)
        taus, ref = self._full_series_distances(v, tau_step, tau_range,
                                                scan_range)
        assert np.array_equal(rep.taus, taus)
        assert rep.distances.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("name, tau_step, tau_range, scan_range", [
        ("v_p", TAU_P / 200.0, (0.5 * TAU_P, 2.2 * TAU_P), (0.0, 12.0)),
        ("v_s", 0.01, (1.0, 6.0), (0.0, 10.0)),
        ("v_ap", 0.01, (0.5, 3.0), (0.0, 6.0)),
        ("v_aap", 0.01, (1.0, 6.0), (0.0, 10.0)),
        ("ch1", 0.05, (0.5, 4.0), (0.0, 8.0)),
        ("ch4", 0.05, (0.5, 4.0), (0.0, 8.0)),
        ("noise1", 0.05, (0.5, 4.0), (0.0, 8.0)),
    ])
    def test_scan_matches_allocating_loop(self, name, tau_step, tau_range,
                                          scan_range):
        v = _test_signal(name)
        rep = stepanov_period_scan(v, 0.2, tau_range, tau_step=tau_step,
                                   scan_range=scan_range)
        taus, ref = oracles.period_scan_distances(v, tau_step, tau_range,
                                                  scan_range)
        assert rep.taus.tobytes() == taus.tobytes()
        assert rep.distances.tobytes() == ref.tobytes()

    def test_scan_of_zero_signal_is_zero(self):
        rep = stepanov_period_scan(zero_signal(2), 0.1, (0.5, 2.0),
                                   tau_step=0.1, scan_range=(0.0, 3.0))
        assert np.all(rep.distances == 0.0) and rep.accepted.all()

    def test_nine_channel_scan_within_rounding(self):
        """Summing the channel rows in order equals np.linalg.norm(axis=1)
        bit for bit up to m = 7; from m = 8 numpy sums each row pairwise,
        so nine channels agree only to rounding."""
        v = _test_signal("ch9")
        rep = stepanov_period_scan(v, 0.2, (0.5, 4.0), tau_step=0.05,
                                   scan_range=(0.0, 8.0))
        _, ref = self._full_series_distances(v, 0.05, (0.5, 4.0), (0.0, 8.0))
        np.testing.assert_allclose(rep.distances, ref, rtol=1e-14, atol=0.0)

    def test_noise_control_rejects_everything(self):
        rng = np.random.default_rng(7)
        tgrid = np.linspace(0.0, 200.0, 20_000)
        noise = signal_from_samples(tgrid, rng.uniform(-1, 1, (20_000, 1)),
                                    "noise")
        rep = stepanov_period_scan(noise, 0.05, (1.0, 30.0), tau_step=0.25,
                                   scan_range=(0.0, 60.0))
        assert rep.accepted.sum() == 0
        assert not np.isfinite(rep.max_gap)


class TestFourier:
    def test_sin_coefficient_closed_form(self):
        v = SignalSpec("sin2pi",
                       lambda ts: np.sin(2 * math.pi * np.asarray(ts))[:, None],
                       1, tag="ap", frequencies=(2 * math.pi,))
        c = fourier_coefficient(v, 2 * math.pi, 200.0)
        assert abs(c[0] - (-0.5j)) <= 1e-3

    def test_incommensurate_probe_is_small(self):
        v = SignalSpec("sin2pi",
                       lambda ts: np.sin(2 * math.pi * np.asarray(ts))[:, None],
                       1, tag="ap", frequencies=(2 * math.pi,))
        c = fourier_coefficient(v, 1.0, 200.0)
        assert abs(c[0]) <= 1e-2

    def test_zero_signal_everywhere_zero(self):
        z = zero_signal(2)
        for lam in (0.5, 2 * math.pi, 9.3):
            np.testing.assert_allclose(fourier_coefficient(z, lam, 50.0), 0.0)

    def test_example_forcing_magnitudes(self):
        v_ap = make_example_forcings()["v_ap"]
        for lam in (2 * math.pi, 2 * math.sqrt(2) * math.pi):
            c = fourier_coefficient(v_ap, lam, 500.0)
            assert np.linalg.norm(c) == pytest.approx(0.5, abs=1e-2)

    def test_aap_coefficients_match_stepanov_part(self):
        # the decaying transient averages out
        forcings = make_example_forcings()
        v_s = replace(forcings["v_s"], two_sided=False)
        v_aap = forcings["v_aap"]
        for lam in (0.75, 0.75 * math.sqrt(2), 2.0):
            ca = fourier_coefficient(v_aap, lam, 400.0)
            cs = fourier_coefficient(v_s, lam, 400.0)
            assert np.linalg.norm(ca - cs) <= 2e-3

    @staticmethod
    def _axis0_transform(v, lam, t0, t1, nodes_per_unit, window):
        """The averaged transform as one trapezoid over the (N, m)
        integrand along axis 0, as first written."""
        base = np.linspace(t0, t1, int((t1 - t0) * nodes_per_unit) + 1)
        bps = v.breakpoints(t0, t1)
        if bps.size:
            nodes = np.unique(np.concatenate([base, ap.left_limit(bps), bps]))
        else:
            nodes = base
        vals = v(nodes)
        phase = np.exp(-1j * lam * nodes)
        if window == "hann":
            wts = 0.5 * (1.0 - np.cos(2.0 * math.pi * (nodes - t0)
                                      / (t1 - t0)))
            norm = np.trapezoid(wts, nodes)
        else:
            wts = np.ones_like(nodes)
            norm = t1 - t0
        integrand = (wts * phase)[:, None] * vals
        return np.trapezoid(integrand, nodes, axis=0) / norm

    # two-sided (v_ap, ch1, ch4) and one-sided (v_aap, noise1) signals;
    # declared jumps in v_aap, ch1 and ch4
    @pytest.mark.parametrize("name", ["v_ap", "v_aap", "ch1", "ch4", "noise1"])
    @pytest.mark.parametrize("window", [None, "hann"])
    def test_channel_sums_match_axis0_trapezoid(self, name, window):
        v = _test_signal(name)
        T = 50.0
        for lam in (0.0, 0.75, 2 * math.pi):
            npu = ap._oscillation_density(v, lam)
            ref = self._axis0_transform(v, lam, -T if v.two_sided else 0.0, T,
                                        npu, window)
            c = fourier_coefficient(v, lam, T, window=window)
            assert c.tobytes() == ref.tobytes(), (lam, c, ref)

    # two-sided (v_p, v_s, v_ap, ch1, ch4) and one-sided (v_aap, noise1);
    # the benchmark forcings leave channel 0 zero
    @pytest.mark.parametrize("name", ["v_p", "v_s", "v_ap", "v_aap", "ch1",
                                      "ch4", "noise1"])
    @pytest.mark.parametrize("window", [None, "hann"])
    def test_table_matches_coefficient_by_coefficient(self, name, window):
        v = _test_signal(name)
        # densities: shared by most probes of the jump signals, one per
        # probe of v_ap
        probes = [0.75, 0.0, 2 * math.pi, 0.75 * math.sqrt(2), 1.5, 3.0,
                  2 * math.sqrt(2) * math.pi, 13.0, 0.75]
        table = fourier_table(v, probes, 40.0, window=window)
        freqs, coefs, proxies, floor = oracles.fourier_table(v, probes, 40.0,
                                                             window=window)
        assert table.frequencies.tobytes() == freqs.tobytes()
        assert table.coefficients.tobytes() == coefs.tobytes()
        assert table.proxies.tobytes() == proxies.tobytes()
        assert table.floor == floor

    def test_table_evaluates_each_grid_once(self, monkeypatch):
        monkeypatch.setattr(ap, "_one_cpu", lambda: True)
        self._grids_read_once(threads=1)

    def test_table_evaluates_each_grid_once_on_two_threads(self, monkeypatch):
        # 64-cell blocks take this small table over the size rule
        monkeypatch.setattr(ap, "_one_cpu", lambda: False)
        monkeypatch.setattr(ap, "_BLOCK", 64)
        self._grids_read_once(threads=2)

    @staticmethod
    def _grids_read_once(threads):
        v = make_example_forcings()["v_aap"]
        calls = []

        def fn(ts):
            calls.append((threading.get_ident(), ts.copy()))
            return v.fn(ts)

        counted = replace(v, fn=fn)
        probes = [0.75, 13.0, 1.5, 0.75 * math.sqrt(2), 40.0]
        densities = {ap._oscillation_density(v, f) for f in probes}
        assert len(densities) == 3
        table = fourier_table(counted, probes, 30.0)
        idents = dict.fromkeys(ident for ident, _ in calls)
        assert len(idents) == threads
        # one grid per density, at T and at T/2, each read by one thread
        # in calls that follow each other; v_aap is one-sided, so each
        # grid's first call starts at t = 0
        grids = []
        for ident in idents:
            own = [ts for i, ts in calls if i == ident]
            starts = [i for i, ts in enumerate(own) if ts[0] == 0.0]
            grids += [np.concatenate(own[i:j]).tobytes()
                      for i, j in zip(starts, starts[1:] + [len(own)])]
        assert len(grids) == 2 * len(densities)
        order = dict.fromkeys(ap._oscillation_density(v, f) for f in probes)
        expected = [ap._split_grid(v, np.linspace(0.0, T, int(T * npu) + 1))
                    .tobytes()
                    for T, npu in zip([30.0] * 3 + [15.0] * 3, [*order] * 2)]
        if threads == 1:
            # one thread reads the grids in table order
            assert grids == expected
        # the call lengths sum to each grid's nodes, each read once
        assert sorted(grids) == sorted(expected)
        assert table.coefficients.tobytes() == \
            oracles.fourier_table(v, probes, 30.0)[1].tobytes()

    @pytest.mark.parametrize("block", [7, 64])
    @pytest.mark.parametrize("window", [None, "hann"])
    def test_cell_counts_at_block_edges(self, monkeypatch, block, window):
        # no jumps or frequencies: 64 nodes per unit, so [-T, T] with
        # T = n / 128 has exactly n cells
        v_ap = _test_signal("v_ap")
        calls = []

        def fn(ts):
            calls.append(len(ts))
            return v_ap.fn(ts)

        v = replace(v_ap, frequencies=(), fn=fn)
        monkeypatch.setattr(ap, "_BLOCK", block)
        for k in (1, 3):
            for n in (k * block - 1, k * block, k * block + 1):
                T = n / 128.0
                for lam in (0.0, 0.75, 2 * math.pi):
                    calls.clear()
                    c = fourier_coefficient(v, lam, T, window=window)
                    # one call per block, n + 1 nodes in all
                    assert len(calls) == -(-n // block)
                    assert sum(calls) == n + 1
                    ref = oracles.fourier_coefficient(v, lam, T, window=window)
                    assert c.tobytes() == ref.tobytes(), (n, lam)

    @pytest.mark.parametrize("block", [7, 64])
    @pytest.mark.parametrize("window", [None, "hann"])
    def test_blocks_where_a_channel_is_zero_keep_bytes(self, monkeypatch,
                                                       block, window):
        # two sampled channels, both zero on [0, 3] (the leading blocks)
        # and each zero on its own middle span. At 64 nodes per unit, a
        # block edge lies at t = 10 for 64-cell blocks and at t = 17.5 for
        # 7-cell blocks; a span opening just after that edge leaves the
        # block's first node as its only nonzero one
        tgrid = np.arange(3001) / 100.0
        vals = np.column_stack([np.sin(1.3 * tgrid), np.cos(0.7 * tgrid)])
        vals[tgrid <= 3.0] = 0.0
        vals[(tgrid > 10.0) & (tgrid <= 12.0), 0] = 0.0
        vals[(tgrid > 17.5) & (tgrid <= 19.5), 1] = 0.0
        v = signal_from_samples(tgrid, vals, "gaps")
        probes = [0.0, 0.75, 2 * math.pi, 13.0]
        monkeypatch.setattr(ap, "_BLOCK", block)
        table = fourier_table(v, probes, 24.0, window=window)
        _, coefs, proxies, floor = oracles.fourier_table(v, probes, 24.0,
                                                         window=window)
        assert table.coefficients.tobytes() == coefs.tobytes()
        assert table.proxies.tobytes() == proxies.tobytes()
        assert table.floor == floor
        # the imaginary part at lambda = 0 is zero in every cell
        assert table.coefficients[0].imag.tobytes() == np.zeros(2).tobytes()

    @staticmethod
    def _jump_index(v, lam, T):
        """Index of the first declared jump in the node grid of v's
        coefficient at lam over the horizon T."""
        t0 = -T if v.two_sided else 0.0
        npu = ap._oscillation_density(v, lam)
        nodes = ap._split_grid(v, np.linspace(t0, T, int((T - t0) * npu) + 1))
        k = int(np.searchsorted(nodes, v.breakpoints(t0, T)[0]))
        assert nodes[k - 1] == ap.left_limit(nodes[k])
        return k

    # a block that ends on the left-limit node, on the jump, and blocks
    # that cut the grid elsewhere
    @pytest.mark.parametrize("name", ["v_s", "v_aap"])
    @pytest.mark.parametrize("window", [None, "hann"])
    def test_jump_split_across_block_edge(self, monkeypatch, name, window):
        v = _test_signal(name)
        T = 12.0
        for lam in (0.75, 2.0):
            k = self._jump_index(v, lam, T)
            ref = oracles.fourier_coefficient(v, lam, T, window=window)
            for block in (k - 1, k, 7, 64):
                monkeypatch.setattr(ap, "_BLOCK", block)
                c = fourier_coefficient(v, lam, T, window=window)
                assert c.tobytes() == ref.tobytes(), (lam, block)

    # the grid of a two-channel, unwindowed table is built in blocks of
    # base cells: block edges on the base node just before the first
    # jump, on a jump moved onto a base node, and on a base node with a
    # moved jump 5e-13 after it (its left limit lies before the node) or
    # 5e-13 before it
    @pytest.mark.parametrize("name", ["v_s", "v_aap"])
    @pytest.mark.parametrize("moved", [None, 0.0, 5e-13, -5e-13])
    def test_jump_at_a_base_block_edge(self, monkeypatch, name, moved):
        v = _test_signal(name)
        T, lam = 12.0, 0.75
        t0 = -T if v.two_sided else 0.0
        n = int((T - t0) * ap._oscillation_density(v, lam))
        base = np.linspace(t0, T, n + 1)
        jump = v.breakpoints(t0, T)[0]
        e = int(np.searchsorted(base, ap.left_limit(jump))) - 1
        if moved is not None:
            (p1, _), *rest = v.jump_lattices
            v = replace(v, jump_lattices=((p1, base[e] + moved), *rest))
            jump = base[e] + moved
        nodes = ap._split_grid(v, base)
        if moved is None:
            assert base[e] < ap.left_limit(jump) < base[e + 1]
        elif moved > 0:
            assert ap.left_limit(jump) < base[e] < jump and jump in nodes
        elif moved < 0:
            assert ap.left_limit(jump) < jump < base[e] and jump in nodes
        else:
            assert jump == base[e] and ap.left_limit(jump) in nodes
        ref = oracles.fourier_coefficient(v, lam, T)
        for block in (e, e - 1, e + 1):
            monkeypatch.setattr(ap, "_BLOCK", block)
            c = fourier_coefficient(v, lam, T)
            assert c.tobytes() == ref.tobytes(), block

    # a jump a few ulps after the grid's start has its left limit before
    # it, and that node opens the first cell
    @pytest.mark.parametrize("name", ["v_s", "v_aap"])
    @pytest.mark.parametrize("ulps", [1, 4])
    def test_jump_just_after_the_grid_start(self, monkeypatch, name, ulps):
        v = _test_signal(name)
        T, lam = 12.0, 0.75
        t0 = -T if v.two_sided else 0.0
        jump = t0
        for _ in range(ulps):
            jump = np.nextafter(jump, np.inf)
        (p1, _), *rest = v.jump_lattices
        v = replace(v, jump_lattices=((p1, jump), *rest))
        assert v.breakpoints(t0, T)[0] == jump
        assert ap.left_limit(jump) < t0
        n = int((T - t0) * ap._oscillation_density(v, lam))
        nodes = ap._split_grid(v, np.linspace(t0, T, n + 1))
        ref = oracles.fourier_coefficient(v, lam, T)
        for block in (1, 7, ap._BLOCK):
            monkeypatch.setattr(ap, "_BLOCK", block)
            blocks = list(ap._grid_blocks(v, t0, T, n))
            joined = np.concatenate([blocks[0], *(b[1:] for b in blocks[1:])])
            assert joined.tobytes() == nodes.tobytes(), block
            c = fourier_coefficient(v, lam, T)
            assert c.tobytes() == ref.tobytes(), block

    @pytest.mark.parametrize("name", ["v_p", "v_s", "v_ap", "v_aap", "ch4",
                                      "noise1"])
    @pytest.mark.parametrize("window", [None, "hann"])
    @pytest.mark.parametrize("block", [7, 64])
    def test_small_blocks_keep_table_bytes(self, monkeypatch, name, window,
                                           block):
        # noise1 is a lone sampled column: one block for the whole grid
        v = _test_signal(name)
        probes = [0.75, 0.0, 2 * math.pi, 0.75 * math.sqrt(2), 13.0]
        monkeypatch.setattr(ap, "_BLOCK", block)
        table = fourier_table(v, probes, 20.0, window=window)
        _, coefs, proxies, floor = oracles.fourier_table(v, probes, 20.0,
                                                         window=window)
        assert table.coefficients.tobytes() == coefs.tobytes()
        assert table.proxies.tobytes() == proxies.tobytes()
        assert table.floor == floor
        if name.startswith("v_"):
            # the benchmark forcings leave channel 0 zero: exactly +0j
            zero = table.coefficients[:, 0]
            assert zero.tobytes() == np.zeros(len(probes), complex).tobytes()

    def test_table_memory_does_not_hold_the_grid(self):
        # v_ap on the benchmark's probes at T = 500: each grid has up to
        # 300 001 nodes, and the complex work runs in fixed blocks
        g1, g2 = 2 * math.pi, 2 * math.sqrt(2) * math.pi
        lattice = {round(c1 * g1 + c2 * g2, 12) for c1 in range(-2, 3)
                   for c2 in range(-2, 3)}
        probes = sorted(f for f in lattice if f > 1e-9) + [1.0, 3.0, 5.5, 13.0]
        v_ap = make_example_forcings()["v_ap"]
        tracemalloc.start()
        try:
            fourier_table(v_ap, probes, 500.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20, peak / 2**20

    def test_table_evaluates_the_signal_block_by_block(self):
        # the same table as above: v_ap has two channels and no window, so
        # even its node grid is built one block at a time (a whole grid
        # is 2.3 MiB)
        g1, g2 = 2 * math.pi, 2 * math.sqrt(2) * math.pi
        lattice = {round(c1 * g1 + c2 * g2, 12) for c1 in range(-2, 3)
                   for c2 in range(-2, 3)}
        probes = sorted(f for f in lattice if f > 1e-9) + [1.0, 3.0, 5.5, 13.0]
        v_ap = make_example_forcings()["v_ap"]
        tracemalloc.start()
        try:
            fourier_table(v_ap, probes, 500.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20, peak / 2**20

    def test_fourier_table_floor_flags_spectrum(self):
        v_ap = make_example_forcings()["v_ap"]
        freqs = [2 * math.pi, 2 * math.sqrt(2) * math.pi, 1.0, 4.4]
        table = fourier_table(v_ap, freqs, 300.0)
        sig = table.significant()
        assert set(np.round(sig, 6)) == {
            round(2 * math.pi, 6), round(2 * math.sqrt(2) * math.pi, 6)}


class TestModuleContainment:
    def test_harmonics(self):
        res = module_containment([2 * math.pi, 4 * math.pi], [2 * math.pi])
        assert res.contained

    def test_sum_of_generators(self):
        lam = 2 * math.pi + 2 * math.sqrt(2) * math.pi
        res = module_containment([lam],
                                 [2 * math.pi, 2 * math.sqrt(2) * math.pi])
        assert res.contained
        combo = res.witnesses[lam]
        total = sum(c * g for c, g in combo)
        assert total == pytest.approx(lam, abs=1e-9)

    def test_incommensurate_not_contained(self):
        res = module_containment([1.0], [2 * math.pi], tol=1e-6)
        assert not res.contained
        assert res.witnesses[1.0] is None


def _probes(g1, g2):
    """The benchmark's Fourier probes for the generators g1 and g2."""
    lattice = {round(c1 * g1 + c2 * g2, 12) for c1 in range(-2, 3)
               for c2 in range(-2, 3)}
    return sorted(f for f in lattice if f > 1e-9) + [1.0, 3.0, 5.5, 13.0]


_DIGEST = """
import hashlib, math
from lurelab import apsignals as ap
f = ap.make_example_forcings()
scan = ap.stepanov_period_scan(f["v_s"], 0.2, (1.0, 18.0), tau_step=0.01,
                               scan_range=(0.0, 30.0))
table = ap.fourier_table(f["v_ap"], [1.0, 2 * math.pi, 13.0], 500.0)
print(ap._one_cpu(), hashlib.sha256(
    scan.distances.tobytes() + table.coefficients.tobytes()
    + table.proxies.tobytes()).hexdigest())
"""


class TestTwoThreads:
    """The scan and the table split their work over two threads only
    when it is large; each share writes its own shifts or rows, so the
    bytes are those of one thread."""

    @pytest.fixture
    def shared(self, monkeypatch):
        """Idents of the threads that called ``_both``."""
        calls = []
        both = ap._both

        def spy(fn, left, right):
            calls.append(threading.get_ident())
            return both(fn, left, right)

        monkeypatch.setattr(ap, "_both", spy)
        return calls

    @pytest.mark.parametrize("name, tau_step, tau_range, scan_range, split", [
        # 12 401 cells per shift: over the size rule
        ("v_s", 0.01, (1.0, 18.0), (0.0, 30.0), True),
        # two live channels sum their squares with np.add.reduce
        ("ch2", 0.01, (0.5, 4.0), (0.0, 25.0), True),
        # 2 960 cells per shift: under the size rule, on one thread
        ("v_p", TAU_P / 200.0, (0.5 * TAU_P, 5.2 * TAU_P), (0.0, 30.0),
         False),
    ])
    def test_scan_equals_one_thread(self, monkeypatch, shared, name,
                                    tau_step, tau_range, scan_range, split):
        v = _test_signal(name)
        args = (v, 0.2, tau_range, tau_step, scan_range, 1.5 * TAU_P)
        rep = stepanov_period_scan(*args)
        assert len(shared) == split
        monkeypatch.setattr(ap, "_one_cpu", lambda: True)
        one = stepanov_period_scan(*args)
        for field in ("taus", "distances", "accepted"):
            assert getattr(rep, field).tobytes() == getattr(one, field).tobytes()
        assert (rep.max_gap, rep.relatively_dense) == \
            (one.max_gap, one.relatively_dense)
        _, ref = oracles.period_scan_distances(v, tau_step, tau_range,
                                               scan_range)
        assert rep.distances.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("name, probes, T, window", [
        ("v_ap", _probes(2 * math.pi, 2 * math.sqrt(2) * math.pi), 500.0,
         None),
        # jumps of two lattices
        ("v_s", [0.75, 13.0, 1.5, 2 * math.pi], 600.0, None),
        # a lone channel sums each grid pairwise, whole
        ("sin", [1.0, 13.0, 0.5], 600.0, None),
        ("v_ap", [1.0, 2 * math.pi, 13.0], 500.0, "hann"),
    ])
    def test_table_equals_one_thread(self, monkeypatch, shared, name, probes,
                                     T, window):
        v = (SignalSpec("sin", lambda t: np.sin(t)[:, None], 1,
                        frequencies=(1.0,))
             if name == "sin" else _test_signal(name))
        table = fourier_table(v, probes, T, window=window)
        assert len(shared) == 1
        monkeypatch.setattr(ap, "_one_cpu", lambda: True)
        one = fourier_table(v, probes, T, window=window)
        for field in ("frequencies", "coefficients", "proxies"):
            assert getattr(table, field).tobytes() == \
                getattr(one, field).tobytes()
        assert (table.horizon, table.floor) == (one.horizon, one.floor)
        _, coefs, proxies, floor = oracles.fourier_table(v, probes, T,
                                                         window=window)
        assert table.coefficients.tobytes() == coefs.tobytes()
        assert table.proxies.tobytes() == proxies.tobytes()
        assert table.floor == floor

    @pytest.mark.parametrize("where", ["worker", "caller"])
    def test_a_share_that_raises_leaves_no_thread(self, monkeypatch, where):
        v_ap = make_example_forcings()["v_ap"]

        def fn(ts):
            on_main = threading.current_thread() is threading.main_thread()
            if on_main == (where == "caller"):
                raise ArithmeticError(f"{where} share")
            return v_ap.fn(ts)

        # a second thread on any machine, and a small table over the rule
        monkeypatch.setattr(ap, "_one_cpu", lambda: False)
        monkeypatch.setattr(ap, "_BLOCK", 64)
        before = threading.active_count()
        with pytest.raises(ArithmeticError, match=f"^{where} share$"):
            fourier_table(replace(v_ap, fn=fn), [1.0, 2.0], 30.0)
        assert threading.active_count() == before

    def test_concurrent_calls_under_fast_switching(self, monkeypatch):
        # four callers, each with its own extra thread, switching every
        # microsecond: a lost or crossed write would change some bytes
        f = make_example_forcings()
        monkeypatch.setattr(ap, "_BLOCK", 256)

        def digest():
            scan = stepanov_period_scan(f["v_s"], 0.2, (1.0, 3.0),
                                        tau_step=0.01, scan_range=(0.0, 8.0))
            table = fourier_table(f["v_ap"], [1.0, 2 * math.pi, 13.0], 20.0)
            return scan.distances.tobytes() + table.coefficients.tobytes()

        monkeypatch.setattr(ap, "_one_cpu", lambda: True)
        one = digest()
        monkeypatch.setattr(ap, "_one_cpu", lambda: False)
        got = []
        callers = [threading.Thread(target=lambda: got.append(digest()))
                   for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for c in callers:
                c.start()
            for c in callers:
                c.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(c.is_alive() for c in callers)
        assert got == [one] * 4

    def test_process_on_one_cpu_returns_the_same_bytes(self):
        if not hasattr(os, "sched_setaffinity") or \
                len(os.sched_getaffinity(0)) < 2:
            pytest.skip("needs a process that may use two CPUs")
        import lurelab
        src = os.path.dirname(os.path.dirname(lurelab.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        pin = "import os\nos.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        one, two = (subprocess.run(
            [sys.executable, "-c", head + _DIGEST], capture_output=True,
            text=True, check=True, timeout=120, env=env).stdout.split()
            for head in (pin, ""))
        assert one[0] == "True" and two[0] == "False"
        assert one[1] == two[1]


class TestSignalFromSamples:
    def test_roundtrip_interpolation(self):
        ts = np.linspace(0.0, 5.0, 501)
        vals = np.column_stack([np.sin(ts), np.cos(ts)])
        v = signal_from_samples(ts, vals, "demo")
        np.testing.assert_allclose(v(ts), vals, atol=1e-12)

    def test_nonuniform_grid_rejected(self):
        ts = np.array([0.0, 0.1, 0.3, 0.35])
        with pytest.raises(ValueError):
            signal_from_samples(ts, np.zeros((4, 1)))


def _ramp(ts):
    return np.asarray(ts)[:, None]


@pytest.mark.parametrize("call, fragment", [
    pytest.param(lambda: SignalSpec("x", _ramp, 1, tag="quasi"),
                 "tag must be one of", id="tag"),
    pytest.param(lambda: SignalSpec("x", _ramp, 1, tag="periodic"),
                 "periodic signal needs a positive period", id="period-missing"),
    pytest.param(lambda: SignalSpec("x", _ramp, 1, tag="periodic", period=1.0),
                 "declared period not satisfied at samples", id="period-wrong"),
    pytest.param(lambda: zero_signal(1) + zero_signal(2),
                 "signal dimensions differ", id="add-dimension"),
    pytest.param(lambda: stepanov_period_scan(zero_signal(1), 0.1, (2.2, 2.8),
                                              tau_step=1.0),
                 "empty shift grid", id="scan-empty"),
])
def test_bad_input_raises_a_typed_error(call, fragment):
    with pytest.raises(ValueError, match=re.escape(fragment)):
        call()
