import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lurelab import comparison, sectorcore
from lurelab.sectorcore import (CompactSetSpec, HypothesisGrid, Nonlinearity,
                                SectorCandidates, SectorData,
                                SectorViolationError,
                                apply_technical_normalization,
                                canonical_selection, check_sector_product_bounds,
                                derive_alignment_constants,
                                derive_sector_candidates, diagonal_compose,
                                identity_nonlinearity,
                                neg_identity_nonlinearity,
                                nonlinearity_from_spec, power_law_eval,
                                power_law_nonlinearity, sample_selections,
                                sector_epsilon, sector_membership,
                                verify_sector_hypotheses)
import oracles


def linear_sector(variant="F", c=2.0, mu=1.0):
    return SectorData(comparison.power(1.0, 2.0), comparison.power(1.0, 0.5),
                      mu=mu, c=c, variant=variant)


class TestPowerLaw:
    def test_basic_values(self):
        assert power_law_eval(0.0, 1.0, 1.0, 2.0) == pytest.approx(4.0)
        assert power_law_eval(0.0, 1.0, 1.0, -2.0) == pytest.approx(-4.0)
        assert power_law_eval(1.0, 1.0, 2.0, 3.0) == pytest.approx(30.0)

    def test_odd_symmetry_on_grid(self):
        zs = np.linspace(0.0, 4.0, 33)
        for d in (1.0, 1.5, 2.0, 3.0):
            plus = power_law_eval(0.5, 2.0, d, zs)
            minus = power_law_eval(0.5, 2.0, d, -zs)
            np.testing.assert_allclose(minus, -plus, atol=1e-12)

    def test_unit_exponent_form_matches_power_bytewise(self):
        # with d = 1 the evaluator returns y*|y|; pow(x, 1) is exactly x,
        # so it has the bytes of y*|y|**d, scalar and per-channel alike
        tiny = np.finfo(float).smallest_subnormal
        special = np.array([0.0, -0.0, tiny, -tiny, 3 * tiny, 1e-310, -2e-308,
                            np.inf, -np.inf, np.nan, -np.nan, 1e200, -1e300,
                            1.0])
        assert np.signbit(special[[1, 10]]).all()
        rng = np.random.default_rng(19)
        y = np.concatenate([special, rng.standard_normal(10**6)]).reshape(-1, 2)
        for d in (1.0, np.ones(2)):
            f = sectorcore._power_law_fn(0.0 * d, 1.0 + 0.0 * d, d)
            with np.errstate(over="ignore"):
                got, want = f(0.0, y), y * np.abs(y) ** d
            assert got.tobytes() == want.tobytes()

    def test_rejects_bad_parameters(self):
        for bad in [(-1.0, 1.0, 1.0), (0.0, 0.0, 1.0), (0.0, 1.0, 0.5)]:
            with pytest.raises(ValueError):
                power_law_eval(*bad, 1.0)

    def test_product_difference_lower_bound_on_grid(self):
        # (z1 - z2)(z1^{d+1} - z2^{d+1}) >= (z1 - z2)^{d+2} for z1 >= z2 >= 0
        zs = np.linspace(0.0, 3.0, 200)
        Z1, Z2 = np.meshgrid(zs, zs, indexing="ij")
        for d in (1, 2, 3, 4):
            h = (Z1 - Z2) * (Z1 ** (d + 1) - Z2 ** (d + 1))
            lower = (Z1 - Z2) ** (d + 2)
            mask = Z1 >= Z2
            assert np.all(h[mask] >= lower[mask] - 1e-12)


class TestSectorData:
    def test_requires_c_mu_product(self):
        with pytest.raises(ValueError):
            linear_sector(c=0.5, mu=1.0)

    def test_requires_alpha_below_theta(self):
        with pytest.raises(ValueError):
            SectorData(comparison.power(1.0, 0.5), comparison.power(1.0, 2.0),
                       mu=1.0, c=1.0)

    def test_technical_normalization_keeps_original(self):
        # theta = alpha = s makes the radial gap identically zero (flat is
        # fine); a decreasing gap needs the inflation
        theta = comparison.from_callable(
            lambda s: np.sqrt(s) + 0.5 * s, "Kinf")
        alpha = comparison.from_callable(lambda s: 0.5 * s, "Kinf")
        sec = SectorData(theta, alpha, mu=1.0, c=1.0, variant="F")
        fixed = apply_technical_normalization(sec)
        assert fixed.theta_original is theta
        ss = np.linspace(0.0, 10.0, 50)
        gaps = np.sqrt(np.maximum(
            fixed.theta(ss)**2 - fixed.alpha(ss)**2, 0.0))
        assert np.all(np.diff(gaps) >= -1e-9)


    def test_f0_accepts_alpha_within_rounding_of_theta(self):
        # sqrt(theta^2 - alpha^2) is rounding noise here (steps of -1.9e-8
        # on the check grid); theta^2 - alpha^2 steps by -3.6e-15 at most
        sec = SectorData(comparison.power(1.0, 1.0),
                         comparison.power(1.0, 0.9999999999999999),
                         mu=1.0, c=1.0, variant="F0")
        assert sec.variant == "F0"

    def test_f0_rejects_a_decreasing_gap(self):
        # theta^2 - alpha^2 rises to 3 at s = 1, then falls to 0 at 1.5
        theta = comparison.power(1.0, 2.0)
        alpha = comparison.from_callable(
            lambda s: np.minimum(2.0 * s, np.maximum(s, 4.0 * s - 3.0)), "Kinf")
        assert SectorData(theta, alpha, mu=1.0, c=1.0).variant == "F"
        with pytest.raises(ValueError, match="decreases on the check grid"):
            SectorData(theta, alpha, mu=1.0, c=1.0, variant="F0")


class TestMembershipAndSelection:
    def test_zero_maps_to_singleton(self):
        sec = linear_sector()
        assert sector_membership(np.zeros(2), np.zeros(2), sec).ok
        assert not sector_membership(np.array([0.1, 0.0]), np.zeros(2), sec).ok

    def test_derived_arithmetic_example(self):
        sec = SectorData(comparison.identity(), comparison.power(1.0, 0.5),
                         mu=1.0, c=1.0)
        y = np.array([3.0, 4.0])
        w = np.array([3.0, 4.0])
        res = sector_membership(w, y, sec)
        assert res.ok and res.norm_bound and res.monotone_bound

    def test_norm_bound_violation(self):
        sec = SectorData(comparison.power(1.0, 2.0), comparison.identity(),
                         mu=1.0, c=1.0)
        res = sector_membership(np.array([3.0]), np.array([1.0]), sec)
        assert not res.ok and not res.norm_bound

    def test_canonical_selection_examples(self):
        sec_id = SectorData(comparison.identity(), comparison.power(1.0, 0.5),
                            mu=1.0, c=1.0)
        np.testing.assert_allclose(
            canonical_selection(np.array([3.0, 4.0]), sec_id), [3.0, 4.0])
        sec_sq = SectorData(comparison.power(2.0), comparison.power(2.0, 0.5),
                            mu=1.0, c=1.0)
        np.testing.assert_allclose(
            canonical_selection(np.array([1.0, 0.0]), sec_sq), [1.0, 0.0])
        assert np.all(canonical_selection(np.zeros(3), sec_id) == 0.0)

    def test_canonical_selection_always_member(self):
        sec = linear_sector()
        rng = np.random.default_rng(1)
        for _ in range(300):
            m = int(rng.integers(1, 4))
            y = rng.uniform(-8, 8, m)
            w = canonical_selection(y, sec)
            assert sector_membership(w, y, sec).ok

    def test_sampled_members_are_members_and_set_is_convex(self):
        sec = linear_sector()
        rng = np.random.default_rng(2)
        for _ in range(100):
            y = rng.uniform(-5, 5, 2)
            sels = sample_selections(y, sec, rng, n_random=4)
            for w in sels:
                assert sector_membership(w, y, sec).ok
            for _ in range(5):
                i, j = rng.integers(0, len(sels), 2)
                t = rng.random()
                combo = t * sels[i] + (1 - t) * sels[j]
                assert sector_membership(combo, y, sec).ok


class TestNonlinearities:
    def test_diagonal_compose_componentwise(self):
        f = diagonal_compose([power_law_nonlinearity(0.0, 1.0, 1.0),
                              power_law_nonlinearity(0.0, 1.0, 1.5)])
        np.testing.assert_allclose(f(0.0, np.array([1.0, 1.0])), [1.0, 1.0])
        np.testing.assert_allclose(f(0.0, np.array([2.0, -1.0])), [4.0, -1.0])
        ident2 = diagonal_compose([identity_nonlinearity(), identity_nonlinearity()])
        np.testing.assert_allclose(ident2(0.0, np.array([2.0, -3.0])), [2.0, -3.0])

    def test_from_spec_roundtrip(self):
        f = nonlinearity_from_spec("diagonal[power-law:0,1,1;power-law:0,1,1.5]")
        assert f.m == 2 and f.structure == "diagonal"
        g = nonlinearity_from_spec("neg-identity", 2)
        np.testing.assert_allclose(g(0.0, np.array([1.0, -2.0])), [-1.0, 2.0])
        with pytest.raises(ValueError):
            nonlinearity_from_spec("banana")

    @staticmethod
    def _general_form(a0, a1, d, y):
        return a0 * y + a1 * y * np.abs(y) ** d

    @staticmethod
    def _awkward_values(shape):
        rng = np.random.default_rng(11)
        y = rng.standard_normal(shape) * 10.0 ** rng.uniform(-320, 3, shape)
        y.flat[::5] = 0.0
        y.flat[1::7] = -0.0
        y.flat[2::9] = -5e-324
        return y

    def test_unit_power_law_matches_general_form_bitwise(self):
        y = self._awkward_values((4000, 1))
        assert np.any(np.signbit(y) & (y == 0.0))
        for d in (1.0, 1.5):
            f = power_law_nonlinearity(0.0, 1.0, d)
            ref = self._general_form(0.0, 1.0, d, y)
            assert f.fn(0.0, y).tobytes() == ref.tobytes()
        pair = diagonal_compose([power_law_nonlinearity(0.0, 1.0, 1.0),
                                 power_law_nonlinearity(0.0, 1.0, 1.5)])
        y2 = self._awkward_values((4000, 2))
        ref = self._general_form(np.zeros(2), np.ones(2),
                                 np.array([1.0, 1.5]), y2)
        assert pair.fn(0.0, y2).tobytes() == ref.tobytes()

    def test_linear_term_keeps_general_form(self):
        y = self._awkward_values((500, 1))
        f = power_law_nonlinearity(0.3, 1.0, 1.0)
        out = f.fn(0.0, y)
        assert out.tobytes() == self._general_form(0.3, 1.0, 1.0, y).tobytes()
        assert not np.array_equal(out, y * np.abs(y))
        pair = diagonal_compose([power_law_nonlinearity(0.3, 1.0, 1.0),
                                 power_law_nonlinearity(0.0, 2.0, 1.5)])
        y2 = self._awkward_values((500, 2))
        ref = self._general_form(np.array([0.3, 0.0]), np.array([1.0, 2.0]),
                                 np.array([1.0, 1.5]), y2)
        assert pair.fn(0.0, y2).tobytes() == ref.tobytes()


class TestHypotheses:
    def test_identity_passes_everything(self):
        f = identity_nonlinearity(1)
        gamma = CompactSetSpec.ball(1, 1.0)
        cand = SectorCandidates(theta=comparison.identity(),
                                alpha=comparison.identity(),
                                mu=1.0, c=1.0)
        rep = verify_sector_hypotheses(f, gamma, cand)
        for o in rep.outcomes():
            assert o.passed, o

    def test_neg_identity_fails_monotonicity_with_witness(self):
        f = neg_identity_nonlinearity(1)
        gamma = CompactSetSpec.ball(1, 1.0)
        cand = SectorCandidates(theta=comparison.identity(),
                                alpha=comparison.identity(), mu=1.0, c=1.0)
        rep = verify_sector_hypotheses(f, gamma, cand)
        assert not rep.monotonicity.passed
        assert rep.monotonicity.at is not None
        assert "y" in rep.monotonicity.at and "z" in rep.monotonicity.at

    def test_quadratic_power_law_with_brute_force_candidates(self):
        f = power_law_nonlinearity(0.0, 1.0, 1.0)
        gamma = CompactSetSpec.ball(1, 1.0)
        # the envelope fitted on the radii the verifier will probe
        alpha = derive_sector_candidates(f, gamma, HypothesisGrid()).alpha
        theta = comparison.from_callable(
            lambda s: 2.0 * s * (s + 1.0) * 1.05, "Kinf")
        mu, c = derive_alignment_constants(f, gamma)
        rep = verify_sector_hypotheses(
            f, gamma, SectorCandidates(theta, alpha, mu, c))
        assert rep.upper_envelope.passed
        assert rep.monotonicity.passed
        assert rep.monotonicity_kinf.passed  # envelope grows superlinearly
        assert rep.alignment.passed
        # no linear term: strong monotonicity must fail
        assert not rep.strong_monotonicity.passed

    def test_linear_term_restores_strong_monotonicity(self):
        f = power_law_nonlinearity(0.3, 1.0, 1.0)
        gamma = CompactSetSpec.ball(1, 1.0)
        alpha = derive_sector_candidates(f, gamma, HypothesisGrid()).alpha
        theta = comparison.from_callable(
            lambda s: (0.3 + 2.0 * (s + 1.0)) * s * 1.05, "Kinf")
        mu, c = derive_alignment_constants(f, gamma)
        rep = verify_sector_hypotheses(
            f, gamma, SectorCandidates(theta, alpha, mu, c))
        assert rep.strong_monotonicity.passed

    @pytest.mark.parametrize("a0, passed", [(0.0, False), (0.3, True)])
    def test_outcomes_are_python_bools(self, a0, passed):
        f = power_law_nonlinearity(a0, 1.0, 1.0)
        gamma = CompactSetSpec.ball(1, 1.0)
        rep = verify_sector_hypotheses(
            f, gamma, derive_sector_candidates(f, gamma, HypothesisGrid()))
        assert rep.strong_monotonicity.passed is passed
        assert all(type(o.passed) is bool for o in rep.outcomes())

    def test_scalar_monotone_alignment_holds_with_unit_constants(self):
        # in one dimension the alignment bound follows from monotonicity
        # with mu = c = 1
        for f in [identity_nonlinearity(1),
                  power_law_nonlinearity(0.0, 1.0, 1.0),
                  power_law_nonlinearity(0.5, 2.0, 2.0)]:
            gamma = CompactSetSpec.ball(1, 1.5)
            theta = comparison.from_callable(
                lambda s: 60.0 * (s + s**4), "Kinf")
            cand = SectorCandidates(theta=theta, alpha=comparison.power(3.0, 1e-6),
                                    mu=1.0, c=1.0)
            rep = verify_sector_hypotheses(f, gamma, cand)
            assert rep.monotonicity.passed
            assert rep.alignment.passed


class TestProductBounds:
    def test_linear_sector_sampled_suite(self):
        rep = check_sector_product_bounds(linear_sector(), n_samples=10_000,
                                          seed=0)
        assert rep.passed, rep
        assert rep.n_samples >= 10_000

    def test_scalar_arithmetic_example(self):
        # m=1, theta=2s, alpha=s/2 scaled: eps = min(1/(2c), alpha(mu)/2)
        sec = linear_sector()
        eps = sector_epsilon(sec)
        assert eps == pytest.approx(0.25)
        # y=2, w=2 is a member and eps(2+2) <= yw = 4
        assert sector_membership(np.array([2.0]), np.array([2.0]), sec).ok
        assert eps * 4.0 <= 4.0

    def test_requires_kinf_alpha(self):
        sec = SectorData(comparison.power(1.0, 2.0),
                         comparison.from_callable(
                             lambda s: np.tanh(s), "P"),
                         mu=1.0, c=1.0)
        with pytest.raises(ValueError):
            check_sector_product_bounds(sec, n_samples=100)


# ---------------------------------------------------------------------------
# the two-phase sampled checks against the draw-by-draw oracles


def _oracle_sectors():
    """Sectors for the oracle comparisons, by name.  With c * mu = 1,
    "rejecting" turns down most draws off the axis just past the
    mu-ball, so the number of draws per sample varies."""
    from lurelab.experiments import preset_one_mass
    fitted = preset_one_mass(verify=True).sector
    return {"linear": linear_sector(), "linear-F0": linear_sector("F0"),
            "rejecting": linear_sector(c=1.0), "fitted": fitted,
            "fitted-F0": replace(apply_technical_normalization(fitted),
                                 variant="F0")}


ORACLE_SECTORS = _oracle_sectors()
ORACLE_SEEDS = (0, 3, 11, 5, 29)


@pytest.mark.parametrize("name", sorted(ORACLE_SECTORS))
def test_product_bounds_match_draw_by_draw_oracle(name):
    sector = ORACLE_SECTORS[name]
    draws = [(seed, 300) for seed in ORACLE_SEEDS] + [(0, 0), (0, 3), (0, 400),
                                                       (1, 400)]
    for seed, n in draws:
        got = check_sector_product_bounds(sector, n_samples=n, seed=seed)
        ref = oracles.check_sector_product_bounds(sector, n_samples=n,
                                                  seed=seed)
        assert oracles.float_bits(got) == oracles.float_bits(ref), (seed, n)
        if n == 400:
            assert all(math.isfinite(x) for x in (
                got.worst_cross, got.worst_outside, got.worst_inside))


def test_rejecting_sector_rejects_draws(monkeypatch):
    verdicts = []

    def counted(*args):
        verdicts.append(bool(membership(*args)))
        return verdicts[-1]

    membership = sectorcore._membership
    monkeypatch.setattr(sectorcore, "_membership", counted)
    check_sector_product_bounds(ORACLE_SECTORS["rejecting"], n_samples=300)
    assert 0 < verdicts.count(False) < len(verdicts)


@pytest.mark.parametrize("name", sorted(ORACLE_SECTORS))
def test_selections_and_stream_match_oracle(name):
    sector = ORACLE_SECTORS[name]
    ys = [np.zeros(1), np.zeros(2), np.array([1.0, 4e-51]),
          np.array([-0.3, 0.0, 1.2])]
    ys += list(np.random.default_rng(9).uniform(-3.0, 3.0, (20, 2)))
    for seed in ORACLE_SEEDS:
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for y in ys:
            got = sample_selections(y, sector, rng, n_random=3)
            ref = oracles.sample_selections(y, sector, ref_rng, n_random=3)
            assert got.tobytes() == ref.tobytes(), (seed, y)
            assert rng.bit_generator.state == ref_rng.bit_generator.state


# ---------------------------------------------------------------------------
# the one-table fit against the per-radius loops it replaced.  The
# references below are the earlier implementations, kept as oracles:
# every output of the table path must match them bit for bit.


def _ref_increments(f, ys, zs, ts):
    """f(t, y + z) - f(t, z) for all (t, y, z); shape (T, Ny, Nz, m)."""
    out = np.empty((len(ts), len(ys), len(zs), ys.shape[1]))
    shifted = ys[:, None, :] + zs[None, :, :]
    for it, t in enumerate(ts):
        out[it] = f(t, shifted) - f(t, zs[None, :, :])
    return out


def _ref_grid_increments(grid, m):
    radii, dirs = grid.radii(), grid.directions(m)
    return (radii[:, None, None] * dirs[None, :, :]).reshape(-1, m)


def _ref_alignment_constants(f, gamma, grid, mu=1.0, safety=1.05):
    ys = _ref_grid_increments(grid, f.m)
    ys = ys[np.linalg.norm(ys, axis=1) > mu]
    zs = gamma.sample_points(grid.n_gamma)
    ts = grid.times(f.time_varying)
    diffs = _ref_increments(f, ys, zs, ts)
    inner = np.einsum("tijk,ik->tij", diffs, ys)
    norms = np.linalg.norm(diffs, axis=3)
    if np.any(inner <= 0):
        it, iy, iz = np.unravel_index(int(np.argmin(inner)), inner.shape)
        raise SectorViolationError(
            "inner product not positive outside the mu-ball",
            location={"t": float(ts[it]), "y": ys[iy].tolist(),
                      "z": zs[iz].tolist()})
    c = float(np.max(norms / inner)) * safety
    return mu, max(c, 1.0 / mu)


def _ref_sector_candidates(f, gamma, grid, safety=0.95, theta_scale=1.05):
    radii = grid.radii()
    dirs = grid.directions(f.m)
    zs = gamma.sample_points(grid.n_gamma)
    ts = grid.times(f.time_varying)
    sup = np.empty(len(radii))
    inf_ratio = np.empty(len(radii))
    for i, s in enumerate(radii):
        ys = s * dirs
        shifted = ys[:, None, :] + zs[None, :, :]
        sup_i, inf_i = 0.0, math.inf
        for t in ts:
            diff = f(t, shifted) - f(t, zs[None, :, :])
            sup_i = max(sup_i, float(np.linalg.norm(diff, axis=2).max()))
            inner = np.einsum("ijk,ik->ij", diff, ys)
            inf_i = min(inf_i, float(inner.min()) / s)
        sup[i] = sup_i
        inf_ratio[i] = inf_i
    nodes = np.concatenate([[0.0], radii])
    theta = comparison.piecewise_linear(
        nodes, np.concatenate([[0.0], np.maximum.accumulate(sup) * theta_scale]),
        cls="Kinf")
    if np.min(inf_ratio) <= 0:
        alpha = comparison.from_callable(lambda s: np.asarray(s, float),
                                         "Kinf", descriptor="fallback:identity")
        return SectorCandidates(theta=theta, alpha=alpha, mu=1.0, c=1.0)
    lower = np.minimum.accumulate(inf_ratio[::-1])[::-1] * safety
    grows = lower[-1] > 0 and lower[-1] >= 1.5 * np.interp(
        0.5 * radii[-1], nodes, np.concatenate([[0.0], lower]))
    alpha = comparison.piecewise_linear(
        nodes, np.concatenate([[0.0], lower]), cls="Kinf" if grows else "P")
    mu, c = _ref_alignment_constants(f, gamma, grid)
    return SectorCandidates(theta=theta, alpha=alpha, mu=mu, c=c)


_DENSE = np.linspace(0.0, 12.0, 5001)
_PRESET_GRID = HypothesisGrid(radius=10.0, n_gamma=15)


def _gauge_bytes(g):
    return g(_DENSE).tobytes(), g.cls, g.descriptor


def _candidate_bytes(c):
    return _gauge_bytes(c.theta), _gauge_bytes(c.alpha), c.mu, c.c


def _parity_case(name):
    if name in ("one-mass", "two-mass", "wec"):
        from lurelab.experiments import preset_by_name
        p = preset_by_name(name, verify=False)
        return p.system.f, p.gamma
    if name == "neg-identity":
        return neg_identity_nonlinearity(1), CompactSetSpec.ball(1, 1.0)
    if name == "power-law-a0":
        return power_law_nonlinearity(0.3, 2.0, 2.0), CompactSetSpec.ball(1, 1.5)
    if name.startswith("sublinear"):
        # envelope ratio 2**p at radii 10 and 5: 1.46 and 1.57 bracket the
        # 1.5 growth ratio that tags K-infinity
        p = float(name.split(":")[1])
        f = Nonlinearity(lambda t, y: np.sign(y) * np.abs(y) ** p, 1,
                         "custom")
        return f, CompactSetSpec.cloud([[0.0]])
    if name == "time-varying":
        f = Nonlinearity(
            lambda t, y: (1.5 + np.sin(0.1 * t)) * y * np.abs(y) + 0.2 * y,
            1, "custom", time_varying=True)
        return f, CompactSetSpec.ball(1, 1.0)
    assert name == "diagonal-3"
    f = diagonal_compose([power_law_nonlinearity(0.0, 1.0, d)
                          for d in (1.0, 1.5, 2.0)])
    return f, CompactSetSpec.ball(3, 1.0)


_PARITY_CASES = ["one-mass", "two-mass", "wec", "neg-identity",
                 "power-law-a0", "sublinear:0.55", "sublinear:0.65",
                 "time-varying", "diagonal-3"]


class TestOneTableParity:
    @pytest.mark.parametrize("name", _PARITY_CASES)
    def test_table_matches_reference_increments(self, name):
        from lurelab.sectorcore import IncrementTable
        f, gamma = _parity_case(name)
        table = IncrementTable.on_grid(f, gamma, _PRESET_GRID)
        ys = _ref_grid_increments(_PRESET_GRID, f.m)
        diffs = _ref_increments(f, ys, table.zs, table.ts)
        assert len(table.ts) == (5 if f.time_varying else 1)
        assert table.ys.tobytes() == ys.tobytes()
        assert table.norms.tobytes() == np.linalg.norm(diffs, axis=3).tobytes()
        assert table.inner.tobytes() == np.einsum(
            "tijk,ik->tij", diffs, ys).tobytes()

    @pytest.mark.parametrize("name", _PARITY_CASES)
    def test_candidates_and_report_match_reference(self, name):
        from lurelab.sectorcore import IncrementTable
        f, gamma = _parity_case(name)
        ref = _ref_sector_candidates(f, gamma, _PRESET_GRID)
        got = derive_sector_candidates(f, gamma, _PRESET_GRID)
        table = IncrementTable.on_grid(f, gamma, _PRESET_GRID)
        fitted = table.candidates()
        report = table.report(fitted)
        assert _candidate_bytes(got) == _candidate_bytes(ref)
        assert _candidate_bytes(fitted) == _candidate_bytes(ref)
        assert report.as_dict() == verify_sector_hypotheses(
            f, gamma, ref, _PRESET_GRID).as_dict()
        if name == "neg-identity":
            assert ref.alpha.descriptor == "fallback:identity"
            assert not report.monotonicity.passed
            assert report.monotonicity.at is not None

    @pytest.mark.parametrize("mu, safety", [(1.0, 1.05), (2.5, 1.2)])
    @pytest.mark.parametrize("name", _PARITY_CASES)
    def test_alignment_constants_match_reference(self, name, mu, safety):
        f, gamma = _parity_case(name)
        try:
            ref = _ref_alignment_constants(f, gamma, _PRESET_GRID, mu, safety)
        except SectorViolationError as exc:
            with pytest.raises(SectorViolationError) as err:
                derive_alignment_constants(f, gamma, _PRESET_GRID, mu, safety)
            assert (str(err.value), err.value.location) == (str(exc),
                                                            exc.location)
            return
        got = derive_alignment_constants(f, gamma, _PRESET_GRID, mu, safety)
        assert got == ref


@settings(max_examples=150, deadline=None)
# a y just off an axis once left no complement basis, and sampling raised
@example(m=2, exponent=1.0, coeff=1.0, ratio=1.0, mu=1.0, slack=1.0,
         variant="F", y=np.array([1.0, 4e-51]), seed=0)
@example(m=2, exponent=1.0, coeff=1.0, ratio=0.5, mu=1.0, slack=1.0,
         variant="F", y=np.array([1.0, 1e-13]), seed=0)
@given(m=st.sampled_from([1, 2]),
       exponent=st.floats(0.5, 3.0), coeff=st.floats(0.1, 5.0),
       ratio=st.floats(0.01, 1.0), mu=st.floats(0.1, 3.0),
       slack=st.floats(1.0, 4.0), variant=st.sampled_from(["F", "F0"]),
       y=hnp.arrays(np.float64, 2, elements=st.floats(-10.0, 10.0)),
       seed=st.integers(0, 2**32 - 1))
def test_sampled_selections_lie_in_the_correspondence(
        m, exponent, coeff, ratio, mu, slack, variant, y, seed):
    sector = SectorData(comparison.power(exponent, coeff),
                        comparison.power(exponent, coeff * ratio),
                        mu=mu, c=slack / mu, variant=variant)
    y = y[:m]
    picks = sample_selections(y, sector, np.random.default_rng(seed))
    assert picks.shape[1] == m
    for w in picks:
        assert sector_membership(w, y, sector), (w, y)


_ID = comparison.identity()


@pytest.mark.parametrize("call, fragment", [
    pytest.param(lambda: SectorData(_ID, _ID, 1.0, 1.0, variant="G"),
                 "unknown sector variant 'G'", id="sector-variant"),
    pytest.param(lambda: SectorData(comparison.from_callable(np.tanh, "K"),
                                    comparison.from_callable(np.tanh, "K"),
                                    1.0, 1.0),
                 "theta must be of class Kinf", id="sector-theta"),
    pytest.param(lambda: SectorData(_ID, comparison.from_callable(
        lambda s: 0.5 / (1.0 + s), "L"), 1.0, 1.0),
                 "alpha must be of class P, K or Kinf", id="sector-alpha"),
    pytest.param(lambda: SectorData(_ID, _ID, 0.0, 1.0),
                 "mu and c must be positive", id="sector-positive"),
    pytest.param(lambda: CompactSetSpec(m=2, points=[[0.0, np.nan]]),
                 "point cloud must be finite with m columns", id="cloud"),
    pytest.param(lambda: CompactSetSpec(m=1, radius=-1.0),
                 "ball spec needs a nonnegative radius", id="ball-radius"),
    pytest.param(lambda: CompactSetSpec(m=2, center=[0.0], radius=1.0),
                 "center must have length m", id="ball-center"),
    pytest.param(lambda: diagonal_compose([]),
                 "need at least one component", id="diagonal-empty"),
    pytest.param(lambda: diagonal_compose([identity_nonlinearity(2)]),
                 "diagonal components must be scalar", id="diagonal-scalar"),
    pytest.param(lambda: identity_nonlinearity(2)(0.0, np.zeros((4, 3))),
                 "expected last axis 2, got 3", id="nonlinearity-axis"),
])
def test_bad_input_raises_a_typed_error(call, fragment):
    with pytest.raises(ValueError, match=re.escape(fragment)):
        call()
