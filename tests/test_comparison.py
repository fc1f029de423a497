import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lurelab import comparison
from lurelab.comparison import compose_gain, monotone_inverse


def test_identity_basics():
    f = comparison.identity()
    assert f(0.0) == 0.0
    assert f(2.5) == 2.5
    assert f.cls == "Kinf"


def test_power_and_poly_values():
    p = comparison.power(2.0, 3.0)
    assert p(2.0) == pytest.approx(12.0)
    q = comparison.poly([1.0, 0.0, 2.0])  # s + 2 s^3
    assert q(2.0) == pytest.approx(2.0 + 16.0)


def test_class_validation_rejects_bad_functions():
    with pytest.raises(ValueError):
        comparison.from_callable(lambda s: s - 1.0, "K")  # f(0) != 0
    with pytest.raises(ValueError):
        comparison.from_callable(lambda s: -s, "P")  # negative
    with pytest.raises(ValueError):
        comparison.power(-1.0)


def test_monotone_inverse_against_closed_forms():
    f = comparison.power(2.0)  # s^2
    for t in [0.0, 1e-6, 0.25, 4.0, 1e4]:
        s = monotone_inverse(f, t)
        assert s == pytest.approx(np.sqrt(t), rel=1e-10, abs=1e-12)
    g = comparison.from_callable(lambda s: s + s**3, "Kinf")
    # oracle: solve by dense scan + refinement
    t = 10.0
    s = monotone_inverse(g, t)
    assert g(s) == pytest.approx(t, rel=1e-10)


def test_inverse_requires_increasing_class():
    bounded = comparison.from_callable(lambda s: np.tanh(s), "K")
    with pytest.raises(ValueError):
        monotone_inverse(bounded, 2.0)  # above the range
    flat = comparison.from_callable(lambda s: 0.0 * s, "P")
    with pytest.raises(ValueError):
        monotone_inverse(flat, 0.5)


class TestComposeGain:
    def test_identity_inner_square_budget(self):
        # inner = id, weight = id, budget = s^2, cap = 1 -> g(s) = s^2
        g = compose_gain(comparison.identity(), comparison.identity(),
                         comparison.power(2.0), 1.0)
        ss = np.linspace(0.0, 1.0, 21)
        for s in ss:
            assert g(s) == pytest.approx(s**2, abs=1e-9)
            # contract: g(inner(s)) * weight(s) <= budget(s) on [0, cap]
            assert g(s) * s <= s**2 + 1e-9

    def test_linear_closed_form(self):
        # inner = 2s, weight = s, budget = s, cap = 2 -> g(s) = s/4
        g = compose_gain(comparison.power(1.0, 2.0), comparison.identity(),
                         comparison.identity(), 2.0)
        for s in np.linspace(0.0, 4.0, 17):
            assert g(s) == pytest.approx(s / 4.0, abs=1e-9)
        for s in np.linspace(0.0, 2.0, 17):
            assert g(2.0 * s) * s <= s + 1e-9

    def test_zero_cap_returns_identity(self):
        g = compose_gain(comparison.power(3.0), comparison.power(2.0),
                         comparison.identity(), 0.0)
        assert g(1.7) == pytest.approx(1.7)

    def test_contract_holds_on_grid_for_generic_inputs(self):
        inner = comparison.from_callable(lambda s: s + 2 * s**2, "Kinf")
        weight = comparison.from_callable(lambda s: 2.0 * (s**2 + s**4), "Kinf")
        budget = comparison.from_callable(lambda s: s * (0.5 * s), "Kinf")
        cap = 1.5
        g = compose_gain(inner, weight, budget, cap)
        for s in np.linspace(0.0, cap, 40):
            assert g(inner(s)) * weight(s) <= budget(s) + 1e-8

    def test_rejects_non_monotone_inner(self):
        wiggle = comparison.from_callable(
            lambda s: s + 0.0 * s, "Kinf")
        bad = comparison.ScalarFunc.__new__(comparison.ScalarFunc)
        # construct a non-monotone callable wearing a Kinf tag via object
        # bypass, then expect compose_gain's own sampling to catch it
        object.__setattr__(bad, "fn", lambda s: np.sin(np.asarray(s)) + np.asarray(s) * 0)
        object.__setattr__(bad, "cls", "Kinf")
        object.__setattr__(bad, "descriptor", None)
        with pytest.raises(ValueError):
            compose_gain(bad, wiggle, wiggle, 4.0)


def test_piecewise_linear_interpolates_and_extends():
    f = comparison.piecewise_linear([0.0, 1.0, 2.0], [0.0, 1.0, 4.0])
    assert f(0.5) == pytest.approx(0.5)
    assert f(1.5) == pytest.approx(2.5)
    assert f(3.0) == pytest.approx(7.0)  # tail slope 3


def _scalar_bisection(f, t, rel_tol=1e-12):
    """The one-entry-at-a-time bisection the array solver must reproduce."""
    t = float(t)
    if t < 0:
        raise ValueError("inverse argument must be nonnegative")
    if t == 0.0:
        return 0.0
    hi = 1.0
    for _ in range(200):
        if f(hi) >= t:
            break
        hi *= 2.0
    else:
        raise ValueError("could not bracket inverse; function may be bounded")
    lo = 0.0
    while hi - lo > rel_tol * max(1.0, 0.5 * (hi + lo)):
        mid = 0.5 * (lo + hi)
        if f(mid) < t:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


_GAUGES = {
    "power": comparison.power(1.7, 0.3),
    "power-sqrt": comparison.power(0.5, 4.0),
    "poly": comparison.poly([1.0, 0.0, 2.0]),
    "piecewise_linear": comparison.piecewise_linear(
        [0.0, 0.5, 2.0, 5.0], [0.0, 0.1, 3.0, 3.5], cls="Kinf"),
}


class TestArrayInverse:
    @pytest.mark.parametrize("name", sorted(_GAUGES))
    def test_matches_scalar_bisection_bit_for_bit(self, name):
        f = _GAUGES[name]
        rng = np.random.default_rng(3)
        t = np.concatenate((np.geomspace(1e-10, 1e8, 60), np.zeros(5),
                            rng.uniform(0, 20, 40), [1.0, 2.0, 4.0]))
        rng.shuffle(t)
        t = t.reshape(9, 12)
        ref = np.array([_scalar_bisection(f, x) for x in t.ravel()])
        got = monotone_inverse(f, t)
        assert got.shape == t.shape
        assert got.tobytes() == ref.reshape(t.shape).tobytes()
        assert np.all(got[t == 0.0] == 0.0)

    def test_negative_entry_raises(self):
        with pytest.raises(ValueError, match="nonnegative"):
            monotone_inverse(comparison.power(2.0),
                             np.array([1.0, -1e-300, 3.0]))

    @pytest.mark.parametrize("rel_tol", [0.0, -1e-12, 1.0, float("nan")])
    def test_rel_tol_outside_unit_interval_raises(self, rel_tol):
        # rel_tol = 0 used to bisect forever once lo and hi were adjacent
        with pytest.raises(ValueError, match="rel_tol"):
            monotone_inverse(comparison.power(2.0), 2.0, rel_tol=rel_tol)

    def test_unbracketable_entry_raises(self):
        bounded = comparison.from_callable(lambda s: np.tanh(s), "K")
        with pytest.raises(ValueError, match="bracket"):
            monotone_inverse(bounded, np.array([0.0, 0.5, 2.0]))
        # entries inside the range still invert
        got = monotone_inverse(bounded, np.array([0.0, 0.5]))
        assert got[1] == _scalar_bisection(bounded, 0.5)

    @pytest.mark.parametrize("t",
                             [0, 0.0, 2.5, np.float64(2.5), np.array(2.5)])
    def test_scalar_input_returns_float(self, t):
        s = monotone_inverse(comparison.power(2.0), t)
        assert type(s) is float
        assert s == _scalar_bisection(comparison.power(2.0), t)
        assert type(comparison.power(2.0).inverse(t)) is float

    def test_empty_array(self):
        out = monotone_inverse(comparison.power(2.0), np.zeros((0, 3)))
        assert out.shape == (0, 3)

    def test_compose_gain_array_equals_scalar_calls(self):
        th = comparison.poly([1.5, 0.25])
        inner = comparison.from_callable(lambda s: s + th(s), "Kinf")
        weight = comparison.from_callable(
            lambda s: 2.0 * (s**2 + th(s) ** 2), "Kinf")
        budget = comparison.from_callable(lambda s: s * (0.5 * s), "Kinf")
        g = compose_gain(inner, weight, budget, 1.5)
        t = np.concatenate(([0.0], np.geomspace(1e-9, 1e4, 257)))
        arr = g(t)
        assert arr.tobytes() == np.array([g(float(x)) for x in t]).tobytes()
        assert type(g(0.7)) is float


_power_gauges = st.builds(comparison.power, st.floats(0.2, 4.0),
                          st.floats(0.1, 10.0))
_poly_gauges = st.builds(
    comparison.poly,
    st.lists(st.one_of(st.just(0.0), st.floats(0.01, 5.0)),
             min_size=1, max_size=4).filter(lambda cs: sum(cs) > 0))


@settings(max_examples=60, deadline=None)
@given(f=st.one_of(_power_gauges, _poly_gauges),
       t=hnp.arrays(np.float64, hnp.array_shapes(max_dims=2, max_side=6),
                    elements=st.floats(0.0, 1e6)))
def test_inverse_round_trip_property(f, t):
    s = monotone_inverse(f, t)
    assert s.shape == t.shape
    assert np.all(s[t == 0.0] == 0.0)
    # the stopping rule is relative above s = 1, so f(s) matches t there
    big = s >= 1.0
    np.testing.assert_allclose(f(s[big]), t[big], rtol=1e-10, atol=0.0)
    # below s = 1 it is absolute: the root lies within 1e-12 of s
    small = (s < 1.0) & (t > 0.0)
    assert np.all(f(np.maximum(s[small] - 1e-12, 0.0)) <= t[small])
    assert np.all(f(s[small] + 1e-12) >= t[small])


_pwl_gauges = st.lists(st.tuples(st.floats(0.01, 5.0), st.floats(0.01, 5.0)),
                       min_size=1, max_size=5).map(
    lambda steps: comparison.piecewise_linear(
        np.cumsum([0.0] + [dx for dx, _ in steps]),
        np.cumsum([0.0] + [dy for _, dy in steps]), cls="Kinf"))


@settings(max_examples=80, deadline=None)
@given(f=st.one_of(_power_gauges, _poly_gauges, _pwl_gauges),
       t=hnp.arrays(np.float64, st.integers(1, 8),
                    elements=st.one_of(st.just(0.0), st.floats(0.0, 1e6))))
def test_array_inverse_equals_scalar_calls_bytewise(f, t):
    scalars = [monotone_inverse(f, x) for x in t]
    assert all(type(s) is float for s in scalars)
    assert monotone_inverse(f, t).tobytes() == np.array(scalars).tobytes()


@settings(max_examples=60, deadline=None)
@given(t=st.floats(0.0, 3.0))
def test_bounded_gauge_fails_alike_on_both_paths(t):
    bounded = comparison.from_callable(lambda s: np.tanh(s), "K")
    outcomes = []
    for arg in (t, np.array([t])):
        try:
            outcomes.append(np.asarray(monotone_inverse(bounded, arg)).tobytes())
        except ValueError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    assert (t > 1.0) == isinstance(outcomes[0], str)
