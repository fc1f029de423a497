"""Nonlinearities and set-valued sector correspondences.

Covers evaluation of the feedback nonlinearity, membership and selection
in the sector-bounded correspondences used by the incremental stability
setup, and grid verification of the incremental sector hypotheses (upper
envelope, monotonicity variants, and alignment).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from . import comparison
from .apsignals import _sorted_unique
from .comparison import ScalarFunc

__all__ = [
    "SectorData",
    "Nonlinearity",
    "CompactSetSpec",
    "SectorViolationError",
    "MembershipResult",
    "CheckOutcome",
    "HypothesisReport",
    "HypothesisGrid",
    "IncrementTable",
    "SectorCandidates",
    "power_law_eval",
    "power_law_nonlinearity",
    "identity_nonlinearity",
    "neg_identity_nonlinearity",
    "custom_nonlinearity",
    "diagonal_compose",
    "nonlinearity_from_spec",
    "apply_technical_normalization",
    "sector_membership",
    "canonical_selection",
    "sample_selections",
    "verify_sector_hypotheses",
    "derive_sector_candidates",
    "derive_alignment_constants",
    "sector_epsilon",
    "composed_gain",
    "check_sector_product_bounds",
]


class SectorViolationError(ValueError):
    """A sampled point contradicts a sector hypothesis."""

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location


# ---------------------------------------------------------------------------
# sector data


_SECTOR_GRID = np.concatenate(([0.0], np.geomspace(1e-6, 50.0, 120)))


@dataclass(frozen=True)
class SectorData:
    """Bounding data for the sector correspondences.

    ``variant="F"`` carries the alignment condition
    ``c*<w,y> >= ||w||`` for ``||y|| > mu``; ``variant="F0"`` drops it.
    ``theta_original`` records the pre-normalization upper bound when the
    upper envelope was inflated to make sqrt(theta^2 - alpha^2)
    non-decreasing.
    """

    theta: ScalarFunc
    alpha: ScalarFunc
    mu: float
    c: float
    variant: str = "F"
    theta_original: Optional[ScalarFunc] = None

    def __post_init__(self):
        if self.variant not in ("F", "F0"):
            raise ValueError(f"unknown sector variant {self.variant!r}")
        if self.theta.cls != "Kinf":
            raise ValueError("theta must be of class Kinf")
        if self.alpha.cls not in ("P", "K", "Kinf"):
            raise ValueError("alpha must be of class P, K or Kinf")
        if self.mu <= 0 or self.c <= 0:
            raise ValueError("mu and c must be positive")
        if self.c * self.mu < 1.0 - 1e-12:
            raise ValueError("need c * mu >= 1")
        th = self.theta(_SECTOR_GRID)
        al = self.alpha(_SECTOR_GRID)
        tol = 1e-10 * (1.0 + np.abs(th))
        if np.any(al > th + tol):
            s_bad = _SECTOR_GRID[np.argmax(al - th)]
            raise ValueError(f"alpha exceeds theta at s = {s_bad:.6g}")
        if self.variant == "F0":
            # monotone on the square: when alpha is within rounding of
            # theta, the square root would amplify that rounding
            gap2 = np.maximum(th**2 - al**2, 0.0)
            if np.any(np.diff(gap2) < -1e-9 * th[1:]**2):
                raise ValueError(
                    "sqrt(theta^2 - alpha^2) decreases on the check grid; "
                    "apply_technical_normalization can repair this"
                )


def apply_technical_normalization(sector: SectorData) -> SectorData:
    """Inflate the upper bound to theta + alpha.

    This forces sqrt(theta^2 - alpha^2) to be non-decreasing while the
    inflated bound stays within sqrt(3) of the original.  The original
    upper bound is kept on ``theta_original``.
    """
    original = sector.theta_original or sector.theta
    th, al = sector.theta, sector.alpha
    inflated = comparison.from_callable(
        lambda s, t=th, a=al: t(s) + a(s),
        "Kinf",
        descriptor="theta+alpha",
    )
    return replace(sector, theta=inflated, theta_original=original)


# ---------------------------------------------------------------------------
# nonlinearities


def power_law_eval(a0: float, a1: float, d: float, z):
    """Odd power law a0*z + a1*z*|z|**d.

    ``d`` may be any real >= 1; fractional exponents occur in the
    worked mass-spring examples.
    """
    if a0 < 0 or a1 <= 0 or d < 1:
        raise ValueError("need a0 >= 0, a1 > 0, d >= 1")
    z = np.asarray(z, dtype=float)
    out = a0 * z + a1 * z * np.abs(z) ** d
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class Nonlinearity:
    """Evaluable feedback map f(t, y) with declared structure.

    The evaluator is vectorized: it accepts y of shape (..., m) and
    returns the same shape.  ``structure`` is one of ``"time-invariant"``,
    ``"diagonal"``, ``"power-law"`` or ``"custom"``.
    """

    fn: Callable[[float, np.ndarray], np.ndarray]
    m: int
    structure: str
    time_varying: bool = False
    params: dict = field(default_factory=dict)
    components: tuple = ()
    name: str = "custom"

    def __call__(self, t: float, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        scalar = y.ndim == 0
        if scalar:
            y = y.reshape(1)
        if y.shape[-1] != self.m:
            raise ValueError(f"expected last axis {self.m}, got {y.shape[-1]}")
        out = np.asarray(self.fn(t, y), dtype=float)
        return out[0] if scalar and self.m == 1 else out


def _power_law_fn(a0, a1, d):
    """Evaluator f(t, y) = a0*y + a1*y*|y|**d, scalar or per-channel
    parameters.

    When every a0 is 0 and every a1 is 1, as in all presets, it returns
    y*|y|**d: on finite y the dropped terms add 0*y and multiply by 1,
    which changes no bit, signed zeros and underflow included.  When
    every d is 1 as well it returns y*|y|, since pow(x, 1) is exactly x.
    """
    if np.all(np.equal(a0, 0)) and np.all(np.equal(a1, 1)):
        if np.all(np.equal(d, 1)):
            return lambda t, y: y * np.abs(y)
        return lambda t, y: y * np.abs(y) ** d
    return lambda t, y: a0 * y + a1 * y * np.abs(y) ** d


def power_law_nonlinearity(a0: float, a1: float, d: float) -> Nonlinearity:
    if a0 < 0 or a1 <= 0 or d < 1:
        raise ValueError("need a0 >= 0, a1 > 0, d >= 1")
    return Nonlinearity(
        _power_law_fn(a0, a1, d), 1, "power-law",
        params={"a0": a0, "a1": a1, "d": d}, name=f"power-law:{a0},{a1},{d}",
    )


def identity_nonlinearity(m: int = 1) -> Nonlinearity:
    return Nonlinearity(lambda t, y: y, m, "time-invariant", name="identity")


def neg_identity_nonlinearity(m: int = 1) -> Nonlinearity:
    """Sign-violating map used as a negative control in verification."""
    return Nonlinearity(lambda t, y: -y, m, "time-invariant", name="neg-identity")


def custom_nonlinearity(fn, m: int, time_varying: bool = False,
                        name: str = "custom") -> Nonlinearity:
    return Nonlinearity(fn, m, "custom", time_varying=time_varying, name=name)


def diagonal_compose(components: Sequence[Nonlinearity]) -> Nonlinearity:
    """Stack scalar nonlinearities componentwise."""
    components = tuple(components)
    if not components:
        raise ValueError("need at least one component")
    if any(c.m != 1 for c in components):
        raise ValueError("diagonal components must be scalar")
    m = len(components)

    if all(c.structure == "power-law" for c in components):
        a0 = np.array([c.params["a0"] for c in components])
        a1 = np.array([c.params["a1"] for c in components])
        d = np.array([c.params["d"] for c in components])
        fn = _power_law_fn(a0, a1, d)
    else:
        def fn(t, y, comps=components):
            y = np.asarray(y, dtype=float)
            cols = [np.asarray(c.fn(t, y[..., i:i + 1])).reshape(y[..., i].shape)
                    for i, c in enumerate(comps)]
            return np.stack(cols, axis=-1)

    return Nonlinearity(
        fn, m, "diagonal",
        time_varying=any(c.time_varying for c in components),
        components=components,
        name="diagonal[" + ",".join(c.name for c in components) + "]",
    )


def nonlinearity_from_spec(spec, m: Optional[int] = None) -> Nonlinearity:
    """Build a preset nonlinearity from a config string.

    Accepted forms: ``identity``, ``neg-identity``,
    ``power-law:a0,a1,d`` and ``diagonal[<spec>;<spec>;...]``.
    """
    if isinstance(spec, Nonlinearity):
        return spec
    s = str(spec).strip()
    if s.startswith("diagonal[") and s.endswith("]"):
        parts = [p for p in s[len("diagonal["):-1].split(";") if p.strip()]
        return diagonal_compose([nonlinearity_from_spec(p, 1) for p in parts])
    if s == "identity":
        return identity_nonlinearity(m or 1)
    if s == "neg-identity":
        return neg_identity_nonlinearity(m or 1)
    if s.startswith("power-law:"):
        a0, a1, d = (float(x) for x in s[len("power-law:"):].split(","))
        return power_law_nonlinearity(a0, a1, d)
    raise ValueError(f"unknown nonlinearity spec {spec!r}")


# ---------------------------------------------------------------------------
# compact sets


@dataclass(frozen=True)
class CompactSetSpec:
    """Closed ball or explicit finite point cloud in R^m."""

    m: int
    center: Optional[np.ndarray] = None
    radius: Optional[float] = None
    points: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.points is not None:
            pts = np.atleast_2d(np.asarray(self.points, dtype=float))
            if pts.shape[1] != self.m or not np.all(np.isfinite(pts)):
                raise ValueError("point cloud must be finite with m columns")
            object.__setattr__(self, "points", pts)
        else:
            if self.radius is None or self.radius < 0:
                raise ValueError("ball spec needs a nonnegative radius")
            c = np.zeros(self.m) if self.center is None else np.asarray(
                self.center, dtype=float)
            if c.shape != (self.m,):
                raise ValueError("center must have length m")
            object.__setattr__(self, "center", c)

    @staticmethod
    def ball(m: int, radius: float) -> "CompactSetSpec":
        return CompactSetSpec(m=m, radius=radius)

    @staticmethod
    def cloud(points) -> "CompactSetSpec":
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return CompactSetSpec(m=pts.shape[1], points=pts)

    def sample_points(self, n: int) -> np.ndarray:
        """Deterministic representative points (shape (k, m), k <= n)."""
        if self.points is not None:
            return self.points
        if self.radius == 0:
            return self.center.reshape(1, self.m)
        if self.m == 1:
            xs = np.linspace(-self.radius, self.radius, n)
            return (self.center + xs[:, None]).reshape(-1, 1)
        grid = _ball_grid(self.m, self.radius, n)
        return self.center + grid


def _ball_grid(m: int, radius: float, n: int) -> np.ndarray:
    """Deterministic points filling a ball: rings in 2-d, Halton-like in m>2."""
    if m == 2:
        pts = [np.zeros(2)]
        n_rings = max(2, int(math.sqrt(n)))
        for i in range(1, n_rings + 1):
            r = radius * i / n_rings
            k = max(4, int(round(2 * math.pi * i)))
            ang = np.linspace(0.0, 2 * math.pi, k, endpoint=False)
            pts.append(np.column_stack([r * np.cos(ang), r * np.sin(ang)]))
            if sum(len(np.atleast_2d(p)) for p in pts) >= n:
                break
        out = np.vstack([np.atleast_2d(p) for p in pts])
        return out[:n]
    rng = np.random.default_rng(1234 + m)
    raw = rng.standard_normal((n, m))
    raw /= np.maximum(np.linalg.norm(raw, axis=1, keepdims=True), 1e-300)
    radii = radius * rng.random(n) ** (1.0 / m)
    return raw * radii[:, None]


def _unit_directions(m: int, n: int) -> np.ndarray:
    if m == 1:
        return np.array([[1.0], [-1.0]])
    if m == 2:
        ang = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
        return np.column_stack([np.cos(ang), np.sin(ang)])
    rng = np.random.default_rng(4321 + m)
    dirs = rng.standard_normal((n, m))
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# membership, selection, geometry


@dataclass(frozen=True)
class MembershipResult:
    ok: bool
    norm_bound: bool
    monotone_bound: bool
    alignment_bound: Optional[bool]

    def __bool__(self):
        return self.ok


def _sector_tol(*magnitudes):
    """1e-10 (1 + the sum of |magnitudes|), on floats or arrays alike."""
    return 1e-10 * (1.0 + sum(map(abs, magnitudes)))


def _membership(nw, inner, ny, th, al, sector: SectorData) -> MembershipResult:
    """The defining inequalities for a w with ||w|| = nw and <w, y> = inner
    at a y with ||y|| = ny, theta(ny) = th and alpha(ny) = al."""
    tol = _sector_tol(nw, th, inner, ny * al)
    norm_ok = bool(nw <= th + tol)
    mono_ok = bool(inner >= ny * al - tol)
    align_ok: Optional[bool] = None
    if sector.variant == "F" and ny > sector.mu:
        align_ok = bool(sector.c * inner >= nw - tol)
    ok = norm_ok and mono_ok and (align_ok is not False)
    return MembershipResult(ok, norm_ok, mono_ok, align_ok)


def sector_membership(w, y, sector: SectorData) -> MembershipResult:
    """Check w against the defining inequalities of the correspondence at y."""
    w = np.atleast_1d(np.asarray(w, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if w.shape != y.shape:
        raise ValueError("w and y must have matching shape")
    ny = np.linalg.norm(y)
    return _membership(np.linalg.norm(w), float(np.dot(w, y)), ny,
                       float(sector.theta(ny)), float(sector.alpha(ny)), sector)


def canonical_selection(y, sector: SectorData) -> np.ndarray:
    """The boundary selection theta(||y||) * y / ||y|| (zero at zero)."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    ny = np.linalg.norm(y)
    if ny == 0.0:
        return np.zeros_like(y)
    return float(sector.theta(ny)) * y / ny


def sample_selections(y, sector: SectorData, rng: np.random.Generator,
                      n_random: int = 6) -> np.ndarray:
    """Canonical plus random members of the correspondence at y.

    Random members are drawn in the (axis, orthogonal) coordinates of the
    section; draws violating the alignment condition of variant F are
    rejected with capped retries.  Always returns at least the canonical
    selection.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    return _selections(y[None], sector, rng, n_random)[0]


def _selections(ys: np.ndarray, sector: SectorData, rng: np.random.Generator,
                n_random: int) -> list:
    """:func:`sample_selections` at each row y of ys in turn, drawing from
    one stream: a (k, m) array per row, the canonical selection first.

    ||y||, theta, alpha, the canonical selections and the complement
    bases are computed for all rows at once. The draws then run row by
    row, each accepted or rejected as it is drawn, so the stream is the
    same as one call per row. A zero y takes no draws.
    """
    m = ys.shape[1]
    nys = np.sqrt(np.vecdot(ys, ys))
    ths, als = sector.theta(nys), sector.alpha(nys)
    live = np.flatnonzero(nys)
    canon = np.zeros_like(ys)
    canon[live] = ths[live, None] * ys[live] / nys[live, None]
    out = list(canon[:, None, :])
    if n_random <= 0:
        return out
    yhats = ys[live] / nys[live, None]
    bases = _orthonormal_complements(yhats) if m > 1 else [None] * len(live)
    for i, yhat, basis in zip(live, yhats, bases):
        y, ny, th, al = ys[i], nys[i], float(ths[i]), float(als[i])
        picks = [canon[i]]
        for _ in range(4 * n_random):
            if len(picks) > n_random:
                break
            a = al + (th - al) * rng.random()
            b_max = math.sqrt(max(th**2 - a**2, 0.0))
            if m == 1:
                w = a * yhat
            else:
                bdir = basis @ _random_unit(rng, m - 1)
                w = a * yhat + (b_max * (2 * rng.random() - 1.0)) * bdir
            if _membership(np.linalg.norm(w), float(np.dot(w, y)), ny, th, al,
                           sector):
                picks.append(w)
        out[i] = np.array(picks)
    return out


def _random_unit(rng, m):
    v = rng.standard_normal(m)
    n = np.linalg.norm(v)
    return v / n if n > 0 else np.eye(m)[0]


def _orthonormal_complements(units: np.ndarray) -> np.ndarray:
    """Columns spanning the orthogonal complement of each unit row:
    shape (k, m) to (k, m, m - 1)."""
    k, m = units.shape
    q, r = np.linalg.qr(np.eye(m) - units[:, :, None] * units[:, None, :])
    keep = np.abs(np.diagonal(r, axis1=1, axis2=2)) > 1e-12
    out = np.empty((k, m, m - 1))
    for i, unit in enumerate(units):
        basis = q[i][:, keep[i]][:, : m - 1]
        if basis.shape[1] < m - 1 or np.max(np.abs(unit @ basis)) > 1e-8:
            # near an axis the projector's pivots round off and its QR can
            # drop or tilt columns; the complete QR of the vector cannot
            basis = np.linalg.qr(unit[:, None], mode="complete")[0][:, 1:]
        out[i] = basis
    return out


# ---------------------------------------------------------------------------
# hypothesis verification


@dataclass(frozen=True)
class HypothesisGrid:
    """Sampling plan for the incremental sector hypotheses.

    Radial grids mix a linear sweep of 64 radii up to ``radius`` with a
    geometric ladder of small radii so that behaviour near zero is
    visible.  Increments point in 32 directions, and a time-varying f is
    sampled at 5 times on [0, 100].
    """

    radius: float = 10.0
    n_gamma: int = 25

    def radii(self) -> np.ndarray:
        lin = np.linspace(self.radius / 64, self.radius, 64)
        return _sorted_unique(np.concatenate([[1e-4, 1e-3, 1e-2, 1e-1], lin]))

    def directions(self, m: int) -> np.ndarray:
        return _unit_directions(m, 32)

    def times(self, time_varying: bool) -> np.ndarray:
        if not time_varying:
            return np.array([0.0])
        return np.linspace(0.0, 100.0, 5)


@dataclass(frozen=True)
class SectorCandidates:
    """Candidate bounding data to test the hypotheses against."""

    theta: ScalarFunc
    alpha: ScalarFunc
    mu: float = 1.0
    c: float = 1.0


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    worst_margin: float
    at: Optional[dict] = None


@dataclass(frozen=True)
class HypothesisReport:
    upper_envelope: CheckOutcome
    monotonicity: CheckOutcome
    monotonicity_kinf: CheckOutcome
    alignment: CheckOutcome
    strong_monotonicity: CheckOutcome

    def outcomes(self):
        return (self.upper_envelope, self.monotonicity, self.monotonicity_kinf,
                self.alignment, self.strong_monotonicity)

    def required(self):
        """The checks a preset must pass; the K-infinity monotonicity
        and strong monotonicity outcomes are reported only."""
        return (self.upper_envelope, self.monotonicity, self.alignment)

    def as_dict(self):
        return {
            o.name: {
                "passed": bool(o.passed),
                "worst_margin": float(o.worst_margin),
                "at": o.at,
            }
            for o in self.outcomes()
        }


@dataclass(frozen=True)
class IncrementTable:
    """||d|| and <d, y> for the increments d = f(t, y + z) - f(t, z).

    Both arrays are indexed (time, increment, base point); increments
    run radius-major, every direction at ``radii[0]`` first.  On one
    ``on_grid`` table, ``candidates``, ``alignment_constants`` and
    ``report`` return what ``derive_sector_candidates``,
    ``derive_alignment_constants`` and ``verify_sector_hypotheses``
    return, so a caller that needs several of them tabulates f once.
    """

    radii: np.ndarray
    ys: np.ndarray
    zs: np.ndarray
    ts: np.ndarray
    y_norms: np.ndarray
    norms: np.ndarray
    inner: np.ndarray

    @classmethod
    def tabulate(cls, f: Nonlinearity, radii, dirs, zs, ts) -> "IncrementTable":
        ys = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, f.m)
        shifted = ys[:, None, :] + zs[None, :, :]
        norms = np.empty((len(ts), len(ys), len(zs)))
        inner = np.empty_like(norms)
        for it, t in enumerate(ts):
            diffs = f(t, shifted) - f(t, zs[None, :, :])
            norms[it] = np.linalg.norm(diffs, axis=2)
            inner[it] = np.einsum("ijk,ik->ij", diffs, ys)
        return cls(radii, ys, zs, ts, np.linalg.norm(ys, axis=1), norms, inner)

    @classmethod
    def on_grid(cls, f: Nonlinearity, gamma: CompactSetSpec,
                grid: HypothesisGrid) -> "IncrementTable":
        return cls.tabulate(f, grid.radii(), grid.directions(f.m),
                            gamma.sample_points(grid.n_gamma),
                            grid.times(f.time_varying))

    def per_radius(self, values: np.ndarray, reduce) -> np.ndarray:
        """``reduce`` over times, directions and base points."""
        shape = (len(self.ts), len(self.radii), -1, len(self.zs))
        return reduce(values.reshape(shape), axis=(0, 2, 3))

    def at(self, it, iy, iz) -> dict:
        return {"t": float(self.ts[it]), "y": self.ys[iy].tolist(),
                "z": self.zs[iz].tolist()}

    def candidates(self) -> SectorCandidates:
        sup = self.per_radius(self.norms, np.max)
        inf_ratio = self.per_radius(self.inner, np.min) / self.radii
        theta = comparison.piecewise_linear(
            np.concatenate([[0.0], self.radii]),
            np.concatenate([[0.0], np.maximum.accumulate(sup) * 1.05]),
            cls="Kinf")
        if np.min(inf_ratio) <= 0:
            alpha = comparison.from_callable(lambda s: np.asarray(s, float),
                                             "Kinf", descriptor="fallback:identity")
            return SectorCandidates(theta=theta, alpha=alpha, mu=1.0, c=1.0)
        alpha = _lower_envelope(self.radii, inf_ratio * 0.95)
        mu, c = self.alignment_constants()
        return SectorCandidates(theta=theta, alpha=alpha, mu=mu, c=c)

    def alignment_constants(self, mu: float = 1.0, safety: float = 1.05):
        keep = np.flatnonzero(self.y_norms > mu)
        inner = self.inner[:, keep]
        if np.any(inner <= 0):
            it, iy, iz = np.unravel_index(int(np.argmin(inner)), inner.shape)
            raise SectorViolationError(
                "inner product not positive outside the mu-ball",
                location=self.at(it, keep[iy], iz))
        c = float(np.max(self.norms[:, keep] / inner)) * safety
        return mu, max(c, 1.0 / mu)

    def report(self, candidates: SectorCandidates) -> HypothesisReport:
        y_norms, d_norms, inner = self.y_norms, self.norms, self.inner
        sup_d = d_norms.max(axis=(0, 2))
        inf_inner = inner.min(axis=(0, 2))

        # upper envelope
        th = candidates.theta(y_norms)
        margins = sup_d - th
        tol = 1e-10 * (1.0 + np.abs(th) + sup_d)
        worst = int(np.argmax(margins / tol))
        viol = d_norms - th[None, :, None]
        upper = CheckOutcome(
            "upper_envelope",
            bool(np.all(margins <= tol)),
            float(margins[worst]),
            self.at(*np.unravel_index(int(np.argmax(viol)), viol.shape)),
        )

        # monotonicity lower bounds
        al = candidates.alpha(y_norms)
        need = y_norms * al
        mono_margin = need - inf_inner
        tol_m = 1e-10 * (1.0 + np.abs(need) + np.abs(inf_inner))
        mono_ok = bool(np.all(mono_margin <= tol_m))
        viol_m = need[None, :, None] - inner
        mono_at = self.at(*np.unravel_index(int(np.argmax(viol_m)),
                                            viol_m.shape))
        monotonicity = CheckOutcome(
            "monotonicity", mono_ok, float(np.max(mono_margin)), mono_at)
        monotonicity_kinf = CheckOutcome(
            "monotonicity_kinf",
            mono_ok and candidates.alpha.cls == "Kinf",
            float(np.max(mono_margin)),
            mono_at,
        )

        # alignment outside the mu-ball
        outside = np.flatnonzero(y_norms > candidates.mu)
        if outside.size:
            lhs = d_norms[:, outside, :]
            rhs = candidates.c * inner[:, outside, :]
            a_tol = 1e-10 * (1.0 + np.abs(lhs) + np.abs(rhs))
            a_viol = lhs - rhs
            it, iy, iz = np.unravel_index(int(np.argmax(a_viol)), a_viol.shape)
            alignment = CheckOutcome(
                "alignment", bool(np.all(a_viol <= a_tol)), float(np.max(a_viol)),
                self.at(it, outside[iy], iz),
            )
        else:
            alignment = CheckOutcome("alignment", True, 0.0, None)

        # strong monotonicity: a positive linear lower rate must survive y -> 0
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = inf_inner / np.maximum(y_norms**2, 1e-300)
        return HypothesisReport(upper, monotonicity, monotonicity_kinf,
                                alignment,
                                _strong_monotonicity_from_decay(y_norms, ratio))


def _lower_envelope(radii: np.ndarray, raw: np.ndarray) -> ScalarFunc:
    """Largest non-decreasing minorant of ``raw`` on ``radii``, through 0.

    A running minimum from the right, clamped at zero.  Tagged
    K-infinity when the last value is at least 1.5 times the value at
    half the largest radius, that is when the envelope keeps growing.
    """
    env = np.maximum(np.minimum.accumulate(raw[::-1])[::-1], 0.0)
    nodes = np.concatenate([[0.0], radii])
    values = np.concatenate([[0.0], env])
    mid = float(np.interp(0.5 * radii[-1], nodes, values))
    grows = env[-1] > 0 and mid > 0 and env[-1] >= 1.5 * mid
    return comparison.piecewise_linear(nodes, values,
                                       cls="Kinf" if grows else "P")


def verify_sector_hypotheses(
    f: Nonlinearity,
    gamma: CompactSetSpec,
    candidates: SectorCandidates,
    grid: Optional[HypothesisGrid] = None,
) -> HypothesisReport:
    """Grid verification of the incremental sector hypotheses.

    The five checks, in report order: the upper envelope bound, the
    positive-definite monotonicity lower bound, the same bound with an
    unbounded (class K-infinity) candidate, the alignment inequality
    outside the ball of radius mu, and strong monotonicity (a linear
    lower rate).  Grid verdicts are sound for refutation and evidence
    only for satisfaction.
    """
    table = IncrementTable.on_grid(f, gamma, grid or HypothesisGrid())
    return table.report(candidates)


def _strong_monotonicity_from_decay(y_norms, ratio) -> CheckOutcome:
    """Refute a linear lower rate when the ratio <y,df>/||y||^2 vanishes.

    The hypothesis is declared failed when the worst-direction ratio
    decays at least like sqrt(r) between the two smallest sampled radii,
    which is evidence that its limit at zero is zero.
    """
    order = np.argsort(y_norms)
    y_sorted = y_norms[order]
    r_sorted = ratio[order]
    # rounding is monotone, so each radius is one run of the sorted norms
    radii, first = np.unique(np.round(y_sorted, 12), return_index=True)
    per_radius = np.minimum.reduceat(r_sorted, first)
    if np.any(per_radius <= 0):
        k = int(np.argmin(per_radius))
        return CheckOutcome("strong_monotonicity", False,
                            float(-per_radius[k]), {"radius": float(radii[k])})
    if len(radii) < 2:
        return CheckOutcome("strong_monotonicity", True, 0.0, None)
    r0, r1 = radii[0], radii[1]
    decay = per_radius[0] / per_radius[1]
    threshold = math.sqrt(r0 / r1)
    passed = bool(decay > threshold)
    rate = float(per_radius.min())
    return CheckOutcome(
        "strong_monotonicity", passed, float(threshold - decay),
        {"rate": rate, "decay": float(decay), "radii": [float(r0), float(r1)]},
    )


def derive_sector_candidates(f: Nonlinearity, gamma: CompactSetSpec,
                             grid: HypothesisGrid) -> SectorCandidates:
    """Brute-force sector candidates fitted on the verification grid.

    Both envelopes are tabulated from the same sampling plan the
    hypothesis verifier uses, so a healthy nonlinearity passes its own
    candidates by construction; theta is inflated by 1.05 and alpha
    shrunk by 0.95 to absorb interpolation between radius nodes.  When
    the sampled infimum is negative (sign-violating controls) a unit
    linear lower bound is returned so verification locates the violation.
    """
    return IncrementTable.on_grid(f, gamma, grid).candidates()


def derive_alignment_constants(
    f: Nonlinearity,
    gamma: CompactSetSpec,
    grid: Optional[HypothesisGrid] = None,
    mu: float = 1.0,
    safety: float = 1.05,
):
    """Brute-force (mu, c) for the alignment inequality on a grid.

    Returns constants with c * mu >= 1, or raises when the inner product
    is not positive somewhere outside the mu-ball (no finite c exists).
    """
    table = IncrementTable.on_grid(f, gamma, grid or HypothesisGrid())
    return table.alignment_constants(mu, safety)


def sector_epsilon(sector: SectorData) -> float:
    """min(1/(2c), alpha(mu)/2), the slack in the outside-ball bound."""
    return min(1.0 / (2.0 * sector.c), float(sector.alpha(sector.mu)) / 2.0)


def composed_gain(sector: SectorData) -> ScalarFunc:
    """The one gain g with g(s + theta(s)) 2(s^2 + theta(s)^2) <= s alpha(s)
    on [0, mu], of the product bounds and of ``certcore.iss_estimate``."""
    th, al = sector.theta, sector.alpha
    inner = comparison.from_callable(
        lambda s: s + th(s), "Kinf", descriptor="s+theta")
    weight = comparison.from_callable(
        lambda s: 2.0 * (s**2 + th(s) ** 2), "Kinf", descriptor="2(s^2+theta^2)")
    budget = comparison.from_callable(
        lambda s: s * al(s), "Kinf", descriptor="s*alpha")
    return comparison.compose_gain(inner, weight, budget, sector.mu)


@dataclass(frozen=True)
class ProductBoundsReport:
    passed: bool
    worst_cross: float
    worst_outside: float
    worst_inside: float
    n_samples: int


def check_sector_product_bounds(
    sector: SectorData,
    n_samples: int = 10_000,
    seed: int = 0,
) -> ProductBoundsReport:
    """Sampled check of the inner-product lower bounds used downstream.

    Three inequalities over draws of (u, y) in the box of half-width 10,
    half in dimension 1 and half in dimension 2, and selections w at y:
    the cross-term bound
    ``2<u,y> <= <y,w> + 2 alpha^{-1}(2||u||) ||u||``;
    outside the mu-ball, ``eps (||w|| + ||y||) <= <y,w>`` with
    eps = min(1/(2c), alpha(mu)/2); inside it,
    ``g(||y||)||y||^2 + g(||w||)||w||^2 <= <y,w>`` where g is
    ``composed_gain(sector)``.  The selections are
    drawn y by y, in the seeded order; then the three bounds are
    evaluated on all of them at once, with the bits of one draw at a
    time.
    """
    if sector.alpha.cls != "Kinf":
        raise ValueError("product bounds need alpha of class Kinf")
    al, gain, eps = sector.alpha, composed_gain(sector), sector_epsilon(sector)

    rng = np.random.default_rng(seed)
    cross, outside, inside = [], [], []
    for m in (1, 2):
        ys = 10.0 * (2 * rng.random((n_samples // 2, m)) - 1)
        us = 10.0 * (2 * rng.random((n_samples // 2, m)) - 1)
        nus = np.sqrt(np.vecdot(us, us))
        inv_terms = 2.0 * al.inverse(2.0 * nus) * nus
        sels = _selections(ys, sector, rng, 3)
        W = np.concatenate(sels or [ys])
        owner = np.repeat(np.arange(len(ys)), [len(s) for s in sels])
        nys = np.sqrt(np.vecdot(ys, ys))
        ny, nu, inv = nys[owner], nus[owner], inv_terms[owner]
        nw = np.sqrt(np.vecdot(W, W))
        yw = np.vecdot(ys[owner], W)
        tol = _sector_tol(yw, inv, nu * ny)
        cross.append(2.0 * np.vecdot(us, ys)[owner] - yw - inv - tol)
        out = ny > sector.mu
        outside.append(eps * (nw[out] + ny[out]) - yw[out] - tol[out])
        # squares are taken per draw, as numpy's scalar and array ``**2``
        # can differ in the last bit
        inn = ~out & (ny > 0)
        inside.append([ny[inn], nw[inn], [x**2 for x in ny[inn].tolist()],
                       [x**2 for x in nw[inn].tolist()], yw[inn], tol[inn]])
    cross, outside = np.concatenate(cross), np.concatenate(outside)
    ny, nw, ny2, nw2, yw, tol = (np.concatenate(c) for c in zip(*inside))
    count = len(cross)
    worst_cross = float(np.max(cross, initial=-math.inf))
    worst_out = float(np.max(outside, initial=-math.inf))
    worst_in = -math.inf
    if ny.size:
        worst_in = float(np.max(gain(ny) * ny2 + gain(nw) * nw2 - yw - tol))
    passed = max(worst_cross, worst_out, worst_in) <= 0.0
    return ProductBoundsReport(passed, worst_cross, worst_out, worst_in, count)
