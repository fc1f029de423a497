"""Comparison functions: evaluable class-K / K-infinity / P / L scalar maps.

These are the monotone gauge functions used throughout the stability
certificates and sector bounds.  A :class:`ScalarFunc` wraps a plain
callable on the nonnegative reals together with a class tag and an
optional closed-form descriptor so that reports and serialized configs
stay readable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "ScalarFunc",
    "identity",
    "power",
    "poly",
    "from_callable",
    "piecewise_linear",
    "compose_gain",
    "monotone_inverse",
]

_CLASSES = ("K", "Kinf", "P", "L")

# Grid used for cheap monotonicity / sign spot checks at construction.
_CHECK_GRID = np.concatenate(([0.0], np.geomspace(1e-8, 1e3, 45)))


@dataclass(frozen=True)
class ScalarFunc:
    """A nonnegative scalar function on [0, inf) with a class tag.

    Parameters
    ----------
    fn : callable
        Vectorizable map from nonnegative floats to nonnegative floats.
    cls : str
        One of ``"K"``, ``"Kinf"``, ``"P"``, ``"L"``.
    descriptor : str, optional
        Closed-form hint such as ``"power:2*s^1.5"`` or ``"identity"``,
        used only for reporting.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    cls: str
    descriptor: Optional[str] = None

    def __post_init__(self):
        if self.cls not in _CLASSES:
            raise ValueError(f"unknown comparison class {self.cls!r}")
        vals = self(_CHECK_GRID)
        if not np.all(np.isfinite(vals)):
            raise ValueError("comparison function not finite on check grid")
        if np.any(vals < -1e-14):
            raise ValueError("comparison function negative on check grid")
        if self.cls in ("K", "Kinf", "P") and abs(float(self(0.0))) > 1e-12:
            raise ValueError("class K/Kinf/P requires f(0) = 0")
        if self.cls in ("K", "Kinf") and np.any(np.diff(vals) < -1e-12):
            raise ValueError("class K/Kinf requires nondecreasing samples")
        if self.cls == "L" and np.any(np.diff(vals) > 1e-12):
            raise ValueError("class L requires nonincreasing samples")

    def __call__(self, s):
        arr = np.asarray(s, dtype=float)
        out = np.asarray(self.fn(arr), dtype=float)
        if arr.ndim == 0:
            return float(out.ravel()[0])
        return out

    def inverse(self, t):
        """Invert a strictly increasing function by bisection."""
        return monotone_inverse(self, t)


def monotone_inverse(f: ScalarFunc, t, rel_tol: float = 1e-12):
    """Solve f(s) = t for s >= 0 by bracketing bisection, elementwise.

    Requires ``f`` strictly increasing (class K / K-infinity) and
    0 < ``rel_tol`` < 1.  A scalar ``t`` gives a float, an array its shape.
    Each entry doubles its bracket from 1, then bisects it until its width
    is at most ``rel_tol * max(1, midpoint)``, exactly as if solved alone.
    A scalar is bisected on Python floats, with the same steps, the same
    calls of ``f`` and the same result as an array entry.
    """
    if f.cls not in ("K", "Kinf"):
        raise ValueError("inverse requires a class K/Kinf function")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0) or not 0.0 < rel_tol < 1.0:
        raise ValueError("inverse needs t nonnegative and 0 < rel_tol < 1")
    if t.ndim == 0:
        return _scalar_inverse(f, float(t), rel_tol)
    target = t.ravel()
    lo, hi = np.zeros_like(target), (target != 0.0).astype(float)
    idx = np.flatnonzero(hi)
    for _ in range(200):
        if idx.size == 0:
            break
        idx = idx[~(f(hi[idx]) >= target[idx])]
        hi[idx] *= 2.0
    if idx.size:
        raise ValueError("could not bracket inverse; function may be bounded")
    idx = np.flatnonzero(target)
    while idx.size:  # rel_tol < 1, so a fresh bracket [0, 2^k] is too wide
        mid = 0.5 * (lo[idx] + hi[idx])
        below = f(mid) < target[idx]
        lo[idx[below]] = mid[below]
        hi[idx[~below]] = mid[~below]
        lo_i, hi_i = lo[idx], hi[idx]
        idx = idx[hi_i - lo_i > rel_tol * np.maximum(1.0, 0.5 * (hi_i + lo_i))]
    return (0.5 * (lo + hi)).reshape(t.shape)


def _scalar_inverse(f: ScalarFunc, target: float, rel_tol: float) -> float:
    """One entry of :func:`monotone_inverse`, without array indexing."""
    if target == 0.0:
        return 0.0
    hi = 1.0
    for _ in range(200):
        if f(hi) >= target:
            break
        hi *= 2.0
    else:
        raise ValueError("could not bracket inverse; function may be bounded")
    lo = 0.0
    while True:  # rel_tol < 1, so the first bracket is too wide to stop
        mid = 0.5 * (lo + hi)
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
        if not hi - lo > rel_tol * max(1.0, 0.5 * (hi + lo)):
            return 0.5 * (lo + hi)


def identity() -> ScalarFunc:
    return ScalarFunc(lambda s: s, "Kinf", descriptor="identity")


def power(exponent: float, coeff: float = 1.0) -> ScalarFunc:
    """coeff * s**exponent, class K-infinity for exponent > 0."""
    if exponent <= 0 or coeff <= 0:
        raise ValueError("power law needs positive coefficient and exponent")
    return ScalarFunc(
        lambda s, p=exponent, c=coeff: c * np.power(s, p),
        "Kinf",
        descriptor=f"power:{coeff}*s^{exponent}",
    )


def poly(coeffs) -> ScalarFunc:
    """Polynomial sum_k coeffs[k] * s**(k+1) with nonnegative coefficients.

    The zero constant term keeps the function in class K-infinity.
    """
    coeffs = [float(c) for c in coeffs]
    if not coeffs or any(c < 0 for c in coeffs) or sum(coeffs) == 0:
        raise ValueError("poly needs nonnegative coefficients, not all zero")

    def fn(s, cs=tuple(coeffs)):
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        for k, c in enumerate(cs):
            if c:
                out = out + c * np.power(s, k + 1)
        return out

    return ScalarFunc(fn, "Kinf", descriptor="poly:" + ",".join(map(str, coeffs)))


def from_callable(fn, cls: str, descriptor: Optional[str] = None) -> ScalarFunc:
    return ScalarFunc(fn, cls, descriptor=descriptor)


def piecewise_linear(nodes, values, cls: str = "P") -> ScalarFunc:
    """Piecewise-linear interpolant through (nodes, values).

    Extends beyond the last node with the final segment slope (held flat
    if that slope is negative).  Used for tabulated lower envelopes.
    """
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    if nodes.ndim != 1 or nodes.shape != values.shape or nodes.size < 2:
        raise ValueError("need matching 1-d nodes/values with >= 2 points")
    if np.any(np.diff(nodes) <= 0):
        raise ValueError("nodes must be strictly increasing")
    tail_slope = max(0.0, (values[-1] - values[-2]) / (nodes[-1] - nodes[-2]))

    def fn(s, xs=nodes, ys=values, m=tail_slope):
        s = np.asarray(s, dtype=float)
        out = np.interp(s, xs, ys)
        beyond = s > xs[-1]
        if beyond.any():
            out = np.where(beyond, ys[-1] + m * (s - xs[-1]), out)
        return out

    return ScalarFunc(fn, cls, descriptor="piecewise-linear")


def compose_gain(
    inner: ScalarFunc, weight: ScalarFunc, budget: ScalarFunc, cap: float
) -> ScalarFunc:
    """Build g with g(inner(s)) * weight(s) <= budget(s) on [0, cap].

    For cap > 0 the construction is g(t) = budget(inner^{-1}(t)) / weight(cap),
    with the inverse evaluated by bisection.  For cap = 0 the bound is
    vacuous and the identity is returned.

    Raises
    ------
    ValueError
        If the inputs are not of class K-infinity, or a non-monotone
        sample of ``inner`` is detected.
    """
    for name, f in (("inner", inner), ("weight", weight), ("budget", budget)):
        if f.cls != "Kinf":
            raise ValueError(f"{name} must be of class Kinf, got {f.cls}")
    cap = float(cap)
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    if cap == 0.0:
        return identity()

    probe = np.linspace(0.0, max(cap, 1.0), 64)
    if np.any(np.diff(inner(probe)) <= 0):
        raise ValueError("inner function is not strictly increasing on samples")

    denom = float(weight(cap))
    if denom <= 0:
        raise ValueError("weight(cap) must be positive")

    return ScalarFunc(lambda t: budget(inner.inverse(t)) / denom, "Kinf",
                      descriptor=f"composed-gain:cap={cap}")
