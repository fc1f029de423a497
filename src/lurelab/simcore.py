"""Assembly and fixed-step integration of the closed-loop equations.

Classical fourth-order Runge-Kutta on a uniform grid with sub-stepping
at declared forcing jumps, paired-trajectory gap measurements,
exponential envelope fitting, Lyapunov monotonicity along unforced runs,
and the integral-gain bound check on trajectory ensembles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .apsignals import SignalSpec, left_limit
from .certcore import CertificateP, LinearTriple, QCertificate
from .sectorcore import Nonlinearity

__all__ = [
    "LureSystem",
    "Trajectory",
    "GapSeries",
    "ExpFit",
    "BlowUpError",
    "InsufficientDataError",
    "simulate",
    "incremental_gap",
    "fit_exponential",
    "lyapunov_monotonicity",
    "MonotonicityResult",
    "IissSurrogate",
    "fit_iiss_surrogates",
    "iiss_bound_check",
    "IissVerdict",
]

BLOWUP_NORM = 1e9


class BlowUpError(RuntimeError):
    """The state left the admissible region during integration."""

    def __init__(self, time, last_state, row=0):
        super().__init__(f"state blow-up at t = {time:.6g}")
        self.time = float(time)
        self.last_state = np.asarray(last_state, dtype=float)
        self.row = int(row)


class InsufficientDataError(ValueError):
    """Too few usable nodes for a fit."""


@dataclass(frozen=True)
class LureSystem:
    """Closed loop: dx/dt = A x - B f(t, Cx) + B v(t)."""

    triple: LinearTriple
    f: Nonlinearity
    p_cert: Optional[CertificateP] = None
    q_cert: Optional[QCertificate] = None

    def __post_init__(self):
        if self.f.m != self.triple.m:
            raise ValueError(
                f"nonlinearity dimension {self.f.m} != triple m {self.triple.m}")


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled state path with integrator metadata."""

    times: np.ndarray
    states: np.ndarray
    forcing_id: str = ""
    method: str = "rk4"
    dt: float = 0.0
    n_substeps: int = 0

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.atleast_2d(np.asarray(self.states, dtype=float))
        if len(times) != len(states):
            raise ValueError("times and states lengths differ")
        if np.any(np.diff(times) <= 0):
            raise ValueError("time grid must be strictly increasing")
        if not np.all(np.isfinite(states)):
            raise ValueError("states contain non-finite values")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    @property
    def n(self) -> int:
        return self.states.shape[1]

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    @property
    def rhs_evals(self) -> int:
        return 4 * self.n_substeps

    @property
    def peak_norm(self) -> float:
        """Largest Euclidean norm of a stored state."""
        return float(np.max(np.linalg.norm(self.states, axis=1)))


def _stage_table(v: SignalSpec, times: np.ndarray, dt: float):
    """Sub-steps of a run on ``times``, split at declared jumps lying more
    than 1e-15 inside a step.  Per sub-step: the row (t, t + h/2, t + h, h),
    the grid index it closes (0 at an interior jump) and the forcing at
    the three stages, from one call; a stage on the jump that closes its
    sub-step reads the left limit."""
    bps = v.breakpoints(0.0, times[-1] + dt)
    hi = times - 1e-15
    inner = bps[bps < hi[np.minimum(np.searchsorted(times + 1e-15, bps),
                                    len(times) - 1)]]
    # a step end closes at a jump when the next jump lies within 1e-12
    nxt = np.append(bps, np.inf)[np.searchsorted(bps, hi)]
    edges = np.concatenate([times, inner])
    order = np.argsort(edges, kind="stable")
    node = np.concatenate([np.arange(len(times)), np.zeros(len(inner), int)])
    closes = np.concatenate([np.abs(nxt - times) < 1e-12, np.ones(len(inner), bool)])
    edges, node, closes = edges[order], node[order], closes[order]
    h = np.diff(edges)[:, None]
    stages = edges[:-1, None] + h * np.array([0.0, 0.5, 1.0])
    at = np.where(closes[1:, None] & (np.abs(stages - edges[1:, None]) < 1e-15),
                  left_limit(edges[1:, None]), stages)
    V = v(at.ravel()).reshape(len(h), 3, v.m)
    return np.hstack([stages, h]), node[1:], V


def simulate(system: LureSystem, x0, v: SignalSpec, T: float,
             dt: float) -> Trajectory | tuple:
    """Fixed-step RK4 integration of the closed loop on [0, T].

    ``x0`` of shape (n,) gives one :class:`Trajectory`; shape (K, n) gives
    a tuple of K, integrated in one loop under the same forcing.  Rows
    are bit-identical to K = 1 runs: ``np.matvec`` takes each by itself.
    Steps split at declared forcing jumps so no stage straddles one; a
    stage closing a sub-step at a jump reads the forcing from the left.
    Raises :class:`BlowUpError` at the first step where a row stops
    being finite or exceeds the blow-up norm, naming the lowest row.
    ``T`` must be a whole number of steps, to 1e-9 relative: a horizon
    off the grid raises ``ValueError`` instead of being cut short.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if v.m != system.triple.m:
        raise ValueError("forcing dimension does not match the system")
    B, n = system.triple.B, system.triple.n
    X = np.atleast_1d(np.asarray(x0, dtype=float))
    single = X.ndim == 1
    if X.ndim > 2 or X.shape[-1] != n:
        raise ValueError(f"x0 must have shape ({n},) or (K, {n})")
    X = X.reshape(-1, n)
    n_steps = int(round(T / dt))
    if abs(T / dt - n_steps) > 1e-9 * max(1.0, T / dt):
        raise ValueError(f"horizon T = {T!r} is not a multiple of dt = {dt!r}")
    times = dt * np.arange(n_steps + 1)
    stages, node, V = _stage_table(v, times, dt)
    states = np.empty((len(X), n_steps + 1, n))
    states[:, 0] = X
    AC = np.vstack([system.triple.A, system.triple.C])

    def fn(t, Y):  # checks the output shape on the first call only
        nonlocal fn
        fn = system.f.fn
        if np.shape(W := fn(t, Y)) != Y.shape:
            raise ValueError(f"nonlinearity maps {Y.shape} to {np.shape(W)}")
        return W

    def rhs(t, X, vt):
        Z = np.matvec(AC, X)
        return Z[:, :n] + np.matvec(B, vt - fn(t, Z[:, n:]))

    # a row that overflows is reported by the typed error below, not by
    # numpy's warnings on the way there
    with np.errstate(over="ignore", invalid="ignore"):
        for row, k, (v0, vm, v1) in zip(stages, node, V):
            t0, tm, t1, h = row.tolist()
            k1 = rhs(t0, X, v0)
            k2 = rhs(tm, X + 0.5 * h * k1, vm)
            k3 = rhs(tm, X + 0.5 * h * k2, vm)
            k4 = rhs(t1, X + h * k3, v1)
            X = X + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if k:
                ok = np.vecdot(X, X) <= BLOWUP_NORM ** 2  # NaN fails too
                if not ok.all():
                    row = int(np.argmin(ok))
                    raise BlowUpError(times[k], states[row, k - 1], row)
                states[:, k] = X
    trajs = tuple(Trajectory(times, S, forcing_id=v.name, method="rk4", dt=dt,
                             n_substeps=len(stages)) for S in states)
    return trajs[0] if single else trajs


# ---------------------------------------------------------------------------
# paired-trajectory measurements


@dataclass(frozen=True)
class GapSeries:
    """Pointwise gap between two trajectories and forcing-difference data."""

    times: np.ndarray
    values: np.ndarray        # ||x1 - x2|| per node
    forcing_l1: np.ndarray    # int_0^t ||v1 - v2||
    forcing_sup: np.ndarray   # sup_{[0,t]} ||v1 - v2||

    def __post_init__(self):
        if np.any(self.values < 0):
            raise ValueError("gap values must be nonnegative")

    def initial(self) -> float:
        return float(self.values[0])


def incremental_gap(
    traj1: Trajectory,
    traj2: Trajectory,
    v1: SignalSpec,
    v2: SignalSpec,
) -> GapSeries:
    """Euclidean gap series with forcing-difference functionals.

    The integral of the forcing difference uses composite trapezoid on
    the trajectory grid; the sup-norm is the running nodal maximum.
    """
    if traj1.times.shape != traj2.times.shape or \
            np.max(np.abs(traj1.times - traj2.times)) > 1e-12:
        raise ValueError("trajectories are on different time grids")
    times = traj1.times
    gap = np.linalg.norm(traj1.states - traj2.states, axis=1)
    dv = np.linalg.norm(v1(times) - v2(times), axis=1)
    steps = np.diff(times)
    cells = 0.5 * steps * (dv[:-1] + dv[1:])
    forcing_l1 = np.concatenate([[0.0], np.cumsum(cells)])
    forcing_sup = np.maximum.accumulate(dv)
    return GapSeries(times, gap, forcing_l1, forcing_sup)


@dataclass(frozen=True)
class ExpFit:
    """Least-squares exponential envelope gap(t) ~ M gap(0) exp(-gamma t)."""

    M: float
    gamma: float
    residual: float
    window: tuple
    n_nodes: int

    def envelope(self, gap0: float, t) -> np.ndarray:
        return self.M * gap0 * np.exp(-self.gamma * np.asarray(t, dtype=float))


def fit_exponential(gap: GapSeries, window: Optional[tuple] = None) -> ExpFit:
    """Fit log gap against time on a window by linear least squares.

    Nodes with gap below 1e-300 are masked out.  The default window
    drops the first tenth of the horizon, where the transient may
    overshoot any exponential envelope.
    """
    t = gap.times
    if window is None:
        window = (t[0] + 0.1 * (t[-1] - t[0]), t[-1])
    lo, hi = window
    mask = (t >= lo) & (t <= hi) & (gap.values > 1e-300)
    if int(np.count_nonzero(mask)) < 8:
        raise InsufficientDataError(
            f"only {int(np.count_nonzero(mask))} usable nodes in window")
    ts = t[mask]
    logs = np.log(gap.values[mask])
    design = np.column_stack([np.ones_like(ts), -ts])
    coef, *_ = np.linalg.lstsq(design, logs, rcond=None)
    log_m_prime, gamma = float(coef[0]), float(coef[1])
    resid = float(np.sqrt(np.mean((design @ coef - logs) ** 2)))
    gap0 = max(gap.initial(), 1e-300)
    return ExpFit(math.exp(log_m_prime) / gap0, gamma, resid,
                  (float(lo), float(hi)), int(np.count_nonzero(mask)))


@dataclass(frozen=True)
class MonotonicityResult:
    max_increase: float
    threshold: float
    passed: bool


def lyapunov_monotonicity(traj: Trajectory, p_cert: CertificateP) -> MonotonicityResult:
    """Largest nodal increase of <x, Px> along an unforced trajectory.

    Passes when the increase stays within the integrator tolerance
    allowance dt * 1e-6 * scale.
    """
    P = p_cert.P
    vals = np.einsum("ij,jk,ik->i", traj.states, P, traj.states)
    diffs = np.diff(vals)
    scale = 1.0 + float(np.max(np.abs(vals)))
    threshold = traj.dt * 1e-6 * scale
    max_inc = float(np.max(diffs)) if diffs.size else 0.0
    return MonotonicityResult(max_inc, threshold, max_inc <= threshold)


# ---------------------------------------------------------------------------
# integral-gain bound on ensembles


@dataclass(frozen=True)
class IissSurrogate:
    """Envelope constants: gap <= M exp(-gamma t) gap0 + gain * int ||dv||."""

    M: float
    gamma: float
    gain: float


@dataclass(frozen=True)
class IissVerdict:
    passed: bool
    worst_margin: float
    at_time: float


def fit_iiss_surrogates(
    gaps: Sequence[GapSeries],
    safety: float = 1.05,
) -> IissSurrogate:
    """Fit (M, gamma, gain) on a training ensemble.

    The decay rate comes from members with (numerically) equal forcings;
    M is then inflated to envelope those members everywhere, and the
    linear integral gain is the smallest constant covering the rest.
    """
    unforced = [g for g in gaps if g.forcing_l1[-1] <= 1e-12]
    if not unforced:
        raise InsufficientDataError("need at least one equal-forcing pair")
    gamma = math.inf
    for g in unforced:
        fit = fit_exponential(g)
        gamma = min(gamma, max(fit.gamma, 1e-12))
    M = 1.0
    for g in unforced:
        gap0 = max(g.initial(), 1e-300)
        ratios = g.values / (gap0 * np.exp(-gamma * g.times))
        M = max(M, float(np.max(ratios)))
    M *= safety
    gain = 0.0
    for g in gaps:
        if g.forcing_l1[-1] <= 1e-12:
            continue
        gap0 = max(g.initial(), 1e-300)
        psi = M * gap0 * np.exp(-gamma * g.times)
        excess = g.values - psi
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(g.forcing_l1 > 1e-12,
                              excess / np.maximum(g.forcing_l1, 1e-300), 0.0)
        gain = max(gain, float(np.max(ratios)))
    return IissSurrogate(M, gamma, gain * safety)


def iiss_bound_check(
    gaps: Sequence[GapSeries],
    surrogate: IissSurrogate,
    rel_tol: float = 1e-9,
) -> list:
    """Check the fitted envelope bound at every node of every member."""
    out = []
    for g in gaps:
        gap0 = max(g.initial(), 1e-300)
        bound = (surrogate.M * gap0 * np.exp(-surrogate.gamma * g.times)
                 + surrogate.gain * g.forcing_l1)
        margins = g.values - bound - rel_tol * (1.0 + bound)
        worst = int(np.argmax(margins))
        out.append(IissVerdict(bool(margins[worst] <= 0.0),
                               float(margins[worst]), float(g.times[worst])))
    return out
