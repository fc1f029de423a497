"""Forcing-signal generators and almost-periodicity analysis.

Sliding-window (Stepanov) norms and period scans, generalized Fourier
coefficients with frequency-module containment, and the asymptotic
decomposition check used by the entrainment experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "SignalSpec",
    "StepanovReport",
    "SpectrumEstimate",
    "ModuleCheckResult",
    "AapConvergenceResult",
    "sawtooth",
    "zero_signal",
    "constant_signal",
    "make_example_forcings",
    "signal_from_samples",
    "stepanov_norm",
    "stepanov_period_scan",
    "fourier_coefficient",
    "fourier_table",
    "module_containment",
    "aap_convergence_check",
    "left_limit",
]

_LEFT_EPS = 1e-12
_BLOCK = 8192  # grid cells per block of the Fourier sums
_WINDOWS = 32  # unit windows per evaluation of v in stepanov_norm


def left_limit(t):
    """Times just before t, where a right-continuous signal reads its
    left limit at a jump: t - 1e-12 * max(1, |t|)."""
    t = np.asarray(t, dtype=float)
    return t - _LEFT_EPS * np.maximum(1.0, np.abs(t))


def sawtooth(t):
    """Right-continuous sawtooth -1 + mod(t, 2*pi)/pi with range [-1, 1)."""
    t = np.asarray(t, dtype=float)
    out = -1.0 + np.mod(t, 2.0 * math.pi) / math.pi
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class SignalSpec:
    """Closed-form or sampled forcing signal with a class tag.

    ``fn`` maps an array of times (N,) to values (N, m).  Jump times lie
    on the lattices ``offset + k * period`` listed in ``jump_lattices``.
    ``two_sided`` marks signals whose defining formula extends to
    negative times (used by the two-sided Fourier average).
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    m: int
    tag: str = "generic"  # periodic | ap | stepanov-ap | aap | generic
    period: Optional[float] = None
    frequencies: tuple = ()
    jump_lattices: tuple = ()  # of (period, offset)
    two_sided: bool = True

    def __post_init__(self):
        tags = ("periodic", "ap", "stepanov-ap", "aap", "generic")
        if self.tag not in tags:
            raise ValueError(f"tag must be one of {tags}")
        if self.tag == "periodic":
            if not self.period or self.period <= 0:
                raise ValueError("periodic signal needs a positive period")
            probe = np.linspace(0.0, 3.0, 17)
            a = self(probe)
            b = self(probe + self.period)
            if np.max(np.abs(a - b)) > 1e-12 * (1.0 + np.max(np.abs(a))):
                raise ValueError("declared period not satisfied at samples")

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        ts = t.reshape(1) if scalar else t
        out = np.asarray(self.fn(ts), dtype=float)
        if out.shape != (len(ts), self.m):
            out = out.reshape(len(ts), self.m)
        return out[0] if scalar else out

    def breakpoints(self, t0: float, t1: float) -> np.ndarray:
        """Jump times strictly inside (t0, t1), sorted."""
        pts = []
        for period, offset in self.jump_lattices:
            k0 = math.floor((t0 - offset) / period) + 1
            k1 = math.ceil((t1 - offset) / period) - 1
            # a quotient can round onto an integer and drop a point inside
            k0 -= offset + period * (k0 - 1) > t0
            k1 += offset + period * (k1 + 1) < t1
            if k1 >= k0:
                pts.append(offset + period * np.arange(k0, k1 + 1))
        if not pts:
            return np.empty(0)
        out = _sorted_unique(np.concatenate(pts))
        return out[(out > t0) & (out < t1)]

    def shifted(self, tau: float) -> "SignalSpec":
        """The shifted signal t -> v(t + tau)."""
        base = self
        lattices = tuple(
            (p, (off - tau) % p) for (p, off) in self.jump_lattices)
        return replace(
            self,
            name=f"{self.name}<<{tau:g}",
            fn=lambda ts, b=base, tau=tau: b.fn(np.asarray(ts) + tau),
            jump_lattices=lattices,
        )

    def __add__(self, other: "SignalSpec") -> "SignalSpec":
        if self.m != other.m:
            raise ValueError("signal dimensions differ")
        a, b = self, other
        return SignalSpec(
            name=f"{a.name}+{b.name}",
            fn=lambda ts: a.fn(np.asarray(ts)) + b.fn(np.asarray(ts)),
            m=a.m,
            tag="generic",
            frequencies=tuple(sorted(set(a.frequencies) | set(b.frequencies))),
            jump_lattices=a.jump_lattices + b.jump_lattices,
            two_sided=a.two_sided and b.two_sided,
        )


def zero_signal(m: int) -> SignalSpec:
    return SignalSpec("zero", lambda ts: np.zeros((len(ts), m)), m,
                      tag="periodic", period=1.0)


def constant_signal(value, name: str = "const") -> SignalSpec:
    value = np.atleast_1d(np.asarray(value, dtype=float))
    return SignalSpec(
        name, lambda ts, v=value: np.tile(v, (len(ts), 1)), value.size,
        tag="periodic", period=1.0)


def make_example_forcings() -> dict:
    """The four benchmark forcings for the coupled mass-spring example.

    All act on the second channel only.  ``v_p`` is periodic, ``v_s`` is
    Stepanov almost periodic (discontinuous), ``v_ap`` is almost
    periodic, and ``v_aap`` adds a decaying transient to ``v_s``.
    """
    rate = 0.75
    p1 = 2.0 * math.pi / rate
    p2 = 2.0 * math.pi / (rate * math.sqrt(2.0))

    def e2(scalars):
        out = np.zeros((len(scalars), 2))
        out[:, 1] = scalars
        return out

    v_p = SignalSpec(
        "v_p", lambda ts: e2(sawtooth(rate * np.asarray(ts))), 2,
        tag="periodic", period=p1, jump_lattices=((p1, 0.0),))
    v_s = SignalSpec(
        "v_s",
        lambda ts: e2(sawtooth(rate * np.asarray(ts))
                      + sawtooth(rate * math.sqrt(2.0) * np.asarray(ts))),
        2, tag="stepanov-ap", jump_lattices=((p1, 0.0), (p2, 0.0)))
    v_ap = SignalSpec(
        "v_ap",
        lambda ts: e2(np.sin(2.0 * math.sqrt(2.0) * math.pi * np.asarray(ts))
                      + np.sin(2.0 * math.pi * np.asarray(ts))),
        2, tag="ap",
        frequencies=(2.0 * math.pi, 2.0 * math.sqrt(2.0) * math.pi))
    v_aap = SignalSpec(
        "v_aap",
        lambda ts: (v_s.fn(ts)
                    + e2(np.asarray(ts) * np.exp(-1.5 * np.asarray(ts)))),
        2, tag="aap", jump_lattices=v_s.jump_lattices, two_sided=False)
    return {"v_p": v_p, "v_s": v_s, "v_ap": v_ap, "v_aap": v_aap}


def signal_from_samples(times, values, name: str = "sampled") -> SignalSpec:
    """Linear-interpolation signal backed by at least two finite, uniform
    samples with at least one value column."""
    times = np.asarray(times, dtype=float)
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if times.size < 2:
        raise ValueError("need at least 2 samples")
    if values.shape[0] != times.size:
        values = values.T
    if values.shape[0] != times.size:
        raise ValueError("times and values lengths differ")
    if values.shape[1] == 0:
        raise ValueError("samples have no value column")
    if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
        raise ValueError("samples must be finite")
    steps = np.diff(times)
    if np.any(steps <= 0) or np.max(steps) - np.min(steps) > 1e-9 * np.mean(steps):
        raise ValueError("sample grid must be uniform and increasing")
    m = values.shape[1]

    def fn(ts, xp=times, yp=values):
        ts = np.asarray(ts, dtype=float)
        return np.column_stack([np.interp(ts, xp, yp[:, j]) for j in range(m)])

    return SignalSpec(name, fn, m, tag="generic", two_sided=False)


# ---------------------------------------------------------------------------
# Stepanov machinery


def _sorted_unique(x: np.ndarray) -> np.ndarray:
    """np.unique of a 1-d array, without the numpy.ma import its first
    call costs: sort, then drop each entry equal to the one before."""
    x = np.sort(x)
    keep = np.ones(len(x), dtype=bool)
    keep[1:] = x[1:] != x[:-1]
    return x[keep]


def _with_jumps(base: np.ndarray, jumps: np.ndarray) -> np.ndarray:
    """The grid ``base`` with the jump times ``jumps`` added, together with
    the time just before each."""
    if jumps.size:
        return _sorted_unique(np.concatenate([base, left_limit(jumps), jumps]))
    return base


def _split_grid(v: SignalSpec, base: np.ndarray) -> np.ndarray:
    """The grid ``base`` with every declared jump strictly inside it
    added, together with the time just before it."""
    return _with_jumps(base, v.breakpoints(base[0], base[-1]))


def stepanov_norm(v: SignalSpec, t_end: float, n_nodes: int = 256) -> float:
    """Sliding-window norm sup_a int_a^{a+1} ||v|| dt over [0, t_end].

    Windows start every 0.05; each unit-window integral uses composite
    trapezoid on ``n_nodes`` cells with splitting at declared jump times.
    The windows are taken ``_WINDOWS`` at a time, with one evaluation of v
    for all their nodes; each window's integral has the bits of
    ``np.trapezoid`` on its own grid.
    """
    if t_end < 1.0:
        raise ValueError("need t_end >= 1 for a unit window")
    starts = np.arange(0.0, t_end - 1.0 + 1e-12, 0.05)
    jumps = v.breakpoints(starts[0], starts[-1] + 1.0)
    best = -math.inf
    for c in range(0, len(starts), _WINDOWS):
        a = starts[c:c + _WINDOWS]
        # the nodes of np.linspace(a[i], a[i] + 1.0, n_nodes + 1), row i
        grids = np.linspace(a, a + 1.0, n_nodes + 1, axis=1)
        lo = np.searchsorted(jumps, a, side="right")
        hi = np.searchsorted(jumps, a + 1.0, side="left")
        by_size = {}
        for grid, j0, j1 in zip(grids, lo, hi):
            nodes = _with_jumps(grid, jumps[j0:j1])
            by_size.setdefault(nodes.size, []).append(nodes)
        # rows of one size stack C-contiguous, so each row's trapezoid sum
        # runs in the pairwise order of the 1-d sum on that row alone
        blocks = [np.array(rows) for rows in by_size.values()]
        norms = np.linalg.norm(v(np.concatenate([b.ravel() for b in blocks])),
                               axis=1)
        for b in blocks:
            vals, norms = norms[:b.size].reshape(b.shape), norms[b.size:]
            best = max(best, float(np.max(np.trapezoid(vals, b, axis=1))))
    return best


@dataclass(frozen=True)
class StepanovReport:
    epsilon: float
    taus: np.ndarray
    distances: np.ndarray
    accepted: np.ndarray
    max_gap: float
    density_length: Optional[float]
    relatively_dense: Optional[bool]

    def accepted_taus(self) -> np.ndarray:
        return self.taus[self.accepted]


def stepanov_period_scan(
    v: SignalSpec,
    epsilon: float,
    tau_range,
    tau_step: Optional[float] = None,
    scan_range=(0.0, 40.0),
    density_length: Optional[float] = None,
    refine: int = 4,
) -> StepanovReport:
    """Scan shift candidates for sliding-window almost-periods.

    The shift grid and the quadrature grid are index-aligned (the
    integration step is ``tau_step / refine``) so each candidate distance
    ``sup_a int_a^{a+1} ||v(t+tau) - v(t)|| dt`` reduces to vectorized
    index shifts.  Jumps are not split here; the quadrature error scales
    with the integration step and is reported for ranking against
    epsilon, while exact periods still give exactly zero.
    """
    if tau_step is None:
        periods = [p for (p, _) in v.jump_lattices]
        if v.period:
            periods.append(v.period)
        if v.frequencies:
            periods.extend(2.0 * math.pi / f for f in v.frequencies if f > 0)
        tau_step = (min(periods) if periods else 1.0) / 200.0
    h = tau_step / refine
    scan0, scan1 = scan_range
    tau_lo, tau_hi = tau_range
    n_tau_lo = max(1, int(math.ceil(tau_lo / tau_step - 1e-9)))
    n_tau_hi = int(math.floor(tau_hi / tau_step + 1e-9))
    taus = tau_step * np.arange(n_tau_lo, n_tau_hi + 1)
    if taus.size == 0:
        raise ValueError("empty shift grid")
    t_max = scan1 + 1.0 + taus[-1] + h
    # half-cell offset keeps nodes off the jump lattice when the scan
    # grid is commensurate with a declared period
    ts = scan0 + h * (np.arange(int(math.ceil((t_max - scan0) / h)) + 1) + 0.5)
    V = np.ascontiguousarray(v(ts).T)  # channel-major (m, N)
    # a channel that is zero everywhere adds +0 to every sum of squares
    V = V[V.any(axis=1)]
    w = int(round(1.0 / h))
    n_windows = int(math.floor((scan1 - scan0) / h)) + 1
    # only the first n_windows + w differences reach a window sum; one
    # set of buffers serves every shift
    n_cum = n_windows + w
    cum = np.zeros(n_cum)  # cum[0] stays 0
    D = np.empty((len(V), n_cum))
    diff, cells, span = np.empty(n_cum), np.empty(n_cum - 1), np.empty(n_windows)
    dists = np.empty(taus.size)
    for i, tau in enumerate(taus):
        k = int(round(tau / h))
        L = min(n_cum, V.shape[1] - k)
        Dk = D[:, :L]
        np.subtract(V[:, k:k + L], V[:, :L], out=Dk)
        np.multiply(Dk, Dk, out=Dk)
        # the sum over a lone channel is that channel
        dk = Dk[0] if len(V) == 1 else np.add.reduce(Dk, axis=0, out=diff[:L])
        np.sqrt(dk, out=dk)
        np.add(dk[:-1], dk[1:], out=cells[:L - 1])
        np.multiply(0.5 * h, cells[:L - 1], out=cells[:L - 1])
        np.cumsum(cells[:L - 1], out=cum[1:L])
        np.subtract(cum[w:L], cum[:L - w], out=span[:L - w])
        dists[i] = float(np.max(span[:L - w]))
    accepted = dists <= epsilon
    if np.any(accepted):
        acc = taus[accepted]
        gaps = np.diff(acc)
        edges = [acc[0] - tau_lo, tau_hi - acc[-1]]
        max_gap = float(max(gaps.max() if gaps.size else 0.0, *edges))
    else:
        max_gap = math.inf
    dense = None if density_length is None else bool(max_gap <= density_length)
    return StepanovReport(epsilon, taus, dists, accepted, max_gap,
                          density_length, dense)


# ---------------------------------------------------------------------------
# generalized Fourier coefficients


def _oscillation_density(v: SignalSpec, lam: float) -> int:
    """Sample nodes per unit time, scaled to the fastest oscillation."""
    freq = abs(lam)
    if v.frequencies:
        freq += max(abs(f) for f in v.frequencies)
    for period, _ in v.jump_lattices:
        freq += 2.0 * math.pi / period
    if v.period:
        freq += 2.0 * math.pi / v.period
    cycles = freq / (2.0 * math.pi)
    return int(max(64, math.ceil(48 * cycles)))


def _averaged_transforms(v: SignalSpec, lams, T: float, nodes_per_unit: int,
                         window: Optional[str]) -> np.ndarray:
    """Averaged transforms of v at the frequencies ``lams``, shape
    (len(lams), m), all on the one node grid of density ``nodes_per_unit``
    over [-T, T] (two-sided v) or [0, T].

    The grid, v on it and the Hann weights are held whole; the complex
    work runs over blocks of ``_BLOCK`` cells, so its buffers do not grow
    with the horizon. A lone channel (m = 1) is the exception: its block
    is the whole grid, since its pairwise sum cannot be split."""
    if T <= 0:
        raise ValueError("averaging horizon must be positive")
    t0, t1 = (-T if v.two_sided else 0.0), T
    nodes = _split_grid(v, np.linspace(t0, t1, int((t1 - t0) * nodes_per_unit) + 1))
    vals = v(nodes).T  # channel-major (m, N)
    if window == "hann":
        wts = 0.5 * (1.0 - np.cos(2.0 * math.pi * (nodes - t0) / (t1 - t0)))
        norm = np.trapezoid(wts, nodes)
    else:
        norm = t1 - t0
    # Each channel sums its cells in the order numpy's axis-0 reduce of
    # the (N, m) cell array uses: rows in sequence when m > 1, pairwise
    # for a lone column. This keeps the coefficients bit-identical to
    # np.trapezoid over the (N, m) integrand along axis 0. The sequence
    # runs block by block: adding the sum so far to a block's first cell
    # is the next step of the one running sum. A channel that is zero on
    # every node has coefficient 0 and is not summed.
    in_order = len(vals) > 1
    live = [j for j, col in enumerate(vals) if col.any()]
    n_cells = len(nodes) - 1
    block = _BLOCK if in_order else max(n_cells, 1)
    out = np.zeros((len(lams), len(vals)), dtype=complex)
    phase = np.empty(min(block, n_cells) + 1, dtype=complex)
    y = np.empty_like(phase)
    cells = np.empty(len(phase) - 1, dtype=complex)
    for a in range(0, n_cells, block):
        b = min(a + block, n_cells)
        t = nodes[a:b + 1]
        d = np.diff(t)
        ph, yb, cb = phase[:b - a + 1], y[:b - a + 1], cells[:b - a]
        for i, lam in enumerate(lams):
            # exp(-i lam t) from the real product t * -lam: the values of
            # np.exp(-1j * lam * nodes) without its complex product
            ph.real = 0.0
            np.multiply(t, -lam, out=ph.imag)
            np.exp(ph, out=ph)
            if window == "hann":
                np.multiply(wts[a:b + 1], ph, out=ph)
            for j in live:
                np.multiply(ph, vals[j, a:b + 1], out=yb)
                np.add(yb[1:], yb[:-1], out=cb)
                np.multiply(d, cb, out=cb)
                np.divide(cb, 2.0, out=cb)
                if in_order:
                    if a:
                        cb[0] += out[i, j]
                    out[i, j] = np.cumsum(cb, out=cb)[-1]
                else:
                    out[i, j] = np.add.reduce(cb)
    return out / norm


def fourier_coefficient(v: SignalSpec, lam: float, T: float,
                        window: Optional[str] = None) -> np.ndarray:
    """Generalized Fourier coefficient estimate at frequency lam.

    Signals whose formula extends to negative times are averaged over
    [-T, T]; one-sided signals (asymptotically almost periodic, sampled)
    over [0, T].  Both averages converge to the same limit for almost
    periodic signals.  Optional Hann windowing suppresses spectral
    leakage for sampled trajectories.  The node density follows the
    fastest oscillation of v and of exp(-i lam t).
    """
    return _averaged_transforms(v, [lam], T, _oscillation_density(v, lam),
                                window)[0]


def _coefficient_rows(v: SignalSpec, freqs: np.ndarray, T: float,
                      window: Optional[str]) -> np.ndarray:
    """:func:`fourier_coefficient` at each frequency, in input order.

    Frequencies with the same node density share one grid and one
    evaluation of v; one density's grid is held at a time."""
    density = np.array([_oscillation_density(v, f) for f in freqs], dtype=int)
    out = np.empty((len(freqs), v.m), dtype=complex)
    for npu in dict.fromkeys(density.tolist()):
        rows = density == npu
        out[rows] = _averaged_transforms(v, freqs[rows], T, npu, window)
    return out


@dataclass(frozen=True)
class SpectrumEstimate:
    frequencies: np.ndarray
    coefficients: np.ndarray  # (n_freq, m) complex
    horizon: float
    proxies: np.ndarray  # |coef_T - coef_{T/2}| per frequency
    floor: float

    def magnitudes(self) -> np.ndarray:
        return np.linalg.norm(self.coefficients, axis=1)

    def significant(self) -> np.ndarray:
        return self.frequencies[self.magnitudes() > self.floor]


def fourier_table(v: SignalSpec, frequencies: Sequence[float], T: float,
                  window: Optional[str] = None) -> SpectrumEstimate:
    """Coefficient table with truncation proxies at the given frequencies.

    A proxy is |coef_T - coef_{T/2}|.  The significance floor is the
    larger of twice the largest proxy and 2% of the largest magnitude.
    Each grid is summed in blocks of a fixed number of cells, so the
    complex work holds the same memory at any horizon; a one-channel
    signal is summed over its whole grid at once.
    """
    freqs = np.asarray(list(frequencies), dtype=float)
    coefs = _coefficient_rows(v, freqs, T, window)
    half = _coefficient_rows(v, freqs, T / 2.0, window)
    proxies = np.linalg.norm(coefs - half, axis=1)
    mags = np.linalg.norm(coefs, axis=1)
    floor = max(2.0 * float(np.max(proxies)), 0.02 * float(np.max(mags)))
    return SpectrumEstimate(freqs, coefs, float(T), proxies, floor)


@dataclass(frozen=True)
class ModuleCheckResult:
    contained: bool
    witnesses: dict  # frequency -> tuple of (coeff, generator) or None

    def __bool__(self):
        return self.contained


def _frequencies_of(spectrum) -> np.ndarray:
    if isinstance(spectrum, SpectrumEstimate):
        return spectrum.significant()
    return np.asarray(list(spectrum), dtype=float)


def module_containment(spectrum_a, spectrum_b,
                       tol: float = 1e-6) -> ModuleCheckResult:
    """Is every frequency of A an integer combination of B's frequencies?

    The search enumerates combinations of at most 3 generators with
    integer coefficients bounded by 6 in absolute value; a documented,
    bounded-depth test.
    """
    freqs_a = _frequencies_of(spectrum_a)
    gens = _sorted_unique(np.abs(_frequencies_of(spectrum_b)))
    gens = [float(g) for g in gens if g > tol]
    witnesses = {}
    contained = True
    from itertools import combinations, product

    values = {}
    for k in range(1, min(3, len(gens)) + 1):
        for subset in combinations(range(len(gens)), k):
            for coeffs in product(range(-6, 7), repeat=k):
                if all(c == 0 for c in coeffs):
                    continue
                val = sum(c * gens[i] for c, i in zip(coeffs, subset))
                key = tuple(zip(coeffs, (gens[i] for i in subset)))
                values.setdefault(round(val, 12), key)
    combo_vals = np.array(list(values.keys()))
    combo_keys = list(values.values())
    for f in freqs_a:
        if abs(f) <= tol:
            witnesses[float(f)] = ()
            continue
        idx = int(np.argmin(np.abs(combo_vals - f)))
        if abs(combo_vals[idx] - f) <= tol:
            witnesses[float(f)] = combo_keys[idx]
        else:
            witnesses[float(f)] = None
            contained = False
    return ModuleCheckResult(contained, witnesses)


# ---------------------------------------------------------------------------
# asymptotic decomposition


@dataclass(frozen=True)
class AapConvergenceResult:
    passed: bool
    times: np.ndarray
    tail_sup: np.ndarray
    final_decile_sup: float
    threshold: float


def _coerce_path(obj):
    if hasattr(obj, "times") and hasattr(obj, "states"):
        return np.asarray(obj.times, float), np.asarray(obj.states, float)
    times, states = obj
    return np.asarray(times, float), np.asarray(states, float)


def aap_convergence_check(x, z_ap, threshold: float = 1e-2) -> AapConvergenceResult:
    """Tail sup-norm curve of x - z_ap and a final-decile verdict.

    ``tail_sup[i]`` is the supremum of the gap over [t_i, T]; the check
    passes when the supremum over the final tenth of the horizon is at
    most the threshold.
    """
    tx, sx = _coerce_path(x)
    tz, sz = _coerce_path(z_ap)
    if tx.shape != tz.shape or np.max(np.abs(tx - tz)) > 1e-12 * (1 + tx[-1]):
        raise ValueError("trajectories use different time grids")
    gap = np.linalg.norm(sx - sz, axis=1)
    tail = np.maximum.accumulate(gap[::-1])[::-1]
    t_decile = tx[0] + 0.9 * (tx[-1] - tx[0])
    idx = int(np.searchsorted(tx, t_decile))
    idx = min(idx, len(tx) - 1)
    final = float(tail[idx])
    return AapConvergenceResult(final <= threshold, tx, tail, final, threshold)
