"""Forcing-signal generators and almost-periodicity analysis.

Sliding-window (Stepanov) norms and period scans, and generalized
Fourier coefficients with frequency-module containment.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "SignalSpec",
    "StepanovReport",
    "SpectrumEstimate",
    "ModuleCheckResult",
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
    negative times (used by the two-sided Fourier average). The period
    scan and the Fourier table may call ``fn`` from two threads at once,
    so ``fn`` must be thread-safe; a pure function of its times is.
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


def _one_cpu() -> bool:
    """Whether this process may run on one CPU only."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) < 2
    return (os.cpu_count() or 1) < 2


def _both(fn, left, right):
    """(fn(left), fn(right)), with fn(right) on one extra thread while
    this one runs fn(left), or two plain calls on one CPU. Either call's
    exception is raised here, once both have ended."""
    if _one_cpu():
        return fn(left), fn(right)
    box = {}

    def work():
        try:
            box["out"] = fn(right)
        except BaseException as exc:
            box["exc"] = exc

    worker = threading.Thread(target=work)
    worker.start()
    try:
        out = fn(left)
    finally:
        worker.join()
    if "exc" in box:
        raise box["exc"]
    return out, box["out"]


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

    Shifts of at least ``_BLOCK`` cells run in two halves on two threads
    (one after the other when the process may use one CPU only, as under
    ``taskset -c 0``); the report does not depend on the CPU count.
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
    # only the first n_windows + w differences reach a window sum
    n_cum = n_windows + w
    dists = np.empty(taus.size)

    def share(shifts):  # one set of buffers serves every shift of a share
        return (shifts, np.zeros(n_cum),  # cum[0] stays 0
                np.empty((len(V), n_cum)), np.empty(n_cum),
                np.empty(n_cum - 1), np.empty(n_windows))

    def scan(part):
        shifts, cum, D, diff, cells, span = part
        for i in shifts:
            k = int(round(taus[i] / h))
            L = min(n_cum, V.shape[1] - k)
            Dk = D[:, :L]
            np.subtract(V[:, k:k + L], V[:, :L], out=Dk)
            np.multiply(Dk, Dk, out=Dk)
            # the sum over a lone channel is that channel
            dk = Dk[0] if len(V) == 1 else np.add.reduce(Dk, axis=0,
                                                         out=diff[:L])
            np.sqrt(dk, out=dk)
            np.add(dk[:-1], dk[1:], out=cells[:L - 1])
            np.multiply(0.5 * h, cells[:L - 1], out=cells[:L - 1])
            np.cumsum(cells[:L - 1], out=cum[1:L])
            np.subtract(cum[w:L], cum[:L - w], out=span[:L - w])
            dists[i] = float(np.max(span[:L - w]))

    # each shift writes its own distance, so the two halves of a grid of
    # long shifts run on two threads with the bits of one
    half = taus.size // 2
    if n_cum < _BLOCK:
        scan(share(range(taus.size)))
    else:
        _both(scan, share(range(half)), share(range(half, taus.size)))
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


def _grid_blocks(v: SignalSpec, t0: float, t1: float, n: int):
    """The nodes of ``_split_grid(v, np.linspace(t0, t1, n + 1))`` in
    consecutive blocks of ``_BLOCK`` base cells that share their end
    nodes, without the whole grid."""
    step = np.subtract(t1, t0, dtype=float) / n if n else 0.0
    jumps = v.breakpoints(t0, t1)
    lefts = left_limit(jumps)
    for a in range(0, n, _BLOCK):
        b = min(a + _BLOCK, n)
        # the nodes of np.linspace: y *= step, y += start, the last t1
        base = np.arange(a, b + 1, dtype=float)
        base *= step
        base += t0
        if b == n:
            base[-1] = t1
        lo, hi = base[0], base[-1]
        # each jump with its time or its left limit in [lo, hi); a pair
        # that an interior block edge separates is clipped to the block,
        # and the first block keeps a left limit before t0
        t = _with_jumps(base, jumps[np.searchsorted(jumps, lo):
                                    np.searchsorted(lefts, hi)])
        yield t[np.searchsorted(t, lo) if a else 0:
                np.searchsorted(t, hi, "right")]


def _averaged_transforms(v: SignalSpec, lams, T: float, nodes_per_unit: int,
                         window: Optional[str]) -> np.ndarray:
    """Averaged transforms of v at the frequencies ``lams``, shape
    (len(lams), m), all on the one node grid of density ``nodes_per_unit``
    over [-T, T] (two-sided v) or [0, T].

    The grid is built ``_BLOCK`` base cells at a time, v is evaluated once
    per node, block by block, and the complex work runs over the same
    blocks, so no buffer grows with the horizon. Two cases hold the grid
    whole: a lone channel (m = 1), whose block is the whole grid since
    its pairwise sum cannot be split, and a Hann window, whose norm is
    the pairwise trapezoid sum of its weights over the whole grid; the
    window's work still runs in blocks of ``_BLOCK`` cells."""
    if T <= 0:
        raise ValueError("averaging horizon must be positive")
    t0, t1 = (-T if v.two_sided else 0.0), T
    n = int((t1 - t0) * nodes_per_unit)
    # Each channel sums its cells in the order numpy's axis-0 reduce of
    # the (N, m) cell array uses: rows in sequence when m > 1, pairwise
    # for a lone column. This keeps the coefficients bit-identical to
    # np.trapezoid over the (N, m) integrand along axis 0. The sequence
    # runs block by block: adding the sum so far to a block's first cell
    # is the next step of the one running sum. A channel that is zero on
    # every node of a block adds only zeros there and is not summed; one
    # that is zero everywhere keeps its coefficient +0j.
    in_order = v.m > 1
    if in_order and window is None:
        blocks = _grid_blocks(v, t0, t1, n)
    else:
        nodes = _split_grid(v, np.linspace(t0, t1, n + 1))
        block = _BLOCK if in_order else max(len(nodes) - 1, 1)
        blocks = (nodes[a:a + block + 1] for a in range(0, len(nodes) - 1, block))
    if window == "hann":
        wts = 0.5 * (1.0 - np.cos(2.0 * math.pi * (nodes - t0) / (t1 - t0)))
        norm = np.trapezoid(wts, nodes)
    else:
        norm = t1 - t0
    out = np.zeros((len(lams), v.m), dtype=complex)
    a = size = 0  # the grid index of the block's first node; buffer size
    y = np.empty(0, dtype=complex)
    for t in blocks:
        if len(t) > size:  # the first block, or one with more jump nodes
            size = len(t)
            phase = np.empty(size, dtype=complex)
            cells = np.empty(size - 1, dtype=complex)
            vals = np.empty((v.m, size))  # channel-major
        d = np.diff(t)
        ph, cb = phase[:len(t)], cells[:len(d)]
        vb = vals[:, :len(t)]
        # the block before ended on this block's first node, so v is read
        # once per node
        k = 1 if a else 0
        if a:
            vb[:, 0] = last
        vb[:, k:] = v(t[k:]).T
        last = vb[:, -1].copy()
        live = [j for j, col in enumerate(vb) if col.any()]
        if len(live) > 1 and len(y) < len(t):
            y = np.empty(size, dtype=complex)
        for i, lam in enumerate(lams):
            # exp(-i lam t) from the real product t * -lam: the values of
            # np.exp(-1j * lam * nodes) without its complex product
            ph.real = 0.0
            np.multiply(t, -lam, out=ph.imag)
            np.exp(ph, out=ph)
            if window == "hann":
                np.multiply(wts[a:a + len(t)], ph, out=ph)
            for j in live:
                # the last live channel's products overwrite the phase
                yb = ph if j == live[-1] else y[:len(t)]
                np.multiply(ph, vb[j], out=yb)
                np.add(yb[1:], yb[:-1], out=cb)
                np.multiply(d, cb, out=cb)
                np.divide(cb, 2.0, out=cb)
                if in_order:
                    if a:
                        cb[0] += out[i, j]
                    out[i, j] = np.cumsum(cb, out=cb)[-1]
                else:
                    out[i, j] = np.add.reduce(cb)
        a += len(d)
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
    A signal of two or more channels is evaluated and summed in blocks of
    a fixed number of cells and, without a window, its node grid is built
    in the same blocks, so the table holds the same memory at any
    horizon. A Hann window holds each node grid and its weights whole
    (its norm sums them pairwise), and a one-channel signal is evaluated
    and summed over its whole grid at once.

    A table of at least 32 blocks of cells runs its grids on two threads
    (one after the other when the process may use one CPU only, as under
    ``taskset -c 0``); the table does not depend on the CPU count.
    """
    freqs = np.asarray(list(frequencies), dtype=float)
    density = np.array([_oscillation_density(v, f) for f in freqs], dtype=int)
    horizons = (T, T / 2.0)
    # one task per horizon and node density: the frequencies of one
    # density share one grid and one evaluation of v
    tasks = [(i, npu) for i in (0, 1) for npu in dict.fromkeys(density.tolist())]
    out = np.empty((2, len(freqs), v.m), dtype=complex)

    def run(share):
        for i, npu in share:
            rows = density == npu
            out[i, rows] = _averaged_transforms(v, freqs[rows], horizons[i],
                                                npu, window)

    span = 2.0 if v.two_sided else 1.0
    cells = {task: span * horizons[task[0]] * task[1] for task in tasks}
    if sum(cells.values()) < 32 * _BLOCK:
        run(tasks)
    else:
        # largest task first, each to the share with fewer cells so far;
        # each task writes its own rows, so the bits are those of one thread
        shares = ([], [])
        for task in sorted(tasks, key=cells.get, reverse=True):
            min(shares, key=lambda s: sum(map(cells.get, s))).append(task)
        _both(run, *shares)
    coefs, half = out
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
