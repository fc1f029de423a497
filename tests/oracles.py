"""Earlier, scalar or allocating forms of the analysis kernels, kept as
bit-for-bit oracles for their array rewrites in ``lurelab``:

- the depth-first recursive adaptive Simpson rule, the cumulative table
  built one breakpoint interval at a time, and the scalar ISS kernel of
  ``certcore.construct_iss_lyapunov``;
- the generalized Fourier coefficient built from scratch for every
  frequency, each on its own node grid, and the table built from it;
- the Stepanov period scan that allocates its arrays for every shift;
- the Stepanov norm that evaluates the signal once per window;
- the sampled sector product bounds and ISS decrease check that test
  every inequality draw by draw, with the selection sampler they use.
"""

import math

import numpy as np

from lurelab import apsignals as ap
from lurelab import comparison
from lurelab.certcore import DissipationCheck
from lurelab.sectorcore import ProductBoundsReport, sector_epsilon

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


# ---------------------------------------------------------------------------
# composite ISS Lyapunov function


def recursive_simpson(f, a, b, rel_tol=1e-8, max_depth=30):
    """Adaptive Simpson quadrature with relative tolerance."""
    def simpson(fa, fm, fb, a, b):
        return (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, b, fa, fm, fb, whole, depth):
        mid = 0.5 * (a + b)
        lm, rm = 0.5 * (a + mid), 0.5 * (mid + b)
        flm, frm = f(lm), f(rm)
        left = simpson(fa, flm, fm, a, mid)
        right = simpson(fm, frm, fb, mid, b)
        if depth >= max_depth or abs(left + right - whole) <= \
                15.0 * rel_tol * (abs(left + right) + 1e-300):
            return left + right + (left + right - whole) / 15.0
        return (recurse(a, mid, fa, flm, fm, left, depth + 1)
                + recurse(mid, b, fm, frm, fb, right, depth + 1))

    if a == b:
        return 0.0
    fa, fb = f(a), f(b)
    mid = 0.5 * (a + b)
    fm = f(mid)
    return recurse(a, b, fa, fm, fb, simpson(fa, fm, fb, a, b), 0)


def iss_kernel(q_cert, gain, eps):
    """The scalar kernel k(s) of ``construct_iss_lyapunov``."""
    delta, q1, q2 = q_cert.delta, q_cert.q1, q_cert.q2
    c0 = min(1.0, eps / q1)
    c1 = delta / 4.0
    c2 = delta / (4.0 * q2)
    s_max = 1e8
    args = np.concatenate(([0.0], np.geomspace(1e-9, c2 * math.sqrt(s_max) * 1.5,
                                               4096)))
    vals = gain(args)

    def kernel(s, c0=c0, c1=c1, c2=c2, xs=args, ys=vals):
        s = float(s)
        g = np.interp(c2 * math.sqrt(s), xs, ys)
        return c0 * min(1.0 / math.sqrt(s + 1.0), c1 * float(g))

    return kernel


class CachedIntegral:
    """The cumulative integral of a kernel, one interval at a time."""

    def __init__(self, kernel, rel_tol=1e-8, s_max=1e8, n_break=201):
        self.rel_tol = rel_tol
        self._g = lambda sig: 2.0 * sig * kernel(sig * sig)
        sigma = np.concatenate(([0.0], np.geomspace(1e-6, math.sqrt(s_max), n_break)))
        cum = np.zeros_like(sigma)
        for i in range(1, len(sigma)):
            cum[i] = cum[i - 1] + recursive_simpson(
                self._g, sigma[i - 1], sigma[i], rel_tol)
        self.sigma_break = sigma
        self.cumulative = cum

    def __call__(self, s: float) -> float:
        s = float(s)
        if s <= 0.0:
            return 0.0
        sig = math.sqrt(s)
        bp, cum = self.sigma_break, self.cumulative
        i = int(np.searchsorted(bp, sig, side="right")) - 1
        i = min(i, len(bp) - 1)
        return float(cum[i]) + recursive_simpson(
            self._g, float(bp[i]), sig, self.rel_tol)


# ---------------------------------------------------------------------------
# generalized Fourier coefficients


def _averaged_transform(v, lam, t0, t1, nodes_per_unit, window):
    base = np.linspace(t0, t1, int((t1 - t0) * nodes_per_unit) + 1)
    bps = v.breakpoints(t0, t1)
    if bps.size:
        nodes = np.unique(np.concatenate([base, ap.left_limit(bps), bps]))
    else:
        nodes = base
    vals = v(nodes).T  # channel-major (m, N)
    phase = np.exp(-1j * lam * nodes)
    if window == "hann":
        wts = 0.5 * (1.0 - np.cos(2.0 * math.pi * (nodes - t0) / (t1 - t0)))
        norm = _trapezoid(wts, nodes)
        phase = wts * phase
    else:
        norm = t1 - t0
    d = np.diff(nodes)
    in_order = len(vals) > 1
    out = np.empty(len(vals), dtype=complex)
    for j, col in enumerate(vals):
        y = phase * col
        cells = d * (y[1:] + y[:-1]) / 2.0
        out[j] = np.cumsum(cells)[-1] if in_order else np.add.reduce(cells)
    return out / norm


def fourier_coefficient(v, lam, T, nodes_per_unit=None, window=None):
    if T <= 0:
        raise ValueError("averaging horizon must be positive")
    npu = nodes_per_unit or ap._oscillation_density(v, lam)
    if v.two_sided:
        return _averaged_transform(v, lam, -T, T, npu, window)
    return _averaged_transform(v, lam, 0.0, T, npu, window)


def fourier_table(v, frequencies, T, window=None, floor=None):
    """(frequencies, coefficients, proxies, floor), coefficient by
    coefficient."""
    freqs = np.asarray(list(frequencies), dtype=float)
    coefs = np.array([fourier_coefficient(v, f, T, window=window) for f in freqs])
    half = np.array([fourier_coefficient(v, f, T / 2.0, window=window)
                     for f in freqs])
    proxies = np.linalg.norm(coefs - half, axis=1)
    if floor is None:
        mags = np.linalg.norm(coefs, axis=1)
        floor = max(2.0 * float(np.max(proxies)), 0.02 * float(np.max(mags)))
    return freqs, coefs, proxies, float(floor)


# ---------------------------------------------------------------------------
# Stepanov period scan


def period_scan_distances(v, tau_step, tau_range, scan_range, refine=4):
    """(taus, distances) of ``stepanov_period_scan``, allocating per shift."""
    h = tau_step / refine
    scan0, scan1 = scan_range
    tau_lo, tau_hi = tau_range
    n_tau_lo = max(1, int(math.ceil(tau_lo / tau_step - 1e-9)))
    n_tau_hi = int(math.floor(tau_hi / tau_step + 1e-9))
    taus = tau_step * np.arange(n_tau_lo, n_tau_hi + 1)
    t_max = scan1 + 1.0 + taus[-1] + h
    ts = scan0 + h * (np.arange(int(math.ceil((t_max - scan0) / h)) + 1) + 0.5)
    V = np.ascontiguousarray(v(ts).T)  # channel-major (m, N)
    w = int(round(1.0 / h))
    n_windows = int(math.floor((scan1 - scan0) / h)) + 1
    cum = np.zeros(n_windows + w)  # cum[0] stays 0
    dists = np.empty(taus.size)
    for i, tau in enumerate(taus):
        k = int(round(tau / h))
        L = min(cum.size, V.shape[1] - k)
        D = V[:, k:k + L] - V[:, :L]
        diff = np.sqrt(np.add.reduce(D * D, axis=0))
        np.cumsum(0.5 * h * (diff[:-1] + diff[1:]), out=cum[1:L])
        dists[i] = float(np.max(cum[w:L] - cum[:L - w]))
    return taus, dists


# ---------------------------------------------------------------------------
# Stepanov norm


def _window_l1(v, a, b, n_nodes):
    """Integral of ||v|| over [a, b] with jump splitting."""
    nodes = np.linspace(a, b, n_nodes + 1)
    bps = v.breakpoints(nodes[0], nodes[-1])
    if bps.size:
        nodes = np.unique(np.concatenate([nodes, ap.left_limit(bps), bps]))
    vals = np.linalg.norm(v(nodes), axis=1)
    return float(np.trapezoid(vals, nodes))


def stepanov_norm(v, t_end, n_nodes=256):
    """sup over window starts a of the integral of ||v|| over [a, a + 1]."""
    if t_end < 1.0:
        raise ValueError("need t_end >= 1 for a unit window")
    starts = np.arange(0.0, t_end - 1.0 + 1e-12, 0.05)
    return max(_window_l1(v, a, a + 1.0, n_nodes) for a in starts)


# ---------------------------------------------------------------------------
# sampled sector checks


def _sector_tol(*magnitudes):
    return 1e-10 * (1.0 + sum(abs(float(v)) for v in magnitudes))


def sector_member(w, y, sector):
    """Whether w lies in the correspondence at y."""
    ny, nw = np.linalg.norm(y), np.linalg.norm(w)
    inner = float(np.dot(w, y))
    th = float(sector.theta(ny))
    al = float(sector.alpha(ny))
    tol = _sector_tol(nw, th, inner, ny * al)
    if not (nw <= th + tol and inner >= ny * al - tol):
        return False
    if sector.variant == "F" and ny > sector.mu:
        return bool(sector.c * inner >= nw - tol)
    return True


def _orthonormal_complement(unit):
    m = unit.size
    full = np.eye(m) - np.outer(unit, unit)
    q, r = np.linalg.qr(full)
    keep = np.abs(np.diag(r)) > 1e-12
    basis = q[:, keep][:, : m - 1]
    if basis.shape[1] < m - 1 or np.max(np.abs(unit @ basis)) > 1e-8:
        basis = np.linalg.qr(unit[:, None], mode="complete")[0][:, 1:]
    return basis


def _random_unit(rng, m):
    v = rng.standard_normal(m)
    n = np.linalg.norm(v)
    return v / n if n > 0 else np.eye(m)[0]


def sample_selections(y, sector, rng, n_random=6):
    """Canonical plus random members at y, one membership test per draw."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    m = y.size
    ny = np.linalg.norm(y)
    if ny == 0.0:
        return np.zeros((1, m))
    picks = [float(sector.theta(ny)) * y / ny]
    if n_random <= 0:
        return np.array(picks)
    al = float(sector.alpha(ny))
    th = float(sector.theta(ny))
    yhat = y / ny
    if m > 1:
        basis = _orthonormal_complement(yhat)
    for _ in range(4 * n_random):
        if len(picks) >= n_random + 1:
            break
        a = al + (th - al) * rng.random()
        b_max = math.sqrt(max(th**2 - a**2, 0.0))
        if m == 1:
            w = a * yhat
        else:
            bdir = basis @ _random_unit(rng, m - 1)
            w = a * yhat + (b_max * (2 * rng.random() - 1.0)) * bdir
        if sector_member(w, y, sector):
            picks.append(w)
    return np.array(picks)


def check_sector_product_bounds(sector, n_samples=10_000, seed=0):
    """The three product bounds, tested draw by draw."""
    th, al = sector.theta, sector.alpha
    gain = comparison.compose_gain(
        comparison.from_callable(lambda s: s + th(s), "Kinf"),
        comparison.from_callable(lambda s: 2.0 * (s**2 + th(s) ** 2), "Kinf"),
        comparison.from_callable(lambda s: s * al(s), "Kinf"), sector.mu)
    eps = sector_epsilon(sector)
    rng = np.random.default_rng(seed)
    worst_cross = worst_out = worst_in = -math.inf
    inside = []
    count = 0
    for m in (1, 2):
        ys = 10.0 * (2 * rng.random((n_samples // 2, m)) - 1)
        us = 10.0 * (2 * rng.random((n_samples // 2, m)) - 1)
        nus = np.array([np.linalg.norm(u) for u in us])
        inv_terms = 2.0 * al.inverse(2.0 * nus) * nus
        for y, u, nu, inv_term in zip(ys, us, nus, inv_terms):
            sels = sample_selections(y, sector, rng, n_random=3)
            ny = np.linalg.norm(y)
            for w in sels:
                count += 1
                nw = np.linalg.norm(w)
                yw = float(np.dot(y, w))
                tol = _sector_tol(yw, inv_term, nu * ny)
                worst_cross = max(
                    worst_cross, 2.0 * float(np.dot(u, y)) - yw - inv_term - tol)
                if ny > sector.mu:
                    worst_out = max(worst_out, eps * (nw + ny) - yw - tol)
                elif ny > 0:
                    inside.append((ny, nw, ny**2, nw**2, yw, tol))
    if inside:
        ny, nw, ny2, nw2, yw, tol = np.array(inside).T
        worst_in = np.max(gain(ny) * ny2 + gain(nw) * nw2 - yw - tol)
    passed = max(worst_cross, worst_out, worst_in) <= 0.0
    return ProductBoundsReport(passed, worst_cross, worst_out, worst_in, count)


def iss_lyapunov_check(V, triple, sector, decay, input_gain, box=10.0,
                       n_samples=2000, seed=0):
    """The sampled ISS decrease inequality, tested draw by draw."""
    A, B, C = triple.A, triple.B, triple.C
    rng = np.random.default_rng(seed)
    worst = -math.inf
    worst_at = None
    count = 0
    for _ in range(n_samples):
        z = box * (2 * rng.random(triple.n) - 1)
        u = box * (2 * rng.random(triple.m) - 1)
        y = C @ z
        grad = V.gradient(z)
        dec = float(decay(np.linalg.norm(z)))
        gin = float(input_gain(np.linalg.norm(u)))
        for w in sample_selections(y, sector, rng, n_random=3):
            count += 1
            lhs = float(grad @ (A @ z - B @ (w - u)))
            scale = 1.0 + abs(lhs) + dec + gin
            rel = (lhs + dec - gin) / scale
            if rel > worst:
                worst = rel
                worst_at = {"z": z.tolist(), "u": u.tolist(),
                            "w": np.asarray(w).tolist()}
    return DissipationCheck(worst <= 1e-8, worst, worst_at, count)


def float_bits(x):
    """x with every float, at any depth of lists, tuples, dicts and
    dataclass fields, replaced by its hex form, so == compares bits."""
    if hasattr(x, "__dataclass_fields__"):
        return float_bits({k: getattr(x, k) for k in x.__dataclass_fields__})
    if isinstance(x, dict):
        return {k: float_bits(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [float_bits(v) for v in x]
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    return x
