"""Linear-algebra stability certificates.

Hurwitz and detectability tests, verification of the passivity linear
matrix inequality, observer-based Lyapunov matrix construction, and the
composite Lyapunov function whose decrease is checked by sampling.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .comparison import ScalarFunc
from .sectorcore import (SectorData, composed_gain, sample_selections,
                         sector_epsilon)

__all__ = [
    "LinearTriple",
    "CertificateP",
    "DetectabilityWitness",
    "DetectabilityReport",
    "QCertificate",
    "CertificateError",
    "HurwitzResult",
    "LmiVerdict",
    "hurwitz_check",
    "detectability_check",
    "assemble_lmi_block",
    "lmi_verify",
    "certify_p",
    "construct_q_certificate",
    "QuadraticForm",
    "CompositeLyapunov",
    "FiniteDifferenceLyapunov",
    "iss_lyapunov_check",
    "construct_iss_lyapunov",
    "IssEstimate",
    "iss_estimate",
]


_TOL = 1e-9  # eigenvalue tolerance of the Hurwitz, detectability, LMI tests
_BOX = 10.0  # half-width of the sampled dissipation inequalities' boxes
_S_MAX = 1e8  # upper end of the integral h of the composite Lyapunov V


class CertificateError(RuntimeError):
    """A certificate failed its own verification."""


def _readonly(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class LinearTriple:
    """State-space data (A, B, C) of the feedback interconnection."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        A = _readonly(np.atleast_2d(self.A))
        B = _readonly(np.atleast_2d(self.B))
        C = _readonly(np.atleast_2d(self.C))
        n = A.shape[0]
        if A.shape != (n, n):
            raise ValueError("A must be square")
        if B.shape[0] != n:
            raise ValueError("B must have n rows")
        m = B.shape[1]
        if C.shape != (m, n):
            raise ValueError("C must be m x n")
        for name, M in (("A", A), ("B", B), ("C", C)):
            if not np.all(np.isfinite(M)):
                raise ValueError(f"{name} has non-finite entries")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    def as_dict(self):
        return {"A": self.A.tolist(), "B": self.B.tolist(), "C": self.C.tolist()}

    @staticmethod
    def from_dict(d) -> "LinearTriple":
        return LinearTriple(np.array(d["A"]), np.array(d["B"]), np.array(d["C"]))


class HurwitzResult(NamedTuple):
    hurwitz: bool
    abscissa: float


def hurwitz_check(M) -> HurwitzResult:
    """Spectral abscissa test: Hurwitz iff max real part < -1e-9."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix has non-finite entries")
    abscissa = float(np.max(np.linalg.eigvals(M).real))
    return HurwitzResult(abscissa < -_TOL, abscissa)


@dataclass(frozen=True)
class DetectabilityWitness:
    """Output injection H with A - H C Hurwitz."""

    H: np.ndarray
    spectral_abscissa: float

    def __post_init__(self):
        object.__setattr__(self, "H", _readonly(np.atleast_2d(self.H)))
        if not self.spectral_abscissa < 0:
            raise ValueError("witness requires a negative spectral abscissa")


@dataclass(frozen=True)
class DetectabilityReport:
    detectable: bool
    witness: Optional[DetectabilityWitness]
    offending_eigenvalues: tuple


def detectability_check(triple: LinearTriple) -> DetectabilityReport:
    """PBH detectability test with a constructed injection witness.

    Every eigenvalue of A with real part at least -1e-9 must keep
    ``[A - lambda I; C]`` at full column rank.  On success the witness is
    H = B when A - B C is already Hurwitz, otherwise the stabilizing
    gain of a filter Riccati equation with identity weights.
    """
    A, B, C = triple.A, triple.B, triple.C
    n = triple.n
    eigs = np.linalg.eigvals(A)
    offending = []
    for lam in eigs:
        if lam.real < -_TOL:
            continue
        stacked = np.vstack([A - lam * np.eye(n), C.astype(complex)])
        if np.linalg.matrix_rank(stacked) < n:
            if not any(abs(lam - o) < 1e-8 for o in offending):
                offending.append(complex(lam))
    if offending:
        return DetectabilityReport(False, None, tuple(offending))

    candidate = hurwitz_check(A - B @ C)
    if candidate.hurwitz:
        H = np.array(B)
    else:
        import scipy.linalg  # here, so that importing lurelab loads no scipy

        X = scipy.linalg.solve_continuous_are(
            A.T, C.T, np.eye(n), np.eye(triple.m))
        H = X @ C.T
        candidate = hurwitz_check(A - H @ C)
        if not candidate.hurwitz:
            raise CertificateError(
                "Riccati injection failed to stabilize a detectable pair")
    witness = DetectabilityWitness(H, candidate.abscissa)
    return DetectabilityReport(True, witness, ())


# ---------------------------------------------------------------------------
# the passivity LMI


@dataclass(frozen=True)
class CertificateP:
    """Symmetric positive semi-definite solution of the passivity LMI."""

    P: np.ndarray
    strictness: str = "semidefinite"  # or "strict"
    eps: Optional[float] = None
    p_eig_min: float = 0.0
    p_eig_max: float = 0.0
    block_eig_min: float = 0.0
    block_eig_max: float = 0.0

    def __post_init__(self):
        P = np.atleast_2d(np.asarray(self.P, dtype=float))
        scale = np.linalg.norm(P)
        if np.linalg.norm(P - P.T) > 1e-12 * max(scale, 1.0):
            raise ValueError("P is not symmetric to tolerance")
        eigs = np.linalg.eigvalsh((P + P.T) / 2.0)
        if eigs[0] < -1e-10 * max(scale, 1.0):
            raise ValueError("P is not positive semi-definite")
        if self.strictness not in ("semidefinite", "strict"):
            raise ValueError("strictness must be 'semidefinite' or 'strict'")
        if self.strictness == "strict" and not (self.eps and self.eps > 0):
            raise ValueError("strict certificate needs eps > 0")
        object.__setattr__(self, "P", _readonly(P))
        object.__setattr__(self, "p_eig_min", float(eigs[0]))
        object.__setattr__(self, "p_eig_max", float(eigs[-1]))

    def as_dict(self):
        return {
            "P": self.P.tolist(),
            "strictness": self.strictness,
            "eps": self.eps,
            "eigenvalues": {
                "P": [self.p_eig_min, self.p_eig_max],
                "block": [self.block_eig_min, self.block_eig_max],
            },
        }


def assemble_lmi_block(triple: LinearTriple, P: np.ndarray) -> np.ndarray:
    """The (n+m) x (n+m) block [[A'P + PA, PB - C'], [B'P - C, 0]]."""
    A, B, C = triple.A, triple.B, triple.C
    top = np.hstack([A.T @ P + P @ A, P @ B - C.T])
    bottom = np.hstack([B.T @ P - C, np.zeros((triple.m, triple.m))])
    block = np.vstack([top, bottom])
    return (block + block.T) / 2.0


@dataclass(frozen=True)
class LmiVerdict:
    ok: bool
    block_eig_max: float
    block_eig_min: float
    scale: float
    strict_ok: Optional[bool] = None
    details: dict = field(default_factory=dict)

    def __bool__(self):
        return self.ok


def lmi_verify(triple: LinearTriple, certificate) -> LmiVerdict:
    """Check the passivity LMI for a candidate P.

    Accepts a :class:`CertificateP` or a plain symmetric matrix.  The
    semidefinite test is ``lambda_max(block) <= 1e-9 (1 + ||block||)``.
    The strict variant additionally requires A'P + PA + eps I negative
    semidefinite and PB = C' within tolerance.
    """
    if isinstance(certificate, CertificateP):
        cert = certificate
    else:
        cert = CertificateP(np.asarray(certificate, dtype=float))
    P = cert.P
    if P.shape != (triple.n, triple.n):
        raise ValueError("P has wrong dimensions for the triple")
    block = assemble_lmi_block(triple, P)
    eigs = np.linalg.eigvalsh(block)
    scale = 1.0 + float(np.linalg.norm(block))
    ok = bool(eigs[-1] <= _TOL * scale)
    strict_ok = None
    details = {}
    if cert.strictness == "strict":
        eps = float(cert.eps)
        shifted = triple.A.T @ P + P @ triple.A + eps * np.eye(triple.n)
        shifted_max = float(np.linalg.eigvalsh((shifted + shifted.T) / 2)[-1])
        coupling = float(np.linalg.norm(P @ triple.B - triple.C.T))
        strict_ok = (shifted_max <= _TOL * scale) and (coupling <= _TOL * scale)
        details = {"shifted_eig_max": shifted_max, "coupling_residual": coupling}
        ok = ok and strict_ok
    return LmiVerdict(ok, float(eigs[-1]), float(eigs[0]), scale,
                      strict_ok, details)


def certify_p(triple: LinearTriple, P, strictness: str = "semidefinite",
              eps: Optional[float] = None) -> CertificateP:
    """Package P with its eigenvalue report for the given triple."""
    base = CertificateP(np.asarray(P, dtype=float), strictness, eps)
    block = assemble_lmi_block(triple, base.P)
    eigs = np.linalg.eigvalsh(block)
    return CertificateP(base.P, strictness, eps,
                        block_eig_min=float(eigs[0]),
                        block_eig_max=float(eigs[-1]))


# ---------------------------------------------------------------------------
# observer-based Lyapunov matrix


@dataclass(frozen=True)
class QCertificate:
    """Scaled observer Lyapunov matrix with its dissipation constants.

    The scaling guarantees the sampled dissipation inequality
    ``2 <Qz, Az - B(w - u)> <= -delta ||z||^2 + ||z|| (||Cz|| + ||w|| + ||u||)``.
    q1 and q2 bound the quadratic form: q1 ||z||^2 <= <z, Qz> <= q2 ||z||^2.
    """

    Q: np.ndarray
    delta: float
    q1: float
    q2: float
    check_margin: float = -math.inf

    def __post_init__(self):
        Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        vals = np.linalg.eigvalsh((Q + Q.T) / 2.0)
        if vals[0] <= 0:
            raise ValueError("Q must be positive definite")
        if not (self.delta > 0 and self.q1 > 0 and self.q2 > 0):
            raise ValueError("delta, q1, q2 must be positive")
        object.__setattr__(self, "Q", _readonly(Q))

    def quadratic_form(self, z) -> float:
        z = np.asarray(z, dtype=float)
        return float(z @ self.Q @ z)


def _solve_lyapunov(M: np.ndarray) -> np.ndarray:
    """Symmetric Q0 with M' Q0 + Q0 M = -I for a Hurwitz M.

    One dense solve of the n^2 x n^2 Kronecker form of the equation in
    vec(Q0): cheap for the small loops this lab targets (n <= 4 in the
    presets), cubic in n^2 beyond them.
    """
    n = M.shape[0]
    I = np.eye(n)
    # row-major vec: vec(M'X) = kron(M', I) vec X, vec(XM) = kron(I, M') vec X
    Q0 = np.linalg.solve(np.kron(M.T, I) + np.kron(I, M.T),
                         -I.ravel()).reshape(n, n)
    return (Q0 + Q0.T) / 2.0


def construct_q_certificate(
    triple: LinearTriple,
    witness: DetectabilityWitness,
    n_check: int = 10_000,
    seed: int = 0,
) -> QCertificate:
    """Solve the observer Lyapunov equation and scale it for dissipation.

    Solves (A - HC)' Q0 + Q0 (A - HC) = -I (see :func:`_solve_lyapunov`)
    and rescales
    Q = Q0 / (2 ||Q0|| max(||H||, ||B||, 1)) so the cross terms are
    dominated by ||z|| (||Cz|| + ||w|| + ||u||).  The resulting
    inequality is verified on ``n_check`` seeded random draws of (z, u, w)
    in the box of half-width 10.
    """
    A, B, C = triple.A, triple.B, triple.C
    H = np.atleast_2d(witness.H)
    M = A - H @ C
    hur = hurwitz_check(M)
    if not hur.hurwitz:
        raise ValueError("witness matrix A - HC is not Hurwitz")
    Q0 = _solve_lyapunov(M)
    scale = 1.0 / (2.0 * np.linalg.norm(Q0, 2)
                   * max(np.linalg.norm(H, 2), np.linalg.norm(B, 2), 1.0))
    Q = scale * Q0
    decay = -(M.T @ Q + Q @ M)
    delta = float(np.linalg.eigvalsh((decay + decay.T) / 2.0)[0])
    qvals = np.linalg.eigvalsh(Q)
    cert = QCertificate(Q, delta, float(qvals[0]), float(qvals[-1]))

    rng = np.random.default_rng(seed)
    zs = _BOX * (2 * rng.random((n_check, triple.n)) - 1)
    us = _BOX * (2 * rng.random((n_check, triple.m)) - 1)
    ws = _BOX * (2 * rng.random((n_check, triple.m)) - 1)
    lhs = 2.0 * np.einsum("ij,ij->i", zs @ Q, zs @ A.T - (ws - us) @ B.T)
    zn = np.linalg.norm(zs, axis=1)
    rhs = (-delta * zn**2
           + zn * (np.linalg.norm(zs @ C.T, axis=1)
                   + np.linalg.norm(ws, axis=1) + np.linalg.norm(us, axis=1)))
    margin = float(np.max(lhs - rhs))
    if margin > 1e-8 * (1.0 + float(np.max(np.abs(rhs)))):
        raise CertificateError(
            f"sampled dissipation inequality violated by {margin:.3e}")
    return QCertificate(Q, delta, cert.q1, cert.q2, check_margin=margin)


# ---------------------------------------------------------------------------
# Lyapunov functions


class QuadraticForm:
    """V(z) = <z, P z> with its exact gradient."""

    def __init__(self, P):
        self.P = np.atleast_2d(np.asarray(P, dtype=float))

    def value(self, z) -> float:
        z = np.asarray(z, dtype=float)
        return float(z @ self.P @ z)

    def gradient(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        return 2.0 * (self.P @ z)


class FiniteDifferenceLyapunov:
    """Wrap a plain callable with a central finite-difference gradient."""

    def __init__(self, fn: Callable[[np.ndarray], float], step: float = 1e-6):
        self.fn = fn
        self.step = step

    def value(self, z) -> float:
        return float(self.fn(np.asarray(z, dtype=float)))

    def gradient(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        g = np.empty_like(z)
        for i in range(z.size):
            h = self.step * max(1.0, abs(z[i]))
            zp, zm = z.copy(), z.copy()
            zp[i] += h
            zm[i] -= h
            g[i] = (self.fn(zp) - self.fn(zm)) / (2.0 * h)
        return g


def _adaptive_simpson(f, a, b, rel_tol=1e-8, max_depth=30) -> np.ndarray:
    """Adaptive Simpson quadrature with relative tolerance on each of the
    intervals [a[i], b[i]] of two 1-d arrays at once.

    ``f`` maps an array of nodes to an array of values.  Every level of
    the bisection evaluates it once, on the midpoints of all intervals
    still open; an interval whose two halves agree with the whole (or at
    ``max_depth``) closes with its Richardson-corrected value.  A parent
    then adds its two children, left + right, which is the order a
    depth-first recursion adds them in, so each result is the one that
    recursion returns.  A degenerate interval (a == b) gives 0.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    out = np.zeros(a.shape)
    live = a != b
    a, b = a[live], b[live]
    mid = 0.5 * (a + b)
    fa, fm, fb = f(np.concatenate([a, mid, b])).reshape(3, -1)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    tol = 15.0 * rel_tol
    levels = []  # per depth: the corrected values and which intervals closed
    for depth in itertools.count():
        # the left halves of the open intervals, then their right halves
        A, B = np.concatenate([a, mid]), np.concatenate([mid, b])
        FA, FB = np.concatenate([fa, fm]), np.concatenate([fm, fb])
        FM = f(0.5 * (A + B))
        halves = (B - A) / 6.0 * (FA + 4.0 * FM + FB)
        both = halves[:a.size] + halves[a.size:]
        closed = np.abs(both - whole) <= tol * (np.abs(both) + 1e-300)
        if depth >= max_depth:
            closed[:] = True
        levels.append((both + (both - whole) / 15.0, closed))
        if closed.all():
            break
        split = np.concatenate([~closed, ~closed])  # halves kept open
        a, b, fa, fb = A[split], B[split], FA[split], FB[split]
        fm, whole = FM[split], halves[split]
        mid = 0.5 * (a + b)
    value, _ = levels.pop()
    while levels:
        parent, closed = levels.pop()
        half = value.size // 2
        parent[~closed] = value[:half] + value[half:]
        value = parent
    out[live] = value
    return out


class _CachedIntegral:
    """Cumulative integral of a nonnegative kernel on log-spaced breakpoints.

    Integrates in square-root coordinates (s = sigma^2), which removes
    the root singularity the kernel inherits from its sqrt argument and
    keeps the adaptive quadrature shallow.  The kernel must map an array
    of s to an array of values; all 201 breakpoint intervals up to
    s = 1e8 are integrated together, at Simpson tolerance 1e-8.  The
    kinks of a kernel built on a piecewise-linear table cost accuracy:
    against a piece-by-piece reference, the one-mass h is off by 1.4e-7
    to 9.0e-7 relative for s from 1e-3 to 300.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self._g = lambda sig: 2.0 * sig * kernel(sig * sig)
        sigma = np.concatenate(([0.0], np.geomspace(1e-6, math.sqrt(_S_MAX), 201)))
        pieces = _adaptive_simpson(self._g, sigma[:-1], sigma[1:])
        cum = np.cumsum(np.concatenate(([0.0], pieces)))  # in sequence
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
        return float(cum[i]) + float(_adaptive_simpson(
            self._g, bp[i:i + 1], np.array([sig]))[0])


class CompositeLyapunov:
    """V(z) = <z, Pz> + h(<z, Qz>) with an exact analytic gradient.

    h integrates the bounded kernel k, so the gradient is
    ``2 P z + k(<z, Qz>) 2 Q z``.
    """

    def __init__(self, P, Q, kernel, h):
        self.P = np.atleast_2d(np.asarray(P, dtype=float))
        self.Q = np.atleast_2d(np.asarray(Q, dtype=float))
        self.k = kernel
        self.h = h

    def value(self, z) -> float:
        z = np.asarray(z, dtype=float)
        return float(z @ self.P @ z) + self.h(float(z @ self.Q @ z))

    def gradient(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        return 2.0 * (self.P @ z) + self.k(float(z @ self.Q @ z)) * 2.0 * (self.Q @ z)


def construct_iss_lyapunov(
    triple: Optional[LinearTriple],
    p_cert: CertificateP,
    q_cert: QCertificate,
    gain: ScalarFunc,
    eps: float,
) -> CompositeLyapunov:
    """Composite Lyapunov candidate from the two certificates.

    The kernel is ``k(s) = c0 min(1/sqrt(s+1), c1 gain(c2 sqrt(s)))``
    with c0 = min(1, eps/q1), c1 = delta/4 and c2 = delta/(4 q2), and
    ``h`` is its cumulative integral evaluated by cached adaptive
    quadrature.  ``triple`` is not read; it stays first for the callers
    that pass the arguments by position.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if gain.cls != "Kinf":
        raise ValueError("gain must be of class Kinf")
    delta, q1, q2 = q_cert.delta, q_cert.q1, q_cert.q2
    c0 = min(1.0, eps / q1)
    c1 = delta / 4.0
    c2 = delta / (4.0 * q2)

    # tabulate the gain once, in one array call: a composed gain costs a
    # bisection per call
    args = np.concatenate(([0.0], np.geomspace(1e-9, c2 * math.sqrt(_S_MAX) * 1.5,
                                               4096)))
    vals = gain(args)

    def kernel(s, c0=c0, c1=c1, c2=c2, xs=args, ys=vals):
        s = np.asarray(s, dtype=float)
        g = np.interp(c2 * np.sqrt(s), xs, ys)
        k = c0 * np.minimum(1.0 / np.sqrt(s + 1.0), c1 * g)
        return float(k) if k.ndim == 0 else k

    h = _CachedIntegral(kernel)
    return CompositeLyapunov(p_cert.P, q_cert.Q, kernel, h)


@dataclass(frozen=True)
class IssEstimate:
    """V, built on ``gain`` and ``eps``, with the gauges of its decrease
    ``<grad V(z), Az - B(w - u)> <= -decay(||z||) + input_gain(||u||)``."""

    V: CompositeLyapunov
    decay: ScalarFunc
    input_gain: ScalarFunc
    gain: ScalarFunc
    eps: float


def iss_estimate(p_cert: CertificateP, q_cert: QCertificate,
                 sector: SectorData) -> IssEstimate:
    """The ISS estimate of a loop with these certificates and sector.

    V is ``construct_iss_lyapunov`` on ``composed_gain(sector)`` and
    ``sector_epsilon(sector)``.  With k the kernel of V, the decay is
    ``0.5 delta s^2 min(k(q1 s^2), k(q2 s^2))`` and the input gain
    ``k_sup r^2 + 2 alpha^{-1}(2r) r``, where k_sup, the max of k on 800
    log-spaced points of [1e-8, 1e8], is a lower estimate of sup k, not
    a bound.  The bound c0 = min(1, eps/q1) is 1.0 on the presets, to
    sampled 7.5e-3 (one-mass), 7.1e-4 (two-mass) and 5.4e-3 (wec): the
    check passes with it too, at an input gain 130-1 400 times looser.
    """
    gain, eps = composed_gain(sector), sector_epsilon(sector)
    V = construct_iss_lyapunov(None, p_cert, q_cert, gain, eps)
    q, alpha = q_cert, sector.alpha
    k_sup = float(np.max(V.k(np.geomspace(1e-8, 1e8, 800))))
    decay = ScalarFunc(lambda s: 0.5 * q.delta * s * s * np.minimum(
        V.k(q.q1 * s * s), V.k(q.q2 * s * s)), "P")
    input_gain = ScalarFunc(
        lambda r: k_sup * r * r + 2.0 * alpha.inverse(2.0 * r) * r, "P")
    return IssEstimate(V, decay, input_gain, gain, eps)


@dataclass(frozen=True)
class DissipationCheck:
    passed: bool
    worst_violation: float
    at: Optional[dict]
    n_samples: int


def iss_lyapunov_check(
    V,
    triple: LinearTriple,
    sector: SectorData,
    decay: ScalarFunc,
    input_gain: ScalarFunc,
    box: float = _BOX,
    n_samples: int = 2000,
    seed: int = 0,
) -> DissipationCheck:
    """Sampled decrease inequality for an ISS Lyapunov candidate.

    Draws (u, z) in the box and the canonical plus three random
    selections w at y = Cz, and reports the worst value of
    ``<grad V(z), Az - B(w - u)> + decay(||z||) - input_gain(||u||)``
    relative to the local magnitude scale; the check passes when that
    value is at most 1e-8.  V must expose ``gradient``.

    The draws are taken sample by sample, in the seeded order; then the
    decay, the input gain and the inequality are evaluated on all
    selections at once, with the bits of one sample at a time.
    """
    A, B, C = triple.A, triple.B, triple.C
    rng = np.random.default_rng(seed)
    zs, us, sels = [], [], []
    for _ in range(n_samples):
        z = box * (2 * rng.random(triple.n) - 1)
        us.append(box * (2 * rng.random(triple.m) - 1))
        sels.append(sample_selections(C @ z, sector, rng, n_random=3))
        zs.append(z)
    # every inequality at once, on the selections w of each sample i
    Z = np.reshape(zs, (n_samples, triple.n))
    U = np.reshape(us, (n_samples, triple.m))
    W = np.concatenate(sels or [U])
    i = np.repeat(np.arange(n_samples), [len(s) for s in sels])
    grads = np.reshape([V.gradient(z) for z in zs], Z.shape)
    dec = decay(np.sqrt(np.vecdot(Z, Z)))[i]
    gin = input_gain(np.sqrt(np.vecdot(U, U)))[i]
    flow = _matvec(A, Z)[i] - _matvec(B, W - U[i])
    lhs = np.vecdot(grads[i], flow)
    rel = (lhs + dec - gin) / (1.0 + np.abs(lhs) + dec + gin)
    worst, worst_at = -math.inf, None
    if rel.size:
        k = int(np.argmax(rel))
        worst = float(rel[k])
        worst_at = {"z": Z[i[k]].tolist(), "u": U[i[k]].tolist(),
                    "w": W[k].tolist()}
    return DissipationCheck(worst <= 1e-8, worst, worst_at, len(W))


def _matvec(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The rows M @ x of the rows x of X, each with the bits of ``M @ x``."""
    return np.matmul(M, X[:, :, None])[:, :, 0]
