"""Preset assemblies of the worked examples and entrainment protocols.

Each preset bundles a verified closed loop (certificates checked before
any simulation runs), a forcing catalogue, initial conditions, and the
acceptance thresholds used by the entrainment and gain-ladder drivers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from . import apsignals, certcore, simcore
from .apsignals import SignalSpec, make_example_forcings, zero_signal
from .certcore import (CertificateP, DetectabilityWitness, LinearTriple,
                       certify_p, detectability_check, lmi_verify)
# derive_sector_candidates, derive_alignment_constants and
# verify_sector_hypotheses are re-exported: callers look them up here
from .sectorcore import (CompactSetSpec, HypothesisGrid, HypothesisReport,
                         IncrementTable, Nonlinearity, SectorCandidates,
                         SectorData, derive_alignment_constants,
                         derive_sector_candidates, diagonal_compose,
                         nonlinearity_from_spec, power_law_nonlinearity,
                         verify_sector_hypotheses)
from .simcore import GapSeries, LureSystem, Trajectory, fit_exponential, simulate

__all__ = [
    "ExperimentPreset",
    "derive_sector_candidates",
    "EntrainmentResult",
    "PresetError",
    "preset_one_mass",
    "preset_two_mass",
    "preset_wec",
    "preset_by_name",
    "run_entrainment",
    "run_gain_ladder",
    "GainLadderRow",
]


class PresetError(ValueError):
    """Preset verification failed; the report rides on the exception."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class Thresholds:
    gap_final_decile: float = 1e-2
    periodicity_residual: float = 5e-3
    module_tol: float = 1e-6


@dataclass(frozen=True)
class ExperimentPreset:
    """A verified model plus everything needed to run the experiments."""

    name: str
    system: LureSystem
    witness: DetectabilityWitness
    forcings: dict
    initial_conditions: tuple
    gamma: Optional[CompactSetSpec] = None
    candidates: Optional[SectorCandidates] = None
    hypothesis_report: Optional[HypothesisReport] = None
    thresholds: Thresholds = field(default_factory=Thresholds)
    pto: Optional[SignalSpec] = None  # extra additive input (wave-energy)

    @property
    def triple(self) -> LinearTriple:
        return self.system.triple

    @property
    def p_cert(self) -> CertificateP:
        return self.system.p_cert

    @property
    def sector(self) -> SectorData:
        """The fitted sector, of variant F (a verified preset only)."""
        cand = self.candidates
        if cand is None:
            raise ValueError(f"preset {self.name!r} was built without verify")
        return SectorData(cand.theta, cand.alpha, mu=cand.mu, c=cand.c,
                          variant="F")

    def forcing(self, name: str) -> SignalSpec:
        if name not in self.forcings:
            raise ValueError(
                f"unknown forcing {name!r}; have {sorted(self.forcings)}")
        v = self.forcings[name]
        if self.pto is not None:
            return v + self.pto
        return v


# sampling plan of the sector-hypothesis checks of every preset
PRESET_GRID = HypothesisGrid(radius=10.0, n_gamma=15)
# run length and step of an experiment that gives none; ladders run shorter
HORIZON = 100.0
DT = 1e-3
LADDER_HORIZON = 40.0


def _sin_forcing() -> SignalSpec:
    return SignalSpec("sin", lambda ts: np.sin(np.asarray(ts))[:, None], 1,
                      tag="periodic", period=2.0 * math.pi, frequencies=(1.0,))


def _assemble(name, triple, P, f, verify, forcings, ics,
              pto=None) -> ExperimentPreset:
    """Check, certify and bundle one preset; every builder returns here.

    The compact set Gamma is the ball of radius 2 in R^m.  With
    ``verify`` the passivity LMI, detectability of (C, A) and the
    sector hypotheses on ``PRESET_GRID`` are checked in that order, and
    the first failure raises ``PresetError`` with its report attached.
    Without it only the detectability witness is built.  ``f`` may be a
    ``nonlinearity_from_spec`` string, read at the loop's dimension m.
    """
    f = nonlinearity_from_spec(f, triple.m)
    gamma = CompactSetSpec.ball(triple.m, 2.0)
    if verify:
        verdict = lmi_verify(triple, P)
        if not verdict.ok:
            raise PresetError(
                f"{name}: passivity LMI fails (max block eigenvalue "
                f"{verdict.block_eig_max:.3e})", verdict)
    det = detectability_check(triple)
    candidates = report = q_cert = None
    if verify:
        if not det.detectable:
            raise PresetError(
                f"{name}: pair (C, A) not detectable; offending eigenvalues "
                f"{det.offending_eigenvalues}", det)
        table = IncrementTable.on_grid(f, gamma, PRESET_GRID)
        candidates = table.candidates()
        report = table.report(candidates)
        failed = [o.name for o in report.required() if not o.passed]
        if failed:
            raise PresetError(f"{name}: hypothesis checks failed: {failed}",
                              report)
        q_cert = certcore.construct_q_certificate(triple, det.witness)
    system = LureSystem(triple, f, p_cert=certify_p(triple, P), q_cert=q_cert)
    return ExperimentPreset(name, system, det.witness, forcings, ics,
                            gamma=gamma, candidates=candidates,
                            hypothesis_report=report, pto=pto)


def preset_one_mass(
    m: float = 1.0,
    k: float = 1.0,
    f: Union[Nonlinearity, str, None] = None,
    verify: bool = True,
) -> ExperimentPreset:
    """Single mass-spring loop with nonlinear damping on the velocity.

    State (z, dz/dt); the energy matrix diag(k, m) solves the passivity
    LMI with zero residual.  Default damping is the quadratic power law.
    """
    if m <= 0 or k <= 0:
        raise PresetError("mass and spring constant must be positive")
    A = np.array([[0.0, 1.0], [-k / m, 0.0]])
    B = np.array([[0.0], [1.0 / m]])
    C = np.array([[0.0, 1.0]])
    rate = 0.75
    forcings = {
        "zero": zero_signal(1),
        "sin": _sin_forcing(),
        "saw": SignalSpec(
            "saw", lambda ts: apsignals.sawtooth(rate * np.asarray(ts))[:, None],
            1, tag="periodic", period=2.0 * math.pi / rate,
            jump_lattices=((2.0 * math.pi / rate, 0.0),)),
    }
    ics = (np.array([1.0, 0.0]), np.zeros(2))
    return _assemble("one-mass", LinearTriple(A, B, C), np.diag([k, m]),
                     f or power_law_nonlinearity(0.0, 1.0, 1.0), verify,
                     forcings, ics)


# published initial state of the coupled example
TWO_MASS_X0 = np.array([0.25, 0.25, -0.05, -0.025])


def two_mass_matrices():
    """State-space data of the coupled mass-spring loop (n=4, m=2)."""
    m1, m2, k1, k2 = 1.5, 0.75, 0.5, 1.2  # published masses and springs
    A = np.array([
        [0.0, 1.0, 0.0, 0.0],
        [-(k2 + k1) / m1, 0.0, k2 / m1, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [k2 / m2, 0.0, -k2 / m2, 0.0],
    ])
    B = np.array([
        [0.0, 0.0],
        [1.0 / m1, -1.0 / m1],
        [0.0, 0.0],
        [0.0, 1.0 / m2],
    ])
    C = np.array([
        [0.0, 1.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, 1.0],
    ])
    P = np.array([
        [k1 + k2, 0.0, -k2, 0.0],
        [0.0, m1, 0.0, 0.0],
        [-k2, 0.0, k2, 0.0],
        [0.0, 0.0, 0.0, m2],
    ])
    return LinearTriple(A, B, C), P


def preset_two_mass(f: Union[Nonlinearity, str, None] = None,
                    verify: bool = True) -> ExperimentPreset:
    """Coupled two-mass loop with the published data and forcing set.

    Diagonal damping (y |y|, y |y|^{3/2}) on the two relative
    velocities; initial conditions are the published pair against zero;
    forcings are the four benchmark signals.
    """
    triple, P = two_mass_matrices()
    f = f or diagonal_compose([
        power_law_nonlinearity(0.0, 1.0, 1.0),
        power_law_nonlinearity(0.0, 1.0, 1.5),
    ])
    forcings = dict(make_example_forcings())
    forcings["zero"] = zero_signal(2)
    ics = (TWO_MASS_X0.copy(), np.zeros(4))
    return _assemble("two-mass", triple, P, f, verify, forcings, ics)


def default_radiation_pair(nr: int):
    """Passive radiation state space: -I plus a skew coupling band."""
    if nr < 1:
        raise PresetError("radiation order must be >= 1")
    Ar = -np.eye(nr)
    for i in range(nr - 1):
        Ar[i, i + 1] = -2.0
        Ar[i + 1, i] = 2.0
    Br = np.zeros((nr, 1))
    Br[0, 0] = 1.0
    return Ar, Br


def preset_wec(
    nr: int = 2,
    radiation: Optional[tuple] = None,
    f: Union[Nonlinearity, str, None] = None,
    pto: Optional[SignalSpec] = None,
    verify: bool = True,
) -> ExperimentPreset:
    """Heaving point-absorber model with a passive radiation block.

    The radiation pair must satisfy Ar + Ar' <= 0 (checked through the
    passivity LMI with the identity); the full loop then carries the
    block-diagonal energy matrix diag(k, M, I).  The power take-off
    input is exposed as a second additive signal, zero by default.
    The body has mass 1, added mass 0.5 and buoyancy stiffness 1:
    artifact values validated by the same verifiers as the published
    examples.
    """
    Ar, Br = radiation if radiation is not None else default_radiation_pair(nr)
    Ar = np.atleast_2d(np.asarray(Ar, dtype=float))
    Br = np.asarray(Br, dtype=float).reshape(Ar.shape[0], 1)
    nr = Ar.shape[0]
    rad_triple = LinearTriple(Ar, Br, Br.T)
    rad_verdict = lmi_verify(rad_triple, np.eye(nr))
    if not rad_verdict.ok or not certcore.hurwitz_check(Ar).hurwitz:
        raise PresetError(
            "radiation pair rejected: needs Ar Hurwitz with Ar + Ar' <= 0",
            rad_verdict)
    buoyancy, M = 1.0, 1.5  # heave stiffness; mass 1 plus added mass 0.5
    n = 2 + nr
    A = np.zeros((n, n))
    A[0, 1] = 1.0
    A[1, 0] = -buoyancy / M
    A[1, 2:] = -Br[:, 0] / M
    A[2:, 1] = Br[:, 0]
    A[2:, 2:] = Ar
    B = np.zeros((n, 1))
    B[1, 0] = 1.0 / M
    C = np.zeros((1, n))
    C[0, 1] = 1.0
    P = np.diag(np.concatenate([[buoyancy, M], np.ones(nr)]))
    forcings = {"zero": zero_signal(1), "sin": _sin_forcing()}
    ics = (np.concatenate([[0.5, 0.0], np.zeros(nr)]), np.zeros(n))
    return _assemble("wec", LinearTriple(A, B, C), P,
                     f or power_law_nonlinearity(0.0, 1.0, 1.0), verify,
                     forcings, ics, pto=pto)


_PRESETS = {
    "one-mass": preset_one_mass,
    "two-mass": preset_two_mass,
    "wec": preset_wec,
}


def preset_by_name(name: str, **kwargs) -> ExperimentPreset:
    if name not in _PRESETS:
        raise PresetError(f"unknown preset {name!r}; have {sorted(_PRESETS)}")
    return _PRESETS[name](**kwargs)


# ---------------------------------------------------------------------------
# entrainment


@dataclass(frozen=True)
class EntrainmentResult:
    forcing: str
    trajectories: tuple
    gap: GapSeries
    final_decile_sup: float
    converged: bool
    periodicity_residual: Optional[float]
    periodic_ok: Optional[bool]
    fit: Optional[simcore.ExpFit]
    spectrum: Optional[apsignals.SpectrumEstimate]
    module_verdict: Optional[apsignals.ModuleCheckResult]

    def as_dict(self):
        return {
            "forcing": self.forcing,
            "final_decile_sup": self.final_decile_sup,
            "converged": bool(self.converged),
            "periodicity_residual": self.periodicity_residual,
            "periodic_ok": self.periodic_ok,
            "fit": None if self.fit is None else {
                "M": self.fit.M, "gamma": self.fit.gamma,
                "residual": self.fit.residual, "window": list(self.fit.window),
            },
            "module_contained": (None if self.module_verdict is None
                                 else bool(self.module_verdict.contained)),
        }

    @property
    def passed(self) -> bool:
        """Converged, and periodic and module-contained where checked."""
        return all(bool(c) for c in (self.converged, self.periodic_ok,
                                     self.module_verdict) if c is not None)


def _periodicity_residual(traj: Trajectory, period: float,
                          t_lo: float) -> float:
    """sup over the settled window of ||x(t + period) - x(t)||."""
    t = traj.times
    mask = (t >= t_lo) & (t + period <= t[-1] + 1e-12)
    ts = t[mask]
    shifted = np.column_stack([
        np.interp(ts + period, t, traj.states[:, j])
        for j in range(traj.n)
    ])
    return float(np.max(np.linalg.norm(shifted - traj.states[mask], axis=1)))


def _module_lattice(gens):
    """All c1*g1 + c2*g2 with |c1|, |c2| <= 2; g2 = 0 for one generator."""
    gens = np.asarray(gens, dtype=float)
    c = np.arange(-2, 3, dtype=float)
    g2 = gens[1] if len(gens) > 1 else 0.0
    return (c[:, None] * gens[0] + c[None, :] * g2).ravel()


def _off_module_probes(generators):
    """The 4 frequencies in [0.3 min g, 3 max g], on a grid of 400, that
    lie farthest from the integer lattice of the generators."""
    gens = np.asarray(generators, dtype=float)
    lattice = _module_lattice(gens)
    lattice = lattice[lattice > 0]  # duplicates do not move a minimum
    cands = np.linspace(0.3 * gens.min(), 3.0 * gens.max(), 400)
    dists = np.min(np.abs(cands[:, None] - lattice[None, :]), axis=1)
    order = np.argsort(-dists)
    return cands[order[:4]]


def run_entrainment(
    preset: ExperimentPreset,
    forcing_name: str,
    ic_pair: Optional[tuple] = None,
    horizon: Optional[float] = None,
    dt: Optional[float] = None,
) -> EntrainmentResult:
    """Simulate an initial-condition pair and measure convergence.

    Computes the gap curve and its final-decile supremum; the run counts
    as settled after half the horizon.  For periodic forcing, it gives
    the post-settle periodicity residual at the forcing period;
    for almost periodic forcing, a windowed spectrum of the post-settle
    output checked for containment in the forcing frequency module.  The
    exponential fit of the gap is included whenever enough of the curve
    is positive.
    """
    horizon = HORIZON if horizon is None else horizon
    dt = DT if dt is None else dt
    ics = preset.initial_conditions if ic_pair is None else ic_pair
    v = preset.forcing(forcing_name)
    traj_a, traj_b = simulate(preset.system, np.array(ics[:2], dtype=float),
                              v, horizon, dt)
    gap = simcore.incremental_gap(traj_a, traj_b, v, v)
    t_decile = 0.9 * horizon
    final_sup = float(np.max(gap.values[gap.times >= t_decile - 1e-12]))
    converged = final_sup <= preset.thresholds.gap_final_decile
    settle = 0.5 * horizon

    residual = periodic_ok = None
    if v.tag == "periodic" and v.period and 2.0 * v.period < horizon - settle:
        # compare the last two forcing periods: transients have decayed
        # there, so this measures asymptotic periodicity
        t_lo = max(settle, horizon - 2.0 * v.period)
        residual = _periodicity_residual(traj_b, v.period, t_lo)
        residual = max(residual, _periodicity_residual(traj_a, v.period, t_lo))
        periodic_ok = residual <= preset.thresholds.periodicity_residual

    fit = None
    try:
        fit = fit_exponential(gap, window=(0.1 * horizon, horizon))
    except simcore.InsufficientDataError:
        pass

    spectrum = verdict = None
    if v.tag == "ap" and v.frequencies:
        post = ((traj_b.times >= settle - 1e-12)
                & (traj_b.times <= horizon + 1e-12))
        times = traj_b.times[post]
        outputs = traj_b.states[post] @ preset.triple.C.T
        y_sig = apsignals.signal_from_samples(
            times - times[0], outputs, name=f"y[{forcing_name}]")
        gens = np.asarray(v.frequencies, dtype=float)
        probes = sorted({round(float(val), 12) for val in _module_lattice(gens)
                         if val > 1e-9})
        probes += [float(x) for x in _off_module_probes(gens)]
        T_avg = times[-1] - times[0]
        spectrum = apsignals.fourier_table(y_sig, probes, T_avg, window="hann")
        verdict = apsignals.module_containment(
            spectrum, gens, tol=preset.thresholds.module_tol)

    return EntrainmentResult(
        forcing_name, (traj_a, traj_b), gap, final_sup, converged,
        residual, periodic_ok, fit, spectrum, verdict)


@dataclass(frozen=True)
class GainLadderRow:
    R: float
    n_pairs: int
    M: float
    gamma: float
    residual: float
    accepted: bool
    note: str = ""


def run_gain_ladder(
    preset: ExperimentPreset,
    forcing_name: str,
    R_values: Sequence[float],
    n_pairs: int = 3,
    horizon: Optional[float] = None,
    dt: Optional[float] = None,
    seed: int = 0,
) -> list:
    """Fit exponential envelopes per data-radius R.

    For each R, initial-condition pairs are sampled with
    ||x0|| + ||v||_inf <= R and the shared forcing; the row reports the
    worst fitted decay across pairs.  Rows with gamma <= 0 are flagged
    as rejected; R values too small to admit any pair are skipped and
    draw nothing.  Every radius draws its pairs first, from one
    ``default_rng(seed)`` stream in ladder order, and all radii are
    integrated as one batch.  A blow-up cuts its radius to the pairs
    before the failing one, which are fitted while the row is rejected,
    and the batch runs again; a ladder with b blow-ups makes b + 1
    ``simulate`` calls.  Rows are bit-identical to per-radius runs,
    because every batch row is bit-identical to its own K = 1 run.
    """
    horizon = LADDER_HORIZON if horizon is None else horizon
    dt = DT if dt is None else dt
    v = preset.forcing(forcing_name)
    probe = np.linspace(0.0, min(horizon, 50.0), 2048)
    v_sup = float(np.max(np.linalg.norm(v(probe), axis=1)))
    rng = np.random.default_rng(seed)
    n = preset.triple.n
    draws, n_ok = [], []
    for R in R_values:
        budget = R - v_sup
        admits = R > 0 and budget > 0
        xs = []
        for _ in range(2 * n_pairs if admits else 0):
            x = rng.standard_normal(n)
            xs.append(x * (budget * rng.random() / max(np.linalg.norm(x), 1e-12)))
        draws.append(np.reshape(xs, (-1, n)))
        n_ok.append(n_pairs if admits else None)
    # all radii run as one batch; a blow-up cuts its radius to the pairs
    # before the failing one, and the batch runs again
    trajs = ()
    while True:
        starts = np.cumsum([0] + [2 * (k or 0) for k in n_ok])
        if not starts[-1]:
            break
        try:
            trajs = simulate(preset.system, np.concatenate(
                [X[:b - a] for X, a, b in zip(draws, starts, starts[1:])]),
                v, horizon, dt)
            break
        except simcore.BlowUpError as exc:
            i = int(np.searchsorted(starts, exc.row, side="right")) - 1
            n_ok[i] = (exc.row - int(starts[i])) // 2
    rows = []
    for i, R in enumerate(R_values):
        if n_ok[i] is None:
            rows.append(GainLadderRow(float(R), 0, math.nan, math.nan,
                                      math.nan, False,
                                      "skipped: radius does not admit a pair"))
            continue
        block = trajs[starts[i]:starts[i + 1]]
        worst_gamma, worst_m, worst_res = math.inf, 0.0, 0.0
        for ta, tb in zip(block[::2], block[1::2]):
            gap = simcore.incremental_gap(ta, tb, v, v)
            try:
                fit = fit_exponential(gap)
            except simcore.InsufficientDataError:
                continue
            if fit.gamma < worst_gamma:
                worst_gamma, worst_m, worst_res = fit.gamma, fit.M, fit.residual
        if n_ok[i] < n_pairs:
            worst_gamma = -math.inf
        accepted = math.isfinite(worst_gamma) and worst_gamma > 0
        note = "" if accepted else "fit rejected: no positive decay"
        rows.append(GainLadderRow(float(R), n_pairs, worst_m,
                                  worst_gamma, worst_res, accepted, note))
    return rows
