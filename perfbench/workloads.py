"""The four benchmark workloads as lists of operations.

An operation calls into ``lurelab`` (the timed part), then summarises
what the program returned (untimed).  Every call goes through a module
attribute, ``lur.experiments.run_entrainment`` and so on, so the tracer's
wrappers see it.  Summaries hold plain JSON values; they are compared
against the reference recorded at the seed commit (default seed) and
checked for invariants that hold for every seed.

Sizes: every integrating workload uses dt = 0.02, not the presets' 1e-3.
At horizon 100 this keeps every verdict of the acceptance gate, the
known-red two-mass ``v_ap`` convergence verdict included (gap 2.03e-2),
and it lets a round of the entrainment sweep finish in about 7 s, so a
run holds several rounds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import Callable

import numpy as np

from tracer import count_inner, jumps_crossed

DT = 0.02
HORIZON = 100.0
LADDER_HORIZON = 20.0
LADDER_R = (1.0, 2.0, 5.0)
ENSEMBLE_SIZE = 12
ENSEMBLE_HORIZON = 5.0
PRODUCT_SAMPLES = 600
ISS_SAMPLES = 150
ALL_PRESETS = ("one-mass", "two-mass", "wec")
SWEEP = (("two-mass", "v_p"), ("two-mass", "v_s"), ("two-mass", "v_ap"),
         ("two-mass", "v_aap"), ("one-mass", "saw"), ("wec", "sin"))
# verdicts that fail at the seed commit by design of the acceptance
# thresholds; recorded as expected, never counted as failed operations
EXPECTED_RED = {"entrain:two-mass:v_ap": "converged"}


@dataclass
class Op:
    name: str
    call: Callable  # (ctx) -> result
    summarize: Callable  # (ctx, result) -> dict
    invariants: Callable = lambda ctx, s: []  # (ctx, summary) -> [error]


class Context:
    """What the operations of one pass share: seed, presets, scratch dir."""

    def __init__(self, lur, seed, presets, out_root, tracer=None):
        self.lur = lur
        self.seed = seed
        self.presets = presets
        self.out_root = out_root
        self.tracer = tracer

    def rng(self, *key):
        return np.random.default_rng([self.seed, *key])


def clean(x):
    """Plain JSON values; non-finite floats become strings."""
    if isinstance(x, dict):
        return {str(k): clean(v) for k, v in x.items()}
    if isinstance(x, (list, tuple, np.ndarray)):
        return [clean(v) for v in x]
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        x = float(x)
        return x if math.isfinite(x) else str(x)
    return x


def build_presets(lur, names):
    return {n: lur.experiments.preset_by_name(n, verify=True) for n in names}


# ---------------------------------------------------------------------------
# entrain-sweep


def _ic_pair(ctx, preset, key):
    """The published pair for the default seed, else a seeded direction."""
    a, b = preset.initial_conditions
    if ctx.seed == 0:
        return a, b
    d = ctx.rng(key).standard_normal(a.size)
    return d * (np.linalg.norm(a) / np.linalg.norm(d)), b


def _entrain_op(index, preset_name, forcing):
    def call(ctx):
        preset = ctx.presets[preset_name]
        return ctx.lur.experiments.run_entrainment(
            preset, forcing, ic_pair=_ic_pair(ctx, preset, index),
            horizon=HORIZON, dt=DT)

    def summarize(ctx, r):
        v = ctx.presets[preset_name].forcing(forcing)
        trajs = r.trajectories
        steps = [len(t.times) - 1 for t in trajs]
        return clean({
            "steps": sum(steps),
            "substeps": [t.n_substeps for t in trajs],
            "_expected_substeps": [n + jumps_crossed(v, n, DT) for n in steps],
            "_steps_each": steps,
            "_gap_ic": float(np.linalg.norm(trajs[0].states[0]
                                            - trajs[1].states[0])),
            "gap0": r.gap.initial(),
            "final_decile_sup": r.final_decile_sup,
            "converged": r.converged,
            "periodicity_residual": r.periodicity_residual,
            "periodic_ok": r.periodic_ok,
            "module_contained": (None if r.module_verdict is None
                                 else bool(r.module_verdict)),
            "has_fit": r.fit is not None,
        })

    def invariants(ctx, s):
        preset = ctx.presets[preset_name]
        v = preset.forcing(forcing)
        thr = preset.thresholds
        errs = []
        if s["substeps"] != s["_expected_substeps"]:
            errs.append(f"substeps {s['substeps']} != steps + jumps "
                        f"{s['_expected_substeps']}")
        if s["_steps_each"] != [round(HORIZON / DT)] * 2:
            errs.append(f"steps {s['_steps_each']}")
        if s["converged"] != (s["final_decile_sup"] <= thr.gap_final_decile):
            errs.append("convergence verdict disagrees with its gap")
        if abs(s["gap0"] - s["_gap_ic"]) > 1e-12:
            errs.append("gap at t=0 is not the initial-condition distance")
        if (s["periodicity_residual"] is None) == (v.tag == "periodic"):
            errs.append("periodicity branch not taken as expected")
        elif s["periodic_ok"] is not None and s["periodic_ok"] != (
                s["periodicity_residual"] <= thr.periodicity_residual):
            errs.append("periodicity verdict disagrees with its residual")
        if (s["module_contained"] is None) == (v.tag == "ap"):
            errs.append("module check not run as expected")
        return errs

    return Op(f"entrain:{preset_name}:{forcing}", call, summarize, invariants)


def entrain_sweep():
    return [_entrain_op(i, p, f) for i, (p, f) in enumerate(SWEEP)]


# ---------------------------------------------------------------------------
# ladder-ensemble


def _ladder_op(forcing):
    def call(ctx):
        return ctx.lur.experiments.run_gain_ladder(
            ctx.presets["two-mass"], forcing, LADDER_R,
            horizon=LADDER_HORIZON, dt=DT, seed=ctx.seed)

    def summarize(ctx, rows):
        n = round(LADDER_HORIZON / DT)
        return clean({
            "steps": sum(2 * r.n_pairs * n for r in rows),
            "rows": [{"R": r.R, "n_pairs": r.n_pairs, "accepted": r.accepted,
                      "gamma": r.gamma, "M": r.M, "residual": r.residual,
                      "note": r.note} for r in rows],
        })

    def invariants(ctx, s):
        errs = []
        for row in s["rows"]:
            if row["n_pairs"] not in (0, 3):
                errs.append(f"R={row['R']}: {row['n_pairs']} pairs")
            if forcing == "zero" and not (
                    row["accepted"] and isinstance(row["gamma"], float)
                    and row["gamma"] > 0):
                errs.append(f"unforced row R={row['R']} not accepted "
                            f"with gamma > 0")
        return errs

    return Op(f"ladder:two-mass:{forcing}", call, summarize, invariants)


def _ensemble_call(ctx):
    simcore = ctx.lur.simcore
    preset = ctx.presets["one-mass"]
    zero = preset.forcing("zero")
    x0s = ctx.rng(99).uniform(-2.0, 2.0, (ENSEMBLE_SIZE, preset.triple.n))
    trajs = [simcore.simulate(preset.system, x0, zero, ENSEMBLE_HORIZON, DT)
             for x0 in x0s]
    mono = [simcore.lyapunov_monotonicity(t, preset.p_cert) for t in trajs]
    gaps = [simcore.incremental_gap(trajs[i], trajs[i + 1], zero, zero)
            for i in range(0, ENSEMBLE_SIZE, 2)]
    surrogate = simcore.fit_iiss_surrogates(gaps)
    return trajs, mono, surrogate, simcore.iiss_bound_check(gaps, surrogate)


def _ensemble_summary(ctx, out):
    trajs, mono, surrogate, verdicts = out
    zero = ctx.presets["one-mass"].forcing("zero")
    steps = [len(t.times) - 1 for t in trajs]
    return clean({
        "steps": sum(steps),
        "substeps": sum(t.n_substeps for t in trajs),
        "_expected_substeps": sum(n + jumps_crossed(zero, n, DT)
                                  for n in steps),
        "monotone": [m.passed for m in mono],
        "surrogate": [surrogate.M, surrogate.gamma, surrogate.gain],
        "bound_passed": [v.passed for v in verdicts],
        "bound_margin": [v.worst_margin for v in verdicts],
    })


def _ensemble_invariants(ctx, s):
    errs = []
    if s["substeps"] != s["_expected_substeps"]:
        errs.append("substeps != steps + jumps")
    if not all(s["monotone"]):
        errs.append("unforced run fails lyapunov_monotonicity")
    if not all(s["bound_passed"]):
        errs.append("fitted iISS bound fails on its own training set")
    if not s["surrogate"][1] > 0:
        errs.append("surrogate decay rate not positive")
    return errs


def ladder_ensemble():
    return [_ladder_op("zero"), _ladder_op("v_p"),
            Op("ensemble:one-mass:zero", _ensemble_call, _ensemble_summary,
               _ensemble_invariants)]


# ---------------------------------------------------------------------------
# analysis-checks


def _one_mass_sector(ctx):
    cand = ctx.presets["one-mass"].candidates
    return ctx.lur.sectorcore.SectorData(cand.theta, cand.alpha, mu=cand.mu,
                                         c=cand.c, variant="F")


def _verify_call(ctx):
    return build_presets(ctx.lur, ALL_PRESETS)


def _verify_summary(ctx, presets):
    return clean({
        name: {
            "abscissa": p.witness.spectral_abscissa,
            "q_delta": p.system.q_cert.delta,
            "mu_c": [p.candidates.mu, p.candidates.c],
            "hypotheses": {o.name: [o.passed, o.worst_margin]
                           for o in p.hypothesis_report.outcomes()},
        } for name, p in presets.items()})


def _verify_invariants(ctx, s):
    required = ("upper_envelope", "monotonicity", "alignment")
    return [f"{name}: {h} fails" for name, p in s.items() for h in required
            if not p["hypotheses"][h][0]]


def _product_call(ctx):
    return ctx.lur.sectorcore.check_sector_product_bounds(
        _one_mass_sector(ctx), n_samples=PRODUCT_SAMPLES, seed=ctx.seed)


def _product_summary(ctx, r):
    return clean({"passed": r.passed, "worst": [r.worst_cross, r.worst_outside,
                                                r.worst_inside],
                  "n_samples": r.n_samples})


def _iss_call(ctx):
    """Composite ISS Lyapunov function on the one-mass fitted sector."""
    lur = ctx.lur
    comparison = lur.comparison
    preset = ctx.presets["one-mass"]
    sector = _one_mass_sector(ctx)
    theta, alpha = sector.theta, sector.alpha

    def inner_fn(s):
        return s + theta(s)
    if ctx.tracer is not None:
        inner_fn = count_inner(ctx.tracer, inner_fn)
    inner = comparison.from_callable(inner_fn, "Kinf")
    weight = comparison.from_callable(
        lambda s: 2.0 * (s**2 + theta(s) ** 2), "Kinf")
    budget = comparison.from_callable(lambda s: s * alpha(s), "Kinf")
    gain = comparison.compose_gain(inner, weight, budget, sector.mu)
    if ctx.tracer is not None:
        gain = ctx.tracer.wrap_scalar_func("comparison.gain", gain)
    q = preset.system.q_cert
    V = lur.certcore.construct_iss_lyapunov(
        preset.triple, preset.p_cert, q, gain,
        lur.sectorcore.sector_epsilon(sector))
    # decay and input gain of the sampled decrease inequality, built from
    # the kernel the same way as in tests/test_certcore.py
    k_sup = max(V.k(s) for s in np.geomspace(1e-8, 1e8, 200))

    def decay_fn(s):
        s = np.atleast_1d(np.asarray(s, float))
        return np.array([0.5 * q.delta * x * x * min(V.k(q.q1 * x * x),
                                                     V.k(q.q2 * x * x))
                         for x in s.ravel()]).reshape(s.shape)

    def input_gain_fn(r):
        r = np.atleast_1d(np.asarray(r, float))
        return np.array([k_sup * x * x + 2.0 * alpha.inverse(2.0 * x) * x
                         for x in r.ravel()]).reshape(r.shape)

    check = lur.certcore.iss_lyapunov_check(
        V, preset.triple, sector, comparison.from_callable(decay_fn, "P"),
        comparison.from_callable(input_gain_fn, "P"),
        n_samples=ISS_SAMPLES, seed=ctx.seed)
    return V, check


_V_PROBES = ((1.0, 0.0), (0.0, 1.0), (3.0, -2.0), (-7.5, 4.0))
V_P_PERIOD = 2.0 * math.pi / 0.75


def _iss_summary(ctx, out):
    V, check = out
    return clean({"V": [V.value(np.array(z)) for z in _V_PROBES],
                  "passed": check.passed, "worst": check.worst_violation,
                  "n_samples": check.n_samples})


def _sampled_invariant(requested):
    def invariants(ctx, s):
        if s["n_samples"] < requested:
            return [f"{s['n_samples']} samples reported, {requested} asked"]
        return []
    return invariants


def _scan_call(ctx):
    aps = ctx.lur.apsignals
    forcings = aps.make_example_forcings()
    v_p, v_s = forcings["v_p"], forcings["v_s"]
    period = V_P_PERIOD
    exact = aps.stepanov_period_scan(v_p, 0.05, (0.5 * period, 5.2 * period),
                                     scan_range=(0.0, 30.0))
    dense = aps.stepanov_period_scan(v_s, 0.2, (1.0, 18.0), tau_step=0.01,
                                     scan_range=(0.0, 30.0),
                                     density_length=1.5 * period)
    return exact, dense


def _scan_summary(ctx, out):
    period = V_P_PERIOD

    def digest(r):
        return {"n_taus": r.taus.size, "n_accepted": int(r.accepted.sum()),
                "max_gap": r.max_gap, "dense": r.relatively_dense,
                "dist_range": [r.distances.min(), r.distances.max()]}
    exact, dense = out
    at_periods = [exact.distances[int(np.argmin(np.abs(exact.taus
                                                       - k * period)))]
                  for k in range(1, 6)]
    return clean({"v_p": digest(exact), "v_s": digest(dense),
                  "_at_periods": at_periods})


def _scan_invariants(ctx, s):
    if max(s["_at_periods"]) > 1e-10:
        return [f"exact periods scan to {max(s['_at_periods']):.3e}, not 0"]
    return []


def _norm_call(ctx):
    aps = ctx.lur.apsignals
    forcings = aps.make_example_forcings()
    return [aps.stepanov_norm(forcings[n], 20.0) for n in ("v_s", "v_aap")]


# generators of each signal's frequency module
GENERATORS = {"v_ap": (2.0 * math.pi, 2.0 * math.sqrt(2.0) * math.pi),
              "v_aap": (0.75, 0.75 * math.sqrt(2.0))}
EXTRA_PROBES = (1.0, 3.0, 5.5, 13.0)  # mostly off both modules


def _fourier_probes(name):
    g1, g2 = GENERATORS[name]
    lattice = {round(c1 * g1 + c2 * g2, 12) for c1 in range(-2, 3)
               for c2 in range(-2, 3)}
    return sorted(f for f in lattice if f > 1e-9) + list(EXTRA_PROBES)


def _fourier_call(ctx):
    aps = ctx.lur.apsignals
    forcings = aps.make_example_forcings()
    out = {}
    for name in GENERATORS:
        table = aps.fourier_table(forcings[name], _fourier_probes(name), 500.0)
        out[name] = (table, aps.module_containment(table, GENERATORS[name]))
    return out


def _fourier_summary(ctx, out):
    return clean({name: {"magnitudes": table.magnitudes(),
                         "significant": table.significant(),
                         "contained": verdict.contained}
                  for name, (table, verdict) in out.items()})


def _fourier_invariants(ctx, s):
    probes = _fourier_probes("v_ap")
    mags = s["v_ap"]["magnitudes"]
    errs = []
    for g in GENERATORS["v_ap"]:
        m = mags[probes.index(round(g, 12))]
        if abs(m - 0.5) > 1e-2:
            errs.append(f"v_ap coefficient at {g:.4f} is {m:.4f}, not 0.5")
    if not s["v_ap"]["contained"]:
        errs.append("v_ap spectrum not in its own frequency module")
    return errs


def analysis_checks():
    return [
        Op("verify:presets", _verify_call, _verify_summary, _verify_invariants),
        Op("sector:product_bounds", _product_call, _product_summary,
           _sampled_invariant(PRODUCT_SAMPLES)),
        Op("certcore:iss_lyapunov", _iss_call, _iss_summary,
           _sampled_invariant(ISS_SAMPLES)),
        Op("apsignals:period_scans", _scan_call, _scan_summary,
           _scan_invariants),
        Op("apsignals:stepanov_norms", _norm_call,
           lambda ctx, norms: clean({"norms": norms})),
        Op("apsignals:fourier_module", _fourier_call, _fourier_summary,
           _fourier_invariants),
    ]


# ---------------------------------------------------------------------------
# cli-batch


N_TRAJ = {"simulate": 1, "entrain": 2}


def _cli_argv(ctx, args):
    if args[0] == "simulate" and ctx.seed != 0:
        x0 = ctx.rng(7).uniform(-0.5, 0.5, 4)
        # "--x0=" form: a value starting with "-" would read as an option
        args = args + ["--x0=" + ",".join(repr(float(x)) for x in x0)]
    return args


def _cli_op(name, args):
    def call(ctx):
        out = tempfile.mkdtemp(dir=ctx.out_root)
        argv = _cli_argv(ctx, args) + ["--out", out]
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = ctx.lur.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
        return out, code, buf.getvalue()

    def summarize(ctx, result):
        out, code, printed = result
        files, n_bytes, reports = [], 0, {}
        for dirpath, _, names in os.walk(out):
            for fname in names:
                path = os.path.join(dirpath, fname)
                rel = os.path.relpath(path, out)
                files.append(rel)
                n_bytes += os.path.getsize(path)
                if fname.endswith(".json"):
                    with open(path) as fh:
                        reports[rel] = json.load(fh)
                else:
                    with open(path) as fh:
                        reports[rel] = {"rows": sum(1 for _ in fh)}
        shutil.rmtree(out)
        traj_rows = [r["rows"] for k, r in reports.items()
                     if k.endswith("trajectories.csv")]
        return clean({
            "exit": code,
            "printed": printed.replace(out, "<out>"),
            "files": sorted(files),
            "reports": {k: _report_digest(v) for k, v in reports.items()},
            # a header line, then n_steps + 1 nodes per trajectory
            "steps": sum(traj_rows) - 1 - N_TRAJ[args[0]] if traj_rows else 0,
            "_bytes": n_bytes,
        })

    def invariants(ctx, s):
        return [] if s["exit"] == 0 else [f"exit code {s['exit']}"]

    return Op(f"cli:{name}", call, summarize, invariants)


def _report_digest(report):
    """The verdicts and headline numbers of one output file."""
    keep = ("rows", "passed", "final_decile_sup", "converged", "periodic_ok",
            "module_contained", "periodicity_residual", "stepanov_norm",
            "period_scan", "fourier")
    return {k: v for k, v in report.items() if k in keep}


def cli_batch():
    sim = ["--horizon", repr(HORIZON), "--dt", repr(DT)]
    ops = [_cli_op(f"verify:{p}", ["verify", "--preset", p])
           for p in ALL_PRESETS]
    ops += [
        _cli_op("simulate:two-mass:v_s",
                ["simulate", "--preset", "two-mass", "--forcing", "v_s"] + sim),
        _cli_op("entrain:two-mass:v_p",
                ["entrain", "--preset", "two-mass", "--forcing", "v_p"] + sim),
        _cli_op("entrain:one-mass:saw",
                ["entrain", "--preset", "one-mass", "--forcing", "saw"] + sim),
        _cli_op("analyze:v_s", ["analyze", "--signal", "v_s",
                                "--scan-periods"]),
        _cli_op("analyze:v_ap", ["analyze", "--signal", "v_ap", "--fourier",
                                 "2pi,2sqrt2pi"]),
    ]
    return ops


WORKLOADS = {
    "entrain-sweep": (ALL_PRESETS, entrain_sweep),
    "ladder-ensemble": (("one-mass", "two-mass"), ladder_ensemble),
    "analysis-checks": (ALL_PRESETS, analysis_checks),
    "cli-batch": (ALL_PRESETS, cli_batch),
}
