"""Spans and counters recorded from outside the program.

The tracer wraps public ``lurelab`` functions at the module attribute each
caller looks them up by (``lurelab.experiments.simulate``, not only
``lurelab.simcore.simulate``), so no source file changes.  Forcing and
nonlinearity evaluations are counted by counting callables installed with
``dataclasses.replace`` on the signals and on the presets' ``f=`` argument.

A span records its name, start, end, parent and operation id.  Spans stay
in memory until the benchmark writes them out at the end of the run.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import time

import numpy as np

WRAPPED_ATTR = "__perfbench_original__"


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "counts", "info")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.counts = {}
        self.info = None

    @property
    def duration(self):
        return self.end - self.start

    def as_dict(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, "counts": self.counts,
                "info": self.info}


# (module, attribute, span name).  One function can sit under several
# attributes because modules import each other's names.
TARGETS = [
    ("simcore", "simulate", "simcore.simulate"),
    ("experiments", "simulate", "simcore.simulate"),
    ("simcore", "incremental_gap", "simcore.incremental_gap"),
    ("simcore", "fit_exponential", "simcore.fit_exponential"),
    ("experiments", "fit_exponential", "simcore.fit_exponential"),
    ("simcore", "lyapunov_monotonicity", "simcore.lyapunov_monotonicity"),
    ("simcore", "fit_iiss_surrogates", "simcore.fit_iiss_surrogates"),
    ("simcore", "iiss_bound_check", "simcore.iiss_bound_check"),
    ("apsignals", "stepanov_period_scan", "apsignals.stepanov_period_scan"),
    ("apsignals", "stepanov_norm", "apsignals.stepanov_norm"),
    ("apsignals", "fourier_table", "apsignals.fourier_table"),
    ("apsignals", "module_containment", "apsignals.module_containment"),
    ("apsignals", "make_example_forcings", "apsignals.make_example_forcings"),
    ("sectorcore", "verify_sector_hypotheses",
     "sectorcore.verify_sector_hypotheses"),
    ("experiments", "verify_sector_hypotheses",
     "sectorcore.verify_sector_hypotheses"),
    ("sectorcore", "derive_alignment_constants",
     "sectorcore.derive_alignment_constants"),
    ("experiments", "derive_alignment_constants",
     "sectorcore.derive_alignment_constants"),
    ("sectorcore", "check_sector_product_bounds",
     "sectorcore.check_sector_product_bounds"),
    ("certcore", "lmi_verify", "certcore.lmi_verify"),
    ("experiments", "lmi_verify", "certcore.lmi_verify"),
    ("experiments", "detectability_check", "certcore.detectability_check"),
    ("certcore", "detectability_check", "certcore.detectability_check"),
    ("certcore", "construct_q_certificate", "certcore.construct_q_certificate"),
    ("experiments", "certify_p", "certcore.certify_p"),
    ("certcore", "construct_iss_lyapunov", "certcore.construct_iss_lyapunov"),
    ("certcore", "iss_lyapunov_check", "certcore.iss_lyapunov_check"),
    ("experiments", "derive_sector_candidates",
     "experiments.derive_sector_candidates"),
    ("experiments", "preset_by_name", "experiments.preset_by_name"),
    ("cli", "preset_by_name", "experiments.preset_by_name"),
    ("experiments", "run_entrainment", "experiments.run_entrainment"),
    ("experiments", "run_gain_ladder", "experiments.run_gain_ladder"),
    ("cli", "main", "cli.main"),
    ("cli", "cmd_verify", "cli.cmd_verify"),
    ("cli", "cmd_simulate", "cli.cmd_simulate"),
    ("cli", "cmd_entrain", "cli.cmd_entrain"),
    ("cli", "cmd_analyze", "cli.cmd_analyze"),
]


def wrapped_targets(lurelab):
    """Targets that currently hold a tracer wrapper instead of the original."""
    return [f"{mod}.{attr}" for mod, attr, _ in TARGETS
            if hasattr(getattr(getattr(lurelab, mod), attr), WRAPPED_ATTR)]


def jumps_crossed(v, n_steps, dt):
    """Declared jumps strictly between grid nodes of an n_steps run.

    Each adds one RK4 sub-step, so sub-steps = steps + jumps crossed.
    """
    bps = v.breakpoints(0.0, n_steps * dt)
    return int(np.count_nonzero(np.abs(bps - dt * np.round(bps / dt)) > 1e-15))


def count_forcing(tracer, fn):
    def counted(ts):
        tracer.count("forcing", len(ts))
        return fn(ts)
    return counted


def count_nonlinearity(tracer, fn, m):
    def counted(t, y):
        tracer.count("nonlinearity", y.size // m)
        return fn(t, y)
    return counted


def count_inner(tracer, fn):
    def counted(s):
        tracer.count("inner", 1)
        return fn(s)
    return counted


class Tracer:
    """Collects spans of wrapped calls; install() and remove() are paired."""

    def __init__(self, lurelab):
        self.lurelab = lurelab
        self.spans = []
        self.stack = []
        self.op = None
        self.paused = False
        self.saved = []
        self._sim_sig = inspect.signature(lurelab.simcore.simulate)
        self._counted_f = {}
        self._counted_forcings = {}
        self._counted_catalog = None

    # -- spans --------------------------------------------------------------

    def open(self, name):
        parent = self.stack[-1] if self.stack else None
        span = Span(name, time.perf_counter(), parent, self.op)
        self.spans.append(span)
        self.stack.append(len(self.spans) - 1)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self.stack.pop()

    def count(self, key, n):
        if self.paused or not self.stack:
            return
        counts = self.spans[self.stack[-1]].counts
        calls, points = counts.get(key, (0, 0))
        counts[key] = (calls + 1, points + n)

    def wrap(self, name, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            span = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if hook is not None:
                out = hook(span, args, kwargs, out)
            return out

        setattr(wrapper, WRAPPED_ATTR, fn)
        return wrapper

    # -- counting substitutes -----------------------------------------------

    def prepare(self, preset_names=("one-mass", "two-mass", "wec")):
        """Build counting nonlinearities and signals before install().

        Built untraced so that their construction (``SignalSpec`` samples
        the signal in ``__post_init__``) adds no spans and no counts.
        """
        lur = self.lurelab
        self.paused = True
        try:
            for name in preset_names:
                preset = lur.experiments.preset_by_name(name, verify=False)
                f = preset.system.f
                self._counted_f[name] = dataclasses.replace(
                    f, fn=count_nonlinearity(self, f.fn, f.m))
                self._counted_forcings[name] = self._count_signals(
                    preset.forcings)
            self._counted_catalog = self._count_signals(
                lur.apsignals.make_example_forcings())
        finally:
            self.paused = False

    def _count_signals(self, signals):
        return {k: dataclasses.replace(v, fn=count_forcing(self, v.fn))
                for k, v in signals.items()}

    def wrap_scalar_func(self, name, func):
        """A copy of a ``ScalarFunc`` whose evaluations are spans."""
        def points(span, args, kwargs, out):
            span.info = {"points": int(np.size(args[0]))}
            return out
        self.paused = True  # __post_init__ samples the function
        try:
            return dataclasses.replace(func, fn=self.wrap(name, func.fn, points))
        finally:
            self.paused = False

    # -- hooks ----------------------------------------------------------------

    def _simulate_hook(self, span, args, kwargs, out):
        bound = self._sim_sig.bind(*args, **kwargs)
        v, dt = bound.arguments["v"], bound.arguments["dt"]
        trajs = list(out) if isinstance(out, (list, tuple)) else [out]
        steps = [len(t.times) - 1 for t in trajs]
        span.info = {
            "trajectories": len(trajs),
            "steps": sum(steps),
            "substeps": sum(int(t.n_substeps) for t in trajs),
            "expected_substeps": sum(n + jumps_crossed(v, n, dt)
                                     for n in steps),
        }
        return out

    def _info_hook(self, key, value):
        def hook(span, args, kwargs, out):
            span.info = {key: value(out)}
            return out
        return hook

    # -- install / remove -----------------------------------------------------

    def install(self):
        if self.saved:
            raise RuntimeError("tracer already installed")
        if self._counted_catalog is None:
            self.prepare()
        lur = self.lurelab
        orig_preset = lur.experiments.preset_by_name
        tracer = self

        def preset_hook(span, args, kwargs, out):
            forcings = tracer._counted_forcings.get(out.name)
            if forcings is None:
                return out
            return dataclasses.replace(out, forcings=forcings)

        hooks = {
            "simcore.simulate": self._simulate_hook,
            "apsignals.stepanov_period_scan":
                self._info_hook("taus", lambda r: int(r.taus.size)),
            "apsignals.fourier_table":
                self._info_hook("coefs", lambda r: 2 * int(r.frequencies.size)),
            "sectorcore.check_sector_product_bounds":
                self._info_hook("samples", lambda r: int(r.n_samples)),
            "certcore.iss_lyapunov_check":
                self._info_hook("samples", lambda r: int(r.n_samples)),
            "experiments.preset_by_name": preset_hook,
        }

        def preset_by_name(name, **kwargs):
            if "f" not in kwargs and name in tracer._counted_f:
                kwargs["f"] = tracer._counted_f[name]
            return orig_preset(name, **kwargs)

        def make_example_forcings():
            return dict(tracer._counted_catalog)

        substitutes = {"experiments.preset_by_name": preset_by_name,
                       "apsignals.make_example_forcings": make_example_forcings}
        for mod, attr, name in TARGETS:
            module = getattr(lur, mod)
            original = getattr(module, attr)
            if hasattr(original, WRAPPED_ATTR):
                raise RuntimeError(f"{mod}.{attr} is already wrapped")
            inner = substitutes.get(name, original)
            wrapper = self.wrap(name, inner, hooks.get(name))
            setattr(wrapper, WRAPPED_ATTR, original)
            self.saved.append((module, attr, original))
            setattr(module, attr, wrapper)

    def remove(self):
        for module, attr, original in reversed(self.saved):
            setattr(module, attr, original)
        self.saved = []

    # -- derived quantities -----------------------------------------------------

    def children(self):
        kids = [[] for _ in self.spans]
        for i, s in enumerate(self.spans):
            if s.parent is not None:
                kids[s.parent].append(i)
        return kids

    def self_times(self):
        kids = self.children()
        return [s.duration - sum(self.spans[k].duration for k in kids[i])
                for i, s in enumerate(self.spans)]

    def hygiene_errors(self):
        """Spans that are open, lie outside their parent, or have self < 0."""
        errors = []
        for i, s in enumerate(self.spans):
            if s.end is None:
                errors.append(f"span {i} {s.name} never closed")
                continue
            if s.parent is not None:
                p = self.spans[s.parent]
                if s.start < p.start or p.end is None or s.end > p.end:
                    errors.append(f"span {i} {s.name} outside parent {p.name}")
                if s.op != p.op:
                    errors.append(f"span {i} {s.name} changes operation id")
        if not errors:
            for i, st in enumerate(self.self_times()):
                if st < -1e-9:  # rounding of perf_counter differences
                    errors.append(f"span {i} {self.spans[i].name} self {st}")
        if self.stack:
            errors.append("spans left open")
        return errors
