"""lurelab benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload entrain-sweep --seed 0 --seconds 25 --trace 0

Run from the root of a checkout.  The program is imported from ``src/``
of that checkout.  A run sets up (imports ``lurelab`` and builds and
verifies the presets the workload uses), then repeats rounds of the
workload's operations, one after another on the main thread, until
``--seconds`` are used.  With ``--trace 1`` the first half of the time
runs untraced rounds and the second half traced passes (a traced set-up
plus a traced round); the traced passes give the per-layer metrics.

Every operation's output is checked: against the reference recorded at
the seed commit when the seed is 0, and for invariants that hold for
every seed always.  Every round must also reproduce the first round's
outputs exactly.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# Pin the BLAS/OpenMP pools before numpy loads; the value is recorded.
BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = BLAS_THREADS
os.environ.pop("LURELAB_OUT", None)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import Tracer, wrapped_targets  # noqa: E402
from workloads import (EXPECTED_RED, WORKLOADS, Context,  # noqa: E402
                       build_presets)

HERE = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"
OUT = HERE / "_out"
REFERENCE = HERE / "reference.json"
SETUP_REPEATS = 5
# floats in outputs must match the reference within |a - b| <= RTOL |b| + ATOL;
# verdicts, counts and strings must match exactly
RTOL = 1e-6
ATOL = 1e-9

SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import lurelab, lurelab.cli
for name in sys.argv[2:]:
    lurelab.experiments.preset_by_name(name, verify=True)
print(time.perf_counter() - t0)
"""


def import_lurelab():
    if not (SRC / "lurelab" / "__init__.py").is_file():
        raise SystemExit(f"no lurelab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lurelab
    import lurelab.cli  # noqa: F401
    if Path(lurelab.__file__).resolve().parent != (SRC / "lurelab").resolve():
        raise SystemExit(f"imported lurelab from {lurelab.__file__}, "
                         f"not from {SRC}")
    return lurelab


def environment(seed):
    import numpy
    import scipy
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES":
                             str(Path.cwd().parent)}).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "loadavg_start": list(os.getloadavg()),
        "git_commit": commit or "unknown (not a git checkout)",
        "seed": seed,
    }


def measure_setup(presets):
    """Median over fresh processes of import + build-and-verify presets."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(SRC), *presets],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times), times


# ---------------------------------------------------------------------------
# checks


def compare(ref, got, path="$"):
    """Differences between a reference summary and an output summary."""
    if isinstance(ref, dict) and isinstance(got, dict):
        keys = sorted(k for k in ref if not k.startswith("_"))
        if keys != sorted(k for k in got if not k.startswith("_")):
            return [f"{path}: keys {sorted(got)} != {keys}"]
        return [e for k in keys for e in compare(ref[k], got[k], f"{path}.{k}")]
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{path}: length {len(got)} != {len(ref)}"]
        return [e for i, (a, b) in enumerate(zip(ref, got))
                for e in compare(a, b, f"{path}[{i}]")]
    if type(ref) is float and type(got) is float:
        if abs(got - ref) <= RTOL * abs(ref) + ATOL:
            return []
    elif type(ref) is type(got) and ref == got:
        return []
    return [f"{path}: {got!r} != reference {ref!r}"]


class Ledger:
    """Operations attempted and failed, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def record(self, op, errs):
        self.attempted += 1
        if errs:
            self.failed += 1
            self.errors.extend(f"{op}: {e}" for e in errs[:5])


def run_op(op, ctx, ledger, first, reference):
    """Time one operation, then check its output; returns (wall, cpu, s)."""
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        result = op.call(ctx)
    except Exception:  # an error nobody expected fails the operation
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        ledger.record(op.name, [traceback.format_exc(limit=3)])
        return wall, cpu, None
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    summary = op.summarize(ctx, result)
    errs = op.invariants(ctx, summary)
    if op.name not in first:
        first[op.name] = summary
        if reference is not None:
            if op.name in reference:
                errs = errs + compare(reference[op.name], summary)
            else:
                errs = errs + ["no reference output recorded"]
    elif summary != first[op.name]:
        errs = errs + ["output differs from the first round's"]
    ledger.record(op.name, errs)
    return wall, cpu, summary


def run_rounds(budget, one_round):
    """Call one_round() until the next one would overrun budget seconds."""
    results = []
    t0 = time.perf_counter()
    while True:
        results.append(one_round())
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(results) > budget:
            return results


# ---------------------------------------------------------------------------
# traced passes and per-layer metrics

LAYERS = ("simcore", "apsignals", "sectorcore", "certcore", "comparison",
          "experiments", "cli")
ANALYSIS = {"simcore.incremental_gap", "simcore.fit_exponential",
            "simcore.lyapunov_monotonicity", "simcore.fit_iiss_surrogates",
            "simcore.iiss_bound_check"}
HYPOTHESIS = {"experiments.derive_sector_candidates",
              "sectorcore.verify_sector_hypotheses",
              "sectorcore.derive_alignment_constants"}
CERTIFICATE = {"certcore.lmi_verify", "certcore.detectability_check",
               "certcore.construct_q_certificate", "certcore.certify_p"}


def pass_metrics(all_spans, self_times, lo, hi, summaries):
    """Per-layer numbers of one traced pass, spans all_spans[lo:hi]."""
    spans = all_spans[lo:hi]
    selfs = self_times[lo:hi]

    def busy(group):
        """Time covered by spans of the group (outermost ones only)."""
        total = 0.0
        for s in spans:
            if s.name not in group:
                continue
            p = s.parent
            while p is not None and all_spans[p].name not in group:
                p = all_spans[p].parent
            if p is None:
                total += s.duration
        return total

    def self_of(names):
        return sum(t for s, t in zip(spans, selfs) if s.name in names)

    def counted(key, names=None, field=1):
        return sum(s.counts.get(key, (0, 0))[field] for s in spans
                   if names is None or s.name in names)

    def info(name, key):
        return sum(s.info[key] for s in spans if s.name == name and s.info)

    sim = {"simcore.simulate"}
    substeps = info("simcore.simulate", "substeps")
    simulate_s = busy(sim)
    scan_s, taus = busy({"apsignals.stepanov_period_scan"}), info(
        "apsignals.stepanov_period_scan", "taus")
    product_s, product_n = busy({"sectorcore.check_sector_product_bounds"}), \
        info("sectorcore.check_sector_product_bounds", "samples")
    setup_spans = [s for s in spans if s.op.endswith(":setup")]
    ops = [s for s in spans if s.parent is None]
    wall = sum(s.duration for s in ops)
    library_self = sum(t for s, t in zip(spans, selfs)
                       if s.name.split(".")[0] in LAYERS)
    m = {
        "simcore.simulate_calls": sum(1 for s in spans if s.name in sim),
        "simcore.trajectories": info("simcore.simulate", "trajectories"),
        "simcore.steps": info("simcore.simulate", "steps"),
        "simcore.substeps": substeps,
        "simcore.rhs_evals": counted("nonlinearity", sim),
        "simcore.simulate_s": simulate_s,
        "simcore.us_per_substep": 1e6 * simulate_s / substeps if substeps else 0.0,
        "simcore.analysis_s": busy(ANALYSIS),
        "apsignals.forcing_calls": counted("forcing", field=0),
        "apsignals.forcing_points": counted("forcing"),
        "apsignals.scan_s": scan_s,
        "apsignals.scan_taus": taus,
        "apsignals.us_per_tau": 1e6 * scan_s / taus if taus else 0.0,
        "apsignals.fourier_s": busy({"apsignals.fourier_table"}),
        "apsignals.fourier_coefs": info("apsignals.fourier_table", "coefs"),
        "apsignals.norm_s": busy({"apsignals.stepanov_norm"}),
        "sectorcore.nonlinearity_calls": counted("nonlinearity", field=0),
        "sectorcore.nonlinearity_points": counted("nonlinearity"),
        "sectorcore.setup_nonlinearity_points": sum(
            s.counts.get("nonlinearity", (0, 0))[1] for s in setup_spans),
        "sectorcore.hypothesis_s": busy(HYPOTHESIS),
        "sectorcore.product_bounds_s": product_s,
        "sectorcore.product_samples": product_n,
        "sectorcore.us_per_product_sample":
            1e6 * product_s / product_n if product_n else 0.0,
        "certcore.certificate_s": busy(CERTIFICATE),
        "certcore.iss_construct_s": busy({"certcore.construct_iss_lyapunov"}),
        "certcore.iss_check_s": busy({"certcore.iss_lyapunov_check"}),
        "certcore.iss_check_samples": info("certcore.iss_lyapunov_check",
                                           "samples"),
        "comparison.gain_eval_s": busy({"comparison.gain"}),
        "comparison.gain_points": info("comparison.gain", "points"),
        "comparison.inner_evals": counted("inner", field=0),
        "experiments.preset_build_s": busy({"experiments.preset_by_name"}),
        "experiments.entrainment_self_s":
            self_of({"experiments.run_entrainment"}),
        "experiments.ladder_self_s": self_of({"experiments.run_gain_ladder"}),
        "cli.verify_s": busy({"cli.cmd_verify"}),
        "cli.simulate_s": busy({"cli.cmd_simulate"}),
        "cli.entrain_s": busy({"cli.cmd_entrain"}),
        "cli.analyze_s": busy({"cli.cmd_analyze"}),
        "cli.bytes_written": sum(s.get("_bytes", 0) for s in summaries),
        "cli.files_written": sum(len(s.get("files", [])) for s in summaries),
        "trace.wall_s": wall,
        "trace.accounted_frac": library_self / wall if wall else 0.0,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(t for s, t in zip(spans, selfs)
                                   if s.name.split(".")[0] == layer)
    return m


def count_errors(spans):
    """Exact-count cross-checks on every traced simulate call."""
    errs = []
    for s in spans:
        if s.name != "simcore.simulate" or not s.info:
            continue
        if s.info["substeps"] != s.info["expected_substeps"]:
            errs.append(f"simulate in {s.op}: {s.info['substeps']} sub-steps, "
                        f"steps + jumps = {s.info['expected_substeps']}")
        rhs = s.counts.get("nonlinearity", (0, 0))[1]
        if rhs != 4 * s.info["substeps"]:
            errs.append(f"simulate in {s.op}: {rhs} RHS evaluations for "
                        f"{s.info['substeps']} sub-steps")
    return errs


def traced_phase(lur, workload, ctx_args, budget, ledger, first, reference):
    """Traced passes; returns per-pass metrics, spans and hygiene errors."""
    preset_names, make_ops = WORKLOADS[workload]
    ops = make_ops()
    tracer = Tracer(lur)
    tracer.prepare()
    passes = []
    tracer.install()
    try:
        def one_pass():
            n = len(passes)
            summaries = []
            tracer.op = f"p{n}:setup"
            setup = tracer.open("bench.op")
            try:
                presets = build_presets(lur, preset_names)
            finally:
                tracer.close(setup)
            ctx = Context(lur, presets=presets, tracer=tracer, **ctx_args)
            round_wall = 0.0
            for op in ops:
                tracer.op = f"p{n}:{op.name}"
                span = tracer.open("bench.op")
                try:
                    wall, _, summary = run_op(op, ctx, ledger, first,
                                              reference)
                finally:
                    tracer.close(span)
                round_wall += wall
                summaries.append(summary or {})
            passes.append((len(tracer.spans), round_wall, summaries))
        run_rounds(budget, one_pass)
    finally:
        tracer.remove()
        tracer.op = None
    errors = [f"still wrapped after the traced run: {w}"
              for w in wrapped_targets(lur)]
    errors += tracer.hygiene_errors() + count_errors(tracer.spans)
    self_times = tracer.self_times()
    metrics, start = [], 0
    for end, round_wall, summaries in passes:
        m = pass_metrics(tracer.spans, self_times, start, end, summaries)
        m["trace.round_wall_s"] = round_wall
        metrics.append(m)
        start = end
    for key in (k for k in metrics[0] if unit_of(k) == "count"):
        vals = {m[key] for m in metrics}
        if len(vals) > 1:
            errors.append(f"count {key} differs between traced passes: {vals}")
    return metrics, tracer.spans, errors


# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    lur = import_lurelab()
    env = environment(args.seed)
    preset_names, make_ops = WORKLOADS[args.workload]
    reference = None
    if args.seed == 0:
        reference = json.loads(REFERENCE.read_text())[args.workload]

    setup_s, setup_samples = measure_setup(preset_names)
    OUT.mkdir(exist_ok=True)
    out_root = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    ledger, first, global_errors = Ledger(), {}, []
    try:
        presets = build_presets(lur, preset_names)
        ctx_args = {"seed": args.seed, "out_root": out_root}
        ctx = Context(lur, presets=presets, **ctx_args)
        ops = make_ops()
        global_errors += [f"wrapped before the timed run: {w}"
                          for w in wrapped_targets(lur)]

        def one_round():
            walls, cpus, steps = 0.0, 0.0, 0
            for op in ops:
                wall, cpu, summary = run_op(op, ctx, ledger, first, reference)
                walls, cpus = walls + wall, cpus + cpu
                steps += (summary or {}).get("steps", 0)
            return walls, cpus, steps

        budget = args.seconds / 2 if args.trace else args.seconds
        rounds = run_rounds(budget, one_round)
        wall_s = statistics.median(r[0] for r in rounds)
        cpu_s = statistics.median(r[1] for r in rounds)
        steps = rounds[0][2]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        traced, spans = [], []
        if args.trace:
            traced, spans, errs = traced_phase(
                lur, args.workload, ctx_args, args.seconds - budget, ledger,
                first, reference)
            global_errors += errs
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    env["loadavg_end"] = list(os.getloadavg())

    e2e = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "cpu_s": (cpu_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    shown = dict(e2e)
    shown["steps_per_s"] = (steps / wall_s if steps else math.nan, "1/s")
    shown["ops_failed_frac"] = (ledger.failed / ledger.attempted, "ratio")
    metrics = e2e
    if args.trace:
        layer = {k: statistics.median(m[k] for m in traced) for k in traced[0]}
        layer["simcore.steps_per_s"] = steps / wall_s
        layer["trace.untraced_wall_s"] = wall_s
        layer["trace.overhead_frac"] = layer.pop("trace.round_wall_s") / wall_s - 1
        metrics = {k: (v, unit_of(k)) for k, v in sorted(layer.items())}
        shown = metrics

    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload}: {len(rounds)} untraced rounds, wall "
          f"{[round(r[0], 3) for r in rounds]} s, cpu "
          f"{[round(r[1], 3) for r in rounds]} s"
          + (f"; {len(traced)} traced passes" if args.trace else "")
          + f"; {SETUP_REPEATS} set-ups {[round(x, 4) for x in setup_samples]} s")
    for name, (value, unit) in shown.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    for op, field in ((o, f) for o, f in EXPECTED_RED.items() if o in first):
        print(f"  expected FAIL (known red at the seed commit): {op} {field}")
    for err in ledger.errors + global_errors:
        print(f"  CHECK FAILED: {err}")
    if args.trace:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({
            "env": env, "metrics": {k: v for k, (v, _) in metrics.items()},
            "spans": [s.as_dict() for s in spans]}))
        print(f"  spans written to {path}")
    result = {
        "correct": ledger.failed == 0 and not global_errors,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def unit_of(name):
    if "us_per_" in name:
        return "us"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
