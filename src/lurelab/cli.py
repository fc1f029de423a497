"""Batch command-line front end.

Subcommands: verify | simulate | entrain | analyze | ladder.  Configs
are JSON with a versioned schema and unknown keys rejected; outputs are
CSV/JSON written atomically.  Exit codes: 0 pass, 1 check failure,
2 config error, 3 runtime blow-up.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace
from typing import Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import apsignals, experiments, sectorcore, simcore
from .experiments import ExperimentPreset, PresetError, preset_by_name
from .simcore import BlowUpError

__all__ = ["main", "RunConfig", "ConfigError"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_BLOWUP = 3

CONFIG_VERSION = 1


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """The run settings; each field is a config key and a flag of that
    name, and its annotation is the key's JSON type."""

    preset: Optional[str] = None
    forcing: str = "zero"
    x0: Optional[list[float]] = None
    horizon: Optional[float] = None
    dt: Optional[float] = None
    seed: int = 0
    out: str = "runs"
    nonlinearity: Optional[str] = None
    signal: Optional[str] = None
    scan_periods: bool = False
    fourier: list[Union[str, float]] = field(default_factory=list)
    epsilon: float = 0.2
    R: list[float] = field(default_factory=lambda: [1.0, 2.0, 5.0])
    force: bool = False

    @staticmethod
    def from_dict(raw: dict) -> "RunConfig":
        hints = get_type_hints(RunConfig)
        unknown = sorted(set(raw) - set(hints) - {"version"})
        if unknown:
            raise ConfigError(f"unknown config keys: {unknown}")
        version = raw.get("version", CONFIG_VERSION)
        if not _is_json_type(version, int) or version != CONFIG_VERSION:
            raise ConfigError(f"unsupported config version {version}")
        kwargs = {k: v for k, v in raw.items() if k != "version"}
        for key, val in kwargs.items():
            if not _is_json_type(val, hints[key]):
                want = str(hints[key]).replace("typing.", "")
                raise ConfigError(f"config key {key!r} has value {val!r}, "
                                  f"expected {want}")
        return RunConfig(**kwargs)


def _is_json_type(val, hint) -> bool:
    """Whether a JSON value has the annotated type: an int is a float,
    a boolean is only a bool, and null fits only an Optional key."""
    args = get_args(hint)
    if get_origin(hint) is Union:
        return any(_is_json_type(val, a) for a in args)
    if get_origin(hint) is list:
        return isinstance(val, list) and all(_is_json_type(v, args[0])
                                             for v in val)
    if isinstance(val, bool):
        return hint is bool
    return isinstance(val, (int, float) if hint is float else hint)


def _atomic_write(path: str, data: str) -> None:
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    # mode 0o666 lets the umask apply, as for a plain open(); mkstemp
    # would leave the output at 0600
    tmp = os.path.join(directory,
                       f".{os.path.basename(path)}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: str, payload) -> None:
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _csv_lines(table, label=None) -> list:
    """One CSV line per row of ``table``, each value written as the repr
    of a Python float, after an optional leading ``label``."""
    lead = "" if label is None else f"{label},"
    return [lead + ",".join(map(repr, row))
            for row in np.asarray(table, dtype=float).tolist()]


def _write_csv(path: str, header, lines) -> None:
    _atomic_write(path, "\n".join([",".join(header), *lines]) + "\n")


def _trajectory_table(traj, p_cert):
    header = ["t"] + [f"x{j+1}" for j in range(traj.n)] + ["norm", "V_P"]
    return header, np.column_stack([
        traj.times, *traj.states.T, np.linalg.norm(traj.states, axis=1),
        np.einsum("ij,jk,ik->i", traj.states, p_cert.P, traj.states)])


def _load_config(args) -> RunConfig:
    raw = {}
    if args.config:
        with open(args.config) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"malformed JSON config: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
    cfg = RunConfig.from_dict(raw)
    for key in fields(RunConfig):
        val = getattr(args, key.name, None)
        if val is not None:
            setattr(cfg, key.name, val)
    env_out = os.environ.get("LURELAB_OUT")
    if env_out:
        cfg.out = env_out
    if cfg.dt is not None and cfg.dt <= 0:
        raise ConfigError("dt must be positive")
    if cfg.horizon is not None and cfg.horizon <= 0:
        raise ConfigError("horizon must be positive")
    if cfg.preset is not None and cfg.preset not in experiments._PRESETS:
        raise ConfigError(f"unknown preset {cfg.preset!r}; "
                          f"have {sorted(experiments._PRESETS)}")
    return cfg


def _build_preset(cfg: RunConfig) -> ExperimentPreset:
    kwargs = {"verify": not cfg.force}
    if cfg.nonlinearity:
        kwargs["f"] = cfg.nonlinearity
    return preset_by_name(cfg.preset or "two-mass", **kwargs)


def _out_dir(cfg: RunConfig, *parts) -> str:
    return os.path.join(cfg.out, *parts)


# ---------------------------------------------------------------------------
# commands


def cmd_verify(cfg: RunConfig) -> int:
    name = cfg.preset or "two-mass"
    report = {"preset": name, "checks": {}}
    try:
        preset = _build_preset(replace(cfg, force=False))  # checks run always
    except PresetError as exc:
        payload = getattr(exc, "report", None)
        report["checks"]["preset"] = {"passed": False, "detail": str(exc)}
        if isinstance(payload, sectorcore.HypothesisReport):
            report["checks"]["hypotheses"] = payload.as_dict()
        _write_json(_out_dir(cfg, name, "verify.json"), report)
        print(f"verify {name}: FAIL ({exc})")
        return EXIT_CHECK_FAILED
    from .certcore import lmi_verify
    verdict = lmi_verify(preset.triple, preset.p_cert)
    report["checks"]["lmi"] = {
        "passed": bool(verdict.ok),
        "block_eig_max": verdict.block_eig_max,
    }
    report["checks"]["detectability"] = {
        "passed": True,
        "spectral_abscissa": preset.witness.spectral_abscissa,
    }
    hyp = preset.hypothesis_report
    if hyp is not None:
        report["checks"]["hypotheses"] = hyp.as_dict()
    ok = verdict.ok and (hyp is None or all(o.passed for o in hyp.required()))
    report["passed"] = bool(ok)
    _write_json(_out_dir(cfg, name, "verify.json"), report)
    print(f"verify {name}: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_simulate(cfg: RunConfig) -> int:
    preset = _build_preset(cfg)
    v = preset.forcing(cfg.forcing)
    x0 = np.asarray(cfg.x0, dtype=float) if cfg.x0 is not None \
        else preset.initial_conditions[0]
    horizon = cfg.horizon or preset.horizon
    dt = cfg.dt or preset.dt
    try:
        traj = simcore.simulate(preset.system, x0, v, horizon, dt)
    except BlowUpError as exc:
        _write_json(_out_dir(cfg, preset.name, cfg.forcing, "blowup.json"),
                    {"time": exc.time, "last_state": exc.last_state.tolist()})
        print(f"simulate {preset.name}/{cfg.forcing}: blow-up at t={exc.time:g}")
        return EXIT_BLOWUP
    header, table = _trajectory_table(traj, preset.p_cert)
    path = _out_dir(cfg, preset.name, cfg.forcing, "trajectories.csv")
    _write_csv(path, header, _csv_lines(table))
    print(f"simulate {preset.name}/{cfg.forcing}: wrote {path}")
    return EXIT_OK


def cmd_entrain(cfg: RunConfig) -> int:
    preset = _build_preset(cfg)
    horizon = cfg.horizon or preset.horizon
    dt = cfg.dt or preset.dt
    try:
        result = experiments.run_entrainment(
            preset, cfg.forcing, horizon=horizon, dt=dt)
    except BlowUpError as exc:
        print(f"entrain {preset.name}/{cfg.forcing}: blow-up at t={exc.time:g}")
        return EXIT_BLOWUP
    base = _out_dir(cfg, preset.name, cfg.forcing)
    traj_a, traj_b = result.trajectories
    header, table_a = _trajectory_table(traj_a, preset.p_cert)
    _, table_b = _trajectory_table(traj_b, preset.p_cert)
    _write_csv(os.path.join(base, "trajectories.csv"), ["ic"] + header,
               _csv_lines(table_a, "a") + _csv_lines(table_b, "b"))
    gap = result.gap
    _write_csv(os.path.join(base, "gaps.csv"),
               ["t", "gap", "forcing_l1", "forcing_sup"],
               _csv_lines(np.column_stack([gap.times, gap.values,
                                           gap.forcing_l1, gap.forcing_sup])))
    fits = {} if result.fit is None else {
        "M": result.fit.M, "gamma": result.fit.gamma,
        "residual": result.fit.residual,
    }
    _write_json(os.path.join(base, "fits.json"), fits)
    _write_json(os.path.join(base, "report.json"), result.as_dict())
    print(f"entrain {preset.name}/{cfg.forcing}: "
          f"{'PASS' if result.passed else 'FAIL'} (final-decile gap "
          f"{result.final_decile_sup:.3e})")
    return EXIT_OK if result.passed else EXIT_CHECK_FAILED


_FREQ_TOKENS = {"pi": math.pi, "2pi": 2 * math.pi,
                "sqrt2pi": math.sqrt(2) * math.pi,
                "2sqrt2pi": 2 * math.sqrt(2) * math.pi}


def _parse_frequency(token) -> float:
    token = str(token).strip().lower()
    if token in _FREQ_TOKENS:
        return _FREQ_TOKENS[token]
    return float(token)


def _resolve_signal(cfg: RunConfig) -> apsignals.SignalSpec:
    name = cfg.signal or "v_p"
    catalog = apsignals.make_example_forcings()
    catalog["zero"] = apsignals.zero_signal(2)
    if name in catalog:
        return catalog[name]
    if os.path.exists(name):
        data = np.loadtxt(name, delimiter=",", skiprows=1, ndmin=2)
        try:
            return apsignals.signal_from_samples(data[:, 0], data[:, 1:],
                                                 name=os.path.basename(name))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown signal {name!r}")


def cmd_analyze(cfg: RunConfig) -> int:
    v = _resolve_signal(cfg)
    base = _out_dir(cfg, "analyze", v.name)
    report = {"signal": v.name, "tag": v.tag}
    norm_coarse = apsignals.stepanov_norm(v, 20.0, n_nodes=128)
    norm_fine = apsignals.stepanov_norm(v, 20.0, n_nodes=256)
    report["stepanov_norm"] = {"coarse": norm_coarse, "fine": norm_fine}
    if cfg.scan_periods:
        period = v.period or 2 * math.pi / 0.75
        scan = apsignals.stepanov_period_scan(
            v, cfg.epsilon, (0.2 * period, 5.2 * period),
            scan_range=(0.0, 30.0), density_length=1.5 * period)
        lines = _csv_lines(np.column_stack([scan.taus, scan.distances]))
        _write_csv(os.path.join(base, "period_scan.csv"),
                   ["tau", "distance", "accepted"],
                   [f"{ln},{int(a)}" for ln, a in zip(lines, scan.accepted)])
        report["period_scan"] = {
            "epsilon": scan.epsilon,
            "n_accepted": int(np.count_nonzero(scan.accepted)),
            "max_gap": scan.max_gap if math.isfinite(scan.max_gap) else None,
            "relatively_dense": scan.relatively_dense,
        }
    if cfg.fourier:
        freqs = [_parse_frequency(tok) for tok in cfg.fourier]
        table = apsignals.fourier_table(v, freqs, T=500.0)
        _write_csv(os.path.join(base, "fourier.csv"),
                   ["lambda", "magnitude", "proxy"],
                   _csv_lines(np.column_stack([
                       table.frequencies, table.magnitudes(), table.proxies])))
        report["fourier"] = {
            f"{f:g}": float(mag)
            for f, mag in zip(table.frequencies, table.magnitudes())
        }
    _write_json(os.path.join(base, "report.json"), report)
    print(f"analyze {v.name}: wrote {base}")
    return EXIT_OK


def cmd_ladder(cfg: RunConfig) -> int:
    preset = _build_preset(cfg)
    kwargs = {} if cfg.horizon is None else {"horizon": cfg.horizon}
    rows = experiments.run_gain_ladder(
        preset, cfg.forcing, cfg.R, seed=cfg.seed,
        dt=cfg.dt or preset.dt, **kwargs)
    base = _out_dir(cfg, preset.name, cfg.forcing)
    _write_csv(os.path.join(base, "ladder.csv"),
               ["R", "n_pairs", "M", "gamma", "residual", "accepted"],
               _csv_lines([(r.R, r.n_pairs, r.M, r.gamma, r.residual,
                            r.accepted) for r in rows]))
    _write_json(os.path.join(base, "ladder.json"),
                [{"R": r.R, "M": None if math.isnan(r.M) else r.M,
                  "gamma": None if math.isnan(r.gamma) else r.gamma,
                  "accepted": r.accepted, "note": r.note} for r in rows])
    usable = [r for r in rows if r.n_pairs > 0]
    ok = bool(usable) and all(r.accepted for r in usable)
    for r in rows:
        print(f"ladder R={r.R:g}: "
              + (r.note or f"gamma={r.gamma:.4f} M={r.M:.3f}"))
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# argument parsing


def _floats(text: str) -> list:
    return [float(tok) for tok in text.split(",")]


def _tokens(text: str) -> list:
    return text.split(",")


def _add_common(p):
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--preset", help="preset name (one-mass | two-mass | wec)")
    p.add_argument("--forcing", help="forcing name from the preset catalogue")
    p.add_argument("--x0", type=_floats, help="comma-separated initial state")
    p.add_argument("--horizon", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output directory (LURELAB_OUT overrides)")
    p.add_argument("--nonlinearity", help="override preset nonlinearity")
    p.add_argument("--force", action="store_true", default=None,
                   help="skip preset verification before running "
                        "(verify always checks)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lurelab",
        description="verify, simulate and analyze forced Lur'e loops")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("verify", cmd_verify), ("simulate", cmd_simulate),
                     ("entrain", cmd_entrain), ("ladder", cmd_ladder)):
        p = sub.add_parser(name)
        _add_common(p)
        if name == "ladder":
            p.add_argument("--R", type=_floats, help="comma-separated radii")
        p.set_defaults(fn=fn)
    p = sub.add_parser("analyze")
    _add_common(p)
    p.add_argument("--signal", help="signal name or sampled CSV path")
    p.add_argument("--scan-periods", dest="scan_periods", action="store_true",
                   default=None)
    p.add_argument("--fourier", type=_tokens,
                   help="comma-separated frequencies (2pi, ...)")
    p.add_argument("--epsilon", type=float, help="period-scan tolerance")
    p.set_defaults(fn=cmd_analyze)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(_load_config(args))
    except PresetError as exc:
        print(f"preset rejected: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except BlowUpError as exc:
        print(f"blow-up at t={exc.time:g}", file=sys.stderr)
        return EXIT_BLOWUP
    except (ValueError, FileNotFoundError) as exc:
        # ConfigError, or input the library rejects
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
