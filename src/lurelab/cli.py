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


# the commands that take the flag of a RunConfig field
_PRESET = ("verify", "simulate", "entrain", "ladder")
_RUN = ("simulate", "entrain", "ladder")
COMMANDS = _PRESET + ("analyze",)


def _key(default, commands, help=None):
    meta = {"commands": commands, "help": help}
    if isinstance(default, list):  # a fresh copy for each instance
        return field(default_factory=default.copy, metadata=meta)
    return field(default=default, metadata=meta)


@dataclass
class RunConfig:
    """The run settings.  Each field is a config key, which every command
    accepts, and a flag of that name on the commands in its metadata;
    its annotation is the key's JSON type."""

    preset: Optional[str] = _key(None, _PRESET, "one-mass | two-mass | wec")
    forcing: str = _key("zero", _RUN, "forcing name from the preset catalogue")
    x0: Optional[list[float]] = _key(None, ("simulate",), "initial state")
    horizon: Optional[float] = _key(None, _RUN)
    dt: Optional[float] = _key(None, _RUN)
    seed: int = _key(0, ("ladder",))
    out: str = _key("runs", COMMANDS, "output directory; LURELAB_OUT wins")
    nonlinearity: Optional[str] = _key(None, _PRESET,
                                       "override preset nonlinearity")
    signal: Optional[str] = _key(None, ("analyze",),
                                 "signal name or sampled CSV path")
    scan_periods: bool = _key(False, ("analyze",))
    fourier: list[Union[str, float]] = _key(
        [], ("analyze",), "frequencies: numbers, pi, 2pi, sqrt2pi, 2sqrt2pi")
    epsilon: float = _key(0.2, ("analyze",), "period-scan tolerance")
    R: list[float] = _key([1.0, 2.0, 5.0], ("ladder",), "data radii")
    force: bool = _key(False, _PRESET, "skip preset checks (not in verify)")

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


def _atomic_write(path: str, data) -> None:
    """Write ``data``, a string or an iterable of string chunks, to a
    temporary file beside ``path`` and rename it onto ``path``; if writing
    fails, ``path`` is left as it was and the temporary file is removed."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    # mode 0o666 lets the umask apply, as for a plain open(); mkstemp
    # would leave the output at 0600
    tmp = os.path.join(directory,
                       f".{os.path.basename(path)}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines([data] if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: str, payload) -> None:
    # strict JSON: every non-finite float (NaN, Infinity) becomes null
    strict = json.loads(json.dumps(payload), parse_constant=lambda _: None)
    _atomic_write(path, json.dumps(strict, indent=2, sort_keys=True,
                                   allow_nan=False) + "\n")


def _csv_lines(table, label=None) -> list:
    """One CSV line per row of ``table``, each value written as the repr
    of a Python float, after an optional leading ``label``."""
    lead = "" if label is None else f"{label},"
    return [lead + ",".join(map(repr, row))
            for row in np.asarray(table, dtype=float).tolist()]


# rows formatted at a time: a CSV is written block by block, so the text
# held in memory does not grow with the number of rows
_CSV_ROWS = 256


def _write_csv(path: str, header, *tables) -> None:
    """Write ``header``, then each table ``_CSV_ROWS`` rows at a time.  A
    table is a pair ``(n_rows, lines)``: ``lines(lo, hi)`` gives the CSV
    lines of rows ``lo`` to ``hi - 1``."""
    def chunks():
        yield ",".join(header) + "\n"
        for n_rows, lines in tables:
            for lo in range(0, n_rows, _CSV_ROWS):
                yield "\n".join(lines(lo, min(lo + _CSV_ROWS, n_rows))) + "\n"
    _atomic_write(path, chunks())


def _columns(*columns):
    """The table of equal-length ``columns``, for ``_write_csv``."""
    return len(columns[0]), lambda lo, hi: _csv_lines(
        np.column_stack([c[lo:hi] for c in columns]))


def _trajectory_table(traj, p_cert, label=None):
    """The header and the table t, x, |x|, x'Px of ``traj``, whose rows
    are computed block by block; both reductions work row by row, so a
    block has the bits of the whole run."""
    header = ["t"] + [f"x{j+1}" for j in range(traj.n)] + ["norm", "V_P"]

    def lines(lo, hi):
        x = traj.states[lo:hi]
        return _csv_lines(np.column_stack([
            traj.times[lo:hi], x, np.linalg.norm(x, axis=1),
            np.einsum("ij,jk,ik->i", x, p_cert.P, x)]), label)
    return header, (len(traj.times), lines)


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
    flags = {k: v for k, v in vars(args).items()
             if v is not None and k not in ("command", "config")}
    cfg = RunConfig.from_dict({**raw, **flags})
    cfg.out = os.environ.get("LURELAB_OUT") or cfg.out
    # only the keys this command reads: one config file serves several
    read = {f.name: getattr(cfg, f.name) for f in fields(RunConfig)
            if args.command in f.metadata["commands"]}
    for key in ("horizon", "dt", "epsilon"):
        val = read.get(key)
        if val is not None and not 0 < val < math.inf:
            raise ConfigError(f"{key} must be finite and > 0, got {val!r}")
    for token in read.get("fourier", ()):
        if not math.isfinite(_parse_frequency(token)):
            raise ConfigError(f"fourier frequency must be finite, "
                              f"got {token!r}")
    if read.get("preset") not in (None, *experiments._PRESETS):
        raise ConfigError(f"unknown preset {cfg.preset!r}; "
                          f"have {sorted(experiments._PRESETS)}")
    return cfg


def _build_preset(cfg: RunConfig) -> ExperimentPreset:
    kwargs = {"verify": not cfg.force}
    if cfg.nonlinearity:
        kwargs["f"] = cfg.nonlinearity
    return preset_by_name(cfg.preset or "two-mass", **kwargs)


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
        _write_json(os.path.join(cfg.out, name, "verify.json"), report)
        print(f"verify {name}: FAIL ({exc})")
        return EXIT_CHECK_FAILED
    # the build raises on the first failed check, so every check passed;
    # p_cert holds the LMI block eigenvalues of the P the build checked
    report["checks"]["lmi"] = {
        "passed": True,
        "block_eig_max": preset.p_cert.block_eig_max,
    }
    report["checks"]["detectability"] = {
        "passed": True,
        "spectral_abscissa": preset.witness.spectral_abscissa,
    }
    report["checks"]["hypotheses"] = preset.hypothesis_report.as_dict()
    report["passed"] = True
    _write_json(os.path.join(cfg.out, name, "verify.json"), report)
    print(f"verify {name}: PASS")
    return EXIT_OK


def cmd_simulate(cfg: RunConfig) -> int:
    preset = _build_preset(cfg)
    v = preset.forcing(cfg.forcing)
    x0 = np.asarray(cfg.x0, dtype=float) if cfg.x0 is not None \
        else preset.initial_conditions[0]
    try:
        traj = simcore.simulate(preset.system, x0, v,
                                cfg.horizon or experiments.HORIZON,
                                cfg.dt or experiments.DT)
    except BlowUpError as exc:
        _write_json(os.path.join(cfg.out, preset.name, cfg.forcing,
                                 "blowup.json"),
                    {"time": exc.time, "last_state": exc.last_state.tolist()})
        print(f"simulate {preset.name}/{cfg.forcing}: blow-up at t={exc.time:g}")
        return EXIT_BLOWUP
    header, table = _trajectory_table(traj, preset.p_cert)
    path = os.path.join(cfg.out, preset.name, cfg.forcing, "trajectories.csv")
    _write_csv(path, header, table)
    print(f"simulate {preset.name}/{cfg.forcing}: wrote {path}")
    return EXIT_OK


def cmd_entrain(cfg: RunConfig) -> int:
    preset = _build_preset(cfg)
    try:
        result = experiments.run_entrainment(
            preset, cfg.forcing, horizon=cfg.horizon, dt=cfg.dt)
    except BlowUpError as exc:
        print(f"entrain {preset.name}/{cfg.forcing}: blow-up at t={exc.time:g}")
        return EXIT_BLOWUP
    base = os.path.join(cfg.out, preset.name, cfg.forcing)
    traj_a, traj_b = result.trajectories
    header, table_a = _trajectory_table(traj_a, preset.p_cert, "a")
    _, table_b = _trajectory_table(traj_b, preset.p_cert, "b")
    _write_csv(os.path.join(base, "trajectories.csv"), ["ic"] + header,
               table_a, table_b)
    gap = result.gap
    _write_csv(os.path.join(base, "gaps.csv"),
               ["t", "gap", "forcing_l1", "forcing_sup"],
               _columns(gap.times, gap.values, gap.forcing_l1,
                        gap.forcing_sup))
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
        try:
            data = np.loadtxt(name, delimiter=",", skiprows=1, ndmin=2)
        except OSError as exc:  # a directory, or a file it may not read
            raise ConfigError(f"cannot read signal file {name!r}: {exc}") from exc
        try:
            return apsignals.signal_from_samples(data[:, 0], data[:, 1:],
                                                 name=os.path.basename(name))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown signal {name!r}")


def cmd_analyze(cfg: RunConfig) -> int:
    v = _resolve_signal(cfg)
    base = os.path.join(cfg.out, "analyze", v.name)
    report = {"signal": v.name, "tag": v.tag}
    norm_coarse = apsignals.stepanov_norm(v, 20.0, n_nodes=128)
    norm_fine = apsignals.stepanov_norm(v, 20.0, n_nodes=256)
    report["stepanov_norm"] = {"coarse": norm_coarse, "fine": norm_fine}
    if cfg.scan_periods:
        period = v.period or 2 * math.pi / 0.75
        scan = apsignals.stepanov_period_scan(
            v, cfg.epsilon, (0.2 * period, 5.2 * period),
            scan_range=(0.0, 30.0), density_length=1.5 * period)
        n_rows, lines = _columns(scan.taus, scan.distances)
        _write_csv(os.path.join(base, "period_scan.csv"),
                   ["tau", "distance", "accepted"],
                   (n_rows, lambda lo, hi: [
                       f"{ln},{int(a)}" for ln, a in
                       zip(lines(lo, hi), scan.accepted[lo:hi])]))
        report["period_scan"] = {
            "epsilon": scan.epsilon,
            "n_accepted": int(np.count_nonzero(scan.accepted)),
            "max_gap": scan.max_gap,
            "relatively_dense": scan.relatively_dense,
        }
    if cfg.fourier:
        freqs = [_parse_frequency(tok) for tok in cfg.fourier]
        table = apsignals.fourier_table(v, freqs, T=500.0)
        _write_csv(os.path.join(base, "fourier.csv"),
                   ["lambda", "magnitude", "proxy"],
                   _columns(table.frequencies, table.magnitudes(),
                            table.proxies))
        report["fourier"] = {
            f"{f:g}": float(mag)
            for f, mag in zip(table.frequencies, table.magnitudes())
        }
    _write_json(os.path.join(base, "report.json"), report)
    print(f"analyze {v.name}: wrote {base}")
    return EXIT_OK


def cmd_ladder(cfg: RunConfig) -> int:
    preset = _build_preset(cfg)
    rows = experiments.run_gain_ladder(
        preset, cfg.forcing, cfg.R, seed=cfg.seed, horizon=cfg.horizon,
        dt=cfg.dt)
    base = os.path.join(cfg.out, preset.name, cfg.forcing)
    table = [(r.R, r.n_pairs, r.M, r.gamma, r.residual, r.accepted)
             for r in rows]
    _write_csv(os.path.join(base, "ladder.csv"),
               ["R", "n_pairs", "M", "gamma", "residual", "accepted"],
               (len(table), lambda lo, hi: _csv_lines(table[lo:hi])))
    _write_json(os.path.join(base, "ladder.json"),
                [{"R": r.R, "M": r.M, "gamma": r.gamma,
                  "accepted": r.accepted, "note": r.note} for r in rows])
    usable = [r for r in rows if r.n_pairs > 0]
    ok = bool(usable) and all(r.accepted for r in usable)
    for r in rows:
        print(f"ladder R={r.R:g}: "
              + (r.note or f"gamma={r.gamma:.4f} M={r.M:.3f}"))
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# argument parsing


def _flag_kwargs(hint) -> dict:
    """argparse settings of the flag of a key annotated ``hint``."""
    if hint is bool:
        return {"action": "store_true", "default": None}
    if get_origin(hint) is Union:  # Optional[X]
        hint = get_args(hint)[0]
    if get_origin(hint) is list:  # comma-separated numbers or tokens
        item = float if get_args(hint)[0] is float else str
        return {"type": lambda text: [item(tok) for tok in text.split(",")]}
    return {"type": hint}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lurelab",
        description="verify, simulate and analyze forced Lur'e loops")
    sub = parser.add_subparsers(dest="command", required=True)
    hints = get_type_hints(RunConfig)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        for key in fields(RunConfig):
            if name in key.metadata["commands"]:
                p.add_argument("--" + key.name.replace("_", "-"),
                               dest=key.name, help=key.metadata["help"],
                               **_flag_kwargs(hints[key.name]))
    return parser


def main(argv=None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    if extra:
        print(f"config error: {args.command} does not take "
              f"{extra[0].split('=')[0]}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        # looked up per call, so that a wrapper set on the module is used
        return globals()[f"cmd_{args.command}"](_load_config(args))
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
