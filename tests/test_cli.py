import json
import math
import os

import numpy as np
import pytest

from lurelab.cli import (EXIT_BLOWUP, EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_OK,
                         RunConfig, ConfigError, main)


@pytest.fixture(autouse=True)
def _no_env_out(monkeypatch):
    monkeypatch.delenv("LURELAB_OUT", raising=False)


def run(args):
    return main(args)


class TestConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"presett": "two-mass"})

    def test_type_checks(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"dt": "small"})

    def test_version_gate(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"version": 99})

    def test_roundtrip(self):
        cfg = RunConfig.from_dict({"preset": "one-mass", "dt": 0.01})
        assert cfg.preset == "one-mass" and cfg.dt == 0.01

    @pytest.mark.parametrize("key", ["horizon", "dt", "seed", "epsilon"])
    def test_bool_rejected_for_numbers(self, key):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({key: True})

    def test_verbosity_is_not_a_key(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            RunConfig.from_dict({"verbosity": 1})

    def test_number_keys_take_ints_and_flags_take_only_bools(self):
        cfg = RunConfig.from_dict({"horizon": 10, "R": [1, 2.5],
                                   "force": True, "x0": None})
        assert cfg.horizon == 10 and cfg.R == [1, 2.5] and cfg.force
        assert cfg.x0 is None
        for raw in ({"seed": 1.5}, {"force": 1}, {"scan_periods": "yes"},
                    {"forcing": None}, {"R": 2.0}, {"fourier": None}):
            with pytest.raises(ConfigError, match=repr(next(iter(raw)))):
                RunConfig.from_dict(raw)

    @pytest.mark.parametrize("raw", [{"R": ["1"]}, {"x0": [True, 0]},
                                     {"fourier": [[1.0]]}])
    def test_list_items_checked(self, raw, tmp_path):
        key, = raw
        with pytest.raises(ConfigError, match=repr(key)):
            RunConfig.from_dict(raw)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw))
        command = "analyze" if key == "fourier" else "ladder"
        assert run([command, "--config", str(path),
                    "--out", str(tmp_path)]) == EXIT_CONFIG
        assert not list(tmp_path.rglob("*.csv"))

    def test_flags_are_the_config_fields(self):
        from dataclasses import fields
        from lurelab.cli import build_parser
        sub, = (a for a in build_parser()._actions
                if isinstance(a.choices, dict))
        dests = {a.dest for p in sub.choices.values() for a in p._actions
                 if a.option_strings and a.dest not in ("help", "config")}
        assert dests == {f.name for f in fields(RunConfig)}
        for name, p in sub.choices.items():
            assert all(a.default is None for a in p._actions
                       if a.dest != "help")
            assert ({a.dest for a in p._actions
                     if a.dest not in ("help", "config")}
                    == {f.name for f in fields(RunConfig)
                        if name in f.metadata["commands"]}), name
        assert sum(len(p._actions) - 2 for p in sub.choices.values()) == 33

    def test_config_force_is_honoured(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "force": True, "nonlinearity": "neg-identity",
            "preset": "one-mass", "horizon": 1, "dt": 0.01}))
        args = ["simulate", "--config", str(path), "--out", str(tmp_path)]
        assert run(args) == EXIT_OK
        assert run(args + ["--force"]) == EXIT_OK

    def test_malformed_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = run(["simulate", "--config", str(bad)])
        assert code == EXIT_CONFIG

    def test_nonpositive_dt_exits_2(self, tmp_path):
        code = run(["simulate", "--preset", "one-mass", "--dt", "-0.1",
                    "--force", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["simulate", "entrain", "ladder"])
    @pytest.mark.parametrize("bad", [["--horizon", "inf"],
                                     ["--horizon", "nan"], ["--dt", "nan"]],
                             ids=lambda bad: "".join(bad)[2:])
    def test_non_finite_horizon_or_dt_exits_2(self, command, bad, tmp_path):
        assert run([command, "--preset", "one-mass", "--force", *bad,
                    "--out", str(tmp_path)]) == EXIT_CONFIG
        assert not list(tmp_path.rglob("*"))

    @pytest.mark.parametrize("epsilon", ["nan", "-1", "0"])
    def test_non_positive_or_nan_epsilon_exits_2(self, epsilon, tmp_path):
        # a scan tolerance that accepts no shift is a config error, not a
        # report that finds no almost-period
        assert run(["analyze", "--signal", "v_p", "--scan-periods",
                    "--epsilon", epsilon, "--out", str(tmp_path)]) \
            == EXIT_CONFIG
        assert not list(tmp_path.rglob("*"))

    @pytest.mark.parametrize("source", ["flag", "config-token",
                                        "config-number"])
    @pytest.mark.parametrize("token", ["inf", "-inf", "nan"])
    def test_non_finite_fourier_frequency_exits_2(self, token, source,
                                                  tmp_path):
        # the period scan would otherwise be written before the table fails
        args = ["analyze", "--signal", "v_p", "--scan-periods"]
        if source == "flag":
            args.append(f"--fourier=2pi,{token}")
        else:
            path = tmp_path / "c.json"
            value = token if source == "config-token" else float(token)
            path.write_text(json.dumps({"fourier": ["2pi", value]}))
            args += ["--config", str(path)]
        out = tmp_path / "out"
        assert run(args + ["--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    def test_keys_the_command_ignores_are_not_range_checked(self, tmp_path):
        # one config file serves several commands
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"preset": "one-mass", "horizon": -1,
                                    "epsilon": 0, "fourier": ["inf"]}))
        out = tmp_path / "out"
        assert run(["simulate", "--config", str(path),
                    "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        assert run(["verify", "--config", str(path),
                    "--out", str(out)]) == EXIT_OK
        assert (out / "one-mass" / "verify.json").is_file()

    @pytest.mark.parametrize("args, code, message", [
        (["simulate", "--preset", "one-mass", "--nonlinearity",
          "neg-identity"], EXIT_CHECK_FAILED, "preset rejected: one-mass"),
        (["entrain", "--preset", "one-mass", "--nonlinearity",
          "neg-identity"], EXIT_CHECK_FAILED, "preset rejected: one-mass"),
        (["entrain", "--preset", "one-mass", "--forcing", "saw",
          "--nonlinearity", "neg-identity", "--force", "--horizon", "60",
          "--dt", "0.01"], EXIT_BLOWUP, "one-mass/saw: blow-up at t=40.54"),
        (["analyze", "--signal", "nosuch"], EXIT_CONFIG,
         "config error: unknown signal 'nosuch'"),
        (["simulate", "--config", "list.json"], EXIT_CONFIG,
         "config error: config root must be a JSON object"),
    ], ids=["simulate-rejected", "entrain-rejected", "entrain-blow-up",
            "analyze-signal", "config-root"])
    def test_exit_prints_its_reason_and_writes_nothing(self, args, code,
                                                       message, tmp_path,
                                                       capsys):
        (tmp_path / "list.json").write_text("[1]")
        args = [str(tmp_path / a) if a == "list.json" else a for a in args]
        out = tmp_path / "out"
        assert run(args + ["--out", str(out)]) == code
        printed = capsys.readouterr()
        assert message in printed.out + printed.err
        assert not out.exists()

    def test_non_finite_x0_exits_2_and_writes_nothing(self, tmp_path):
        # not a blow-up at the first step
        assert run(["simulate", "--preset", "one-mass", "--x0", "nan,0",
                    "--force", "--horizon", "1", "--dt", "0.01",
                    "--out", str(tmp_path)]) == EXIT_CONFIG
        assert not list(tmp_path.rglob("*"))

    def test_horizon_off_the_step_grid_exits_2(self, tmp_path):
        code = run(["simulate", "--preset", "one-mass", "--horizon", "1",
                    "--dt", "0.3", "--force", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("args", [
        [command, "--preset", "nope"]
        for command in ("verify", "simulate", "entrain", "analyze", "ladder")
    ] + [
        [command, "--preset", "one-mass", "--forcing", "nope"]
        for command in ("simulate", "entrain", "ladder")
    ], ids=lambda args: f"{args[0]}-{args[-2][2:]}")
    def test_unknown_name_exits_2_and_writes_nothing(self, args, tmp_path):
        assert run(args + ["--out", str(tmp_path)]) == EXIT_CONFIG
        assert not list(tmp_path.rglob("*"))

    @pytest.mark.parametrize("args, flag", [
        (["verify", "--preset", "one-mass", "--forcing", "nope"], "--forcing"),
        (["analyze", "--signal", "v_p", "--horizon", "3"], "--horizon"),
        (["analyze", "--signal", "v_p", "--forcing", "nope", "--x0", "1,2",
          "--horizon", "3"], "--forcing"),
        (["entrain", "--preset", "one-mass", "--x0", "1,0"], "--x0"),
        (["simulate", "--preset", "one-mass", "--seed", "1"], "--seed"),
        (["ladder", "--preset", "one-mass", "--signal", "v_p"], "--signal"),
    ], ids=lambda x: x[0] if isinstance(x, list) else x[2:])
    def test_untaken_flag_exits_2_and_writes_nothing(self, args, flag,
                                                     tmp_path, capsys):
        assert run(args + ["--out", str(tmp_path)]) == EXIT_CONFIG
        assert not list(tmp_path.rglob("*"))
        assert (f"config error: {args[0]} does not take {flag}"
                in capsys.readouterr().err)

    def test_readme_command_lines_parse(self):
        import pathlib
        import shlex
        from lurelab.cli import COMMANDS, build_parser
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("## Command line\n", 1)[1]
        block = block.split("```sh\n", 1)[1].split("```", 1)[0]
        argvs = [shlex.split(line.split("#")[0])[1:]
                 for line in block.splitlines() if line.startswith("lurelab ")]
        assert {argv[0] for argv in argvs} == set(COMMANDS)
        for argv in argvs:
            build_parser().parse_args(argv)  # exits 2 on an untaken flag


def _strict_json(path):
    def reject(token):
        raise ValueError(f"{path.name} holds {token}, which is not JSON")
    return json.loads(path.read_text(), parse_constant=reject)


class TestStrictJson:
    def test_ladder_gamma_of_a_blow_up_is_null(self, tmp_path):
        code = run(["ladder", "--preset", "one-mass",
                    "--nonlinearity", "neg-identity", "--force",
                    "--forcing", "zero", "--R", "2,5", "--horizon", "60",
                    "--dt", "0.01", "--out", str(tmp_path)])
        assert code == EXIT_CHECK_FAILED
        rows = _strict_json(tmp_path / "one-mass" / "zero" / "ladder.json")
        assert [r["gamma"] for r in rows] == [None, None]

    def test_every_non_finite_float_is_null(self, tmp_path):
        from lurelab.cli import _write_json
        path = tmp_path / "x.json"
        _write_json(str(path), {"a": [math.nan, (1.5, -math.inf)],
                                "b": {"c": math.inf, "d": np.float64("nan")},
                                "e": [True, 0, None, "nan"]})
        assert _strict_json(path) == {"a": [None, [1.5, None]],
                                      "b": {"c": None, "d": None},
                                      "e": [True, 0, None, "nan"]}


class TestSimulate:
    def test_initial_state_echoed_in_csv(self, tmp_path):
        code = run(["simulate", "--preset", "one-mass", "--forcing", "zero",
                    "--x0", "1,0", "--horizon", "1", "--dt", "0.001",
                    "--force", "--out", str(tmp_path)])
        assert code == EXIT_OK
        path = tmp_path / "one-mass" / "zero" / "trajectories.csv"
        lines = path.read_text().splitlines()
        assert lines[0].startswith("t,x1,x2,norm")
        first = lines[1].split(",")
        assert float(first[1]) == 1.0 and float(first[2]) == 0.0

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["simulate", "--preset", "one-mass", "--forcing", "saw",
                "--horizon", "2", "--dt", "0.001", "--force",
                "--out", str(tmp_path)]
        assert run(args) == EXIT_OK
        path = tmp_path / "one-mass" / "saw" / "trajectories.csv"
        first = path.read_bytes()
        assert run(args) == EXIT_OK
        assert path.read_bytes() == first

    def test_blow_up_exit_code(self, tmp_path):
        code = run(["simulate", "--preset", "one-mass",
                    "--nonlinearity", "neg-identity", "--x0", "1,0",
                    "--horizon", "60", "--dt", "0.001", "--force",
                    "--out", str(tmp_path)])
        assert code == EXIT_BLOWUP
        blowup = json.loads(
            (tmp_path / "one-mass" / "zero" / "blowup.json").read_text())
        assert blowup["time"] > 0

    def test_env_var_overrides_out(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "env_out"
        monkeypatch.setenv("LURELAB_OUT", str(env_dir))
        code = run(["simulate", "--preset", "one-mass", "--forcing", "zero",
                    "--horizon", "1", "--dt", "0.001", "--force",
                    "--out", str(tmp_path / "flag_out")])
        assert code == EXIT_OK
        assert (env_dir / "one-mass" / "zero" / "trajectories.csv").exists()
        assert not (tmp_path / "flag_out").exists()


class TestVerify:
    def test_two_mass_passes(self, tmp_path):
        code = run(["verify", "--preset", "two-mass", "--out", str(tmp_path)])
        assert code == EXIT_OK
        report = json.loads(
            (tmp_path / "two-mass" / "verify.json").read_text())
        assert report["passed"]
        assert report["checks"]["lmi"]["passed"]

    @pytest.mark.parametrize("name", ["one-mass", "two-mass", "wec"])
    def test_block_eig_max_is_the_lmi_check_of_the_preset(self, name,
                                                           tmp_path):
        from lurelab.certcore import lmi_verify
        from lurelab.experiments import preset_by_name
        assert run(["verify", "--preset", name,
                    "--out", str(tmp_path)]) == EXIT_OK
        report = json.loads((tmp_path / name / "verify.json").read_text())
        preset = preset_by_name(name)
        assert report["checks"]["lmi"] == {
            "passed": True,
            "block_eig_max": lmi_verify(preset.triple,
                                        preset.p_cert).block_eig_max}

    def test_force_does_not_skip_checks(self, tmp_path):
        code = run(["verify", "--preset", "two-mass", "--nonlinearity",
                    "neg-identity", "--force", "--out", str(tmp_path)])
        assert code == EXIT_CHECK_FAILED
        report = json.loads(
            (tmp_path / "two-mass" / "verify.json").read_text())
        hyp = report["checks"]["hypotheses"]
        assert not hyp["monotonicity"]["passed"]
        assert not hyp["alignment"]["passed"]

    def test_sign_violation_located(self, tmp_path):
        code = run(["verify", "--preset", "two-mass",
                    "--nonlinearity", "neg-identity", "--out", str(tmp_path)])
        assert code == EXIT_CHECK_FAILED
        report = json.loads(
            (tmp_path / "two-mass" / "verify.json").read_text())
        hyp = report["checks"]["hypotheses"]
        assert not hyp["monotonicity"]["passed"]
        assert hyp["monotonicity"]["at"] is not None
        assert "y" in hyp["monotonicity"]["at"]


class TestEntrain:
    def test_two_mass_v_p_outputs(self, tmp_path):
        code = run(["entrain", "--preset", "two-mass", "--forcing", "v_p",
                    "--horizon", "40", "--dt", "0.002", "--force",
                    "--out", str(tmp_path)])
        base = tmp_path / "two-mass" / "v_p"
        for name in ("trajectories.csv", "gaps.csv", "fits.json",
                     "report.json"):
            assert (base / name).exists()
        report = json.loads((base / "report.json").read_text())
        assert report["forcing"] == "v_p"
        # horizon 40 is too short for full convergence at the acceptance
        # threshold; gap decay is still recorded
        fits = json.loads((base / "fits.json").read_text())
        assert fits["gamma"] > 0
        assert code in (EXIT_OK, EXIT_CHECK_FAILED)

    def test_trajectory_rows_match_simulate_byte_for_byte(self, tmp_path):
        common = ["--preset", "two-mass", "--forcing", "v_p",
                  "--horizon", "5", "--dt", "0.001", "--force"]
        assert run(["entrain", *common, "--out", str(tmp_path / "e")]) in (
            EXIT_OK, EXIT_CHECK_FAILED)
        assert run(["simulate", *common,
                    "--x0", "0.25,0.25,-0.05,-0.025",
                    "--out", str(tmp_path / "s")]) == EXIT_OK
        sim_lines = (tmp_path / "s" / "two-mass" / "v_p" /
                     "trajectories.csv").read_text().splitlines()
        ent_lines = (tmp_path / "e" / "two-mass" / "v_p" /
                     "trajectories.csv").read_text().splitlines()
        # entrain stores both runs in long format with a leading ic column
        ent_a = [ln.split(",", 1)[1] for ln in ent_lines[1:]
                 if ln.startswith("a,")]
        assert ent_a == sim_lines[1:]


class TestAnalyze:
    def test_v_p_period_scan_report(self, tmp_path):
        code = run(["analyze", "--signal", "v_p", "--scan-periods",
                    "--epsilon", "0.05", "--out", str(tmp_path)])
        assert code == EXIT_OK
        report = json.loads(
            (tmp_path / "analyze" / "v_p" / "report.json").read_text())
        assert report["period_scan"]["n_accepted"] >= 5
        assert (tmp_path / "analyze" / "v_p" / "period_scan.csv").exists()

    def test_fourier_tokens(self, tmp_path):
        code = run(["analyze", "--signal", "v_ap",
                    "--fourier", "2pi,2sqrt2pi,1.0", "--out", str(tmp_path)])
        assert code == EXIT_OK
        report = json.loads(
            (tmp_path / "analyze" / "v_ap" / "report.json").read_text())
        mags = report["fourier"]
        assert mags[f"{2 * np.pi:g}"] == pytest.approx(0.5, abs=1e-2)
        assert mags[f"{2 * np.sqrt(2) * np.pi:g}"] == pytest.approx(
            0.5, abs=1e-2)
        assert mags["1"] <= 1e-2

    def test_number_in_config_fourier_reads_as_its_token(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"signal": "v_p", "fourier": [6.28, 1]}))
        assert run(["analyze", "--config", str(path),
                    "--out", str(tmp_path / "c")]) == EXIT_OK
        assert run(["analyze", "--signal", "v_p", "--fourier", "6.28,1",
                    "--out", str(tmp_path / "f")]) == EXIT_OK
        tail = ("analyze", "v_p", "fourier.csv")
        assert (tmp_path.joinpath("c", *tail).read_bytes()
                == tmp_path.joinpath("f", *tail).read_bytes())

    def test_zero_signal_report(self, tmp_path):
        code = run(["analyze", "--signal", "zero", "--out", str(tmp_path)])
        assert code == EXIT_OK
        report = json.loads(
            (tmp_path / "analyze" / "zero" / "report.json").read_text())
        assert report["stepanov_norm"]["fine"] == 0.0

    def test_sampled_csv_input(self, tmp_path):
        ts = np.linspace(0.0, 30.0, 3001)
        data = np.column_stack([ts, np.sin(2 * np.pi * ts)])
        path = tmp_path / "sig.csv"
        np.savetxt(path, data, delimiter=",", header="t,v", comments="")
        code = run(["analyze", "--signal", str(path), "--out", str(tmp_path)])
        assert code == EXIT_OK

    @pytest.mark.parametrize("rows", [
        "0.0,1.0\n",
        "0.0\n0.1\n0.2\n",
        "0.0,1.0\n0.1,nan\n0.2,0.5\n",
        "0.0,1.0\n0.1,inf\n0.2,0.5\n",
    ], ids=["one-sample", "no-value-column", "nan", "inf"])
    def test_malformed_csv_rejected(self, rows, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,v\n" + rows)
        code = run(["analyze", "--signal", str(path), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert not list(tmp_path.rglob("report.json"))

    def test_nonuniform_csv_rejected(self, tmp_path):
        data = np.array([[0.0, 1.0], [0.1, 0.5], [0.5, 0.2], [0.55, 0.1]])
        path = tmp_path / "bad.csv"
        np.savetxt(path, data, delimiter=",", header="t,v", comments="")
        code = run(["analyze", "--signal", str(path), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG


class TestLadder:
    def test_table_written(self, tmp_path):
        code = run(["ladder", "--preset", "two-mass", "--forcing", "zero",
                    "--R", "0,1", "--horizon", "20", "--dt", "0.002",
                    "--force", "--out", str(tmp_path)])
        assert code == EXIT_OK
        rows = json.loads(
            (tmp_path / "two-mass" / "zero" / "ladder.json").read_text())
        assert rows[0]["note"].startswith("skipped")
        assert rows[1]["accepted"]

    def test_horizon_passed_through(self, tmp_path):
        from lurelab.experiments import preset_two_mass, run_gain_ladder
        code = run(["ladder", "--preset", "two-mass", "--forcing", "zero",
                    "--R", "2", "--horizon", "10", "--dt", "0.02",
                    "--force", "--out", str(tmp_path)])
        assert code == EXIT_OK
        rows = json.loads(
            (tmp_path / "two-mass" / "zero" / "ladder.json").read_text())
        ref, = run_gain_ladder(preset_two_mass(verify=False), "zero", [2.0],
                               horizon=10.0, dt=0.02, seed=0)
        assert rows[0]["gamma"] == ref.gamma and rows[0]["M"] == ref.M


# ---------------------------------------------------------------------------
# CSV bytes against the per-value formatter the CLI used before it wrote
# rows from one float array (kept here as the reference)


def _old_format_row(values):
    return ",".join(repr(float(x)) if isinstance(x, (int, float, np.floating))
                    else str(x) for x in values)


def _old_csv(header, rows):
    return "\n".join([",".join(header)]
                     + [_old_format_row(r) for r in rows]) + "\n"


def _old_trajectory_rows(traj, p_cert=None, ic_label=None):
    cols = [traj.times] + [traj.states[:, j] for j in range(traj.n)]
    cols.append(np.linalg.norm(traj.states, axis=1))
    header = ["t"] + [f"x{j+1}" for j in range(traj.n)] + ["norm"]
    if p_cert is not None:
        cols.append(np.einsum("ij,jk,ik->i", traj.states, p_cert.P,
                              traj.states))
        header.append("V_P")
    rows = list(zip(*cols))
    if ic_label is not None:
        header = ["ic"] + header
        rows = [(ic_label, *r) for r in rows]
    return header, rows


def test_csv_lines_match_old_formatter_on_edge_values():
    from lurelab.cli import _csv_lines
    vals = np.array([-0.0, 0.0, 1e-300, 5e-324, -1e300, 0.1 + 0.2, 1 / 3,
                     np.nan, np.inf, -np.inf, 2.0 ** 53 + 2, 1e16, -7.0])
    cols = [vals, vals[::-1], np.arange(len(vals), dtype=float)]
    for label in (None, "a", "b"):
        rows = list(zip(*cols))
        if label is not None:
            rows = [(label, *r) for r in rows]
        assert (_csv_lines(np.column_stack(cols), label)
                == [_old_format_row(r) for r in rows])
    # ints and bools of a row table are written as floats, as before
    row = (2, 7, float("nan"), 0.25, -0.0, True)
    assert _csv_lines([row]) == [_old_format_row((2, 7, float("nan"), 0.25,
                                                  -0.0, int(True)))]


class TestCsvBytes:
    """Each CSV the CLI writes equals, byte for byte, the old formatter's
    output on the same results, captured from the library calls."""

    @pytest.fixture
    def captured(self, monkeypatch):
        from lurelab import apsignals, cli, experiments, simcore
        seen = {}

        def capture(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                seen[name] = out = fn(*args, **kwargs)
                return out
            monkeypatch.setattr(module, name, wrapper)

        capture(cli, "_build_preset")
        capture(simcore, "simulate")
        capture(experiments, "run_entrainment")
        capture(experiments, "run_gain_ladder")
        capture(apsignals, "stepanov_period_scan")
        capture(apsignals, "fourier_table")
        return seen

    def test_simulate_and_entrain(self, tmp_path, captured):
        common = ["--preset", "two-mass", "--forcing", "v_s",
                  "--horizon", "4", "--dt", "0.01", "--force"]
        assert run(["simulate", *common, "--x0", "0.3,-0.2,0.1,-0.0",
                    "--out", str(tmp_path)]) == EXIT_OK
        p_cert = captured["_build_preset"].p_cert
        base = tmp_path / "two-mass" / "v_s"
        assert (base / "trajectories.csv").read_bytes() == _old_csv(
            *_old_trajectory_rows(captured["simulate"], p_cert)).encode()
        assert run(["entrain", *common, "--out", str(tmp_path)]) in (
            EXIT_OK, EXIT_CHECK_FAILED)
        result = captured["run_entrainment"]
        traj_a, traj_b = result.trajectories
        header, rows = _old_trajectory_rows(traj_a, p_cert, ic_label="a")
        _, rows_b = _old_trajectory_rows(traj_b, p_cert, ic_label="b")
        assert (base / "trajectories.csv").read_bytes() == _old_csv(
            header, rows + rows_b).encode()
        gap = result.gap
        assert (base / "gaps.csv").read_bytes() == _old_csv(
            ["t", "gap", "forcing_l1", "forcing_sup"],
            zip(gap.times, gap.values, gap.forcing_l1,
                gap.forcing_sup)).encode()

    def test_analyze(self, tmp_path, captured):
        assert run(["analyze", "--signal", "v_p", "--scan-periods",
                    "--fourier", "2pi,1.0", "--out", str(tmp_path)]) == EXIT_OK
        scan, table = captured["stepanov_period_scan"], captured["fourier_table"]
        base = tmp_path / "analyze" / "v_p"
        assert (base / "period_scan.csv").read_bytes() == _old_csv(
            ["tau", "distance", "accepted"],
            zip(scan.taus, scan.distances, scan.accepted.astype(int))).encode()
        assert scan.accepted.any()
        assert (base / "fourier.csv").read_bytes() == _old_csv(
            ["lambda", "magnitude", "proxy"],
            zip(table.frequencies, table.magnitudes(), table.proxies)).encode()

    def test_ladder(self, tmp_path, captured):
        assert run(["ladder", "--preset", "two-mass", "--forcing", "zero",
                    "--R", "0,2", "--horizon", "10", "--dt", "0.02",
                    "--force", "--out", str(tmp_path)]) == EXIT_OK
        rows = captured["run_gain_ladder"]
        assert (tmp_path / "two-mass" / "zero" / "ladder.csv").read_bytes() \
            == _old_csv(["R", "n_pairs", "M", "gamma", "residual", "accepted"],
                        [(r.R, r.n_pairs, r.M, r.gamma, r.residual,
                          int(r.accepted)) for r in rows]).encode()


class TestCsvBlockEdges(TestCsvBytes):
    """The same bytes when the CSVs are formatted one or seven rows at a
    time.  At seven, most tables end in a partial block, and entrain's
    401 ``a`` rows leave its ``b`` rows starting mid-block in the file."""

    @pytest.fixture(autouse=True, params=[1, 7])
    def rows_per_block(self, request, monkeypatch):
        from lurelab import cli
        monkeypatch.setattr(cli, "_CSV_ROWS", request.param)


@pytest.mark.parametrize("extra", [0, 1], ids=["full-block", "one-row-more"])
def test_tables_of_one_block_and_one_row_more(extra, tmp_path, monkeypatch):
    # 7 + extra rows in every table, formatted 7 rows at a time
    from lurelab import apsignals, cli, experiments, simcore
    monkeypatch.setattr(cli, "_CSV_ROWS", 7)
    horizon, dt = 0.6 + 0.1 * extra, 0.1
    preset = experiments.preset_by_name("two-mass", verify=False)
    x0 = np.array([0.3, -0.2, 0.1, -0.0])
    common = ["--preset", "two-mass", "--forcing", "v_s", "--force",
              "--horizon", str(horizon), "--dt", str(dt),
              "--out", str(tmp_path)]
    base = tmp_path / "two-mass" / "v_s"

    assert run(["simulate", *common, "--x0", "0.3,-0.2,0.1,-0.0"]) == EXIT_OK
    traj = simcore.simulate(preset.system, x0, preset.forcing("v_s"),
                            horizon, dt)
    assert len(traj.times) == 7 + extra
    assert (base / "trajectories.csv").read_bytes() == _old_csv(
        *_old_trajectory_rows(traj, preset.p_cert)).encode()

    assert run(["entrain", *common]) in (EXIT_OK, EXIT_CHECK_FAILED)
    result = experiments.run_entrainment(preset, "v_s", horizon=horizon,
                                         dt=dt)
    traj_a, traj_b = result.trajectories
    header, rows = _old_trajectory_rows(traj_a, preset.p_cert, ic_label="a")
    _, rows_b = _old_trajectory_rows(traj_b, preset.p_cert, ic_label="b")
    assert (base / "trajectories.csv").read_bytes() == _old_csv(
        header, rows + rows_b).encode()
    gap = result.gap
    assert len(gap.times) == 7 + extra
    assert (base / "gaps.csv").read_bytes() == _old_csv(
        ["t", "gap", "forcing_l1", "forcing_sup"],
        zip(gap.times, gap.values, gap.forcing_l1, gap.forcing_sup)).encode()

    freqs = [0.5 * (k + 1) for k in range(7 + extra)]
    assert run(["analyze", "--signal", "v_p",
                "--fourier", ",".join(map(str, freqs)),
                "--out", str(tmp_path)]) == EXIT_OK
    table = apsignals.fourier_table(apsignals.make_example_forcings()["v_p"],
                                    freqs, T=500.0)
    assert (tmp_path / "analyze" / "v_p" / "fourier.csv").read_bytes() \
        == _old_csv(["lambda", "magnitude", "proxy"],
                    zip(table.frequencies, table.magnitudes(),
                        table.proxies)).encode()


def test_failed_chunk_leaves_the_target_and_no_temp_file(tmp_path):
    from lurelab.cli import _atomic_write

    def chunks():
        yield "t,x1\n"
        raise RuntimeError("formatting failed")

    old = tmp_path / "trajectories.csv"
    old.write_bytes(b"t,x1\n0.0,1.0\n")
    for target in (old, tmp_path / "gaps.csv"):
        with pytest.raises(RuntimeError, match="formatting failed"):
            _atomic_write(str(target), chunks())
    assert old.read_bytes() == b"t,x1\n0.0,1.0\n"
    assert os.listdir(tmp_path) == ["trajectories.csv"]


def test_entrain_output_memory_does_not_grow_with_the_rows(tmp_path):
    # 2 x 20 001 rows; writing the whole text at once peaked at 21 MiB
    import tracemalloc
    tracemalloc.start()
    try:
        code = run(["entrain", "--preset", "two-mass", "--forcing", "v_p",
                    "--horizon", "100", "--dt", "0.005", "--force",
                    "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert peak < 8 * 2**20, peak / 2**20


@pytest.mark.parametrize("umask", [0o022, 0o027])
def test_outputs_honour_umask(tmp_path, umask):
    from lurelab.cli import _atomic_write
    old = os.umask(umask)
    try:
        _atomic_write(str(tmp_path / "out" / "report.json"), "{}\n")
    finally:
        os.umask(old)
    path = tmp_path / "out" / "report.json"
    assert path.read_text() == "{}\n"
    assert path.stat().st_mode & 0o777 == 0o666 & ~umask
    assert os.listdir(tmp_path / "out") == ["report.json"]
