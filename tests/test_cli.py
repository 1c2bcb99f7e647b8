import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from upwind_gsbp import cli
from upwind_gsbp.cli import (
    ConfigError,
    build_run_config,
    main,
    parse_config,
)
from upwind_gsbp.experiments import BLOWUP_FACTOR
from upwind_gsbp.mesh import physical_nodes, uniform_mesh
from upwind_gsbp.operators import verify_axioms
from upwind_gsbp.ref_element import build_lgl

GOLDEN = Path(__file__).parent / "data" / "golden"


# ----------------------------------------------------------- config parsing


def test_parse_config_happy_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\na = 0.2\nK = 20,40\n\npairs = 0.5,0\n")
    values = parse_config(path)
    assert values == {"a": "0.2", "K": "20,40", "pairs": "0.5,0"}


def test_parse_config_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("a = 0.1\nvelocity = 3\n")
    with pytest.raises(ConfigError, match="run.cfg:2.*velocity"):
        parse_config(path)


def test_parse_config_malformed_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("a 0.1\n")
    with pytest.raises(ConfigError, match=":1"):
        parse_config(path)


def test_parse_config_duplicate_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("a = 0.1\nK = 20\na = 0.2\n")
    with pytest.raises(ConfigError, match="run.cfg:3: duplicate key 'a'"):
        parse_config(path)


def test_empty_file_scan_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    cfg = build_run_config("scan", parse_config(path))
    assert cfg.a == 0.1 and cfg.c == 0.1
    assert cfg.N == (1, 2, 3)
    assert cfg.K == (20, 40, 80, 160, 320)
    assert len(cfg.pairs) == 4  # the four flux pairings of the scan table
    assert cfg.horizon == 100.0


def test_theta_range_rejected():
    with pytest.raises(ConfigError, match="theta"):
        build_run_config("scan", {"pairs": "0.7,0"})


def test_scan_rejects_a_downwind_advection_pair(tmp_path, capsys):
    # below theta_adv = 0, D-(theta_adv) fails the dissipation axiom and probe
    # energies can grow at every step size, so the scan would halve tau toward
    # TAU_FLOOR with ever longer probes; it is refused before any work
    with pytest.raises(ConfigError, match="theta_adv.*dissipation axiom"):
        build_run_config("scan", {"pairs": "-0.5,0"})
    argv = ["scan", "--K", "4", "--N", "1", "--order", "1", "--pair", "-0.5", "0"]
    assert main([*argv, "--workers", "1", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "config error: key 'theta_adv': a scan needs theta_adv in [0, 1/2]: "
        "D-(theta_adv) fails the dissipation axiom below 0, got -0.5\n"
    )
    assert not (tmp_path / "out").exists()
    # a negative theta_diff stays allowed, and so does theta_adv < 0 elsewhere
    assert build_run_config("scan", {"pairs": "0,-0.5"}).pairs == ((0.0, -0.5),)
    assert build_run_config("solve", {"pairs": "-0.5,0"}).pairs == ((-0.5, 0.0),)


@pytest.mark.parametrize(
    "velocity, diffusion, scale",
    [("1e-200", "0.1", "inf"), ("1e-10", "1e308", "inf"), ("1e200", "0.1", "0.0")],
)
def test_scan_step_scale_out_of_the_floats_exits_2(tmp_path, capsys, velocity, diffusion, scale):
    # c / a^2 is the time step of tau = 1: a^2 underflows to 0 or overflows, or
    # the quotient does, and the scan has no step to start from
    argv = ["scan", "--a", velocity, "--c", diffusion, "--N", "1", "--K", "4",
            "--order", "1", "--pair", "0.5", "0.5", "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: keys 'a' and 'c': a scan needs a positive finite")
    assert f"got {scale} from a = {float(velocity)!r}, c = {float(diffusion)!r}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--K", "4", "--dt", "1e-300", "--T", "1"],
        ["burgers", "--K", "4", "--dt", "1e-300", "--T", "1"],
        ["converge", "--K", "4", "--mu", "1e-300", "--T", "1"],
        ["scan", "--K", "4", "--N", "1", "--order", "1", "--pair", "0.5", "0.5",
         "--horizon", "1e300"],
        ["scan", "--a", "1e150", "--c", "1e-10", "--N", "1", "--K", "4", "--order", "1",
         "--pair", "0.5", "0.5"],
    ],
    ids=["solve", "burgers", "converge", "scan-horizon", "scan-scale"],
)
def test_run_past_max_steps_exits_2(tmp_path, capsys, argv):
    # each is scheduled for far more than MAX_STEPS steps, and would run for hours
    with pytest.raises(ConfigError, match="takes more than MAX_STEPS = 100000000 steps$"):
        cli._config_from_args(cli._parser().parse_args(argv))
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert "more than MAX_STEPS" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_solve_at_max_steps_is_accepted():
    # exactly MAX_STEPS = 1e8 steps of 1: accepted, and not run here
    cfg = build_run_config("solve", {"T": "1e8", "dt": "1"})
    assert (cfg.T, cfg.dt) == (1e8, 1.0)


def test_domain_violations_name_the_key():
    with pytest.raises(ConfigError, match="'a'"):
        build_run_config("scan", {"a": "-1"})
    with pytest.raises(ConfigError, match="'K'"):
        build_run_config("scan", {"K": "1"})
    with pytest.raises(ConfigError, match="'order'"):
        build_run_config("scan", {"order": "4"})


def test_flag_overrides_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("K = 20\n")
    args = cli._parser().parse_args(["scan", "--config", str(path), "--K", "40"])
    assert cli._config_from_args(args).K == (40,)


def test_growth_solution_forces_unit_velocity():
    cfg = build_run_config("converge", {"solution": "growth"})
    assert cfg.a == 1.0
    with pytest.raises(ConfigError):
        build_run_config("converge", {"solution": "growth", "a": "0.5"})


# a non-default value of every config key: (file text, flag arguments)
KEY_SAMPLES = {
    "a": ("0.2", ["0.2"]),
    "c": ("0.05", ["0.05"]),
    "N": ("2,3", ["2,3"]),
    "K": ("8,16", ["8,16"]),
    "pairs": ("0.25,0", ["0.25", "0"]),
    "theta": ("0.5,-0.25", ["0.5,-0.25"]),
    "order": ("3", ["3"]),
    "horizon": ("12.5", ["12.5"]),
    "T": ("1.5", ["1.5"]),
    "dt": ("0.01", ["0.01"]),
    "mu": ("2", ["2"]),
    "solution": ("growth", ["growth"]),
    "out": ("elsewhere", ["elsewhere"]),
    "workers": ("2", ["2"]),
}


@pytest.mark.parametrize("key", cli._KEYS, ids=lambda key: key.name)
def test_key_in_file_equals_key_as_flag(tmp_path, key):
    assert set(KEY_SAMPLES) == {k.name for k in cli._KEYS}
    text, values = KEY_SAMPLES[key.name]
    sub = next(name for name, command in cli._COMMANDS.items() if key.name in command.reads)
    path = tmp_path / "run.cfg"
    path.write_text(f"{key.name} = {text}\n")
    from_file = cli._config_from_args(cli._parser().parse_args([sub, "--config", str(path)]))
    from_flag = cli._config_from_args(cli._parser().parse_args([sub, key.flag, *values]))
    assert from_file == from_flag
    assert getattr(from_file, key.name) != key.default


def test_subcommand_table_names_only_config_keys():
    names = {key.name for key in cli._KEYS}
    for command in cli._COMMANDS.values():
        assert set(command.reads) <= names
        assert set(command.defaults) | set(command.one_value) <= set(command.reads)
    # every key is read by some subcommand
    assert set().union(*(command.reads for command in cli._COMMANDS.values())) == names


# a flag's text is parsed by the same _KEYS row as a file line's
@pytest.mark.parametrize(
    "key,text,message",
    [
        ("a", "x", "key 'a': cannot parse 'x' as a number"),
        ("workers", "2.5", "key 'workers': cannot parse '2.5' as an integer"),
        ("solution", "steady", "key 'solution': must be decay or growth, got 'steady'"),
    ],
    ids=["a", "workers", "solution"],
)
def test_bad_flag_value_reads_as_bad_file_value(tmp_path, capsys, key, text, message):
    path = tmp_path / "run.cfg"
    path.write_text(f"{key} = {text}\n")
    for given in (["--config", str(path)], ["--" + key, text]):
        assert main(["scan", *given, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


# a --config path that cannot be read is a config error, not a traceback
@pytest.mark.parametrize("config", ["missing.cfg", "a-directory", ""])
def test_unreadable_config_is_a_config_error(tmp_path, monkeypatch, capsys, config):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a-directory").mkdir()
    assert main(["verify", "--config", config, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read config file {config!r}: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_pairs_with_theta_keys_is_a_config_error(tmp_path, capsys):
    # pairs is the one key of a flux pair: theta_adv and theta_diff are unknown
    path = tmp_path / "run.cfg"
    path.write_text("pairs = 0,0\ntheta_adv = 0.5\ntheta_diff = 0.5\n")
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {path}:2: unknown key 'theta_adv'\n"
    assert not (tmp_path / "out").exists()


# none of these is a key: the scan bracket and its resolution are constants
# (DEFAULT_TAU_LO, DEFAULT_TAU_CAP, RESOLUTION), and pairs is the one key of a pair
@pytest.mark.parametrize("key", ["tau_lo", "tau_cap", "resolution", "theta_adv", "theta_diff"])
def test_removed_key_exits_2_as_flag_and_as_file_line(tmp_path, capsys, key):
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--" + key.replace("_", "-"), "0.5", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    path = tmp_path / "run.cfg"
    path.write_text(f"{key} = 0.5\n")
    assert main(["scan", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {path}:1: unknown key {key!r}\n"
    assert not (tmp_path / "out").exists()


# a flag is its key's exact name: argparse would read a prefix of one as the
# flag, so "--hor 5 --horizon 6" would slip past the repeated-flag check
@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--order", "1", "--N", "1", "--K", "4", "--hor", "5", "--horizon", "6"],
        ["verify", "--N", "1", "--K", "4", "--thet", "0"],
    ],
    ids=["hor", "thet"],
)
def test_abbreviated_flag_exits_2(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_flag_value_that_starts_with_a_dash_is_read_as_given(tmp_path):
    # argparse alone takes "-0.25,0.25" for a flag and stops with its usage
    argv = ["verify", "--N", "1", "--K", "4"]
    assert main([*argv, "--theta", "-0.25,0.25", "--out", str(tmp_path / "spaced")]) == 4
    assert main([*argv, "--theta=-0.25,0.25", "--out", str(tmp_path / "joined")]) == 4
    for name in ("certification.csv", "certification.txt"):
        spaced, joined = (tmp_path / d / name for d in ("spaced", "joined"))
        assert spaced.read_bytes() == joined.read_bytes()
    args = cli._parser().parse_args(["solve", "--pair", "0", "-1e-3"])
    assert cli._config_from_args(args).pairs == ((0.0, -0.001),)


def test_negative_velocity_flag_is_a_config_error(tmp_path, capsys):
    assert main(["scan", "--a", "-1e-3", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "config error: key 'a': advective velocity must be > 0, got -0.001\n"
    )
    assert not (tmp_path / "out").exists()


def test_flag_in_place_of_a_value_is_not_read_as_one(tmp_path, capsys):
    assert main(["solve", "--pair", "0", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "config error: key 'pairs': each pair needs two values, got '0'\n"
    )
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--a", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "argument --a: expected one argument" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["verify", "--K", "4", "--K", "6", "--N", "1", "--theta", "0"], "--K"),
        (["scan", "--pair", "0.5", "0.5", "--pair", "0", "0"], "--pair"),
        (["solve", "--T=1", "--T", "2"], "--T"),
        (["verify", "--config", "a.cfg", "--config", "b.cfg"], "--config"),
    ],
    ids=["K", "pair", "T", "config"],
)
def test_repeated_flag_exits_2_as_a_repeated_file_key_does(tmp_path, capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"argument {flag}: given more than once" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_solve_takes_dt_or_mu_not_both(tmp_path, capsys):
    assert build_run_config("solve", {}).mu == 25.0
    given_dt = build_run_config("solve", {"dt": "0.5"})
    assert given_dt.dt == 0.5 and given_dt.mu is None
    assert "mu =" not in given_dt.to_text()
    assert build_run_config("solve", {"mu": "3"}).dt is None
    path = tmp_path / "run.cfg"
    path.write_text("dt = 0.5\n")
    for given in (["--dt", "0.5", "--mu", "3"], ["--config", str(path), "--mu", "3"]):
        assert main(["solve", *given, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "config error: keys 'dt' and 'mu' are exclusive: give the time step or its rule\n"
        )
    assert not (tmp_path / "out").exists()


def test_subcommand_key_is_unknown(tmp_path, capsys):
    # the command line names the subcommand; a file line cannot name another
    path = tmp_path / "run.cfg"
    path.write_text("subcommand = scan\n")
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {path}:1: unknown key 'subcommand'\n"
    assert not (tmp_path / "out").exists()


# a key given by flag or file that the subcommand never reads is an error, not
# dropped; the message names the key as it was given
@pytest.mark.parametrize(
    "sub,given,message",
    [
        ("verify", ["--dt", "5"], "key 'dt': verify does not read it"),
        ("scan", ["--T", "1"], "key 'T': scan does not read it"),
        ("solve", ["--theta", "0"], "key 'theta': solve does not read it"),
        ("burgers", "a = 0.1\n", "key 'a': burgers does not read it"),
    ],
    ids=["verify-dt", "scan-T", "solve-theta", "burgers-a"],
)
def test_key_the_subcommand_does_not_read_is_a_config_error(tmp_path, capsys, sub, given, message):
    if isinstance(given, str):
        path = tmp_path / "run.cfg"
        path.write_text(given)
        given = ["--config", str(path)]
    assert main([sub, *given, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


# -------------------------------------------------------------- subcommands


def test_verify_subcommand(tmp_path, capsys):
    rc = main(["verify", "--N", "2", "--K", "4", "--theta", "0.5", "--out", str(tmp_path)])
    assert rc == 0
    csv = (tmp_path / "certification.csv").read_text().splitlines()
    assert csv[0] == "N,K,theta,topology,axiom,residual,tolerance,status"
    assert all(line.endswith("pass") for line in csv[1:])
    assert (tmp_path / "certification.txt").exists()
    assert "pass" in capsys.readouterr().out


def test_scan_subcommand_and_determinism(tmp_path):
    args = [
        "scan", "--order", "1", "--N", "1", "--K", "40",
        "--pair", "0.5", "0", "--out",
    ]
    rc = main(args + [str(tmp_path / "one")])
    assert rc == 0
    rc = main(args + [str(tmp_path / "two")])
    assert rc == 0
    first = (tmp_path / "one" / "stability.csv").read_bytes()
    second = (tmp_path / "two" / "stability.csv").read_bytes()
    assert first == second
    text = first.decode()
    assert text.splitlines()[0] == "order,N,K,a,c,theta_adv,theta_diff,tau_or_plus"
    tau = float(text.splitlines()[1].rsplit(",", 1)[1])
    assert tau == pytest.approx(0.16, rel=0.25)


def test_scan_plus_marker(tmp_path):
    rc = main([
        "scan", "--order", "1", "--N", "1", "--K", "20",
        "--pair", "0.5", "0.5", "--out", str(tmp_path),
    ])
    assert rc == 0
    lines = (tmp_path / "stability.csv").read_text().splitlines()
    assert lines[1].endswith(",+")


def test_converge_subcommand(tmp_path):
    rc = main([
        "converge", "--K", "20,40", "--pair", "0.5", "0.5", "--out", str(tmp_path),
    ])
    assert rc == 0
    lines = (tmp_path / "convergence.csv").read_text().splitlines()
    assert lines[0] == "N,K,dt_rule,theta_adv,theta_diff,l2_error,eoc"
    # Table-row anchor: K=40 error near 2.31e-2 with EOC ~ 2.13
    last = lines[2].split(",")
    assert float(last[-2]) == pytest.approx(2.31e-2, rel=0.05)
    assert float(last[-1]) == pytest.approx(2.13, abs=0.1)


def test_solve_subcommand(tmp_path, capsys):
    rc = main(["solve", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "l2_error" in out
    assert (tmp_path / "solution_t10.csv").exists()
    assert (tmp_path / "energy.csv").read_text().startswith("step,t,energy")


# The incompatible pair far above its threshold: the energy passes
# BLOWUP_FACTOR times its start at step 7 (t = 35), so the run stops long
# before any value overflows, and a longer T changes nothing.
@pytest.mark.parametrize("t_final", ["200", "2000"])
def test_solve_reports_a_blow_up(tmp_path, capsys, t_final):
    argv = ["solve", "--pair", "0.5", "0", "--K", "80", "--N", "3", "--dt", "5", "--T", t_final]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([*argv, "--out", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == f"solve: K=80 N=3 dt=5 T={t_final} blow-up detected at t=35\n"
    assert captured.err == ""
    header, *rows = (tmp_path / "energy.csv").read_text().splitlines()
    assert header == "step,t,energy"
    assert [row.split(",")[0] for row in rows] == [str(k) for k in range(8)]
    energies = [float(row.split(",")[2]) for row in rows]
    assert energies[-1] > BLOWUP_FACTOR * energies[0] > max(energies[:-1])
    assert sorted(path.name for path in tmp_path.iterdir()) == ["energy.csv"]


@pytest.mark.parametrize(
    "argv, error",
    [
        (["--solution", "growth", "--order", "3", "--N", "2", "--mu", "0.5", "--K", "20",
          "--T", "1", "--pair", "0", "0"], "7.440748e-04"),
        (["--K", "40", "--pair", "0.5", "0.5"], "2.305315e-02"),
    ],
    ids=["growth", "decay"],
)
def test_solve_and_one_level_converge_print_the_same_error(tmp_path, capsys, argv, error):
    assert main(["solve", *argv, "--out", str(tmp_path / "solve")]) == 0
    assert capsys.readouterr().out.endswith(f" l2_error={error}\n")
    assert main(["converge", *argv, "--out", str(tmp_path / "converge")]) == 0
    assert capsys.readouterr().out.endswith(f": error={error} eoc=-\n")


def test_burgers_subcommand(tmp_path, capsys):
    rc = main([
        "burgers", "--pair", "0.5", "0", "--K", "100", "--out", str(tmp_path),
    ])
    assert rc == 0
    summary = (tmp_path / "burgers_summary.csv").read_text().splitlines()
    assert summary[1].split(",")[3] == "blowup"
    assert "blow-up" in capsys.readouterr().out
    assert (tmp_path / "burgers_energy_K100.csv").exists()


def test_burgers_defaults_complete(tmp_path):
    rc = main(["burgers", "--K", "50", "--T", "1.0", "--out", str(tmp_path)])
    assert rc == 0
    summary = (tmp_path / "burgers_summary.csv").read_text().splitlines()
    assert summary[1].split(",")[3] == "completed"
    assert (tmp_path / "burgers_K50_t1.csv").read_text().startswith("x,u")


def test_bad_flag_value_exits_with_config_error(tmp_path):
    rc = main(["scan", "--pair", "0.7", "0", "--out", str(tmp_path)])
    assert rc == 2


def test_unparsable_integer_in_config_file_is_a_config_error(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("workers = two\n")
    assert main(["verify", "--config", str(path), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("sub", ["verify", "scan", "converge"])
@pytest.mark.parametrize("key", ["N", "K", "order", "theta", "pairs"])
def test_empty_list_key_is_a_config_error(tmp_path, capsys, sub, key):
    # an empty list would make verify and scan do nothing and converge index past it
    path = tmp_path / "run.cfg"
    path.write_text(f"{key} =\n")
    assert main([sub, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


FINITE_KEYS = ["a", "c", "horizon", "T", "dt", "mu"]


@pytest.mark.parametrize("given_as", ["flag", "file"])
@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("key", FINITE_KEYS)
def test_non_finite_value_is_a_config_error(tmp_path, capsys, key, value, given_as):
    # an infinite T or horizon ran zero or endless steps; nan passed every range check
    if given_as == "flag":
        argv = ["--" + key.replace("_", "-"), value]
    else:
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = {value}\n")
        argv = ["--config", str(path)]
    assert main(["verify", "--N", "1", "--K", "4", *argv, "--out", str(tmp_path / "out")]) == 2
    assert f"key {key!r}: must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# one out-of-domain value per key with a domain, plus the rules that tie keys
# together: (flags, or a config file's text, and the exact stderr line)
DOMAIN_VIOLATIONS = {
    "a": (["--a", "-1"], "key 'a': advective velocity must be > 0, got -1.0"),
    "c": (["--c", "0"], "key 'c': diffusion coefficient must be > 0, got 0.0"),
    "N": (["--N", "1,17"], "key 'N': degree must lie in [1, 16], got 17"),
    "N_zero": (["--N", "0"], "key 'N': degree must lie in [1, 16], got 0"),
    "K": (["--K", "1"], "key 'K': cell count must be >= 2, got 1"),
    "pairs_adv": (["--pair", "0.7", "0"], "key 'theta_adv': theta must lie in [-1/2, 1/2], got 0.7"),
    "pairs_diff": ("pairs = 0,0;0.25,-0.75\n",
                   "key 'theta_diff': theta must lie in [-1/2, 1/2], got -0.75"),
    "theta": (["--theta", "0,0.7"], "key 'theta': theta must lie in [-1/2, 1/2], got 0.7"),
    "order": (["--order", "4"], "key 'order': order must be 1, 2 or 3, got 4"),
    "horizon": (["--horizon", "0"], "key 'horizon': must be > 0, got 0.0"),
    "T": (["--T", "-1"], "key 'T': must be >= 0, got -1.0"),
    "dt": (["--dt", "0"], "key 'dt': must be > 0, got 0.0"),
    "mu": (["--mu", "-2"], "key 'mu': must be > 0, got -2.0"),
    "solution": ("solution = steady\n", "key 'solution': must be decay or growth, got 'steady'"),
    "growth": ("solution = growth\na = 0.5\n", "the growth solution requires a = 1"),
    "workers": (["--workers", "0"], "key 'workers': must be >= 1, got 0"),
}


@pytest.mark.parametrize("case", list(DOMAIN_VIOLATIONS))
def test_domain_violation_message(tmp_path, capsys, case):
    given, message = DOMAIN_VIOLATIONS[case]
    if isinstance(given, str):
        path = tmp_path / "run.cfg"
        path.write_text(given)
        given = ["--config", str(path)]
    # a flag is given once, so the case's own --N, --K or --theta replaces the base one
    base = [t for flag, v in [("--N", "1"), ("--K", "4"), ("--theta", "0")]
            if flag not in given for t in (flag, v)]
    argv = ["verify", *base, *given]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


# a single-run subcommand runs one value of these keys; a second value is an
# error, not dropped: (subcommand, flags or config file text, stderr line)
@pytest.mark.parametrize(
    "sub,given,message",
    [
        ("solve", ["--K", "10,20"], "key 'K': solve takes one value, got 10,20"),
        ("solve", ["--N", "1,2"], "key 'N': solve takes one value, got 1,2"),
        ("solve", ["--order", "2,1"], "key 'order': solve takes one value, got 2,1"),
        ("solve", "pairs = 0.5,0.5;0,0\n",
         "key 'pairs': solve takes one value, got 0.5,0.5;0.0,0.0"),
        ("converge", ["--N", "1,2"], "key 'N': converge takes one value, got 1,2"),
        ("converge", ["--order", "1,2"], "key 'order': converge takes one value, got 1,2"),
        ("burgers", ["--N", "2,3"], "key 'N': burgers takes one value, got 2,3"),
        ("burgers", ["--order", "1,2"], "key 'order': burgers takes one value, got 1,2"),
        ("burgers", "pairs = 0,0;0.5,0\n",
         "key 'pairs': burgers takes one value, got 0.0,0.0;0.5,0.0"),
    ],
    ids=["solve-K", "solve-N", "solve-order", "solve-pairs", "converge-N", "converge-order",
         "burgers-N", "burgers-order", "burgers-pairs"],
)
def test_single_run_rejects_a_second_value(tmp_path, capsys, sub, given, message):
    if isinstance(given, str):
        path = tmp_path / "run.cfg"
        path.write_text(given)
        given = ["--config", str(path)]
    assert main([sub, "--T", "0", *given, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_solver_failure_exits_3(tmp_path, monkeypatch, capsys):
    import scipy.sparse.linalg

    def singular(mat, **options):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(scipy.sparse.linalg, "splu", singular)
    assert main(["solve", "--K", "4", "--T", "0.5", "--out", str(tmp_path)]) == cli.EXIT_SOLVER == 3
    err = capsys.readouterr().err
    assert err.startswith("solver failure: stage factorization failed: Factor is exactly singular")
    assert "Traceback" not in err


def test_failed_axiom_exits_4(tmp_path, monkeypatch, capsys):
    def failing(opset):
        return dataclasses.replace(verify_axioms(opset), axiom_sbp_pass=False)

    monkeypatch.setattr(cli, "verify_axioms", failing)
    rc = main(["verify", "--N", "1", "--K", "4", "--theta", "0", "--out", str(tmp_path)])
    assert rc == cli.EXIT_CHECK == 4
    captured = capsys.readouterr()
    assert captured.out == "verify N=1 K=4 theta=0: FAIL\n"
    assert captured.err == "certification failed for 2 operator set(s)\n"
    rows = (tmp_path / "certification.csv").read_text().splitlines()[1:]
    assert [row.split(",")[3:5] for row in rows if row.endswith(",fail")] == [
        ["bounded", "sbp"], ["periodic", "sbp"]
    ]


@pytest.mark.parametrize("given_as", ["flag", "file"])
def test_negative_zero_is_read_as_zero(tmp_path, capsys, given_as):
    # a -0 would print as "-0" in file names, summaries and CSVs; solve and
    # converge read T and the pair, verify reads theta
    if given_as == "flag":
        run_argv = ["--T", "-0", "--pair", "-0", "-0"]
        verify_argv = ["--theta", "-0"]
    else:
        run_path, verify_path = tmp_path / "run.cfg", tmp_path / "verify.cfg"
        run_path.write_text("T = -0\npairs = -0,-0\n")
        verify_path.write_text("theta = -0\n")
        run_argv, verify_argv = ["--config", str(run_path)], ["--config", str(verify_path)]
    run_cfg = cli._config_from_args(cli._parser().parse_args(["solve", *run_argv]))
    verify_cfg = cli._config_from_args(cli._parser().parse_args(["verify", *verify_argv]))
    zeros = (run_cfg.T, *run_cfg.pairs[0], *verify_cfg.theta)
    assert [math.copysign(1.0, v) for v in zeros] == [1.0] * 4
    assert main(["solve", "--K", "4", *run_argv, "--out", str(tmp_path / "solve")]) == 0
    assert (tmp_path / "solve" / "solution_t0.csv").is_file()
    assert " T=0 " in capsys.readouterr().out
    assert main(["converge", "--K", "4", *run_argv, "--out", str(tmp_path / "converge")]) == 0
    row = (tmp_path / "converge" / "convergence.csv").read_text().splitlines()[1]
    assert row.split(",")[3:5] == ["0", "0"]
    argv = ["verify", "--N", "1", "--K", "4", *verify_argv, "--out", str(tmp_path / "verify")]
    assert main(argv) == 0
    rows = (tmp_path / "verify" / "certification.csv").read_text().splitlines()[1:]
    assert {r.split(",")[2] for r in rows} == {"0"}
    assert "theta=0:" in capsys.readouterr().out


@pytest.mark.parametrize("t_final", ["0", "-0"])
def test_burgers_at_zero_final_time_writes_initial_data(tmp_path, capsys, t_final):
    assert main(["burgers", "--K", "4", "--T", t_final, "--out", str(tmp_path)]) == 0
    assert "completed T=0" in capsys.readouterr().out
    nodes = physical_nodes(uniform_mesh(-np.pi, np.pi, 4), build_lgl(2))
    want = ["x,u"] + [f"{x:.12e},{u:.12e}" for x, u in zip(nodes, np.sin(nodes))]
    assert (tmp_path / "burgers_K4_t0.csv").read_text().splitlines() == want
    summary = (tmp_path / "burgers_summary.csv").read_text().splitlines()
    assert summary[1] == "4,0,0,completed,0.000000e+00"


def test_solve_with_a_step_far_above_the_final_time_takes_one_step(tmp_path):
    argv = ["solve", "--K", "4", "--T", "1e-3", "--dt", "1e10", "--out", str(tmp_path)]
    assert main(argv) == 0
    header, *rows = (tmp_path / "energy.csv").read_text().splitlines()
    assert [row.split(",")[:2] for row in rows] == [["0", "0.000000000000e+00"],
                                                    ["1", "1.000000000000e-03"]]


def test_out_that_cannot_be_a_directory_is_a_config_error(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setitem(cli._COMMANDS, "verify", cli._COMMANDS["verify"]._replace(run=calls.append))
    path = tmp_path / "taken"
    path.write_text("")
    for out in (path, path / "sub"):
        assert main(["verify", "--out", str(out)]) == 2
    assert calls == []
    err = capsys.readouterr().err
    assert "key 'out'" in err and "Traceback" not in err


def test_empty_list_flag_is_a_config_error(tmp_path, capsys):
    # as the file line "N =" is: an empty list would make verify do nothing
    assert main(["verify", "--N", "", "--K", "4", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "config error: key 'N': needs at least one value\n"
    assert not (tmp_path / "out").exists()


def test_seed_key_is_unknown(tmp_path, capsys):
    # no command draws a random number, so there is nothing to seed
    path = tmp_path / "run.cfg"
    path.write_text("seed = 0\n")
    assert main(["verify", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "unknown key 'seed'" in capsys.readouterr().err


def test_internal_error_has_its_own_exit_code(tmp_path, monkeypatch, capsys):
    # a ValueError raised inside the numerics is a bug, not a config error
    def broken(cfg):
        raise ValueError("numerics went wrong")

    monkeypatch.setitem(cli._COMMANDS, "verify", cli._COMMANDS["verify"]._replace(run=broken))
    rc = main(["verify", "--out", str(tmp_path)])
    assert rc == cli.EXIT_INTERNAL == 5
    assert "internal error" in capsys.readouterr().err


# The K = 20 rows of the bare 120-scan table, which CI compares whole. Two
# of them are set by roundoff, order 1 and order 2 at N = 2 with the pair
# (1/2, 0), so a change to the sparse stage arithmetic fails here too.
def test_bare_table_k20_rows_match_golden_bytes(tmp_path):
    argv = ["scan", "--order", "1,2", "--N", "1,2", "--K", "20", "--workers", "1"]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    header, *rows = (tmp_path / "stability.csv").read_bytes().splitlines(keepends=True)
    golden_header, *golden_rows = (GOLDEN / "stability_table.csv").read_bytes().splitlines(
        keepends=True
    )
    assert header == golden_header
    golden_by_config = {row.rsplit(b",", 1)[0]: row for row in golden_rows}
    assert len(rows) == 16
    for row in rows:
        assert row == golden_by_config[row.rsplit(b",", 1)[0]]


# Byte-for-byte outputs captured before the sparse stage path was rewritten.
# The scan's tau of 1.213066e-01 is set by roundoff, so any change to the
# stage arithmetic shows up in it. The Burgers pair (1/2, 1/2) has C != 0;
# its energy trace is unchanged since then, and its final state was
# re-captured when Burgers stage systems moved from SuperLU to the symbol of
# L (10 of 301 lines moved in the 13th digit, by at most 1e-13).
BURGERS_ARGV = ["burgers", "--N", "2", "--order", "2", "--dt", "0.02", "--T", "2", "--K", "100",
                "--pair", "0.5", "0.5"]


@pytest.mark.parametrize(
    "argv,name",
    [
        (["scan", "--order", "1", "--N", "3", "--K", "20", "--pair", "0.5", "0",
          "--workers", "1"], "stability.csv"),
        (BURGERS_ARGV, "burgers_energy_K100.csv"),
        (BURGERS_ARGV, "burgers_K100_t2.csv"),
    ],
)
def test_outputs_match_golden_bytes(tmp_path, argv, name):
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


# Captured before the config keys, the time loop and the energy checks were
# each given one definition: the bare converge run (decay, with unstable dash
# rows), a sourced growth study and the bare solve run.
@pytest.mark.parametrize(
    "argv,files",
    [
        (["converge"], {"convergence.csv": "convergence.csv"}),
        (["converge", "--solution", "growth", "--order", "3", "--N", "2", "--mu", "0.5",
          "--K", "20,40", "--pair", "0", "0"], {"convergence.csv": "convergence_growth.csv"}),
        (["solve"], {"energy.csv": "energy.csv", "solution_t10.csv": "solution_t10.csv"}),
    ],
)
def test_study_outputs_match_golden_bytes(tmp_path, argv, files):
    assert main([*argv, "--out", str(tmp_path)]) == 0
    for name, golden in files.items():
        assert (tmp_path / name).read_bytes() == (GOLDEN / golden).read_bytes()


# Captured once the seed key was dropped, before the config keys were
# derived from one table; argparse wraps help to $COLUMNS.
@pytest.mark.parametrize("sub", ["gsbp", *cli._COMMANDS])
def test_help_matches_golden_bytes(monkeypatch, capsys, sub):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["--help"] if sub == "gsbp" else [sub, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / f"help_{sub}.txt").read_bytes()


@pytest.mark.parametrize("sub", list(cli._COMMANDS))
def test_bare_config_text_matches_golden_bytes(sub):
    text = build_run_config(sub, {}).to_text()
    assert text.encode() == (GOLDEN / f"to_text_{sub}.txt").read_bytes()


# Captured before the operator assembly and the verifier were rewritten:
# bounded accuracy and boundary rows, nonzero residuals, and K = 320, where
# the eigenvalue check runs on dim 640 and 1280.
def test_certification_matches_golden_bytes(tmp_path):
    argv = ["verify", "--N", "1,3", "--K", "4,320", "--theta", "0,0.5"]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    for name in ("certification.csv", "certification.txt"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


# Captured before operator sets were built straight into CSR: the residual
# bits of every (N, K, theta) cell the certify benchmark runs, both topologies.
def test_certification_grid_matches_golden_bytes(tmp_path):
    argv = ["verify", "--N", "1,2,3", "--K", "4,20,80,320", "--theta", "0,0.25,0.5"]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    for name in ("certification.csv", "certification.txt"):
        stem, suffix = name.split(".")
        golden = GOLDEN / f"{stem}_grid.{suffix}"
        assert (tmp_path / name).read_bytes() == golden.read_bytes()


def test_parser_is_built_once_and_reused(tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parser.cache_clear()
    try:
        verify = ["verify", "--N", "2", "--K", "4,20", "--theta", "0.25"]
        assert main([*verify, "--out", str(tmp_path / "one")]) == 0
        assert main(["scan", "--pair", "0.7", "0", "--out", str(tmp_path / "bad")]) == 2
        assert main([*verify, "--out", str(tmp_path / "two")]) == 0
    finally:
        cli._parser.cache_clear()
    # the top-level parser once; its subparsers come from the same build
    assert built.count("gsbp") == 1
    assert len(built) == 1 + len(cli._COMMANDS)
    for name in ("certification.csv", "certification.txt"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


def test_config_file_drives_run(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("N = 1\nK = 4\ntheta = 0.5\n")
    rc = main(["verify", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "certification.csv").read_text().splitlines()
    # one (N, K, theta) combination, bounded + periodic reports
    assert len(lines) == 1 + 4 + 2


# Run in a fresh interpreter: the test process itself has long loaded
# scipy.sparse, scipy.sparse.linalg and multiprocessing. Each step reports its
# exit status and which of the three modules are loaded after it.
LAZY_IMPORT_SCRIPT = """
import contextlib, io, json, sys, tempfile

import numpy as np

from upwind_gsbp.cli import main

def loaded():
    return [m in sys.modules for m in ("scipy.sparse", "scipy.sparse.linalg", "multiprocessing")]

out = tempfile.mkdtemp()
seen = {"import": [0, *loaded()]}
with contextlib.redirect_stdout(io.StringIO()):
    try:
        main(["--help"])
    except SystemExit as exc:
        seen["help"] = [exc.code, *loaded()]
    with contextlib.redirect_stderr(io.StringIO()):
        seen["config_error"] = [main(["scan", "--pair", "0.7", "0", "--out", out]), *loaded()]
    seen["verify"] = [main(["verify", "--N", "1", "--K", "4", "--theta", "0", "--out", out]), *loaded()]
    scan = ["scan", "--order", "1", "--N", "1", "--K", "4", "--pair", "0", "0", "--horizon", "1"]
    seen["scan"] = [main([*scan, "--workers", "1", "--out", out]), *loaded()]
    seen["burgers"] = [main(["burgers", "--K", "10", "--T", "0.2", "--out", out]), *loaded()]

from upwind_gsbp.imex import integrate, tableau_by_name
from upwind_gsbp.problems import AdvDiffConfig, discretize, make_split_problem

disc = discretize(AdvDiffConfig(0.1, 0.1, 0.5, 0.5, 1, 4))
u, trace = integrate(tableau_by_name(2), make_split_problem(disc), np.sin(disc.nodes), 0.1, 0.3)
assert np.isfinite(u).all()
seen["integrate"] = [trace.steps[-1][0], *loaded()]
print(json.dumps(seen))
"""


def test_runs_load_only_what_they_execute():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run(
        [sys.executable, "-c", LAZY_IMPORT_SCRIPT], env=env, capture_output=True, text=True, check=True
    )
    seen = json.loads(run.stdout.splitlines()[-1])
    # [exit status or steps taken, scipy.sparse loaded, scipy.sparse.linalg
    # loaded, multiprocessing loaded]
    assert seen == {
        "import": [0, False, False, False],
        "help": [0, False, False, False],
        "config_error": [2, False, False, False],
        # the verifier reads the operators' slot layout with numpy alone
        "verify": [0, False, False, False],
        # every probe of this scan is certified and steps Fourier coefficients,
        # so it builds no sparse problem; one worker starts no process pool
        "scan": [0, False, False, False],
        # Burgers applies CSR matrices, but solves its stage systems on the
        # symbol of L, with no sparse factorization
        "burgers": [0, True, False, False],
        # a sparse run factorizes its stage systems, which loads the solver
        "integrate": [3, True, True, False],
    }


# A None entry in sys.modules makes every import of scipy raise ImportError.
NO_SCIPY_VERIFY_SCRIPT = """
import sys

sys.modules["scipy"] = None

from upwind_gsbp.cli import main

sys.exit(main(["verify", "--N", "1,3", "--K", "4,320", "--theta", "0,0.5", "--out", sys.argv[1]]))
"""


def test_verify_runs_without_scipy(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_VERIFY_SCRIPT, str(tmp_path)],
        env=env, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    for name in ("certification.csv", "certification.txt"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


def test_module_entry_point_runs_the_cli(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = ["verify", "--N", "1", "--K", "4", "--theta", "0"]
    run = subprocess.run(
        [sys.executable, "-m", "upwind_gsbp", *argv, "--out", str(tmp_path / "module")],
        env=env, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    assert main([*argv, "--out", str(tmp_path / "in_process")]) == 0
    csv = [tmp_path / d / "certification.csv" for d in ("module", "in_process")]
    assert csv[0].read_bytes() == csv[1].read_bytes()
