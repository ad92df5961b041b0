import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ccemfg.analytic import DeviceProbs
from ccemfg.cli import (ConfigError, RunConfig, build_parser, config_dict,
                        main, parse_config, resolve_config)
from ccemfg.correlation import (BAND_FACTOR, build_example_device,
                                null_expectation)
from ccemfg.engine import TimeGrid


def run_cli(args):
    return main(list(args))


def test_config_roundtrip_identity():
    cfg = parse_config({"command": "gap", "p": [1, 0, 0, 0], "seed": 3,
                        "N": [10, 20], "reps": 17})
    again = parse_config(config_dict(cfg))
    assert again == cfg


def test_config_rejects_bad_fields():
    with pytest.raises(ConfigError) as err:
        parse_config({"command": "gap", "p": [0.5, 0.5, 0.5, -0.5],
                      "reps": "many", "bogus": 1})
    fields = [f for f, _ in err.value.problems]
    assert "bogus" in fields

    with pytest.raises(ConfigError) as err:
        parse_config({"command": "gap", "p": [0.5, 0.5, 0.5, -0.5],
                      "reps": "many"})
    fields = [f for f, _ in err.value.problems]
    assert "p" in fields and "reps" in fields


@pytest.mark.parametrize("field, value", [
    ("reps", 20.7), ("N", [10.9]), ("N", [True, 10]), ("steps", True),
    ("seed", 1.5), ("reps", float("inf")), ("a", True), ("action", False),
    ("alpha", [False])])
def test_config_rejects_booleans_and_fractional_ints(field, value):
    # int(value) took 20.7 as 20 and True as 1
    with pytest.raises(ConfigError) as err:
        parse_config({"command": "gap", field: value})
    assert [f for f, _ in err.value.problems] == [field]


def test_config_takes_integral_floats_for_int_fields():
    cfg = parse_config({"command": "gap", "reps": 20.0, "N": [10.0, 20]})
    assert cfg.reps == 20 and cfg.N == (10, 20)
    assert type(cfg.reps) is int and all(type(n) is int for n in cfg.N)


def test_truncating_json_numbers_exit_2(tmp_path, capsys):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text('{"reps": 20.7, "N": [10.9], "steps": true}')
    assert run_cli(["gap", "--config", str(cfgfile),
                    "--out", str(tmp_path / "gap")]) == 2
    err = capsys.readouterr().err
    for field in ("reps", "N", "steps"):
        assert f"config error: {field}:" in err
    assert list(tmp_path.iterdir()) == [cfgfile]


@pytest.mark.parametrize("field, value", [
    ("a", -np.inf), ("b", np.inf), ("c", np.inf), ("T", np.inf),
    ("b", np.nan), ("c", np.nan)])
def test_config_rejects_non_finite_game_parameters(field, value):
    with pytest.raises(ConfigError) as err:
        parse_config({"command": "gap", field: value})
    assert [f for f, _ in err.value.problems] == [field]
    assert "finite" in err.value.problems[0][1]


@pytest.mark.parametrize("command, flag, value", [
    ("region", "--b", "inf"), ("mfgap", "--c", "inf"), ("gap", "--T", "inf"),
    ("region", "--a", "-inf")])
def test_non_finite_game_parameters_exit_2(command, flag, value, tmp_path,
                                           capsys):
    # region and mfgap wrote NaN and exited 0; gap exited 1
    assert run_cli([command, f"{flag}={value}", "--out",
                    str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert f"config error: {flag[2:]}: must be" in err and "finite" in err
    assert list(tmp_path.iterdir()) == []


def test_flags_override_config_file(tmp_path):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"seed": 1, "reps": 5, "p": [1, 0, 0, 0]}))
    cfg = resolve_config(["mkv", "--config", str(cfgfile), "--seed", "9"])
    assert cfg.seed == 9 and cfg.reps == 5 and cfg.command == "mkv"


def test_invalid_config_exits_2(tmp_path, capsys):
    rc = run_cli(["gap", "--p", "2,0,0,0", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "config error: p" in capsys.readouterr().err

    rc = run_cli(["gap", "--p", "1,0,0"])
    assert rc == 2


def test_wrongly_typed_value_exits_2_from_flag_and_json(tmp_path, capsys):
    assert run_cli(["gap", "--reps", "many"]) == 2
    assert "config error: reps" in capsys.readouterr().err
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"reps": "many", "N": [10, "x"]}))
    assert run_cli(["gap", "--config", str(cfgfile)]) == 2
    err = capsys.readouterr().err
    assert "config error: reps" in err and "config error: N" in err


def test_list_fields_accept_comma_separated_strings():
    cfg = parse_config({"command": "gap", "N": "10, 20", "alpha": "0.5",
                        "p": "1,0,0,0"})
    assert cfg.N == (10, 20) and cfg.alpha == (0.5,)
    assert cfg.p == (1.0, 0.0, 0.0, 0.0)


def test_every_field_round_trips_through_flags_json_and_header(tmp_path):
    values = {"command": "mkv", "a": -1.5, "b": 0.75, "c": 2.0, "T": 0.5,
              "p": (0.25, 0.25, 0.25, 0.25), "resolution": 7,
              "alpha": (0.125, 0.875), "N": (3, 7), "reps": 11, "steps": 4,
              "deviations": 5, "particles": 150, "max_iters": 2,
              "tol": 0.25, "action": 0.5, "seed": 42,
              "out": str(tmp_path / "run"), "workers": 1}
    fields = dataclasses.fields(RunConfig)
    assert set(values) == {f.name for f in fields}
    want = RunConfig(**values)
    assert all(getattr(want, f.name) != f.default for f in fields)

    argv = ["mkv"]
    for key, val in values.items():
        if key != "command":
            text = ",".join(map(str, val)) if isinstance(val, tuple) else val
            argv += ["--" + key.replace("_", "-"), str(text)]
    assert resolve_config(argv) == want

    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps(values))
    assert resolve_config(["mkv", "--config", str(cfgfile)]) == want

    assert run_cli(argv) == 0
    header = (tmp_path / "run.csv").read_text().splitlines()[0]
    cfgfile.write_text(header[2:])
    assert resolve_config(["mkv", "--config", str(cfgfile)]) == want


def test_empty_lists_rejected(capsys, tmp_path):
    out = str(tmp_path / "out")
    for args, field in ((["gap", "--N", ""], "N"),
                        (["poc", "--N", ""], "N"),
                        (["region", "--alpha", ""], "alpha")):
        assert run_cli([*args, "--out", out]) == 2
        assert f"config error: {field}: must not be empty" in \
            capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(ConfigError) as err:
        parse_config({"command": "gap", "N": [], "alpha": []})
    assert sorted(f for f, _ in err.value.problems) == ["N", "alpha"]


@pytest.mark.parametrize("command", ["gap", "poc", "region"])
def test_player_counts_must_increase(command, capsys, tmp_path):
    """poc needs strictly increasing N; a list out of order or with a
    repeat is a configuration error for every command, not a runtime one."""
    out = str(tmp_path / "out")
    for N in ("200,50", "50,50"):
        assert run_cli([command, "--N", N, "--reps", "4", "--steps", "2",
                        "--out", out]) == 2
        assert "config error: N: entries must be strictly increasing" in \
            capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(ConfigError) as err:
        parse_config({"command": command, "N": [10, 20, 15]})
    assert [f for f, _ in err.value.problems] == ["N"]


def test_zero_max_iters_rejected(capsys):
    with pytest.raises(ConfigError) as err:
        parse_config({"command": "mkv", "max_iters": 0})
    assert [f for f, _ in err.value.problems] == ["max_iters"]
    assert run_cli(["mkv", "--max-iters", "0"]) == 2
    assert "config error: max_iters" in capsys.readouterr().err


def test_bad_mkv_settings_exit_2(capsys):
    for args, field in ((["--particles", "50"], "particles"),
                        (["--action", "1.5"], "action"),
                        (["--a", "-2", "--action", "-2.5"], "action")):
        assert run_cli(["mkv", *args]) == 2
        assert f"config error: {field}:" in capsys.readouterr().err
    with pytest.raises(ConfigError) as err:
        parse_config({"command": "mkv", "particles": 99, "action": "fast"})
    assert [f for f, _ in err.value.problems] == ["action"]
    with pytest.raises(ConfigError) as err:
        parse_config({"command": "mkv", "particles": 99, "action": -1.0})
    assert [f for f, _ in err.value.problems] == ["particles"]
    cfg = parse_config({"command": "mkv", "particles": 100, "action": -1})
    assert cfg.particles == 100 and cfg.action == -1.0


def test_runtime_failure_exits_1(tmp_path, capsys):
    rc = run_cli(["region", "--resolution", "5",
                  "--out", str(tmp_path / "no_such_dir" / "x")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_region_output(tmp_path):
    out = tmp_path / "reg"
    rc = run_cli(["region", "--resolution", "21", "--alpha", "0.5",
                  "--out", str(out)])
    assert rc == 0
    pgm = (tmp_path / "reg_alpha0.5.pgm").read_text().splitlines()
    assert pgm[0] == "P2"
    n = 21
    rows = [list(map(int, line.split())) for line in pgm[4:]]
    shade = np.array(rows)                     # row 0 is p22 = 1
    # cells with p11 + p22 = 1 (p12 = p21 = 0) are all white; file row r
    # holds p22 index n-1-r, so those cells sit at shade[i, i]
    diag = np.array([shade[i, i] for i in range(n)])
    assert np.all(diag == 255)
    vals = set(np.unique(shade))
    assert {0, 255} <= vals and 128 in vals

    csv = (tmp_path / "reg_alpha0.5.csv").read_text().splitlines()
    header = json.loads(csv[0][2:])
    assert header["alpha"] == [0.5] and header["resolution"] == 21


def test_gap_output_and_determinism(tmp_path):
    args = ["gap", "--p", "1,0,0,0", "--N", "50", "--reps", "100",
            "--steps", "25", "--seed", "5"]
    out1, out2 = tmp_path / "g1.csv", tmp_path / "g2.csv"
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    body1 = out1.read_text().split("\n", 1)[1]
    body2 = out2.read_text().split("\n", 1)[1]
    assert body1 == body2                      # bodies byte-identical

    lines = out1.read_text().splitlines()
    cols = lines[1].split(",")
    row = dict(zip(cols, lines[2].split(",")))
    assert row["N"] == "50" and row["oracle"] == "0"
    # white corner device: estimated gap within 2 SE of the oracle (0)
    assert abs(float(row["raw_gap"])) <= 2 * float(row["raw_se"]) + 1e-15


def test_output_regenerable_from_embedded_header(tmp_path):
    out1 = tmp_path / "a.csv"
    assert run_cli(["gap", "--p", "0.5,0,0,0.5", "--N", "10", "--reps", "40",
                    "--steps", "20", "--seed", "7", "--out", str(out1)]) == 0
    header = json.loads(out1.read_text().splitlines()[0][2:])
    header["out"] = str(tmp_path / "b.csv")
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps(header))
    assert run_cli(["gap", "--config", str(cfgfile)]) == 0
    body1 = out1.read_text().split("\n", 1)[1]
    body2 = (tmp_path / "b.csv").read_text().split("\n", 1)[1]
    assert body1 == body2


def test_mfgap_poc_consistency_mkv_smoke(tmp_path):
    assert run_cli(["mfgap", "--p", "0.5,0.3,0.2,0", "--reps", "200",
                    "--steps", "25", "--out", str(tmp_path / "mf.csv")]) == 0
    lines = (tmp_path / "mf.csv").read_text().splitlines()
    assert lines[1].startswith("reps,eps_hat")

    assert run_cli(["poc", "--p", "1,0,0,0", "--N", "10,20", "--reps", "30",
                    "--steps", "20", "--out", str(tmp_path / "poc.csv")]) == 0
    poc = (tmp_path / "poc.csv").read_text().splitlines()
    assert poc[1] == "N,class,sup_w2_sq"
    assert len(poc) == 2 + 2 * 2               # (all + one class) per N

    assert run_cli(["consistency", "--p", "0.5,0,0,0.5", "--reps", "500",
                    "--steps", "20", "--out", str(tmp_path / "cons.csv")]) == 0
    cons = (tmp_path / "cons.csv").read_text().splitlines()
    assert cons[1] == "class,prob,count,t,w2"

    assert run_cli(["mkv", "--particles", "1000", "--steps", "20",
                    "--out", str(tmp_path / "mkv")]) == 0
    mkv = (tmp_path / "mkv.csv").read_text().splitlines()
    assert mkv[1] == "t,mean,var" and len(mkv) == 2 + 21
    trace = (tmp_path / "mkv_trace.csv").read_text().splitlines()
    assert trace[1] == "iteration,w2_to_previous"


def test_consistency_prints_each_band_beside_its_unit(tmp_path, capsys):
    """One line per class: the null band and, on the same line, the
    sqrt(max_t E[W2^2]) that it is BAND_FACTOR times."""
    out = tmp_path / "cons.csv"
    assert run_cli(["consistency", "--p", "0.5,0.3,0.2,0", "--reps", "200",
                    "--steps", "20", "--out", str(out)]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines()
             if "null band" in ln]
    counts = {}
    for row in out.read_text().splitlines()[2:]:
        label, _, count = row.split(",")[:3]
        counts[label] = int(count)
    flows = build_example_device(DeviceProbs(0.5, 0.3, 0.2, 0), -1.0,
                                 1.0).flow_classes()
    times = TimeGrid(2.0, 20).times
    assert len(lines) == len(flows) == 2
    for line, label in zip(lines, flows):
        assert line.startswith(f"class {label}:")
        band = float(line.split("null band = ")[1].split()[0])
        unit = float(line.split("sqrt(max_t E[W2^2]) = ")[1].split(")")[0])
        want = np.sqrt(null_expectation(
            flows[label]["flow"].quantile_table(times), counts[label]).max())
        assert unit == pytest.approx(want, rel=1e-3)
        assert band == pytest.approx(BAND_FACTOR * want, rel=1e-3)


def test_cached_parser_gives_each_call_its_own_config(tmp_path):
    assert build_parser() is build_parser()
    gap, mfgap = tmp_path / "gap.csv", tmp_path / "mfgap.csv"
    assert run_cli(["gap", "--reps", "40", "--N", "10",
                    "--out", str(gap)]) == 0
    assert run_cli(["mfgap", "--out", str(mfgap)]) == 0
    first = json.loads(gap.read_text().splitlines()[0][2:])
    second = json.loads(mfgap.read_text().splitlines()[0][2:])
    assert (first["command"], first["reps"], first["N"]) == ("gap", 40, [10])
    assert second == {**config_dict(RunConfig("mfgap")), "out": str(mfgap)}


def test_default_config_matches_shipped_example():
    cfg = parse_config({"command": "region"})
    assert (cfg.a, cfg.b, cfg.c, cfg.T) == (-1.0, 1.0, 1.0, 2.0)
    assert cfg.alpha == (0.0, 0.25, 0.5, 0.75, 1.0)


def _modules_after_cli_import():
    """Names in sys.modules after ``import ccemfg, ccemfg.cli`` in a fresh
    interpreter."""
    import ccemfg

    src = str(Path(ccemfg.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import json, sys, ccemfg, ccemfg.cli; "
            "print(json.dumps(list(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return set(json.loads(out))


def test_package_imports_without_scipy():
    # scipy is a test-only oracle: importing the package and its command
    # line must not load it, in a fresh interpreter
    assert sorted(m for m in _modules_after_cli_import()
                  if m.split(".")[0] == "scipy") == []


def test_package_imports_without_process_pool():
    # the process pool is imported when a pool starts, not on every
    # subcommand
    modules = _modules_after_cli_import()
    assert "multiprocessing" not in modules
    assert "concurrent.futures.process" not in modules
