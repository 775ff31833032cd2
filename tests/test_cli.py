"""End-to-end command line runs driven in process through main().

Exit code contract: 0 success, 1 numerical failure, 2 configuration error,
3 I/O failure.
"""

import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mfgplan
from mfgplan import ConfigError, SolverParams, cli
from mfgplan.cli import _SECTION_KEYS, load_config, main
from mfgplan.model import COUPLE_TOL
from conftest import registered_copy

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


BASE = """\
[model]
d = 1
F.Mp = 1
lambda = 0
x0 = 0.5
alpha = 1
lip_Fp = 1

[box]
lo = -1
hi = 2
n = {n}

[solver]
cfl = {cfl}
t_end = 1.0
dt_max = 0.01
n_rec = 51

[planning]
eps = {eps}
t_min = 0.2
conv_tol = 10

[run]
seed = 0
out = {out}
"""


def make_config(tmp_path, name="run.cfg", eps="0.1, 0.0125", cfl="0.75",
                n="120", extra=""):
    out = tmp_path / "out"
    path = tmp_path / name
    path.write_text(BASE.format(eps=eps, cfl=cfl, n=n, out=out) + extra)
    return path, out


def test_solve_happy_path(tmp_path, capsys):
    cfg, out = make_config(tmp_path)
    assert main(["solve", "--config", str(cfg)]) == 0
    assert (out / "solution.csv").exists()
    assert (out / "meta.json").exists()
    head = (out / "solution.csv").read_text().splitlines()[0]
    assert head == "t,x_1,U_1"
    meta = json.loads((out / "meta.json").read_text())
    assert meta["eps"] == 0.0125
    assert not meta["aborted"]
    assert set(meta) == {"box", "n_times", "d", "cfl", "dt_max", "t_end", "n_rec",
                         "lambda", "aborted", "steps", "eps"}  # the box once, not as box_*
    assert "wrote" in capsys.readouterr().out


def test_solve_deterministic_bytes(tmp_path):
    cfg, out = make_config(tmp_path)
    assert main(["solve", "--config", str(cfg), "--quiet",
                 "--out", str(tmp_path / "a")]) == 0
    assert main(["solve", "--config", str(cfg), "--quiet",
                 "--out", str(tmp_path / "b")]) == 0
    for name in ("solution.csv", "meta.json"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b


def test_quiet_flag(tmp_path, capsys):
    cfg, _ = make_config(tmp_path)
    assert main(["solve", "--config", str(cfg), "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_bad_cfl_names_field(tmp_path, capsys):
    cfg, _ = make_config(tmp_path, cfl="0")
    assert main(["solve", "--config", str(cfg)]) == 2
    assert "cfl" in capsys.readouterr().err


# (command, section, key): each gets a malformed number
BAD_NUMBERS = [
    ("solve", "box", "n"), ("solve", "solver", "cfl"), ("solve", "solver", "n_rec"),
    ("solve", "run", "seed"), ("solve", "solve", "eps"),
    ("yosida", "yosida", "delta"),
    ("traject", "trajectories", "t1"), ("traject", "trajectories", "t_min"),
    ("traject", "trajectories", "steps"),
    ("halfspace", "halfspace", "t_fit"), ("probe", "probe", "t"),
    ("solve", "model", "d"), ("halfspace", "halfspace", "ftilde.Mp"),
]


# (command, section, key, value): numbers out of their range, checked before any solve
OUT_OF_RANGE = [
    ("solve", "run", "seed", "-1"),
    # a nan tolerance passes or fails every check it is compared in
    ("plan", "planning", "conv_tol", "nan"), ("yosida", "yosida", "delta", "nan"),
    # no field is recorded outside [0, t_end]: a time there would be clamped,
    # snapped to a face or dropped in place of refused
    ("plan", "planning", "t_min", "-0.5"), ("plan", "planning", "t_min", "nan"),
    ("yosida", "yosida", "times", "0.5, 0.52, 7.0"),
    ("yosida", "yosida", "times", "0.5, 0.52, nan"),
    ("verify", "verify", "times", "0.4, 9.0"), ("verify", "verify", "times", "0.4, -3"),
    ("verify", "verify", "times", "0.4, nan"),
    # a start off the box reads an extrapolated field
    ("traject", "trajectories", "starts", "5.0"), ("traject", "trajectories", "starts", "nan"),
    # a nan or inf eps gives no penalized data
    ("solve", "solve", "eps", "nan"), ("solve", "solve", "eps", "inf"),
    ("plan", "planning", "eps", "inf"),
]


# (command, section, key, value): keys whose values became constants of their
# checks; any value, malformed and out of range ones too, is refused for the
# key's name, so a config that sets one never runs with the constant in its place
RETIRED_KEYS = [
    *((command, section, key, "abc") for command, section, key in (
        ("halfspace", "halfspace", "x1_min"), ("halfspace", "halfspace", "x1_max"),
        ("halfspace", "halfspace", "n_tail"), ("verify", "verify", "M"),
        ("verify", "verify", "n_pairs"), ("verify", "verify", "tol_mono"),
        ("verify", "verify", "cross_tol"))),
    ("halfspace", "halfspace", "x1_min", "0"), ("halfspace", "halfspace", "x1_max", "1"),
    ("halfspace", "halfspace", "x1_min", "0.95"), ("halfspace", "halfspace", "n_tail", "0"),
    ("halfspace", "halfspace", "n_tail", "1"), ("verify", "verify", "n_pairs", "0"),
    ("verify", "verify", "M", "nan"), ("verify", "verify", "tol_mono", "nan"),
    ("verify", "verify", "cross_tol", "nan"),
]
BAD_INPUTS = [(*case, "abc") for case in BAD_NUMBERS] + OUT_OF_RANGE + RETIRED_KEYS


@pytest.mark.parametrize("command,section,key,value", BAD_INPUTS, ids=[
    "-".join(case[:3]) + ("" if case[3] == "abc" else f"={case[3]}") for case in BAD_INPUTS])
def test_malformed_number_is_config_error(tmp_path, capsys, command, section, key, value):
    cfg, out = make_config(tmp_path)
    text = cfg.read_text()
    if f"[{section}]" in text:
        text, hits = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        assert hits == 1
    else:
        text += f"\n[{section}]\n{key} = {value}\n"
    cfg.write_text(text)
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    retired = (command, section, key, value) in RETIRED_KEYS
    assert (f"[{section}] {key} is not a known key" in err) == retired, err
    assert not out.exists()


# (command, section, key): a misspelled key, or a section the CLI does not
# know, is refused instead of silently leaving its default in place
UNKNOWN_KEYS = [
    ("solve", "solver", "dt_mx"), ("solve", "box", "N"), ("solve", "run", "outdir"),
    ("solve", "model", "lamda"), ("solve", "model", "F.Mq"), ("plan", "planning", "epsilon"),
    ("solve", "solve", "eps_"), ("yosida", "yosida", "time"),
    ("traject", "trajectories", "start"), ("halfspace", "halfspace", "ftilde.M"),
    ("verify", "verify", "tolmono"), ("probe", "probe", "xx"), ("solve", "sovler", "cfl"),
    ("solve", "DEFAULT", "seed"), ("solve", "solver", "visc"), ("plan", "planning", "delta"),
    ("halfspace", "halfspace", "x1_min"), ("halfspace", "halfspace", "x1_max"),
    ("halfspace", "halfspace", "n_tail"), ("verify", "verify", "M"),
    ("verify", "verify", "n_pairs"), ("verify", "verify", "tol_mono"),
    ("verify", "verify", "cross_tol"),
]


@pytest.mark.parametrize("command,section,key", UNKNOWN_KEYS,
                         ids=["-".join(case) for case in UNKNOWN_KEYS])
def test_unknown_key_is_config_error(tmp_path, capsys, command, section, key):
    cfg, out = make_config(tmp_path)
    text = cfg.read_text()
    if f"[{section}]" in text:
        text = text.replace(f"[{section}]\n", f"[{section}]\n{key} = 1\n")
    else:
        text += f"\n[{section}]\n{key} = 1\n"
    cfg.write_text(text)
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert (f"[{section}]" if section == "sovler" else f"[{section}] {key}") in err
    assert not out.exists()


def test_solver_keys_are_the_solver_params():
    # a knob dropped from one side and left on the other is a key that reaches
    # no solve, or a control no config can set
    assert set(_SECTION_KEYS["solver"]) == {f.name for f in dataclasses.fields(SolverParams)}


@pytest.mark.parametrize("command", ["solve", "plan", "yosida", "traject", "halfspace",
                                     "verify", "probe"])
def test_empty_eps_schedule_is_config_error(tmp_path, capsys, command):
    # so are an increasing and a non-positive schedule: the single-solve
    # commands read the schedule's last eps as its smallest
    for eps in ("", "0.05, 0.2", "0.1, 0"):
        cfg, out = make_config(tmp_path, eps=eps)
        assert main([command, "--config", str(cfg)]) == 2, eps
        err = capsys.readouterr().err
        assert "config error" in err and "[planning] eps" in err
        assert not out.exists()


# (section, key, value): numbers no solve can use, refused while the config loads;
# a solve with t_end = nan or inf would never land a record
NONFINITE = [("solver", "t_end", "nan"), ("solver", "t_end", "inf"),
             ("solver", "dt_max", "nan"), ("box", "lo", "nan"), ("box", "hi", "inf")]


@pytest.mark.parametrize("section,key,value", NONFINITE,
                         ids=["-".join(case) for case in NONFINITE])
def test_nonfinite_number_is_config_error(tmp_path, section, key, value):
    cfg, _ = make_config(tmp_path)
    text, hits = re.subn(rf"^{key} = .*$", f"{key} = {value}", cfg.read_text(), flags=re.M)
    assert hits == 1
    cfg.write_text(text)
    with pytest.raises(ConfigError, match=rf"^{section}\.{key} must be finite"
                                          if section == "solver" else r"^box lo and hi"):
        load_config(cfg)


# (file edited, edit): what configparser itself refuses, in a run config or a model file
MALFORMED_INI = {
    "duplicate-section": ("run.cfg", lambda text: text + "\n[box]\nn = 60\n"),
    "duplicate-key": ("run.cfg",
                      lambda text: text.replace("cfl = 0.75\n", "cfl = 0.75\ncfl = 0.5\n")),
    "duplicate-model-key": ("m.model", lambda text: text + "d = 1\n"),
    "no-section-header": ("run.cfg", lambda text: "cfl = 0.5\n" + text),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INI))
def test_malformed_file_is_config_error(tmp_path, capsys, case):
    name, edit = MALFORMED_INI[case]
    (tmp_path / "m.model").write_text((CONFIGS / "lq0.model").read_text())
    cfg = tmp_path / "run.cfg"
    cfg.write_text((CONFIGS / "lq0.cfg").read_text().replace("file = lq0.model", "file = m.model"))
    path = tmp_path / name
    path.write_text(edit(path.read_text()))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    kind = "model" if name == "m.model" else "config"
    assert err.startswith(f"config error: malformed {kind} file: ")
    assert f"'{path.resolve()}'" in err
    assert err.count("\n") == 1 and not out.exists()


def test_model_file_with_other_keys_is_config_error(tmp_path, capsys):
    # a [model] section naming a file reads nothing else from the config
    (tmp_path / "m.model").write_text((CONFIGS / "lq0.model").read_text())
    cfg = tmp_path / "run.cfg"
    cfg.write_text((CONFIGS / "lq0.cfg").read_text().replace(
        "file = lq0.model", "file = m.model\nx0 = 0.7"))
    flags = ["--config", str(cfg), "--out", str(tmp_path / "out")]
    assert main(["solve", *flags]) == 2
    assert "[model] x0" in capsys.readouterr().err
    # a misspelled key inside the model file is refused too
    (tmp_path / "m.model").write_text((CONFIGS / "lq0.model").read_text() + "lip_FX = 1\n")
    cfg.write_text((CONFIGS / "lq0.cfg").read_text().replace("file = lq0.model", "file = m.model"))
    assert main(["solve", *flags]) == 2
    assert "[model] lip_FX" in capsys.readouterr().err


def test_negative_lipschitz_constant_is_config_error(tmp_path, capsys):
    # the constants are norms: a negative one is refused, from a model file
    # and from an inline [model] alike, before any solve. The affine lq0 couple
    # derives lip_Gx = 0, so -1 contradicts it; a registered couple keeps its
    # declared values, and the range check refuses -1.
    (tmp_path / "m.model").write_text((CONFIGS / "lq0.model").read_text()
                                      .replace("lip_Gx = 0", "lip_Gx = -1"))
    cfg = tmp_path / "run.cfg"
    cfg.write_text((CONFIGS / "lq0.cfg").read_text().replace("file = lq0.model", "file = m.model"))
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 2
    assert "[model] lip_Gx = -1 is declared, but the affine couple gives 0" in \
        capsys.readouterr().err
    inline, _ = make_config(tmp_path, name="inline.cfg")
    inline.write_text(inline.read_text().replace(
        "F.Mp = 1\n", "F.kind = registered\nF.name = capped_x1_burgers\n").replace(
        "lip_Fp = 1\n", "lip_Fp = 1\nlip_Gx = -1\n"))
    assert main(["verify", "--config", str(inline), "--out", str(tmp_path / "b")]) == 2
    assert "[model] lip_Gx must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()


def test_probe_malformed_time_flag(tmp_path, capsys):
    cfg, _ = make_config(tmp_path, extra="[solve]\neps = 0.1\n")
    assert main(["probe", "--config", str(cfg), "--t", "soon", "--x", "1.2"]) == 2
    assert "--t" in capsys.readouterr().err


def test_negative_seed_flag_is_config_error(tmp_path, capsys):
    cfg, _ = make_config(tmp_path)
    assert main(["solve", "--config", str(cfg), "--seed", "-1"]) == 2
    assert "--seed" in capsys.readouterr().err


# (command, config text added or replaced, extra flags, the key the error names):
# a field is only recorded on [0, t_end], so no time outside it is answered
OUT_OF_HORIZON = {
    "probe-flag": ("probe", "[solve]\neps = 0.1\n", ["--t", "5", "--x", "1.2"], "--t"),
    "probe-negative": ("probe", "[solve]\neps = 0.1\n", ["--t", "-0.1", "--x", "1.2"], "--t"),
    "probe-config": ("probe", "[solve]\neps = 0.1\n[probe]\nt = 5\nx = 1.2\n", [],
                     "[probe] t"),
    "traject-t1": ("traject", "[trajectories]\nt1 = 3\n", [], "t1"),
    "halfspace-t_fit": ("halfspace", "t_fit = 5", [], "t_fit"),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_HORIZON))
def test_time_outside_the_horizon_is_config_error(tmp_path, capsys, case):
    command, text, flags, key = OUT_OF_HORIZON[case]
    if command == "halfspace":
        cfg = tmp_path / "halfspace.cfg"
        cfg.write_text(re.sub(r"^t_fit = .*$", text,
                              (CONFIGS / "halfspace.cfg").read_text(), flags=re.M))
    else:
        cfg, _ = make_config(tmp_path, extra=text)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out"), *flags]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err and "t_end" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["solve", "plan", "yosida", "traject", "verify", "probe"])
def test_halfspace_config_is_refused_by_other_commands(tmp_path, capsys, monkeypatch, command):
    # [halfspace]'s box is read in straightened coordinates: any other command
    # would march the base model on it, so it is refused before any solve
    def no_solve(*args, **kwargs):
        raise AssertionError("solved a [halfspace] config")

    monkeypatch.setattr(cli, "solve_master", no_solve)
    monkeypatch.setattr(cli, "run_penalization", no_solve)
    out = tmp_path / "out"
    assert main([command, "--config", str(CONFIGS / "halfspace.cfg"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "[halfspace]" in err
    assert f"the halfspace command, not {command}" in err
    assert not out.exists()


def test_halfspace_command_refuses_a_config_without_the_section(tmp_path, capsys, monkeypatch):
    # lq0.cfg has no [halfspace]: the command used to march it unstraightened and
    # exit 0 with a report whose every check failed
    def no_solve(*args, **kwargs):
        raise AssertionError("solved a config without [halfspace]")

    monkeypatch.setattr(cli, "run_penalization", no_solve)
    out = tmp_path / "out"
    assert main(["halfspace", "--config", str(CONFIGS / "lq0.cfg"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "needs a [halfspace] section" in err
    assert not out.exists()


def test_yosida_needs_three_records(tmp_path, capsys):
    # without [yosida] times the command regularizes the middle record and
    # its two neighbours
    cfg, _ = make_config(tmp_path)
    cfg.write_text(cfg.read_text().replace("n_rec = 51", "n_rec = 2"))
    assert main(["yosida", "--config", str(cfg)]) == 2
    assert "n_rec" in capsys.readouterr().err


def test_module_entry_point():
    src = Path(mfgplan.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-m", "mfgplan.cli"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2  # argparse: a command is required
    assert "usage: mfgplan" in done.stderr


def test_every_export_resolves():
    # a name dropped from a module but left in __all__ breaks `from mfgplan import *`
    assert [name for name in mfgplan.__all__ if not hasattr(mfgplan, name)] == []
    assert len(set(mfgplan.__all__)) == len(mfgplan.__all__)


def test_missing_config_file(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path / "absent.cfg")]) == 2
    assert "config error" in capsys.readouterr().err


def test_missing_model_file(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("[model]\nfile = nowhere.model\n")
    assert main(["solve", "--config", str(path)]) == 2


def test_blowup_exits_1(tmp_path, capsys):
    # eps = 1e-15 makes the initial slope 1e15, beyond the overflow guard
    cfg, _ = make_config(tmp_path, extra="[solve]\neps = 1e-15\n")
    assert main(["solve", "--config", str(cfg)]) == 1
    assert "last stable time" in capsys.readouterr().err


def test_out_path_collision_exits_3(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    cfg, _ = make_config(tmp_path)
    assert main(["solve", "--config", str(cfg), "--quiet",
                 "--out", str(blocker)]) == 3


def test_plan_outputs(tmp_path):
    cfg, out = make_config(tmp_path, eps="0.1, 0.05, 0.025")
    assert main(["plan", "--config", str(cfg), "--quiet"]) == 0
    for name in ("solution.csv", "meta.json", "convergence.csv", "report.json"):
        assert (out / name).exists()
    rows = (out / "convergence.csv").read_text().splitlines()
    assert rows[0] == "eps_coarse,eps_fine,gap"
    assert len(rows) == 3
    rep = json.loads((out / "report.json").read_text())
    assert rep["eps"] == [0.1, 0.05, 0.025]
    assert len(rep["gaps"]) == 2
    assert rep["gaps"][0] > rep["gaps"][1]


def test_plan_single_eps_warns(tmp_path, capsys):
    cfg, out = make_config(tmp_path, eps="0.1")
    assert main(["plan", "--config", str(cfg)]) == 0
    assert "warning" in capsys.readouterr().out
    assert (out / "solution.csv").exists()
    assert (out / "convergence.csv").read_text().splitlines() == [
        "eps_coarse,eps_fine,gap"]


def test_yosida_outputs(tmp_path):
    cfg, out = make_config(tmp_path, extra="[yosida]\ndelta = 0.25\n")
    assert main(["yosida", "--config", str(cfg), "--quiet"]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["delta"] == 0.25
    assert rep["excluded_nodes"] == 0
    assert rep["residual_max"] <= 0.1
    assert (out / "v_slices.csv").exists()
    res_head = (out / "eqv_residual.csv").read_text().splitlines()[0]
    assert res_head == "x_1,residual,excluded"


def test_yosida_times_are_sorted(tmp_path):
    # dV/dt at the middle time is taken from its neighbours in time, so the
    # order the times are listed in must not matter
    outputs = {}
    for tag, times in (("sorted", "0.3, 0.4, 0.5"), ("shuffled", "0.5, 0.3, 0.4")):
        (tmp_path / tag).mkdir()
        cfg, out = make_config(tmp_path / tag, extra=f"[yosida]\ndelta = 0.25\ntimes = {times}\n")
        assert main(["yosida", "--config", str(cfg), "--quiet"]) == 0
        outputs[tag] = [(out / name).read_bytes()
                        for name in ("report.json", "eqv_residual.csv", "v_slices.csv")]
    assert outputs["shuffled"] == outputs["sorted"]
    assert json.loads(outputs["sorted"][0])["residual_max"] <= 0.2


@pytest.mark.parametrize("times, snapped", [("0.3, 0.31, 0.5", "0.3, 0.3, 0.5"),
                                            ("0.3, 0.3, 0.3", "0.3, 0.3, 0.3")])
def test_yosida_times_need_three_distinct_records(tmp_path, capsys, times, snapped):
    # n_rec = 51 records every 0.02, so 0.31 snaps onto 0.3
    cfg, _ = make_config(tmp_path, extra=f"[yosida]\ntimes = {times}\n")
    assert main(["yosida", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "[yosida] times" in err and snapped in err


def test_traject_outputs(tmp_path):
    extra = "[trajectories]\nstarts = 1.0; -0.25\nt1 = 1.0\nt_min = 0.1\nsteps = 150\n"
    cfg, out = make_config(tmp_path, extra=extra)
    assert main(["traject", "--config", str(cfg), "--quiet"]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert len(rep["trajectories"]) == 2
    for rec in rep["trajectories"]:
        assert rec["converging"]
        # coarse-grid interpolation noise dominates the defect here
        assert rec["value_defect"] <= 0.5
    head = (out / "trajectory_0.csv").read_text().splitlines()[0]
    assert head == "t,x_1,u_1"
    # digests computed when each start was marched in its own call
    for name, digest in TRAJECT_TWO_START_SHA256.items():
        assert _sha256(out / name) == digest, name


TRAJECT_TWO_START_SHA256 = {
    "trajectory_0.csv": "2a770cba1d1fc4b015fc3cd23354b350be329bcb7e7a0b0c06aaad21ab47ea2c",
    "trajectory_1.csv": "19be8b4f794f3cb10cab8b0b3dc6311072afb90eafbbe6c78158cdd02c10b8ec",
    "report.json": "33c4e44f3c03879a39a054e3bb40981847b5aa293843001daa42ad48e01024af",
}


def test_traject_exit_writes_no_trajectory(tmp_path, capsys):
    # all starts march in one call, so a path that leaves the box stops the
    # command before the first start's file is written; with the source G = 10
    # the path from x = 0 at t = 1 crosses x = -1 on its way back
    extra = "[trajectories]\nstarts = 1.0; 0.0\nt1 = 1.0\nt_min = 0.1\nsteps = 150\n"
    cfg, out = make_config(tmp_path, extra=extra)
    cfg.write_text(cfg.read_text().replace("lambda = 0\n", "lambda = 0\nG.c = 10\n"))
    assert main(["traject", "--config", str(cfg), "--quiet"]) == 1
    assert "trajectory 1 (start 0) left the box" in capsys.readouterr().err
    assert not list(tmp_path.glob("**/trajectory_*.csv"))


@pytest.mark.parametrize("key, value", [("t_min", "2"), ("steps", "0")])
def test_traject_refuses_its_range_before_solving(tmp_path, capsys, monkeypatch, key, value):
    solves = []
    solve = mfgplan.cli.solve_master
    monkeypatch.setattr(mfgplan.cli, "solve_master",
                        lambda *args: solves.append(args) or solve(*args))
    keys = {"t_min": "0.1", "steps": "150", key: value}
    cfg, out = make_config(tmp_path, extra="[trajectories]\nstarts = 1.0\nt1 = 1.0\n"
                           + "".join(f"{k} = {v}\n" for k, v in keys.items()))
    assert main(["traject", "--config", str(cfg), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert f"config error: [trajectories] {key}" in err and "must" in err, err
    assert solves == [] and not out.exists()


def test_traject_refuses_jumps_before_solving(tmp_path, capsys, monkeypatch):
    # trajectories follow the characteristics, which a jump term breaks
    solves = []
    solve = mfgplan.cli.solve_master
    monkeypatch.setattr(mfgplan.cli, "solve_master",
                        lambda *args: solves.append(args) or solve(*args))
    cfg, out = make_config(tmp_path, extra="[trajectories]\nstarts = 1.0\n")
    cfg.write_text(cfg.read_text().replace("lambda = 0\n", "lambda = 1\nS = 0.5\n"))
    assert main(["traject", "--config", str(cfg), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "[model] lambda must be 0" in err, err
    assert solves == [] and not out.exists()


def test_probe_cross_oracle(tmp_path, capsys):
    cfg, _ = make_config(tmp_path, extra="[solve]\neps = 0.1\n")
    assert main(["probe", "--config", str(cfg), "--t", "0.4", "--x", "1.2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    diff_line = [l for l in lines if "difference" in l][0]
    assert float(diff_line.split(":")[1]) <= 2e-2


def test_probe_shoots_short_horizons(tmp_path, capsys):
    # t = 0.0009 on lq0.cfg's smallest eps 0.0001953125: the characteristics
    # give the closed form (x - x0)/(eps + t), transport included
    out = tmp_path / "probe"
    assert main(["probe", "--config", str(CONFIGS / "lq0.cfg"), "--out", str(out),
                 "--t", "0.0009", "--x", "1.2"]) == 0
    line = [l for l in capsys.readouterr().out.splitlines() if "characteristics" in l][0]
    assert float(line.split(":")[1]) == pytest.approx(639.0870185, rel=1e-6)


def test_probe_names_the_records_it_blends(tmp_path, capsys):
    # off a record time the grid value is linear in t between two records;
    # near t = 0 on lq0.cfg that blend, not the march, is what misses the
    # characteristics, so probe names both records and the grid value at each
    args = ["probe", "--config", str(CONFIGS / "lq0.cfg"), "--out", str(tmp_path / "probe"),
            "--x", "1.2", "--t"]
    assert main(args + ["0.0009"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    grid = float(lines[0].split(":")[1])
    assert grid == pytest.approx(3267.57392531, rel=1e-9)
    head, tail = lines[3].split(": ")
    assert head == "grid value between records, linear in t"
    ends = [part.split(" at t=") for part in tail.split(", ")]
    assert [float(t) for _, t in ends] == [0.0, 0.01]
    (v0, _), (v1, _) = ends
    assert float(v0) == pytest.approx(3584.0, rel=1e-9)
    assert float(v1) == pytest.approx(68.1547256273, rel=1e-9)
    assert 0.91 * float(v0) + 0.09 * float(v1) == pytest.approx(grid, rel=1e-9)
    assert main(args + ["0.01"]) == 0  # a record time: the three lines alone
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 and not any("between records" in line for line in lines)
    assert float(lines[0].split(":")[1]) == pytest.approx(68.1547256273, rel=1e-9)


def test_probe_malformed_point(tmp_path, capsys):
    cfg, _ = make_config(tmp_path, extra="[solve]\neps = 0.1\n")
    assert main(["probe", "--config", str(cfg), "--t", "0.4", "--x", "1.2,bogus"]) == 2
    assert "comma-separated numbers" in capsys.readouterr().err


def test_probe_refuses_a_point_outside_the_box(tmp_path, capsys):
    # off the box the grid value would be the clamped linear extrapolation
    # (8.93111897956 at x = 5, against shooting's 8.99648574775); a face is inside
    args = ["probe", "--config", str(CONFIGS / "lq0.cfg"), "--out", str(tmp_path / "probe"),
            "--t", "0.5", "--x"]
    assert main(args + ["5"]) == 2
    err = capsys.readouterr().err
    assert "config error: probe x = 5 lies outside the box [-1, 2]" in err
    assert main(args + ["2"]) == 0
    assert capsys.readouterr().out.startswith("grid value at (t=0.5, x=2): ")


def test_probe_rejects_jumps(tmp_path, capsys):
    path = tmp_path / "jump.cfg"
    path.write_text("[model]\nd = 1\nF.Mp = 1\nlambda = 1\nS = 0.5\n"
                    "[probe]\nt = 0.4\nx = 1.0\n")
    assert main(["probe", "--config", str(path)]) == 2
    assert "lambda" in capsys.readouterr().err


def test_probe_exploding_characteristic_exits_1(tmp_path, capsys, monkeypatch):
    # G = 5000 p overflows on the grid and along the characteristics alike; the
    # grid is solved without the source so that shooting is what fails. The
    # couple derives alpha = 0, so BASE's declared alpha = 1 goes.
    cfg, _ = make_config(tmp_path, extra="[solve]\neps = 0.1\n")
    cfg.write_text(cfg.read_text().replace("F.Mp = 1\n", "F.Mp = 1\nG.Mp = 5000\n")
                   .replace("alpha = 1\n", ""))
    solve = mfgplan.cli.solve_master
    monkeypatch.setattr(mfgplan.cli, "solve_master", lambda m, data, params: solve(
        dataclasses.replace(m, G=mfgplan.FieldSpec.affine(0.0, 0.0, d=1)), data, params))
    assert main(["probe", "--config", str(cfg), "--t", "0.4", "--x", "0.6"]) == 1
    err = capsys.readouterr().err
    assert "numerical failure: characteristic blew up" in err
    assert "RuntimeWarning" not in err


def test_verify_reference_config(tmp_path, capsys):
    cfg = CONFIGS / "lq0.cfg"
    out = tmp_path / "verify"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    text = capsys.readouterr().out
    for check in ("couple_monotonicity", "penalization_cauchy", "certificate",
                  "graph_limit", "cross_monotonicity"):
        assert f"{check}: pass" in text
    rep = json.loads((out / "report.json").read_text())
    assert all(v for v in rep["checks"].values())
    assert rep["certificate"]["times"] == [0.8, 0.4, 0.2]  # snapped, in the order given
    curves = (out / "curves.csv").read_text().splitlines()
    assert curves[0] == "t,lipschitz,bound,diameter"
    assert len(curves) > 1
    assert _sha256(out / "curves.csv") == \
        "f128ed5f8fade2754fbd7cc69278c641a94780b902eb63f52a04263f8680c513"
    assert _sha256(out / "report.json") == \
        "23c11eabe7b86081fcf53a3cf92b56b17a73baf0011208c8f0ad201f15c3abc5"


def test_lq0_model_without_constants_verifies_identically(tmp_path):
    # lq0's affine couple derives the five constants its model file declares
    text = (CONFIGS / "lq0.model").read_text()
    bare = "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith(("alpha", "lip_")))
    assert len(bare.splitlines()) == len(text.splitlines()) - 5
    (tmp_path / "bare.model").write_text(bare)
    cfg = tmp_path / "bare.cfg"
    cfg.write_text((CONFIGS / "lq0.cfg").read_text().replace("lq0.model", "bare.model"))
    outputs = []
    for config, out in ((CONFIGS / "lq0.cfg", tmp_path / "lq0"), (cfg, tmp_path / "bare")):
        assert main(["verify", "--config", str(config), "--quiet", "--out", str(out)]) == 0
        outputs.append([(out / name).read_bytes() for name in ("report.json", "curves.csv")])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("model, key", [
    # monotone, but with no modulus in p: the couple derives alpha = 0
    ("F.Mp = 0\nG.Mx = 1\nalpha = 1\n", "alpha = 1 is declared, but the affine couple gives 0"),
    # F = p, G = x: |DxG| = 1, where lip_Gx = 0 would stretch the certificate window
    ("F.Mp = 1\nG.Mx = 1\nalpha = 1\nlip_Fp = 1\nlip_Gx = 0\n",
     "lip_Gx = 0 is declared, but the affine couple gives 1"),
], ids=["alpha", "lip_Gx"])
def test_contradicting_declared_constant_exits_2(tmp_path, capsys, model, key):
    cfg, out = make_config(tmp_path)
    declared = "F.Mp = 1\nlambda = 0\nx0 = 0.5\nalpha = 1\nlip_Fp = 1\n"  # BASE's model
    cfg.write_text(cfg.read_text().replace(declared, f"{model}lambda = 0\nx0 = 0.5\n"))
    assert main(["verify", "--config", str(cfg)]) == 2
    assert f"[model] {key}" in capsys.readouterr().err
    assert not out.exists()


registered_copy("cli_source_x", mfgplan.FieldSpec.affine(1.0, 0.0, d=1))


def test_over_declared_alpha_fails_the_couple_check(tmp_path, capsys):
    # F = p with a registered G = x: the couple's modulus is 1, and a
    # registered couple keeps its declared alpha = 2, which the sampled
    # second modulus refutes
    cfg, out = make_config(tmp_path)
    cfg.write_text(cfg.read_text().replace("alpha = 1", "alpha = 2").replace(
        "F.Mp = 1\n", "F.Mp = 1\nG.kind = registered\nG.name = cli_source_x\n"))
    assert main(["verify", "--config", str(cfg)]) == 1
    assert "couple_monotonicity: FAIL" in capsys.readouterr().out
    rep = json.loads((out / "report.json").read_text())
    assert rep["couple_monotonicity"]["alpha"] == 2.0
    assert rep["couple_monotonicity"]["min_pairing"] >= 0.0
    assert rep["couple_monotonicity"]["min_second_modulus"] < -COUPLE_TOL
    assert rep["checks"]["couple_monotonicity"] is False


def test_verify_drops_times_snapping_to_one_record(tmp_path):
    # records every 0.02: 0.404 snaps to the record 0.4 as well
    outputs = {}
    for times in ("0.8, 0.4, 0.2", "0.8, 0.4, 0.404, 0.2"):
        cfg, out = make_config(tmp_path, name=f"{len(times)}.cfg",
                               extra=f"[verify]\ntimes = {times}\n")
        assert main(["verify", "--config", str(cfg), "--quiet", "--out", str(out)]) in (0, 1)
        outputs[times] = [(out / name).read_bytes() for name in ("report.json", "curves.csv")]
    assert outputs["0.8, 0.4, 0.404, 0.2"] == outputs["0.8, 0.4, 0.2"]
    assert json.loads(outputs["0.8, 0.4, 0.2"][0])["certificate"]["times"] == [0.8, 0.4, 0.2]


def test_halfspace_reference_config(tmp_path):
    cfg = CONFIGS / "halfspace.cfg"
    out = tmp_path / "hs"
    assert main(["halfspace", "--config", str(cfg), "--quiet",
                 "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["factorization_defect"] <= 1e-12
    assert rep["inward_flow_min"] >= -1e-9
    assert rep["log_fit"]["residual"] <= 1e-3
    assert rep["log_fit"]["a"] > 0
    assert rep["chain_rule_defect"] <= 2e-2
    assert rep["chain_rule_defect"] == 1.2047349784438666e-06  # as computed point by point
    assert (out / "halfspace_y.csv").exists()
    assert _sha256(out / "halfspace_y.csv") == \
        "7d9e6854576dadbd6da46c5c9382c14df57b4985293398fcab8c7123f52697f6"
    assert _sha256(out / "report.json") == \
        "831036d36696e34dc86b0e15d324b2479e597603507cf4e0d3a8c5d38a975441"


# sha256 of the tables each command writes from configs/lq0.cfg; plan's
# meta.json holds one line for each of the 12 eps
LQ0_TABLES = {
    "plan": {"convergence.csv":
             "a9609c1d7ea01e3fb17d9a64ae8da9fc493156393719d4a80a8abfdfd986a28f",
             "meta.json":
             "3492f9c20577562352c18a758f18cf044553dfae80a3b944d2a9ee865d0fd2c9"},
    "yosida": {"eqv_residual.csv":
               "334695bf0d0e1e7dae2cda1ef9f20d8eabff21d990e13e5151f61a2f225a7f17",
               "v_slices.csv":
               "b07622fa957fb165361f77fe1adce9ee6d6b458ba2a51c5b475c973d1f0a75c3"},
    "traject": {"trajectory_0.csv":
                "4ab02b96d9b480f3c624ca00a961ab8a44abbc5fff9b35d092135ae99a6ae7a0"},
}


@pytest.mark.parametrize("command", sorted(LQ0_TABLES))
def test_reference_config_table_digests(tmp_path, command):
    out = tmp_path / command
    assert main([command, "--config", str(CONFIGS / "lq0.cfg"), "--quiet",
                 "--out", str(out)]) == 0
    for name, digest in LQ0_TABLES[command].items():
        assert _sha256(out / name) == digest, name


JUMP_2D = """\
[model]
d = 2
F.Mp = 1
G.Mx = 0.5
lambda = 0.8
S = 0.5, 0.1; -0.1, 0.5
e = 0.05, -0.02
x0 = 0.5, 0.4
alpha = 1
lip_Fp = 1

[box]
lo = -1
hi = 2
n = 24

[solver]
n_rec = 11
t_end = 0.5

[planning]
eps = 0.2, 0.1

[yosida]
delta = 0.2
"""


def test_yosida_2d_jump_digests(tmp_path):
    # two node columns, a relabeling gather and the excluded column
    cfg = tmp_path / "jump2d.cfg"
    cfg.write_text(JUMP_2D)
    out = tmp_path / "out"
    assert main(["yosida", "--config", str(cfg), "--quiet", "--out", str(out)]) == 0
    assert (out / "eqv_residual.csv").read_text().splitlines()[0] == \
        "x_1,x_2,residual,excluded"
    assert _sha256(out / "eqv_residual.csv") == \
        "98305c7d026e0e2ab4e9fc4d2023d504bdf5a63ff4e70238569032d747860764"
    assert _sha256(out / "v_slices.csv") == \
        "677dec17fff7d3012133a306fc7c2a8d233e8257d8fd479dafba5065775c4e03"


# sha256 of the solutions plan keeps when its last eps blows up (F = -p: the
# slope (x - x0)/(eps - t) blows up near t = eps, so only eps = 0.1 fails
# before t_end = 0.3)
PLAN_BLOWUP_SHA256 = {
    "solution_eps_0.csv": "e23c1796fa456be9bef8a1c969633e67957640b4bf6b3b5c5a364560a7d2981d",
    "solution_eps_1.csv": "196e9d2a8fc21471276090328bb8304f685e359a3c3d08f5039a74f77b58dd90",
}


def test_plan_last_eps_blowup_keeps_finished_solutions(tmp_path, capsys):
    # F = -p is not monotone: it derives alpha = 0, so BASE's declared alpha = 1 goes
    cfg, out = make_config(tmp_path, eps="0.8, 0.4, 0.1", n="60")
    cfg.write_text(cfg.read_text().replace("F.Mp = 1", "F.Mp = -1").replace("alpha = 1\n", "")
                   .replace("t_end = 1.0", "t_end = 0.3").replace("n_rec = 51", "n_rec = 31"))
    assert main(["plan", "--config", str(cfg), "--quiet"]) == 1
    assert capsys.readouterr().err == ("numerical failure: solution exceeded the overflow "
                                       "guard at t=0.10246 (last stable time 0.10246)\n")
    assert sorted(p.name for p in out.iterdir()) == sorted(PLAN_BLOWUP_SHA256)
    for name, digest in PLAN_BLOWUP_SHA256.items():
        assert _sha256(out / name) == digest
