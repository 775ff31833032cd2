"""End-to-end command line runs driven in process through main().

Exit code contract: 0 success, 1 numerical failure, 2 configuration error,
3 I/O failure.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mfgplan
from mfgplan.cli import main

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
visc = 0
t_end = 1.0
dt_max = 0.01
n_rec = 51

[planning]
eps = {eps}
delta = 0.25
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
    ("solve", "planning", "delta"), ("solve", "run", "seed"), ("solve", "solve", "eps"),
    ("yosida", "yosida", "delta"),
    ("traject", "trajectories", "t1"), ("traject", "trajectories", "t_min"),
    ("traject", "trajectories", "steps"),
    ("halfspace", "halfspace", "t_fit"), ("halfspace", "halfspace", "x1_min"),
    ("halfspace", "halfspace", "x1_max"), ("halfspace", "halfspace", "n_tail"),
    ("verify", "verify", "M"), ("verify", "verify", "n_pairs"),
    ("verify", "verify", "tol_mono"), ("verify", "verify", "cross_tol"),
    ("probe", "probe", "t"),
    ("solve", "model", "d"), ("halfspace", "halfspace", "ftilde.Mp"),
]


# (command, section, key, value): numbers out of their range, checked before any solve
OUT_OF_RANGE = [
    ("halfspace", "halfspace", "x1_min", "0"), ("halfspace", "halfspace", "x1_max", "1"),
    ("halfspace", "halfspace", "x1_min", "0.95"), ("halfspace", "halfspace", "n_tail", "0"),
    ("halfspace", "halfspace", "n_tail", "1"), ("solve", "run", "seed", "-1"),
    ("verify", "verify", "n_pairs", "0"),
]
BAD_INPUTS = [(*case, "abc") for case in BAD_NUMBERS] + OUT_OF_RANGE


@pytest.mark.parametrize("command,section,key,value", BAD_INPUTS, ids=[
    "-".join(case[:3]) + ("" if case[3] == "abc" else f"={case[3]}") for case in BAD_INPUTS])
def test_malformed_number_is_config_error(tmp_path, capsys, command, section, key, value):
    cfg, _ = make_config(tmp_path)
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
    # all starts march in one call, so a start outside the box stops the
    # command before the first start's file is written
    extra = "[trajectories]\nstarts = 1.0; 3.0\nt1 = 1.0\nt_min = 0.1\nsteps = 150\n"
    cfg, out = make_config(tmp_path, extra=extra)
    assert main(["traject", "--config", str(cfg), "--quiet"]) == 1
    assert "trajectory 1 (start 3) left the box" in capsys.readouterr().err
    assert not list(tmp_path.glob("**/trajectory_*.csv"))


def test_probe_cross_oracle(tmp_path, capsys):
    cfg, _ = make_config(tmp_path, extra="[solve]\neps = 0.1\n")
    assert main(["probe", "--config", str(cfg), "--t", "0.4", "--x", "1.2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    diff_line = [l for l in lines if "difference" in l][0]
    assert float(diff_line.split(":")[1]) <= 2e-2


def test_probe_malformed_point(tmp_path, capsys):
    cfg, _ = make_config(tmp_path, extra="[solve]\neps = 0.1\n")
    assert main(["probe", "--config", str(cfg), "--t", "0.4", "--x", "1.2,bogus"]) == 2
    assert "comma-separated numbers" in capsys.readouterr().err


def test_probe_rejects_jumps(tmp_path, capsys):
    path = tmp_path / "jump.cfg"
    path.write_text("[model]\nd = 1\nF.Mp = 1\nlambda = 1\nS = 0.5\n"
                    "[probe]\nt = 0.4\nx = 1.0\n")
    assert main(["probe", "--config", str(path)]) == 2
    assert "lambda" in capsys.readouterr().err


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


# sha256 of the tables each command writes from configs/lq0.cfg
LQ0_TABLES = {
    "plan": {"convergence.csv":
             "a9609c1d7ea01e3fb17d9a64ae8da9fc493156393719d4a80a8abfdfd986a28f"},
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
    cfg, out = make_config(tmp_path, eps="0.8, 0.4, 0.1", n="60")
    cfg.write_text(cfg.read_text().replace("F.Mp = 1", "F.Mp = -1")
                   .replace("t_end = 1.0", "t_end = 0.3").replace("n_rec = 51", "n_rec = 31"))
    assert main(["plan", "--config", str(cfg), "--quiet"]) == 1
    assert capsys.readouterr().err == ("numerical failure: solution exceeded the overflow "
                                       "guard at t=0.10246 (last stable time 0.10246)\n")
    assert sorted(p.name for p in out.iterdir()) == sorted(PLAN_BLOWUP_SHA256)
    for name, digest in PLAN_BLOWUP_SHA256.items():
        assert _sha256(out / name) == digest
