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


@pytest.mark.parametrize("command,section,key", BAD_NUMBERS)
def test_malformed_number_is_config_error(tmp_path, capsys, command, section, key):
    cfg, _ = make_config(tmp_path)
    text = cfg.read_text()
    if f"[{section}]" in text:
        text, hits = re.subn(rf"^{key} = .*$", f"{key} = abc", text, flags=re.M)
        assert hits == 1
    else:
        text += f"\n[{section}]\n{key} = abc\n"
    cfg.write_text(text)
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err


def test_probe_malformed_time_flag(tmp_path, capsys):
    cfg, _ = make_config(tmp_path, extra="[solve]\neps = 0.1\n")
    assert main(["probe", "--config", str(cfg), "--t", "soon", "--x", "1.2"]) == 2
    assert "--t" in capsys.readouterr().err


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
    assert (out / "trajectory_1.csv").exists()


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
    curves = (out / "curves.csv").read_text().splitlines()
    assert curves[0] == "t,lipschitz,bound,diameter"
    assert len(curves) > 1
    assert _sha256(out / "curves.csv") == \
        "f128ed5f8fade2754fbd7cc69278c641a94780b902eb63f52a04263f8680c513"


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
