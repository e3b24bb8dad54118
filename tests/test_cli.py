import csv
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cdtopt import baselines, cli, driver, fem
from cdtopt.baselines import METHODS
from cdtopt.driver import IterationRecord, RunRecord


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_run_defaults_and_flags():
    cmd, o = cli.parse_cli(["run", "--problem", "mbb", "--nelx", "60", "--nely", "20",
                            "--volfrac", "0.4", "--mu", "0.97", "--method", "cdt",
                            "--out", "./out"])
    assert cmd == "run"
    assert (o["nelx"], o["nely"], o["volfrac"], o["mu"]) == (60, 20, 0.4, 0.97)
    assert o["E"] == 1.0 and o["nu"] == 0.3 and o["emin"] == 1e-9
    assert o["omega2"] == 1e-2
    assert "tau0" not in o and "omega1" not in o


@pytest.mark.parametrize("method", list(METHODS))
@pytest.mark.parametrize("bad", [["--volfrac", "1.5"], ["--nelx", "0"]], ids=["volfrac", "nelx"])
def test_main_rejects_out_of_range_run_values(tmp_path, method, bad):
    # parse_cli only converts; the config, run_simp or Mesh rejects the value
    assert cli.main(["run", "--method", method, *bad, "--out", str(tmp_path)]) == 1
    assert not list(tmp_path.iterdir())


OUTER_LOOP_BAD = {"max_outer": ["--max-outer", "0"], "omega2": ["--omega2", "-1"],
                  "mu": ["--mu", "1.2"], "mu_below_volfrac": ["--mu", "0.3", "--volfrac", "0.4"]}


@pytest.mark.parametrize("method,bad", [
    pytest.param(method, bad, id=f"{name}-{method}")
    for name, bad in OUTER_LOOP_BAD.items()
    for method in ("beso", "cdt", "simp") if method != "simp" or not name.startswith("mu")
])
def test_main_rejects_bad_outer_loop_config_before_iterating(
        tmp_path, monkeypatch, method, bad):
    # CDT and BESO share CdtConfig, so both refuse these before a solve;
    # SimpConfig refuses the two that SIMP reads (it has no schedule)
    for module in (driver, baselines):
        monkeypatch.setattr(module, "solve_equilibrium",
                            lambda *a, **k: pytest.fail("an outer iteration ran"))
    args = ["run", "--method", method, "--nelx", "12", "--nely", "4", *bad]
    assert cli.main(args + ["--out", str(tmp_path)]) == 1
    assert not list(tmp_path.iterdir())


def test_parse_rejects_unknown_flag():
    with pytest.raises(cli.UsageError):
        cli.parse_cli(["run", "--frobnicate", "3"])


def test_parse_demo_double_well():
    cmd, options = cli.parse_cli(["demo", "--name", "double-well", "--beta", "1",
                                  "--lambda", "2", "--f", "0.5"])
    assert cmd == "demo"
    assert options["lam"] == 2.0 and options["f"] == 0.5


def test_config_file_seeds_defaults_and_flags_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("volfrac = 0.3\nnelx = 12  # comment\nmu = 0.92\n")
    for mu in ("0.95", "0.97"):  # 0.97 repeats the flag's default
        _, options = cli.parse_cli(["run", "--config", str(cfg), "--mu", mu])
        assert options["volfrac"] == 0.3
        assert options["nelx"] == 12
        assert options["mu"] == float(mu)  # explicit flag wins


def test_config_file_seeds_demo_options(tmp_path):
    cfg = tmp_path / "demo.cfg"
    cfg.write_text("epsilon = 0.1\nno-perturb = yes\n")
    _, options = cli.parse_cli(["demo", "--name", "buridan", "--config", str(cfg)])
    assert options["name"] == "buridan"
    assert options["epsilon"] == 0.1
    assert options["no_perturb"] is True


@pytest.mark.parametrize("raw,value", [("ON", True), ("Yes", True), ("1", True),
                                       ("off", False), ("NO", False), ("0", False)])
def test_config_file_boolean_words(tmp_path, raw, value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"ascii_pgm = {raw}\n")
    assert cli.parse_cli(["run", "--config", str(cfg)])[1]["ascii_pgm"] is value


@pytest.mark.parametrize("raw", ["maybe", "2", "", "truthy"])
def test_config_file_rejects_a_non_boolean_for_a_switch(tmp_path, raw):
    # a value that is neither a true nor a false word is a usage error,
    # as an unparsable number is, not a silent False
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"ascii_pgm = {raw}\n")
    with pytest.raises(cli.UsageError, match="ascii_pgm"):
        cli.parse_cli(["run", "--config", str(cfg)])
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("volume = 0.3\n")
    with pytest.raises(cli.UsageError):
        cli.parse_cli(["run", "--config", str(cfg)])


def test_config_file_keys_are_flag_names(tmp_path):
    # ``--lambda`` stores to ``lam``; a file names the flag, with dashes or
    # underscores
    cfg = tmp_path / "demo.cfg"
    cfg.write_text("lambda = 3\n")
    _, options = cli.parse_cli(["demo", "--name", "double-well", "--config", str(cfg)])
    assert options["lam"] == 3.0
    cfg.write_text("lam = 3\n")
    with pytest.raises(cli.UsageError, match="lam"):
        cli.parse_cli(["demo", "--name", "double-well", "--config", str(cfg)])
    for key in ("max-outer", "max_outer"):
        cfg.write_text(f"{key} = 7\n")
        assert cli.parse_cli(["run", "--config", str(cfg)])[1]["max_outer"] == 7


@pytest.mark.parametrize("line", ["method = bogus", "problem = bogus", "nelx = 1.5"])
def test_config_file_values_are_checked_as_flags(tmp_path, line):
    # argparse converts a file's values and checks them against choices
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    with pytest.raises(cli.UsageError, match="bogus|1.5"):
        cli.parse_cli(["run", "--config", str(cfg)])
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("key", ["tau0", "omega1"])
def test_config_file_rejects_removed_knapsack_keys(tmp_path, key):
    # the closed-form selection has no warm start or inner stop rule to set
    cfg = tmp_path / "old.cfg"
    cfg.write_text(f"{key} = 1.0\n")
    with pytest.raises(cli.UsageError, match=key):
        cli.parse_cli(["run", "--config", str(cfg)])


def test_simp_has_no_filter_switch(tmp_path, capsys):
    # --rmin 1 runs SIMP unfiltered; there is no separate switch, as a flag
    # or as a config key
    cfg = tmp_path / "ft.cfg"
    cfg.write_text("ft = 0\n")
    for extra in (["--ft", "0"], ["--config", str(cfg)]):
        code = cli.main(["run", "--method", "simp", "--nelx", "6", "--nely", "3",
                         "--out", str(tmp_path / "out"), *extra])
        assert code == 1
        assert "usage error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# graymap output
# ---------------------------------------------------------------------------

def read_pgm(path):
    """Read back a P5/P2 graymap written by :func:`cli.write_density_pgm`."""
    with open(path, "rb") as fh:
        data = fh.read()
    # four header fields, then one whitespace byte (a pixel may be another)
    header = re.match(rb"(P[25])\s+(\d+)\s+(\d+)\s+\d+\s", data)
    if header is None:
        raise ValueError(f"not a graymap: {data[:2]!r}")
    width, height, raster = int(header[2]), int(header[3]), data[header.end():]
    if header[1] == b"P5":
        img = np.frombuffer(raster[:width * height], dtype=np.uint8)
    else:
        img = np.array(raster.split(), dtype=int)
    return img.reshape(height, width)


def test_pgm_all_solid(tmp_path):
    path = tmp_path / "solid.pgm"
    cli.write_density_pgm(np.ones(4), fem.Mesh((2, 2)), str(path))
    data = path.read_bytes()
    assert data == b"P5\n2 2\n255\n" + bytes([0, 0, 0, 0])


def test_pgm_all_void(tmp_path):
    path = tmp_path / "void.pgm"
    cli.write_density_pgm(np.zeros(4), fem.Mesh((2, 2)), str(path))
    assert path.read_bytes().endswith(bytes([255, 255, 255, 255]))


def test_pgm_checkerboard(tmp_path):
    path = tmp_path / "check.pgm"
    # element e = ex*nely + ey: rho = [1,0,0,1] puts solid at (0,0) and (1,1)
    cli.write_density_pgm(np.array([1.0, 0.0, 0.0, 1.0]), fem.Mesh((2, 2)), str(path))
    assert path.read_bytes().endswith(bytes([0, 255, 255, 0]))


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    cases = [
        ((4, 3), (rng.uniform(size=12) < 0.5).astype(float)),
        # gray levels that are whitespace bytes, the first pixel among them
        ((4, 2), 1.0 - np.array([32, 9, 10, 11, 12, 13, 0, 255]) / 255.0),
    ]
    for dims, rho in cases:
        path = tmp_path / "rt.pgm"
        cli.write_density_pgm(rho, fem.Mesh(dims), str(path))
        img = read_pgm(str(path))
        assert img.shape == dims[::-1]
        recovered = 1.0 - img.T.reshape(-1) / 255.0
        assert np.array_equal(recovered, rho)


def test_pgm_ascii_variant(tmp_path):
    path = tmp_path / "a.pgm"
    cli.write_density_pgm(np.array([1.0, 0.0]), fem.Mesh((2, 1)), str(path),
                          ascii_format=True)
    text = path.read_text()
    assert text.startswith("P2\n2 1\n255\n")
    img = read_pgm(str(path))
    assert img.tolist() == [[0, 255]]


def test_pgm_3d_writes_one_file_per_layer(tmp_path):
    # layer k shows z-layer k: element (ei, ej, ek) is ek*nelx*nely +
    # ei*nely + ej (fem docstring); distinct gray levels expose any permutation
    nelx, nely, nelz = 4, 3, 3
    rho = np.linspace(0.0, 1.0, nelx * nely * nelz)
    paths = cli.write_density_pgm(rho, fem.Mesh((nelx, nely, nelz)), str(tmp_path / "v.pgm"))
    assert [os.path.basename(p) for p in paths] == ["v_z000.pgm", "v_z001.pgm", "v_z002.pgm"]
    for k, path in enumerate(paths):
        img = read_pgm(path)
        assert img.shape == (nely, nelx)
        for ei, ej in np.ndindex(nelx, nely):
            e = k * nelx * nely + ei * nely + ej
            assert img[ej, ei] == np.rint(255.0 * (1.0 - rho[e]))


# ---------------------------------------------------------------------------
# run-record CSV
# ---------------------------------------------------------------------------

def row(gamma, vol):
    return IterationRecord(gamma=gamma, inner_iters=2, volume=vol,
                           compliance=1.0, strain_energy=2.0, P_u=-2.0,
                           P_dual=-2.0, elapsed_ms=1.0)


def test_csv_empty_record_header_only(tmp_path):
    path = tmp_path / "r.csv"
    cli.write_runrecord_csv(RunRecord(method="cdt"), str(path))
    assert path.read_text() == cli.CSV_HEADER + "\n"


def test_csv_rows_and_newlines(tmp_path):
    rec = RunRecord(method="cdt", rows=[row(1, 0.9), row(2, 0.8), row(3, 0.8)])
    path = tmp_path / "r.csv"
    cli.write_runrecord_csv(rec, str(path))
    lines = path.read_text().split("\n")
    assert len(lines) == 5 and lines[-1] == ""
    assert lines[0] == cli.CSV_HEADER
    vols = [float(line.split(",")[2]) for line in lines[1:4]]
    assert vols == sorted(vols, reverse=True)


def test_csv_numeric_parse_round_trip(tmp_path):
    rec = RunRecord(method="cdt", rows=[row(1, 1 / 3)])
    path = tmp_path / "r.csv"
    cli.write_runrecord_csv(rec, str(path))
    fields = path.read_text().splitlines()[1].split(",")
    assert len(fields) == 8
    assert float(fields[2]) == pytest.approx(1 / 3, rel=1e-11)


# ---------------------------------------------------------------------------
# end to end
# ---------------------------------------------------------------------------

def test_main_run_writes_outputs(tmp_path):
    out = tmp_path / "out"
    code = cli.main(["run", "--problem", "mbb", "--nelx", "24", "--nely", "8",
                     "--volfrac", "0.5", "--mu", "0.95", "--method", "cdt",
                     "--out", str(out)])
    assert code == 0
    assert (out / "mbb_cdt_density.pgm").exists()
    assert (out / "mbb_cdt_record.csv").exists()
    text = (out / "mbb_cdt_record.csv").read_text()
    assert text.startswith(cli.CSV_HEADER)


def test_main_run_max_outer_caps_simp(tmp_path):
    code = cli.main(["run", "--problem", "mbb", "--nelx", "30", "--nely", "10",
                     "--method", "simp", "--max-outer", "5", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "mbb_simp_record.csv").read_text().splitlines()
    assert len(lines) == 5 + 1  # header + one row per iteration


@pytest.mark.parametrize("method", ["cdt", "beso"])
def test_main_run_max_outer_caps_cdt_and_beso(tmp_path, capsys, method):
    # a capped run is an outcome, not an error: both outputs are written
    code = cli.main(["run", "--nelx", "30", "--nely", "10", "--method", method,
                     "--max-outer", "3", "--out", str(tmp_path)])
    assert code == 0
    assert capsys.readouterr().out.rstrip().endswith("converged False")
    assert read_pgm(tmp_path / f"mbb_{method}_density.pgm").shape == (10, 30)
    lines = (tmp_path / f"mbb_{method}_record.csv").read_text().splitlines()
    assert len(lines) == 3 + 1  # header + one row per iteration


def test_main_run_cdt_small_load_matches_beso(tmp_path):
    # the selection has no absolute tolerance: gains ~1e-10 select as at load 1
    args = ["run", "--problem", "cantilever", "--nelx", "30", "--nely", "10",
            "--volfrac", "0.5", "--load", "1e-5", "--out", str(tmp_path)]
    assert cli.main(args + ["--method", "cdt"]) == 0
    assert cli.main(args + ["--method", "beso"]) == 0
    cdt = (tmp_path / "cantilever_cdt_density.pgm").read_bytes()
    assert cdt == (tmp_path / "cantilever_beso_density.pgm").read_bytes()


def test_main_usage_error_exit_code(tmp_path, monkeypatch):
    # without --out the default ./out would appear in the working directory
    monkeypatch.chdir(tmp_path)
    assert cli.main(["run", "--volfrac", "1.5"]) == 1
    assert cli.main(["run", "--nope"]) == 1
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("args,name", [
    (["run", "--method", "simp", "--volfrac", "1.5"], "volfrac"),
    (["probe", "--sizes", "12x4", "--volfrac", "1.5"], "volfrac"),
    (["probe", "--sizes", "12x4,0x4"], "dims"),
    (["probe", "--sizes", "12x4", "--methods", "simp,cdt", "--volfrac", "0.5", "--mu", "0.4"],
     "mu must"),
    (["run", "--method", "simp", "--penal", "nan"], "penal"),
    (["run", "--method", "simp", "--penal", "inf"], "penal"),
    (["run", "--method", "simp", "--rmin", "nan"], "rmin"),
    (["run", "--method", "simp", "--rmin", "inf"], "rmin"),
    (["run", "--E", "inf"], "finite E"),
    (["run", "--method", "cdt", "--omega2", "inf"], "omega2"),
    (["run", "--method", "beso", "--omega2", "inf"], "omega2"),
    (["run", "--method", "simp", "--omega2", "inf"], "omega2"),
    (["run", "--problem", "mbb", "--nelx", "12", "--nely", "4", "--method", "simp",
      "--volfrac", "0.0005"], "volfrac 0.0005 lies below SIMP's density floor X_MIN = 0.001"),
    (["probe", "--sizes", "12x4", "--methods", "cdt,simp", "--volfrac", "0.0005"], "X_MIN"),
], ids=["run-simp-volfrac", "probe-volfrac", "probe-second-size", "probe-second-method",
        "run-simp-penal-nan", "run-simp-penal-inf", "run-simp-rmin-nan", "run-simp-rmin-inf",
        "run-E-inf", "run-cdt-omega2-inf", "run-beso-omega2-inf", "run-simp-omega2-inf",
        "run-simp-volfrac-below-floor", "probe-simp-volfrac-below-floor"])
def test_main_usage_error_runs_nothing_and_creates_no_directory(
        tmp_path, monkeypatch, capsys, args, name):
    # every model and config is built before the output directory
    for module in (driver, baselines):
        monkeypatch.setattr(module, "solve_equilibrium",
                            lambda *a, **k: pytest.fail("a solve ran"))
    out = tmp_path / "out"
    assert cli.main(args + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and name in err and err.count("\n") == 1
    assert not out.exists()


def test_main_missing_config_file_is_a_usage_error(tmp_path, capsys):
    assert cli.main(["run", "--config", str(tmp_path / "missing.cfg")]) == 1
    assert capsys.readouterr().err.startswith("usage error:")


@pytest.mark.parametrize("args", [
    ["run", "--method", "cdt", "--nelx", "30", "--nely", "10"],
    ["run", "--method", "simp", "--nelx", "30", "--nely", "10"],
    ["probe", "--sizes", "12x4"],
], ids=["run-cdt", "run-simp", "probe"])
def test_main_unusable_out_is_a_usage_error_before_any_solve(
        tmp_path, monkeypatch, capsys, args):
    for module in (driver, baselines):
        monkeypatch.setattr(module, "solve_equilibrium",
                            lambda *a, **k: pytest.fail("a solve ran"))
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out in (blocker, blocker / "sub"):
        assert cli.main(args + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1
    assert blocker.read_text() == ""


def test_main_solver_error_exit_code(tmp_path):
    assert cli.main(["demo", "--name", "truss", "--epsilon", "0",
                     "--no-perturb", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("method", list(METHODS))
def test_main_run_load_that_overflows_is_a_solver_error_naming_it(tmp_path, capsys, method):
    # the energies overflow at step 1; numpy must not warn on the way there
    args = ["run", "--method", method, "--nelx", "12", "--nely", "4", "--load", "1e300"]
    assert cli.main(args + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"solver error: {method} step 1:") and "load" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("load", ["0", "1e-200"])
@pytest.mark.parametrize("method", list(METHODS))
def test_main_run_load_without_energy_is_a_solver_error_naming_it(tmp_path, capsys, method,
                                                                   load):
    # at load 0, and at 1e-200 where the energies underflow, no element
    # stores energy, and no selection or OC step has anything to rank
    args = ["run", "--method", method, "--nelx", "12", "--nely", "4", "--volfrac", "0.5",
            "--load", load]
    assert cli.main(args + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"solver error: {method} step 1:") and "load" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("args,name", [
    (["--name", "simp-surface", "--resolution", "0"], "resolution"),
    (["--name", "simp-surface", "--resolution", "-1"], "resolution"),
    (["--name", "simp-surface", "--resolution", "2"], "resolution"),
    (["--name", "simp-surface", "--resolution", "nan"], "resolution"),
    (["--name", "simp-surface", "--p", "nan"], "p must"),
    (["--name", "simp-surface", "--a", "inf"], "a and b"),
    (["--name", "double-well", "--lambda", "inf"], "beta and lam"),
    (["--name", "double-well", "--f", "nan"], "f must"),
    (["--name", "truss", "--a", "inf"], "a and b"),
    (["--name", "simp-surface", "--p", "-1"], "p must"),
    (["--name", "simp-surface", "--p", "0"], "p must"),
    (["--name", "buridan", "--w-base", "inf"], "w_base"),
    (["--name", "buridan", "--w-base", "nan"], "w_base"),
    (["--name", "buridan", "--epsilon", "nan"], "epsilon"),
    (["--name", "buridan", "--epsilon", "inf"], "epsilon"),
    (["--name", "truss", "--epsilon", "nan"], "epsilon"),
    (["--name", "truss", "--epsilon", "inf"], "epsilon"),
    (["--name", "simp-surface", "--a", "1", "--b", "1", "--p", "1"], "flat"),
], ids=["resolution-0", "resolution-negative", "resolution-2", "resolution-nan", "p-nan",
        "surface-a-inf", "lambda-inf", "f-nan", "truss-a-inf", "p-negative", "p-0",
        "w-base-inf", "w-base-nan", "buridan-epsilon-nan", "buridan-epsilon-inf",
        "truss-epsilon-nan", "truss-epsilon-inf", "surface-flat"])
def test_demo_bad_value_is_a_usage_error_naming_it(tmp_path, capsys, args, name):
    out = tmp_path / "out"
    assert cli.main(["demo", *args, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and name in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("args,code", [
    (["--name", "buridan"], 0),
    (["--name", "truss"], 0),
    (["--name", "double-well", "--beta", "-1"], 1),
], ids=["buridan", "truss", "double-well-bad-beta"])
def test_demo_without_a_file_to_write_creates_no_directory(tmp_path, monkeypatch, args, code):
    # only simp-surface and double-well write, and only once they have a result
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.OUT_DIR_ENV, raising=False)
    assert cli.main(["demo", *args]) == code
    assert not list(tmp_path.iterdir())


# stdout, and the SHA-256 of each CSV written, of each demo; the
# simp-surface line ends in its CSV's path, which is left out
DEMO_PINS = {
    "buridan": (["--name", "buridan"],
                "tau_c 2.025 interval (2.0, 2.05) unique True pick (0,)\n", {}),
    "buridan-tie": (["--name", "buridan", "--epsilon", "0"],
                    "tau_c 2 interval (2.0, 2.0) unique False pick (0,)\n", {}),
    "truss": (["--name", "truss"], "kept group (1,) potential -1.89181\n", {}),
    "truss-asymmetric": (["--name", "truss", "--a", "0.7", "--b", "1.9", "--epsilon", "-0.02"],
                         "kept group (0,) potential -0.977444\n", {}),
    "simp-surface": (
        ["--name", "simp-surface"],
        "boundary argmin (0.4999999958147089, 0.5000000041852911) minima "
        "((0.0, 1.8918058124456125), (0.4999999958147089, 1.3333333333333335), "
        "(1.0, 1.8918058124456125))\n",
        {"simp_surface.csv": "5582f494ddbf375a9998a26f5d334d034eec57b173e36962c6a3d887bdc4696b"}),
    "double-well": (
        ["--name", "double-well"],
        "varsigma +0.236417 x +2.11491 potential -1.02951 [global_min]\n"
        "varsigma -0.268701 x -1.86081 potential +0.966503 [local_min]\n"
        "varsigma -1.96772 x -0.254102 potential +2.063 [local_max]\n",
        {"double_well_roots.csv":
         "70e5c9ed0f9106cb07e0ff5f6478c1ef522b788dc54d617aa6d555732a1dd3d7"}),
    "double-well-symmetric": (
        ["--name", "double-well", "--f", "0"],
        "varsigma -2 x +0 potential +2 [local_max]\nperturbation minimizers (2.0, -2.0)\n",
        {"double_well_roots.csv":
         "d5cd651a5ffe675d39aa95baafd479039448399a42344abc53cc408dcd610468"}),
}


@pytest.mark.parametrize("case", list(DEMO_PINS))
def test_demo_output_is_pinned(tmp_path, capsys, case):
    args, stdout, digests = DEMO_PINS[case]
    assert cli.main(["demo", *args, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.replace(f" -> {tmp_path / 'simp_surface.csv'}", "") == stdout
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in tmp_path.iterdir()} == digests


def test_main_demo_double_well(tmp_path, capsys):
    code = cli.main(["demo", "--name", "double-well", "--beta", "1",
                     "--lambda", "2", "--f", "0.5", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "double_well_roots.csv").exists()
    assert "global_min" in capsys.readouterr().out


def test_main_demo_double_well_small_load(tmp_path, capsys):
    # a load near 0 has two roots near 0, neither of them 0
    assert cli.main(["demo", "--name", "double-well", "--f=1e-15", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.startswith("varsigma +5e-16 x +2 potential -2e-15 [global_min]\n")


def fresh_python(*args):
    # a new interpreter that imports cdtopt from this source tree
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_python_dash_m_cdtopt_runs_the_cli(tmp_path):
    proc = fresh_python("-m", "cdtopt", "demo", "--name", "buridan", "--out", str(tmp_path))
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "unique True" in proc.stdout


def test_cli_run_is_quiet_on_a_step_that_misses_the_residual_bound(tmp_path):
    # cantilever 16x6 at vf 0.5, mu 0.95 logs a warning for step 12; the
    # package's NullHandler keeps Python's last-resort handler off stderr
    proc = fresh_python("-m", "cdtopt", "run", "--problem", "cantilever", "--nelx", "16",
                        "--nely", "6", "--volfrac", "0.5", "--mu", "0.95", "--out", str(tmp_path))
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_import_cdtopt_leaves_scipy_spatial_unloaded():
    # scipy.spatial and what it pulls in cost a cold start about 0.1 s;
    # SIMP's filter reads its neighbours off the element grid instead
    proc = fresh_python("-c", "import sys, cdtopt; "
                        "print(sorted(m for m in sys.modules if m.startswith('scipy.spatial')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_main_demo_simp_surface(tmp_path):
    code = cli.main(["demo", "--name", "simp-surface", "--p", "2",
                     "--resolution", "1e-3", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "simp_surface.csv").exists()


def test_env_var_out_dir(tmp_path, monkeypatch):
    target = tmp_path / "envout"
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(target))
    code = cli.main(["demo", "--name", "double-well", "--f", "0.5"])
    assert code == 0
    assert (target / "double_well_roots.csv").exists()


def test_main_probe_writes_cost_csv(tmp_path):
    code = cli.main(["probe", "--sizes", "16x6,24x10", "--volfrac", "0.5",
                     "--mu", "0.95", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "cost_probe.csv").read_text().splitlines()
    assert lines[0].startswith("method,nelx,nely")
    assert len(lines) == 5  # header + 2 meshes x 2 methods


def test_probe_keeps_the_rows_of_finished_runs_on_a_solver_error(tmp_path, monkeypatch, capsys):
    run_method = cli.run_method

    def second_size_cycles(method, model, volfrac, config):
        if model.mesh.dims == (12, 4):
            raise driver.DriverError("the element strain energies overflow")
        return run_method(method, model, volfrac, config)

    monkeypatch.setattr(cli, "run_method", second_size_cycles)
    assert cli.main(["probe", "--sizes", "16x6,12x4", "--mu", "0.95",
                     "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("solver error:")
    with open(tmp_path / "cost_probe.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["method"], r["nelx"], r["nely"]) for r in rows] == [
        ("cdt", "16", "6"), ("beso", "16", "6")]


def test_probe_records_whether_each_run_converged(tmp_path, monkeypatch):
    # BESO capped at 3 iterations: its row is kept, marked as not converged
    method_config = cli.method_config
    monkeypatch.setattr(cli, "method_config", lambda name, options: method_config(
        name, {**options, "max_outer": 3} if name == "beso" else options))
    assert cli.main(["probe", "--sizes", "16x6", "--mu", "0.95", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "cost_probe.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["method"], r["outer_iters"], r["converged"]) for r in rows] == [
        ("cdt", "16", "True"), ("beso", "3", "False")]


def test_main_probe_runs_simp(tmp_path):
    code = cli.main(["probe", "--sizes", "12x4", "--methods", "simp",
                     "--out", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "cost_probe.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["method"] for r in rows] == ["simp"]
    assert float(rows[0]["fem_s"]) > 0.0 and float(rows[0]["update_s"]) > 0.0


def test_probe_rejects_unknown_method_before_running(tmp_path, monkeypatch, capsys):
    # a malformed --sizes token is refused as early, by name
    for module in (driver, baselines):
        monkeypatch.setattr(module, "solve_equilibrium",
                            lambda *a, **k: pytest.fail("a solve ran"))
    with pytest.raises(cli.UsageError, match="bogus"):
        cli.parse_cli(["probe", "--sizes", "8x4", "--methods", "cdt,bogus"])
    cfg = tmp_path / "probe.cfg"
    cfg.write_text("methods = bogus\n")
    with pytest.raises(cli.UsageError, match="bogus"):
        cli.parse_cli(["probe", "--config", str(cfg)])
    code = cli.main(["probe", "--sizes", "8x4", "--methods", "cdt,bogus",
                     "--out", str(tmp_path)])
    assert code == 1
    assert not (tmp_path / "cost_probe.csv").exists()
    capsys.readouterr()
    out = tmp_path / "out"
    assert cli.main(["probe", "--sizes", "12x4,8y4", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "usage error: mesh size '8y4' is not of the form NELXxNELY\n"
    assert not out.exists()
