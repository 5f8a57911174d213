"""CLI contract: output formats, exit codes, determinism."""

import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import liequant
from liequant.cli import MAX_ORDER, MAX_SAMPLES, main
from liequant.fermion import MAX_MODES
from liequant.fock import MAX_LEVELS
from liequant.liealg import DIM_CAP
from liequant.spectra import MAX_ASSIGN_LINES, MAX_KMAX
from liequant.su2reps import MAX_DIM


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv, cwd=None):
    """Run ``python -m liequant.cli`` and return (exit code, stdout, stderr)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(liequant.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "liequant.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def _reject_constant(name):
    raise AssertionError(f"{name} in JSON output")


def assert_finite_output(text):
    """Stdout is JSON, or CSV under a header row, with no NaN or infinity in it."""
    if text.startswith("{"):
        json.loads(text, parse_constant=_reject_constant)
        return
    header, *rows = text.splitlines()
    assert header and "," in header
    values = [float(field) for row in rows for field in row.split(",")]
    assert all(math.isfinite(v) for v in values)


def check_contract(argv):
    """Run ``argv`` in-process with warnings as errors and assert the exit contract.

    Exit 0 prints finite JSON or CSV, exit 1 prints one token and nothing
    else, exit 2 is a usage error; no exception escapes.  Returns the code.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage error
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    if code == 1:
        assert out == "" and re.fullmatch(r"[a-z_]+\n", err), (argv, err)
    if code == 0:
        assert_finite_output(out)
    return code


class TestBasicCommands:
    def test_wien(self, capsys):
        code, out, _ = run_cli(capsys, "wien")
        assert code == 0
        data = json.loads(out)
        assert 2.81 < data["x"] < 2.83
        assert data["residual"] <= 1e-14

    def test_cover_check(self, capsys):
        code, out, _ = run_cli(capsys, "cover-check", "--samples", "200", "--seed", "7")
        assert code == 0
        data = json.loads(out)
        assert data["max_homomorphism_defect"] <= 1e-10
        assert data["pass"] is True

    def test_rotate_and_euler_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "rotate", "--vector", "0.3,-1.1,0.7")
        assert code == 0
        matrix = np.array(json.loads(out)["matrix"])
        flat = ",".join(repr(float(v)) for v in matrix.ravel())
        code, out, _ = run_cli(capsys, "euler", "--matrix", flat)
        assert code == 0
        angles = json.loads(out)
        assert 0.0 <= angles["beta"] <= np.pi

    def test_lift_identity(self, capsys):
        code, out, _ = run_cli(capsys, "lift", "--matrix", "1,0,0,0,1,0,0,0,1")
        assert code == 0
        data = json.loads(out)
        assert data["x"] == [1.0, -0.0] or data["x"] == [1.0, 0.0]

    def test_algebra_verify(self, capsys):
        code, out, _ = run_cli(capsys, "algebra-verify", "--name", "so3")
        data = json.loads(out)
        assert code == 0
        assert data["semisimple"] is True
        assert np.array_equal(np.array(data["killing_form"]), -2 * np.eye(3))

    def test_rigidbody_csv(self, capsys):
        code, out, _ = run_cli(capsys, "rigidbody", "--inertia", "1,2,3",
                               "--j0", "1,1,1", "--steps", "5")
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0] == "t,J1,J2,J3,E,Jsq"
        assert len(lines) == 7

    def test_gibbs(self, capsys):
        code, out, _ = run_cli(capsys, "gibbs", "--levels", "0,1", "--beta", "1")
        data = json.loads(out)
        assert code == 0
        assert abs(data["partition_function"] - (1 + np.exp(-1))) <= 1e-12

    def test_blackbody_header(self, capsys):
        code, out, _ = run_cli(capsys, "blackbody", "--temperature", "300",
                               "--points", "5")
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0] == "omega,f_omega"
        assert len(lines) == 6

    def test_highest_weight_finite(self, capsys):
        code, out, _ = run_cli(capsys, "highest-weight", "--u", "-1", "--v", "0",
                               "--alpha", "-1.5")
        data = json.loads(out)
        assert code == 0
        assert data["verdict"] == "finite" and data["dim"] == 3

    def test_cg(self, capsys):
        code, out, _ = run_cli(capsys, "cg", "--k", "1/2", "--l", "1/2")
        data = json.loads(out)
        assert code == 0
        assert data["summands"] == [{"j": 1.0, "multiplicity": 1},
                                    {"j": 0.0, "multiplicity": 1}]

    def test_fermion_check(self, capsys):
        code, out, _ = run_cli(capsys, "fermion-check", "--modes", "3")
        data = json.loads(out)
        assert code == 0
        assert data["dim"] == 8 and data["car_residual"] == 0.0

    def test_fermion_check_at_the_mode_cap(self, capsys):
        code, out, _ = run_cli(capsys, "fermion-check", "--modes", "12")
        data = json.loads(out)
        assert code == 0
        assert data["dim"] == 4096 and data["car_residual"] == 0.0
        assert data["number_spectra_binary"] is True

    def test_negative_leading_vector(self, capsys):
        code, out, _ = run_cli(capsys, "rotate", "--vector=-1,0.5,0")
        assert code == 0
        assert np.allclose(np.array(json.loads(out)["matrix"]) @ [-1, 0.5, 0], [-1, 0.5, 0])

    def test_rydberg_csv(self, capsys):
        code, out, _ = run_cli(capsys, "rydberg", "--kmax", "3")
        lines = out.strip().split("\n")
        assert lines[0] == "k,l,omega"
        assert len(lines) == 4


class TestAssignCommand:
    def test_end_to_end(self, capsys, tmp_path):
        e_true = np.array([0.0, 1.0, 2.5, 2.7])
        omegas = sorted(e_true[j] - e_true[k] for j in range(4) for k in range(j))
        data_file = tmp_path / "lines.csv"
        data_file.write_text("omega,weight\n" +
                             "\n".join(f"{w},1.0" for w in omegas) + "\n")
        levels_file = tmp_path / "init.json"
        levels_file.write_text(json.dumps({"levels": [0.01, 0.99, 2.52, 2.69]}))
        code, out, _ = run_cli(capsys, "assign", "--data", str(data_file),
                               "--levels", str(levels_file))
        assert code == 0
        result = json.loads(out)
        assert np.max(np.abs(np.array(result["levels"]) - e_true)) <= 1e-9
        assert result["objective"] <= 1e-18
        assert len(result["assignments"]) == 6
        assert all(len(entry) == 3 for entry in result["assignments"])


class TestContract:
    def test_domain_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "euler", "--matrix", "1,2,3")
        assert code == 1
        assert "shape" in err

    def test_error_token_printed(self, capsys):
        code, _, err = run_cli(capsys, "algebra-verify", "--name", "e8")
        assert code == 1
        assert err.strip() == "unknown_algebra"

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    def test_determinism(self, capsys):
        _, first, _ = run_cli(capsys, "cover-check", "--samples", "100", "--seed", "3")
        _, second, _ = run_cli(capsys, "cover-check", "--samples", "100", "--seed", "3")
        assert first == second

    def test_seed_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("LIEQUANT_SEED", "11")
        _, via_env, _ = run_cli(capsys, "cover-check", "--samples", "50")
        monkeypatch.delenv("LIEQUANT_SEED")
        _, via_flag, _ = run_cli(capsys, "cover-check", "--samples", "50", "--seed", "11")
        assert via_env == via_flag

    @pytest.mark.parametrize("value", ["-1", "\u00b2", "1.5", " 3"])
    def test_seed_env_must_be_a_decimal_integer(self, capsys, monkeypatch, value):
        """A superscript two is a digit to str.isdigit but not to int()."""
        monkeypatch.setenv("LIEQUANT_SEED", value)
        assert run_cli(capsys, "cover-check", "--samples", "3") == (1, "", "bad_argument\n")

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "w.json"
        code, out, _ = run_cli(capsys, "wien", "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["x"] > 2.8


class TestBadInput:
    """Malformed input ends in a usage error (2) or a token (1), never a traceback."""

    @pytest.mark.parametrize("argv", [
        ("rotate", "--vector", "abc"),
        ("rotate", "--vector=1,2"),
        ("irrep", "--j", "x"),
        ("cg", "--k", "1/0", "--l", "1"),
        ("coherent", "--z", "1"),
        ("gibbs", "--levels", "0,one", "--beta", "1"),
    ])
    def test_unparsable_argument_is_usage_error(self, argv):
        code, out, err = run_process(*argv)
        assert code == 2
        assert out == ""
        assert "usage:" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("euler", "--in", "missing.json"),
        ("gibbs", "--in", "missing.json", "--beta", "1"),
        ("assign", "--data", "missing.csv", "--levels", "missing.json"),
        ("wien", "--out", "no_such_dir/w.json"),
    ])
    def test_unreadable_file_is_io_error(self, argv, tmp_path):
        code, out, err = run_process(*argv, cwd=tmp_path)
        assert code == 1
        assert out == ""
        assert err.strip() == "io_error"

    @pytest.mark.parametrize("files, argv, token", [
        ({"m.json": "{bad"}, ("euler", "--in", "m.json"), "bad_input"),
        ({"m.json": '{"levels": [1]}'}, ("euler", "--in", "m.json"), "bad_input"),
        ({"m.json": '{"levels": [1]}'}, ("gibbs", "--in", "m.json", "--beta", "1"), "bad_input"),
        ({"m.json": '{"matrix": [[1, 2], [3]]}'}, ("lift", "--in", "m.json"), "bad_input"),
        ({"d.csv": "omega,weight\nx,y\n", "l.json": '{"levels": [0, 1]}'},
         ("assign", "--data", "d.csv", "--levels", "l.json"), "bad_input"),
        ({"d.csv": "omega,weight\n1.0,1.0\n", "l.json": "[0, 1]"},
         ("assign", "--data", "d.csv", "--levels", "l.json"), "bad_input"),
        ({}, ("gibbs", "--levels=0,1", "--beta", "nan"), "bad_beta"),
        ({}, ("gibbs", "--levels=0,1", "--beta", "inf"), "bad_beta"),
        *(({}, ("algebra-verify", "--name", name), "dim_cap")
          for name in ("gl(9)", "gl(1000)", "sl(9)", "so(6,6)", "sp(12)")),
        ({"d.csv": "omega,weight\n", "l.json": '{"levels": [0, 1]}'},
         ("assign", "--data", "d.csv", "--levels", "l.json"), "bad_input"),
        *(({"d.csv": "omega,weight\n1.0,1.0\n1.5,1.0\n", "l.json": '{"levels": [0, 1, 2.5]}'},
           ("assign", "--data", "d.csv", "--levels", "l.json", "--hbar", hbar), "bad_hbar")
          for hbar in ("nan", "0", "-1", "inf")),
        ({}, ("stefan", "--hbar", "nan"), "bad_constants"),
        ({}, ("stefan", "--kbar", "inf"), "bad_constants"),
        ({}, ("blackbody", "--temperature", "nan"), "bad_argument"),
        ({}, ("blackbody", "--temperature", "300", "--volume", "inf"), "bad_argument"),
        ({}, ("blackbody", "--temperature", "300", "--c", "nan"), "bad_constants"),
        ({}, ("rydberg", "--rh", "nan"), "bad_argument"),
        ({}, ("highest-weight", "--u", "nan", "--v", "0"), "bad_argument"),
        ({}, ("highest-weight", "--u", "1", "--v", "0", "--hbar", "inf"), "bad_hbar"),
        ({}, ("coherent", "--lam=nan,0"), "not_finite"),
        ({}, ("coherent", "--z=0,inf"), "not_finite"),
        ({}, ("coherent", "--evolve=1,inf"), "not_finite"),
        ({}, ("coherent", "--hbar", "nan"), "bad_hbar"),
        ({"d.csv": "omega,weight\nnan,1.0\n1.5,1.0\n", "l.json": '{"levels": [0, 1, 2.5]}'},
         ("assign", "--data", "d.csv", "--levels", "l.json"), "bad_lines"),
        ({"d.csv": "omega,weight\n1.0,1.0\n1.5,1.0\n", "l.json": '{"levels": [0, 1, 2.5]}'},
         ("assign", "--data", "d.csv", "--levels", "l.json", "--starts", "2", "--scale=-1"),
         "bad_argument"),
        ({}, ("blackbody", "--temperature", "300", "--points=-3"), "bad_argument"),
        ({}, ("blackbody", "--temperature", "300", "--omega-min", "0"), "bad_argument"),
        ({}, ("blackbody", "--temperature", "300", "--omega-min=-1"), "bad_argument"),
        ({}, ("blackbody", "--temperature", "300", "--omega-max", "inf"), "bad_argument"),
        ({}, ("blackbody", "--temperature", "300", "--points", "100001"), "size_cap"),
        ({}, ("cover-check", "--samples=-1"), "bad_argument"),
        ({}, ("cover-check", "--samples", "100001"), "size_cap"),
        ({}, ("cover-check", "--seed=-1"), "bad_argument"),
        ({}, ("fock-spectrum", "--count=-2"), "bad_argument"),
        ({}, ("fock-spectrum", "--dim", "100000"), "size_cap"),
        ({}, ("coherent", "--dim", "100000"), "size_cap"),
        ({}, ("highest-weight", "--u", "1", "--v", "0", "--max-levels", "10000000"), "size_cap"),
        ({}, ("rigidbody", "--inertia", "1,2,3", "--j0", "1e200,1,1", "--dt", "1", "--steps", "3"),
         "not_finite"),
        ({}, ("rigidbody", "--inertia", "1e-300,1,1", "--j0", "1,1,1", "--dt", "0.1",
              "--steps", "3"),
         "not_finite"),
        ({}, ("rigidbody", "--inertia", "1e-300,1,1", "--j0", "1e5,0,0", "--steps", "0"),
         "not_finite"),
        ({}, ("stefan", "--kbar", "1e100"), "not_finite"),
        ({}, ("stefan", "--hbar", "1e-200"), "not_finite"),
        ({}, ("stefan", "--kbar", "1e77"), "not_finite"),
        ({}, ("rigidbody", "--inertia", "1,2,3", "--j0", "1,1,1", "--steps", "100001"), "size_cap"),
        ({}, ("rigidbody", "--inertia", "1,2,3", "--j0", "1,1,1", "--steps=-1"), "bad_steps"),
        ({}, ("rydberg", "--kmax", "2000"), "size_cap"),
        ({}, ("irrep", "--j", "1000"), "size_cap"),
        ({}, ("cg", "--k", "30", "--l", "30"), "size_cap"),
        ({}, ("cg", "--k", "15", "--l", "15"), "size_cap"),
        ({}, ("rotate", "--axis", "x", "--angle", "inf"), "not_finite"),
        ({}, ("rotate", "--vector=0,0,inf"), "not_finite"),
        ({}, ("rotate", "--vector=0,0,1", "--apply=0,0,nan"), "not_finite"),
        ({}, ("euler", "--matrix=0,0,0,0,0,0,0,0,1e308"), "not_rotation"),
        # 4000 lines x 7140 level pairs, over spectra.MAX_ASSIGN_TERMS
        ({"d.csv": "omega,weight\n" + "1.0,1.0\n" * 4000,
          "l.json": json.dumps({"levels": list(range(120))})},
         ("assign", "--data", "d.csv", "--levels", "l.json", "--max-iters", "5"), "size_cap"),
        # one more than cli.MAX_ORDER levels or matrix rows
        ({}, ("gibbs", "--levels", ",".join(["0"] * (MAX_ORDER + 1)), "--beta", "1"), "size_cap"),
        ({"m.json": json.dumps({"matrix": [[0] * (MAX_ORDER + 1)] * (MAX_ORDER + 1)})},
         ("gibbs", "--in", "m.json", "--beta", "1"), "size_cap"),
        # beta times an energy, or the Frobenius norm, past the float range
        ({}, ("gibbs", "--levels=2047", "--beta", "1e308"), "range"),
        ({}, ("gibbs", "--levels=1e308", "--beta", "2047"), "not_finite"),
        # one more than spectra.MAX_ASSIGN_LINES lines over two levels (one level pair)
        ({"d.csv": "omega,weight\n" + "1.0,1.0\n" * (MAX_ASSIGN_LINES + 1),
          "l.json": '{"levels": [0, 1]}'},
         ("assign", "--data", "d.csv", "--levels", "l.json"), "size_cap"),
        # 1/(hbar w), the row scale sqrt(q)/(hbar w), or hbar w past the float range:
        # the first two ended in a LinAlgError traceback, the others printed warnings
        ({"d.csv": "omega,weight\n1e-320,1\n", "l.json": '{"levels": [0, 1, 3]}'},
         ("assign", "--data", "d.csv", "--levels", "l.json"), "not_finite"),
        ({"d.csv": "omega,weight\n1e-200,1e300\n", "l.json": '{"levels": [0, 1, 3]}'},
         ("assign", "--data", "d.csv", "--levels", "l.json"), "not_finite"),
        ({"d.csv": "omega,weight\n1e300,1\n", "l.json": '{"levels": [0, 1, 3]}'},
         ("assign", "--data", "d.csv", "--levels", "l.json", "--hbar", "1e10"), "not_finite"),
        ({"d.csv": "omega,weight\n1e-310,1e-300\n", "l.json": '{"levels": [0, 1, 3]}'},
         ("assign", "--data", "d.csv", "--levels", "l.json"), "not_finite"),
        # a level span past the float range: warned, merged the levels, then too_few
        ({"d.csv": "omega,weight\n1.0,1.0\n", "l.json": '{"levels": [0, 1e308, -1e308]}'},
         ("assign", "--data", "d.csv", "--levels", "l.json"), "not_finite"),
    ])
    def test_bad_content_is_domain_error(self, files, argv, token, tmp_path):
        """Exit 1 with the token alone on stderr: no traceback, no warning, no output."""
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        code, out, err = run_process(*argv, cwd=tmp_path)
        assert code == 1
        assert out == ""
        assert err == token + "\n"

    def test_rigidbody_nan_dt(self):
        code, out, err = run_process("rigidbody", "--inertia", "1,2,3", "--j0", "1,0.5,0.2",
                                     "--dt", "nan", "--steps", "3")
        assert code == 1
        assert out == ""
        assert err.strip() == "bad_dt"

    def test_rigidbody_clock(self, capsys):
        code, out, _ = run_cli(capsys, "rigidbody", "--inertia=1,2,3", "--j0=1,0.5,0.2",
                               "--steps", "10000")
        assert code == 0
        assert out.rstrip("\n").rsplit("\n", 1)[1].split(",")[0] == "10"

    def test_blackbody_without_points_is_header_only(self, capsys):
        code, out, err = run_cli(capsys, "blackbody", "--temperature", "300", "--points", "0")
        assert (code, out, err) == (0, "omega,f_omega\n", "")


README = Path(liequant.__file__).resolve().parents[2] / "README.md"
README_ARGVS = [shlex.split(line)[1:]
                for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
                for line in block.splitlines() if line.startswith("liequant ")
                ] if README.is_file() else []


@pytest.mark.parametrize("argv", README_ARGVS, ids=lambda argv: argv[0])
def test_readme_example(argv, tmp_path, monkeypatch, capsys):
    """Every ``liequant`` line of the README's shell blocks exits 0 with finite output."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "lines.csv").write_text("omega,weight\n" + "".join(
        f"{w},1.0\n" for w in (0.2, 1.0, 1.5, 1.7, 2.5, 2.7)))
    (tmp_path / "init.json").write_text(json.dumps({"levels": [0.01, 0.99, 2.52, 2.69]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    assert_finite_output(out)


def test_readme_has_cli_examples():
    if not README.is_file():
        pytest.skip("README.md is not beside the source tree")
    assert len(README_ARGVS) >= 18


# Valid fock runs that ended in a traceback or a warning before MAX_LEVELS and
# the closed-form spectrum (their token cases are in TestBadInput)
FOCK_EDGE_ARGVS = [
    ("fock-spectrum", "--dim", "172"),
    ("coherent", "--dim", "172"),
    ("fock-spectrum", "--dim", "110", "--hbar", "1000"),
    ("coherent", "--dim", "110", "--hbar", "1000"),
    ("fock-spectrum", "--dim", "100", "--hbar", "0.01"),
    ("fock-spectrum", "--dim", str(MAX_LEVELS), "--count", str(MAX_LEVELS - 1)),
    ("coherent", "--dim", str(MAX_LEVELS), "--z=0.5,0.3", "--hbar", "2"),
    ("highest-weight", "--u", "1", "--v", "0", "--max-levels", str(MAX_LEVELS)),
]


@pytest.mark.parametrize("argv", FOCK_EDGE_ARGVS, ids=lambda argv: " ".join(argv))
def test_fock_edge_cases_succeed(argv):
    assert check_contract(argv) == 0


# The largest size under each cap finishes (one more is size_cap, in TestBadInput).
# cover-check --samples MAX_SAMPLES is left out: it takes about 16 s, where the
# other MAX_SAMPLES rows below take about 1 s each.
CAP_ARGVS = [
    ("rigidbody", "--inertia=1,2,3", "--j0=1,0.5,0.2", "--steps", str(MAX_SAMPLES)),
    ("rydberg", "--kmax", str(MAX_KMAX)),
    ("irrep", "--j", f"{MAX_DIM - 1}/2"),
    ("gibbs", "--levels=" + ",".join(map(str, range(MAX_ORDER))), "--beta", "1"),
    ("assign", "--data", "cap_lines.csv", "--levels", "cap_levels.json"),
    ("fermion-check", "--modes", str(MAX_MODES)),
    ("cg", "--k", f"{math.isqrt(MAX_DIM) - 1}/2", "--l", f"{math.isqrt(MAX_DIM) - 1}/2"),
    ("blackbody", "--temperature", "300", "--points", str(MAX_SAMPLES)),
    ("algebra-verify", "--name", f"gl({math.isqrt(DIM_CAP)})"),  # dimension n^2
]
# the files named by the assign row: spectra.MAX_ASSIGN_LINES lines over two levels
CAP_FILES = {"cap_lines.csv": "omega,weight\n" + "1.0,1.0\n" * MAX_ASSIGN_LINES,
             "cap_levels.json": '{"levels": [0, 1]}'}


@pytest.mark.parametrize("argv", CAP_ARGVS,
                         ids=lambda argv: " ".join(a if len(a) < 40 else a[:36] + "..." for a in argv))
def test_largest_size_under_cap_succeeds(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, text in CAP_FILES.items():
        if name in argv:
            (tmp_path / name).write_text(text)
    assert check_contract(argv) == 0


# (command, required options, optional options) driven by the property test
CONTRACT_COMMANDS = [
    ("fock-spectrum", (), ("--dim", "--hbar", "--omega", "--count")),
    ("coherent", (), ("--dim", "--hbar", "--lam", "--z", "--evolve")),
    ("highest-weight", ("--u", "--v"), ("--alpha", "--hbar", "--max-levels")),
    ("blackbody", ("--temperature",),
     ("--volume", "--omega-min", "--omega-max", "--points", "--kbar", "--hbar", "--c")),
    ("cover-check", (), ("--samples", "--seed")),
    ("rigidbody", ("--inertia", "--j0"), ("--dt", "--steps")),
    ("rotate", (), ("--axis", "--angle", "--vector", "--apply")),
    ("euler", ("--matrix",), ()),
    ("lift", ("--matrix",), ()),
    ("stefan", (), ("--kbar", "--hbar", "--c")),
    ("rydberg", (), ("--kmax", "--rh")),
    ("irrep", ("--j",), ()),
    ("cg", ("--k", "--l"), ()),
    ("algebra-verify", ("--name",), ("--dump",)),
    ("fermion-check", (), ("--modes",)),
    ("gibbs", ("--beta",), ("--levels",)),
    ("wien", (), ()),
]
FLAG_OPTIONS = {"--dump"}
PAIR_OPTIONS = {"--lam", "--z", "--evolve"}
# number of comma-separated values, where an option takes more than one
LIST_OPTIONS = {**dict.fromkeys(PAIR_OPTIONS, 2),
                **dict.fromkeys(("--inertia", "--j0", "--vector", "--apply"), 3), "--matrix": 9,
                "--levels": (1, 4)}  # a (min, max) pair: the count is drawn too
SPECIAL_NUMBERS = ("0", "-1", str(MAX_LEVELS - 1), str(MAX_LEVELS + 1), "1000000000",
                   "nan", "inf", "-inf", "1e308", "-1e308", "1e-308", "-1e-308")

# Shrunk counterexamples of the property test (each ended in a traceback or a
# warning before this contract held), then overflow cases picked by hand
CONTRACT_COUNTEREXAMPLES = [
    ("blackbody", "--temperature=0", "--omega-min=0"),
    ("blackbody", "--temperature=0", "--omega-min=-1"),
    ("blackbody", "--temperature=0", "--omega-min=inf"),
    ("coherent", "--dim=-1"),
    ("coherent", "--dim=2047"),
    ("coherent", "--dim=2049"),
    ("cover-check", "--seed=-1"),
    ("fock-spectrum", "--hbar=1000000000"),
    ("fock-spectrum", "--hbar=1e-308"),
    ("fock-spectrum", "--hbar=1e308"),
    ("blackbody", "--temperature=1e-308"),
    ("blackbody", "--temperature=1e300", "--omega-max=1e308"),
    ("blackbody", "--temperature=300", "--c=1e308"),
    ("blackbody", "--temperature=300", "--c=1e-308"),
    ("blackbody", "--temperature=300", "--volume=1e308", "--hbar=1e-308"),
    ("coherent", "--lam=1e308,0"),
    ("coherent", "--dim=2048", "--z=1.5,0"),
    ("coherent", "--dim=2048", "--hbar=1000", "--z=0.01,0"),
    ("fock-spectrum", "--omega=inf"),
    ("fock-spectrum", "--omega=1e308", "--hbar=10"),
    ("highest-weight", "--u=1e308", "--v=0", "--hbar=1e308"),
    ("highest-weight", "--u=1e308", "--v=1e308", "--alpha=-1e308"),
    ("highest-weight", "--u=1", "--v=0", "--hbar=1e306", "--max-levels=2048"),
    # shrunk from the rigidbody, rotate, euler, lift, stefan, irrep and cg runs
    ("rigidbody", "--inertia=2047,2047,nan", "--j0=0,0,0"),
    ("rotate", "--vector=0,0,inf"),
    ("euler", "--matrix=0,0,0,0,0,0,0,0,1e308"),
    ("lift", "--matrix=0,0,0,0,0,0,0,0,1e308"),
    ("stefan", "--hbar=1e308"),
    ("irrep", "--j=2047"),
    ("cg", "--k=0", "--l=2047"),
    # shrunk from the gibbs runs
    ("gibbs", "--beta=1e308", "--levels=2047"),
    ("gibbs", "--beta=2047", "--levels=1e308"),
]


@pytest.mark.parametrize("argv", CONTRACT_COUNTEREXAMPLES, ids=lambda argv: " ".join(argv))
def test_contract_counterexample(argv):
    check_contract(argv)


@pytest.mark.parametrize("command, required, optional", CONTRACT_COMMANDS,
                         ids=[c[0] for c in CONTRACT_COMMANDS])
def test_contract_property(command, required, optional):
    """Exit codes, tokens and finite output hold for extreme and invalid numbers."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    number = st.one_of(st.sampled_from(SPECIAL_NUMBERS), st.integers(-2, 60).map(str),
                       st.floats(-1e3, 1e3).map(repr))
    # spins up to 6 keep each cg run short; the caps are reached through SPECIAL_NUMBERS
    spin = st.one_of(st.sampled_from(SPECIAL_NUMBERS), st.integers(-2, 12).map(lambda n: f"{n}/2"))
    # builtin and family names on both sides of DIM_CAP, sizes that no family
    # takes, huge integers and malformed text
    size = st.integers(0, 13).map(str)
    args = st.lists(st.one_of(size, st.sampled_from(SPECIAL_NUMBERS)), min_size=1, max_size=2)
    name = st.one_of(
        st.sampled_from(("so3", "su2", "heisenberg_t3", "oscillator_os1", "gl(8)", "gl(9)",
                         "so(6,5)", "sp(12)", "gl(0)", "so(1,0)", "sp(3)",
                         "sl(99999999999999999999)", "gl(", "so(2,x)", "")),
        st.builds("{}({})".format, st.sampled_from(("gl", "sl", "sp")), size),
        st.builds("so({},{})".format, size, size),
        st.builds("{}({})".format, st.sampled_from(("gl", "sl", "so", "sp")), args.map(",".join)))
    values = {"--axis": st.sampled_from(("x", "y", "z")), "--name": name,
              **dict.fromkeys(("--j", "--k", "--l"), spin)}

    @hypothesis.settings(max_examples=40, derandomize=True, deadline=None, database=None,
                         suppress_health_check=[hypothesis.HealthCheck.too_slow])
    @hypothesis.given(st.data())
    def check(data):
        argv = [command]
        for option in required + optional:
            if option in FLAG_OPTIONS:
                argv += [option] * data.draw(st.booleans())
            elif option in required or data.draw(st.booleans()):
                draw = values.get(option, number)
                count = LIST_OPTIONS.get(option, 1)
                if isinstance(count, tuple):
                    count = data.draw(st.integers(*count))
                value = ",".join(data.draw(draw) for _ in range(count))
                argv.append(f"{option}={value}")
        check_contract(argv)

    check()


def loaded_modules(script):
    """The liequant modules in sys.modules after a fresh interpreter runs ``script``."""
    script += "\nimport sys\nprint(*(m for m in sys.modules if m.startswith('liequant')))"
    src = os.path.dirname(os.path.dirname(os.path.abspath(liequant.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


# liequant submodules loaded by each subcommand besides liequant.cli and
# liequant.errors; None only builds the parser
SUBCOMMAND_MODULES = {None: set(), "wien": {"thermal", "matrixcore"},
                      "stefan": {"thermal", "matrixcore"}, "rydberg": {"spectra"}}


@pytest.mark.parametrize("command", SUBCOMMAND_MODULES, ids=str)
def test_subcommand_loads_only_its_library_module(command):
    run = f"main([{command!r}])" if command else "build_parser()"
    loaded = loaded_modules(f"from liequant.cli import build_parser, main\n{run}")
    expected = {"cli", "errors", *SUBCOMMAND_MODULES[command]}
    assert loaded == {"liequant", *(f"liequant.{m}" for m in expected)}


def test_package_imports_each_submodule_on_first_use():
    # only the package and its error module, and no numpy: the guards import it when they run
    assert loaded_modules("import sys, liequant\nassert 'numpy' not in sys.modules") == \
        {"liequant", "liequant.errors"}
    loaded = loaded_modules("import liequant\nassert liequant.su2reps.MAX_DIM == 900\n"
                            "from liequant import fock\nassert fock.MAX_LEVELS == 2048\n"
                            "assert not hasattr(liequant, 'no_such_module')")
    assert {"liequant.su2reps", "liequant.fock"} <= loaded
    assert not {"liequant.fermion", "liequant.poisson", "liequant.thermal", "liequant.cli"} & loaded
