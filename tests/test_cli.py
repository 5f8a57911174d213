"""CLI contract: output formats, exit codes, determinism."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import liequant
from liequant.cli import main


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
