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
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import liequant
from liequant import cli
from liequant.cli import MAX_ORDER, MAX_SAMPLES, main
from liequant.errors import MAX_ASSIGN_ITERS, MAX_ASSIGN_STARTS
from liequant.fermion import MAX_MODES
from liequant.fock import MAX_LEVELS, CoherentState
from liequant.liealg import DIM_CAP
from liequant.spectra import MAX_ASSIGN_LINES, MAX_KMAX
from liequant.su2reps import MAX_DIM, clebsch_gordan


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

    @pytest.mark.parametrize("argv, array", [
        (("cg", "--k", "3/2", "--l", "1", "--full"),
         lambda: clebsch_gordan(Fraction(3, 2), Fraction(1))[1]),
        (("coherent", "--lam=-0.5,0.25", "--z=0.3,-0.2", "--dim", "12"),
         lambda: CoherentState(complex(-0.5, 0.25), complex(0.3, -0.2), 12).coeffs),
    ])
    def test_complex_arrays_as_re_im_pairs(self, capsys, argv, array):
        code, out, _ = run_cli(capsys, *argv)
        data = json.loads(out)
        got = np.array(data["isometry" if argv[0] == "cg" else "coeffs"])
        assert code == 0 and out == cli._jdump(data)
        assert np.array_equal(got[..., 0] + 1j * got[..., 1], array())

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


def reference_cover_check(samples, seed):
    """The per-sample loop that cover-check ran before it drew and checked a batch."""
    from liequant.rotations import covering_map, haar_su2
    rng = np.random.default_rng(seed)
    worst_h = worst_sign = 0.0
    kernel_ok = True
    for _ in range(samples):
        u1 = haar_su2(rng)
        u2 = haar_su2(rng)
        r1 = covering_map(u1).m
        prod = covering_map(u1 @ u2).m
        worst_h = max(worst_h, float(np.max(np.abs(prod - r1 @ covering_map(u2).m))))
        worst_sign = max(worst_sign, float(np.max(np.abs(covering_map(-u1).m - r1))))
        if np.max(np.abs(r1 - np.eye(3))) <= 1e-10:
            near = min(abs(u1.x - 1) + abs(u1.y), abs(u1.x + 1) + abs(u1.y))
            kernel_ok = kernel_ok and near <= 1e-8
    return {"samples": samples, "max_homomorphism_defect": worst_h,
            "max_sign_defect": worst_sign, "kernel_ok": kernel_ok,
            "pass": worst_h <= 1e-10 and worst_sign <= 1e-14 and kernel_ok}


class TestCoverCheckBatch:
    """rotations.cover_check checks all samples as arrays, with the checks of the per-sample
    loop, and cover-check prints what it returns."""

    @pytest.mark.parametrize("samples, seed", [(0, 0), (1, 5), (2, 9), (1000, 7), (1000, 40)])
    def test_matches_the_per_sample_loop(self, capsys, samples, seed):
        from liequant.rotations import cover_check
        code, out, err = run_cli(capsys, "cover-check", "--samples", str(samples),
                                 "--seed", str(seed))
        got, want = json.loads(out), reference_cover_check(samples, seed)
        assert (code, err) == (0, "")
        # the library's numbers, as the CLI prints them, against the loop's below
        assert got == {"samples": samples, **cover_check(samples, seed), "pass": True}
        # batched arithmetic rounds differently in the last bits of the products
        assert abs(got.pop("max_homomorphism_defect") -
                   want.pop("max_homomorphism_defect")) <= 2e-15
        assert got == want and got["max_sign_defect"] == 0.0

    def test_zero_samples_output(self, capsys):
        code, out, _ = run_cli(capsys, "cover-check", "--samples", "0")
        assert code == 0
        assert out == ('{\n  "samples": 0,\n  "max_homomorphism_defect": 0.0,\n'
                       '  "max_sign_defect": 0.0,\n  "kernel_ok": true,\n  "pass": true\n}\n')

    def test_no_loop_over_samples(self):
        import ast
        import inspect

        from liequant import rotations

        tree = ast.parse(inspect.getsource(rotations.cover_check))
        assert not [node for node in ast.walk(tree) if isinstance(node, (ast.For, ast.While))]
        # the one comprehension runs over the four images R(u1), R(u2), R(u1 u2), R(-u1)
        assert [ast.unparse(c.iter) for c in ast.walk(tree)
                if isinstance(c, ast.comprehension)] == ["pairs"]

    def test_transposed_cover_fails_the_homomorphism(self, capsys, monkeypatch):
        from liequant import rotations
        cover = rotations._cover
        monkeypatch.setattr(rotations, "_cover", lambda x, y: cover(x, y).swapaxes(-1, -2))
        assert run_cli(capsys, "cover-check", "--samples", "20") == (1, "", "check_failed\n")

    def test_scaled_cover_is_not_a_rotation(self, capsys, monkeypatch):
        from liequant import rotations
        cover = rotations._cover
        monkeypatch.setattr(rotations, "_cover", lambda x, y: 1.001 * cover(x, y))
        assert run_cli(capsys, "cover-check", "--samples", "20") == (1, "", "not_rotation\n")

    def test_trivial_cover_fails_the_kernel(self, capsys, monkeypatch):
        """A map onto the identity is a homomorphism that loses signs, but its kernel is all
        of SU(2): only the kernel test tells it from the covering map."""
        from liequant import rotations
        monkeypatch.setattr(rotations, "_cover",
                            lambda x, y: np.broadcast_to(np.eye(3), np.shape(x) + (3, 3)))
        assert run_cli(capsys, "cover-check", "--samples", "20") == (1, "", "check_failed\n")


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
        # one more than errors.MAX_ORDER levels or matrix rows
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
        # a JSON integer past the float range is infinite, as 1e400 is: it raised OverflowError
        ({"m.json": '{"matrix": [[1%s, 0, 0], [0, 1, 0], [0, 0, 1]]}' % ("0" * 400)},
         ("euler", "--in", "m.json"), "not_finite"),
        ({"m.json": '{"matrix": 1%s}' % ("0" * 400)}, ("lift", "--in", "m.json"), "shape"),
        ({"m.json": '{"matrix": [[1%s]]}' % ("0" * 400)},
         ("gibbs", "--in", "m.json", "--beta", "1"), "not_finite"),
        ({"d.csv": "omega,weight\n1.0,1.0\n", "l.json": '{"levels": [0, 1, 1%s]}' % ("0" * 400)},
         ("assign", "--data", "d.csv", "--levels", "l.json"), "not_finite"),
        # a level list that is one number: it raised AxisError
        ({"d.csv": "omega,weight\n1.0,1.0\n", "l.json": '{"levels": 0.0}'},
         ("assign", "--data", "d.csv", "--levels", "l.json"), "shape"),
        # JSON booleans are not numbers: they were read as 1.0 and 0.0 and exited 0
        ({"m.json": json.dumps({"matrix": [[True, False, False], [False, True, False],
                                           [False, False, True]]})},
         ("euler", "--in", "m.json"), "bad_input"),
        ({"d.csv": "omega,weight\n1.0,1.0\n", "l.json": '{"levels": [false, true]}'},
         ("assign", "--data", "d.csv", "--levels", "l.json"), "bad_input"),
        # one more than MAX_ASSIGN_STARTS starts or MAX_ASSIGN_ITERS rounds: the first ran for days
        *(({"d.csv": "omega,weight\n1.0,1.0\n", "l.json": '{"levels": [0, 1]}'},
           ("assign", "--data", "d.csv", "--levels", "l.json", option, str(cap + 1)), "size_cap")
          for option, cap in (("--starts", MAX_ASSIGN_STARTS), ("--max-iters", MAX_ASSIGN_ITERS))),
        # JSON strings are not numbers: numpy read "1" and " 1e0 " as 1.0, and these exited 0
        ({"m.json": json.dumps({"matrix": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]})},
         ("euler", "--in", "m.json"), "bad_input"),
        ({"d.csv": "omega,weight\n1.0,1.0\n", "l.json": '{"levels": ["0", " 1e0 "]}'},
         ("assign", "--data", "d.csv", "--levels", "l.json"), "bad_input"),
        # --starts counts every solve: 0 and -5 were run as 1 and exited 0
        *(({"d.csv": "omega,weight\n1.0,1.0\n", "l.json": '{"levels": [0, 1]}'},
           ("assign", "--data", "d.csv", "--levels", "l.json", starts), "bad_iters")
          for starts in ("--starts=0", "--starts=-5")),
        # the integrator caps --steps, after the state is read: this gave size_cap
        ({}, ("rigidbody", "--inertia=-1,2,3", "--j0", "1,1,1", "--steps", "100001"),
         "bad_inertia"),
        # a third column was dropped without a word, and this exited 0
        ({"d.csv": "omega,weight\n1,1,3\n", "l.json": '{"levels": [0, 1]}'},
         ("assign", "--data", "d.csv", "--levels", "l.json"), "bad_input"),
        # the sample count is read before the seed
        ({}, ("cover-check", "--samples", "100001", "--seed=-1"), "size_cap"),
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
# a subcommand's first README line is named by the subcommand, a later one by its whole argv
README_IDS = [" ".join(argv if [a[0] for a in README_ARGVS[:i]].count(argv[0]) else argv[:1])
              for i, argv in enumerate(README_ARGVS)]


@pytest.mark.parametrize("argv", README_ARGVS, ids=README_IDS)
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


# Valid assign runs where a far level's difference over hbar*omega (1e300 / 1e-10)
# or its square (1e160 squared) leaves the float range: each printed an overflow
# RuntimeWarning.  The term is infinite, which is never the best for the line.
OVERFLOW_ASSIGN_FILES = [
    {"d.csv": "omega,weight\n1e-10,1\n", "l.json": json.dumps({"levels": [0, 1, top]})}
    for top in (1e150, 1e300)]


@pytest.mark.parametrize("files", OVERFLOW_ASSIGN_FILES, ids=lambda files: files["l.json"])
def test_overflowing_assign_terms_succeed(files, tmp_path):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code, out, err = run_process("assign", "--data", "d.csv", "--levels", "l.json", cwd=tmp_path)
    assert (code, err) == (0, "")
    assert_finite_output(out)


# The largest size under each cap finishes (one more is size_cap, in TestBadInput).
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
    ("cover-check", "--samples", str(MAX_SAMPLES)),
    ("assign", "--data", "lines.csv", "--levels", "init.json", "--starts", str(MAX_ASSIGN_STARTS)),
    ("assign", "--data", "cycle.csv", "--levels", "cycle.json",
     "--max-iters", str(MAX_ASSIGN_ITERS)),
]
# the files named by the assign rows: spectra.MAX_ASSIGN_LINES lines over two levels,
# the README's lines, and lines whose assignment never settles (every round runs)
CAP_FILES = {"cap_lines.csv": "omega,weight\n" + "1.0,1.0\n" * MAX_ASSIGN_LINES,
             "cap_levels.json": '{"levels": [0, 1]}',
             "lines.csv": "omega,weight\n" + "".join(
                 f"{w},1.0\n" for w in (0.2, 1.0, 1.5, 1.7, 2.5, 2.7)),
             "init.json": json.dumps({"levels": [0.01, 0.99, 2.52, 2.69]}),
             "cycle.csv": "omega,weight\n3.0,2.0\n2.0,0.5\n1.0,1.0\n",
             "cycle.json": json.dumps({"levels": [1.85, 2.77, 0.61, 2.96]})}


@pytest.mark.parametrize("argv", CAP_ARGVS,
                         ids=lambda argv: " ".join(a if len(a) < 40 else a[:36] + "..." for a in argv))
def test_largest_size_under_cap_succeeds(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, text in CAP_FILES.items():
        if name in argv:
            (tmp_path / name).write_text(text)
    assert check_contract(argv) == 0


def test_cycle_files_run_every_round(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name in ("cycle.csv", "cycle.json"):
        (tmp_path / name).write_text(CAP_FILES[name])
    assert main(["assign", "--data", "cycle.csv", "--levels", "cycle.json"]) == 0
    assert json.loads(capsys.readouterr().out)["stopped_on"] == "max_iters"


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
    ("euler", ("--in",), ()),
    ("lift", ("--in",), ()),
    ("gibbs", ("--beta", "--in"), ()),
    ("assign", ("--data", "--levels"), ("--hbar", "--max-iters", "--starts", "--seed")),
]
# options that name an input file, and the kind of file drawn for each
FILE_OPTIONS = {("euler", "--in"): "matrix", ("lift", "--in"): "matrix",
                ("gibbs", "--in"): "matrix", ("assign", "--data"): "lines",
                ("assign", "--levels"): "levels"}
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


# Shrunk counterexamples of the file strategies, run in a directory holding the
# files: a JSON integer past the float range raised OverflowError, and a level
# list that is one number raised AxisError
HUGE_INTEGER = "1" + "0" * 400
FILE_COUNTEREXAMPLES = [
    *(((*command, "--in=m.json"), {"m.json": f'{{"matrix": {HUGE_INTEGER}}}'})
      for command in (("euler",), ("lift",), ("gibbs", "--beta=0"))),
    (("assign", "--data=d.csv", "--levels=l.json"),
     {"d.csv": "omega,weight\n2047,2047\n", "l.json": '{"levels": 0.0}'}),
]


@pytest.mark.parametrize("argv, files", FILE_COUNTEREXAMPLES,
                         ids=[" ".join(argv) for argv, _ in FILE_COUNTEREXAMPLES])
def test_file_contract_counterexample(argv, files, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    check_contract(argv)


def contract_id(command, required, optional):
    """The command, and the file options it reads, such as ``euler --in``."""
    return " ".join((command, *(o for o in required if (command, o) in FILE_OPTIONS)))


@pytest.mark.parametrize("command, required, optional", CONTRACT_COMMANDS,
                         ids=[contract_id(*c) for c in CONTRACT_COMMANDS])
def test_contract_property(command, required, optional, tmp_path):
    """Exit codes, tokens and finite output hold for extreme and invalid numbers and files."""
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
    # JSON files: the field as numbers of the right shape, or as nested lists of
    # numbers, NaN, Infinity, huge integers, strings (numerals among them),
    # booleans and null; or a document of another shape, or text that does not parse
    real = number.map(float)
    leaf = st.one_of(real, st.integers(-2, 60), st.just(10**400), st.booleans(), st.none(),
                     st.text(max_size=2), number)
    nested = st.recursive(leaf, lambda inner: st.lists(inner, max_size=3), max_leaves=10)
    square = st.integers(0, 4).flatmap(
        lambda n: st.lists(st.lists(real, min_size=n, max_size=n), min_size=n, max_size=n))
    turns = st.sampled_from(([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, -1, 0], [1, 0, 0], [0, 0, 1]],
                             [[-1, 0, 0], [0, -1, 0], [0, 0, 1]], [[0, 0, 1], [1, 0, 0], [0, 1, 0]]))

    def json_file(key, field):
        return st.one_of(st.builds(lambda v: json.dumps({key: v}), st.one_of(field, nested)),
                         nested.map(json.dumps), st.sampled_from(("", "{", f'{{"{key}": ]')))

    # CSV files under the header: 0 to 3 columns of numbers, empty fields and text
    field = st.one_of(number, st.sampled_from(("", "x", "1e400")))
    rows = st.integers(0, 3).flatmap(
        lambda k: st.lists(st.lists(field, min_size=k, max_size=k).map(",".join), max_size=4))
    # rotations and levels written as numeral strings, such as "1" and "-1e308"
    quoted = turns.map(lambda m: [[str(v) for v in row] for row in m])
    files = {"matrix": json_file("matrix", st.one_of(square, turns, quoted)),
             "levels": json_file("levels", st.one_of(st.lists(real, max_size=5),
                                                     st.lists(number, min_size=1, max_size=5))),
             "lines": rows.map(lambda lines: "omega,weight\n" + "".join(f"{l}\n" for l in lines))}

    @hypothesis.settings(max_examples=40, derandomize=True, deadline=None, database=None,
                         suppress_health_check=[hypothesis.HealthCheck.too_slow])
    @hypothesis.given(st.data())
    def check(data):
        argv = [command]
        for option in required + optional:
            if (command, option) in FILE_OPTIONS:
                path = tmp_path / option.lstrip("-")
                path.write_text(data.draw(files[FILE_OPTIONS[command, option]]))
                argv.append(f"{option}={path}")
            elif option in FLAG_OPTIONS:
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


def test_parser_and_rigidbody_load_no_numpy():
    """Building the parser and a rigidbody run load no numpy: poisson imports none, and cli.py
    imports it only in the handlers whose own code needs it."""
    loaded = loaded_modules(
        "import sys\nfrom liequant.cli import build_parser, main\nbuild_parser()\n"
        "assert 'numpy' not in sys.modules\n"
        "main(['rigidbody', '--inertia=1,2,3', '--j0=1,0.5,0.2', '--steps', '3'])\n"
        "assert 'numpy' not in sys.modules")
    assert loaded == {"liequant", "liequant.cli", "liequant.errors", "liequant.poisson"}


def test_package_imports_each_submodule_on_first_use():
    # only the package and its error module, and no numpy: the guards import it when they run
    assert loaded_modules("import sys, liequant\nassert 'numpy' not in sys.modules") == \
        {"liequant", "liequant.errors"}
    loaded = loaded_modules("import liequant\nassert liequant.su2reps.MAX_DIM == 900\n"
                            "from liequant import fock\nassert fock.MAX_LEVELS == 2048\n"
                            "assert not hasattr(liequant, 'no_such_module')")
    assert {"liequant.su2reps", "liequant.fock"} <= loaded
    assert not {"liequant.fermion", "liequant.poisson", "liequant.thermal", "liequant.cli"} & loaded


def reference_jdump(obj) -> str:
    """json's indented encoder, which the join-based ``cli._jdump`` must match byte for byte."""
    def default(o):
        if isinstance(o, complex):
            return [o.real, o.imag]
        if isinstance(o, (np.ndarray, np.integer)):
            return o.tolist()
        raise TypeError(f"not serializable: {type(o)}")
    return json.dumps(obj, indent=2, default=default) + "\n"


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def cli_round_jobs(seeds, workdir):
    """The ``liequant`` argvs and input files of the benchmark's cli rounds."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return [(job.payload, job.files) for seed in seeds
            for job in workloads.cli_round(np.random.default_rng(seed), workdir)]


class TestJsonWriter:
    def test_bytes_match_json_dumps(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        real = st.one_of(st.floats(), st.sampled_from((0.0, -0.0, math.nan, math.inf, -math.inf)))
        number = st.one_of(st.integers(-10**20, 10**20), real,
                           st.builds(complex, real, real), st.complex_numbers())
        leaf = st.one_of(number, st.booleans(), st.none(), st.text(max_size=3))
        # lists of one number type, and rows of them, take the writer's joined path
        rows = st.one_of(*(st.lists(st.lists(kind, min_size=1, max_size=3), max_size=3)
                           for kind in (st.integers(), real, st.complex_numbers())))
        flat = st.one_of(*(st.lists(kind, max_size=4)
                           for kind in (st.integers(), real, st.complex_numbers())))
        tree = st.recursive(st.one_of(leaf, flat, rows), lambda inner: st.one_of(
            st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)),
            max_leaves=20)

        @hypothesis.settings(max_examples=200, derandomize=True, deadline=None, database=None)
        @hypothesis.given(tree)
        def check(obj):
            assert cli._jdump(obj) == reference_jdump(obj)

        check()

    def test_numpy_values(self):
        obj = {"a": np.arange(3), "b": np.int64(7), "c": np.float64(0.1), "d": np.eye(2),
               "e": np.array([1 + 2j, np.nan]), "f": (1, [2.5, np.float64(-0.0)]), "g": []}
        assert cli._jdump(obj) == reference_jdump(obj)

    def test_cli_runs_print_the_reference_bytes(self, tmp_path, monkeypatch):
        """Every README argv and the benchmark's cli rounds of seeds 1-40."""
        if not (README.is_file() and PERFBENCH.is_dir()):
            pytest.skip("README.md and perfbench/ are not beside the source tree")
        fast, written = cli._jdump, []

        def compare(obj):
            text = fast(obj)
            assert text == reference_jdump(obj)
            written.append(text)
            return text

        monkeypatch.setattr(cli, "_jdump", compare)
        monkeypatch.chdir(tmp_path)
        readme_files = {name: CAP_FILES[name] for name in ("lines.csv", "init.json")}
        jobs = [(argv, readme_files) for argv in README_ARGVS]
        for argv, files in jobs + cli_round_jobs(range(1, 41), str(tmp_path)):
            for name, text in files.items():
                (tmp_path / name).write_text(text)
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(list(argv)) == 0, argv
        assert len(written) >= 500
