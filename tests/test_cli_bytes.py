"""tools/cli_bytes.py: seed ranges, the first difference of two runs, the README's argvs."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "cli_bytes.py"


@pytest.fixture(scope="module")
def cli_bytes():
    if not TOOL.is_file():
        pytest.skip("tools/cli_bytes.py is not beside the tests")
    spec = importlib.util.spec_from_file_location("cli_bytes", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(code=0, stdout=b"", stderr=b"", files=None):
    return {"exit code": code, "stdout": stdout, "stderr": stderr, "files": files or {}}


def test_seed_range(cli_bytes):
    assert cli_bytes.seed_range("3") == range(3, 4)
    assert cli_bytes.seed_range("1-4") == range(1, 5)


def test_equal_runs_have_no_difference(cli_bytes):
    same = run(1, b"out", b"bad_input\n", {"a.csv": b"1,2\n"})
    assert cli_bytes.first_difference(same, dict(same)) is None


def test_stdout_byte_with_its_offset(cli_bytes):
    got = cli_bytes.first_difference(run(stdout=b"abcdef"), run(stdout=b"abcXef"))
    assert got == "stdout differs at byte 3:\n  base: b'abcdef'\n  head: b'abcXef'"


def test_stdout_prefix_differs_at_the_shorter_length(cli_bytes):
    got = cli_bytes.first_difference(run(stdout=b"ab"), run(stdout=b"abc"))
    assert got.startswith("stdout differs at byte 2:")


def test_exit_code_comes_first(cli_bytes):
    got = cli_bytes.first_difference(run(0, b"x"), run(1, b"y"))
    assert got == "exit code: base 0, head 1"


def test_missing_file(cli_bytes):
    got = cli_bytes.first_difference(run(files={"out.json": b"{}"}), run())
    assert got == "file out.json differs at byte 0:\n  base: b'{}'\n  head: b'<missing>'"


def test_readme_jobs_find_the_gl8_line(cli_bytes):
    if not (ROOT / "README.md").is_file():
        pytest.skip("README.md is not beside the tests")
    jobs = cli_bytes.readme_jobs(ROOT)
    assert (["algebra-verify", "--name", "gl(8)"], cli_bytes.README_FILES) in jobs
    assert all(argv and files is cli_bytes.README_FILES for argv, files in jobs)
