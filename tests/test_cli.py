import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args, timeout=300):
    env = {"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"}
    proc = subprocess.run(
        [sys.executable, "-m", "densefrac.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )
    return proc


def test_rho_u2():
    p = run_cli("rho", "--u", "2")
    assert p.returncode == 0
    assert abs(json.loads(p.stdout)["rho"] - 0.30685281944) < 1e-9


def test_rho_needs_a_flag():
    p = run_cli("rho")
    assert p.returncode == 64


def test_expand_greedy():
    p = run_cli("expand", "--mode", "greedy", "--r", "5/6")
    assert p.returncode == 0
    assert json.loads(p.stdout)["terms"] == [2, 3]


def test_expand_odd():
    p = run_cli("expand", "--mode", "odd", "--r", "2/15")
    assert json.loads(p.stdout)["terms"] == [9, 45]


def test_sieve_stats():
    p = run_cli("sieve-stats", "--x", "30", "--y", "5", "--w", "30", "--k", "2")
    out = json.loads(p.stdout)
    assert out["count"] == 8
    assert out["count_a0"] == 2
    assert out["recip_sum"] == "12/5"


def test_construct_usage_error():
    p = run_cli("construct", "--r", "1/3", "--x", "0")
    assert p.returncode == 64


def test_construct_infeasible_exit_2():
    p = run_cli("construct", "--r", "10/1", "--x", "1000")
    assert p.returncode == 2
    out = json.loads(p.stdout)
    assert out["code"] == "infeasible_mass"
    assert out["failing_parameter"] == "x"
    assert out["suggestion"]


def test_construct_unsupported_denominator_exit_3():
    p = run_cli("construct", "--r", "1/1048576", "--x", "100000", "--k", "3")
    assert p.returncode == 3


@pytest.fixture(scope="module")
def cert_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("certs") / "cert.json"
    p = run_cli("construct", "--r", "1/3", "--x", "100000", "--out", str(path))
    assert p.returncode == 0, p.stdout + p.stderr
    return path


def test_construct_and_verify(cert_file):
    p = run_cli("verify", str(cert_file))
    assert p.returncode == 0
    out = json.loads(p.stdout)
    assert out["sum_exact"] and out["consistent_with_document"]


def test_verify_tampered_exit_1(cert_file, tmp_path):
    doc = json.loads(cert_file.read_text())
    doc["parts"]["A"]["deltas"][5] += 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    p = run_cli("verify", str(bad))
    assert p.returncode == 1
    assert json.loads(p.stdout)["sum_exact"] is False


def test_verify_missing_file_exit_64():
    p = run_cli("verify", "/nonexistent/cert.json")
    assert p.returncode == 64


def test_construct_deterministic_output():
    a = run_cli("construct", "--r", "1/4", "--x", "50000")
    b = run_cli("construct", "--r", "1/4", "--x", "50000")
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout


def test_construct_elimination_failed_exit_4():
    # pinned delta plus a forced oversized y' leaves the 29^2 ladder empty
    p = run_cli(
        "construct", "--r", "1/1", "--x", "100000",
        "--y-prime", "30", "--delta", "1/20",
    )
    assert p.returncode == 4
    out = json.loads(p.stdout)
    assert out["code"] == "elimination_failed"
    assert out["prime"] == 29 and out["power"] == 2


def test_expand_bound_exceeded_exit_6():
    p = run_cli("expand", "--mode", "odd", "--r", "1/11025", "--max-term", "999")
    assert p.returncode == 6
    assert json.loads(p.stdout)["code"] == "bound_exceeded"
