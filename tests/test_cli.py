import json
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from densefrac import cli
from densefrac.certificate import frac_str
from densefrac.errors import DensefracError

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


def write_doc(path, doc):
    """Write a document's JSON value as construct --out writes documents:
    the writer's layout and one newline."""
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def test_rho_u2():
    p = run_cli("rho", "--u", "2")
    assert p.returncode == 0
    assert abs(json.loads(p.stdout)["rho"] - 0.30685281944) < 1e-9


def test_rho_needs_a_flag():
    p = run_cli("rho")
    assert p.returncode == 64


def test_construct_usage_error():
    p = run_cli("construct", "--r", "1/3", "--x", "0")
    assert p.returncode == 64


@pytest.mark.parametrize(
    "flag, value", [("--x-prime", "0"), ("--x-prime", "-5"), ("--y-prime", "0")]
)
def test_construct_nonpositive_bound_is_usage_error(flag, value):
    p = run_cli("construct", "--r", "1/2", "--x", "10000", flag, value)
    assert p.returncode == 64


def test_construct_non_finite_eta_exit_64():
    """eta is only the slack of the density theorem, so construct takes no
    --eta, finite or not."""
    for value in ("nan", "0.1"):
        p = run_cli("construct", "--r", "1/2", "--x", "10000", "--eta", value)
        assert p.returncode == 64 and "unrecognized arguments" in p.stderr


def test_construct_lambda_flag_is_gone():
    """delta alone sets the cutoff, so construct takes no --lambda, in either
    of the modes it once named."""
    for mode in ("adaptive", "formula"):
        p = run_cli("construct", "--r", "1/2", "--x", "1000", "--lambda", mode)
        assert p.returncode == 64 and "unrecognized arguments" in p.stderr


def test_construct_infeasible_exit_2():
    p = run_cli("construct", "--r", "10/1", "--x", "1000")
    assert p.returncode == 2
    out = json.loads(p.stdout)
    assert out["code"] == "infeasible_mass"
    assert out["failing_parameter"] == "x"
    assert out["suggestion"]


@pytest.mark.parametrize(
    "r, x, flag, value",
    [
        ("1/2", "533", "--x-prime", "50"),
        ("2/5", "1672", "--y-prime", "12"),
        ("7/8", "451", "--y-prime", "4"),
    ],
)
def test_construct_unhonourable_pin_exit_2(r, x, flag, value):
    """A well-formed x' or y' that the plan at this x cannot honour is
    infeasible (exit 2), not a usage error."""
    p = run_cli("construct", "--r", r, "--x", x, flag, value)
    assert p.returncode == 2
    out = json.loads(p.stdout)
    assert out["code"] == "infeasible_mass"
    assert out["failing_parameter"] == flag[2:].replace("-", "_")


def test_construct_above_the_sieve_bound_exit_7():
    """x above the sieve's memory bound is a typed refusal naming x, not a
    usage error."""
    p = run_cli("construct", "--r", "1", "--x", "100000000")
    assert p.returncode == 7
    out = json.loads(p.stdout)
    assert out["code"] == "sieve_bound"
    assert out["failing_parameter"] == "x"
    assert "100000000" in out["message"] and "60000000" in out["message"]


def test_construct_unsupported_denominator_exit_3():
    p = run_cli("construct", "--r", "1/1048576", "--x", "100000", "--k", "3")
    assert p.returncode == 3


@pytest.mark.parametrize("b", [2**61 - 1, 2**89 - 1])
def test_construct_huge_prime_denominator_exit_3(b):
    """A prime denominator far above 10^6 is refused, not factored."""
    p = run_cli("construct", "--r", f"1/{b}", "--x", "1000", timeout=30)
    assert p.returncode == 3
    out = json.loads(p.stdout)
    assert (out["code"], out["failing_parameter"]) == ("unsupported_denominator", "r")


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


def test_verify_refuses_another_layout_exit_64(cert_file, tmp_path):
    """verify reads only the text construct --out writes (write_doc writes
    it again from its JSON value): the same document laid out with
    indent=1 is refused as malformed input."""
    text = cert_file.read_text()
    assert text.endswith("}\n")
    again, indented = tmp_path / "again.json", tmp_path / "indented.json"
    write_doc(again, json.loads(text))
    assert again.read_text() == text
    indented.write_text(json.dumps(json.loads(text), indent=1))
    p = run_cli("verify", str(indented))
    assert p.returncode == 64
    assert json.loads(p.stdout)["code"] == "parameter"


def test_verify_tampered_exit_1(cert_file, tmp_path):
    doc = json.loads(cert_file.read_text())
    doc["parts"]["A"]["deltas"][5] += 1
    bad = tmp_path / "bad.json"
    write_doc(bad, doc)
    p = run_cli("verify", str(bad))
    assert p.returncode == 1
    assert json.loads(p.stdout)["sum_exact"] is False


def test_verify_beyond_int64_exit_1(cert_file, tmp_path):
    """A denominator past int64, carried through a part's first, is read
    exactly: it fails max_ok and the sum, and only those. A gap of 19
    digits is not one construct writes: malformed input."""
    doc = json.loads(cert_file.read_text())
    size = doc["certificate"]["size"]
    doc["parts"]["E"] = {"first": 2**70, "deltas": []}
    bad = tmp_path / "big.json"
    write_doc(bad, doc)
    p = run_cli("verify", str(bad))
    assert p.returncode == 1
    assert json.loads(p.stdout) == {
        "sum_exact": False,
        "distinct": True,
        "max_ok": False,
        "harmonic_bound_ok": True,
        "density_exact": frac_str(Fraction(size + 1, 10**5)),
        "size": size + 1,
        "consistent_with_document": False,
    }
    doc = json.loads(cert_file.read_text())
    doc["parts"]["A"]["deltas"].append(10**18)
    write_doc(bad, doc)
    p = run_cli("verify", str(bad))
    assert p.returncode == 64
    assert json.loads(p.stdout)["code"] == "parameter"


@pytest.mark.parametrize(
    "part",
    [
        [1, 2],
        {"first": 3, "deltas": 7},
        {"first": 3, "deltas": [2.5]},
        {"first": None, "deltas": [5, 7]},
    ],
)
def test_verify_malformed_part_exit_64(cert_file, tmp_path, part):
    doc = json.loads(cert_file.read_text())
    doc["parts"]["A"] = part
    bad = tmp_path / "bad.json"
    write_doc(bad, doc)
    p = run_cli("verify", str(bad))
    assert p.returncode == 64
    assert json.loads(p.stdout)["code"] == "parameter"


@pytest.mark.parametrize(
    "key, value, code",
    [
        ("version", 99, 64),
        ("r", "2/6", 64),
        ("x", "100000", 64),
        ("density_exact", "1/2", 1),
        ("max_element", 7, 1),
        ("density_approx", 0.9, 1),
    ],
)
def test_verify_header_and_claims(cert_file, tmp_path, key, value, code):
    """A non-canonical header is malformed input (64); a wrong claim is a
    mismatch (1)."""
    doc = json.loads(cert_file.read_text())
    if key in doc:
        doc[key] = value
    else:
        doc["certificate"][key] = value
    bad = tmp_path / "bad.json"
    write_doc(bad, doc)
    p = run_cli("verify", str(bad))
    assert p.returncode == code
    if code == 1:
        assert json.loads(p.stdout)["consistent_with_document"] is False


def test_construct_thin_slices_certifies(tmp_path):
    """1/12 at 10^5 eliminates on slices thinner than p-1 and certifies;
    the elimination mode flag is gone."""
    out = tmp_path / "cert.json"
    p = run_cli("construct", "--r", "1/12", "--x", "100000", "--out", str(out))
    assert p.returncode == 0, p.stdout + p.stderr
    p = run_cli("verify", str(out))
    assert p.returncode == 0
    assert json.loads(p.stdout)["consistent_with_document"]
    p = run_cli("construct", "--r", "1/12", "--x", "100000", "--mode", "strict")
    assert p.returncode == 64 and "unrecognized arguments" in p.stderr


def test_verify_missing_file_exit_64():
    p = run_cli("verify", "/nonexistent/cert.json")
    assert p.returncode == 64


@pytest.mark.parametrize("command", ["verify", "construct"])
def test_directory_path_exit_64(command, tmp_path):
    """A path that cannot be read or written is a usage error with a JSON
    reason, not a traceback with exit 1 (verification failure)."""
    if command == "verify":
        p = run_cli("verify", str(tmp_path))
    else:
        p = run_cli("construct", "--r", "1/2", "--x", "10000", "--out", str(tmp_path))
    assert p.returncode == 64
    assert json.loads(p.stdout)["code"] == "io"


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


@pytest.mark.parametrize(
    "error", DensefracError.__subclasses__(), ids=lambda cls: cls.__name__
)
def test_error_exit_code(error, monkeypatch, capsys):
    """Every typed refusal exits with its class's code and names it in JSON."""

    def refuse(*args, **kwargs):
        raise error("refused")

    monkeypatch.setattr(cli, "construct_dense", refuse)
    assert cli.main(["construct", "--r", "1/3", "--x", "1000"]) == error.exit_code
    assert json.loads(capsys.readouterr().out)["code"] == error.code


@pytest.mark.parametrize(
    "argv",
    [
        ["sieve-stats", "--x", "30", "--y", "5", "--w", "30"],
        ["expand", "--mode", "odd", "--r", "2/15"],
    ],
    ids=["sieve-stats", "expand"],
)
def test_diagnostic_commands_are_gone(argv):
    with pytest.raises(SystemExit) as stop:
        cli.main(argv)
    assert stop.value.code == 64


def test_command_surface(capsys):
    """construct, verify and rho are the commands; rho takes --u and
    --c-of-r, and no longer --zeta or --psi."""
    for argv in (["--help"], ["rho", "--help"]):
        with pytest.raises(SystemExit):
            cli.main(argv)
    top, rho = capsys.readouterr().out.split("usage:")[1:]
    assert "{construct,verify,rho}" in top
    assert set(re.findall(r"--[a-z-]+", rho)) == {"--help", "--u", "--c-of-r"}
