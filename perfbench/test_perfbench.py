"""Smoke test of the benchmark at x = 10^4.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import child  # noqa: E402
import run  # noqa: E402


def make_checkout(root: Path) -> Path:
    """A copy of what the benchmark needs, so its state stays out of the repo."""
    shutil.copytree(ROOT / "src", root / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root)
    return root


def run_bench(cwd: Path, workload: str = "grid-1e6", trace: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=120,
    )
    assert proc.returncode == 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def edit_source(checkout: Path, module: str, old: str, new: str) -> None:
    path = checkout / "src" / "densefrac" / module
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    return make_checkout(tmp_path_factory.mktemp("checkout"))


@pytest.mark.parametrize("workload, trace, section", [
    ("grid-1e6", 0, "end_to_end"),
    ("sweep-1e5", 1, "per_layer"),
])
def test_every_metric_prints_with_its_unit(checkout, workload, trace, section):
    result = run_bench(checkout, workload, trace)
    assert result["correct"] is True
    assert result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in spec[section]}
    got = result["metrics"]
    assert set(got) == set(want)
    for name, unit in want.items():
        assert got[name]["unit"] == unit
        assert isinstance(got[name]["value"], (int, float))
    if trace:
        outcomes = sum(v["value"] for k, v in got.items() if k.startswith("outcome."))
        assert outcomes == result["attempted"]
        assert result["failed"] == result["attempted"] - got["outcome.certified"]["value"]
        assert result["failed"] > 0  # x = 10^4 is too small for some sweep targets


def test_stored_digests_follow_the_source(tmp_path):
    checkout = make_checkout(tmp_path)
    assert run_bench(checkout)["correct"] is True
    # A correct change that alters every document is compared only with
    # runs of the changed code.
    edit_source(checkout, "certificate.py", 'separators=(",", ":")', 'separators=(", ", ": ")')
    assert run_bench(checkout)["correct"] is True
    stores = sorted((checkout / ".perfbench").glob("digests-*.json"))
    assert len(stores) == 2
    # Within one version of the code, a digest that differs from an earlier
    # run's fails the check.
    for store in stores:
        known = json.loads(store.read_text())
        for seen in known.values():
            seen["sha256"] = "0" * 64
        store.write_text(json.dumps(known))
    assert run_bench(checkout)["correct"] is False


def test_output_check_that_raises_reports_incorrect(tmp_path):
    checkout = make_checkout(tmp_path)
    edit_source(
        checkout, "certificate.py", "    r = parse_frac(doc.r)\n",
        "    raise RuntimeError('broken')\n",
    )
    result = run_bench(checkout)
    assert result["correct"] is False
    assert result["failed"] == 0


def test_altered_denominator_fails_the_output_check():
    from densefrac.certificate import (
        CertificateDocument, decode_deltas, document_from_representation, encode_deltas,
    )
    from densefrac.construct import construct_dense

    r, x = Fraction(1, 2), 10**4
    text = document_from_representation(construct_dense(r, x)).to_json()
    assert child.check_document(CertificateDocument.from_json(text), r, x)[1] is None

    doc = CertificateDocument.from_json(text)
    taken = set(doc.denominators())
    values = decode_deltas(doc.parts["A"])
    i = len(values) // 2
    values[i] = next(v for v in range(values[i] + 1, x + 1) if v not in taken)
    doc.parts["A"] = encode_deltas(values)
    assert child.check_document(doc, r, x)[1] is not None


def test_sweep_targets():
    assert run.sweep_targets(0) == run.sweep_pool(12)
    assert len(run.sweep_targets(0)) == 55
    drawn = run.sweep_targets(7)
    assert drawn == run.sweep_targets(7) != run.sweep_targets(8)
    assert len(drawn) == 55
    for seed in (0, 7, 8):
        assert sum(r <= run.SMALL_R for r in run.sweep_targets(seed)) == run.SWEEP_SMALL
    for r in drawn:
        assert 0 < r <= Fraction(6, 5)
        assert r.denominator <= 30 and run._cube_free(r.denominator)
    assert run.workload_targets("grid-1e6", 3) == run.workload_targets("grid-1e6", 0)
