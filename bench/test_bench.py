"""Tests of the benchmark itself; not part of the repository's tier-1 suite.

    python -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_bench(root: Path, *args):
    return subprocess.run([sys.executable, str(root / "bench" / "run.py"),
                           *args], capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric(workload, trace):
    proc = run_bench(HERE.parent, "--workload", workload, "--seed", "3",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert ({m["name"]: m["unit"] for m in want}
            == {k: v["unit"] for k, v in result["metrics"].items()})


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "construct", "--seed", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_same_seed_same_inputs(tmp_path):
    for cls in workloads.WORKLOADS.values():
        a = cls(5, tmp_path).digest
        assert cls(5, tmp_path).digest == a
        assert cls(6, tmp_path).digest != a


def test_brent_check_rejects_a_perturbed_tensor():
    text = (workloads.FIXTURES / "laderman.tensor").read_text()
    terms, _ = workloads.read_tensor(text)
    assert workloads.is_matmul(terms)
    a, b, c = terms[0]
    bumped = [row[:] for row in a]
    bumped[0][0] += 1
    assert not workloads.is_matmul([(bumped, b, c)] + terms[1:])
