"""Smoke test of the benchmark at a tiny size (one-second runs).

Run from the repository root: python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(cwd, workload: str, trace: int, seed: int = 7):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_both_modes_report_every_metric_and_agree(workload):
    digests = []
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        out = bench(ROOT, workload, trace)
        assert out.returncode == 0, out.stderr
        *notes, last = out.stdout.strip().splitlines()
        result = json.loads(last)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        spec = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert {name: m["unit"] for name, m in result["metrics"].items()} == spec
        digests.append(notes[-1].split("payload_sha256=")[1].split()[0])
    # the traced run replays the quality set of the untraced run byte for byte
    assert digests[0] == digests[1]


def test_fails_without_program_sources():
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = bench(tmp, SPEC["workloads"][0]["name"], 0)
    assert out.returncode != 0
    assert out.stdout == ""
