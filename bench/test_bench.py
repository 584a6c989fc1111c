"""The benchmark's own test: the short mode prints every metric named in
BENCHMARK.json with its unit, and a wrong expected label is a failure."""

import dataclasses
import importlib
import json
import random
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_short_mode_prints_every_metric_with_its_unit(trace, section):
    spec = _spec()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "all",
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--short"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    results = [json.loads(line) for line in lines if line.startswith("{")]
    assert len(results) == len(spec["workloads"])
    for result, workload in zip(results, spec["workloads"]):
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in spec[section]}
        for metric in spec[section]:
            got = result["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"]
            assert isinstance(got["value"], (int, float))
            prefix = f"{workload['name']}: {metric['name']} = "
            printed = [line for line in lines if line.startswith(prefix)]
            assert len(printed) == 1 and printed[0].endswith(" " + metric["unit"])


def test_wrong_expected_label_is_reported_as_a_failure():
    lib = types.SimpleNamespace(**{
        m: importlib.import_module(f"heapinv.{m}") for m in run.MODULES})
    entry = next(e for e in lib.corpus.load_corpus()
                 if e.name == wl.SHORT_PROGRAMS[1])
    wrong = "unsafe" if entry.expected == "safe" else "safe"
    tasks = wl.grid_tasks(lib, [dataclasses.replace(entry, expected=wrong)])
    domain = lib.fixpoint.InputDomain()
    kept = [wl.keep_matrix(wl.run_matrix(lib, domain, t)) for t in tasks]
    ok = wl.check_matrix(lib, domain, tasks, kept, ROOT, random.Random(0))
    assert [t.id for t, good in zip(tasks, ok) if not good] == \
        [f"{entry.name}/orig"]
