"""Tiny-size smoke test of the benchmark.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_smoke.py -q

It checks that every workload prints every metric named in
``BENCHMARK.json`` with its unit (both the end-to-end and the traced
per-layer set), that a tampered pinned digest fails the run, and that the
benchmark refuses to run without the program's source.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args, cwd=ROOT, seed=3):
    command = [sys.executable, str(cwd / "perfbench" / "run.py"), "--seed", str(seed),
               "--seconds", "0.2", "--size", "tiny", *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


def result(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace):
    done = run("--workload", workload, "--trace", str(trace))
    assert done.returncode == 0, done.stdout + done.stderr
    out = result(done)
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: metric["unit"] for name, metric in out["metrics"].items()
    }
    for name, metric in out["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        assert f"{name} " in done.stdout  # the readable table names it too


def test_held_out_seed_checks_repeats_only():
    done = run("--workload", "sweep_warm", seed=11)
    assert done.returncode == 0, done.stdout + done.stderr
    assert result(done)["correct"] is True


def test_tampered_pin_fails(tmp_path):
    pins = json.loads((HERE / "pins.json").read_text())
    digest = pins["paper16/tiny"]["3"]
    pins["paper16/tiny"]["3"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    tampered = tmp_path / "pins.json"
    tampered.write_text(json.dumps(pins))
    done = run("--workload", "paper16", "--pins", str(tampered))
    assert done.returncode != 0
    out = result(done)
    assert out["correct"] is False and out["failed"] == out["attempted"]
    assert "differs from the pinned" in done.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = run("--workload", "paper16", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
