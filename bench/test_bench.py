"""Smoke test of the benchmark: tiny zones, every workload, both modes,
and proof that the checks catch a wrong expected answer.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

import run  # puts src/ on sys.path
import refmodel as rm
import workloads

BENCH = Path(__file__).resolve().parent
END_TO_END = {"setup_s", "ops_per_s", "read_p50_ms", "write_p50_ms",
              "server_cpu_ms_per_op", "server_rss_mb"}


@pytest.fixture
def workdir():
    root = BENCH.parent / ".bench_work"
    root.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-", dir=root))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _run(workdir: Path, workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=workdir, capture_output=True, text=True, timeout=170, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.SPECS))
def test_smoke_run_is_correct(workdir, workload):
    result = _run(workdir, workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())

    traced = _run(workdir, workload, 1)
    assert traced["correct"] and traced["failed"] == 0
    layers = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert set(traced["metrics"]) == {m["name"] for m in layers}


@pytest.fixture
def gen(workdir):
    """A smoke-sized geo zone, its server and a load generator that has run a while."""
    spec = workloads.SPECS["churn"]
    world = workloads.World(spec, 3, smoke=True)
    zone_file = workdir / "zone.txt"
    zone_file.write_text(world.model.master_file(), encoding="utf-8")
    server = run.Server(workdir, zone_file, "test")
    try:
        g = workloads.LoadGenerator(spec, 3, world, run.HOST, server.port)
        run.drive(g, count=100)
        assert g.mismatches == [] and g.failures == []
        yield g
    finally:
        server.stop()


def _check(g, op) -> str:
    return getattr(g, "_op_" + op)()[1]()


def test_wrong_srv_is_caught(gen):
    for dev in gen.model.devices:
        dev.port += 1
    assert "differ" in _check(gen, "srv")


def test_wrong_txt_is_caught(gen):
    for dev in gen.model.devices:
        dev.txt["val"] = "wrong"
    assert "differ" in _check(gen, "txt")


def test_wrong_ptr_set_is_caught(gen):
    real = gen.model.devices[0]
    gen.model.devices = [rm.Device("phantom", real.ident, 1, real.target)]
    assert "differ" in _check(gen, "browse")


def test_wrong_nxdomain_is_caught(gen):
    gen.model.exists = lambda name: True
    assert "rcode 3" in _check(gen, "absent")


def test_wrong_status_is_caught(gen):
    dev = gen.model.devices[0]
    _, check = gen._register(dev, True, time.perf_counter_ns())
    assert "differ" in check()


def test_wrong_serial_is_caught(gen):
    gen.model.serial += 1
    assert "serial" in _check(gen, "ixfr")


def test_wrong_geohash_is_caught(gen, monkeypatch):
    monkeypatch.setattr(rm, "geohash", lambda lat, lng, n: "0" * n)
    assert "reference encoder" in _check(gen, "join")


def test_replica_drift_is_caught(gen):
    gen.model.devices[0].txt["val"] = "never-sent"
    assert any("replica differs" in p for p in gen.final_check())
