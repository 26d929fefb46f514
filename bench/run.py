#!/usr/bin/env python3
"""Loopback benchmark for semdns.

    python3 bench/run.py --workload {lookup,discover,churn} --seed N \
        --seconds S --trace {0,1} [--smoke]

Generates a master file from the seed, starts ``semdns serve`` on it as
its own process on 127.0.0.1, and drives it from a closed loop (one
request outstanding) through ``semdns.client``.  Every reply is checked
against the reference model.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` runs the same workload untraced and then traced,
and reports the per-layer metrics and the tracing overhead.  Each run
writes ``BENCH_<n>.json`` in the working directory; the last line of
standard output is one JSON object with the result.

Needs ``src/semdns`` next to this directory and Linux ``/proc``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
if not (SRC / "semdns" / "__init__.py").is_file():
    sys.exit(f"error: {SRC / 'semdns'} not found; run from a semdns checkout")
sys.path.insert(0, str(SRC))

import refmodel as rm  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from semdns import client  # noqa: E402
from semdns.records import TYPE_SOA  # noqa: E402

HOST = "127.0.0.1"
SETUP_LAUNCHES = 3  # setup_s is the median over this many server starts
WARMUP_S = 1.0
TAIL_PERCENTILES = (99.9, 99.5, 99, 98, 95, 90, 80, 75)
# the server and the load generator each get a core of their own when there are two
_CPUS = sorted(os.sched_getaffinity(0))
SERVER_CPU = _CPUS[-1] if len(_CPUS) >= 2 else None


class Server:
    """One ``semdns serve`` process on a fresh journal, timed until it answers."""

    def __init__(self, workdir: Path, zone_file: Path, label: str, spans: Path | None = None):
        for attempt in range(5):
            try:
                self._start(workdir, zone_file, f"{label}-{attempt}", spans)
                return
            except PortTaken:
                continue
        raise RuntimeError("no free port for the server after 5 tries")

    def _start(self, workdir: Path, zone_file: Path, label: str, spans: Path | None) -> None:
        self.port = _free_port()
        serve = ["serve", "--zone-file", str(zone_file), "--journal",
                 str(workdir / f"{label}.journal"), "--host", HOST, "--port", str(self.port),
                 "--split-length", str(rm.SPLIT)]
        if spans is None:
            cmd = [sys.executable, "-m", "semdns.cli", *serve]
        else:
            cmd = [sys.executable, str(BENCH / "traced_serve.py"), str(spans), *serve]
        log_path = workdir / f"{label}.log"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        t0 = time.perf_counter()
        with open(log_path, "wb") as log:
            self.proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                                         stdout=subprocess.DEVNULL, stderr=log, env=env)
        try:
            if SERVER_CPU is not None:
                os.sched_setaffinity(self.proc.pid, {SERVER_CPU})
            _await_serving(self.proc, log_path)
            reply = client.query(HOST, self.port, rm.ORIGIN, TYPE_SOA, timeout=60)
            self.setup_s = time.perf_counter() - t0
            if reply.rcode != 0 or not reply.answers:
                raise RuntimeError(f"server answered the first query with rcode {reply.rcode}")
        except BaseException:
            self.stop()
            raise

    def _proc_file(self, name: str) -> str:
        with open(f"/proc/{self.proc.pid}/{name}", encoding="ascii") as fh:
            return fh.read()

    def cpu_s(self) -> float:
        """User+system CPU seconds the server has used so far."""
        fields = self._proc_file("stat").rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in self._proc_file("status").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


class PortTaken(RuntimeError):
    pass


def _free_port() -> int:
    """A port that is free for both UDP and TCP on HOST right now."""
    while True:
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as udp, \
                socket.socket(socket.AF_INET, socket.SOCK_STREAM) as tcp:
            udp.bind((HOST, 0))
            port = udp.getsockname()[1]
            tcp.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            try:
                tcp.bind((HOST, port))
            except OSError:
                continue
            return port


def _await_serving(proc: subprocess.Popen, log_path: Path) -> None:
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        log = log_path.read_text(errors="replace")
        if "\nserving " in "\n" + log:
            return
        if proc.poll() is not None:
            if "cannot bind" in log:
                raise PortTaken(log)
            raise RuntimeError(f"server exited with {proc.returncode}: {log[-2000:]}")
        time.sleep(0.001)
    raise RuntimeError("server did not start serving within 120 s")


def drive(gen, seconds: float | None = None, count: int | None = None) -> list:
    """Run operations for ``seconds`` or exactly ``count`` of them.

    Each operation is (kind, latency ns, failed).
    """
    ops = []
    deadline = time.perf_counter() + (seconds or 0)
    while (len(ops) < count) if count is not None else (time.perf_counter() < deadline):
        ops.append(gen.run_op())
    return ops


def tail(latencies_ms: list[float]):
    """(percentile, value) for the highest percentile with ten samples beyond it."""
    xs = sorted(latencies_ms)
    for p in TAIL_PERCENTILES:
        idx = max(0, math.ceil(len(xs) * p / 100) - 1)
        if len(xs) - 1 - idx >= 10:
            return p, xs[idx]
    return None


def run_workload(spec, seed: int, seconds: float, smoke: bool, workdir: Path,
                 launches: int, spans: Path | None = None, replay: tuple | None = None):
    """One server, one closed loop.  Returns a dict of raw results."""
    world = workloads.World(spec, seed, smoke)
    zone_file = workdir / "zone.txt"
    zone_file.write_text(world.model.master_file(), encoding="utf-8")
    setups = []
    for i in range(launches - 1):
        server = Server(workdir, zone_file, f"setup{i}")
        setups.append(server.setup_s)
        server.stop()
    server = Server(workdir, zone_file, "traced" if spans else "serve", spans)
    try:
        setups.append(server.setup_s)
        gen = workloads.LoadGenerator(spec, seed, world, HOST, server.port)
        if replay is None:
            warm = drive(gen, seconds=min(WARMUP_S, seconds / 4))
        else:
            warm = drive(gen, count=replay[0])
        cpu0, t0 = server.cpu_s(), time.perf_counter()
        timed = drive(gen, seconds=seconds) if replay is None else drive(gen, count=replay[1])
        elapsed, cpu = time.perf_counter() - t0, server.cpu_s() - cpu0
        problems = gen.final_check()
        failures = gen.failures
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    return {"setups": setups, "warm": warm, "timed": timed, "elapsed": elapsed,
            "cpu": cpu, "rss": rss, "problems": problems, "failures": failures}


def end_to_end(res: dict) -> tuple[dict, dict, dict]:
    """The end-to-end metrics, the tail percentiles and the latency by kind."""
    timed = [op for op in res["timed"] if not op[2]]
    reads = [lat / 1e6 for kind, lat, _ in timed if kind not in workloads.UPDATE_KINDS]
    writes = [lat / 1e6 for kind, lat, _ in timed if kind in workloads.UPDATE_KINDS]
    n = len(res["timed"])
    metrics = {
        "setup_s": (statistics.median(res["setups"]), "s"),
        "ops_per_s": (len(timed) / res["elapsed"], "ops/s"),
        "read_p50_ms": (statistics.median(reads) if reads else 0.0, "ms"),
        "write_p50_ms": (statistics.median(writes) if writes else 0.0, "ms"),
        "server_cpu_ms_per_op": (res["cpu"] * 1e3 / n if n else 0.0, "ms"),
        "server_rss_mb": (res["rss"], "MiB"),
    }
    tails = {"read": (tail(reads), len(reads)), "write": (tail(writes), len(writes))}
    kinds = {}
    for kind, lat, _ in timed:
        kinds.setdefault(kind, []).append(lat / 1e6)
    per_kind = {k: {"count": len(v), "p50_ms": statistics.median(v)} for k, v in sorted(kinds.items())}
    return metrics, tails, per_kind


def write_bench_file(record: dict) -> Path:
    n = 1
    while True:
        path = Path(f"BENCH_{n}.json")
        try:
            with open(path, "x", encoding="utf-8") as fh:
                json.dump(record, fh, indent=1, sort_keys=True)
            return path
        except FileExistsError:
            n += 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny zones, one server start")
    args = p.parse_args(argv)
    if SERVER_CPU is not None:
        os.sched_setaffinity(0, set(_CPUS[:-1]))
    spec = workloads.SPECS[args.workload]
    work_root = Path(".bench_work")
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    launches = 1 if args.smoke else SETUP_LAUNCHES
    try:
        if not args.trace:
            res = run_workload(spec, args.seed, args.seconds, args.smoke, workdir, launches)
            metrics, tails, per_kind = end_to_end(res)
            extra = {"tails": tails, "per_kind": per_kind}
        else:
            # the untraced and the traced phase share the run's measuring time
            base = run_workload(spec, args.seed, args.seconds / 2, args.smoke, workdir, 1)
            tracer = tracing.Tracer()
            tracing.trace_client_layers(tracer)
            spans = workdir / "server_spans.json"
            res = run_workload(spec, args.seed, args.seconds / 2, args.smoke, workdir, 1, spans,
                               replay=(len(base["warm"]), len(base["timed"])))
            res["problems"] += base["problems"]
            res["failures"] += base["failures"]
            res["warm"] = base["warm"] + base["timed"] + res["warm"]
            server_trace = tracing.Trace(json.loads(spans.read_text(encoding="utf-8")))
            gen_trace = tracing.Trace({"names": tracer.names, "spans": tracer.spans})
            metrics = tracing.layer_metrics(server_trace, gen_trace)
            metrics["trace.overhead_pct"] = ((res["elapsed"] / base["elapsed"] - 1) * 100, "%")
            updates = sum(kind in workloads.UPDATE_KINDS for kind, _, _ in base["timed"])
            extra = {"update_share": updates / len(base["timed"]),
                     "untraced_elapsed_s": base["elapsed"], "traced_elapsed_s": res["elapsed"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = res["warm"] + res["timed"]
    attempted, failed = len(ops), sum(1 for op in ops if op[2])
    correct = not res["problems"]
    mix = Counter(kind for kind, _, _ in ops)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for side, (t, count) in extra.get("tails", {}).items():
        if t:
            print(f"{side}_p{t[0]:g}_ms {t[1]:.6g} ms ({count} samples)")
    for kind, row in extra.get("per_kind", {}).items():
        print(f"  {kind:8s} {row['count']:6d} ops  p50 {row['p50_ms']:.4g} ms")
    if "update_share" in extra:
        print(f"update_share {extra['update_share']:.4f} of {len(res['timed'])} timed operations")
    print(f"operations attempted {attempted} failed {failed}; mix {json.dumps(mix, sort_keys=True)}")
    for problem in (res["problems"] + res["failures"])[:20]:
        print("problem:", problem)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "correct": correct,
        "attempted": attempted, "failed": failed, "mix": mix,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "problems": res["problems"][:100], "failures": res["failures"][:100], **extra,
    }
    print(f"wrote {write_bench_file(record)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
