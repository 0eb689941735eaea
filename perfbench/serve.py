"""The ``serve_http`` workload: ``repro serve`` with its CLI defaults.

The pipeline comes from ``repro export --dataset adult --learner lr
--intervention reject-option``, exported into the run's work directory at
the start of every run and never timed. The load comes
from this one process over two keep-alive connections:

* warm-up: point and bulk requests, checked but not timed;
* point, open loop: single-record ``POST /score`` due at a fixed rate
  below capacity, each timed from when it was due;
* point, closed loop: both connections send back to back (saturation);
* bulk: one connection sends 256-record ``{"records": [...]}`` bodies back
  to back.

Every response is parsed as strict JSON and compared with the in-process
``score_record`` / ``score_frame`` output for the same records, computed
before any timing.
"""

from __future__ import annotations

import contextlib
import gc
import http.client
import itertools
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

import numpy as np

from common import Outcome
from tracing import delta, sum_deltas

HERE = os.path.dirname(os.path.abspath(__file__))

EXPORT_ARGS = [
    "export", "--dataset", "adult", "--learner", "lr",
    "--intervention", "reject-option", "--tag", "production",
]
RECORDS = 1024
BULK_SIZE = 256
CONNECTIONS = 2
# req/s: a lone request takes ~3.3 ms (2 ms of it waiting for a batch
# mate), so requests 6.7 ms apart stay apart even when the machine runs
# at half speed; at 250 req/s a slow stretch tripled the p90
POINT_RATE = 150.0
ROUNDS = 5
# share of a round spent in the open loop: 1,200 samples at 20 s, so the
# p90 has 120 samples beyond it; the closed loops get the rest
POINT_SHARE = 0.4
SETUP_REPEATS = 5
WARMUP_POINT = 300
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def export_pipeline(work_dir: str) -> str:
    """The registry under ``work_dir`` holding the exported pipeline.

    The first pass of a run exports it; a traced run's second pass reuses it.
    """
    from repro.cli import main as repro_main

    registry = os.path.join(work_dir, "registry")
    if os.path.isdir(registry):
        return registry
    with contextlib.redirect_stdout(sys.stderr):
        code = repro_main(EXPORT_ARGS + ["--registry", registry])
    if code != 0:
        raise RuntimeError(f"repro export exited with {code}")
    return registry


def _plain(value):
    if value is None:
        return None
    if isinstance(value, str):
        return value
    value = float(value)
    return None if value != value else value


def sample_records(seed: int) -> List[dict]:
    """``RECORDS`` adult rows without the label, drawn and ordered by seed."""
    from repro.datasets import load_dataset

    frame, spec = load_dataset("adult")
    order = np.random.default_rng(seed).permutation(frame.num_rows)[:RECORDS]
    subset = frame.take(order)
    columns = [name for name in subset.columns if name != spec.label_column]
    values = {name: subset[name] for name in columns}
    return [
        {name: _plain(values[name][i]) for name in columns}
        for i in range(subset.num_rows)
    ]


def expected_outputs(registry: str, records: List[dict]):
    """In-process answers for every request the load generator sends.

    A single record reaches the engine alone (``score_record``) or in a
    micro-batch with the other connection's record (``score_frame``); the
    two paths can differ in the last bit of the score, so both answers are
    accepted. With two connections a micro-batch never exceeds two rows.
    """
    from repro.serve import ModelRegistry, ScoringEngine, records_to_frame

    pipeline = ModelRegistry(registry, create=False).load_pipeline("production")
    engine = ScoringEngine(pipeline)
    spec = pipeline.spec
    point = []
    for index, record in enumerate(records):
        mate = records[(index + 1) % len(records)]
        batch = engine.score_frame(records_to_frame(spec, [record, mate]))
        paired = engine.record_result(float(batch.labels[0]), float(batch.scores[0]))
        alone = engine.score_record(record)
        point.append(
            [{"records_scored": 1, **alone}, {"records_scored": 1, **paired}]
        )
    bulk = []
    for start in range(0, len(records), BULK_SIZE):
        chunk = records[start:start + BULK_SIZE]
        batch = engine.score_frame(records_to_frame(spec, chunk))
        bulk.append(
            {
                "records_scored": batch.num_scored,
                "labels": [float(v) for v in batch.labels],
                "scores": [float(v) for v in batch.scores],
            }
        )
    return point, bulk


def _strict_loads(body: bytes):
    def refuse(token):
        raise ValueError(f"non-JSON constant {token!r}")

    return json.loads(body, parse_constant=refuse)


def _response_ok(status: int, body: bytes, accepted) -> bool:
    if status != 200:
        return False
    try:
        payload = _strict_loads(body)
    except ValueError:
        return False
    return any(payload == candidate for candidate in accepted)


# ----------------------------------------------------------------------
# server process
# ----------------------------------------------------------------------
def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class Server:
    """One ``repro serve`` process with the CLI defaults."""

    def __init__(self, registry: str, work_dir: str, trace: bool, index: int):
        self.port = _free_port()
        self.stats_path = os.path.join(work_dir, f"server-{index}.json")
        self.snapshots = 0
        self.log = open(os.path.join(work_dir, f"server-{index}.log"), "wb")
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            [
                sys.executable, os.path.join(HERE, "server_main.py"),
                self.stats_path, "1" if trace else "0", "--",
                "serve", "--registry", registry, "--port", str(self.port),
            ],
            stdout=self.log,
            stderr=self.log,
        )
        try:
            self.ready_s = self._wait_healthy()
        except BaseException:
            self.stop()
            raise

    def _wait_healthy(self) -> float:
        deadline = self.started + START_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                break
            connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                response.read()
                if response.status == 200:
                    return time.perf_counter() - self.started
            except OSError:
                pass
            finally:
                connection.close()
            time.sleep(0.002)
        raise RuntimeError("server did not become healthy; see its log")

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Counters as of now (traced servers only)."""
        self.snapshots += 1
        path = f"{self.stats_path}.{self.snapshots}"
        self.process.send_signal(signal.SIGUSR1)
        deadline = time.perf_counter() + 10.0
        while not os.path.exists(path):
            if time.perf_counter() > deadline:
                raise RuntimeError("server wrote no counter snapshot")
            time.sleep(0.005)
        with open(path) as handle:
            return json.load(handle)

    def stop(self) -> Optional[dict]:
        """Stop the server and wait for it; its peak memory, if written."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.log.close()
        if self.process.returncode != 0 or not os.path.exists(self.stats_path):
            return None
        with open(self.stats_path) as handle:
            return json.load(handle)


# ----------------------------------------------------------------------
# load generator
# ----------------------------------------------------------------------
class Client:
    """One keep-alive connection."""

    def __init__(self, port: int):
        self.connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)

    def post(self, body: bytes):
        self.connection.request(
            "POST", "/score", body, {"Content-Type": "application/json"}
        )
        response = self.connection.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self.connection.close()


def _run_threads(target, clients) -> None:
    errors: List[BaseException] = []

    def guarded(client):
        try:
            target(client)
        except Exception as error:  # re-raised below, in the caller's thread
            errors.append(error)

    threads = [threading.Thread(target=guarded, args=(c,)) for c in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def open_loop(clients, bodies, rate: float, seconds: float):
    """Send request ``i`` at ``start + i / rate`` on whichever connection
    is free; returns ``(index, due, sent, done, status, body)`` tuples."""
    total = int(rate * seconds)
    counter = itertools.count()
    samples = []
    start = time.perf_counter() + 0.05

    def worker(client):
        while True:
            index = next(counter)
            if index >= total:
                return
            due = start + index / rate
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            sent = time.perf_counter()
            status, body = client.post(bodies[index % len(bodies)])
            samples.append(
                (index % len(bodies), due, sent, time.perf_counter(), status, body)
            )

    _run_threads(worker, clients)
    return samples


def closed_loop(clients, bodies, seconds: float):
    """Every connection sends back to back until ``seconds`` have passed;
    returns the samples and the elapsed time."""
    samples = []
    start = time.perf_counter()
    stop = start + seconds
    offsets = itertools.count()

    def worker(client):
        index = next(offsets) * (len(bodies) // len(clients))
        while time.perf_counter() < stop:
            position = index % len(bodies)
            sent = time.perf_counter()
            status, body = client.post(bodies[position])
            samples.append((position, sent, sent, time.perf_counter(), status, body))
            index += 1

    _run_threads(worker, clients)
    return samples, time.perf_counter() - start


def _failures(samples, expected) -> int:
    return sum(
        not _response_ok(status, body, expected[position])
        for position, _, _, _, status, body in samples
    )


# ----------------------------------------------------------------------
# one measured pass
# ----------------------------------------------------------------------
def measure(seed: int, seconds: float, work_dir: str, trace: bool) -> Outcome:
    started = time.perf_counter()
    registry = export_pipeline(work_dir)
    export_s = time.perf_counter() - started
    records = sample_records(seed)
    point_expected, bulk_expected = expected_outputs(registry, records)
    point_bodies = [json.dumps(r).encode() for r in records]
    bulk_bodies = [
        json.dumps({"records": records[i:i + BULK_SIZE]}).encode()
        for i in range(0, len(records), BULK_SIZE)
    ]

    # set-up: process start until the first 200 from /healthz; the last
    # server started is the one measured
    setups, servers = [], []
    try:
        for index in range(SETUP_REPEATS):
            last = index == SETUP_REPEATS - 1
            servers.append(Server(registry, work_dir, trace and last, index))
            setups.append(servers[-1].ready_s)
            if not last and servers[-1].stop() is None:
                raise RuntimeError("set-up server did not stop cleanly")
        server = servers[-1]
        clients = [Client(server.port) for _ in range(CONNECTIONS)]
        phases = {"point": [], "saturation": [], "bulk": []}
        layer_deltas = {name: [] for name in phases}
        # the load generator's own collector pauses would show up as server
        # latency; its inputs are built, so freeze them and collect afterwards
        gc.freeze()
        gc.disable()
        try:
            warm = open_loop(clients, point_bodies[:WARMUP_POINT], 1000.0, WARMUP_POINT / 1000.0)
            warm_bulk = []
            for position, body in enumerate(bulk_bodies):
                status, reply = clients[0].post(body)
                warm_bulk.append((position, 0.0, 0.0, 0.0, status, reply))
            # rounds of (open loop, saturation, bulk), so that slow and fast
            # stretches of the machine spread over all three phases
            window = seconds / ROUNDS
            before = server.snapshot() if trace else None
            for _ in range(ROUNDS):
                for name, run in (
                    ("point", lambda: (open_loop(
                        clients, point_bodies, POINT_RATE, POINT_SHARE * window
                    ), None)),
                    ("saturation", lambda: closed_loop(
                        clients, point_bodies, (1 - POINT_SHARE) / 2 * window
                    )),
                    # one connection: with two, the bulk rate flipped
                    # between ~50k and ~80k rows/s from window to window
                    ("bulk", lambda: closed_loop(
                        clients[:1], bulk_bodies, (1 - POINT_SHARE) / 2 * window
                    )),
                ):
                    phases[name].append(run())
                    if trace:
                        after = server.snapshot()
                        layer_deltas[name].append(delta(after, before))
                        before = after
        finally:
            gc.enable()
            gc.unfreeze()
            for client in clients:
                client.close()
            final = server.stop()
    finally:
        for server in servers:
            server.stop()
    if final is None:
        raise RuntimeError("server did not stop cleanly")

    outcome = Outcome()
    bulk_accepted = [[e] for e in bulk_expected]
    point = [sample for samples, _ in phases["point"] for sample in samples]
    saturated = [sample for samples, _ in phases["saturation"] for sample in samples]
    bulk = [sample for samples, _ in phases["bulk"] for sample in samples]
    outcome.attempted = len(warm) + len(warm_bulk) + len(point) + len(saturated) + len(bulk)
    outcome.failed = (
        _failures(warm, point_expected)
        + _failures(point, point_expected)
        + _failures(saturated, point_expected)
        + _failures(warm_bulk, bulk_accepted)
        + _failures(bulk, bulk_accepted)
    )

    def from_due(samples):
        return [(done - due) * 1000.0 for _, due, _, done, _, _ in samples]

    def bulk_rows(samples):
        return sum(bulk_expected[position]["records_scored"] for position, *_ in samples)

    late = [(sent - due) * 1000.0 for _, due, sent, _, _, _ in point]
    from_send = [(done - sent) * 1000.0 for _, _, sent, done, _, _ in point]
    saturation_windows = [len(samples) / elapsed for samples, elapsed in phases["saturation"]]
    bulk_windows = [bulk_rows(samples) / elapsed for samples, elapsed in phases["bulk"]]
    latencies = from_due(point)
    outcome.metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": final["peak_rss_mb"],
        # medians over the rounds, so that one slow stretch of the machine
        # moves neither rate
        "throughput_per_s": statistics.median(saturation_windows),
        "rows_per_s": statistics.median(bulk_windows),
        "latency_p50_ms": float(np.percentile(latencies, 50)),
    }
    outcome.notes = {
        "point_samples": len(point),
        "point_rate_per_s": POINT_RATE,
        "point_p90_ms": round(float(np.percentile(latencies, 90)), 3),
        "point_p99_ms": round(float(np.percentile(latencies, 99)), 3),
        "setup_s_each": [round(v, 4) for v in setups],
        "saturation_windows_per_s": [round(v, 1) for v in saturation_windows],
        "bulk_windows_rows_per_s": [round(v) for v in bulk_windows],
        "saturation_requests": len(saturated),
        "bulk_requests": len(bulk),
        "records_seed": seed,
        "export_s": round(export_s, 2),
    }
    outcome.raw = {
        "late_p99_ms": float(np.percentile(late, 99)),
        "point_samples": len(point),
        "point_mean_from_send_ms": statistics.fmean(from_send),
        "layer_deltas": {name: sum_deltas(parts) for name, parts in layer_deltas.items()},
    }
    return outcome

