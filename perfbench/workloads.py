"""The three workloads.  Each returns an :class:`Outcome` holding every
metric it measured (``metrics.py`` says what each name means) and the
request counts behind the result line.

Timed phases run with the span recorder disabled and without explain.  A
traced run (``--trace 1``) records spans and asks for explain reports in a
first segment, then repeats the timed segment untraced, so the difference
is tracing's own cost.
"""

from __future__ import annotations

import os
import selectors
import socket
import statistics
import threading
from dataclasses import dataclass, field
from itertools import count, islice
from pathlib import Path
from time import perf_counter, process_time
from typing import Dict, Iterator, List, Optional, Tuple

import repro
from repro.errors import ReproError
from repro.service import protocol
from repro.service.client import ServiceClient

from perfbench import check, inputs, spans
from perfbench.metrics import ENGINES
from perfbench.server import BenchError, Server, cpu_seconds, peak_rss_mb

#: Set-ups per run; ``setup_s`` is their median, the last one is measured.
SETUP_REPEATS = 3
#: Open-loop arrival rate of serve_small phase A (requests per second).
#: Phase B ran 200-500 verdicts/s on a 2-CPU host at the defining commit;
#: at half of that, a slow spell of the host pushes the queue toward
#: saturation and the median swings with it, so the rate sits lower.
SERVE_RATE = 100.0
#: Closed loops pre-generate this many items per second of phase (serve
#: phase B; the edit_chain random-chain editor); a phase ends early if a
#: much faster program drains them.
CAP_PER_S = 1000
CHAIN_CAP_PER_S = 400
REQUEST_TIMEOUT_S = 60.0
#: Closed-loop throughput is the median over windows of this many seconds,
#: so a burst of interference from outside the program moves one window.
WINDOW_S = 1.0


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, Tuple[float, int]] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)

    def put(self, name: str, value: float, samples: int) -> None:
        self.metrics[name] = (float(value), int(samples))


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def put_latencies(outcome: Outcome, seconds: List[float]) -> None:
    """p50 always; p95 and p99 only where ten samples lie beyond them."""
    ms = [value * 1e3 for value in seconds]
    outcome.put("latency_p50_ms", percentile(ms, 0.50), len(ms))
    for name, q in (("latency_p95_ms", 0.95), ("latency_p99_ms", 0.99)):
        cut = percentile(ms, q)
        if sum(1 for value in ms if value > cut) >= 10:
            outcome.put(name, cut, len(ms))


def window_rates(stamps: List[float], start: float, end: float) -> List[float]:
    """Completions per second in each whole ``WINDOW_S`` window of
    ``[start, end)``; a phase shorter than one window gives its mean."""
    windows = int((end - start) // WINDOW_S)
    if windows < 1:
        return [len(stamps) / max(end - start, 1e-9)]
    counts = [0] * windows
    for stamp in stamps:
        index = int((stamp - start) // WINDOW_S)
        if index < windows:
            counts[index] += 1
    return [number / WINDOW_S for number in counts]


def _finish(outcome: Outcome, checker: check.Checker, recorder) -> Outcome:
    outcome.put("failed_frac", outcome.failed / max(outcome.attempted, 1), outcome.attempted)
    outcome.put("wrong_verdicts", checker.wrong, checker.checked)
    outcome.notes["problems"] = checker.problems
    outcome.notes["false_without_counterexample"] = checker.unverified
    if recorder.enabled:
        put_span_layers(outcome, recorder.spans)
    return outcome


# ----------------------------------------------------------------------
# Per-layer metrics from explain reports and spans
# ----------------------------------------------------------------------
class Ledger:
    """Tallies of the explain reports and stats of a traced segment."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.engine_ms = {name: 0.0 for name in ENGINES}
        self.choices = {name: 0 for name in ENGINES}
        self.ratios: List[float] = []
        self.product_nodes = 0
        self.node_expansions = 0
        self.reports = 0
        self.table_hits = 0
        self.table_seen = 0
        self.retypechecks = 0
        self.incremental = 0
        self.reused_cells = 0
        self.total_cells = 0

    def add(self, stats: Dict[str, object], report: Optional[Dict[str, object]]) -> None:
        with self.lock:
            if "table_cache" in stats:
                self.table_seen += 1
                self.table_hits += stats["table_cache"] == "hit"
            if report:
                self._report(report)

    def _report(self, report: Dict[str, object]) -> None:
        self.reports += 1
        engine = str(report["engine"])
        measured = float(report["measured_ms"])
        self.engine_ms[engine] += measured
        self.choices[engine] += 1
        predicted = report["engines"].get(engine, {}).get("predicted_ms")
        if predicted:
            self.ratios.append(measured / float(predicted))
        self.product_nodes += int(report["engine_stats"].get("product_nodes", 0))
        self.node_expansions += int(report["kernel"].get("node_expansions", 0))
        info = report.get("retypecheck")
        if info:
            self.retypechecks += 1
            if info["mode"] == "incremental":
                self.incremental += 1
                if "reused_symbols" in info:  # backward: per input symbol
                    self.reused_cells += int(info["reused_symbols"])
                    self.total_cells += int(info["reused_symbols"]) + int(info["dirty_symbols"])
                else:  # forward: hedge and tree fixpoint cells
                    self.reused_cells += int(info["reused_hedge"]) + int(info["reused_tree"])
                    self.total_cells += int(info["reachable_hedge"]) + int(info["reachable_tree"])

    def put(self, outcome: Outcome) -> None:
        reports = max(self.reports, 1)
        busy = sum(self.engine_ms.values())
        for name in ENGINES:
            outcome.put(f"engine.{name}_ms", self.engine_ms[name], self.choices[name])
            outcome.put(f"engine.{name}_share", self.engine_ms[name] / busy if busy else 0.0,
                        self.reports)
            outcome.put(f"router.choice_frac.{name}", self.choices[name] / reports, self.reports)
        outcome.put("router.measured_over_predicted_p50", percentile(self.ratios, 0.5),
                    len(self.ratios))
        outcome.put("kernel.product_nodes", self.product_nodes / reports, self.reports)
        outcome.put("kernel.node_expansions", self.node_expansions / reports, self.reports)
        outcome.put("table_cache.hit_frac",
                    self.table_hits / self.table_seen if self.table_seen else 0.0,
                    self.table_seen)
        outcome.put("updates.incremental_frac",
                    self.incremental / self.retypechecks if self.retypechecks else 0.0,
                    self.retypechecks)
        outcome.put("updates.cell_reuse_frac",
                    self.reused_cells / self.total_cells if self.total_cells else 0.0,
                    self.incremental)


def put_span_layers(outcome: Outcome, recorded: List[Dict[str, object]]) -> None:
    """Per-layer times from the span tree of a traced run."""
    own = spans.self_times(recorded)
    parents = {int(span["id"]): span["name"] for span in recorded}

    def named(*names: str) -> List[Dict[str, object]]:
        return [span for span in recorded if span["name"] in names]

    def dur_ms(span) -> float:
        return (float(span["end"]) - float(span["start"])) * 1e3

    def p50(values: List[float]) -> float:
        return percentile(values, 0.5)

    calls = named("client.typecheck", "client.retypecheck")
    servers = [
        span for span in named("server.typecheck", "server.retypecheck")
        if span["parent"] is not None
        and parents[int(span["parent"])] in ("client.typecheck", "client.retypecheck")
    ]
    pins = named("client.set_pair")
    compiles = named("repro.compile")
    analyses = named("session.analysis")
    outcome.put("client.overhead_p50_ms", p50([own[int(s["id"])] * 1e3 for s in calls]),
                len(calls))
    outcome.put("server.elapsed_p50_ms", p50([dur_ms(s) for s in servers]), len(servers))
    outcome.put("pool.dispatch_p50_ms", p50([own[int(s["id"])] * 1e3 for s in servers]),
                len(servers))
    outcome.put("server.pin_p50_ms", p50([dur_ms(s) for s in pins]), len(pins))
    outcome.put("session.compile_ms", p50([dur_ms(s) for s in compiles]), len(compiles))
    outcome.put("analysis_ms", sum(dur_ms(s) for s in analyses), len(analyses))
    outcome.put("layers.coverage_frac", spans.coverage(recorded, "request"),
                len(named("request")))


# ----------------------------------------------------------------------
# Driving the service
# ----------------------------------------------------------------------
class BenchClient(ServiceClient):
    """A :class:`ServiceClient` whose ``call`` runs inside a span and asks
    for an explain report while its recorder is enabled."""

    def __init__(self, port: int, recorder: spans.Recorder) -> None:
        super().__init__(port=port, timeout=REQUEST_TIMEOUT_S)
        self.recorder = recorder

    def call(self, op: str, **fields):
        if not self.recorder.enabled:
            return super().call(op, **fields)
        if op in ("typecheck", "retypecheck"):
            fields["explain"] = True
        with self.recorder.span(f"client.{op}") as span:
            result = super().call(op, **fields)
        server = self.recorder.child(
            span, f"server.{op}", float(self.last_response["elapsed_ms"]) / 1e3
        )
        report = result.get("explain") if isinstance(result, dict) else None
        if report:
            self.recorder.child(
                server, f"engine.{report['engine']}", float(report["measured_ms"]) / 1e3
            )
        return result


@dataclass(frozen=True, eq=False)
class Item:
    """One service request: ``text`` against ``pair`` (a retypecheck of
    ``base`` when given); ``expected`` is known by construction or None;
    ``new`` marks the first time the workload sends this transducer."""

    pair: inputs.Pair
    text: str
    base: Optional[str] = None
    expected: Optional[bool] = None
    new: bool = True


@dataclass
class Served:
    item: Item
    typechecks: bool
    counterexample: Optional[str]
    table_cache: Optional[str]


def _send(client: ServiceClient, handles: Dict[int, object], item: Item):
    """Send ``item`` through its pair's sticky handle on ``client``."""
    handle = handles.get(item.pair.seed)
    if handle is None:
        handle = handles[item.pair.seed] = client.pair(item.pair.din_text, item.pair.dout_text)
    if item.base is None:
        return handle.typecheck(item.text)
    return handle.retypecheck(item.text, item.base)


def _pool_state(client: ServiceClient) -> Dict[str, object]:
    stats = client.stats()
    workers = stats["workers_detail"]
    return {
        "retries": int(stats["retries"]),
        "respawns": int(stats["respawns"]),
        "evictions": sum(int(worker["registry"]["evictions"]) for worker in workers),
        "pids": [int(worker["pid"]) for worker in workers],
    }


def _service_setup(root: Path, run_dir: Path, recorder, pairs: List[inputs.Pair]):
    """Start ``SETUP_REPEATS`` fresh servers, each timed from spawn until
    every pair is pinned; returns the last one, still running, and the
    median time."""
    times = []
    server = None
    for index in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        start = perf_counter()
        server = Server(root, run_dir, index)
        try:
            clients = [BenchClient(server.port, recorder) for _ in range(2)]
            try:
                for number, pair in enumerate(pairs):
                    clients[number % 2].call(
                        "set_pair", v=2, din=pair.din_text, dout=pair.dout_text
                    )
                times.append(perf_counter() - start)
            finally:
                for client in clients:
                    client.close()
        except BaseException:
            server.stop()
            raise
    return server, statistics.median(times)


def _closed_loop(port, recorder, streams, seconds, stop, on_result):
    """One thread and one connection per stream in ``streams``, each
    sending its items in order, waiting for every reply, until ``seconds``
    pass.  Returns ``(latencies per stream, completed, failed, the first
    failures, window rates)``."""
    stamps: List[float] = []
    failures: List[str] = []
    per_stream: List[List[float]] = [[] for _ in streams]
    tally = {"completed": 0, "failed": 0}
    lock = threading.Lock()
    errors: List[BaseException] = []
    start = perf_counter()
    deadline = start + seconds
    finished = [start] * len(streams)

    def drive(number: int) -> None:
        try:
            with BenchClient(port, recorder) as client:
                handles: Dict[int, object] = {}
                for item in streams[number]:
                    if stop.is_set() or perf_counter() >= deadline:
                        break
                    began = perf_counter()
                    try:
                        with recorder.span("request"):
                            result = _send(client, handles, item)
                    except (ReproError, OSError) as exc:
                        with lock:
                            tally["failed"] += 1
                            if len(failures) < 20:
                                failures.append(f"{type(exc).__name__}: {exc}")
                        if isinstance(exc, OSError):
                            break  # timed out or the connection is gone
                        continue
                    now = perf_counter()
                    per_stream[number].append(now - began)
                    with lock:
                        stamps.append(now)
                        tally["completed"] += 1
                    on_result(item, result)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)
        finally:
            finished[number] = perf_counter()

    threads = [threading.Thread(target=drive, args=(n,)) for n in range(len(streams))]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            while thread.is_alive():
                thread.join(0.2)
    finally:
        stop_now = any(thread.is_alive() for thread in threads)
        if stop_now:
            stop.set()
            for thread in threads:
                thread.join(REQUEST_TIMEOUT_S)
    if errors:
        raise errors[0]
    rates = window_rates(stamps, start, max(finished))
    return per_stream, tally["completed"], tally["failed"], failures, rates


def _serve_phases(
    outcome: Outcome, server: Server, recorder, streams: List[Iterator[Item]],
    seconds: float, stop, served: List[Served],
) -> None:
    """The closed-loop phase (plus, traced, its untraced repeat) and the
    service-side measurements read before the server stops."""
    traced = recorder.enabled
    ledger = Ledger()
    lock = threading.Lock()
    state = {"traced": traced}

    def on_result(item: Item, result: Dict[str, object]) -> None:
        with lock:
            served.append(Served(item, bool(result["typechecks"]), result["counterexample"],
                                 result["stats"].get("table_cache")))
        if state["traced"]:
            ledger.add(result["stats"], result.get("explain"))

    with ServiceClient(port=server.port, timeout=REQUEST_TIMEOUT_S) as control:
        before = _pool_state(control)
        service_pids = [server.process.pid] + before["pids"]
        rates = []
        for segment in range(2 if traced else 1):
            state["traced"] = recorder.enabled = traced and segment == 0
            cpu_before = cpu_seconds(service_pids)
            per_stream, done, failed, failures, windows = _closed_loop(
                server.port, recorder, streams, seconds, stop, on_result
            )
            cpu_used = cpu_seconds(service_pids) - cpu_before
            latencies = [value for values in per_stream for value in values]
            outcome.attempted += done + failed
            outcome.failed += failed
            outcome.notes.setdefault("errors", []).extend(failures[:5])
            rates.append(statistics.median(windows))
            if segment == 0:
                outcome.put("verdicts_per_s", rates[0], done)
                outcome.put("cpu_ms_per_verdict", cpu_used * 1e3 / max(done, 1), done)
                outcome.notes["closed_loop"] = {
                    "latency_p50_ms": percentile(latencies, 0.5) * 1e3,
                    "latency_p99_ms": percentile(latencies, 0.99) * 1e3,
                    "samples": len(latencies),
                    "per_connection": [
                        {"samples": len(values), "latency_p50_ms": percentile(values, 0.5) * 1e3}
                        for values in per_stream
                    ],
                }
                if not outcome.metrics.get("latency_p50_ms"):
                    put_latencies(outcome, latencies)
        recorder.enabled = traced
        if traced:
            outcome.put("obs.trace_overhead_frac", rates[1] / rates[0] - 1.0, 2)
            ledger.put(outcome)
        after = _pool_state(control)
        outcome.put("pool.retries", after["retries"] - before["retries"], 1)
        outcome.put("pool.respawns", after["respawns"] - before["respawns"], 1)
        outcome.put("session.registry_evictions", after["evictions"] - before["evictions"], 1)
        files = server.side_files()
        outcome.put("cache.side_files", len(files), 1)
        outcome.put("cache.side_bytes", sum(path.stat().st_size for path in files), len(files))
        pids = [server.process.pid] + after["pids"]
        outcome.put("peak_rss_mb", peak_rss_mb(pids), len(pids))


def _check_served(outcome: Outcome, checker: check.Checker, served: List[Served]) -> None:
    """Table-cache honesty, then every verdict against its reference."""
    first_hits = [s for s in served if s.item.new and s.table_cache == "hit"]
    if first_hits:
        raise BenchError(
            f"{len(first_hits)} first-sight requests hit the table cache, e.g.\n"
            f"{first_hits[0].item.text}"
        )
    seen = [s for s in served if s.table_cache is not None]
    outcome.notes["table_cache_hit_share"] = (
        sum(s.table_cache == "hit" for s in seen) / len(seen) if seen else 0.0
    )
    for s in served:
        pair = s.item.pair
        key = f"pair({pair.seed})"
        expected = s.item.expected
        if expected is None:
            expected = checker.reference(key, pair.din, pair.dout, s.item.text)
        checker.verdict(key, expected, s.typechecks, s.item.text, pair.din, pair.dout,
                        s.counterexample)


# ----------------------------------------------------------------------
# serve_small
# ----------------------------------------------------------------------
def _open_loop(port: int, pairs: List[inputs.Pair], requests: List[inputs.Request],
               due: List[float], stop) -> Tuple[List[float], List[float], List[Served], int]:
    """Phase A: send request ``i`` at ``due[i]`` seconds after the start,
    whatever is still in flight, pipelined from one thread over two
    connections (pair ``p`` on connection ``p % 2``, pinned first when
    the connection holds another pair, as a ``PairHandle`` would).

    Returns ``(latencies from due time, sender lags, served, failed)``.
    """
    selector = selectors.DefaultSelector()
    conns = [socket.create_connection(("127.0.0.1", port)) for _ in range(2)]
    for conn in conns:
        # A pipelining sender must not wait for ACKs of earlier frames.
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    buffers = [b"", b""]
    pinned: List[Optional[int]] = [None, None]
    pending: Dict[int, Tuple[int, float]] = {}
    ids = count(1)
    latencies: List[float] = []
    lags: List[float] = []
    served: List[Served] = []
    failed = 0
    try:
        for number, conn in enumerate(conns):
            selector.register(conn, selectors.EVENT_READ, number)
        start = perf_counter() + 0.05
        sent = 0
        progress = perf_counter()
        while (sent < len(requests) or pending) and not stop.is_set():
            now = perf_counter()
            if sent < len(requests) and now >= start + due[sent]:
                request = requests[sent]
                number = request.pair % 2
                frames = []
                if pinned[number] != request.pair:
                    pair = pairs[request.pair]
                    pin_id = next(ids)
                    pending[pin_id] = (-1, 0.0)
                    frames.append({"id": pin_id, "op": "set_pair", "v": 2,
                                   "din": pair.din_text, "dout": pair.dout_text})
                    pinned[number] = request.pair
                req_id = next(ids)
                pending[req_id] = (sent, start + due[sent])
                frames.append({"id": req_id, "op": "typecheck", "v": 2,
                               "transducer": request.text, "method": "auto"})
                conns[number].sendall(b"".join(protocol.encode(f) for f in frames))
                lags.append(now - (start + due[sent]))
                sent += 1
                continue
            wait = start + due[sent] - now if sent < len(requests) else 0.5
            for key, _ in selector.select(timeout=max(wait, 0.0)):
                number = key.data
                chunk = key.fileobj.recv(1 << 16)
                if not chunk:
                    raise BenchError("the server closed a phase-A connection")
                buffers[number] += chunk
                while b"\n" in buffers[number]:
                    line, buffers[number] = buffers[number].split(b"\n", 1)
                    response = protocol.decode_line(line)
                    index, due_at = pending.pop(response["id"])
                    progress = perf_counter()
                    if not response.get("ok"):
                        failed += 1
                        continue
                    if index < 0:
                        continue
                    latencies.append(progress - due_at)
                    result = response["result"]
                    request = requests[index]
                    served.append(Served(
                        Item(pairs[request.pair], request.text, new=request.new),
                        bool(result["typechecks"]), result["counterexample"],
                        result["stats"].get("table_cache"),
                    ))
            if pending and perf_counter() - progress > REQUEST_TIMEOUT_S:
                failed += sum(1 for index, _ in pending.values() if index >= 0)
                break
    finally:
        selector.close()
        for conn in conns:
            conn.close()
    return latencies, lags, served, failed


def serve_small(root: Path, run_dir: Path, seed: int, seconds: float, recorder, stop) -> Outcome:
    """Tiny pairs, runs of requests per pair, about half repeats: phase A
    is an open loop at ``SERVE_RATE`` (latency), phase B a closed loop on
    two connections (throughput)."""
    outcome = Outcome()
    checker = check.Checker(recorder)
    traced = recorder.enabled
    pairs, pools = inputs.serve_pairs(seed)
    sequence = inputs.serve_requests(seed, pools)
    due = inputs.poisson_schedule(seed, SERVE_RATE, seconds / 2)
    phase_a = list(islice(sequence, len(due)))
    phase_b = list(islice(sequence, int(CAP_PER_S * seconds / 2) * (2 if traced else 1)))
    # Pair p always rides thread p % 2, so a repeat can never overtake the
    # first sight of its transducer.
    streams = [
        iter([Item(pairs[r.pair], r.text, new=r.new) for r in phase_b if r.pair % 2 == t])
        for t in range(2)
    ]
    served: List[Served] = []

    recorder.enabled = False
    server, setup_s = _service_setup(root, run_dir, recorder, pairs)
    try:
        outcome.put("setup_s", setup_s, SETUP_REPEATS)
        with BenchClient(server.port, recorder) as client:
            handles: Dict[int, object] = {}
            for pair in pairs:
                # Warm-up on chain[0], which is never sent again.
                result = _send(client, handles, Item(pair, pair.warmup))
                served.append(Served(Item(pair, pair.warmup), bool(result["typechecks"]),
                                     result["counterexample"], None))
        latencies, lags, phase_served, failed = _open_loop(
            server.port, pairs, phase_a, due, stop
        )
        outcome.attempted += len(phase_a)
        outcome.failed += failed
        served.extend(phase_served)
        put_latencies(outcome, latencies)
        outcome.notes["open_loop"] = {"rate_per_s": SERVE_RATE, "sent": len(lags)}
        recorder.enabled = traced
        if traced:
            outcome.put("bench.sender_lag_p99_ms", percentile(lags, 0.99) * 1e3, len(lags))
        _serve_phases(outcome, server, recorder, streams, seconds / 2, stop, served)
    finally:
        server.stop()
    _check_served(outcome, checker, served)
    return _finish(outcome, checker, recorder)


# ----------------------------------------------------------------------
# edit_chain
# ----------------------------------------------------------------------
def _arm_stream(seed: int, pair: inputs.Pair) -> Iterator[Item]:
    previous = pair.warmup
    for extras, expected in inputs.arm_steps(seed):
        text = inputs.arm_text(extras)
        yield Item(pair, text, base=previous, expected=expected)
        previous = text


def _chain_items(pair: inputs.Pair, texts: List[str]) -> List[Item]:
    """A chain's base typecheck, then each step as an edit of the last."""
    return [Item(pair, texts[0])] + [
        Item(pair, text, base=previous) for previous, text in zip(texts, texts[1:])
    ]


def edit_chain(root: Path, run_dir: Path, seed: int, seconds: float, recorder, stop) -> Outcome:
    """Two closed-loop editors on their own pinned pairs, every request a
    ``retypecheck`` of an edit never sent before."""
    outcome = Outcome()
    checker = check.Checker(recorder)
    traced = recorder.enabled
    din, dout = inputs.arm_pair()
    base = inputs.arm_text((0,) * inputs.ARMS)
    arm_pair = inputs.Pair(-1, din, dout, protocol.dtd_to_text(din),
                           protocol.dtd_to_text(dout), base)
    # Edit-arm steps cost microseconds and are made as the editor goes;
    # random-chain steps run the class analysis, so they are made first.
    chains = inputs.random_chains(seed)
    chain_items: List[Item] = []
    while len(chain_items) < CHAIN_CAP_PER_S * seconds * (2 if traced else 1):
        chain_items.extend(_chain_items(*next(chains)))
    streams = [_arm_stream(seed, arm_pair), iter(chain_items)]
    served: List[Served] = []

    recorder.enabled = False
    server, setup_s = _service_setup(root, run_dir, recorder, [arm_pair, chain_items[0].pair])
    try:
        outcome.put("setup_s", setup_s, SETUP_REPEATS)
        with BenchClient(server.port, recorder) as client:
            # Warm-up: the edit-arm base, so its first edit has a base.
            result = _send(client, {}, Item(arm_pair, base, expected=True))
            served.append(Served(Item(arm_pair, base, expected=True),
                                 bool(result["typechecks"]), result["counterexample"],
                                 result["stats"].get("table_cache")))
        recorder.enabled = traced
        _serve_phases(outcome, server, recorder, streams, seconds, stop, served)
    finally:
        server.stop()
    _check_served(outcome, checker, served)
    return _finish(outcome, checker, recorder)


# ----------------------------------------------------------------------
# frontier_mix
# ----------------------------------------------------------------------
def frontier_mix(root: Path, run_dir: Path, seed: int, seconds: float, recorder, stop) -> Outcome:
    """One query per frontier cell per round, in process on one thread,
    each on a fresh state-renamed transducer."""
    outcome = Outcome()
    checker = check.Checker(recorder)
    traced = recorder.enabled
    cells, pairs, ref_pairs = inputs.frontier_cells(seed)
    rounds = inputs.frontier_rounds(seed, cells)

    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        sessions = {}
        for key, (sin, sout) in pairs.items():
            with recorder.span("repro.compile"):
                sessions[key] = repro.compile(sin, sout, reuse=False)
        times.append(perf_counter() - start)
    outcome.put("setup_s", statistics.median(times), SETUP_REPEATS)

    ledger = Ledger()
    latencies: List[float] = []
    walls: Dict[bool, List[Tuple[int, float]]] = {True: [], False: []}
    renames = count()
    cpu = [0.0, 0]  # CPU seconds and verdicts of the untraced rounds
    elapsed = 0.0
    for number, order in enumerate(rounds):
        if elapsed >= seconds or stop.is_set():
            break
        # A traced run alternates traced and untraced rounds.
        tracing = recorder.enabled = traced and number % 2 == 0
        batch = [(i, inputs.renamed(cells[i].transducer, str(next(renames)))) for i in order]
        results = []
        round_cpu = process_time()
        round_start = perf_counter()
        for index, transducer in batch:
            cell = cells[index]
            session = sessions[cell.pair_key]
            outcome.attempted += 1
            began = perf_counter()
            try:
                with recorder.span("request", cell=cell.label):
                    if tracing:
                        with recorder.span("session.analysis"):
                            session.analysis(transducer)
                    with recorder.span("session.typecheck") as span:
                        result = session.typecheck(transducer, method=cell.method,
                                                   explain=tracing)
            except ReproError as exc:
                outcome.failed += 1
                outcome.notes.setdefault("errors", []).append(f"{cell.label}: {exc!r}")
                continue
            if tracing:
                report = result.report.to_dict()
                recorder.child(span, f"engine.{report['engine']}", report["measured_ms"] / 1e3)
                ledger.add(result.stats, report)
            else:
                latencies.append(perf_counter() - began)
            results.append((cell, transducer, result))
        wall = perf_counter() - round_start
        walls[tracing].append((len(batch), wall))
        if not tracing:
            cpu[0] += process_time() - round_cpu
            cpu[1] += len(batch)
        elapsed += wall
        # Checked between rounds, so memory holds one round of results.
        recorder.enabled = traced
        _check_round(checker, results, pairs, ref_pairs)
    recorder.enabled = traced

    def rate(rounds_run: List[Tuple[int, float]]) -> float:
        """Median per-round rate: interference moves single rounds."""
        return statistics.median(n / w for n, w in rounds_run)

    outcome.put("verdicts_per_s", rate(walls[False]), sum(n for n, _ in walls[False]))
    outcome.put("cpu_ms_per_verdict", cpu[0] * 1e3 / cpu[1], cpu[1])
    put_latencies(outcome, latencies)
    outcome.put("peak_rss_mb", peak_rss_mb([os.getpid()]), 1)
    if traced:
        outcome.put("obs.trace_overhead_frac", rate(walls[False]) / rate(walls[True]) - 1.0,
                    len(walls[True]))
        ledger.put(outcome)
    return _finish(outcome, checker, recorder)


def _check_round(checker, results, pairs, ref_pairs) -> None:
    """Check one frontier round: no table-cache hit, right verdicts."""
    for cell, transducer, result in results:
        if result.stats.get("table_cache") == "hit":
            raise BenchError(f"frontier query {cell.label} hit the table cache")
        expected = cell.expected
        if expected is None:
            din, dout = ref_pairs[cell.ref_key]
            expected = checker.reference(
                cell.ref_key, din, dout, protocol.transducer_to_text(cell.transducer),
                transducer=cell.transducer,
            )
        sin, sout = pairs[cell.pair_key]
        checker.verdict(cell.label, expected, result.typechecks, transducer, sin, sout,
                        result.counterexample)
