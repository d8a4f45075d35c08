"""``serve-route`` and ``serve-mixed``: a ``benes serve`` process under
load from one generator process with two connections.

Both are closed loops: each connection keeps a fixed window of
pipelined requests.  ``serve-route`` runs order 5, route op only, with
a wide window, so protocol and daemon costs dominate and the kernel is
a few percent of the work.  ``serve-mixed`` runs order 6 over every op
(route plain / omega / with states, membership, setup, packet) with a
narrow window: six coalesce keys give small, deadline-flushed batches.

Answers are checked after the window against the scalar oracles.  With
tracing on, the recorded requests are replayed in-process through the
public functions the daemon calls, in the daemon's order, one span per
call, and the live daemon's metrics endpoint is scraped.  The traced
``serve-mixed`` run also drives a Poisson open loop and times it from
each request's due time: at low load the daemon idles between
requests, so wake-ups dominate its latency, which on a shared host
swings too much between runs for an end-to-end bound.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import tempfile
import time
from typing import Dict, List, Optional

from . import OUT
from .daemon import Daemon, cpu_split, free_port
from .loadgen import (
    closed_loop,
    open_loop,
    request_body,
    request_line,
    single_request,
)
from .spans import Tracer, counts, self_times
from .stats import (
    Tally,
    bucket_rate,
    chunked_tail,
    due_latencies,
    lateness,
    median,
    nearest_rank,
    random_perm,
    sliced_median,
)

ROUTE_ORDER = 5
MIXED_ORDER = 6
#: Requests each connection keeps in flight.
WINDOW = {"serve-route": 32, "serve-mixed": 8}
#: Offered rate of the traced run's open loop, requests/s: about a
#: quarter of the mix's closed-loop capacity on the 2-core reference
#: host.
OPEN_RATE = 600.0
#: Distinct requests per run; the load cycles through them.
POOL = 2048
#: Daemon starts per run whose median is ``setup_s``.
SETUPS = 3
#: Orders of the single-request wire probe after the mixed window.
PROBE_ORDERS = range(10, 15)
#: Generator lateness beyond which an open-loop run is invalid.
LATE_LIMIT_US = 10000.0
#: Most requests replayed in the traced run.
REPLAY_LIMIT = 4000


class Request:
    """One distinct request of the pool and its expected answer."""

    __slots__ = ("op", "tags", "omega", "states", "body", "expect")

    def __init__(self, op: str, tags, omega: bool = False,
                 states: bool = False) -> None:
        self.op = op
        self.tags = tuple(tags)
        self.omega = omega
        self.states = states
        self.body = request_body({"op": op, "tags": list(self.tags),
                                  "omega": omega, "states": states,
                                  "v": 1})
        self.expect = None

    @property
    def key(self) -> tuple:
        return (self.op, self.omega, self.states)


def _route_tags(rng: random.Random, order: int):
    """Half uniform permutations (almost all outside F), half F
    members."""
    from repro import random_class_f

    if rng.random() < 0.5:
        return random_perm(rng, 1 << order)
    return random_class_f(order, rng).as_tuple()


def _partial_row(rng: random.Random, size: int) -> List[int]:
    """A dense partial permutation with about half the lanes idle."""
    row = [-1] * size
    sources = [lane for lane in range(size) if rng.random() < 0.5]
    for source, dest in zip(sources, rng.sample(range(size),
                                                len(sources))):
        row[source] = dest
    return row


def route_pool(rng: random.Random) -> List[Request]:
    return [Request("route", _route_tags(rng, ROUTE_ORDER))
            for _ in range(POOL)]


def mixed_pool(rng: random.Random) -> List[Request]:
    """Route 50% (of which 20% omega, 10% with states), membership
    20%, setup 20%, packet 10%."""
    size = 1 << MIXED_ORDER
    pool = []
    for _ in range(POOL):
        draw = rng.random()
        if draw < 0.5:
            kind = rng.random()
            pool.append(Request("route", _route_tags(rng, MIXED_ORDER),
                                omega=0.7 <= kind < 0.9,
                                states=kind >= 0.9))
        elif draw < 0.7:
            pool.append(Request("membership",
                                _route_tags(rng, MIXED_ORDER)))
        elif draw < 0.9:
            pool.append(Request("setup", random_perm(rng, size)))
        else:
            pool.append(Request("packet", _partial_row(rng, size)))
    return pool


# ----------------------------------------------------------------------
# Oracles — run after the timed window
# ----------------------------------------------------------------------

def fill_expectations(pool: List[Request]) -> None:
    """The scalar oracle's answer for every pool request: routes from
    ``fast_self_route`` (states from ``fast_self_route_states``),
    membership from ``in_class_f``, packets from one direct
    ``batch_route_partial`` call.  Setup answers are checked by replay
    in :func:`check_reply`."""
    from repro import in_class_f
    from repro.accel import batch_route_partial
    from repro.core.fastpath import fast_self_route, fast_self_route_states

    packets = [req for req in pool if req.op == "packet"]
    if packets:
        direct = batch_route_partial([req.tags for req in packets])
        for index, req in enumerate(packets):
            req.expect = {"success": bool(direct.success_mask[index]),
                          "mapping": list(direct.delivered[index])}
    for req in pool:
        if req.op == "route":
            if req.states:
                ok, delivered, states = fast_self_route_states(
                    req.tags, omega_mode=req.omega)
                req.expect = {"success": ok, "mapping": list(delivered),
                              "states": [list(col) for col in states]}
            else:
                ok, delivered = fast_self_route(req.tags,
                                                omega_mode=req.omega)
                req.expect = {"success": ok, "mapping": list(delivered)}
        elif req.op == "membership":
            req.expect = {"success": in_class_f(list(req.tags))}


def answer_is_right(req: Request, reply: dict) -> bool:
    """Does an ``ok`` reply carry the oracle's answer for ``req``?"""
    if req.op == "setup":
        from repro.core.fastpath import fast_route_with_states

        states = reply.get("states")
        if not states:
            return False
        order = (len(req.tags) - 1).bit_length()
        return fast_route_with_states(states, order) == req.tags
    return all(reply.get(field) == value
               for field, value in req.expect.items())


class Checker:
    """Checks every reply; a reply equal to one already verified for
    the same pool request is not re-verified."""

    def __init__(self, pool: List[Request], tally: Tally) -> None:
        self.pool = pool
        self.tally = tally
        self._verified: Dict[int, dict] = {}

    def check(self, index: int, reply: dict) -> bool:
        status = reply.get("status")
        if status == "rejected":
            self.tally.fail("rejected")
            return False
        if status != "ok":
            self.tally.fail("error")
            return False
        body = {key: value for key, value in reply.items()
                if key != "id"}
        known = self._verified.get(index)
        if known is not None and known == body:
            return True
        if answer_is_right(self.pool[index], reply):
            self._verified.setdefault(index, body)
            return True
        self.tally.fail("wrong")
        return False


def account(exchange, pool: List[Request], tally: Tally):
    """Parse and check every reply of a load run.  Returns
    ``{id: (arrival time, raw line)}`` of the correct replies; every
    request without a correct reply is counted in ``tally``."""
    checker = Checker(pool, tally)
    sent = sum(1 for at in exchange.sent if at is not None)
    tally.attempt(sent)
    good = {}
    for arrived, line in exchange.replies:
        try:
            reply = json.loads(line)
            request_id = reply["id"]
        except (ValueError, KeyError, TypeError):
            tally.fail("error")
            continue
        if not isinstance(request_id, int) or \
                not 0 <= request_id < len(exchange.sent) or \
                request_id in good:
            tally.fail("error")
            continue
        if checker.check(request_id % len(pool), reply):
            good[request_id] = (arrived, line)
    answered = len(exchange.replies)
    if answered < sent:
        tally.fail("missing", sent - answered)
    return good


# ----------------------------------------------------------------------
# The workloads
# ----------------------------------------------------------------------

class ServeWorkload:
    """One serve workload run: set-ups, the timed window, checks."""

    def __init__(self, name: str, seed: int, seconds: float) -> None:
        self.name = name
        self.seed = seed
        self.seconds = seconds
        rng = random.Random(f"{name}:{seed}")
        self.pool = (route_pool(rng) if name == "serve-route"
                     else mixed_pool(rng))
        self.probe_rng = random.Random(f"{name}:{seed}:probe")
        self.tally = Tally()
        self.engines: Dict[str, List[str]] = {}
        self.scratch = tempfile.mkdtemp(prefix="run-", dir=OUT)
        self.affinity = os.sched_getaffinity(0)
        _, cpus = cpu_split()
        if cpus is not None:
            os.sched_setaffinity(0, cpus)

    def close(self) -> None:
        os.sched_setaffinity(0, self.affinity)
        shutil.rmtree(self.scratch, ignore_errors=True)

    def line(self, request_id: int) -> bytes:
        return request_line(request_id,
                            self.pool[request_id % len(self.pool)].body)

    def start_daemon(self, tag: str,
                     metrics_port: Optional[int] = None):
        """Start a daemon on a fresh autotune cache and warm every
        coalesce key of the pool; returns ``(daemon, setup seconds)``."""
        cache = os.path.join(self.scratch, f"autotune-{tag}.json")
        daemon = Daemon(cache, metrics_port=metrics_port)
        try:
            first = {}
            for index, req in enumerate(self.pool):
                first.setdefault(req.key, index)
            for index in first.values():
                reply = single_request(daemon.address, self.line(index))
                if reply is None or \
                        json.loads(reply).get("status") != "ok":
                    raise RuntimeError(
                        f"warm-up request {self.pool[index].key} failed")
            ready = time.monotonic()
        except BaseException:
            daemon.stop()
            raise
        return daemon, ready - daemon.started

    def load(self, daemon, seconds: float):
        """One timed closed-loop run against ``daemon``; returns
        ``(exchange, daemon CPU seconds it took)``."""
        cpu = daemon.cpu_seconds()
        exchange = closed_loop(daemon.address, self.line, seconds,
                               WINDOW[self.name])
        return exchange, daemon.cpu_seconds() - cpu

    def measure(self, exchange, cpu_seconds, tally: Tally) -> dict:
        """End-to-end figures of one load run (checks every reply)."""
        good = account(exchange, self.pool, tally)
        for request_id, (_, line) in good.items():
            reply = json.loads(line)
            req = self.pool[request_id % len(self.pool)]
            engines = self.engines.setdefault(
                f"{req.op}/{len(req.tags)}", [])
            if reply.get("engine") not in engines:
                engines.append(reply.get("engine"))
        low, high = exchange.window
        arrivals = [arrived for arrived, _ in good.values()
                    if low <= arrived <= high]
        latencies = [arrived - exchange.sent[request_id]
                     for request_id, (arrived, _) in good.items()
                     if low <= arrived <= high]
        figures = {
            # Answers per second of daemon CPU: the daemon's cost per
            # request (ROADMAP item 2), which host contention moves less
            # than the wall rate (stamped as ``rps``).
            "throughput_per_s": len(good) / cpu_seconds,
            "rps": bucket_rate([arrived for arrived, _ in good.values()],
                               low, high),
        }
        figures["p50_us"] = sliced_median(arrivals, latencies, low,
                                          high) * 1e6
        figures["p90_us"] = chunked_tail(latencies, 90) * 1e6
        figures["p99_us"] = chunked_tail(latencies, 99) * 1e6
        figures["latencies"] = latencies
        figures["good"] = good
        return figures

    def named(self, figures: dict) -> dict:
        """The figures under the names ROADMAP uses (``serve_*`` for
        serve-route, ``mixed_*`` for serve-mixed)."""
        prefix = "serve" if self.name == "serve-route" else "mixed"
        return {f"{prefix}_rps": figures["rps"],
                f"{prefix}_p50_us": figures["p50_us"],
                f"{prefix}_p90_us": figures["p90_us"],
                f"{prefix}_p99_us": figures["p99_us"]}

    def open_loop_check(self, daemon) -> dict:
        """Poisson arrivals at :data:`OPEN_RATE`, latency timed from
        each request's due time; every answer is checked.  The run is
        invalid when the generator lagged or answers fell short."""
        gaps = random.Random(f"{self.name}:{self.seed}:arrivals")
        due, clock = [], gaps.expovariate(OPEN_RATE)
        while clock < self.seconds / 2.0:
            due.append(clock)
            clock += gaps.expovariate(OPEN_RATE)
        exchange = open_loop(daemon.address, self.line, due)
        good = account(exchange, self.pool, self.tally)
        start = exchange.window[0]
        latencies = due_latencies(
            start, due,
            {request_id: arrived for request_id, (arrived, _)
             in good.items()})
        late_p99 = nearest_rank(lateness(start, due, exchange.sent),
                                99) * 1e6
        return {
            "loadgen.late_p99_us": late_p99,
            "loadgen.open_p50_us": median(latencies) * 1e6,
            "loadgen.open_p99_us": chunked_tail(latencies, 99) * 1e6,
            "valid": (late_p99 <= LATE_LIMIT_US
                      and len(exchange.replies) >= len(exchange.sent)),
        }

    def wire_probe(self, daemon) -> Dict[int, str]:
        """One route request per order on a fresh connection each:
        ``{order: "ok" | "wrong" | "lost"}``."""
        from repro.core.fastpath import fast_self_route

        outcomes = {}
        for order in PROBE_ORDERS:
            tags = random_perm(self.probe_rng, 1 << order)
            reply = single_request(
                daemon.address,
                request_line(order, request_body(
                    {"op": "route", "tags": tags, "v": 1})))
            if reply is None:
                outcomes[order] = "lost"
                continue
            ok, delivered = fast_self_route(tags)
            reply = json.loads(reply)
            right = (reply.get("status") == "ok"
                     and reply.get("success") == ok
                     and reply.get("mapping") == list(delivered))
            outcomes[order] = "ok" if right else "wrong"
        return outcomes

    def autotune_probe_s(self, tag: str) -> float:
        """Seconds of the autotune probes the daemon started as
        ``tag`` ran: the orders its fresh cache file lists, re-probed
        here from an emptied table.  0 when it ran none (``auto``
        never probes when NumPy is present)."""
        from repro.accel import have_numpy
        from repro.accel.autotune import autotune_clear, choose_engine

        path = os.path.join(self.scratch, f"autotune-{tag}.json")
        if not os.path.exists(path):
            return 0.0
        with open(path, encoding="utf-8") as fh:
            orders = [int(order) for order in json.load(fh)["orders"]]
        autotune_clear(persistent=True)
        have_numpy()  # its first call imports NumPy: not probe time
        start = time.perf_counter()
        for order in orders:
            # Any batch past one row consults the probed crossover.
            choose_engine(order, 2)
        return time.perf_counter() - start

    # -- trace 0 -------------------------------------------------------

    def run(self) -> dict:
        setups = []
        daemon = None
        for attempt in range(SETUPS):
            if daemon is not None:
                daemon.stop()
            daemon, seconds = self.start_daemon(f"setup{attempt}")
            setups.append(seconds)
        with daemon:
            exchange, cpu = self.load(daemon, self.seconds)
            peak_rss = daemon.peak_rss_mb()
            probe = (self.wire_probe(daemon)
                     if self.name == "serve-mixed" else {})
        fill_expectations(self.pool)
        figures = self.measure(exchange, cpu, self.tally)
        return {
            "metrics": {
                "setup_s": median(setups),
                "ok_share": 1.0 - self.tally.fail_share,
                "peak_rss_mb": peak_rss,
                "throughput_per_s": figures["throughput_per_s"],
                "p50_us": figures["p50_us"],
            },
            "valid": True,
            "wire_probe": probe,
            "setup_samples_s": setups,
            "samples": len(figures["latencies"]),
            "named": self.named(figures),
        }

    # -- trace 1 -------------------------------------------------------

    def run_traced(self, trace_path: str) -> dict:
        half = self.seconds / 2.0
        daemon, _ = self.start_daemon("untraced")
        with daemon:
            exchange, cpu = self.load(daemon, half)
        fill_expectations(self.pool)
        untraced = self.measure(exchange, cpu, self.tally)

        daemon, _ = self.start_daemon("traced",
                                      metrics_port=free_port())
        with daemon:
            exchange, cpu = self.load(daemon, half)
            scraped = daemon.scrape()
            probe, open_check = {}, {"valid": True}
            if self.name == "serve-mixed":
                probe = self.wire_probe(daemon)
                open_check = self.open_loop_check(daemon)
        traced = self.measure(exchange, cpu, self.tally)

        probe_s = self.autotune_probe_s("traced")
        tracer = Tracer(f"bench.{self.name}", seed=self.seed)
        replay = Replay(self, tracer)
        replay.run(exchange)
        tracer.write(trace_path)

        layer = replay.layer_metrics(exchange, traced["good"])
        layer["autotune.probe_s"] = probe_s
        batches = scraped.get("serve_batch_size_count", 0.0)
        layer.update({
            "coalescer.batch_size": (
                scraped.get("serve_batch_size_sum", 0.0) / batches
                if batches else 0.0),
            "coalescer.rejected": scraped.get("serve_rejected_total",
                                              0.0),
            "daemon.errors": scraped.get("serve_errors_total", 0.0),
            "trace.overhead_share": 1.0 - (
                traced["throughput_per_s"]
                / untraced["throughput_per_s"]),
        })
        layer.update({name: value for name, value in open_check.items()
                      if name != "valid"})
        if probe:
            answered = [order for order, outcome in probe.items()
                        if outcome == "ok"]
            layer["daemon.max_wire_order"] = max(answered, default=0)
            layer["daemon.wire_probe_ok"] = len(answered)
            layer["daemon.wire_probe_lost"] = sum(
                outcome == "lost" for outcome in probe.values())
        return {"metrics": layer, "valid": open_check["valid"],
                "wire_probe": probe, "scraped": scraped,
                "engines": dict(self.engines, **replay.engine_by_shape),
                "replay_mismatch": replay.mismatch,
                "samples": len(traced["latencies"])}


class Replay:
    """The daemon's per-request path, replayed in-process on the
    recorded arrival times: ``decode_request`` -> ``offer`` / ``due``
    -> ``resolve_engine`` -> ``batch_*`` -> ``from_*`` ->
    ``encode_response``, one span per call."""

    KERNELS = {"route": "batch.self_route",
               "membership": "batch.in_class_f",
               "setup": "setup.batch_setup_states",
               "packet": "partial.batch_route_partial"}

    def __init__(self, workload: ServeWorkload, tracer: Tracer) -> None:
        from repro.accel import cached_topology, have_numpy, setup_plan
        from repro.accel import stage_plan
        from repro.serve.coalescer import CoalescingQueue
        from repro.serve.daemon import ServeConfig

        config = ServeConfig()
        # Warm what the daemon warms before it accepts traffic.
        have_numpy()
        for order in config.warm_orders:
            cached_topology(order)
            stage_plan(order)
            setup_plan(order)
        self.queue = CoalescingQueue(
            max_batch=config.max_batch,
            max_wait=config.max_wait_us * 1e-6,
            queue_limit=config.queue_limit)
        self.workload = workload
        self.tracer = tracer
        #: per request id: seconds on the daemon's path, by layer sum.
        self.path: Dict[int, float] = {}
        self.waits: List[float] = []
        self.responses: Dict[int, bytes] = {}
        self.flushes = {"size": 0, "deadline": 0}
        self.batches_by_engine: Dict[str, int] = {}
        #: engine per "op/vector width/batch width"
        self.engine_by_shape: Dict[str, str] = {}
        self.mismatch = 0

    def _timed(self, name: str, fn, *args, parent=None, **kwargs):
        start = time.perf_counter()
        value = fn(*args, **kwargs)
        seconds = time.perf_counter() - start
        self.tracer.add(name, start, seconds, parent=parent)
        return value, seconds

    def run(self, exchange) -> None:
        from repro.errors import ProtocolError
        from repro.serve import protocol
        from repro.serve.coalescer import FLUSH

        low, _ = exchange.window
        ids = [i for i, sent in enumerate(exchange.sent)
               if sent is not None and sent >= low][:REPLAY_LIMIT]
        for request_id in ids:
            now = exchange.sent[request_id]
            self._flush_due(now)
            try:
                request, decode_s = self._timed(
                    "protocol.decode", protocol.decode_request,
                    self.workload.line(request_id))
            except ProtocolError:
                continue
            (verdict, batch), offer_s = self._timed(
                "coalescer.offer", self.queue.offer,
                request.coalesce_key(), (request_id, request, now), now)
            self.path[request_id] = decode_s + offer_s
            if verdict == FLUSH:
                self._run_batch(batch, now, "size")
        self._flush_due(float("inf"))

    def _flush_due(self, now: float) -> None:
        while True:
            deadline = self.queue.next_deadline()
            if deadline is None or deadline > now:
                return
            for _key, items in self.queue.due(deadline):
                self._run_batch(items, deadline, "deadline")

    def _run_batch(self, items, flushed_at: float, cause: str) -> None:
        from repro.accel import (
            batch_complete_partial,
            batch_in_class_f,
            batch_route_partial,
            batch_self_route,
            batch_setup_states,
            resolve_engine,
        )
        from repro.serve import protocol

        self.flushes[cause] += 1
        requests = [request for _, request, _ in items]
        head = requests[0]
        rows = [request.tags for request in requests]
        order = (len(head.tags) - 1).bit_length()
        kind = "setup" if head.op == "setup" else "route"
        record = self.tracer.open("daemon.batch", op=head.op,
                                  batch_size=len(rows), cause=cause)
        parent = record["span_id"]
        engine, resolve_s = self._timed(
            "engines.resolve", resolve_engine, None, order=order,
            batch_size=len(rows), kind=kind, parent=parent)
        self.batches_by_engine[engine] = \
            self.batches_by_engine.get(engine, 0) + 1
        self.engine_by_shape[
            f"{head.op}/{len(head.tags)}/{len(rows)}"] = engine
        kernel = self.KERNELS[head.op]
        if head.op == "route":
            result, kernel_s = self._timed(
                kernel, batch_self_route, rows,
                omega_mode=head.omega_mode,
                stuck_switches=head.stuck_switches,
                stage_states=head.stage_states, parallel=False,
                engine=engine, parent=parent)
            build = protocol.from_batch_result
        elif head.op == "membership":
            result, kernel_s = self._timed(
                kernel, batch_in_class_f, rows, parallel=False,
                engine=engine, parent=parent)
            build = protocol.from_membership_mask
        elif head.op == "packet":
            result, kernel_s = self._timed(
                kernel, batch_route_partial, rows,
                omega_mode=head.omega_mode,
                stuck_switches=head.stuck_switches, parallel=False,
                engine=engine, parent=parent)
            # Completion alone, off the daemon's path (the call above
            # completes internally): its share of the packet kernel.
            self._timed("partial.batch_complete_partial",
                        batch_complete_partial, rows,
                        parent=self.tracer.root_id)
            build = protocol.from_partial_result
        else:
            result, kernel_s = self._timed(
                kernel, batch_setup_states, order, rows,
                parallel=False, engine=engine, parent=parent)
            build = protocol.from_setup_states
        responses = []
        build_s = 0.0
        for index, request in enumerate(requests):
            response, seconds = self._timed(
                "protocol.build", build, request, result, index, engine,
                parent=parent)
            responses.append(response)
            build_s += seconds
        encoded_s = 0.0
        for (request_id, _, arrived), response in zip(items, responses):
            payload, seconds = self._timed(
                "protocol.encode", _encode_line, response,
                parent=parent)
            encoded_s += seconds
            self.responses[request_id] = payload
            self.waits.append(flushed_at - arrived)
            self.path[request_id] += (flushed_at - arrived + resolve_s
                                      + kernel_s + build_s + encoded_s)
        self.tracer.close(record)

    def layer_metrics(self, exchange, good) -> dict:
        """Per-layer figures of the replay, plus the residual against
        the live latencies of the same requests."""
        records = self.tracer.records
        own = self_times(records)
        tally = counts(records)
        items = {name: 0 for name in self.KERNELS.values()}
        for record in records:
            if record["name"] == "daemon.batch":
                items[self.KERNELS[record["op"]]] += record["batch_size"]
        packet_items = items["partial.batch_route_partial"]

        def per_request(name: str) -> float:
            return own.get(name, 0.0) / tally[name] * 1e6 \
                if tally.get(name) else 0.0

        def per_item(name: str, count: int) -> float:
            return own.get(name, 0.0) / count * 1e6 if count else 0.0

        residuals = []
        for request_id, path in self.path.items():
            if request_id not in self.responses or request_id not in good:
                continue
            arrived, line = good[request_id]
            if line + b"\n" != self.responses[request_id]:
                self.mismatch += 1
            residuals.append(arrived - exchange.sent[request_id] - path)
        batches = self.flushes["size"] + self.flushes["deadline"]
        metrics = {
            "protocol.decode_us": per_request("protocol.decode"),
            "protocol.build_us": per_request("protocol.build"),
            "protocol.encode_us": per_request("protocol.encode"),
            "coalescer.wait_us": (sum(self.waits) / len(self.waits) * 1e6
                                  if self.waits else 0.0),
            "coalescer.deadline_flush_share": (
                self.flushes["deadline"] / batches if batches else 0.0),
            "daemon.residual_us": (sum(residuals) / len(residuals) * 1e6
                                   if residuals else 0.0),
            "engines.resolve_us": per_request("engines.resolve"),
            "batch.route_us_per_item": per_item(
                "batch.self_route", items["batch.self_route"]),
            "batch.membership_us_per_item": per_item(
                "batch.in_class_f", items["batch.in_class_f"]),
            "setup.us_per_item": per_item(
                "setup.batch_setup_states",
                items["setup.batch_setup_states"]),
            "partial.route_us_per_item": per_item(
                "partial.batch_route_partial", packet_items),
            "partial.complete_us_per_item": per_item(
                "partial.batch_complete_partial", packet_items),
        }
        for engine, count in self.batches_by_engine.items():
            metrics[f"engines.batches.{engine}"] = count
        return metrics


def _encode_line(response) -> bytes:
    from repro.serve import protocol

    return (protocol.encode_response(response) + "\n").encode("utf-8")
