"""Routing-as-a-service: protocol, coalescer, daemon, client.

Three layers, three test strategies:

- **protocol** — pure-function roundtrips and validation (the frozen
  schema is the contract every other layer builds on);
- **coalescer** — the synchronous state machine driven with a fake
  clock (``now`` is just a float argument);
- **daemon** — end-to-end over real sockets: concurrent clients,
  byte-identical parity against direct in-process engine calls,
  backpressure rejection, counters, and the single-trace-tree
  invariant checked by ``tools/trace_tree.py``.
"""

from __future__ import annotations

import json
import pathlib
import random
import socket
import subprocess
import sys
import threading

import enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.accel import batch_in_class_f, batch_self_route
from repro.accel._np import resolve_engine
from repro.accel.partial import batch_route_partial
from repro.accel.setup import batch_setup_states
from repro.core import BenesNetwork, Permutation, random_permutation
from repro.core.fastpath import fast_self_route
from repro.core.membership import in_class_f
from repro.errors import ProtocolError, ServerBusyError
from repro.serve import (
    CoalescingQueue,
    ServeClient,
    ServeConfig,
    start_in_thread,
)
from repro.serve import protocol
from repro.serve.coalescer import FLUSH, QUEUED, REJECT
from repro.verify.workloads import partial_rows

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture(autouse=True)
def _obs_clean():
    yield
    obs.disable()
    obs.reset()


def _daemon(**overrides):
    defaults = dict(port=0, max_batch=8, max_wait_us=2000.0,
                    warm_orders=(2, 3))
    defaults.update(overrides)
    return start_in_thread(ServeConfig(**defaults))


def _exchange(address, requests):
    """Send ``requests`` pipelined on one connection; their raw answer
    lines keyed by id."""
    with socket.create_connection(address, timeout=60.0) as sock:
        sock.sendall("".join(protocol.encode_request(request) + "\n"
                             for request in requests).encode("utf-8"))
        reader = sock.makefile("rb")
        lines = [reader.readline() for _ in requests]
    return {protocol.decode_response(line).id: line for line in lines}


def _old_int_tuple(values, what):
    """The per-element validation loop ``_int_tuple`` had before its
    C-level fast path, frozen here as the oracle."""
    if not (isinstance(values, (list, tuple)) and len(values) > 0):
        raise ProtocolError(f"{what} must be a non-empty list of integers")
    out = []
    for value in values:
        if not (isinstance(value, int) and not isinstance(value, bool)):
            raise ProtocolError(f"{what} must contain only integers")
        out.append(value)
    return tuple(out)


class _Level(enum.IntEnum):
    LOW = 0
    HIGH = 1


_JSON_SCALARS = st.one_of(
    st.integers(), st.booleans(), st.floats(allow_nan=False),
    st.text(max_size=3), st.none(), st.sampled_from(list(_Level)))
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=2), children, max_size=2)),
    max_leaves=12)


def _verdict(check, values):
    try:
        return "ok", repr(check(values, "tags"))
    except ProtocolError as exc:
        return "error", str(exc)


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------

class TestProtocol:
    def test_request_roundtrip(self):
        request = protocol.RouteRequest(
            op="route", tags=(3, 1, 2, 0), id=7, omega_mode=True,
            stuck=((2, 1, 1), (0, 0, 0)), stage_states=True)
        line = protocol.encode_request(request)
        assert protocol.decode_request(line) == request

    def test_stuck_normalized_sorted(self):
        request = protocol.RouteRequest(
            op="route", tags=(0, 1), stuck=[(3, 0, 1), (1, 2, 0)])
        assert request.stuck == ((1, 2, 0), (3, 0, 1))
        as_map = request.stuck_switches
        assert as_map == {(3, 0): True, (1, 2): False}
        assert protocol.stuck_to_wire(as_map) == request.stuck

    def test_encoding_is_canonical(self):
        # Same message, one byte form: key order cannot vary.
        a = protocol.encode_request(
            protocol.RouteRequest(op="route", tags=(1, 0), id=3))
        b = protocol.encode_request(
            protocol.RouteRequest(id=3, tags=(1, 0), op="route"))
        assert a == b
        assert " " not in a

    def test_unknown_request_field_rejected(self):
        line = json.dumps({"op": "route", "tags": [0, 1], "zap": 1})
        with pytest.raises(ProtocolError):
            protocol.decode_request(line)

    @pytest.mark.parametrize("line", [
        "not json",
        "[1,2,3]",
        json.dumps({"op": "route"}),                    # no tags
        json.dumps({"op": "warp", "tags": [0, 1]}),     # bad op
        json.dumps({"op": "route", "tags": []}),        # empty tags
        json.dumps({"op": "route", "tags": [0, "x"]}),  # non-int tag
        json.dumps({"op": "route", "tags": [0, 1], "v": 99}),
        json.dumps({"op": "route", "tags": [0, 1],
                    "stuck": [[1, 2]]}),                # not a triple
    ])
    def test_malformed_requests_raise(self, line):
        with pytest.raises(ProtocolError):
            protocol.decode_request(line)

    def test_response_roundtrip_omits_none_fields(self):
        response = protocol.RouteResponse(
            op="route", id=2, success=True, mapping=(1, 0),
            engine="numpy")
        line = protocol.encode_response(response)
        assert "per_stage" not in line and "error" not in line
        assert protocol.decode_response(line) == response

    def test_rejected_response_shape(self):
        request = protocol.RouteRequest(op="route", tags=(0, 1), id=9)
        rejected = protocol.rejected_response(request)
        assert rejected.status == "rejected"
        assert rejected.id == 9
        assert "busy" in rejected.error

    def test_coalesce_key_separates_incompatible_requests(self):
        base = protocol.RouteRequest(op="route", tags=(0, 1, 2, 3))
        assert base.coalesce_key() == protocol.RouteRequest(
            op="route", tags=(3, 2, 1, 0)).coalesce_key()
        for other in (
            protocol.RouteRequest(op="membership", tags=(0, 1, 2, 3)),
            protocol.RouteRequest(op="route", tags=(0, 1)),
            protocol.RouteRequest(op="route", tags=(0, 1, 2, 3),
                                  omega_mode=True),
            protocol.RouteRequest(op="route", tags=(0, 1, 2, 3),
                                  stuck=((0, 0, 1),)),
            protocol.RouteRequest(op="route", tags=(0, 1, 2, 3),
                                  stage_states=True),
        ):
            assert base.coalesce_key() != other.coalesce_key()

    @settings(max_examples=400, deadline=None)
    @given(values=st.one_of(_JSON_VALUES, st.lists(st.integers(),
                                                   min_size=1)))
    def test_int_tuple_matches_per_element_loop(self, values):
        """The C-level fast path changes no verdict and no message:
        the same tuple (element types included) or the same error."""
        assert _verdict(protocol._int_tuple, values) == \
            _verdict(_old_int_tuple, values)

    @pytest.mark.parametrize("values", [
        [0, True], [False], [1, 2.0], [[0, 1]], [], (), "01", None,
        {"0": 1}, [_Level.HIGH, 0],
    ])
    def test_int_tuple_edge_cases_match(self, values):
        assert _verdict(protocol._int_tuple, values) == \
            _verdict(_old_int_tuple, values)

    def test_array_rows_build_python_ints(self):
        # ndarray lanes go through one tolist(); the response must hold
        # Python ints (bools would encode as true/false)
        np = pytest.importorskip("numpy")
        rows = [(3, 1, 2, 0), (0, 1, 2, 3)]
        result = batch_self_route(rows, stage_states=True,
                                  engine="numpy")
        assert isinstance(result.mappings, np.ndarray)
        request = protocol.RouteRequest(op="route", tags=rows[0],
                                        stage_states=True)
        response = protocol.from_batch_result(request, result, 0)
        assert {type(v) for v in response.mapping} == {int}
        assert {type(s) for column in response.stage_states
                for s in column} == {int}
        scalar = batch_self_route(rows, stage_states=True,
                                  engine="scalar")
        assert protocol.encode_response(response) == \
            protocol.encode_response(
                protocol.from_batch_result(request, scalar, 0))
        # per-stage counts: an ndarray column vs the bitslice lists
        counted = [protocol.from_batch_result(
            request, batch_self_route(rows, stage_data=True,
                                      engine=engine), 1)
            for engine in ("numpy", "bitslice")]
        assert counted[0].per_stage is not None
        assert protocol.encode_response(counted[0]) == \
            protocol.encode_response(counted[1])

    def test_from_batch_result_slices_one_lane(self):
        rows = [(3, 1, 2, 0), (0, 1, 2, 3), (1, 0, 3, 2)]
        result = batch_self_route(rows, stage_states=True)
        for index, row in enumerate(rows):
            request = protocol.RouteRequest(op="route", tags=row,
                                            id=index,
                                            stage_states=True)
            response = protocol.from_batch_result(request, result,
                                                  index, "numpy")
            ok, dst = fast_self_route(row)
            assert response.success == ok
            assert response.mapping == dst
            assert response.stage_states is not None
            assert response.engine == "numpy"


# ----------------------------------------------------------------------
# Coalescer (fake clock)
# ----------------------------------------------------------------------

class TestCoalescer:
    def test_size_cutoff_flushes_immediately(self):
        queue = CoalescingQueue(max_batch=3, max_wait=1.0)
        assert queue.offer("k", "a", now=0.0) == (QUEUED, None)
        assert queue.offer("k", "b", now=0.0) == (QUEUED, None)
        verdict, batch = queue.offer("k", "c", now=0.0)
        assert verdict == FLUSH
        assert batch == ["a", "b", "c"]
        assert queue.pending == 0

    def test_latency_cutoff_uses_first_arrival(self):
        queue = CoalescingQueue(max_batch=100, max_wait=0.5)
        queue.offer("k", "a", now=10.0)
        queue.offer("k", "b", now=10.4)  # straggler does not extend
        assert queue.next_deadline() == pytest.approx(10.5)
        assert queue.due(now=10.49) == []
        due = queue.due(now=10.5)
        assert due == [("k", ["a", "b"])]
        assert queue.pending == 0
        assert queue.next_deadline() is None

    def test_keys_batch_independently(self):
        queue = CoalescingQueue(max_batch=2, max_wait=1.0)
        queue.offer("route", "r1", now=0.0)
        queue.offer("setup", "s1", now=0.2)
        verdict, batch = queue.offer("route", "r2", now=0.3)
        assert verdict == FLUSH and batch == ["r1", "r2"]
        # the setup bucket still waits on its own deadline
        assert queue.pending == 1
        assert queue.next_deadline() == pytest.approx(1.2)

    def test_backpressure_rejects_and_preserves_queue(self):
        queue = CoalescingQueue(max_batch=10, max_wait=1.0,
                                queue_limit=2)
        assert queue.offer("k", "a", now=0.0)[0] == QUEUED
        assert queue.offer("k", "b", now=0.0)[0] == QUEUED
        assert queue.offer("k", "c", now=0.0) == (REJECT, None)
        assert queue.pending == 2  # rejected item was not queued
        assert queue.due(now=2.0) == [("k", ["a", "b"])]

    def test_full_bucket_accepted_and_flushed_at_limit(self):
        # regression: an offer landing at queue_limit used to be shed
        # even when it completed a full bucket that flushes in the same
        # call — the capacity it occupies frees immediately
        queue = CoalescingQueue(max_batch=3, max_wait=1.0,
                                queue_limit=3)
        assert queue.offer("k", "a", now=0.0)[0] == QUEUED
        assert queue.offer("k", "b", now=0.0)[0] == QUEUED
        assert queue.offer("other", "x", now=0.0)[0] == QUEUED
        assert queue.pending == 3  # at the limit
        verdict, batch = queue.offer("k", "c", now=0.0)
        assert verdict == FLUSH
        assert batch == ["a", "b", "c"]
        assert queue.pending == 1  # only the other bucket remains
        # back at the limit, an offer that would NOT complete a
        # bucket is still shed
        assert queue.offer("two", "y", now=0.0)[0] == QUEUED
        assert queue.offer("three", "z", now=0.0)[0] == QUEUED
        assert queue.pending == 3
        assert queue.offer("fresh", "f", now=0.0) == (REJECT, None)
        assert queue.offer("two", "w", now=0.0) == (REJECT, None)
        assert queue.pending == 3

    def test_zero_wait_flushes_on_next_tick(self):
        # max_wait=0 pins the immediate-flush semantics: offer still
        # answers QUEUED (size is the only flush reason inside offer),
        # but the bucket is due the moment the driver ticks
        queue = CoalescingQueue(max_batch=10, max_wait=0.0)
        assert queue.offer("k", "a", now=5.0) == (QUEUED, None)
        assert queue.next_deadline() == pytest.approx(5.0)
        assert queue.due(now=5.0) == [("k", ["a"])]
        assert queue.pending == 0

    def test_drain_pops_everything(self):
        queue = CoalescingQueue(max_batch=10, max_wait=60.0)
        queue.offer("a", 1, now=0.0)
        queue.offer("b", 2, now=0.0)
        drained = dict(queue.drain())
        assert drained == {"a": [1], "b": [2]}
        assert queue.pending == 0

    @pytest.mark.parametrize("kwargs", [
        {"max_batch": 0}, {"max_wait": -1.0}, {"queue_limit": 0},
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        from repro.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            CoalescingQueue(**kwargs)


# ----------------------------------------------------------------------
# Daemon end-to-end
# ----------------------------------------------------------------------

class TestDaemon:
    def test_concurrent_clients_coalesce_correctly(self, rng):
        rows = [random_permutation(8, rng).as_tuple()
                for _ in range(8)]
        expected = [fast_self_route(row) for row in rows]
        outcomes: dict = {}
        with _daemon(max_batch=16) as handle:
            host, port = handle.address

            def worker(index):
                with ServeClient(host, port) as client:
                    outcomes[index] = client.route_many(rows)

            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        assert sorted(outcomes) == [0, 1, 2]
        for responses in outcomes.values():
            for response, (ok, dst) in zip(responses, expected):
                assert response.status == "ok"
                assert response.success == ok
                assert response.mapping == dst

    def test_coalesced_responses_byte_identical_to_direct(self, rng):
        """The tentpole parity claim: what the daemon sends over the
        wire for a coalesced batch is byte-for-byte what
        ``from_batch_result`` yields on a direct engine call."""
        order, batch = 3, 6
        rows = [random_permutation(8, rng).as_tuple()
                for _ in range(batch)]
        requests = [
            protocol.RouteRequest(op="route", tags=row, id=index + 1,
                                  stage_states=True)
            for index, row in enumerate(rows)
        ]
        with _daemon(max_batch=batch) as handle:
            host, port = handle.address
            with socket.create_connection((host, port),
                                          timeout=30.0) as sock:
                payload = "".join(
                    protocol.encode_request(request) + "\n"
                    for request in requests)
                sock.sendall(payload.encode("utf-8"))
                reader = sock.makefile("rb")
                wire_lines = [reader.readline() for _ in requests]
        engine = resolve_engine(None, order=order, batch_size=batch,
                                kind="route")
        direct = batch_self_route(rows, stage_states=True,
                                  engine=engine)
        by_id = {}
        for line in wire_lines:
            by_id[protocol.decode_response(line).id] = line
        for index, request in enumerate(requests):
            expected = (protocol.encode_response(
                protocol.from_batch_result(request, direct, index,
                                           engine)) + "\n") \
                .encode("utf-8")
            assert by_id[request.id] == expected

    @pytest.mark.parametrize("op, options", [
        ("route", {}),
        ("route", {"omega_mode": True}),
        ("route", {"stuck": ((1, 0, 1), (4, 3, 0))}),
        ("route", {"stage_states": True}),
        ("membership", {}),
        ("setup", {}),
        ("packet", {}),
    ], ids=["route", "omega", "stuck", "states", "membership", "setup",
            "packet"])
    def test_every_op_byte_identical_to_direct(self, rng, op, options):
        """Every op's wire bytes equal ``encode_response(from_*(...))``
        over a direct engine call on the same coalesced batch."""
        order, batch = 3, 6
        if op == "packet":
            rows = partial_rows(order, batch, rng)
        else:
            rows = [random_permutation(8, rng).as_tuple()
                    for _ in range(batch)]
        requests = [protocol.RouteRequest(op=op, tags=row, id=index + 1,
                                          **options)
                    for index, row in enumerate(rows)]
        with _daemon(max_batch=batch) as handle:
            by_id = _exchange(handle.address, requests)
        head = requests[0]
        engine = resolve_engine(
            None, order=order, batch_size=batch,
            kind="setup" if op == "setup" else "route")
        if op == "route":
            direct = batch_self_route(
                rows, omega_mode=head.omega_mode,
                stuck_switches=head.stuck_switches,
                stage_states=head.stage_states, engine=engine)
            build = protocol.from_batch_result
        elif op == "membership":
            direct = batch_in_class_f(rows, engine=engine)
            build = protocol.from_membership_mask
        elif op == "setup":
            direct = batch_setup_states(order, rows, engine=engine)
            build = protocol.from_setup_states
        else:
            direct = batch_route_partial(rows, engine=engine)
            build = protocol.from_partial_result
        for index, request in enumerate(requests):
            expected = protocol.encode_response(
                build(request, direct, index, engine)) + "\n"
            assert by_id[request.id] == expected.encode("utf-8")

    def test_connection_lanes_answered_once_per_line(self, rng):
        """Two connections, several lanes each per batch: the grouped
        per-connection write delivers every id exactly once, each on
        its own intact canonical line."""
        rows = [random_permutation(8, rng).as_tuple()
                for _ in range(12)]
        expected = [fast_self_route(row) for row in rows]
        received: dict = {}
        with _daemon(max_batch=8) as handle:
            def worker(conn):
                base = 100 * (conn + 1)
                requests = [protocol.RouteRequest(op="route", tags=row,
                                                  id=base + index)
                            for index, row in enumerate(rows)]
                with socket.create_connection(handle.address,
                                              timeout=60.0) as sock:
                    sock.sendall("".join(
                        protocol.encode_request(request) + "\n"
                        for request in requests).encode("utf-8"))
                    sock.shutdown(socket.SHUT_WR)
                    received[conn] = sock.makefile("rb").read()

            threads = [threading.Thread(target=worker, args=(conn,))
                       for conn in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        assert sorted(received) == [0, 1]
        for conn, raw in received.items():
            assert raw.endswith(b"\n")
            lines = raw.split(b"\n")[:-1]
            base = 100 * (conn + 1)
            ids = []
            for line in lines:
                response = protocol.decode_response(line)
                assert protocol.encode_response(response).encode(
                    "utf-8") == line
                ok, dst = expected[response.id - base]
                assert response.status == "ok"
                assert (response.success, response.mapping) == (ok, dst)
                ids.append(response.id)
            assert sorted(ids) == list(range(base, base + len(rows)))

    def test_dispatch_writes_once_per_connection(self):
        """A batch's hot-path answers reach each connection in one
        write, in item order; future sinks (the traced path) are
        resolved as before."""
        import asyncio

        from repro.serve.daemon import RoutingDaemon, _Connection

        class _Writer:
            def __init__(self):
                self.writes = []

            def write(self, payload):
                self.writes.append(payload)

        rows = [(3, 1, 2, 0), (0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1)]
        requests = [protocol.RouteRequest(op="route", tags=row, id=index)
                    for index, row in enumerate(rows)]
        first, second = _Writer(), _Writer()

        async def scenario():
            daemon = RoutingDaemon(ServeConfig(port=0, warm_orders=()))
            conns = [_Connection(first), _Connection(second)]
            future = asyncio.get_running_loop().create_future()
            sinks = [conns[0], conns[1], conns[0], future]
            for conn in conns:
                conn.outstanding = sinks.count(conn)
            await daemon._dispatch(list(zip(requests, sinks)))
            return conns, future.result()

        conns, traced = asyncio.run(scenario())
        assert [conn.outstanding for conn in conns] == [0, 0]
        assert len(first.writes) == len(second.writes) == 1
        lines = first.writes[0].split(b"\n")
        assert lines[-1] == b""
        assert [protocol.decode_response(line).id
                for line in lines[:-1]] == [0, 2]
        assert protocol.decode_response(second.writes[0]).id == 1
        assert traced.id == 3 and traced.status == "ok"

    def test_order_14_route_over_the_wire(self):
        # regression: a request longer than asyncio's 64 KiB default
        # line limit dropped the connection without an answer
        tags = random_permutation(1 << 14, random.Random(14)).as_tuple()
        with _daemon() as handle:
            with ServeClient(*handle.address) as client:
                response = client.request(protocol.RouteRequest(
                    op="route", tags=tags, id=14))
        ok, dst = fast_self_route(tags)
        assert response.status == "ok"
        assert (response.success, response.mapping) == (ok, dst)

    def test_line_limit_boundary(self):
        """A line of exactly MAX_LINE_BYTES is read; one byte more is
        answered with an error, counted, skipped, and the connection
        keeps serving."""
        obs.enable()
        limit = protocol.MAX_LINE_BYTES

        def padded(request_id, size):
            head = b'{"op":"route","tags":[1,0],"id":%d' % request_id
            return head + b" " * (size - len(head) - 1) + b"}\n"

        with _daemon() as handle:
            with socket.create_connection(handle.address,
                                          timeout=60.0) as sock:
                reader = sock.makefile("rb")
                at_limit = padded(5, limit)
                assert len(at_limit) == limit + 1  # plus the newline
                sock.sendall(at_limit)
                answered = protocol.decode_response(reader.readline())
                sock.sendall(padded(6, limit + 1))
                refused = protocol.decode_response(reader.readline())
                sock.sendall((protocol.encode_request(
                    protocol.RouteRequest(op="route", tags=(1, 0), id=7))
                    + "\n").encode("utf-8"))
                after = protocol.decode_response(reader.readline())
        assert (answered.id, answered.status) == (5, "ok")
        assert (refused.id, refused.status) == (-1, "error")
        assert str(limit) in refused.error
        assert (after.id, after.status) == (7, "ok")
        assert obs.snapshot()["counters"]["serve.errors"] == 1

    def test_membership_and_setup_ops(self, rng):
        perms = [random_permutation(8, rng).as_tuple()
                 for _ in range(5)]
        with _daemon() as handle:
            host, port = handle.address
            with ServeClient(host, port) as client:
                membership = client.membership_many(perms)
                setups = client.setup_many(perms)
        for response, perm in zip(membership, perms):
            assert response.status == "ok"
            assert response.success == in_class_f(perm)
        direct = batch_setup_states(3, perms)
        for index, response in enumerate(setups):
            assert response.status == "ok"
            assert response.success is True
            assert response.stage_states == tuple(
                tuple(int(s) for s in column)
                for column in direct[index]
            )

    def test_setup_states_realize_permutation(self, rng):
        perm = random_permutation(8, rng)
        with _daemon() as handle:
            host, port = handle.address
            with ServeClient(host, port) as client:
                response = client.setup_many([perm.as_tuple()])[0]
        net = BenesNetwork(3)
        realized = net.route_with_states(
            [list(column) for column in response.stage_states]
        ).realized
        assert realized == perm

    def test_fault_injection_over_the_wire(self, rng):
        rows = [random_permutation(8, rng).as_tuple()
                for _ in range(4)]
        stuck = {(1, 0): True, (4, 3): False}
        with _daemon() as handle:
            host, port = handle.address
            with ServeClient(host, port) as client:
                responses = client.route_many(rows,
                                              stuck_switches=stuck)
        direct = batch_self_route(rows, stuck_switches=stuck)
        for index, response in enumerate(responses):
            assert response.success == bool(
                direct.success_mask[index])
            assert response.mapping == tuple(
                int(v) for v in direct.mappings[index])

    def test_backpressure_rejection_over_the_wire(self):
        # queue_limit=1: in one pipelined burst the first request
        # queues, the rest are shed with status="rejected"; the long
        # latency window guarantees they arrive before the flush.
        with _daemon(max_batch=64, max_wait_us=200_000.0,
                     queue_limit=1) as handle:
            host, port = handle.address
            with ServeClient(host, port) as client:
                responses = client.route_many(
                    [(3, 1, 2, 0), (0, 1, 2, 3), (1, 0, 3, 2)])
        statuses = [response.status for response in responses]
        assert statuses[0] == "ok"
        assert statuses[1] == statuses[2] == "rejected"

    def test_client_route_raises_server_busy(self):
        import time

        with _daemon(max_batch=64, max_wait_us=500_000.0,
                     queue_limit=1) as handle:
            host, port = handle.address
            with ServeClient(host, port) as first, \
                    ServeClient(host, port) as second:
                # The blocker's request arrives first (the sleep
                # guarantees it) and occupies the one queue slot for
                # the full latency window; route_many reports its
                # response without raising.
                blocker = threading.Thread(
                    target=first.route_many, args=([(3, 1, 2, 0)],))
                blocker.start()
                try:
                    time.sleep(0.1)
                    with pytest.raises(ServerBusyError):
                        second.route((0, 1, 2, 3))
                finally:
                    blocker.join(timeout=30.0)

    def test_error_response_for_bad_vector_width(self):
        with _daemon() as handle:
            host, port = handle.address
            with ServeClient(host, port) as client:
                response = client.request(protocol.RouteRequest(
                    op="route", tags=(0, 1, 2)))  # not a power of two
        assert response.status == "error"
        assert response.error

    def test_protocol_error_answered_not_fatal(self):
        with _daemon() as handle:
            host, port = handle.address
            with socket.create_connection((host, port),
                                          timeout=30.0) as sock:
                sock.sendall(b"this is not json\n")
                reader = sock.makefile("rb")
                response = protocol.decode_response(reader.readline())
                assert response.status == "error"
                assert response.id == -1
                # the connection survives a bad line
                request = protocol.RouteRequest(op="route",
                                                tags=(1, 0), id=5)
                sock.sendall((protocol.encode_request(request)
                              + "\n").encode("utf-8"))
                ok_response = protocol.decode_response(
                    reader.readline())
        assert ok_response.status == "ok"
        assert ok_response.id == 5

    def test_serve_counters(self, rng):
        obs.enable()
        rows = [random_permutation(8, rng).as_tuple()
                for _ in range(6)]
        with _daemon(max_batch=6) as handle:
            host, port = handle.address
            with ServeClient(host, port) as client:
                client.route_many(rows)
                client.membership_many(rows[:2])
        snap = obs.snapshot()["counters"]
        assert snap["serve.requests.route"] == 6
        assert snap["serve.requests.membership"] == 2
        assert snap["serve.batches"] >= 2
        assert snap["serve.connections.opened"] == 1
        assert snap["serve.connections.closed"] == 1

    def test_single_trace_tree(self, tmp_path, rng):
        """One serving session - one valid trace tree: every
        connection, request and batch span adopts the daemon root."""
        trace_path = tmp_path / "serve_trace.jsonl"
        obs.enable(trace=str(trace_path))
        rows = [random_permutation(8, rng).as_tuple()
                for _ in range(4)]
        with _daemon(max_batch=4) as handle:
            host, port = handle.address
            with ServeClient(host, port) as client:
                client.route_many(rows)
        obs.trace_off()
        result = subprocess.run(
            [sys.executable, str(TOOLS / "trace_tree.py"),
             str(trace_path), "--quiet", "--max-trees", "1",
             "--min-spans", "4"],
            capture_output=True, text=True)
        assert result.returncode == 0, result.stderr


class TestDaemonLifecycle:
    def test_stop_counts_unclosable_writers(self):
        # regression: a transport raising from close() during shutdown
        # was swallowed silently; it must bump serve.errors instead
        import asyncio

        from repro.serve.daemon import RoutingDaemon

        class _StubbornWriter:
            def close(self):
                raise RuntimeError("transport refuses to close")

        obs.enable()

        async def scenario():
            daemon = RoutingDaemon(ServeConfig(port=0,
                                               warm_orders=(2,)))
            await daemon.start()
            daemon._writers.add(_StubbornWriter())
            await daemon.stop()

        asyncio.run(scenario())
        assert obs.snapshot()["counters"]["serve.errors"] == 1

    def test_start_raises_on_bad_engine(self):
        with pytest.raises(Exception):
            start_in_thread(ServeConfig(port=0, engine="warp-drive"))

    def test_stop_is_idempotent(self):
        handle = _daemon()
        handle.stop()
        handle.stop()

    def test_ephemeral_ports_do_not_collide(self):
        with _daemon() as first, _daemon() as second:
            assert first.address[1] != second.address[1]
