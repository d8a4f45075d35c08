"""Distributed-observability tests: cross-process metric aggregation
through the shard executor, span tracing (single reconstructable tree
across workers), trace-file write atomicity, and the OpenMetrics /
JSON exporters.

The parity tests are the acceptance gate for obs v2: a sharded batch
run with metrics enabled must report **exactly** the same counter
totals (calls, items, successes, failures, fallbacks, stage crossings)
as the same batch run inline, for both the process-pool path and the
thread-fallback path.
"""

import importlib.util
import json
import os
import pathlib
import random
import subprocess
import sys
import textwrap
import threading
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.accel import (
    batch_in_class_f,
    batch_route_with_states,
    batch_self_route,
    batch_setup_states,
    batch_two_pass,
    have_numpy,
)
from repro.accel import _np as accel_np
from repro.accel import executor as _executor
from repro.core import BenesNetwork
from repro.obs import export as obs_export
from repro.obs.registry import DELTA_SCHEMA_VERSION, MetricsRegistry
from repro.errors import InvalidParameterError

REPO = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO / "src"
TOOLS = REPO / "tools"


def _load_tool(name):
    """Import a ``tools/*.py`` script as a module (tools/ is not a
    package)."""
    spec = importlib.util.spec_from_file_location(
        f"_tools_{name}", TOOLS / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(autouse=True)
def _clean_obs():
    """Every test starts and ends with collection off, instruments
    zeroed, and no executor pool held across tests (several tests
    monkeypatch the shard threshold)."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()
    _executor.shutdown()


def _perms(order, count, seed=7):
    rng = random.Random(seed)
    size = 1 << order
    return [tuple(rng.sample(range(size), size)) for _ in range(count)]


def _parity_counters(snap):
    """The counters that must agree between inline and sharded runs.

    ``executor.*`` exists only on the sharded path by design, and
    ``obs.*`` counts meta-traffic (span emission), so both are
    excluded from the equality."""
    return {
        name: value
        for name, value in snap["counters"].items()
        if not name.startswith(("executor.", "obs."))
    }


# ----------------------------------------------------------------------
# Delta / merge wire form
# ----------------------------------------------------------------------

class TestDeltaMerge:
    def test_counter_delta_is_incremental(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        assert reg.snapshot_delta()["counters"] == {"c": 3}
        assert reg.snapshot_delta()["counters"] == {}
        reg.counter("c").inc(2)
        assert reg.snapshot_delta()["counters"] == {"c": 2}

    def test_merge_semantics(self):
        parent, worker = MetricsRegistry(), MetricsRegistry()
        parent.counter("c").inc(1)
        parent.gauge("g").set(10.0)
        parent.histogram("h", bounds=(1.0, 10.0)).observe(0.5)
        worker.counter("c").inc(4)
        worker.gauge("g").set(99.0)
        worker.histogram("h", bounds=(1.0, 10.0)).observe(50.0)
        parent.merge(worker.snapshot_delta())
        snap = parent.snapshot()
        assert snap["counters"]["c"] == 5            # sum
        assert snap["gauges"]["g"] == 99.0           # last write wins
        hist = snap["histograms"]["h"]
        assert hist["count"] == 2                    # bucket add
        assert hist["min"] == 0.5 and hist["max"] == 50.0
        assert hist["buckets"] == {"le_1": 1, "overflow": 1}

    def test_merge_creates_missing_instruments(self):
        parent, worker = MetricsRegistry(), MetricsRegistry()
        worker.counter("only.in.worker").inc(2)
        worker.histogram("h", bounds=(2.0,)).observe(1.0)
        parent.merge(worker.snapshot_delta())
        snap = parent.snapshot()
        assert snap["counters"]["only.in.worker"] == 2
        assert snap["histograms"]["h"]["count"] == 1

    def test_merge_rejects_unknown_schema_version(self):
        with pytest.raises(InvalidParameterError):
            MetricsRegistry().merge({"v": DELTA_SCHEMA_VERSION + 1})

    def test_merge_rejects_mismatched_histogram_bounds(self):
        parent, worker = MetricsRegistry(), MetricsRegistry()
        parent.histogram("h", bounds=(1.0,)).observe(0.5)
        worker.histogram("h", bounds=(2.0,)).observe(0.5)
        with pytest.raises(InvalidParameterError):
            parent.merge(worker.snapshot_delta())

    def test_delta_is_json_picklable(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.gauge("g").set(1.5)
        reg.histogram("h").observe(0.01)
        delta = reg.snapshot_delta()
        assert delta == json.loads(json.dumps(delta))

    # an op is (kind, instrument index, integer value); integer-valued
    # observations keep the float sums exact, so the split/merge run
    # and the sequential run must produce *identical* snapshots
    _OPS = st.lists(
        st.tuples(st.sampled_from(["counter", "gauge", "hist"]),
                  st.integers(0, 2), st.integers(0, 100)),
        max_size=60,
    )

    @settings(max_examples=60, deadline=None)
    @given(ops=_OPS, split=st.integers(0, 60))
    def test_split_merge_equals_sequential(self, ops, split):
        split = min(split, len(ops))
        bounds = (1.0, 10.0, 100.0)

        def apply(reg, op):
            kind, idx, value = op
            name = f"{kind}.{idx}"
            if kind == "counter":
                reg.counter(name).inc(value)
            elif kind == "gauge":
                reg.gauge(name).set(float(value))
            else:
                reg.histogram(name, bounds=bounds).observe(float(value))

        sequential = MetricsRegistry()
        for op in ops:
            apply(sequential, op)

        parent, worker = MetricsRegistry(), MetricsRegistry()
        for op in ops[:split]:
            apply(parent, op)
        for op in ops[split:]:
            apply(worker, op)
        # round-trip through JSON, exactly as a spawn worker ships it
        parent.merge(json.loads(json.dumps(worker.snapshot_delta())))

        merged, expected = parent.snapshot(), sequential.snapshot()
        # a counter only ever inc(0)'d by the worker is invisible on
        # the wire (idle instruments are omitted from deltas), so the
        # comparison is modulo zero-valued counters
        def nonzero(counters):
            return {k: v for k, v in counters.items() if v}

        assert nonzero(merged["counters"]) == \
            nonzero(expected["counters"])
        assert merged["histograms"] == expected["histograms"]
        # a gauge written only by the parent after the split point
        # does not exist: gauges compare on the keys the worker shipped
        # plus the parent's own — which is exactly the full key set
        assert merged["gauges"] == expected["gauges"]


# ----------------------------------------------------------------------
# Sharded-vs-inline counter parity (the tentpole acceptance test)
# ----------------------------------------------------------------------

def _states(order, count, rng):
    n = 1 << order
    return [[[rng.randint(0, 1) for _ in range(n // 2)]
             for _ in range(2 * order - 1)] for _ in range(count)]


#: One call per accel entry point (self-route twice: plain, and with
#: omega mode, stage states and a stuck switch), as
#: ``(order, count, rng, engine, parallel)``.
_ENTRY_CALLS = {
    "self_route": lambda order, count, rng, engine, parallel:
        batch_self_route(_perms(order, count), engine=engine,
                         parallel=parallel),
    "self_route_options": lambda order, count, rng, engine, parallel:
        batch_self_route(_perms(order, count), omega_mode=True,
                         stage_states=True, stuck_switches={(0, 0): 1},
                         engine=engine, parallel=parallel),
    "membership": lambda order, count, rng, engine, parallel:
        batch_in_class_f(_perms(order, count), engine=engine,
                         parallel=parallel),
    "route_with_states": lambda order, count, rng, engine, parallel:
        batch_route_with_states(_states(order, count, rng), order,
                                engine=engine, parallel=parallel),
    "setup": lambda order, count, rng, engine, parallel:
        batch_setup_states(order, _perms(order, count), engine=engine,
                           parallel=parallel),
    "two_pass": lambda order, count, rng, engine, parallel:
        batch_two_pass(order, _perms(order, count), engine=engine,
                       parallel=parallel),
}

#: ``(engine, FORCE_FALLBACK)`` legs of the per-entry parity test.
_PARITY_ENGINES = [
    pytest.param("scalar", False, id="scalar"),
    pytest.param("bitslice", False, id="bitslice"),
    pytest.param("scalar", True, id="scalar-fallback"),
    pytest.param("bitslice", True, id="bitslice-fallback"),
] + ([pytest.param("numpy", False, id="numpy")] if have_numpy() else [])


class TestShardedParity:
    ORDER = 3
    COUNT = 32

    def _inline_snapshot(self, perms):
        obs.enable()
        inline = batch_self_route(perms)
        snap = obs.snapshot()
        obs.disable()
        obs.reset()
        return inline, snap

    @pytest.mark.skipif(not have_numpy(),
                        reason="process-pool path requires NumPy")
    def test_process_pool_parity(self, monkeypatch):
        perms = _perms(self.ORDER, self.COUNT)
        inline, inline_snap = self._inline_snapshot(perms)

        monkeypatch.setattr(_executor, "SHARD_THRESHOLD", 8)
        obs.enable()
        sharded = batch_self_route(perms, parallel=2)
        sharded_snap = obs.snapshot()
        obs.disable()

        counters = sharded_snap["counters"]
        assert counters["executor.mode.process"] == 1
        assert counters["executor.items"] == self.COUNT
        assert counters["executor.worker.deltas"] == 2

        assert list(sharded.success_mask) == list(inline.success_mask)
        assert _parity_counters(sharded_snap) == \
            _parity_counters(inline_snap)

    def test_thread_fallback_parity(self, monkeypatch):
        monkeypatch.setattr(accel_np, "FORCE_FALLBACK", True)
        perms = _perms(self.ORDER, self.COUNT)
        inline, inline_snap = self._inline_snapshot(perms)
        assert inline_snap["counters"]["accel.fallback.calls"] == 1

        monkeypatch.setattr(_executor, "SHARD_THRESHOLD", 8)
        obs.enable()
        sharded = batch_self_route(perms, parallel=2)
        sharded_snap = obs.snapshot()
        obs.disable()

        counters = sharded_snap["counters"]
        assert counters["executor.mode.thread"] == 1
        assert counters["executor.items"] == self.COUNT

        assert list(sharded.success_mask) == list(inline.success_mask)
        assert _parity_counters(sharded_snap) == \
            _parity_counters(inline_snap)

    @pytest.mark.parametrize("call", sorted(_ENTRY_CALLS))
    @pytest.mark.parametrize("engine,fallback", _PARITY_ENGINES)
    def test_thread_fallback_parity_per_entry(self, monkeypatch, call,
                                              engine, fallback):
        """Every entry point, every kernel: a thread-sharded run
        (threshold 8, ``parallel=2``) reports the inline counters."""
        if fallback:
            monkeypatch.setattr(accel_np, "FORCE_FALLBACK", True)

        def no_pool(workers, orders):
            raise OSError("thread shards only")

        monkeypatch.setattr(_executor, "_get_process_pool", no_pool)
        run = _ENTRY_CALLS[call]
        rng = random.Random(11)
        obs.enable()
        run(self.ORDER, self.COUNT, rng, engine, False)
        inline_snap = obs.snapshot()
        obs.disable()
        obs.reset()

        monkeypatch.setattr(_executor, "SHARD_THRESHOLD", 8)
        rng = random.Random(11)
        obs.enable()
        run(self.ORDER, self.COUNT, rng, engine, 2)
        sharded_snap = obs.snapshot()
        obs.disable()

        assert sharded_snap["counters"]["executor.items"] == self.COUNT
        inline = _parity_counters(inline_snap)
        assert _parity_counters(sharded_snap) == inline
        pure = fallback or not have_numpy()
        assert inline.get("accel.fallback.calls", 0) == (1 if pure else 0)

    @pytest.mark.skipif(not have_numpy(),
                        reason="process-pool path requires NumPy")
    def test_shutdown_flushes_straggler_deltas(self, monkeypatch):
        """Work the pool, then shut it down: the teardown flush must
        not lose or double-count anything (snapshot totals still equal
        the inline run afterwards)."""
        perms = _perms(self.ORDER, self.COUNT)
        _, inline_snap = self._inline_snapshot(perms)

        monkeypatch.setattr(_executor, "SHARD_THRESHOLD", 8)
        obs.enable()
        batch_self_route(perms, parallel=2)
        _executor.shutdown()
        snap = obs.snapshot()
        obs.disable()
        assert _parity_counters(snap) == _parity_counters(inline_snap)


# ----------------------------------------------------------------------
# Span tracing
# ----------------------------------------------------------------------

class TestSpans:
    def test_tracing_preserves_routing_results(self, tmp_path):
        net = BenesNetwork(3)
        perms = _perms(3, 6)
        baseline = [net.route(p) for p in perms]

        trace = tmp_path / "route.jsonl"
        obs.trace_to(str(trace))
        traced = [net.route(p) for p in perms]
        obs.trace_off()

        for off, on in zip(baseline, traced):
            assert on.success == off.success
            assert on.realized == off.realized

        spans = [json.loads(line)
                 for line in trace.read_text().splitlines()
                 if json.loads(line).get("ev") == "span"]
        assert len(spans) == len(perms)
        assert all(s["name"] == "route" for s in spans)
        assert all(s["parent_id"] is None for s in spans)
        # every route is its own trace — distinct trace_ids
        assert len({s["trace_id"] for s in spans}) == len(perms)

    def test_disabled_tracing_emits_nothing(self, tmp_path):
        assert obs.trace_path() is None
        BenesNetwork(2).route((3, 2, 1, 0))
        batch_self_route([(3, 2, 1, 0)])
        assert list(tmp_path.iterdir()) == []

    def test_events_are_stamped_with_current_span(self, tmp_path):
        trace = tmp_path / "stamped.jsonl"
        obs.trace_to(str(trace))
        BenesNetwork(2).route((3, 2, 1, 0))
        obs.trace_off()
        events = [json.loads(line)
                  for line in trace.read_text().splitlines()]
        span = next(e for e in events if e["ev"] == "span")
        stages = [e for e in events if e["ev"] == "stage"]
        assert stages and all(
            e["span_id"] == span["span_id"]
            and e["trace_id"] == span["trace_id"] for e in stages
        )


_SHARDED_TRACE_SCRIPT = """\
import json
import random
import sys

sys.path.insert(0, {src!r})

if __name__ == "__main__":
    mode, trace_path = sys.argv[1], sys.argv[2]
    if mode == "thread":
        from repro.accel import _np
        _np.FORCE_FALLBACK = True
    import repro.obs as obs
    from repro.accel import batch_self_route
    from repro.accel import executor as ex
    ex.SHARD_THRESHOLD = 8
    rng = random.Random(7)
    perms = [tuple(rng.sample(range(8), 8)) for _ in range(32)]
    obs.enable(trace=trace_path)
    batch_self_route(perms, parallel=2)
    ex.shutdown()
    obs.disable()
    counters = obs.snapshot()["counters"]
    print(json.dumps({{
        "mode_process": counters.get("executor.mode.process", 0),
        "mode_thread": counters.get("executor.mode.thread", 0),
    }}))
"""


class TestShardedSpanTree:
    """A sharded batch forms ONE span tree: the batch root, the
    executor dispatch under it, the per-shard spans under the
    dispatch, and each worker's batch span under its shard — even when
    the shards ran in other processes."""

    def _run(self, tmp_path, mode):
        script = tmp_path / "sharded_trace.py"
        script.write_text(_SHARDED_TRACE_SCRIPT.format(src=str(SRC)))
        trace = tmp_path / f"{mode}.jsonl"
        proc = subprocess.run(
            [sys.executable, str(script), mode, str(trace)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return trace, json.loads(proc.stdout.strip().splitlines()[-1])

    @pytest.mark.parametrize("mode", ["process", "thread"])
    def test_single_tree_across_workers(self, tmp_path, mode):
        if mode == "process" and not have_numpy():
            pytest.skip("process-pool path requires NumPy")
        trace, counters = self._run(tmp_path, mode)
        if mode == "process":
            assert counters["mode_process"] == 1
        else:
            assert counters["mode_thread"] == 1

        # the CI smoke contract: trace_tree validates and exits 0
        tree = subprocess.run(
            [sys.executable, str(TOOLS / "trace_tree.py"), str(trace),
             "--min-spans", "6"],
            capture_output=True, text=True, timeout=60,
        )
        assert tree.returncode == 0, tree.stdout + tree.stderr

        spans = [json.loads(line)
                 for line in trace.read_text().splitlines()
                 if json.loads(line).get("ev") == "span"]
        assert len({s["trace_id"] for s in spans}) == 1
        by_id = {s["span_id"]: s for s in spans}

        roots = [s for s in spans if s["parent_id"] is None]
        assert len(roots) == 1 and roots[0]["name"] == "batch.self_route"

        dispatch = [s for s in spans if s["name"] == "executor.dispatch"]
        assert len(dispatch) == 1
        assert dispatch[0]["parent_id"] == roots[0]["span_id"]

        shards = [s for s in spans if s["name"] == "executor.shard"]
        assert len(shards) == 2
        assert all(s["parent_id"] == dispatch[0]["span_id"]
                   for s in shards)
        assert sorted(s["shard"] for s in shards) == [0, 1]

        worker_batches = [
            s for s in spans
            if s["name"] == "batch.self_route" and s["parent_id"]
        ]
        assert len(worker_batches) == 2
        assert all(by_id[s["parent_id"]]["name"] == "executor.shard"
                   for s in worker_batches)


# ----------------------------------------------------------------------
# Trace file write atomicity
# ----------------------------------------------------------------------

_WRITER_SCRIPT = """\
import os
import sys

sys.path.insert(0, {src!r})

if __name__ == "__main__":
    import repro.obs as obs
    path, count = sys.argv[1], int(sys.argv[2])
    obs.trace_to(path)
    pad = "x" * 256
    for i in range(count):
        obs.trace_event("ping", i=i, pid=os.getpid(), pad=pad)
"""


class TestTraceAtomicity:
    def test_concurrent_writers_never_tear_lines(self, tmp_path):
        """N processes appending to one trace file concurrently: every
        line must still parse as JSON (O_APPEND + single write per
        event)."""
        script = tmp_path / "writer.py"
        script.write_text(_WRITER_SCRIPT.format(src=str(SRC)))
        trace = tmp_path / "shared.jsonl"
        writers, per_writer = 4, 250

        procs = [
            subprocess.Popen(
                [sys.executable, str(script), str(trace),
                 str(per_writer)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
            for _ in range(writers)
        ]
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err

        lines = trace.read_text().splitlines()
        assert len(lines) == writers * per_writer
        events = [json.loads(line) for line in lines]  # raises on tear
        assert all(e["ev"] == "ping" for e in events)
        assert len({e["pid"] for e in events}) == writers
        # per-writer event streams arrive intact and in order
        for pid in {e["pid"] for e in events}:
            own = [e["i"] for e in events if e["pid"] == pid]
            assert own == sorted(own) and len(own) == per_writer


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------

def _populated_snapshot():
    obs.enable()
    BenesNetwork(2).route((3, 2, 1, 0))
    BenesNetwork(2).route((1, 3, 2, 0))
    batch_self_route(_perms(2, 4))
    snap = obs.snapshot()
    obs.disable()
    return snap


class TestExporters:
    def test_openmetrics_lints_clean(self):
        snap = _populated_snapshot()
        text = obs_export.render_openmetrics(snap)
        assert text.endswith("# EOF\n")
        lint = _load_tool("check_openmetrics").lint
        assert lint(text) == []

    def test_openmetrics_shapes(self):
        snap = _populated_snapshot()
        text = obs_export.render_openmetrics(snap)
        assert "# TYPE benes_route_calls counter" in text
        assert "benes_route_calls_total 2" in text
        # histogram: cumulative buckets with a closing +Inf
        assert 'accel_batch_seconds_bucket{le="+Inf"}' in text
        assert "accel_batch_seconds_count" in text
        # providers flatten to gauges
        assert "accel_cache_topology_hits" in text

    def test_json_render_roundtrips(self):
        snap = _populated_snapshot()
        parsed = json.loads(obs_export.render_json(snap))
        assert parsed["counters"]["benes.route.calls"] == 2

    def test_scrape_endpoint(self):
        obs.enable()
        BenesNetwork(2).route((3, 2, 1, 0))
        server = obs_export.build_server(0)   # ephemeral port
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        try:
            with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/metrics",
                    timeout=10) as response:
                assert response.status == 200
                assert response.headers["Content-Type"] == \
                    obs_export.OPENMETRICS_CONTENT_TYPE
                body = response.read().decode("utf-8")
            lint = _load_tool("check_openmetrics").lint
            assert lint(body) == []
            assert "benes_route_calls_total" in body
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/other", timeout=10)
            assert excinfo.value.code == 404
        finally:
            server.shutdown()
            thread.join(timeout=10)
            server.server_close()


class TestMetricsCLI:
    def test_dump_demo_openmetrics(self, capsys):
        from repro.cli import main
        assert main(["metrics", "dump", "--demo"]) == 0
        out = capsys.readouterr().out
        lint = _load_tool("check_openmetrics").lint
        assert lint(out) == []
        assert "cli_command_metrics_total" in out

    def test_dump_demo_json(self, capsys):
        from repro.cli import main
        assert main(["metrics", "dump", "--demo",
                     "--format", "json"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["counters"]["cli.command.metrics"] == 1

    def test_dump_reads_bench_report(self, tmp_path, capsys):
        """`--input` accepts both a raw snapshot and a bench report
        with an embedded ``metrics`` key."""
        from repro.cli import main
        snap = _populated_snapshot()
        report = tmp_path / "bench.json"
        report.write_text(json.dumps({"benchmark": "x",
                                      "metrics": snap}))
        assert main(["metrics", "dump", "--input", str(report)]) == 0
        out = capsys.readouterr().out
        assert _load_tool("check_openmetrics").lint(out) == []
        assert "benes_route_calls_total 2" in out
