"""``lib-wide`` and ``lib-large``: the batch library called in-process.

``lib-wide`` runs single-threaded at order 8 with batch 1024 and
``parallel=False``: each round routes a batch with ``batch_self_route``
and ``batch_in_class_f``, then sets it up with ``batch_setup_states``
and routes the states with ``batch_route_with_states``.  The kernel and
setup levels do all the work (ROADMAP item 3's cache-bound regime).

``lib-large`` runs at order 18, where ``auto`` selects the composed
engine: each iteration sets up one permutation, routes its states, and
self-routes one F member.  It is the only workload where memory binds
before CPU.

Routing and setup are separate costs, so the two timed figures keep
them apart: ``throughput_per_s`` times only the routing calls and
``p50_us`` only the setup calls (see :func:`_transit_and_setup`).

Each workload runs in a fresh child process (``python -m
perfbench.lib_workloads``) so set-up time and peak RSS are the
program's own.  The parent makes the inputs, and after the child has
finished checks every distinct answer the child saw against the scalar
oracles (``fast_self_route``, ``in_class_f``, ``fast_route_with_states``).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Dict, List

from . import OUT, ROOT
from .daemon import program_env
from .spans import Tracer, counts, self_times
from .stats import (
    Tally,
    chunked_tail,
    median,
    min_samples,
    peak_rss_mb,
    random_perm,
)

WIDE_ORDER = 8
WIDE_BATCH = 1024
#: Share of each lib-wide batch drawn from F (the rest is uniform).
WIDE_F_SHARE = 0.25
LARGE_ORDER = 18
#: Distinct permutations lib-large cycles through.
LARGE_PERMS = 2
#: Child starts per run whose median is ``setup_s``.
SETUPS = {"lib-wide": 3, "lib-large": 2}
#: The tail percentile stamped, and so the fewest timed units a run
#: must collect (ten samples beyond it).
TAIL_PCT = {"lib-wide": 90, "lib-large": 75}

# ----------------------------------------------------------------------
# Inputs and oracles (parent process)
# ----------------------------------------------------------------------

def _bpc_member(rng: random.Random, order: int):
    """A random bit-permute-complement permutation: a member of F at
    any order that is cheap to draw (``random_class_f`` is quadratic
    in N)."""
    import numpy as np

    index = np.arange(1 << order, dtype=np.int64)
    dest = np.zeros_like(index)
    for bit, target in enumerate(rng.sample(range(order), order)):
        dest |= ((index >> bit) & 1) << target
    return dest ^ rng.getrandbits(order)


def make_inputs(workload: str, seed: int, path: str) -> None:
    import numpy as np
    from repro import random_class_f

    rng = random.Random(f"{workload}:{seed}")
    if workload == "lib-wide":
        size = 1 << WIDE_ORDER
        n_f = int(WIDE_BATCH * WIDE_F_SHARE)
        rows = [random_class_f(WIDE_ORDER, rng).as_tuple()
                for _ in range(n_f)]
        rows += [random_perm(rng, size) for _ in range(WIDE_BATCH - n_f)]
        rng.shuffle(rows)
        np.savez(path, perms=np.array(rows, dtype=np.int64))
    else:
        perms = [random_perm(rng, 1 << LARGE_ORDER)
                 for _ in range(LARGE_PERMS)]
        np.savez(path, perms=np.array(perms, dtype=np.int64),
                 members=_bpc_member(rng, LARGE_ORDER)[None, :])


def check_answers(workload: str, inputs, answers, tally: Tally) -> None:
    """Check every distinct answer the child recorded against the
    scalar oracles; each wrong item counts once per unit that returned
    it."""
    import numpy as np
    from repro import in_class_f
    from repro.core.fastpath import fast_route_with_states, fast_self_route

    order = WIDE_ORDER if workload == "lib-wide" else LARGE_ORDER
    oracle: Dict[str, list] = {}
    for entry in answers:
        call, rounds = entry["call"], entry["rounds"]
        if workload == "lib-wide":
            rows = inputs["perms"]
        elif call == "batch.self_route":
            rows = inputs["members"]
        else:
            rows = inputs["perms"][entry["input"]][None, :]
        tally.attempt(rounds * len(rows))
        if call == "batch.self_route":
            if call not in oracle:
                oracle[call] = [fast_self_route(row.tolist())
                                for row in rows]
            wrong = sum(
                bool(entry["success"][i]) != ok
                or tuple(entry["mappings"][i].tolist()) != delivered
                for i, (ok, delivered) in enumerate(oracle[call]))
        elif call == "batch.in_class_f":
            if call not in oracle:
                oracle[call] = [in_class_f(row.tolist()) for row in rows]
            wrong = sum(bool(entry["mask"][i]) != verdict
                        for i, verdict in enumerate(oracle[call]))
        elif call == "setup.batch_setup_states":
            wrong = sum(
                fast_route_with_states(states.tolist(), order)
                != tuple(row.tolist())
                for states, row in zip(entry["states"], rows))
        else:
            # Routing a permutation's set-up states must realize it
            # (the states themselves are replayed by the scalar oracle
            # in the branch above).
            wrong = int(np.sum(np.any(entry["mappings"] != rows,
                                      axis=1)))
        if wrong:
            tally.fail("wrong", wrong * rounds)


class LibWorkload:
    """One lib workload run: inputs, child processes, checks."""

    def __init__(self, name: str, seed: int, seconds: float) -> None:
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.scratch = tempfile.mkdtemp(prefix="run-", dir=OUT)
        self.inputs = os.path.join(self.scratch, "inputs.npz")
        self.tally = Tally()

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)

    def _child(self, tag: str, trace: int, warm_only: bool,
               trace_path: str = "") -> dict:
        answers = os.path.join(self.scratch, "answers.npz")
        args = [sys.executable, "-m", "perfbench.lib_workloads",
                "--workload", self.name, "--seconds", str(self.seconds),
                "--trace", str(trace), "--inputs", self.inputs,
                "--answers", answers, "--trace-path", trace_path]
        if warm_only:
            args.append("--warm-only")
        env = program_env(os.path.join(self.scratch,
                                       f"autotune-{tag}.json"))
        env["PYTHONPATH"] += os.pathsep + ROOT
        spawned = time.monotonic()
        done = subprocess.run(args, cwd=ROOT, env=env, check=True,
                              stdout=subprocess.PIPE, timeout=170,
                              text=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        result["setup_s"] = result["ready"] - spawned
        result["answers_path"] = answers
        return result

    def _run(self, trace: int, trace_path: str = "") -> dict:
        make_inputs(self.name, self.seed, self.inputs)
        setups = []
        # The traced run reports no set-up time: one start is enough.
        for attempt in range(0 if trace else SETUPS[self.name] - 1):
            setups.append(self._child(f"setup{attempt}", trace,
                                      True)["setup_s"])
        result = self._child("run", trace, False, trace_path)
        setups.append(result["setup_s"])
        result["setup_samples_s"] = setups
        import numpy as np

        with np.load(self.inputs) as inputs, \
                np.load(result["answers_path"]) as saved:
            check_answers(self.name, inputs,
                          _unpack_answers(saved), self.tally)
        return result

    def run(self) -> dict:
        result = self._run(0)
        return {
            "metrics": {
                "setup_s": median(result["setup_samples_s"]),
                "ok_share": 1.0 - self.tally.fail_share,
                "peak_rss_mb": result["peak_rss_mb"],
                "throughput_per_s": result["throughput_per_s"],
                "p50_us": result["p50_us"],
            },
            "valid": True,
            "setup_samples_s": result["setup_samples_s"],
            "samples": result["units"],
            "engines": result["engines"],
            "named": result["named"],
        }

    def run_traced(self, trace_path: str) -> dict:
        result = self._run(1, trace_path)
        return {"metrics": result["layers"], "valid": True,
                "samples": result["units"],
                "engines": result["engines"]}


def _unpack_answers(saved) -> List[dict]:
    entries = []
    for index in range(int(saved["count"])):
        prefix = f"a{index}."
        entry = {key[len(prefix):]: saved[key] for key in saved.files
                 if key.startswith(prefix)}
        entry["call"] = str(entry["call"])
        entry["rounds"] = int(entry["rounds"])
        entry["input"] = int(entry["input"])
        entries.append(entry)
    return entries


# ----------------------------------------------------------------------
# The child: the program under test
# ----------------------------------------------------------------------

class Answers:
    """The distinct answers of each call on each input, with the
    number of units that returned each — so the parent can check every
    answer while the child stores only the distinct ones."""

    def __init__(self) -> None:
        self.entries: List[dict] = []

    def record(self, call: str, input_index: int, **arrays) -> None:
        import numpy as np

        for entry in self.entries:
            if entry["call"] == call and entry["input"] == input_index \
                    and all(np.array_equal(entry[name], value)
                            for name, value in arrays.items()):
                entry["rounds"] += 1
                return
        entry = {"call": call, "input": input_index, "rounds": 1}
        entry.update({name: np.array(value)
                      for name, value in arrays.items()})
        self.entries.append(entry)

    def save(self, path: str) -> None:
        import numpy as np

        flat = {"count": len(self.entries)}
        for index, entry in enumerate(self.entries):
            for name, value in entry.items():
                flat[f"a{index}.{name}"] = value
        np.savez(path, **flat)


class Child:
    """Runs the workload's units; with a tracer, one span per call."""

    def __init__(self, workload: str, inputs_path: str) -> None:
        import numpy as np

        with np.load(inputs_path) as inputs:
            self.perms = inputs["perms"]
            self.members = inputs["members"] if "members" in inputs \
                else None
        self.workload = workload
        self.order = WIDE_ORDER if workload == "lib-wide" else LARGE_ORDER
        self.width = len(self.perms) if workload == "lib-wide" else 1
        self.answers = Answers()
        self.units = 0

    def engines(self) -> Dict[str, str]:
        """The engine ``auto`` resolves for each kind of call, keyed
        ``kind/N/batch width``."""
        from repro.accel import resolve_engine

        return {f"{kind}/{1 << self.order}/{self.width}":
                resolve_engine(None, order=self.order,
                               batch_size=self.width, kind=kind)
                for kind in ("route", "setup")}

    def unit(self, tracer=None) -> Dict[str, float]:
        """One unit of work; returns the seconds of each call (the
        calls only, not the answer bookkeeping)."""
        from repro.accel import (
            batch_in_class_f,
            batch_route_with_states,
            batch_self_route,
            batch_setup_states,
            resolve_engine,
        )

        parent = None
        if tracer is not None:
            unit_span = tracer.open("lib.unit", index=self.units)
            parent = unit_span["span_id"]
        busy: Dict[str, float] = {}

        def call(name, fn, *args, **kwargs):
            if tracer is not None:
                kind = "setup" if name.startswith("setup.") else "route"
                start = time.perf_counter()
                engine = resolve_engine(None, order=self.order,
                                        batch_size=self.width, kind=kind)
                tracer.add("engines.resolve", start,
                           time.perf_counter() - start, parent=parent,
                           engine=engine, call=name)
            start = time.perf_counter()
            value = fn(*args, **kwargs)
            seconds = time.perf_counter() - start
            if tracer is not None:
                tracer.add(name, start, seconds, parent=parent)
            busy[name] = seconds
            return value

        if self.workload == "lib-wide":
            perms, index = self.perms, 0
            routed = call("batch.self_route", batch_self_route, perms,
                          parallel=False)
            mask = call("batch.in_class_f", batch_in_class_f, perms,
                        parallel=False)
            self.answers.record("batch.in_class_f", index, mask=mask)
        else:
            index = self.units % len(self.perms)
            perms = self.perms[index][None, :]
        states = call("setup.batch_setup_states", batch_setup_states,
                      self.order, perms, parallel=False)
        replayed = call("batch.route_with_states", batch_route_with_states,
                        states, self.order, parallel=False)
        if self.workload == "lib-large":
            routed = call("batch.self_route", batch_self_route,
                          self.members, parallel=False)
        self.answers.record("batch.self_route", 0,
                            success=routed.success_mask,
                            mappings=routed.mappings)
        self.answers.record("setup.batch_setup_states", index,
                            states=states)
        self.answers.record("batch.route_with_states", index,
                            mappings=replayed.mappings)
        if tracer is not None:
            tracer.close(unit_span)
        self.units += 1
        return busy

    def warm_up(self) -> None:
        """The first call of every entry point on the workload's keys
        (at the large order: on every distinct permutation)."""
        for _ in range(1 if self.workload == "lib-wide"
                       else len(self.perms)):
            self.unit()

    def window(self, seconds: float, min_units: int, tracer=None):
        """Units until ``seconds`` of busy time and ``min_units``
        units have passed; each unit's seconds per call."""
        samples: List[Dict[str, float]] = []
        busy = 0.0
        while busy < seconds or len(samples) < min_units:
            samples.append(self.unit(tracer))
            busy += sum(samples[-1].values())
        return samples


def _busy(samples: List[Dict[str, float]], *calls: str) -> List[float]:
    """Each unit's seconds in ``calls`` (all calls when none named)."""
    return [sum(unit[name] for name in calls or unit) for unit in samples]


def _transit_and_setup(workload: str, samples) -> Dict[str, float]:
    """The two timed figures of a lib run, from per-unit medians.

    Transit is routing already-known permutations: self-route plus
    membership on lib-wide, route-with-states plus the F self-route on
    lib-large.  Setup is computing the switch states: setup plus
    route-with-states on lib-wide (the issue's ``setup_items_per_s``),
    the setup call alone on lib-large.
    """
    if workload == "lib-wide":
        route = median(_busy(samples, "batch.self_route",
                             "batch.in_class_f"))
        setup = median(_busy(samples, "setup.batch_setup_states",
                             "batch.route_with_states"))
        # Two calls on WIDE_BATCH rows each.
        return {"throughput_per_s": 2 * WIDE_BATCH / route,
                "p50_us": setup * 1e6,
                "route_items_per_s": 2 * WIDE_BATCH / route,
                "setup_items_per_s": 2 * WIDE_BATCH / setup}
    setup = median(_busy(samples, "setup.batch_setup_states"))
    route_states = median(_busy(samples, "batch.route_with_states"))
    transit = median(_busy(samples, "batch.route_with_states",
                           "batch.self_route"))
    return {"throughput_per_s": 1.0 / transit,
            "p50_us": setup * 1e6,
            "large_setup_s": setup,
            "large_route_s": route_states}


def _layer_metrics(child: Child, tracer: Tracer, traced: List[float],
                   untraced: List[float], resolve_s: float,
                   chunks: int, peak_chunk_bytes: int) -> dict:
    records = tracer.records
    own = self_times(records)
    tally = counts(records)

    def per_item(name: str) -> float:
        calls = tally.get(name, 0)
        return own.get(name, 0.0) / (calls * child.width) * 1e6 \
            if calls else 0.0

    def median_call(name: str) -> float:
        return median(r["seconds"] for r in records if r["name"] == name)

    layers = {
        "engines.resolve_us": per_item("engines.resolve") * child.width,
        "autotune.probe_s": resolve_s,
        "batch.route_us_per_item": per_item("batch.self_route"),
        "batch.membership_us_per_item": per_item("batch.in_class_f"),
        "batch.states_us_per_item": per_item("batch.route_with_states"),
        "setup.us_per_item": per_item("setup.batch_setup_states"),
        # Units per busy second, traced against untraced.
        "trace.overhead_share": 1.0 - (len(traced) / sum(traced)) / (
            len(untraced) / sum(untraced)),
    }
    for record in records:
        if record["name"] == "engines.resolve":
            name = f"engines.batches.{record['engine']}"
            layers[name] = layers.get(name, 0) + 1
    if child.workload == "lib-large":
        layers["composed.setup_s"] = median_call(
            "setup.batch_setup_states")
        layers["composed.route_s"] = median_call(
            "batch.route_with_states")
        layers["composed.chunks"] = chunks / len(traced)
        layers["composed.peak_chunk_bytes"] = peak_chunk_bytes
    return layers


def child_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="run one lib workload in this process")
    parser.add_argument("--workload", required=True, choices=list(TAIL_PCT))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--answers", required=True)
    parser.add_argument("--trace-path", default="")
    parser.add_argument("--warm-only", action="store_true")
    args = parser.parse_args(argv)

    child = Child(args.workload, args.inputs)
    # The process's first engine resolution, on its fresh autotune
    # cache: where ``auto`` probes the scalar/bitslice crossover.  The
    # modules are imported first, so import time is not counted.
    import repro.accel.autotune  # noqa: F401

    start = time.perf_counter()
    engines = child.engines()
    resolve_s = time.perf_counter() - start
    child.warm_up()
    ready = time.monotonic()
    if args.warm_only:
        print(json.dumps({"ready": ready}))
        return 0
    if args.trace:
        from repro.accel import composed_stats

        half = args.seconds / 2.0
        untraced = _busy(child.window(half, 2))
        tracer = Tracer(f"bench.{args.workload}")
        chunks = composed_stats()["chunks"]
        samples = child.window(half, 2, tracer)
        stats = composed_stats()
        tracer.write(args.trace_path)
        result = {"layers": _layer_metrics(
            child, tracer, _busy(samples), untraced, resolve_s,
            stats["chunks"] - chunks, stats["peak_chunk_bytes"])}
    else:
        pct = TAIL_PCT[args.workload]
        samples = child.window(args.seconds, min_samples(pct))
        figures = _transit_and_setup(args.workload, samples)
        result = {
            "throughput_per_s": figures.pop("throughput_per_s"),
            "p50_us": figures.pop("p50_us"),
            "named": dict(figures, **{
                f"unit_p{pct}_us": chunked_tail(_busy(samples), pct)
                * 1e6}),
        }
    child.answers.save(args.answers)
    result.update({"ready": ready, "units": len(samples),
                   "peak_rss_mb": peak_rss_mb(),
                   "engines": engines})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(child_main())
