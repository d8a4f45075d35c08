"""Run one benchmark workload and print its result.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-route --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that gives the per-layer
metrics and writes the span trace to ``perfbench/.out/``.  The metric
names and units come from ``BENCHMARK.json``.  Human-readable lines go
first; the last line of standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import json
import os
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("serve-route", "serve-mixed", "lib-wide", "lib-large")

#: A run that takes longer than this is abandoned (a run must end within
#: 180 s).
RUN_LIMIT_S = 170


def _fail(message: str) -> "SystemExit":
    print(f"perfbench: {message}", file=sys.stderr)
    return SystemExit(2)


def _load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise _fail(f"cannot read {path}: {exc}")


def _prepare_environment() -> None:
    """Measure the checkout's own sources, steered by nothing the
    caller's environment sets."""
    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        raise _fail("no program to measure: src/repro is missing from "
                    f"{ROOT}")
    for key in [key for key in os.environ if key.startswith("BENES_")]:
        del os.environ[key]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)


def _validate_trace(path: str) -> list:
    """Orphans, duplicate ids and torn lines, as ``tools/trace_tree.py``
    reports them."""
    tool = os.path.join(ROOT, "tools", "trace_tree.py")
    spec = importlib.util.spec_from_file_location("trace_tree", tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    spans, _others, errors = module.load_trace(path)
    module.validate(spans, errors)
    if not spans:
        errors.append("trace holds no spans")
    return errors


def _engine_drift(results_path: str, workload: str, engines) -> bool:
    """True when an earlier run of ``workload`` in this checkout
    resolved a different engine for a shape (op, vector width, batch
    width) both runs met."""
    if not os.path.exists(results_path):
        return False
    with open(results_path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if record.get("workload") != workload:
                continue
            earlier = record.get("engines") or {}
            if any(earlier[shape] != engine
                   for shape, engine in engines.items()
                   if shape in earlier):
                return True
    return False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        raise _fail("--seconds must be positive")

    spec = _load_spec()
    _prepare_environment()

    def overrun(_signum, _frame):
        raise TimeoutError(f"run exceeded {RUN_LIMIT_S}s")

    signal.signal(signal.SIGALRM, overrun)
    signal.alarm(RUN_LIMIT_S)

    from perfbench import OUT
    from perfbench.stats import host_fingerprint

    os.makedirs(OUT, exist_ok=True)
    # The benchmark process replays and checks in-process: it too gets
    # a fresh autotune cache.
    os.environ["BENES_AUTOTUNE_CACHE"] = os.path.join(
        OUT, f"autotune-bench-{os.getpid()}.json")
    if args.workload.startswith("serve-"):
        from perfbench.serve_workloads import ServeWorkload as Workload
    else:
        from perfbench.lib_workloads import LibWorkload as Workload

    trace_path = os.path.join(
        OUT, f"trace-{args.workload}-seed{args.seed}.jsonl")
    workload = Workload(args.workload, args.seed, args.seconds)
    started = time.time()
    try:
        if args.trace:
            outcome = workload.run_traced(trace_path)
        else:
            outcome = workload.run()
    finally:
        workload.close()
        try:
            os.unlink(os.environ["BENES_AUTOTUNE_CACHE"])
        except FileNotFoundError:
            pass
    tally = workload.tally

    trace_errors = _validate_trace(trace_path) if args.trace else []
    if args.trace:
        wanted = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = {name: float(outcome["metrics"].get(name, 0.0))
                  for name in wanted}
    else:
        wanted = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {name: float(outcome["metrics"][name])
                  for name in wanted}

    from repro.serve.daemon import ServeConfig

    engines = outcome.get("engines", getattr(workload, "engines", {}))
    results_path = os.path.join(OUT, "results.jsonl")
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started": started,
        "host": host_fingerprint(),
        "daemon_config": {key: value for key, value in
                          dataclasses.asdict(ServeConfig()).items()
                          if key not in ("host", "port")},
        "engines": engines,
        "engine_drift": _engine_drift(results_path, args.workload,
                                      engines),
        "valid": outcome["valid"],
        "samples": outcome.get("samples"),
        "wire_probe": outcome.get("wire_probe") or None,
        "replay_mismatch": outcome.get("replay_mismatch"),
        "scraped": outcome.get("scraped"),
        "setup_samples_s": outcome.get("setup_samples_s"),
        "failures": tally.failures,
        "named": outcome.get("named"),
        "trace_errors": trace_errors,
        "metrics": values,
    }
    with open(results_path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(stamp, sort_keys=True) + "\n")
    if stamp["engine_drift"]:
        print(f"perfbench: engines differ from an earlier "
              f"{args.workload} run in this checkout: {engines}",
              file=sys.stderr)
    if not outcome["valid"]:
        print("perfbench: run invalid: the open-loop generator lagged "
              "or answers fell short of the offered load",
              file=sys.stderr)
    if stamp["replay_mismatch"]:
        print(f"perfbench: the in-process replay answered "
              f"{stamp['replay_mismatch']} requests differently from the "
              "live daemon: its per-layer figures do not describe the "
              "daemon's path", file=sys.stderr)
    for error in trace_errors:
        print(f"perfbench: trace: {error}", file=sys.stderr)

    print("run " + json.dumps(stamp, sort_keys=True, default=str))
    for name in wanted:
        print(f"{args.workload} {name} = {values[name]:.6g} "
              f"{units[name]}")
    if not args.trace:
        print(f"{args.workload} fail_share = {tally.fail_share:.6g} "
              f"share ({tally.failed} of {tally.attempted})")
        for name, value in outcome["named"].items():
            unit = ("us" if name.endswith("_us") else
                    "1/s" if name.endswith(("_per_s", "_rps")) else "s")
            print(f"{args.workload} {name} = {value:.6g} {unit}")

    result = {
        "correct": (tally.failed == 0 and outcome["valid"]
                    and not trace_errors
                    and not stamp["replay_mismatch"]),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
