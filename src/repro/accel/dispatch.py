"""The one batch dispatcher behind the five accel entry points.

:func:`~repro.accel.batch_self_route`,
:func:`~repro.accel.batch_in_class_f`,
:func:`~repro.accel.batch_route_with_states`,
:func:`~repro.accel.batch_setup_states` and
:func:`~repro.accel.batch_two_pass` are each one call to :func:`run`,
which takes every op through the same fixed sequence:

1. **resolve** the engine once (:func:`repro.accel.resolve_engine`),
   counting ``accel.engine_selected.<engine>`` unless the call is a
   shard re-entry (the selection happened at the dispatching call);
2. **redirect** — the composed engine takes the raw batch and shards
   its own sub-batches, and a composed two-pass request runs on the
   composed engine's inner engine (the factorization reads the global
   first-half map; it does not block-decompose);
3. **validate** on the NumPy path — tag, state-shape and permutation
   checks plus the eager stuck-switch compile — so a malformed batch
   fails in the caller before anything is sharded;
4. **shard** through :mod:`repro.accel.executor` when
   :func:`~repro.accel.executor.wants_shards` says so; each shard
   re-enters its op's entry point with the concrete engine
   (:func:`run_shard`);
5. otherwise run the **kernel** ``KERNELS[op][engine]``;
6. **record** metrics in :func:`_record`, the only writer of the
   ``accel.{batch,membership,states,setup,two_pass}.*`` instruments.

Metric scope keeps a sharded run's totals equal to the inline run's:
the dispatching call of a sharded run records the ``"call"``
instruments (calls, wall time, batch-size histogram), each shard the
``"work"`` ones for its slice (items, success/failure, per-stage
crosses), and an inline call both (``"full"``).
``accel.fallback.calls`` counts each user-facing call that ran a
pure-Python kernel because NumPy is absent.

A kernel is ``kernel(rows, tally, **opts)``: ``rows`` is the validated
array on the NumPy path and a list otherwise (the raw batch for the
composed engine, whose kernels also take ``parallel``); ``tally`` is a
list to append whole-batch per-stage crossed-switch totals to while
metrics are on, else ``None``.  A new engine is one row per op here
plus its :func:`repro.engines.register` entry; an exec-seam engine
without a kernel for an op fails with
:class:`~repro.errors.InvalidParameterError` naming the op.
"""

from __future__ import annotations

from time import perf_counter as _perf_counter
from typing import Any, Callable, Dict, NamedTuple

from .. import obs as _obs
from ..core.bits import log2_exact
from ..errors import InvalidParameterError
from . import executor as _executor
from ._np import numpy_or_none, resolve_engine
from .batch import (
    _as_states_array,
    _as_tag_array,
    _batch_dims,
    _numpy_in_class_f,
    _numpy_route_with_states,
    _numpy_self_route,
    _order_hint,
    _scalar_in_class_f,
    _scalar_route_with_states,
    _scalar_self_route,
    _stuck_plan,
    batch_in_class_f,
    batch_route_with_states,
    batch_self_route,
)
from .bitslice import (
    bitslice_in_class_f,
    bitslice_route_with_states,
    bitslice_self_route,
    bitslice_two_pass,
)
from .setup import (
    _as_perm_array,
    _numpy_setup_states,
    _numpy_two_pass,
    batch_setup_states,
    batch_two_pass,
    scalar_setup_loop,
    scalar_two_pass_loop,
)

__all__ = ["KERNELS", "OPS", "kernel_for", "run", "run_shard"]

Kernel = Callable[..., Any]


def _tag_rows(np, batch, opts):
    arr = _as_tag_array(np, batch)
    return arr, dict(opts, order=log2_exact(arr.shape[1]))


def _tag_rows_stuck(np, batch, opts):
    arr, kw = _tag_rows(np, batch, opts)
    # compiled (and validated) before any shard is cut
    kw["stuck"] = _stuck_plan(np, kw["order"], kw.pop("stuck_switches"))
    return arr, kw


def _state_rows(np, batch, opts):
    return _as_states_array(np, batch, opts["order"]), opts


def _perm_rows(np, batch, opts):
    return _as_perm_array(np, opts["order"], batch), opts


class Op(NamedTuple):
    """One batch operation's fixed parts.

    Attributes:
        kind: metric family (``accel.<kind>.*``).
        resolve_kind: ``kind=`` for :func:`resolve_engine`.
        entry: the public entry point shards re-enter.
        arg: the entry point's batch parameter name.
        validate: NumPy path ``(np, batch, opts) -> (array, kernel
            options)``.
        rows: result -> its per-instance sequence (batch size, and the
            success mask when ``counts_success``).
        counts_success: record ``accel.<kind>.success`` / ``.failure``.
    """

    kind: str
    resolve_kind: str
    entry: Callable
    arg: str
    validate: Callable
    rows: Callable
    counts_success: bool = False


OPS: Dict[str, Op] = {
    "self_route": Op("batch", "route", batch_self_route, "tags_batch",
                     _tag_rows_stuck, lambda r: r.success_mask, True),
    "in_class_f": Op("membership", "route", batch_in_class_f,
                     "perms_batch", _tag_rows, lambda r: r, True),
    "route_with_states": Op("states", "route", batch_route_with_states,
                            "states_batch", _state_rows,
                            lambda r: r.success_mask),
    "setup_states": Op("setup", "setup", batch_setup_states, "perms",
                       _perm_rows, lambda r: r),
    "two_pass": Op("two_pass", "setup", batch_two_pass, "perms",
                   _perm_rows, lambda r: r[0]),
}


def _scalar_setup(rows, tally, *, order):
    return scalar_setup_loop(order, rows)


def _composed():
    # Imported on first use: the module adds about 1.3 MB of RSS and
    # start-up time to processes that never route at composed orders.
    from . import composed

    return composed


#: ``KERNELS[op][engine]`` — every kernel the dispatcher runs.
#: ``two_pass`` has no composed row: :func:`run` redirects it.
KERNELS: Dict[str, Dict[str, Kernel]] = {
    "self_route": {
        "scalar": _scalar_self_route,
        "numpy": _numpy_self_route,
        "bitslice": lambda rows, tally, **opts: bitslice_self_route(
            rows, _stage_totals=tally, **opts),
        "composed": lambda batch, tally, **opts:
            _composed().composed_self_route(batch, **opts),
    },
    "in_class_f": {
        "scalar": _scalar_in_class_f,
        "numpy": _numpy_in_class_f,
        "bitslice": lambda rows, tally: bitslice_in_class_f(rows),
        "composed": lambda batch, tally, parallel:
            _composed().composed_in_class_f(batch, parallel=parallel),
    },
    "route_with_states": {
        "scalar": _scalar_route_with_states,
        "numpy": _numpy_route_with_states,
        "bitslice": lambda rows, tally, *, order, stage_data:
            bitslice_route_with_states(rows, order,
                                       stage_data=stage_data),
        "composed": lambda batch, tally, *, order, **opts:
            _composed().composed_route_with_states(batch, order, **opts),
    },
    "setup_states": {
        "scalar": _scalar_setup,
        "numpy": _numpy_setup_states,
        "bitslice": _scalar_setup,
        "composed": lambda batch, tally, *, order, parallel:
            _composed().composed_setup_states(order, batch,
                                              parallel=parallel),
    },
    "two_pass": {
        "scalar": lambda rows, tally, *, order: scalar_two_pass_loop(
            order, rows),
        "numpy": _numpy_two_pass,
        "bitslice": lambda rows, tally, *, order: bitslice_two_pass(
            order, rows),
    },
}


def kernel_for(op: str, engine: str) -> Kernel:
    """``KERNELS[op][engine]``, or
    :class:`~repro.errors.InvalidParameterError` naming the op."""
    try:
        return KERNELS[op][engine]
    except KeyError:
        raise InvalidParameterError(
            f"engine {engine!r} has no kernel for batch op {op!r}; "
            f"kernels exist for {', '.join(KERNELS.get(op, ()))}"
        ) from None


def _hints(batch, opts):
    """``(order, batch size)`` hints for auto resolution — no
    validation; ``None`` where unreadable."""
    size, width = _batch_dims(batch)
    return opts.get("order", _order_hint(width)), size


def run(op: str, batch, *, engine=None, parallel=False, **opts):
    """Run batch op ``op`` (an :data:`OPS` key) on ``batch`` with the
    entry point's ``engine=`` / ``parallel=`` and options."""
    spec = OPS[op]
    np = numpy_or_none()
    enabled = _obs.enabled()
    t0 = _perf_counter() if enabled else 0.0
    in_shard = _executor.in_shard()
    order, size = _hints(batch, opts)
    engine = resolve_engine(engine, order=order, batch_size=size,
                            kind=spec.resolve_kind)
    if enabled and not in_shard:
        _obs.inc(f"accel.engine_selected.{engine}")
    if op == "two_pass" and engine == "composed":
        engine = "numpy" if np is not None else "scalar"
    kernel = kernel_for(op, engine)
    tally = [] if enabled else None
    scope = "work" if in_shard else "full"
    if engine == "composed":
        # takes the raw batch and shards its own sub-batches
        result = kernel(batch, tally, parallel=parallel, **opts)
    else:
        if engine == "numpy":
            rows, kw = spec.validate(np, batch, opts)
        else:
            rows = batch if isinstance(batch, list) else list(batch)
            kw = opts
        if _executor.wants_shards(parallel, len(rows)):
            result = _executor.dispatch(
                op, rows, engine=engine, opts=opts, parallel=parallel,
                order_hint=kw.get("order"),
            )
            scope = "call"
        else:
            result = kernel(rows, tally, **kw)
        if enabled and np is None and scope != "work":
            _obs.inc("accel.fallback.calls")
    if enabled:
        _record(spec, result, _perf_counter() - t0, scope, tally)
    return result


def run_shard(op: str, payload: tuple):
    """Executor task: run one ``(rows, engine, opts)`` shard through
    its op's entry point (so the shard's trace carries the entry
    point's span) with the dispatching call's concrete engine."""
    rows, engine, opts = payload
    spec = OPS[op]
    return spec.entry(**{spec.arg: rows}, engine=engine, **opts)


def _record(spec: Op, result, seconds: float, scope: str, tally) -> None:
    """Feed one call into the registry (metrics are enabled), scoped
    ``"call"`` / ``"work"`` / ``"full"`` as the module docstring
    describes."""
    kind = spec.kind
    rows = spec.rows(result)
    size = len(rows)
    if scope != "work":
        _obs.inc(f"accel.{kind}.calls")
        _obs.observe(f"accel.{kind}.seconds", seconds)
        _obs.observe("accel.batch.size", size, bounds=_obs.POW2_BOUNDS)
    if scope == "call":
        return
    _obs.inc(f"accel.{kind}.items", size)
    if spec.counts_success:
        n_success = (int(rows.sum()) if hasattr(rows, "sum")
                     else sum(bool(ok) for ok in rows))
        _obs.inc(f"accel.{kind}.success", n_success)
        _obs.inc(f"accel.{kind}.failure", size - n_success)
    # NumPy tallies are (B,) arrays per stage; bitslice hands ints.
    for stage, crosses in enumerate(tally or ()):
        _obs.inc(f"accel.{kind}.stage_cross.{stage}",
                 int(crosses.sum() if hasattr(crosses, "sum")
                     else crosses))
