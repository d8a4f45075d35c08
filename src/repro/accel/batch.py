"""Vectorized batch-routing engine.

The analysis layer routes *millions* of tag vectors: cardinality
sweeps, Monte-Carlo F(n) density estimates, membership sampling, fault
sweeps.  One at a time through the scalar
:func:`~repro.core.fastpath.fast_self_route` loop that is ``O(N log N)``
Python bytecode per vector; here the whole batch advances through each
of the ``2n - 1`` stages *simultaneously* as a ``(B, N)`` integer array:

- a stage's switch decisions for every instance at once are one bitwise
  expression on the even columns (the self-routing rule reads bit
  ``min(s, 2n-2-s)`` of the upper input's tag);
- the conditional pair-swap is one ``where`` over the ``(B, N/2, 2)``
  pair view;
- a link crossing is one gather through the precompiled inverse-link
  index row of the :class:`~repro.accel.plans.StagePlan`.

Two implementation tricks keep the inner loop to a handful of NumPy
kernels per stage (measured ~40x over the scalar loop at order 8):

- **source packing** — instead of propagating a ``(tag, source)`` array
  pair, each value carries its source in the high bits
  (``source << order | tag``); the control rule only reads tag bits
  ``< order``, so one array routes both and the pair is unpacked once
  at the end;
- **arithmetic pair-swap** — with the batch laid out ``(N, B)``
  (terminals × instances), a stage's conditional exchange is
  ``diff = (odd - even) * s; even += diff; odd -= diff`` on the
  even/odd row views, avoiding ``where`` temporaries, and a link
  crossing is a contiguous row gather through the plan's inverse-link
  index.

Three bulk primitives cover the analysis workloads:

- :func:`batch_self_route` — a
  :class:`~repro.core.routing.BatchRouteResult` (success mask +
  delivered mappings, optional per-stage switch-flip data);
- :func:`batch_route_with_states` — the realized permutations under
  external per-instance switch settings, same result shape;
- :func:`batch_in_class_f` — the F(n) membership mask (success only,
  no source tracking: the cheapest of the three).

Every primitive degrades to the scalar fast path when NumPy (the
``accel`` extra) is absent, carrying plain lists in the same result
types — same values, element for element.  Parity with both the scalar
fast path and the structural :class:`~repro.core.benes.BenesNetwork`
is pinned by ``tests/test_accel.py`` (exhaustively for small orders,
randomized via hypothesis for larger).

Each entry point is one call to :func:`repro.accel.dispatch.run`,
which resolves the engine, validates, shards and records the
``accel.*`` metrics; this module holds the NumPy and scalar-loop
kernels it dispatches to.
"""

from __future__ import annotations

from ..core.fastpath import (
    fast_route_with_states,
    fast_self_route,
    fast_self_route_states,
)
from ..core.routing import BatchRouteResult
from ..core.switch import validate_stuck_switches
from ..errors import InvalidParameterError, SizeMismatchError
from ..obs.spans import spanned as _spanned
from ._np import numpy_or_none
from .plans import stage_plan

__all__ = [
    "batch_self_route",
    "batch_route_with_states",
    "batch_in_class_f",
]


def _batch_dims(batch):
    """Cheap ``(B, N)`` hint for engine resolution — no validation, no
    materialization; ``(None, None)`` when the shape is unreadable
    (the selected engine's own validation then reports properly)."""
    shape = getattr(batch, "shape", None)
    if shape is not None and len(shape) == 2:
        return int(shape[0]), int(shape[1])
    try:
        b = len(batch)
        n = len(batch[0]) if b else 0
    except (TypeError, IndexError, KeyError):
        return None, None
    return b, n


def _order_hint(width):
    """``log2(width)`` when it is a positive power of two, else None."""
    if width and width > 0 and (width & (width - 1)) == 0:
        return width.bit_length() - 1
    return None


def _as_tag_array(np, tags_batch):
    """Validate a batch of tag vectors as a ``(B, N)`` int64 array."""
    arr = np.asarray(tags_batch, dtype=np.int64)
    if arr.ndim != 2:
        raise SizeMismatchError(
            f"expected a (B, N) batch of tag vectors, got shape "
            f"{arr.shape}"
        )
    n = arr.shape[1]
    if arr.size and ((arr < 0) | (arr >= n)).any():
        raise InvalidParameterError(
            f"destination tags must lie in [0, {n}) — out-of-range "
            "values cannot address any output"
        )
    return arr


def _as_states_array(np, states_batch, order: int):
    """Validate a batch of external switch states as a
    ``(B, 2*order - 1, N/2)`` int64 array."""
    plan = stage_plan(order)  # rejects an invalid order first
    states = np.asarray(states_batch, dtype=np.int64)
    expected = (plan.n_stages, plan.n_terminals // 2)
    if states.ndim != 3 or states.shape[1:] != expected:
        raise SizeMismatchError(
            f"expected a (B, {expected[0]}, {expected[1]}) batch of "
            f"switch states for order {order}, got shape {states.shape}"
        )
    return states


def _reject_scalar_options(entry: str, options: dict) -> None:
    """Engine options this batch entry point does not implement must
    fail loudly: the scalar path honors them, so accepting-and-ignoring
    would make the engines silently diverge — exactly the bug class
    :mod:`repro.verify` exists to catch.  Raises
    :class:`~repro.errors.InvalidParameterError` (never a bare
    ``TypeError``) naming every offending option."""
    if options:
        names = ", ".join(repr(name) for name in sorted(options))
        raise InvalidParameterError(
            f"{entry}() does not support engine option(s) {names}; "
            "the scalar path (BenesNetwork.route / fast_self_route) "
            "honors them, and silently ignoring them here would let "
            "the engines diverge — route through the scalar API or "
            "drop the option"
        )


def _stuck_plan(np, order: int, stuck_switches):
    """Validate a ``{(stage, switch): state}`` fault map and compile it
    into per-stage ``(switch_indices, states)`` index arrays — the
    vectorized stuck-mask applied on top of each stage's control
    decision (one fancy assignment per faulted stage)."""
    if not stuck_switches:
        return None
    n_stages = 2 * order - 1
    half = (1 << order) // 2
    validate_stuck_switches(stuck_switches, n_stages, half)
    grouped = {}
    for (stage, index), state in stuck_switches.items():
        grouped.setdefault(stage, ([], []))
        grouped[stage][0].append(index)
        grouped[stage][1].append(1 if state else 0)
    return {
        stage: (np.asarray(idx, dtype=np.intp),
                np.asarray(vals, dtype=np.int64))
        for stage, (idx, vals) in grouped.items()
    }


def _working_block(np, arr, n_value_bits):
    """Transpose ``(B, N)`` into the ``(N, B)`` working layout with the
    narrowest safe dtype for ``n_value_bits`` bits per element (int32
    covers packed source+tag routing up to order 15).

    ``copy=True``: the routing kernel mutates the block in place, and
    the transpose of a caller-owned F-contiguous array would alias it.
    """
    dtype = np.int32 if n_value_bits <= 31 else np.int64
    return np.array(arr.T, dtype=dtype, order="C", copy=True)


def _swap_stage(rows, cond):
    """In place, exchange adjacent row pairs of the ``(N, B)`` array
    where ``cond`` (``(N/2, B)``, values 0/1) is set — branch-free:
    ``diff = (odd - even) * cond`` then ``even += diff; odd -= diff``."""
    even = rows[0::2, :]
    odd = rows[1::2, :]
    diff = (odd - even) * cond
    even += diff
    odd -= diff


def _route_array(np, rows, order, stage_cross=None, omega_mode=False,
                 stuck=None, stage_states=None):
    """Push an ``(N, B)`` value block through all stages in place
    (modulo link gathers); the self-routing control reads tag bits of
    ``rows``, which must occupy the low ``order`` bits of each value.

    When ``stage_cross`` is a list, the per-instance crossed-switch
    count of every stage (a ``(B,)`` array) is appended to it.  With
    ``omega_mode`` the first ``order - 1`` columns are forced straight
    (the Section II omega-bit extension).  ``stuck`` is a compiled
    fault plan (:func:`_stuck_plan`): in each faulted stage the stuck
    switches' decisions are overwritten with their stuck states —
    overriding the omega forcing too, exactly like the structural
    network.  When ``stage_states`` is a list, the full ``(N/2, B)``
    0/1 decision array of every stage is appended to it.
    """
    plan = stage_plan(order)
    inv_links = plan.np_inv_links()
    last_stage = plan.n_stages - 1
    omega_stages = order - 1 if omega_mode else 0
    half = rows.shape[0] // 2
    for stage in range(plan.n_stages):
        stuck_here = stuck.get(stage) if stuck else None
        if stage < omega_stages and stuck_here is None:
            if stage_cross is not None:
                stage_cross.append(
                    np.zeros(rows.shape[1], dtype=rows.dtype)
                )
            if stage_states is not None:
                stage_states.append(
                    np.zeros((half, rows.shape[1]), dtype=np.int8)
                )
            rows = rows[inv_links[stage]]
            continue
        if stage < omega_stages:
            cond = np.zeros((half, rows.shape[1]), dtype=rows.dtype)
        else:
            ctrl = plan.ctrl_bits[stage]
            cond = (rows[0::2, :] >> ctrl) & 1
        if stuck_here is not None:
            indices, states = stuck_here
            cond[indices, :] = states.astype(rows.dtype)[:, None]
        if stage_cross is not None:
            stage_cross.append(cond.sum(axis=0))
        if stage_states is not None:
            stage_states.append(cond.astype(np.int8))
        _swap_stage(rows, cond)
        if stage < last_stage:
            rows = rows[inv_links[stage]]
    return rows


# ----------------------------------------------------------------------
# Kernels — one per (op, engine); repro.accel.dispatch.KERNELS maps them.
# Each takes the rows (the validated array on the NumPy path), a
# ``tally`` list to append whole-batch per-stage crossed-switch totals
# to (metrics on) or None, and the op's options.
# ----------------------------------------------------------------------

def _numpy_self_route(arr, tally, *, order, stuck, omega_mode,
                      stage_data, stage_states):
    np = numpy_or_none()
    n = arr.shape[1]
    # Pack each value's source row into its high bits; the control rule
    # only reads tag bits < order, so one array routes both.
    rows = _working_block(np, arr, n_value_bits=2 * order)
    rows |= np.arange(n, dtype=rows.dtype)[:, None] << order
    stage_cross = tally if tally is not None \
        else ([] if stage_data else None)
    states_acc = [] if stage_states else None
    rows = _route_array(np, rows, order, stage_cross=stage_cross,
                        omega_mode=omega_mode, stuck=stuck,
                        stage_states=states_acc)
    tags = rows & (n - 1)
    success = (tags == np.arange(n, dtype=rows.dtype)[:, None]
               ).all(axis=0)
    return BatchRouteResult(
        success_mask=success,
        mappings=(rows >> order).T.astype(np.int64),
        per_stage=(np.array(stage_cross) if stage_data else None),
        stage_states=(np.transpose(np.array(states_acc), (2, 0, 1))
                      if stage_states else None),
    )


def _scalar_self_route(rows, tally, *, omega_mode, stage_data,
                       stage_states, stuck_switches):
    """The per-row fast-path loop (``per_stage`` stays ``None``)."""
    successes, delivered = [], []
    states_acc = [] if stage_states else None
    for tags in rows:
        if stage_states:
            ok, dst, st = fast_self_route_states(
                tags, omega_mode=omega_mode,
                stuck_switches=stuck_switches,
            )
            states_acc.append(st)
        else:
            ok, dst = fast_self_route(
                tags, omega_mode=omega_mode,
                stuck_switches=stuck_switches,
            )
        successes.append(ok)
        delivered.append(dst)
    return BatchRouteResult(success_mask=successes, mappings=delivered,
                            stage_states=states_acc)


def _numpy_in_class_f(arr, tally, *, order):
    np = numpy_or_none()
    rows = _working_block(np, arr, n_value_bits=order)
    rows = _route_array(np, rows, order)
    return (rows == np.arange(arr.shape[1], dtype=rows.dtype)[:, None]
            ).all(axis=0)


def _scalar_in_class_f(rows, tally):
    # Scalar Theorem 1 recursion early-exits on the first conflict, so
    # it beats a full scalar routing pass here.
    from ..core.membership import in_class_f

    return [in_class_f(perm) for perm in rows]


def _numpy_route_with_states(states, tally, *, order, stage_data):
    np = numpy_or_none()
    plan = stage_plan(order)
    n = plan.n_terminals
    batch = states.shape[0]
    inv_links = plan.np_inv_links()
    dtype = np.int32 if plan.order <= 31 else np.int64
    rows = np.repeat(np.arange(n, dtype=dtype)[:, None], batch, axis=1)
    last_stage = plan.n_stages - 1
    for stage in range(plan.n_stages):
        cond = (states[:, stage, :].T != 0).astype(dtype)
        _swap_stage(rows, cond)
        if stage < last_stage:
            rows = rows[inv_links[stage]]
    # rows[output, b] = source  ->  dest[b, source] = output
    rows = rows.T.astype(np.int64)
    dest = np.empty_like(rows)
    outputs = np.broadcast_to(np.arange(n, dtype=np.int64), (batch, n))
    np.put_along_axis(dest, rows, outputs, axis=1)
    return BatchRouteResult(
        success_mask=np.ones(batch, dtype=bool),
        mappings=dest,
        per_stage=((states != 0).sum(axis=2).T if stage_data else None),
    )


def _scalar_route_with_states(rows, tally, *, order, stage_data):
    mappings = [fast_route_with_states(states, order) for states in rows]
    return BatchRouteResult(success_mask=[True] * len(mappings),
                            mappings=mappings)


@_spanned("batch.self_route")
def batch_self_route(tags_batch, *, omega_mode=False, stage_data=False,
                     stage_states=False, stuck_switches=None,
                     parallel=False, engine=None, **scalar_options):
    """Self-route a batch of tag vectors; the vectorized equivalent of
    ``[fast_self_route(t) for t in tags_batch]``.

    Args:
        tags_batch: ``(B, N)`` array-like of destination tags (each row
            an arbitrary tag vector — duplicates allowed, exactly as in
            the scalar fast path).
        omega_mode: set the omega bit on every signal, forcing the
            first ``n - 1`` columns straight (realizes ``Omega(n)``,
            mirroring ``BenesNetwork.route(omega_mode=True)``).
        stage_data: also collect per-stage switch-flip counts into the
            result's ``per_stage`` field (NumPy path only; the fallback
            path leaves it ``None``).
        stage_states: also record every stage's full 0/1 switch-state
            array into the result's ``stage_states`` field
            (``(B, 2n-1, N/2)`` int8, nested tuples on the fallback
            path) — value-identical to the scalar network's per-stage
            trace states; the evidence differential verification
            compares byte-for-byte.
        stuck_switches: fault injection — the same ``{(stage, switch):
            state}`` map ``BenesNetwork.route`` takes, applied to
            *every* instance of the batch (one fault configuration,
            many workloads: the shape of a fault campaign).  Stuck
            states override both the tag rule and the omega forcing.
        parallel: shard the batch across worker processes above the
            executor threshold (see :mod:`repro.accel.executor`);
            ``True`` resolves to ``os.cpu_count()`` workers, an int is
            an explicit worker count.  Results are identical for any
            value.
        engine: ``"scalar"``, ``"numpy"``, ``"bitslice"`` or ``"auto"``
            (default: auto, overridable via ``BENES_ENGINE`` — see
            :func:`repro.accel.resolve_engine`).  Values are identical
            for every engine; result *containers* follow the engine
            (arrays for numpy, lists/tuples otherwise).

    Any other keyword — in particular scalar-route options such as
    ``control``, ``trace``, ``payloads`` or ``require_success`` that
    this engine does not implement — raises
    :class:`~repro.errors.InvalidParameterError` rather than being
    silently ignored.

    Returns:
        a :class:`~repro.core.routing.BatchRouteResult` whose
        ``success_mask`` is a ``(B,)`` bool array and whose
        ``mappings[b][o]`` is the input whose signal reached output
        ``o`` of instance ``b`` (lists of identical values on the
        no-NumPy fallback path).
    """
    _reject_scalar_options("batch_self_route", scalar_options)
    from .dispatch import run  # dispatch imports this module

    return run("self_route", tags_batch, engine=engine, parallel=parallel,
               omega_mode=omega_mode, stage_data=stage_data,
               stage_states=stage_states, stuck_switches=stuck_switches)


@_spanned("batch.membership")
def batch_in_class_f(perms_batch, *, parallel=False, engine=None,
                     **scalar_options):
    """F(n) membership mask for a batch of permutations: instance ``b``
    is in ``F(n)`` iff the self-routing network delivers every one of
    its tags (Theorem 1 ≡ routing success; the equivalence is pinned in
    ``tests/test_membership.py``).

    Cheaper than :func:`batch_self_route`: no source tracking.  Returns
    a ``(B,)`` bool array, or a list of bools on the pure-Python
    engines.  ``parallel=`` shards large batches across worker
    processes with identical results; ``engine=`` selects the
    execution engine exactly as in :func:`batch_self_route`.
    Unsupported engine options (``stuck_switches``
    and friends — fault campaigns read :func:`batch_self_route`'s
    success mask instead) raise
    :class:`~repro.errors.InvalidParameterError`.
    """
    _reject_scalar_options("batch_in_class_f", scalar_options)
    from .dispatch import run  # dispatch imports this module

    return run("in_class_f", perms_batch, engine=engine, parallel=parallel)


@_spanned("batch.route_with_states")
def batch_route_with_states(states_batch, order: int, *,
                            stage_data=False, parallel=False,
                            engine=None, **scalar_options):
    """Realized permutations of ``B(order)`` under a batch of external
    state assignments; the vectorized equivalent of
    ``[fast_route_with_states(s, order) for s in states_batch]``.

    Args:
        states_batch: ``(B, 2*order - 1, N/2)`` array-like of 0/1
            switch states.
        order: the network order ``n``.
        stage_data: also expose the per-stage crossed-switch counts in
            the result's ``per_stage`` field (numpy and bitslice
            engines).
        parallel: shard the batch across worker processes above the
            executor threshold; results identical for any value.
        engine: execution engine, exactly as in
            :func:`batch_self_route`.

    Returns:
        a :class:`~repro.core.routing.BatchRouteResult`; row ``b`` of
        ``mappings`` maps input -> output for instance ``b``.  External
        states always deliver *some* permutation, so ``success_mask``
        is all-True — mirroring
        :meth:`~repro.core.benes.BenesNetwork.route_with_states`, where
        what matters is the realized mapping.  Unsupported engine
        options (``payloads``, ``trace``, ...) raise
        :class:`~repro.errors.InvalidParameterError`.
    """
    _reject_scalar_options("batch_route_with_states", scalar_options)
    from .dispatch import run  # dispatch imports this module

    return run("route_with_states", states_batch, engine=engine,
               parallel=parallel, order=order, stage_data=stage_data)
