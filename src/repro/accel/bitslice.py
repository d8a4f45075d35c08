"""Bit-sliced big-int routing engine: lane-parallel batches without
NumPy.

The paper's whole control story is *bitwise* — bit ``min(s, 2n-2-s)``
of the upper input's destination tag sets the switch — which makes a
batch of routing instances a natural fit for **SIMD-within-a-bigint**
evaluation.  This module packs the batch dimension into Python
arbitrary-precision ints: each network row is ONE int spanning every
batch lane, with lane ``b`` occupying a ``w``-bit field at bit offset
``b * w`` (``w`` the smallest of 8/16/32/64 bits that holds a routed
value; byte alignment keeps the pack/unpack boundary on
:mod:`struct`).  One stage of the whole batch is then a handful of
bitwise expressions per switch, each operating on all ``B`` lanes at
once:

- the control decision of switch ``i`` is
  ``cond = (row[2i] >> ctrl) & BASE`` where ``BASE`` has one bit set at
  every field base — a 0/1 verdict per lane in one shift-and-mask;
- the conditional pair exchange is branch-free big-int XOR swapping:
  ``mask = (cond << w) - cond`` smears each verdict over its whole
  field (the per-field values ``(2^w - 1) * cond_bit`` occupy disjoint
  bit ranges, so the single subtraction is carry-free), then
  ``diff = (row[2i] ^ row[2i+1]) & mask`` flips exactly the crossing
  lanes of both rows;
- a link crossing is a plain list re-index through the stage plan's
  inverse links — ``N`` pointer moves regardless of batch width;
- stuck-at faults force ``cond`` to ``BASE`` or ``0`` (all lanes share
  one fault map, exactly like the vectorized engine), and omega mode
  forces the first ``n - 1`` columns straight.

The ``(B, N)`` boundary transposition runs at C speed: ``zip(*rows)``
turns lane-major input into terminal-major columns and one
``struct.Struct("<{B}{code}").pack`` per terminal produces the little-
endian byte image of its packed int (``int.from_bytes``/``to_bytes``
complete the round trip).  Self-routing additionally packs each lane's
source row into the high bits of its field (``source << order | tag``,
the same trick as :mod:`repro.accel.batch`), so success checks and
delivered mappings decode from the final rows without a second routing
state.

What is and is not bit-sliced:

- **self-routing / membership / external-state routing** — fully
  bit-sliced stage loops (:func:`bitslice_self_route`,
  :func:`bitslice_in_class_f`, :func:`bitslice_route_with_states`);
- **two-pass factorization** (:func:`bitslice_two_pass`) — the
  first-half map is pushed through the first ``n`` columns with the
  bit-sliced kernel, but the Waksman *side assignment* itself
  (``batch_setup_states(engine="bitslice")`` too) runs the scalar
  looping algorithm per instance: cycle chasing is data-dependent pointer
  traversal with no lane-parallel formulation in this representation,
  and pretending otherwise would just hide a scalar loop behind a
  bit-sliced name.

These kernels are the ``engine="bitslice"`` leg behind the
:mod:`repro.accel._np` seam; callers normally reach them through
:func:`repro.accel.batch_self_route` and friends, which add metrics,
sharding, and engine resolution.  Results carry the exact fallback
shapes (lists of bools, tuples of ints, nested tuple states), so the
differential verifier compares them byte-for-byte against the scalar
oracle.  Per-(order, lanes, width) packing constants live in
:class:`BitslicePlan` objects cached in the bounded LRU exposed through
:func:`repro.accel.cache_stats` as the ``bitslice`` section.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.bits import log2_exact, popcount
from ..core.routing import BatchRouteResult
from ..core.switch import validate_stuck_switches
from ..errors import InvalidParameterError, SizeMismatchError
from .plans import bitslice_plan_cache, stage_plan

__all__ = [
    "BitslicePlan",
    "bitslice_plan",
    "bitslice_self_route",
    "bitslice_in_class_f",
    "bitslice_route_with_states",
    "bitslice_two_pass",
]

#: struct format code per field width (bits) — all unsigned, little
#: endian, so field ``b`` of a packed int is bytes ``[b*w/8, (b+1)*w/8)``
#: of its ``to_bytes(..., "little")`` image.
_FIELD_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}


class BitslicePlan:
    """Packing constants for one (order, lanes, value-width) shape.

    Attributes:
        order: the paper's ``n``.
        n_terminals: ``N = 2^n`` rows.
        lanes: batch width ``B`` (fields per packed int).
        width: field width ``w`` in bits (8/16/32/64 — the smallest
            byte-aligned width holding ``value_bits``).
        base: the lane-base mask — one bit set at every field base
            (``sum(1 << (b*w) for b in range(B))``); ANDing a shifted
            row against it extracts a 0/1 verdict per lane.
        tag_mask: ``base * (N - 1)`` — the tag bits of every field.
        range_mask: high bits of every field beyond the tag range;
            a packed input row intersecting it carries an out-of-range
            tag.
        packer: the ``struct.Struct`` transposing one terminal's ``B``
            lane values to/from the packed int's byte image.
        nbytes: byte length of one packed row (``B * w / 8``).
    """

    __slots__ = ("order", "n_terminals", "lanes", "width", "base",
                 "tag_mask", "range_mask", "packer", "nbytes")

    def __init__(self, order: int, lanes: int, value_bits: int):
        for width, code in sorted(_FIELD_CODES.items()):
            if value_bits <= width:
                break
        else:
            raise InvalidParameterError(
                f"bitslice engine fields cap at 64 bits; order {order} "
                f"needs {value_bits}-bit values"
            )
        self.order = order
        self.n_terminals = 1 << order
        self.lanes = lanes
        self.width = width
        self.base = ((1 << (lanes * width)) - 1) // ((1 << width) - 1) \
            if lanes else 0
        self.tag_mask = self.base * (self.n_terminals - 1)
        self.range_mask = self.base * (
            ((1 << width) - 1) ^ (self.n_terminals - 1)
        )
        self.packer = struct.Struct(f"<{lanes}{code}")
        self.nbytes = lanes * (width // 8)


def bitslice_plan(order: int, lanes: int, value_bits: int
                  ) -> BitslicePlan:
    """The (cached) :class:`BitslicePlan` for one packing shape."""
    return bitslice_plan_cache().get_or_build(
        (order, lanes, value_bits),
        lambda: BitslicePlan(order, lanes, value_bits),
    )


def _as_row_lists(batch, kind: str) -> List[Sequence[int]]:
    """Materialize a lane-major batch and validate it is rectangular
    (``zip(*rows)`` would silently truncate a ragged batch)."""
    rows = batch if isinstance(batch, list) else list(batch)
    if rows:
        n = len(rows[0])
        for row in rows:
            if len(row) != n:
                raise SizeMismatchError(
                    f"expected a rectangular (B, N) batch of {kind}, "
                    f"got rows of length {n} and {len(row)}"
                )
    return rows


def _pack_columns(plan: BitslicePlan, columns) -> List[int]:
    """One packed int per terminal from terminal-major lane columns."""
    pack = plan.packer.pack
    from_bytes = int.from_bytes
    try:
        return [from_bytes(pack(*column), "little") for column in columns]
    except struct.error:
        raise InvalidParameterError(
            f"destination tags must lie in [0, {plan.n_terminals}) — "
            "out-of-range values cannot address any output"
        ) from None


def _pack_tags(plan: BitslicePlan, rows) -> List[int]:
    """Pack a validated rectangular ``(B, N)`` tag batch into ``N``
    lane-packed ints, rejecting tags outside ``[0, N)`` exactly like
    the vectorized engine's input validation."""
    packed = _pack_columns(plan, zip(*rows))
    range_mask = plan.range_mask
    for row in packed:
        if row & range_mask:
            raise InvalidParameterError(
                f"destination tags must lie in [0, {plan.n_terminals})"
                " — out-of-range values cannot address any output"
            )
    return packed


def _unpack_row(plan: BitslicePlan, row: int) -> tuple:
    """One packed int back to its per-lane value tuple."""
    return plan.packer.unpack(row.to_bytes(plan.nbytes, "little"))


def _stuck_by_stage(order: int, stuck_switches
                    ) -> Optional[Dict[int, Dict[int, int]]]:
    """Validate a ``{(stage, switch): state}`` fault map and regroup it
    per stage (same normalization as the scalar fast path)."""
    if not stuck_switches:
        return None
    n_stages = 2 * order - 1
    half = (1 << order) // 2
    validate_stuck_switches(stuck_switches, n_stages, half)
    by_stage: Dict[int, Dict[int, int]] = {}
    for (stage, index), state in stuck_switches.items():
        by_stage.setdefault(stage, {})[index] = 1 if state else 0
    return by_stage


def _route_packed(plan: BitslicePlan, rows: List[int], *,
                  omega_stages: int = 0,
                  stuck: Optional[Dict[int, Dict[int, int]]] = None,
                  conds_out: Optional[List[List[int]]] = None
                  ) -> List[int]:
    """Push ``N`` packed rows through every switch column of
    ``B(order)``, reading the self-routing control from the tag bits
    (the low ``order`` bits of each field).  Returns the final rows.

    When ``conds_out`` is a list, the per-stage packed decision ints
    (one 0/1-per-lane int per switch) are appended to it — the raw
    material for stage states, per-stage cross counts, and metrics.
    """
    splan = stage_plan(plan.order)
    base = plan.base
    w = plan.width
    ctrl_bits = splan.ctrl_bits
    inv_links = splan.inv_links
    last_stage = splan.n_stages - 1
    half = len(rows) // 2
    for stage in range(splan.n_stages):
        stuck_here = stuck.get(stage) if stuck else None
        forced = stage < omega_stages
        ctrl = ctrl_bits[stage]
        conds = [] if conds_out is not None else None
        if forced and stuck_here is None and conds is None:
            pass  # every switch straight, nothing to record
        else:
            for i in range(half):
                even = rows[2 * i]
                if stuck_here is not None and i in stuck_here:
                    # stuck control overrides tag rule AND omega forcing
                    cond = base if stuck_here[i] else 0
                elif forced:
                    cond = 0
                else:
                    cond = (even >> ctrl) & base
                if cond:
                    odd = rows[2 * i + 1]
                    diff = (even ^ odd) & ((cond << w) - cond)
                    rows[2 * i] = even ^ diff
                    rows[2 * i + 1] = odd ^ diff
                if conds is not None:
                    conds.append(cond)
        if conds_out is not None:
            conds_out.append(conds if conds is not None
                             else [0] * half)
        if stage < last_stage:
            link = inv_links[stage]
            rows = [rows[j] for j in link]
    return rows


def _success_list(plan: BitslicePlan, rows: List[int]) -> List[bool]:
    """Per-lane routing verdicts: lane ``b`` succeeded iff every
    terminal's delivered tag equals its row index.  Mismatched bits are
    OR-accumulated into one ``bad`` int and decoded once."""
    base = plan.base
    tag_mask = plan.tag_mask
    bad = 0
    for r, row in enumerate(rows):
        bad |= (row & tag_mask) ^ (base * r)
    return [field == 0 for field in _unpack_row(plan, bad)]


def _decode_states(plan: BitslicePlan,
                   conds_out: List[List[int]]) -> List[tuple]:
    """Packed per-stage decision ints -> per-instance nested state
    tuples, value-identical to ``fast_self_route_states``."""
    unpack = plan.packer.unpack
    nbytes = plan.nbytes
    per_stage_lanes = [
        tuple(zip(*(unpack(cond.to_bytes(nbytes, "little"))
                    for cond in conds)))
        for conds in conds_out
    ]
    return [
        tuple(per_stage_lanes[stage][b]
              for stage in range(len(per_stage_lanes)))
        for b in range(plan.lanes)
    ]


def stage_cross_totals(conds_out: List[List[int]]) -> List[int]:
    """Whole-batch crossed-switch count per stage (each decision int
    carries at most one bit per lane, so a popcount per switch sums
    them)."""
    return [sum(popcount(cond) for cond in conds)
            for conds in conds_out]


def _stage_cross_lanes(plan: BitslicePlan,
                       conds_out: List[List[int]]) -> List[list]:
    """Per-lane crossed-switch count per stage: summing a stage's
    decision ints accumulates lane counts in the fields (no carries —
    ``N/2`` fits any field), decoded with one unpack per stage."""
    per_stage = []
    for conds in conds_out:
        acc = 0
        for cond in conds:
            acc += cond
        per_stage.append(list(_unpack_row(plan, acc)))
    return per_stage


def bitslice_self_route(tags_batch, *, omega_mode: bool = False,
                        stage_data: bool = False,
                        stage_states: bool = False,
                        stuck_switches: Optional[dict] = None,
                        _stage_totals: Optional[list] = None
                        ) -> BatchRouteResult:
    """Self-route a ``(B, N)`` batch of tag vectors lane-parallel;
    bit-sliced equivalent of ``[fast_self_route(t) for t in batch]``
    with the exact no-NumPy result shapes (success as a list of bools,
    mappings as tuples, states as nested tuples).

    ``_stage_totals`` is the metrics tap used by
    :func:`repro.accel.batch_self_route`: when a list is passed, the
    whole-batch crossed-switch total of every stage is appended to it.
    """
    rows_in = _as_row_lists(tags_batch, "tag vectors")
    lanes = len(rows_in)
    if lanes == 0:
        return BatchRouteResult(
            success_mask=[], mappings=[],
            per_stage=([] if stage_data else None),
            stage_states=([] if stage_states else None),
        )
    n = len(rows_in[0])
    order = log2_exact(n)
    stuck = _stuck_by_stage(order, stuck_switches)
    plan = bitslice_plan(order, lanes, 2 * order)
    rows = _pack_tags(plan, rows_in)
    # Source row in the high bits of every field: the control rule only
    # reads tag bits < order, so one packed row routes both.
    base = plan.base
    for r in range(n):
        rows[r] |= base * (r << order)
    want_conds = stage_data or stage_states or _stage_totals is not None
    conds_out: Optional[List[List[int]]] = [] if want_conds else None
    rows = _route_packed(
        plan, rows,
        omega_stages=(order - 1 if omega_mode else 0),
        stuck=stuck, conds_out=conds_out,
    )
    if _stage_totals is not None:
        _stage_totals.extend(stage_cross_totals(conds_out))
    success = _success_list(plan, rows)
    # Field f's source bits land on its own tag range after the shift
    # (w >= 2*order keeps neighbours' bits above the mask).
    sources = [_unpack_row(plan, (row >> order) & plan.tag_mask)
               for row in rows]
    mappings = [tuple(column) for column in zip(*sources)]
    return BatchRouteResult(
        success_mask=success,
        mappings=mappings,
        per_stage=(_stage_cross_lanes(plan, conds_out)
                   if stage_data else None),
        stage_states=(_decode_states(plan, conds_out)
                      if stage_states else None),
    )


def bitslice_in_class_f(perms_batch,
                        _stage_totals: Optional[list] = None
                        ) -> List[bool]:
    """F(n)-membership verdicts for a ``(B, N)`` batch: membership ==
    self-routing success (Theorem 1), evaluated lane-parallel without
    source tracking — the cheapest bit-sliced kernel."""
    rows_in = _as_row_lists(perms_batch, "permutations")
    lanes = len(rows_in)
    if lanes == 0:
        return []
    n = len(rows_in[0])
    order = log2_exact(n)
    plan = bitslice_plan(order, lanes, order)
    rows = _route_packed(plan, _pack_tags(plan, rows_in))
    return _success_list(plan, rows)


def _pack_state_conds(plan: BitslicePlan, states_batch,
                      n_stages: int) -> List[List[int]]:
    """Per-stage packed decision ints from a ``(B, 2n-1, N/2)``
    external state batch (any truthy value counts as crossed, like the
    vectorized engine's ``!= 0``)."""
    conds_out = []
    for stage in range(n_stages):
        columns = zip(*(instance[stage] for instance in states_batch))
        conds_out.append(_pack_columns(
            plan, ([1 if v else 0 for v in col] for col in columns)
        ))
    return conds_out


def _validate_states_batch(states_batch, order: int) -> List:
    """Shape-check an external state batch (mirrors the vectorized
    engine's ``(B, 2n-1, N/2)`` validation)."""
    rows_in = states_batch if isinstance(states_batch, list) \
        else list(states_batch)
    n_stages = 2 * order - 1
    half = (1 << order) // 2
    for instance in rows_in:
        if len(instance) != n_stages or \
                any(len(column) != half for column in instance):
            raise SizeMismatchError(
                f"expected a (B, {n_stages}, {half}) batch of switch "
                f"states for order {order}"
            )
    return rows_in


def bitslice_route_with_states(states_batch, order: int, *,
                               stage_data: bool = False
                               ) -> BatchRouteResult:
    """Realized permutations of ``B(order)`` under a batch of external
    state assignments, lane-parallel: identity rows are pushed through
    every column with the packed decisions of each instance driving the
    XOR swaps.  Mirrors ``[fast_route_with_states(s, order) for s in
    batch]`` — mappings are input -> output, success all-True."""
    rows_in = _validate_states_batch(states_batch, order)
    lanes = len(rows_in)
    if lanes == 0:
        return BatchRouteResult(success_mask=[], mappings=[])
    plan = bitslice_plan(order, lanes, order)
    splan = stage_plan(order)
    conds_by_stage = _pack_state_conds(plan, rows_in, splan.n_stages)
    base = plan.base
    w = plan.width
    n = plan.n_terminals
    rows = [base * r for r in range(n)]  # identity in every lane
    inv_links = splan.inv_links
    last_stage = splan.n_stages - 1
    for stage in range(splan.n_stages):
        conds = conds_by_stage[stage]
        for i, cond in enumerate(conds):
            if cond:
                even = rows[2 * i]
                odd = rows[2 * i + 1]
                diff = (even ^ odd) & ((cond << w) - cond)
                rows[2 * i] = even ^ diff
                rows[2 * i + 1] = odd ^ diff
        if stage < last_stage:
            link = inv_links[stage]
            rows = [rows[j] for j in link]
    # rows[output] fields carry the source -> invert per lane to the
    # input -> output convention of fast_route_with_states.
    sources = [_unpack_row(plan, row) for row in rows]
    mappings = []
    for b in range(lanes):
        dest = [0] * n
        for output in range(n):
            dest[sources[output][b]] = output
        mappings.append(tuple(dest))
    per_stage = None
    if stage_data:
        per_stage = _stage_cross_lanes(plan, conds_by_stage)
    return BatchRouteResult(success_mask=[True] * lanes,
                            mappings=mappings, per_stage=per_stage)


def bitslice_two_pass(order: int, perms
                      ) -> Tuple[List[tuple], List[tuple]]:
    """Two-pass factorization ``(omega_1, omega_2)`` of a permutation
    batch with the first-half map pushed through the first ``n`` switch
    columns lane-parallel: the scalar looping setup assigns sides per
    instance, then one bit-sliced half-transit reads every instance's
    half-way map ``M`` at once, and the fixed-wire composition
    (``omega_1 = straight^-1[M]``, ``omega_2[omega_1] = D``) decodes
    per lane.  Factors are identical to
    ``[two_pass_decomposition(p) for p in perms]`` (lists of tuples,
    the fallback shapes)."""
    from .setup import scalar_setup_loop, setup_plan

    rows_in = _as_row_lists(perms, "permutations")
    lanes = len(rows_in)
    if lanes == 0:
        return [], []
    n = 1 << order
    if len(rows_in[0]) != n:
        raise SizeMismatchError(
            f"expected (B, {n}) permutations for order {order}, got "
            f"rows of length {len(rows_in[0])}"
        )
    states = scalar_setup_loop(order, rows_in)
    plan = bitslice_plan(order, lanes, order)
    splan = stage_plan(order)
    conds_by_stage = _pack_state_conds(plan, states, order)
    base = plan.base
    w = plan.width
    rows = [base * r for r in range(n)]
    inv_links = splan.inv_links
    for stage in range(order):
        for i, cond in enumerate(conds_by_stage[stage]):
            if cond:
                even = rows[2 * i]
                odd = rows[2 * i + 1]
                diff = (even ^ odd) & ((cond << w) - cond)
                rows[2 * i] = even ^ diff
                rows[2 * i + 1] = odd ^ diff
        if stage < order - 1:
            rows = [rows[j] for j in inv_links[stage]]
    # rows[row] fields = source at that row after the first n columns.
    sources = [_unpack_row(plan, row) for row in rows]
    straight_inverse = setup_plan(order).straight_inverse
    firsts, seconds = [], []
    for b in range(lanes):
        middle = [0] * n  # middle[source] = row
        for row in range(n):
            middle[sources[row][b]] = row
        first = [straight_inverse[middle[i]] for i in range(n)]
        second = [0] * n
        perm = rows_in[b]
        for i in range(n):
            second[first[i]] = perm[i]
        firsts.append(tuple(first))
        seconds.append(tuple(second))
    return firsts, seconds
