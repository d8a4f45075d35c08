"""Tests for the bit-sliced big-int routing engine
(``repro.accel.bitslice``).

Parity strategy (mirrors ``tests/test_accel.py``):

- exhaustive against the scalar fast path (itself pinned to the
  structural network) for order <= 3, including omega mode, stuck
  switches, stage states, and non-permutation tag vectors;
- hypothesis-randomized for orders 4-6;
- boundary checks: >64-lane batches (multi-word packing), empty
  batches, ragged batches, out-of-range and negative tags, and the
  field-width cap.
"""

from __future__ import annotations

import random
from itertools import islice, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.bitslice import (
    BitslicePlan,
    bitslice_in_class_f,
    bitslice_plan,
    bitslice_route_with_states,
    bitslice_self_route,
    bitslice_two_pass,
)
from repro.accel.plans import bitslice_plan_cache, cache_stats
from repro.accel.setup import batch_setup_states
from repro.core import random_permutation
from repro.core.fastpath import (
    fast_route_with_states,
    fast_self_route,
    fast_self_route_states,
)
from repro.core.membership import in_class_f
from repro.core.twopass import two_pass_decomposition
from repro.core.waksman import setup_states
from repro.errors import InvalidParameterError, SizeMismatchError


def _assert_full_parity(rows, *, omega_mode=False, stuck_switches=None):
    """Success, mappings, AND states byte-identical to the scalar
    oracle for one batch."""
    result = bitslice_self_route(list(rows), omega_mode=omega_mode,
                                 stuck_switches=stuck_switches,
                                 stage_states=True, stage_data=True)
    for i, row in enumerate(rows):
        ok, delivered, states = fast_self_route_states(
            row, omega_mode=omega_mode, stuck_switches=stuck_switches
        )
        assert result.success_mask[i] is ok or \
            result.success_mask[i] == ok
        assert isinstance(result.success_mask[i], bool)
        assert result.mappings[i] == delivered
        assert result.stage_states[i] == states
        # per-stage cross counts match the recorded states
        for stage, column in enumerate(states):
            assert result.per_stage[stage][i] == sum(column)


class TestSelfRouteParity:
    @pytest.mark.parametrize("order", [1, 2])
    def test_exhaustive(self, order):
        perms = list(permutations(range(1 << order)))
        _assert_full_parity(perms)
        _assert_full_parity(perms, omega_mode=True)

    @pytest.mark.parametrize("order", [1, 2])
    def test_exhaustive_stuck(self, order):
        perms = list(permutations(range(1 << order)))
        half = (1 << order) // 2
        for stage in range(2 * order - 1):
            for index in range(half):
                for state in (0, 1):
                    _assert_full_parity(
                        perms,
                        stuck_switches={(stage, index): state})

    def test_order3_sampled_full(self, rng):
        perms = [random_permutation(8, rng).as_tuple()
                 for _ in range(64)]
        _assert_full_parity(perms)
        _assert_full_parity(perms, omega_mode=True)
        _assert_full_parity(perms, stuck_switches={(2, 1): 1, (4, 0): 0})

    def test_order3_exhaustive_membership(self):
        perms = list(permutations(range(8)))
        mask = bitslice_in_class_f(perms)
        assert all(isinstance(v, bool) for v in mask)
        assert sum(mask) == 11632  # |F(3)|
        result = bitslice_self_route(perms)
        assert mask == result.success_mask

    def test_duplicate_tags(self, rng):
        # non-permutation vectors: the control rule never assumes
        # distinctness
        rows = [[rng.randint(0, 7) for _ in range(8)]
                for _ in range(40)]
        result = bitslice_self_route(rows)
        for i, row in enumerate(rows):
            ok, delivered = fast_self_route(row)
            assert result.success_mask[i] == ok
            assert result.mappings[i] == delivered

    def test_fig5_counterexample(self):
        result = bitslice_self_route([[1, 3, 2, 0]])
        assert result.success_mask == [False]
        assert sorted(result.mappings[0]) == [0, 1, 2, 3]

    @settings(max_examples=25, deadline=None)
    @given(order=st.integers(min_value=4, max_value=6), data=st.data())
    def test_hypothesis_permutations(self, order, data):
        n = 1 << order
        rows = data.draw(st.lists(st.permutations(range(n)),
                                  min_size=1, max_size=5))
        _assert_full_parity(rows)

    @settings(max_examples=25, deadline=None)
    @given(order=st.integers(min_value=4, max_value=6), data=st.data())
    def test_hypothesis_arbitrary_tags(self, order, data):
        n = 1 << order
        rows = data.draw(st.lists(
            st.lists(st.integers(min_value=0, max_value=n - 1),
                     min_size=n, max_size=n),
            min_size=1, max_size=4))
        result = bitslice_self_route(rows)
        for i, row in enumerate(rows):
            ok, delivered = fast_self_route(row)
            assert result.success_mask[i] == ok
            assert result.mappings[i] == delivered

    def test_wide_batch_multiword(self, rng):
        # >64 lanes: packed rows span many machine words
        perms = [random_permutation(16, rng).as_tuple()
                 for _ in range(150)]
        result = bitslice_self_route(perms)
        for i, row in enumerate(perms):
            ok, delivered = fast_self_route(row)
            assert result.success_mask[i] == ok
            assert result.mappings[i] == delivered

    def test_metrics_tap(self):
        perms = list(islice(permutations(range(8)), 48))
        totals = []
        result = bitslice_self_route(perms, stage_data=True,
                                     _stage_totals=totals)
        assert len(totals) == 5
        assert totals == [sum(lane) for lane in result.per_stage]


class TestBoundaries:
    def test_empty_batch(self):
        result = bitslice_self_route([])
        assert result.success_mask == [] and result.mappings == []
        assert bitslice_in_class_f([]) == []
        assert bitslice_route_with_states([], 3).mappings == []
        assert bitslice_two_pass(3, []) == ([], [])

    def test_ragged_batch(self):
        with pytest.raises(SizeMismatchError):
            bitslice_self_route([[0, 1, 2, 3], [0, 1]])

    def test_out_of_range_tag(self):
        with pytest.raises(InvalidParameterError):
            bitslice_self_route([[0, 1, 2, 4]])

    def test_negative_tag(self):
        with pytest.raises(InvalidParameterError):
            bitslice_self_route([[0, 1, 2, -1]])

    def test_non_power_of_two(self):
        from repro.errors import NotAPowerOfTwoError

        with pytest.raises(NotAPowerOfTwoError):
            bitslice_self_route([[0, 1, 2]])

    def test_bad_stuck_switch(self):
        from repro.errors import SwitchStateError

        with pytest.raises(SwitchStateError):
            bitslice_self_route([[0, 1, 2, 3]],
                                stuck_switches={(99, 0): 1})

    def test_field_width_cap(self):
        with pytest.raises(InvalidParameterError):
            BitslicePlan(order=40, lanes=1, value_bits=80)

    def test_plan_widths(self):
        assert bitslice_plan(3, 4, 6).width == 8
        assert bitslice_plan(8, 4, 16).width == 16
        assert bitslice_plan(3, 4, 6) is bitslice_plan(3, 4, 6)

    def test_plan_cache_stats_section(self):
        bitslice_plan_cache().clear()
        bitslice_plan(2, 8, 4)
        stats = cache_stats()["bitslice"]
        assert stats["size"] == 1 and stats["misses"] >= 1


class TestRouteWithStates:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_parity(self, order, rng):
        n = 1 << order
        stages = 2 * order - 1
        batch = [
            [[rng.randint(0, 1) for _ in range(n // 2)]
             for _ in range(stages)]
            for _ in range(23)
        ]
        result = bitslice_route_with_states(batch, order,
                                            stage_data=True)
        assert result.success_mask == [True] * len(batch)
        for i, states in enumerate(batch):
            expected = fast_route_with_states(states, order)
            assert result.mappings[i] == expected
            for stage, column in enumerate(states):
                assert result.per_stage[stage][i] == sum(column)

    def test_bad_shape(self):
        with pytest.raises(SizeMismatchError):
            bitslice_route_with_states([[[0, 0]]], 2)


class TestSetupAndTwoPass:
    @pytest.mark.parametrize("order", [1, 2])
    def test_setup_states_exhaustive(self, order):
        perms = list(permutations(range(1 << order)))
        batch = batch_setup_states(order, perms, engine="bitslice")
        for states, p in zip(batch, perms):
            assert states == setup_states(list(p))

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_two_pass_parity(self, order, rng):
        n = 1 << order
        perms = [random_permutation(n, rng).as_tuple()
                 for _ in range(17)]
        firsts, seconds = bitslice_two_pass(order, perms)
        for first, second, p in zip(firsts, seconds, perms):
            ref_first, ref_second = two_pass_decomposition(list(p))
            assert first == ref_first.as_tuple()
            assert second == ref_second.as_tuple()

    def test_two_pass_wrong_width(self):
        with pytest.raises(SizeMismatchError):
            bitslice_two_pass(3, [[0, 1, 2, 3]])
