"""The first-class engine registry (``repro.engines``).

One registration must make an engine visible everywhere at once: the
accel execution seam (``resolve_engine``), the verifier's capability
views, the CLI's ``--engine`` choices, and explicit-name lookups.
These tests pin that contract, the default/opt-in split (the
socket-backed ``serve`` engine must never join a default sweep), the
``repro.verify`` re-exports of the registry, and the registry's
agreement with the dispatcher's kernel table.
"""

from __future__ import annotations

import random

import pytest

import repro.verify as verify
from repro import engines as registry
from repro.accel import dispatch
from repro.accel._np import resolve_engine
from repro.accel.batch import batch_self_route
from repro.core import random_permutation
from repro.errors import InvalidParameterError, MissingDependencyError


@pytest.fixture
def rows(rng):
    return [random_permutation(8, rng).as_tuple() for _ in range(6)]


class TestRegistry:
    def test_builtin_engines_registered(self):
        names = registry.names()
        for expected in ("scalar", "numpy", "fastpath", "batch",
                         "bitslice", "sharded", "composed", "serve"):
            assert expected in names

    def test_exec_seam_names_in_registration_order(self):
        assert registry.exec_engine_names() == ("scalar", "numpy",
                                                "bitslice", "composed")

    def test_get_unknown_engine_raises(self):
        with pytest.raises(InvalidParameterError):
            registry.get("warp-drive")

    def test_require_exec_accepts_seam_engines(self):
        assert registry.require_exec("scalar").name == "scalar"
        assert registry.require_exec("bitslice").name == "bitslice"

    def test_require_exec_rejects_non_seam_engines(self):
        # fastpath routes, but it is not a batch execution engine.
        with pytest.raises(InvalidParameterError):
            registry.require_exec("fastpath")
        with pytest.raises(InvalidParameterError):
            registry.require_exec("nope")

    def test_duplicate_registration_requires_replace(self):
        spec = registry.get("scalar")
        with pytest.raises(InvalidParameterError):
            registry.register(registry.EngineSpec(name="scalar"))
        # replace=True restores the original untouched
        assert registry.register(spec, replace=True) is spec
        assert registry.get("scalar") is spec

    def test_scalar_is_first_selfroute_engine(self):
        # The verify fuzzer treats the first view entry as the oracle.
        assert next(iter(registry.SELF_ROUTE_ENGINES)) == "scalar"
        assert next(iter(registry.MEMBERSHIP_ENGINES)) == "theorem1"


class TestDefaultOptInSplit:
    def test_serve_hidden_from_default_views(self):
        assert "serve" not in registry.SELF_ROUTE_ENGINES
        assert "serve" in registry.ALL_SELF_ROUTE_ENGINES
        assert "membership-serve" not in registry.MEMBERSHIP_ENGINES
        assert "membership-serve" in registry.ALL_MEMBERSHIP_ENGINES

    def test_default_selfroute_names_exclude_serve(self):
        names = registry.default_selfroute_names()
        assert "serve" not in names
        assert "scalar" in names

    def test_default_views_subset_of_full_views(self):
        assert set(registry.SELF_ROUTE_ENGINES) <= set(
            registry.ALL_SELF_ROUTE_ENGINES)
        assert set(registry.STATES_ENGINES) <= set(
            registry.ALL_STATES_ENGINES)


class TestLiveRegistration:
    """Registering an engine extends every consumer without any other
    call site changing."""

    def _echo_spec(self, name, **kwargs):
        def adapter(batch, order, *, omega_mode=False,
                    stuck_switches=None):
            return registry.run_engine("scalar", batch, order,
                                       omega_mode=omega_mode,
                                       stuck_switches=stuck_switches)

        return registry.EngineSpec(name=name, selfroute=adapter,
                                   **kwargs)

    def test_new_engine_appears_in_views_and_run_engine(self, rows):
        name = "test-echo"
        registry.register(self._echo_spec(name))
        try:
            assert name in registry.SELF_ROUTE_ENGINES
            assert name in registry.ALL_SELF_ROUTE_ENGINES
            run = registry.run_engine(name, rows, 3)
            oracle = registry.run_engine("scalar", rows, 3)
            assert run.success == oracle.success
            assert run.mappings == oracle.mappings
        finally:
            registry._REGISTRY.pop(name, None)
        assert name not in registry.ALL_SELF_ROUTE_ENGINES

    def test_new_exec_engine_extends_resolve_engine(self, rows):
        name = "test-exec"
        registry.register(self._echo_spec(name, exec_seam=True))
        try:
            assert name in registry.exec_engine_names()
            assert resolve_engine(name) == name
        finally:
            registry._REGISTRY.pop(name, None)
        with pytest.raises(InvalidParameterError):
            resolve_engine(name)

    def test_unavailable_exec_engine_raises_missing_dependency(self):
        name = "test-gated"
        registry.register(registry.EngineSpec(
            name=name, exec_seam=True, available=lambda: False))
        try:
            with pytest.raises(MissingDependencyError):
                registry.require_exec(name)
            assert name not in registry.exec_engine_names(
                available_only=True)
            assert name in registry.exec_engine_names()
        finally:
            registry._REGISTRY.pop(name, None)

    def test_opt_out_engine_stays_out_of_default_sweeps(self, rows):
        name = "test-optout"
        registry.register(self._echo_spec(name, default=False))
        try:
            assert name not in registry.SELF_ROUTE_ENGINES
            assert name not in registry.default_selfroute_names()
            # ...but remains reachable by explicit name
            run = registry.run_engine(name, rows, 3)
            assert run.engine == "scalar"
        finally:
            registry._REGISTRY.pop(name, None)


class TestVerifyReexports:
    """``repro.verify`` re-exports the registry's public names (the
    views are the registry's own objects) and the self-test mutant."""

    def test_views_are_the_same_objects(self):
        assert verify.SELF_ROUTE_ENGINES is registry.SELF_ROUTE_ENGINES
        assert verify.MEMBERSHIP_ENGINES is registry.MEMBERSHIP_ENGINES
        assert verify.STATES_ENGINES is registry.STATES_ENGINES

    def test_run_engine_reexported(self, rows):
        run = verify.run_engine("fastpath", rows, 3)
        oracle = registry.run_engine("scalar", rows, 3)
        assert run.success == oracle.success
        assert run.mappings == oracle.mappings

    def test_toggles_reexported(self, rows):
        assert verify.force_fallback is registry.force_fallback
        with registry.force_engine("bitslice"):
            run = registry.run_engine("batch", rows, 3)
        assert run.success == registry.run_engine("scalar",
                                                  rows, 3).success

    def test_mutant_engine_from_harness(self, rows):
        from repro.verify.harness import mutant_self_route_engine

        assert verify.mutant_self_route_engine is mutant_self_route_engine
        mutant = mutant_self_route_engine(2)
        oracle = registry.run_engine("scalar", rows, 3)
        mutated = mutant(list(rows), 3)
        assert mutated.mappings != oracle.mappings


class TestKernelTable:
    """Every exec-seam engine has a dispatcher kernel for every batch
    op, or fails with one typed error naming the op."""

    @pytest.mark.parametrize("op", sorted(dispatch.OPS))
    def test_every_exec_engine_has_a_kernel(self, op):
        assert set(dispatch.KERNELS) == set(dispatch.OPS)
        for engine in registry.exec_engine_names():
            if (op, engine) == ("two_pass", "composed"):
                # redirected to the inner engine before lookup
                with pytest.raises(InvalidParameterError, match=op):
                    dispatch.kernel_for(op, engine)
                continue
            assert callable(dispatch.kernel_for(op, engine)), (op, engine)

    def test_engine_without_kernel_raises_naming_the_op(self, rows):
        name = "test-kernelless"
        registry.register(registry.EngineSpec(name=name, exec_seam=True))
        try:
            with pytest.raises(InvalidParameterError,
                               match="'self_route'"):
                batch_self_route(rows, engine=name)
        finally:
            registry._REGISTRY.pop(name, None)


class TestResolveEngineDelegation:
    def test_explicit_engine_validated_by_registry(self):
        with pytest.raises(InvalidParameterError):
            resolve_engine("fastpath")  # real engine, not a seam

    def test_auto_resolves_to_seam_engine(self):
        name = resolve_engine("auto", order=4, batch_size=64)
        assert name in registry.exec_engine_names()


class TestServeEngineAdapter:
    """The opt-in ``serve`` adapter routes through a live daemon and
    must agree with the scalar oracle bit for bit."""

    def test_serve_matches_scalar(self, rng):
        rows = [random_permutation(8, rng).as_tuple()
                for _ in range(5)]
        run = registry.run_engine("serve", rows, 3)
        oracle = registry.run_engine("scalar", rows, 3)
        assert run.engine == "serve"
        assert run.success == oracle.success
        assert run.mappings == oracle.mappings
        assert run.states == oracle.states

    def test_serve_fault_injection_matches_scalar(self, rng):
        rows = [random_permutation(8, rng).as_tuple()
                for _ in range(4)]
        stuck = {(1, 0): True, (3, 2): False}
        run = registry.run_engine("serve", rows, 3,
                                  stuck_switches=stuck)
        oracle = registry.run_engine("scalar", rows, 3,
                                     stuck_switches=stuck)
        assert run.success == oracle.success
        assert run.mappings == oracle.mappings

    def test_membership_serve_matches_theorem1(self, rng):
        rows = [random_permutation(8, rng).as_tuple()
                for _ in range(6)]
        verdicts = registry.run_membership_engine(
            "membership-serve", rows, 3)
        oracle = registry.run_membership_engine("theorem1", rows, 3)
        assert verdicts == oracle
