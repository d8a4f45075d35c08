"""``repro.engines`` — the first-class engine registry.

Every routing implementation in this repository is an **engine**: the
structural :class:`~repro.core.benes.BenesNetwork`, the integer
:mod:`~repro.core.fastpath`, the vectorized :mod:`repro.accel.batch`
kernel (NumPy and pure-Python), the bit-sliced big-int kernel of
:mod:`repro.accel.bitslice`, the sharded :mod:`repro.accel.executor`
path, and — since routing became a service — the ``benes serve``
daemon reached over a socket.  Before this module existed each
consumer kept its own list: the accel seam validated ``engine=``
keywords, the verifier kept three adapter dicts, the bench CLI
hard-coded its ``--engine`` choices, and the planner/executor trusted
whatever string reached them.  Adding an engine meant five call sites.

Now there is **one registry**.  An :class:`EngineSpec` names an engine
once and declares everything any consumer needs:

- ``selfroute`` / ``membership`` / ``states`` — normalized adapters
  (each drives the engine through its *public* entry points and
  returns plain-Python :class:`EngineRun` / mask / mapping data ready
  for byte-level comparison — the differential verifier's currency);
- ``exec_seam`` — whether the name is a valid ``engine=`` value for
  the batch entry points (the :func:`repro.accel.resolve_engine`
  seam);
- ``available`` — a predicate gating optional dependencies (NumPy);
- ``default`` — whether the engine joins *default* verification
  sweeps (the socket-backed ``serve`` engine is registered but opt-in:
  it spins up a live daemon per process).

Consumers resolve through the registry:

- :func:`repro.accel.resolve_engine` validates ``engine=`` keywords
  against :func:`exec_engine_names` (precedence: explicit keyword >
  ``FORCE_ENGINE`` test hook > ``BENES_ENGINE`` environment variable >
  ``auto`` policy — documented there, enforced here);
- :mod:`repro.verify` builds its engine tables from
  :data:`SELF_ROUTE_ENGINES` / :data:`MEMBERSHIP_ENGINES` /
  :data:`STATES_ENGINES` (live views of this registry);
- ``benes bench|route|verify|serve`` derive their ``--engine`` choices
  from :func:`exec_engine_names`;
- :mod:`repro.serve` resolves its dispatch engine here at startup.

Registering a new :class:`EngineSpec` therefore makes the engine
appear everywhere at once — one registration, not five call sites.
"""

from __future__ import annotations

import atexit
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .accel import executor as _executor
from .accel import _np as _np_seam
from .accel.batch import (
    batch_in_class_f,
    batch_route_with_states,
    batch_self_route,
)
from .accel.partial import batch_route_partial, complete_partial_row
from .core.benes import BenesNetwork
from .core.fastpath import (
    fast_route_with_states,
    fast_self_route_states,
)
from .core.membership import in_class_f
from .errors import InvalidParameterError, MissingDependencyError

__all__ = [
    "ALL_MEMBERSHIP_ENGINES",
    "ALL_PARTIAL_ENGINES",
    "ALL_SELF_ROUTE_ENGINES",
    "ALL_STATES_ENGINES",
    "EngineRun",
    "EngineSpec",
    "MEMBERSHIP_ENGINES",
    "PARTIAL_ENGINES",
    "SELF_ROUTE_ENGINES",
    "STATES_ENGINES",
    "default_selfroute_names",
    "exec_engine_names",
    "force_engine",
    "force_fallback",
    "get",
    "low_shard_threshold",
    "names",
    "register",
    "require_exec",
    "run_engine",
    "run_membership_engine",
    "run_partial_engine",
    "run_states_engine",
]

Row = Tuple[int, ...]
States = Tuple[Tuple[int, ...], ...]


@dataclass(frozen=True)
class EngineRun:
    """One engine's normalized answer for a batch of tag vectors.

    Attributes:
        engine: adapter name.
        success: per-instance routing success.
        mappings: per-instance delivered mapping — ``mappings[b][o]``
            is the input whose signal arrived at output ``o``.
        states: per-instance ``(2n-1, N/2)`` switch states as nested
            tuples, or ``None`` when the engine cannot expose them.
    """

    engine: str
    success: Tuple[bool, ...]
    mappings: Tuple[Row, ...]
    states: Optional[Tuple[States, ...]] = None


def _always() -> bool:
    return True


@dataclass(frozen=True)
class EngineSpec:
    """One engine, registered once, visible to every consumer.

    Attributes:
        name: the canonical engine name (also the self-routing adapter
            key and, when ``exec_seam`` is set, the value accepted by
            the batch entry points' ``engine=`` keyword).
        selfroute: ``(rows, order, *, omega_mode, stuck_switches) ->
            EngineRun`` adapter, or ``None`` when the engine has no
            self-routing surface.
        membership: ``(rows, order) -> Tuple[bool, ...]`` F(n)-verdict
            adapter (key: ``membership_name``).
        states: ``(states_batch, order) -> Tuple[Row, ...]``
            external-state adapter (key: ``states_name``).
        partial: ``(rows, order, *, omega_mode, stuck_switches) ->
            EngineRun`` adapter for **partial permutations** (dense
            rows, idle lanes ``-1``); ``success`` is the per-instance
            all-active-lanes-delivered verdict and ``mappings`` holds
            each instance's arrival outputs for its active sources in
            increasing source order — the masked currency the
            ``partial`` verify family compares byte-for-byte
            (key: ``partial_name``).
        membership_name / states_name / partial_name: historical
            per-family adapter names kept stable for the verifier's
            reports and generated regression tests.
        exec_seam: True when :func:`repro.accel.resolve_engine` should
            accept ``name`` as a concrete batch execution engine.
        available: dependency gate — ``False`` means requesting the
            engine raises ``MissingDependencyError`` and default
            sweeps skip it.
        default: False keeps the engine out of *default* verification
            sweeps (it stays reachable by explicit name).
        description: one line for ``benes verify`` / docs.
    """

    name: str
    selfroute: Optional[Callable[..., EngineRun]] = None
    membership: Optional[Callable[..., Tuple[bool, ...]]] = None
    states: Optional[Callable[..., Tuple[Row, ...]]] = None
    partial: Optional[Callable[..., EngineRun]] = None
    membership_name: Optional[str] = None
    states_name: Optional[str] = None
    partial_name: Optional[str] = None
    exec_seam: bool = False
    available: Callable[[], bool] = field(default=_always)
    default: bool = True
    description: str = ""


_REGISTRY: "Dict[str, EngineSpec]" = {}


def register(spec: EngineSpec, *, replace: bool = False) -> EngineSpec:
    """Add ``spec`` to the registry (the one step that makes a new
    engine visible to the accel seam, the verifier, the bench CLI and
    the serve daemon at once).  Re-registering a name requires
    ``replace=True`` so typos fail loudly."""
    if spec.name in _REGISTRY and not replace:
        raise InvalidParameterError(
            f"engine {spec.name!r} is already registered; pass "
            "replace=True to override it"
        )
    _REGISTRY[spec.name] = spec
    return spec


def get(name: str) -> EngineSpec:
    """The spec registered under ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown engine {name!r}; registered: "
            f"{', '.join(sorted(_REGISTRY))}"
        )


def names() -> Tuple[str, ...]:
    """Every registered engine name, in registration order."""
    return tuple(_REGISTRY)


def exec_engine_names(*, available_only: bool = False
                      ) -> Tuple[str, ...]:
    """The names :func:`repro.accel.resolve_engine` accepts as concrete
    execution engines, in registration order."""
    return tuple(
        spec.name for spec in _REGISTRY.values()
        if spec.exec_seam and (not available_only or spec.available())
    )


def require_exec(name: str) -> EngineSpec:
    """The exec-seam spec for ``name``, raising
    :class:`~repro.errors.InvalidParameterError` for non-seam names and
    :class:`~repro.errors.MissingDependencyError` when the engine's
    dependency gate is closed — the validation backing
    :func:`repro.accel.resolve_engine`."""
    spec = _REGISTRY.get(name)
    if spec is None or not spec.exec_seam:
        raise InvalidParameterError(
            f"unknown accel engine {name!r}; choose one of "
            f"{', '.join(exec_engine_names())} or 'auto' (also "
            "settable via the BENES_ENGINE environment variable)"
        )
    if not spec.available():
        if name == "numpy":
            from .accel._np import require_numpy

            # The canonical NumPy error names the extra to install.
            require_numpy(f"engine={name!r}")
        raise MissingDependencyError(
            f"engine {name!r} is registered but its dependency gate "
            "is closed (optional dependency missing)"
        )
    return spec


def default_selfroute_names() -> Tuple[str, ...]:
    """The self-routing engines a *default* verification sweep should
    drive: registered, adapter present, available, and not opted out
    (``default=False`` — e.g. the live-daemon ``serve`` engine)."""
    return tuple(
        spec.name for spec in _REGISTRY.values()
        if spec.selfroute is not None and spec.default
        and spec.available()
    )


class _CapabilityView(Mapping):
    """A live, read-only ``{name: adapter}`` view over one capability
    of the registry — what :mod:`repro.verify` iterates.  Late
    registrations (a plugin engine, a test double) appear without any
    rebuild.  Default views (``default_only=True``) hide engines
    registered with ``default=False`` — the socket-backed ``serve``
    engine must not start a daemon inside every default sweep — while
    the full views back explicit-name lookups (:func:`run_engine`,
    ``benes verify --engines``)."""

    def __init__(self, capability: str, key_attr: str, *,
                 default_only: bool = True):
        self._capability = capability
        self._key_attr = key_attr
        self._default_only = default_only

    def _table(self) -> "Dict[str, Callable]":
        table = {}
        for spec in _REGISTRY.values():
            adapter = getattr(spec, self._capability)
            if adapter is None:
                continue
            if self._default_only and not spec.default:
                continue
            key = getattr(spec, self._key_attr) or spec.name
            table[key] = adapter
        return table

    def __getitem__(self, key):
        return self._table()[key]

    def __iter__(self):
        return iter(self._table())

    def __len__(self):
        return len(self._table())

    def __repr__(self):
        return (f"<engine registry view {self._capability}: "
                f"{', '.join(self._table())}>")


#: Live views of the registry, one per comparison family — the tables
#: :mod:`repro.verify` fuzzes over by default.  ``scalar`` (the
#: structural network) is always first: the fuzzer treats the first
#: entry as the oracle.  Opt-in engines (``default=False``) are hidden
#: here but reachable through the full views / :func:`run_engine`.
SELF_ROUTE_ENGINES: Mapping = _CapabilityView("selfroute", "name")
MEMBERSHIP_ENGINES: Mapping = _CapabilityView("membership",
                                              "membership_name")
STATES_ENGINES: Mapping = _CapabilityView("states", "states_name")

#: Full views including opt-in engines — what explicit name lookups
#: (CLI ``--engines``, generated regression tests) resolve against.
ALL_SELF_ROUTE_ENGINES: Mapping = _CapabilityView(
    "selfroute", "name", default_only=False)
ALL_MEMBERSHIP_ENGINES: Mapping = _CapabilityView(
    "membership", "membership_name", default_only=False)
ALL_STATES_ENGINES: Mapping = _CapabilityView(
    "states", "states_name", default_only=False)

#: Partial-permutation views (dense rows, idle lanes ``-1``): the
#: masked k-of-N call model every engine answers through canonical
#: completion.  Same default/full split as the other capabilities.
PARTIAL_ENGINES: Mapping = _CapabilityView("partial", "partial_name")
ALL_PARTIAL_ENGINES: Mapping = _CapabilityView(
    "partial", "partial_name", default_only=False)


# ----------------------------------------------------------------------
# Environment toggles
# ----------------------------------------------------------------------

@contextmanager
def force_fallback():
    """Run the body as if NumPy were not installed (flips the
    :data:`repro.accel._np.FORCE_FALLBACK` seam)."""
    previous = _np_seam.FORCE_FALLBACK
    _np_seam.FORCE_FALLBACK = True
    try:
        yield
    finally:
        _np_seam.FORCE_FALLBACK = previous


@contextmanager
def force_engine(name: Optional[str]):
    """Steer every engine resolution inside the body to ``name``
    (flips the :data:`repro.accel._np.FORCE_ENGINE` seam — the
    monkeypatch equivalent of exporting ``BENES_ENGINE``)."""
    previous = _np_seam.FORCE_ENGINE
    _np_seam.FORCE_ENGINE = name
    try:
        yield
    finally:
        _np_seam.FORCE_ENGINE = previous


@contextmanager
def low_shard_threshold(threshold: int = 2):
    """Temporarily lower the executor's sharding threshold so small
    verification batches exercise the dispatch/merge path."""
    previous = _executor.SHARD_THRESHOLD
    _executor.SHARD_THRESHOLD = threshold
    try:
        yield
    finally:
        _executor.SHARD_THRESHOLD = previous


# ----------------------------------------------------------------------
# Normalization helpers
# ----------------------------------------------------------------------

def _as_rows(rows: Sequence[Sequence[int]]) -> List[Row]:
    return [tuple(int(v) for v in row) for row in rows]


def _normalize_states(states) -> Optional[Tuple[States, ...]]:
    if states is None:
        return None
    return tuple(
        tuple(tuple(int(s) for s in column) for column in per_instance)
        for per_instance in states
    )


def _from_batch_result(engine: str, result) -> EngineRun:
    return EngineRun(
        engine=engine,
        success=tuple(bool(ok) for ok in result.success_mask),
        mappings=tuple(tuple(int(v) for v in row)
                       for row in result.mappings),
        states=_normalize_states(result.stage_states),
    )


# ----------------------------------------------------------------------
# Self-routing adapters (in-process generations + the daemon)
# ----------------------------------------------------------------------

def _scalar_engine(rows, order, *, omega_mode=False,
                   stuck_switches=None) -> EngineRun:
    net = BenesNetwork(order)
    success, mappings, states = [], [], []
    for row in rows:
        result = net.route(row, omega_mode=omega_mode, trace=True,
                           stuck_switches=stuck_switches)
        success.append(result.success)
        mappings.append(tuple(int(v) for v in result.delivered))
        states.append(tuple(
            tuple(int(s) for s in trace.states)
            for trace in result.stages
        ))
    return EngineRun("scalar", tuple(success), tuple(mappings),
                     tuple(states))


def _fastpath_engine(rows, order, *, omega_mode=False,
                     stuck_switches=None) -> EngineRun:
    success, mappings, states = [], [], []
    for row in rows:
        ok, delivered, st = fast_self_route_states(
            row, omega_mode=omega_mode, stuck_switches=stuck_switches
        )
        success.append(ok)
        mappings.append(delivered)
        states.append(st)
    return EngineRun("fastpath", tuple(success), tuple(mappings),
                     tuple(states))


def _sharded_engine(rows, order, *, omega_mode=False,
                    stuck_switches=None) -> EngineRun:
    with low_shard_threshold(2):
        result = batch_self_route(list(rows), omega_mode=omega_mode,
                                  stuck_switches=stuck_switches,
                                  stage_states=True, parallel=2)
    return _from_batch_result("sharded", result)


def _accel_adapters(name: str, engine: Optional[str] = None) -> Dict:
    """The self-routing, membership, external-state and partial
    adapters of one accel engine name — the public batch entry points
    with ``engine=`` pinned (``None``: auto resolution) — as
    :class:`EngineSpec` keywords under the ``<family>-<name>``
    adapter keys."""

    def selfroute(rows, order, *, omega_mode=False,
                  stuck_switches=None) -> EngineRun:
        result = batch_self_route(list(rows), omega_mode=omega_mode,
                                  stuck_switches=stuck_switches,
                                  stage_states=True, engine=engine)
        return _from_batch_result(name, result)

    def membership(rows, order) -> Tuple[bool, ...]:
        mask = batch_in_class_f(list(rows), engine=engine)
        return tuple(bool(ok) for ok in mask)

    def states(states_batch, order) -> Tuple[Row, ...]:
        # mappings rows are already the realized input -> output view,
        # the same convention as fast_route_with_states.
        result = batch_route_with_states(list(states_batch), order,
                                         engine=engine)
        return tuple(tuple(int(v) for v in row)
                     for row in result.mappings)

    def partial(rows, order, *, omega_mode=False,
                stuck_switches=None) -> EngineRun:
        result = batch_route_partial(list(rows), omega_mode=omega_mode,
                                     stuck_switches=stuck_switches,
                                     engine=engine)
        return EngineRun(
            f"partial-{name}",
            tuple(bool(ok) for ok in result.success_mask),
            tuple(tuple(int(out) for _src, out in arrival)
                  for arrival in result.arrivals),
        )

    return dict(selfroute=selfroute, membership=membership,
                membership_name=f"membership-{name}", states=states,
                states_name=f"states-{name}", partial=partial,
                partial_name=f"partial-{name}")


# ----------------------------------------------------------------------
# Partial-permutation adapters — masked k-of-N calls, dense rows with
# idle lanes -1.  Normalized currency: success = every active lane
# delivered; mappings[b] = the arrival outputs of instance b's active
# sources in increasing source order.
# ----------------------------------------------------------------------

def _partial_run_from_delivered(engine: str, dense_rows,
                                delivered_rows) -> EngineRun:
    """Mask full delivered mappings back to the active lanes — the one
    normalization every partial adapter funnels through, so engines
    only differ in how they *routed* the canonical completion."""
    success, arrivals = [], []
    for row, delivered in zip(dense_rows, delivered_rows):
        inverse = {src: out for out, src in enumerate(delivered)}
        oks, outs = [], []
        for src, dst in enumerate(row):
            if dst == -1:
                continue
            oks.append(delivered[dst] == src)
            outs.append(inverse[src])
        success.append(all(oks))
        arrivals.append(tuple(int(v) for v in outs))
    return EngineRun(engine, tuple(success), tuple(arrivals))


def _partial_scalar_engine(rows, order, *, omega_mode=False,
                           stuck_switches=None) -> EngineRun:
    # The oracle leg: structural network on the canonical completion,
    # masked here rather than through the accel result type.
    net = BenesNetwork(order)
    dense = [tuple(int(v) for v in row) for row in rows]
    delivered_rows = []
    for row in dense:
        result = net.route(complete_partial_row(row),
                           omega_mode=omega_mode,
                           stuck_switches=stuck_switches)
        delivered_rows.append(tuple(int(v) for v in result.delivered))
    return _partial_run_from_delivered("partial-scalar", dense,
                                       delivered_rows)


# --- the routing daemon, reached over its wire protocol ---------------

_SERVE_HANDLE = None


def _serve_runtime():
    """The per-process verification daemon: started lazily on first
    use of the ``serve`` adapters, reused across calls, stopped at
    interpreter exit.  A coalescing window well above the adapter's
    pipelined submit time keeps the requests micro-batched — the
    adapter verifies the *coalesced* path, not a degenerate B=1 one."""
    global _SERVE_HANDLE
    if _SERVE_HANDLE is None:
        from .serve import ServeConfig
        from .serve.daemon import start_in_thread

        _SERVE_HANDLE = start_in_thread(ServeConfig(
            port=0, max_batch=64, max_wait_us=5000.0,
        ))
        atexit.register(_stop_serve_runtime)
    return _SERVE_HANDLE


def _stop_serve_runtime() -> None:
    global _SERVE_HANDLE
    handle, _SERVE_HANDLE = _SERVE_HANDLE, None
    if handle is not None:
        handle.stop()


def _serve_client():
    from .serve.client import ServeClient

    handle = _serve_runtime()
    return ServeClient(*handle.address)


def _serve_engine(rows, order, *, omega_mode=False,
                  stuck_switches=None) -> EngineRun:
    with _serve_client() as client:
        responses = client.route_many(
            list(rows), omega_mode=omega_mode,
            stuck_switches=stuck_switches, stage_states=True,
        )
    return EngineRun(
        engine="serve",
        success=tuple(bool(r.success) for r in responses),
        mappings=tuple(tuple(int(v) for v in r.mapping)
                       for r in responses),
        states=tuple(
            tuple(tuple(int(s) for s in column)
                  for column in r.stage_states)
            for r in responses
        ),
    )


def _membership_serve(rows, order) -> Tuple[bool, ...]:
    with _serve_client() as client:
        responses = client.membership_many(list(rows))
    return tuple(bool(r.success) for r in responses)


def _partial_serve_engine(rows, order, *, omega_mode=False,
                          stuck_switches=None) -> EngineRun:
    dense = [tuple(int(v) for v in row) for row in rows]
    with _serve_client() as client:
        responses = client.packet_many(
            dense, omega_mode=omega_mode,
            stuck_switches=stuck_switches)
    delivered_rows = [tuple(int(v) for v in r.mapping)
                      for r in responses]
    return _partial_run_from_delivered("partial-serve", dense,
                                       delivered_rows)


# ----------------------------------------------------------------------
# Membership adapters — (B,) F(n) verdict masks over permutations
# ----------------------------------------------------------------------

def _membership_theorem1(rows, order) -> Tuple[bool, ...]:
    return tuple(bool(in_class_f(row)) for row in rows)


def _membership_route_success(rows, order) -> Tuple[bool, ...]:
    # Theorem 1 states membership == routing success; feeding the
    # routed verdict into the same comparison pins that equivalence
    # across engine generations.
    return tuple(
        fast_self_route_states(row)[0] for row in rows
    )


# ----------------------------------------------------------------------
# External-state adapters — realized permutation under given states
# ----------------------------------------------------------------------

def _states_scalar(states_batch, order) -> Tuple[Row, ...]:
    net = BenesNetwork(order)
    return tuple(
        tuple(int(v) for v in net.route_with_states(states).realized)
        for states in states_batch
    )


def _states_fastpath(states_batch, order) -> Tuple[Row, ...]:
    return tuple(
        tuple(int(v) for v in fast_route_with_states(states, order))
        for states in states_batch
    )


# ----------------------------------------------------------------------
# Public runners — the entries generated regression tests call
# ----------------------------------------------------------------------

def run_engine(name: str, rows: Sequence[Sequence[int]], order: int, *,
               omega_mode: bool = False,
               stuck_switches: Optional[dict] = None) -> EngineRun:
    """Run one named self-routing engine over ``rows`` — the public
    entry the shrinker's generated regression tests call."""
    try:
        engine = ALL_SELF_ROUTE_ENGINES[name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown verify engine {name!r}; known: "
            f"{sorted(ALL_SELF_ROUTE_ENGINES)}"
        )
    return engine(_as_rows(rows), order, omega_mode=omega_mode,
                  stuck_switches=stuck_switches)


def run_membership_engine(name: str, rows: Sequence[Sequence[int]],
                          order: int) -> Tuple[bool, ...]:
    """Run one named F(n)-membership engine over permutation ``rows``."""
    try:
        engine = ALL_MEMBERSHIP_ENGINES[name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown membership engine {name!r}; known: "
            f"{sorted(ALL_MEMBERSHIP_ENGINES)}"
        )
    return engine(_as_rows(rows), order)


def run_partial_engine(name: str, rows: Sequence[Sequence[int]],
                       order: int, *, omega_mode: bool = False,
                       stuck_switches: Optional[dict] = None
                       ) -> EngineRun:
    """Run one named partial-permutation engine over dense ``rows``
    (idle lanes ``-1``)."""
    try:
        engine = ALL_PARTIAL_ENGINES[name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown partial engine {name!r}; known: "
            f"{sorted(ALL_PARTIAL_ENGINES)}"
        )
    return engine(_as_rows(rows), order, omega_mode=omega_mode,
                  stuck_switches=stuck_switches)


def run_states_engine(name: str, states_batch, order: int
                      ) -> Tuple[Row, ...]:
    """Realized permutations of ``B(order)`` under each instance of
    ``states_batch``, per the named external-state engine."""
    try:
        engine = ALL_STATES_ENGINES[name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown states engine {name!r}; known: "
            f"{sorted(ALL_STATES_ENGINES)}"
        )
    return engine(states_batch, order)


# ----------------------------------------------------------------------
# Built-in registrations — ONE entry per engine generation.  Order
# matters twice: the fuzzer's oracle is the first self-routing entry
# (scalar), and resolve_engine's error text lists the exec seam in
# registration order (scalar, numpy, bitslice).
# ----------------------------------------------------------------------

register(EngineSpec(
    name="scalar",
    selfroute=_scalar_engine,
    membership=_membership_theorem1,
    membership_name="theorem1",
    states=_states_scalar,
    states_name="states-scalar",
    partial=_partial_scalar_engine,
    partial_name="partial-scalar",
    exec_seam=True,
    description="structural BenesNetwork oracle / per-row scalar loop",
))
register(EngineSpec(
    name="numpy",
    exec_seam=True,
    available=_np_seam.have_numpy,
    description="vectorized (B, N) NumPy kernels (the accel extra)",
))
register(EngineSpec(
    name="fastpath",
    selfroute=_fastpath_engine,
    membership=_membership_route_success,
    membership_name="route-success",
    states=_states_fastpath,
    states_name="states-fastpath",
    description="integer fast path (core.fastpath)",
))
register(EngineSpec(
    name="batch",
    **_accel_adapters("batch"),
    description="accel batch entry points under auto resolution",
))
register(EngineSpec(
    name="bitslice",
    **_accel_adapters("bitslice", "bitslice"),
    exec_seam=True,
    description="bit-sliced big-int lane-parallel kernel",
))
register(EngineSpec(
    name="sharded",
    selfroute=_sharded_engine,
    description="multicore shard executor over the batch engine",
))
register(EngineSpec(
    name="composed",
    **_accel_adapters("composed", "composed"),
    exec_seam=True,
    description="block-composed sub-network engine: peel + per-block "
                "dispatch with streaming state chunks",
))
register(EngineSpec(
    name="serve",
    selfroute=_serve_engine,
    membership=_membership_serve,
    membership_name="membership-serve",
    partial=_partial_serve_engine,
    partial_name="partial-serve",
    default=False,
    description="the benes serve daemon, reached over its newline-"
                "delimited JSON wire protocol (opt-in: live socket)",
))
