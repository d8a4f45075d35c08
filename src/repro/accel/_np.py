"""Graceful optional import of NumPy, and the **engine seam**.

NumPy is the ``accel`` extra (``pip install repro[accel]``), **not** a
hard dependency: every public entry point of :mod:`repro.accel` falls
back to a pure-Python engine when it is absent.  All optional imports
in the package go through this one module so

- the degraded mode is decided in exactly one place,
- error messages consistently name the extra to install,
- tests can force the no-NumPy path by monkeypatching
  :data:`FORCE_FALLBACK` (no uninstalling required).

Since the bit-sliced big-int engine (:mod:`repro.accel.bitslice`)
joined the scalar loop and the NumPy kernels, "which engine runs this
batch" is a three-way choice resolved here by :func:`resolve_engine`,
in precedence order:

1. an explicit ``engine=`` keyword on the batch entry point;
2. the :data:`FORCE_ENGINE` test hook (monkeypatch seam);
3. the ``BENES_ENGINE`` environment variable;
4. ``auto`` — NumPy when importable (the batch entry points promise
   array results whenever the extra is active, so auto never silently
   changes result types underneath a NumPy caller), otherwise the
   measured scalar-vs-bitslice crossover of
   :mod:`repro.accel.autotune` decides per (order, batch size).
"""

from __future__ import annotations

import os

from ..errors import InvalidParameterError, MissingDependencyError

__all__ = ["numpy_or_none", "require_numpy", "have_numpy",
           "resolve_engine", "composed_order_threshold",
           "DEFAULT_COMPOSED_ORDER", "FORCE_FALLBACK", "FORCE_ENGINE"]

#: Test hook: set to True (e.g. via monkeypatch) to behave as if NumPy
#: were not installed, exercising every pure-Python fallback path.
FORCE_FALLBACK = False

#: Test hook: set to an engine name (or ``"auto"``) to steer every
#: resolution that was not given an explicit ``engine=`` keyword —
#: the monkeypatch equivalent of exporting ``BENES_ENGINE``.
FORCE_ENGINE = None

#: Order at and above which ``auto`` resolution hands batches to the
#: block-composed engine (override: ``BENES_COMPOSED_ORDER``).  Below
#: this, one monolithic state tensor is cheap; at order 14+
#: (N >= 16,384) the O(N/blocks · log N) chunked form wins on both
#: memory and wall time.
DEFAULT_COMPOSED_ORDER = 14


def env_int(name: str, default: int) -> int:
    """The integer in environment variable ``name``, or ``default``
    when it is unset or empty.  Any other non-integer value raises
    :class:`~repro.errors.InvalidParameterError` naming the variable:
    a mistyped knob is a configuration error, not a silent default."""
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        raise InvalidParameterError(
            f"{name} must be an integer, got {raw!r}") from None


def composed_order_threshold() -> int:
    """The auto-pick threshold for the composed engine — the
    ``BENES_COMPOSED_ORDER`` environment variable when set, else
    :data:`DEFAULT_COMPOSED_ORDER`."""
    return env_int("BENES_COMPOSED_ORDER", DEFAULT_COMPOSED_ORDER)

_UNRESOLVED = object()
_numpy = _UNRESOLVED


def numpy_or_none():
    """The ``numpy`` module, or ``None`` when it cannot be imported
    (or when :data:`FORCE_FALLBACK` is set).  The import is attempted
    once and memoized."""
    global _numpy
    if FORCE_FALLBACK:
        return None
    if _numpy is _UNRESOLVED:
        try:
            import numpy
        except ImportError:
            _numpy = None
        else:
            _numpy = numpy
    return _numpy


def have_numpy() -> bool:
    """True when the vectorized paths are available."""
    return numpy_or_none() is not None


def require_numpy(feature: str):
    """Return ``numpy`` or raise a :class:`MissingDependencyError`
    explaining that ``feature`` needs the ``accel`` extra."""
    np = numpy_or_none()
    if np is None:
        raise MissingDependencyError(
            f"{feature} requires NumPy, which is not installed; "
            "install the optional acceleration extra with "
            "`pip install repro[accel]` (or plain `pip install numpy`)"
        )
    return np


def resolve_engine(engine=None, *, order=None, batch_size=None,
                   kind: str = "route") -> str:
    """Resolve a requested engine to a concrete execution engine (a
    registered exec-seam name: ``scalar``, ``numpy``, ``bitslice``,
    ``composed``).

    ``engine`` is the entry point's explicit keyword (``None`` means
    "not specified"); :data:`FORCE_ENGINE` and the ``BENES_ENGINE``
    environment variable fill in for an unspecified engine, and
    ``"auto"`` (the default default) picks by policy:

    - at or above :func:`composed_order_threshold` (default order 14,
      env ``BENES_COMPOSED_ORDER``): the block-composed engine, which
      bounds peak state memory by chunking — the only engine sized for
      orders 16–20;
    - ``kind="route"`` (self-routing, membership, external-state
      routing): NumPy when available, else the measured per-order
      scalar/bitslice crossover of :mod:`repro.accel.autotune` at the
      given ``order`` and ``batch_size``;
    - ``kind="setup"`` (Waksman looping, two-pass factorization):
      NumPy when available, else scalar — the side assignment is
      data-dependent cycle chasing with no bit-sliced formulation, so
      auto never routes it through the bitslice label.

    Requesting ``"numpy"`` without NumPy raises
    :class:`~repro.errors.MissingDependencyError`; an unknown name
    raises :class:`~repro.errors.InvalidParameterError`.

    Validation is delegated to the first-class registry
    (:func:`repro.engines.require_exec`): the accepted names are the
    registered exec-seam engines, so registering a new engine extends
    this seam without touching it.
    """
    requested = engine
    if requested is None:
        requested = FORCE_ENGINE or os.environ.get("BENES_ENGINE") \
            or "auto"
    if requested != "auto":
        # Imported lazily: repro.engines builds its built-in specs on
        # top of this module, so the dependency must point one way at
        # import time.
        from ..engines import require_exec

        require_exec(requested)
        return requested
    if order is not None and order >= composed_order_threshold():
        return "composed"
    if have_numpy():
        return "numpy"
    if kind != "route":
        return "scalar"
    from .autotune import choose_engine

    return choose_engine(order, batch_size)
