"""Checkpoint state derived from an object's own attributes.

Every synopsis in this package is a linear accumulator: a few arrays
and counts next to structural parameters that a restored engine
rebuilds from the query spec.  :class:`Stateful` derives
``state_dict`` / ``load_state`` from ``vars(self)`` minus the names a
class declares structural in ``_checkpoint_exempt`` (unioned over the
MRO), so a new attribute is checkpointed unless someone says otherwise.

Values are captured by type:

* ``numpy`` arrays are copied, and on load must match the live array's
  shape and dtype exactly;
* nested :class:`Stateful` values become nested dicts and are restored
  *in place*, so estimate closures holding the nested object keep it;
* a ``numpy.random.Generator`` is saved as its bit-generator state, so
  a restored sample draws the same coins the original would have;
* anything else (counts, probabilities) is stored as it is, except
  callables: a function set on an instance is behaviour, not state.

A load whose key set differs from the live object's raises
:class:`StateError`, as does a mismatched array.  This module imports
nothing from :mod:`repro`, so any layer may inherit from it.
"""

from __future__ import annotations

from typing import Any, ClassVar

import numpy as np

__all__ = ["StateError", "Stateful"]


class StateError(ValueError):
    """A state dict does not fit the object it is being loaded into."""


class Stateful:
    """Mixin deriving checkpoint state from instance attributes."""

    #: Structural attributes, rebuilt from the query spec rather than
    #: checkpointed.  Subclasses extend it; the MRO union applies.
    _checkpoint_exempt: ClassVar[tuple[str, ...]] = ()
    _exempt: ClassVar[frozenset[str]] = frozenset()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._exempt = frozenset(
            name
            for klass in cls.__mro__
            for name in vars(klass).get("_checkpoint_exempt", ())
        )

    def state_dict(self) -> dict[str, Any]:
        """Every non-structural attribute, captured by value."""
        exempt = self._exempt
        state: dict[str, Any] = {}
        for key, value in vars(self).items():
            if key in exempt:
                continue
            if isinstance(value, np.ndarray):
                state[key] = value.copy()
            elif isinstance(value, Stateful):
                state[key] = value.state_dict()
            elif isinstance(value, np.random.Generator):
                state[key] = value.bit_generator.state
            elif not callable(value):  # a function set on an instance is behaviour
                state[key] = value
        return state

    def load_state(self, state: dict[str, Any]) -> None:
        """Restore a :meth:`state_dict` capture in place.

        Raises :class:`StateError` on unknown or missing keys and on
        arrays whose shape or dtype differs from the live ones.
        """
        if not isinstance(state, dict):
            raise StateError(f"{type(self).__name__} state must be a dict")
        exempt = self._exempt
        attrs = vars(self)
        loaded = 0
        for key, current in list(attrs.items()):
            if key in exempt or callable(current):
                continue
            if key not in state:
                raise StateError(f"{type(self).__name__} state is missing {key!r}")
            value = state[key]
            loaded += 1
            if isinstance(current, np.ndarray):
                if (
                    not isinstance(value, np.ndarray)
                    or value.shape != current.shape
                    or value.dtype != current.dtype
                ):
                    raise StateError(
                        f"{type(self).__name__}.{key}: got {_describe(value)}, "
                        f"expected {_describe(current)}"
                    )
                attrs[key] = value.copy()
            elif isinstance(current, Stateful):
                current.load_state(value)
            elif isinstance(current, np.random.Generator):
                try:
                    current.bit_generator.state = value
                except (KeyError, TypeError, ValueError) as exc:
                    raise StateError(
                        f"{type(self).__name__}.{key}: bad bit-generator state ({exc})"
                    ) from None
            else:
                attrs[key] = value
        if loaded != len(state):
            unknown = sorted(set(state) - self._state_keys())
            raise StateError(f"{type(self).__name__} state has unknown keys {unknown}")

    def _state_keys(self) -> set[str]:
        """The names :meth:`state_dict` captures."""
        exempt = self._exempt
        return {k for k, v in vars(self).items() if k not in exempt and not callable(v)}


def _describe(value: Any) -> str:
    if isinstance(value, np.ndarray):
        return f"{value.dtype} array of shape {value.shape}"
    return type(value).__name__
