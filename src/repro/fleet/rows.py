"""Typed ingest rows on the serve wire: one base64 buffer instead of JSON lists.

An ``ingest`` request's ``rows`` field is either JSON lists (any value
the relation's domains accept) or, for integer rows, the packed form::

    {"dtype": "<i8", "shape": [B, d], "data": "<base64 of the B*d*8 bytes>"}

holding the little-endian int64 row-major buffer.  Packing skips the
per-value JSON text and Python ints on both ends; the daemon decodes the
buffer with one ``np.frombuffer``.  The decoder trusts nothing: the dtype
must be exactly ``<i8``, the shape two ints with ``B >= 0`` and ``d >= 1``,
and the strictly validated base64 exactly ``B*d*8`` bytes long, checked
before any array is built.  ``d >= 1`` ties the row count to the bytes
sent: a zero-width shape would let a few bytes claim any number of rows.
"""

from __future__ import annotations

import base64
import binascii
from typing import Any

import numpy as np
from numpy.typing import NDArray

__all__ = ["DTYPE", "pack_rows", "unpack_rows"]

#: The one packed dtype: little-endian int64.
DTYPE = "<i8"

_ITEMSIZE = 8


def pack_rows(rows: Any) -> dict[str, Any] | None:
    """The packed form of ``rows``, or ``None`` when they must go as lists.

    Packs exactly when ``np.asarray(rows)`` is a 2-d int64 array with at
    least one column — the coercion the daemon applies to list rows — so
    floats, booleans, strings, ragged and zero-width rows keep their list
    form and their dead-letter handling.
    """
    try:
        arr = np.asarray(rows)
    except ValueError:  # ragged nested sequences refuse to coerce
        return None
    if arr.ndim != 2 or arr.dtype != np.int64 or arr.shape[1] == 0:
        return None
    data = np.ascontiguousarray(arr, dtype=DTYPE).tobytes()
    return {
        "dtype": DTYPE,
        "shape": [int(arr.shape[0]), int(arr.shape[1])],
        "data": base64.b64encode(data).decode("ascii"),
    }


def unpack_rows(packed: Any) -> NDArray[np.int64]:
    """Decode a packed ``rows`` object into a read-only ``(B, d)`` int64 array.

    Raises ``ValueError("malformed rows: ...")`` on any deviation from
    the format, before allocating anything sized by the peer's claims.
    """
    if not isinstance(packed, dict):
        raise ValueError("malformed rows: packed rows must be an object")
    if packed.get("dtype") != DTYPE:
        raise ValueError(f"malformed rows: dtype must be {DTYPE!r}, got {packed.get('dtype')!r}")
    shape = packed.get("shape")
    if (
        not isinstance(shape, list)
        or len(shape) != 2
        or not all(type(n) is int for n in shape)
        or shape[0] < 0
        or shape[1] < 1
    ):
        raise ValueError(
            f"malformed rows: shape must be two ints [B >= 0, d >= 1], got {shape!r}"
        )
    data = packed.get("data")
    if not isinstance(data, str):
        raise ValueError("malformed rows: data must be a base64 string")
    expected = shape[0] * shape[1] * _ITEMSIZE
    # Base64 of n bytes is 4 * ceil(n / 3) characters: refuse a length
    # mismatch before decoding anything.
    if len(data) != 4 * -(-expected // 3):
        raise ValueError(
            f"malformed rows: data does not hold {shape[0]}x{shape[1]} int64 values"
        )
    try:
        buffer = base64.b64decode(data, validate=True)
    except (binascii.Error, ValueError) as exc:
        raise ValueError(f"malformed rows: bad base64: {exc}") from exc
    if len(buffer) != expected:
        raise ValueError(
            f"malformed rows: data holds {len(buffer)} bytes, shape needs {expected}"
        )
    rows = np.frombuffer(buffer, dtype=DTYPE).astype(np.int64, copy=False)
    return rows.reshape(shape[0], shape[1])
