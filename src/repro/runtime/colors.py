"""Frame colours as one read-only column.

:class:`ColorColumn` keeps a batch kernel's ``(n, 3)`` float64 result
as a frame's colours and materializes per-pixel tuples only when a
caller indexes or iterates it, so the batch path stays in NumPy from
scene to reply.

Ownership rule: a column owns its buffer.  Results that may be shared
with something a later frame writes in place — a cache column, a scene
geometry column, a view — are copied on
adoption (:func:`color_column`), so a frame already returned never
changes.

Wire form (:meth:`ColorColumn.to_wire` / :meth:`ColorColumn.from_wire`):
the colours as row-major little-endian float64 bytes in base64, so a
frame crosses HTTP bit for bit (NaN sign and payload included) without
a decimal float per component.
"""

from __future__ import annotations

import array
import base64
import binascii
import sys

from .vecops import _column_rows

try:
    import numpy as _np
except ImportError:  # pragma: no cover - NumPy-less installs
    _np = None

#: The one dtype the wire form carries: little-endian float64.
WIRE_DTYPE = "<f8"


class ColorColumn(object):
    """Read-only frame colours in row-major pixel order.

    Behaves like a list of ``(r, g, b)`` tuples: ``len``,
    indexing (negative indices and slices too) and iteration yield
    tuples of Python floats, and ``==``/``!=`` compare against lists
    and other columns.  ``np.asarray(column)`` returns the underlying
    ``(n, 3)`` float64 array without a copy; that array is read-only.
    Without NumPy the column holds a tuple of tuples.
    """

    __slots__ = ("_data",)

    #: Compared by value, so (like a list) unhashable.
    __hash__ = None

    def __init__(self, data):
        """Adopt ``data`` — an ``(n, 3)`` float64 array nothing else
        holds (see :func:`color_column`), made read-only here; a tuple
        of float 3-tuples without NumPy."""
        if _np is not None:
            data.flags.writeable = False
        self._data = data

    @classmethod
    def from_rows(cls, rows):
        """A column holding a copy of per-pixel colour rows."""
        if _np is None:
            return cls(tuple(tuple(float(c) for c in row) for row in rows))
        return cls(_np.array(rows, dtype=_np.float64).reshape(len(rows), 3))

    def __len__(self):
        return len(self._data)

    def __getitem__(self, index):
        data = self._data
        if _np is None:
            return list(data[index]) if isinstance(index, slice) else data[index]
        if isinstance(index, slice):
            return [tuple(row) for row in data[index].tolist()]
        return tuple(data[index].tolist())

    def __iter__(self):
        if _np is None:
            return iter(self._data)
        return map(tuple, self._data.tolist())

    def tolist(self):
        """Per-pixel ``[r, g, b]`` lists of Python floats (the JSON
        reply shape)."""
        if _np is None:
            return [list(row) for row in self._data]
        return self._data.tolist()

    def to_wire(self):
        """``{"dtype": "<f8", "shape": [n, 3], "b64": ...}``: the
        colours' row-major little-endian float64 bytes in base64."""
        if _np is None:
            raw = array.array("d", (c for row in self._data for c in row))
            if sys.byteorder == "big":
                raw.byteswap()
            raw = raw.tobytes()
        else:
            raw = self._data.astype(WIRE_DTYPE, copy=False).tobytes()
        return {
            "dtype": WIRE_DTYPE,
            "shape": [len(self), 3],
            "b64": base64.b64encode(raw).decode("ascii"),
        }

    @classmethod
    def from_wire(cls, wire):
        """The column :meth:`to_wire` encoded, bit for bit.  With NumPy
        (on a little-endian host) the column is a read-only view of the
        decoded bytes, so ``np.asarray`` on it copies nothing.  Raises
        :class:`ValueError` on a malformed payload."""
        if not isinstance(wire, dict):
            raise ValueError("colour payload must be an object, not %s"
                             % type(wire).__name__)
        if wire.get("dtype") != WIRE_DTYPE:
            raise ValueError("colour payload dtype must be %r, got %r"
                             % (WIRE_DTYPE, wire.get("dtype")))
        shape = wire.get("shape")
        if (
            not isinstance(shape, list) or len(shape) != 2
            or shape[1] != 3 or type(shape[0]) is not int or shape[0] < 0
        ):
            raise ValueError("colour payload shape must be [n, 3], got %r"
                             % (shape,))
        text = wire.get("b64")
        if not isinstance(text, str):
            raise ValueError("colour payload has no base64 text")
        try:
            raw = base64.b64decode(text, validate=True)
        except binascii.Error as err:
            raise ValueError("colour payload is not base64: %s" % err)
        n = shape[0]
        if len(raw) != n * 3 * 8:
            raise ValueError(
                "colour payload has %d bytes, shape [%d, 3] needs %d"
                % (len(raw), n, n * 3 * 8)
            )
        if _np is None:
            values = array.array("d")
            values.frombytes(raw)
            if sys.byteorder == "big":
                values.byteswap()
            return cls(tuple(
                tuple(values[k:k + 3]) for k in range(0, 3 * n, 3)
            ))
        data = _np.frombuffer(raw, dtype=WIRE_DTYPE).reshape(n, 3)
        return cls(data.astype(_np.float64, copy=False))

    def __array__(self, dtype=None, copy=None):
        data = self._data
        if copy or (dtype is not None and _np.dtype(dtype) != data.dtype):
            return _np.array(data, dtype=dtype)
        return data

    def __eq__(self, other):
        if other is self:
            # Like a list, equal to itself even with NaN lanes.
            return True
        if isinstance(other, ColorColumn):
            a, b = self._data, other._data
            if _np is None:
                return a == b
            return a.shape == b.shape and bool((a == b).all())
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def __repr__(self):
        return "ColorColumn(%d px)" % len(self)


def color_column(values, n, shared=()):
    """A :class:`ColorColumn` over one kernel result for ``n`` lanes.

    An ``(n, 3)`` float64 result the kernel built fresh is adopted
    without a copy.  It is copied (about 10 µs for 64×64) when it may
    be shared: a view, a read-only
    array (scene geometry), or one of the ``shared`` arrays (the cache
    columns the kernel stored or read).  Row lists (the per-row
    fallback) and uniform results are converted.
    """
    if _np is not None and isinstance(values, _np.ndarray) and values.ndim == 2:
        if (
            values.base is not None
            or not values.flags.writeable
            or not values.flags.c_contiguous
            or values.dtype != _np.float64
            or any(values is column for column in shared)
        ):
            values = _np.array(values, dtype=_np.float64)
        return ColorColumn(values)
    return ColorColumn.from_rows(_column_rows(values, n))
