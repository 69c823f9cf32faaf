"""Frame colours as one read-only column.

:class:`ColorColumn` keeps a batch kernel's ``(n, 3)`` float64 result
as a frame's colours and materializes per-pixel tuples only when a
caller indexes or iterates it, so the batch path stays in NumPy from
scene to reply.

Ownership rule: a column owns its buffer.  Results that may be shared
with something a later frame writes in place — a cache column, a scene
geometry column, a shared-memory segment, a tile view — are copied on
adoption (:func:`color_column`), so a frame already returned never
changes.
"""

from __future__ import annotations

from .vecops import _column_rows

try:
    import numpy as _np
except ImportError:  # pragma: no cover - NumPy-less installs
    _np = None


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
    be shared: a view (tile slice, shared-memory segment), a read-only
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


def join_colors(parts):
    """One owned :class:`ColorColumn` from per-tile ``(values, lanes)``
    results in frame order (the tiled scheduler's assembly)."""
    if _np is None:
        rows = []
        for values, lanes in parts:
            rows.extend(_column_rows(values, lanes))
        return ColorColumn.from_rows(rows)
    arrays = []
    for values, lanes in parts:
        if not (isinstance(values, _np.ndarray) and values.ndim == 2):
            values = _np.array(
                _column_rows(values, lanes), dtype=_np.float64
            ).reshape(lanes, 3)
        arrays.append(values)
    # concatenate always allocates, so the frame never aliases a tile
    # view or the reusable shared-memory result arena.
    return ColorColumn(_np.concatenate(arrays, dtype=_np.float64))
