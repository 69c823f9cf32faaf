"""Type constants for the kernel language.

The paper's prototype handles a subset of C; its cache slots hold 4-byte
values (Section 5.4 speaks of "4-byte floating-point value[s]").  We mirror
that: ``int`` and ``float`` are 4 bytes, ``vec3`` is three packed floats.
"""

from __future__ import annotations


class Type(object):
    """An interned scalar/vector type.  Compare with ``is``."""

    __slots__ = ("name", "size")

    def __init__(self, name, size):
        self.name = name
        self.size = size

    def __repr__(self):
        return self.name

    def __str__(self):
        return self.name

    def __reduce__(self):
        # Pickling and copying must preserve interning: every consumer
        # compares types with ``is``.
        return (_interned, (self.name,))


def _interned(name):
    return BY_NAME[name]


INT = Type("int", 4)
FLOAT = Type("float", 4)
VEC3 = Type("vec3", 12)
MAT3 = Type("mat3", 36)
VOID = Type("void", 0)

ALL_TYPES = (INT, FLOAT, VEC3, MAT3, VOID)
BY_NAME = {t.name: t for t in ALL_TYPES}


def is_numeric(ty):
    """True for the scalar arithmetic types."""
    return ty is INT or ty is FLOAT


def unify_arith(left, right):
    """Result type of mixed scalar arithmetic (C-style int → float
    promotion); ``None`` when the combination is invalid."""
    if left is INT and right is INT:
        return INT
    if is_numeric(left) and is_numeric(right):
        return FLOAT
    return None


def assignable(target, source):
    """May a value of ``source`` type be stored into ``target``?

    Ints promote to floats implicitly; everything else must match exactly.
    (No implicit float → int truncation: the shaders never want it and the
    analyses are simpler without it.)
    """
    if target is source:
        return True
    return target is FLOAT and source is INT
