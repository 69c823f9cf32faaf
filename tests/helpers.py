"""Shared test utilities."""

from __future__ import annotations

import math
import struct

from repro.core.specializer import DataSpecializer, SpecializerOptions
from repro.lang.parser import parse_program
from repro.runtime import values as V
from repro.runtime.values import values_close


def specialize_source(src, fn_name, varying, **options):
    """Parse + specialize in one call (tests' main entry)."""
    specializer = DataSpecializer(parse_program(src), SpecializerOptions(**options))
    return specializer.specialize(fn_name, varying)


def assert_specialization_correct(
    src, fn_name, varying, base_args, variants=(), tol=1e-9, **options
):
    """The paper's core correctness contract.

    * the loader, run on ``base_args``, must produce the original's result
      *and* a cache;
    * the reader, run against that cache with any argument list differing
      from ``base_args`` only in the varying inputs, must reproduce the
      original's result on those arguments.

    Returns the specialization for further inspection.
    """
    spec = specialize_source(src, fn_name, varying, **options)
    expected_base, _ = spec.run_original(base_args)
    loader_result, cache, _ = spec.run_loader(base_args)
    assert values_close(loader_result, expected_base, tol), (
        "loader result %r != original %r" % (loader_result, expected_base)
    )
    reader_base, _ = spec.run_reader(cache, base_args)
    assert values_close(reader_base, expected_base, tol), (
        "reader result %r != original %r on base args" % (reader_base, expected_base)
    )

    param_names = list(spec.partition.param_names)
    varying_positions = {
        i for i, name in enumerate(param_names) if name in spec.varying
    }
    for variant in variants:
        for i, (a, b) in enumerate(zip(base_args, variant)):
            if i not in varying_positions:
                assert a == b, (
                    "variant changes fixed input %s" % param_names[i]
                )
        expected, _ = spec.run_original(variant)
        got, _ = spec.run_reader(cache, variant)
        assert values_close(got, expected, tol), (
            "reader %r != original %r for variant %r" % (got, expected, variant)
        )
    return spec


def vary(base_args, param_names, varying_name, value):
    """Copy ``base_args`` with one named parameter replaced."""
    out = list(base_args)
    out[list(param_names).index(varying_name)] = value
    return out


def per_pixel_scene(kind, width, height):
    """Oracle for the column scene builders: the per-pixel loop scenes
    were built with before they became columns.  Returns one
    ``(x, y, u, v, P, N, I)`` tuple per pixel in row-major order, for
    the default parameters of ``sphere_scene``/``wall_scene``."""
    eye = (0.0, 0.0, -5.0)
    pixels = []
    for y in range(height):
        for x in range(width):
            u = (x + 0.5) / width
            v = (y + 0.5) / height
            if kind == "sphere":
                radius, center = 1.5, (0.0, 0.0, 1.0)
                theta = (v - 0.5) * math.pi * 0.8
                phi = (u - 0.5) * math.pi * 0.8
                nx = math.cos(theta) * math.sin(phi)
                ny = math.sin(theta)
                nz = -math.cos(theta) * math.cos(phi)
                N = (nx, ny, nz)
                P = (
                    center[0] + radius * nx,
                    center[1] + radius * ny,
                    center[2] + radius * nz,
                )
            else:
                extent, depth = 2.0, 2.0
                N = (0.0, 0.0, -1.0)
                P = ((u - 0.5) * extent, (v - 0.5) * extent, depth)
            I = V.vnormalize(V.vsub(P, eye))
            pixels.append((x, y, u, v, P, N, I))
    return pixels


#: IEEE bit patterns the binary frame wire must keep: NaNs of either
#: sign with payloads (quiet and signalling), signed zeros, infinities,
#: subnormals and ordinary values; 15 floats, so 5 pixels.
SPECIAL_FLOAT_BITS = (
    0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
    0xFFF00000DEADBEEF, 0x7FFFFFFFFFFFFFFF, 0xFFF4000000000123,
    0x8000000000000000, 0x0000000000000000, 0x7FF0000000000000,
    0xFFF0000000000000, 0x0000000000000001, 0x800FFFFFFFFFFFFF,
    0x3FF0000000000000, 0xBFB999999999999A, 0x7FEFFFFFFFFFFFFF,
)


def special_float_rows():
    """:data:`SPECIAL_FLOAT_BITS` as ``(r, g, b)`` rows of floats."""
    values = [
        struct.unpack("<d", struct.pack("<Q", bits))[0]
        for bits in SPECIAL_FLOAT_BITS
    ]
    return [tuple(values[k:k + 3]) for k in range(0, len(values), 3)]
