"""Measurement harness: speedups, overheads, cache sizes, limit sweeps."""

from .animation import AnimationTrace, animate
from .harness import (
    PartitionMeasurement,
    measure_all_shaders,
    measure_partition,
    measure_shader,
    sweep_values,
)

__all__ = [
    "AnimationTrace",
    "PartitionMeasurement",
    "animate",
    "measure_all_shaders",
    "measure_partition",
    "measure_shader",
    "sweep_values",
]
