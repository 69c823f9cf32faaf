"""Shared pieces of the workloads: frame size, the partition set,
seeded control edits, timing and memory probes."""

from __future__ import annotations

import gc
import os
import resource
import subprocess
import sys
import time

import numpy as np

#: Frame edge in pixels; every workload renders 64x64 frames.
SIZE = 64
PIXELS = SIZE * SIZE
#: Latency objective for one interactive frame or request (the daemon's
#: own ``slo_render_ms`` default).
SLO_MS = 250.0
#: Set-ups per run; ``setup_s`` is their median.  (``serve``, whose
#: set-up starts a daemon, does three.)
SETUP_REPEATS = 5

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space for stores and trace files, inside the checkout.
WORK = os.path.join(ROOT, ".renderbench")

now = time.perf_counter


#: Calibration snippet time on the reference host (a 2-core x86 VM);
#: end-to-end times are rescaled to it.
CALIBRATION_REF_S = 1.5e-3

#: Calibration samples in each idle spell, and their spacing (s).
IDLE_SAMPLES = 8
IDLE_GAP_S = 0.03

_CAL_ARRAY = np.linspace(0.0, 1.0, PIXELS)


def _calibration_snippet():
    """Fixed interpreter and NumPy work, the mix the program's kernels
    run: a pure-Python loop and frame-sized array arithmetic."""
    total = 0
    for i in range(6000):
        total += i * i
    column = _CAL_ARRAY
    for _ in range(40):
        column = np.sqrt(column * column + 1.0) - 0.5
    return total


class Calibration(object):
    """Host speed over a run, from a fixed snippet timed while the
    program is idle: between the run's operations in this process, and
    on ``serve`` only while no request is in flight and the daemon does
    no work (never inside a timed span, never beside the program).

    The host these runs share swings by up to 2x within seconds, and
    every timing swings with it.  Scaling a run's times by
    ``CALIBRATION_REF_S / median(snippet times)`` cancels most of the
    run-to-run part of that swing, so end-to-end times read as on the
    reference host; the raw wall times are printed next to them.
    Samples are filed under the current :attr:`phase`, so set-up times
    taken in a block before the timed loop are scaled by the snippets
    run during that block.  (A factor from only the few snippets nearest
    each operation was noisier.)"""

    #: Fewest samples a phase needs before its own factor is used.
    MIN_SAMPLES = 3

    def __init__(self):
        self.samples = []
        self.phases = []
        #: ``"setup"`` or ``"loop"``; the workload sets it.
        self.phase = "loop"

    def sample(self):
        start = now()
        _calibration_snippet()
        self.samples.append(now() - start)
        self.phases.append(self.phase)

    def burst(self, count, gap_s, sleep=time.sleep):
        """``count`` samples ``gap_s`` apart, so that one idle spell
        samples the host over a stretch of time, not one instant."""
        for k in range(count):
            if k:
                sleep(gap_s)
            self.sample()

    def factor(self, phase=None):
        """Multiply a raw time taken in ``phase`` by this to get
        reference-host time (all samples when the phase has too few)."""
        pairs = list(zip(self.phases, self.samples))
        chosen = [s for p, s in pairs if p == phase]
        if len(chosen) < self.MIN_SAMPLES:
            chosen = [s for _, s in pairs]
        if not chosen:
            raise ValueError("no calibration samples")
        chosen.sort()
        return CALIBRATION_REF_S / chosen[len(chosen) // 2]


def freeze_heap():
    """Move every object alive now (interpreter, NumPy, the program's
    and the benchmark's modules) out of the collector's reach, as
    long-running servers do before they fork (``gc.freeze``).  Objects
    the workload creates afterwards are collected as usual.

    Call it after the warm-up, before the first timed operation.  On
    ``drag`` without it, full collections of ~25 ms over that import-time
    heap ran 86 times in a 15 s pass and landed in about 7% of the adjust
    frames; the p95 then tracked the host's memory latency rather than
    the program, and swung 1.5x between runs while the median held."""
    gc.collect()
    gc.freeze()


def partitions():
    """All (shader index, partition parameter) pairs: 131 in all."""
    from repro.shaders.sources import SHADERS

    return [
        (index, param)
        for index in sorted(SHADERS)
        for param in SHADERS[index].control_params
    ]


def controls_of(shader_index):
    from repro.shaders.sources import SHADERS

    return SHADERS[shader_index].default_controls()


def nudge(rng, value):
    """One seeded slider step: a move of up to 5% of the value's
    magnitude (plus a floor, so zero-valued sliders move too)."""
    return value + (rng.random() - 0.5) * 2.0 * 0.05 * (abs(value) + 0.1)


def peak_rss_mb_self():
    """Peak resident set of this process, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def program_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def cold_start_seconds(code, timeout=120.0):
    """Wall time for a fresh interpreter to run ``code`` (which must
    print ``ready`` when done) from the checkout root."""
    start = now()
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=program_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=timeout,
    )
    elapsed = now() - start
    if proc.returncode != 0 or "ready" not in proc.stdout:
        raise RuntimeError(
            "cold start failed (%d): %s"
            % (proc.returncode, proc.stderr[-500:])
        )
    return elapsed


def work_dir(*parts):
    path = os.path.join(WORK, *parts)
    os.makedirs(path, exist_ok=True)
    return path
