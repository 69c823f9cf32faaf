"""Suite-wide options and the worker-pool leak guard.

``--native-builtins=off`` runs every test with the native builtin
library forced unavailable, so batch kernels use the NumPy noise
mirrors and the lane-at-a-time builtins (the reference path of hosts
without a C compiler).  Tests that exercise the native loops
themselves skip.

Every test must leave no worker pool open, no worker process alive and
no shared-memory arena resident: a test that needs a pool makes its own
and closes it (or drops it, and garbage collection stops it).
"""

import gc
import multiprocessing

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--native-builtins", choices=("auto", "off"), default="auto",
        help="'off' forces the NumPy/lane-at-a-time builtin fallback",
    )


def pytest_configure(config):
    if config.getoption("native_builtins") == "off":
        from repro.runtime import native

        native.TIER = native.NativeBuiltins.disabled(
            "pytest --native-builtins=off"
        )


def _leaks():
    from repro.runtime import batch as B
    from repro.runtime import parallel as P

    return (
        len(P._FORKED),
        len(multiprocessing.active_children()),
        B.shm_resident_bytes(),
    )


@pytest.fixture(autouse=True)
def _no_leaked_pool():
    yield
    if not any(_leaks()):
        return
    # Unreferenced pools and arenas stop and unlink themselves when
    # collected; only what something still holds is a leak.
    gc.collect()
    left = _leaks()
    if any(left):
        from repro.runtime.lifecycle import cleanup_now

        cleanup_now()  # so one leak does not fail every later test
        pytest.fail(
            "test left %d open pool(s), %d live worker process(es) and "
            "%d resident shm byte(s)" % left
        )
