"""Suite-wide options and the child-process leak guard.

``--native-builtins=off`` runs every test with the native builtin
library forced unavailable, so batch kernels use the NumPy noise
mirrors and the lane-at-a-time builtins (the reference path of hosts
without a C compiler).  Tests that exercise the native loops
themselves skip.

Every test must leave no child process of the test process running: a
test that starts one (a ``repro serve`` daemon, a CLI subprocess) stops
it before it returns.
"""

import glob
import os
import signal
import time

import pytest

#: How long a child that was just told to stop may take to exit.
GRACE_S = 2.0


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


def _running_children():
    """Pids of this process's children that have not exited (zombies,
    exited but not yet reaped, do not count)."""
    pids = []
    for path in glob.glob("/proc/self/task/*/children"):
        try:
            with open(path) as handle:
                pids.extend(int(p) for p in handle.read().split())
        except OSError:
            pass
    return [pid for pid in pids if _running(pid)]


def _running(pid):
    try:
        with open("/proc/%d/stat" % pid) as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"


@pytest.fixture(autouse=True)
def _no_leaked_child():
    yield
    deadline = time.monotonic() + GRACE_S
    left = _running_children()
    while left and time.monotonic() < deadline:
        time.sleep(0.05)
        left = _running_children()
    if left:
        for pid in left:  # so one leak does not fail every later test
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        pytest.fail("test left child process(es) %s running" % left)
