"""The ``repro serve`` daemon under concurrency, overload and crash
damage (run with ``-m servesmoke``; deselected by default).

* A real daemon subprocess serves ``SESSIONS`` concurrent edit sessions
  across two tenants — under seeded worker kill/hang chaos on hosts
  with enough cores — and every frame is byte-identical to in-process
  rendering; the SIGTERM drain exits 0 leaving no ``repro_shm_*``
  segment and no store lockfile.
* An in-process service with its admission bound pre-filled sheds a
  whole burst immediately with seeded Retry-After hints, then serves
  the same burst once the permits release.
* A store damaged the way a crash damages it (torn artifact, stale
  lockfile of a dead pid, orphaned shm segment) recovers at startup
  and serves identical frames for every session.
"""

import glob
import os
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.runtime import batch as B
from repro.runtime import parallel as P
from repro.serve import (
    LoadShedError, RenderService, ServiceClient, ServiceConfig,
)
from repro.shaders.render import RenderSession

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SEED = 1996
WIDTH, HEIGHT = 10, 6
SESSIONS = 8
ADJUSTS = 3
SHADER_SWEEP = (1, 3, 5, 8)  # session i drives SHADER_SWEEP[i % 4]
TENANTS = ("alice", "bob")
GATE_MIN_CORES = 4
#: "Never hangs": every shed must answer far inside this bound.
SHED_DEADLINE_S = 5.0
SHED_BURST = 10

requires_chaos_host = pytest.mark.skipif(
    not (B.HAVE_NUMPY and P._fork_available()
         and P.usable_cores() >= GATE_MIN_CORES),
    reason="proc chaos needs numpy, fork and >= %d usable cores (have %d)"
    % (GATE_MIN_CORES, P.usable_cores()),
)


def _reference_frames(shader):
    """In-process frames converted exactly like the service payload."""
    session = RenderSession(shader, width=WIDTH, height=HEIGHT)
    param = session.spec_info.control_params[0]
    edit = session.begin_edit(param)
    base = session.controls[param]
    values = [base * (1.2 + 0.1 * step) + 0.05 for step in range(ADJUSTS)]
    frames = [edit.load(session.controls)]
    for value in values:
        frames.append(edit.adjust(session.controls_with(**{param: value})))
    return param, values, [
        [[float(c) for c in pixel] for pixel in frame.colors]
        for frame in frames
    ]


def _plant_orphan_segment():
    """A ``repro_shm_*`` segment whose creator pid is dead — what a
    crashed worker leaves behind.  Returns its size (0 without POSIX
    shared memory)."""
    if not (B.HAVE_NUMPY and B.HAVE_SHM):
        return 0
    import multiprocessing
    from multiprocessing import shared_memory

    child = multiprocessing.get_context("fork").Process(target=lambda: None)
    child.start()
    child.join()
    name = "repro_shm_%d_424242" % child.pid
    segment = shared_memory.SharedMemory(name=name, create=True, size=4096)
    size = segment.size
    segment.close()
    return size


def _start_daemon(store_dir, chaos):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               PYTHONUNBUFFERED="1")
    argv = [
        sys.executable, "-m", "repro", "serve", "--port", "0",
        "--store", store_dir, "--max-inflight", "16",
        "--max-sessions", "32", "--seed", str(SEED),
    ]
    if chaos:
        argv += [
            "--workers", "2", "--tile", "15", "--inject-proc-rate", "0.25",
            "--inject-seed", str(SEED), "--pool-deadline-ms", "500",
        ]
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    match = re.search(r"http://([\d.]+):(\d+)", line)
    assert match, "daemon announce missing: %r" % line
    return proc, "http://%s:%s" % (match.group(1), match.group(2))


def _drive_session(url, shader, tenant, references, errors):
    param, values, expected = references[shader]
    try:
        client = ServiceClient(url, timeout_s=60.0, tenant=tenant)
        sid = client.create_session(shader, WIDTH, HEIGHT)["session"]
        frames = [client.render(sid, param=param)["colors"].tolist()]
        for value in values:
            frames.append(
                client.render(sid, controls={param: value})["colors"].tolist()
            )
        if frames != expected:
            errors.append("shader %d: frames differ from in-process"
                          % shader)
    except Exception as exc:  # noqa: BLE001 - reported per session
        errors.append(repr(exc))


@pytest.mark.servesmoke
@pytest.mark.parametrize(
    "chaos", [False, pytest.param(True, marks=requires_chaos_host)]
)
def test_daemon_serves_concurrent_sessions(tmp_path, chaos):
    store_dir = str(tmp_path / "store")
    references = {s: _reference_frames(s) for s in set(SHADER_SWEEP)}
    proc, url = _start_daemon(store_dir, chaos)
    try:
        errors = []
        threads = [
            threading.Thread(
                target=_drive_session,
                args=(url, SHADER_SWEEP[i % len(SHADER_SWEEP)],
                      TENANTS[i % len(TENANTS)], references, errors),
            )
            for i in range(SESSIONS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert not errors, "daemon sessions failed: %s" % errors
        pid = proc.pid
        proc.send_signal(signal.SIGTERM)
        rc = proc.wait(timeout=60)
        assert rc == 0, "daemon exited %d after SIGTERM" % rc
        leftovers = [name for name in glob.glob("/dev/shm/repro_shm_*")
                     if ("_%d_" % pid) in name]
        assert not leftovers, "daemon leaked shm: %s" % leftovers
        locks = glob.glob(os.path.join(store_dir, "*", ".lock"))
        assert not locks, "daemon left store lockfiles: %s" % locks
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)


@pytest.mark.servesmoke
def test_full_admission_sheds_immediately(tmp_path):
    service = RenderService(
        ServiceConfig(store_dir=str(tmp_path), max_inflight=2,
                      retry_after_s=0.5, seed=SEED, recover=False),
        obs=False,
    )
    sid = service.create_session("t", SHADER_SWEEP[0], WIDTH,
                                 HEIGHT)["session"]
    permits = [service.admission.admit("hog") for _ in range(2)]
    hints = []
    worst_s = 0.0
    try:
        for _ in range(SHED_BURST):
            started = time.monotonic()
            with pytest.raises(LoadShedError) as shed:
                service.render(sid)
            hints.append(shed.value.retry_after_s)
            worst_s = max(worst_s, time.monotonic() - started)
    finally:
        for permit in permits:
            permit.__exit__(None, None, None)
    assert worst_s < SHED_DEADLINE_S, (
        "a shed took %.2fs — shedding must never hang" % worst_s
    )
    assert all(0.5 <= hint < 1.0 for hint in hints), hints
    for _ in range(SHED_BURST):
        service.render(sid)
    service.drain(timeout_s=1.0)


@pytest.mark.servesmoke
def test_crash_damaged_store_recovers_every_session(tmp_path):
    store_dir = str(tmp_path)
    seeded = RenderService(ServiceConfig(store_dir=store_dir, recover=False),
                           obs=False)
    shaders = sorted(set(SHADER_SWEEP))
    baseline = {}
    for shader in shaders:
        sid = seeded.create_session("t", shader, WIDTH, HEIGHT)["session"]
        baseline[shader] = seeded.render(sid)["colors"]
    artifacts = sorted(
        os.path.join(store_dir, name) for name in os.listdir(store_dir)
        if os.path.isdir(os.path.join(store_dir, name))
    )
    with open(os.path.join(artifacts[0], "loader.ds"), "a") as handle:
        handle.write("// torn write\n")
    with open(os.path.join(artifacts[1], ".lock"), "w") as handle:
        handle.write("4194303\n")
    planted = _plant_orphan_segment()

    service = RenderService(ServiceConfig(store_dir=store_dir, recover=True),
                            obs=False)
    store = service.recovery["store"]
    assert store["respecialized"] == 1, store
    assert store["stale_locks"] == 1, store
    assert not service.store.lock_files()
    assert service.recovery["shm_bytes"] >= planted, (
        "orphaned segment not reclaimed"
    )
    recovered = []
    for shader in shaders:
        sid = service.create_session("t", shader, WIDTH, HEIGHT)["session"]
        recovered.append(service.render(sid)["colors"] == baseline[shader])
    assert all(recovered), "recovered-session rate below 1.0: %s" % recovered
    service.drain(timeout_s=1.0)
