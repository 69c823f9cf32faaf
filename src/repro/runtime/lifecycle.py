"""Signal-driven shutdown hygiene for long-lived processes.

The worker-pool and shared-memory subsystems sweep themselves at clean
interpreter exit (``atexit`` → :func:`~repro.runtime.parallel
.close_open_pools`; each arena's own finalizer).
A daemon killed with SIGTERM/SIGINT never reaches ``atexit``: warm
workers are orphaned and ``repro_shm_*`` segments leak until the next
startup recovery.  This module closes that gap:

* :func:`cleanup_now` — run the resource sweeps.  Idempotent: the
  sweeps tolerate repetition (calling ``cleanup_now`` twice, or racing
  it against ``atexit``, is safe).
* :func:`install_signal_cleanup` — SIGTERM/SIGINT handlers.  Without a
  callback the handler sweeps, restores the previous disposition, and
  re-delivers the signal, so the process still dies
  *by* the signal (honest exit status for service managers).  With a
  callback (the ``repro serve`` daemon) the signal is handed to it
  instead — the daemon owns its graceful-drain sequencing and exits 0.

Handlers can only be installed from the main thread; elsewhere the
install is a recorded no-op (``atexit`` remains the safety net).
"""

from __future__ import annotations

import os
import signal
import threading

_LOCK = threading.Lock()
_PREVIOUS = {}
#: Number of completed cleanup sweeps (observability + tests).
cleanups = 0


def cleanup_now():
    """The idempotent resource sweeps: stop every worker pool no owner
    closed, unlink every live shared-memory arena, and reclaim segments
    orphaned by dead processes.  Returns the number of cleanup sweeps
    completed so far (including this one)."""
    global cleanups
    # Imported lazily so importing lifecycle never drags in NumPy/shm.
    from .batch import reclaim_orphaned_segments, release_all_arenas
    from .parallel import close_open_pools

    close_open_pools()
    release_all_arenas()
    reclaim_orphaned_segments()
    with _LOCK:
        cleanups += 1
        return cleanups


def install_signal_cleanup(callback=None,
                           signals=(signal.SIGTERM, signal.SIGINT)):
    """Install SIGTERM/SIGINT cleanup handlers.

    ``callback(signum)``, when given, receives the signal *instead of*
    the default die-after-cleanup behavior — the ``repro serve`` daemon
    passes one that flips its drain event and exits 0 on its own.
    Returns the list of signals actually installed (empty off the main
    thread, where CPython forbids ``signal.signal``).
    """

    def _handler(signum, frame):
        if callback is not None:
            callback(signum)
            return
        cleanup_now()
        previous = _PREVIOUS.get(signum, signal.SIG_DFL)
        if not callable(previous):
            # SIG_DFL / SIG_IGN (or None from non-Python handlers):
            # re-deliver under the default disposition so the exit
            # status names the signal.
            previous = signal.SIG_DFL
        signal.signal(signum, previous)
        os.kill(os.getpid(), signum)

    installed = []
    for signum in signals:
        try:
            previous = signal.signal(signum, _handler)
        except (ValueError, OSError):  # not the main thread
            continue
        with _LOCK:
            _PREVIOUS.setdefault(signum, previous)
        installed.append(signum)
    return installed


def uninstall_signal_cleanup():
    """Restore the dispositions :func:`install_signal_cleanup` replaced
    (tests; a daemon that finished its own drain)."""
    with _LOCK:
        previous = dict(_PREVIOUS)
        _PREVIOUS.clear()
    for signum, handler in previous.items():
        try:
            signal.signal(
                signum, handler if handler is not None else signal.SIG_DFL
            )
        except (ValueError, OSError):
            pass
