"""Open-loop load generation with due-time accounting.

Requests are due on a fixed schedule (``index / rate`` seconds after
the start) whether or not earlier ones have been answered.  Each
sender thread owns a disjoint set of sessions and sends its requests in
due order, one at a time, so one session never has two requests in
flight.  Latency runs from the due time to the end of the reply, so a
stall also charges the wait it imposes on the requests queued behind
it.  Lateness is how far the sender itself overslept: the send time
minus the later of the due time and the moment the sender became free.
"""

from __future__ import annotations

import threading
import time


class Request(object):
    __slots__ = ("index", "session", "kind", "body", "expect", "due",
                 "sent", "done", "late", "status", "reply", "error")

    def __init__(self, index, session, kind, body, expect, due):
        self.index = index
        self.session = session
        self.kind = kind
        self.body = body
        #: Whatever the checks need to judge the reply.
        self.expect = expect
        #: Seconds after the schedule's start.
        self.due = due
        self.sent = None
        self.done = None
        #: Sender lag: send time minus the later of the due time and the
        #: end of the sender's previous request.
        self.late = None
        self.status = None
        self.reply = None
        self.error = None

    @property
    def latency(self):
        """Due time to the end of the reply (seconds)."""
        return self.done - self.due

    @property
    def round_trip(self):
        return self.done - self.sent


def due_times(count, rate):
    """The fixed schedule: ``count`` requests at ``rate`` per second."""
    return [index / float(rate) for index in range(count)]


def split(requests, senders):
    """Partition requests by session over ``senders`` threads (session
    ``s`` goes to sender ``s % senders``), each list in due order."""
    lanes = [[] for _ in range(senders)]
    for request in sorted(requests, key=lambda r: r.due):
        lanes[request.session % senders].append(request)
    return lanes


def drive(lane, send, clock=time.perf_counter, sleep=time.sleep, start=0.0,
          keep=None):
    """Send one sender's requests at their due times (relative to
    ``start`` on ``clock``).  ``send(request)`` returns ``(status,
    reply)`` or raises; the exception is kept on the request.
    ``keep(reply)``, applied after the reply is timed, may shrink what
    is stored."""
    free_at = 0.0
    for request in lane:
        wait = start + request.due - clock()
        if wait > 0:
            sleep(wait)
        request.sent = clock() - start
        request.late = request.sent - max(request.due, free_at)
        try:
            request.status, request.reply = send(request)
        except Exception as exc:  # kept and counted as a failed request
            request.error = exc
            request.status = getattr(exc, "status", None)
        request.done = clock() - start
        free_at = request.done
        if keep is not None and request.reply is not None:
            request.reply = keep(request.reply)


def run_open_loop(requests, senders, make_send, clock=time.perf_counter,
                  keep=None):
    """Drive ``requests`` from ``senders`` threads; ``make_send()`` gives
    each thread its own ``send`` callable.  Returns the wall seconds from
    the schedule's start to the last reply."""
    lanes = [lane for lane in split(requests, senders) if lane]
    start = clock() + 0.05
    threads = [
        threading.Thread(target=drive, args=(lane, make_send()),
                         kwargs={"clock": clock, "start": start,
                                 "keep": keep},
                         name="renderbench-sender-%d" % k)
        for k, lane in enumerate(lanes)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return max(r.done for r in requests)
