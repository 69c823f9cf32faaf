"""Open-loop due-time accounting with a fake clock."""

from renderbench import loadgen


class FakeClock(object):
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def sleep(self, seconds):
        self.t += seconds


def _requests(count, rate, session=0):
    return [
        loadgen.Request(i, session, "drag", {}, None, due)
        for i, due in enumerate(loadgen.due_times(count, rate))
    ]


def test_due_times_follow_the_rate():
    assert loadgen.due_times(4, 2.0) == [0.0, 0.5, 1.0, 1.5]


def test_latency_runs_from_due_time_through_queueing():
    clock = FakeClock()
    requests = _requests(3, 10.0)  # due 0.0, 0.1, 0.2
    durations = iter([0.25, 0.05, 0.05])

    def send(request):
        clock.t += next(durations)
        return 200, {}

    loadgen.drive(requests, send, clock=clock, sleep=clock.sleep)
    # The first reply ends at 0.25, so the second is sent late and its
    # latency charges the wait: sent 0.25, done 0.30, due 0.1.
    assert [r.sent for r in requests] == [0.0, 0.25, 0.30]
    latencies = [round(r.latency, 9) for r in requests]
    assert latencies == [0.25, 0.2, 0.15]
    assert [round(r.round_trip, 9) for r in requests] == [0.25, 0.05, 0.05]


def test_lateness_excludes_waiting_for_the_previous_reply():
    clock = FakeClock()
    requests = _requests(3, 10.0)  # due 0.0, 0.1, 0.2
    # The first request is due at once; its reply takes 0.28, so the
    # next two queue behind it and the sender is never late itself.
    durations = iter([0.28, 0.05, 0.05])

    def sleep(seconds):
        clock.t += seconds + 0.02

    def send(request):
        clock.t += next(durations)
        return 200, {}

    loadgen.drive(requests, send, clock=clock, sleep=sleep)
    assert [round(r.sent, 9) for r in requests] == [0.0, 0.28, 0.33]
    assert [round(r.late, 9) for r in requests] == [0.0, 0.0, 0.0]
    assert [round(r.latency, 9) for r in requests] == [0.28, 0.23, 0.18]


def test_lateness_counts_oversleep():
    clock = FakeClock()
    requests = _requests(2, 10.0)  # due 0.0, 0.1

    def sleep(seconds):
        clock.t += seconds + 0.03

    def send(request):
        clock.t += 0.01
        return 200, {}

    loadgen.drive(requests, send, clock=clock, sleep=sleep)
    # first: no sleep (due now); second: wakes 0.03 after its due time
    assert [round(r.late, 9) for r in requests] == [0.0, 0.03]
    assert round(requests[1].latency, 9) == 0.04


def test_errors_are_kept_and_timed():
    clock = FakeClock()
    requests = _requests(2, 1.0)

    class Refused(Exception):
        status = 429

    def send(request):
        clock.t += 0.01
        raise Refused()

    loadgen.drive(requests, send, clock=clock, sleep=clock.sleep)
    assert all(r.status == 429 for r in requests)
    assert all(isinstance(r.error, Refused) for r in requests)
    assert [round(r.latency, 9) for r in requests] == [0.01, 0.01]


def test_split_keeps_each_session_on_one_sender_in_due_order():
    requests = []
    for i, due in enumerate(loadgen.due_times(12, 4.0)):
        requests.append(loadgen.Request(i, i % 3, "drag", {}, None, due))
    lanes = loadgen.split(list(reversed(requests)), 2)
    assert {r.session for r in lanes[0]} == {0, 2}
    assert {r.session for r in lanes[1]} == {1}
    for lane in lanes:
        assert [r.due for r in lane] == sorted(r.due for r in lane)


def test_keep_shrinks_after_timing():
    clock = FakeClock()
    requests = _requests(1, 1.0)

    def send(request):
        clock.t += 0.5
        return 200, {"colors": [1, 2]}

    loadgen.drive(requests, send, clock=clock, sleep=clock.sleep,
                  keep=lambda reply: "kept")
    assert requests[0].reply == "kept"
    assert requests[0].latency == 0.5
