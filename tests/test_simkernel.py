"""Event engine: ordering, determinism, cancellation; substream seeds."""

import random

import pytest

from icnsim.simkernel import Engine, substream_seed


def test_fifo_order_for_equal_timestamps():
    engine = Engine()
    fired = []
    for i in range(20):
        engine.schedule(100, fired.append, i)
    engine.run_until(1000)
    assert fired == list(range(20))


def test_time_order_beats_scheduling_order():
    engine = Engine()
    fired = []
    engine.schedule(300, fired.append, "late")
    engine.schedule(100, fired.append, "early")
    engine.schedule(200, fired.append, "middle")
    engine.run_until(1000)
    assert fired == ["early", "middle", "late"]


def test_now_tracks_firing_time_and_ends_at_horizon():
    engine = Engine()
    seen = []
    engine.schedule(250, lambda: seen.append(engine.now))
    engine.schedule(700, lambda: seen.append(engine.now))
    executed = engine.run_until(1000)
    assert executed == 2
    assert seen == [250, 700]
    assert engine.now == 1000


def test_events_beyond_horizon_stay_queued():
    engine = Engine()
    fired = []
    engine.schedule(50, fired.append, "in")
    engine.schedule(5000, fired.append, "out")
    engine.run_until(100)
    assert fired == ["in"]
    assert engine.pending() == 1
    engine.run_until(10_000)
    assert fired == ["in", "out"]


def test_cascading_events_interleave_within_one_run():
    engine = Engine()
    fired = []

    def first():
        fired.append(("first", engine.now))
        engine.schedule(10, second)

    def second():
        fired.append(("second", engine.now))

    engine.schedule(100, first)
    engine.schedule(105, fired.append, ("between", 105))
    engine.run_until(1000)
    assert fired == [("first", 100), ("between", 105), ("second", 110)]


def test_cancel_prevents_execution():
    engine = Engine()
    fired = []
    keep = engine.schedule(10, fired.append, "keep")
    drop = engine.schedule(10, fired.append, "drop")
    engine.cancel(drop)
    engine.run_until(100)
    assert fired == ["keep"]
    assert keep != drop


def test_cancel_after_firing_is_a_noop():
    engine = Engine()
    fired = []
    ev = engine.schedule(10, fired.append, "x")
    engine.run_until(100)
    engine.cancel(ev)
    engine.run_until(200)
    assert fired == ["x"]


@pytest.mark.parametrize("args", [(), ("one",), (1, "two", None, (3,), 5)])
def test_event_is_called_with_exactly_its_args(args):
    engine = Engine()
    calls = []
    engine.schedule(10, lambda *got: calls.append((engine.now, got)), *args)
    engine.run_until(100)
    assert calls == [(10, args)]


def test_pending_event_is_one_flat_entry():
    """A queued event holds its args in its heap entry, with no separate
    args tuple per event."""
    engine = Engine()
    action = print
    engine.schedule(10, action, "a", 2)
    engine.schedule(20, action)
    assert sorted(engine._heap) == [(10, 0, action, "a", 2), (20, 1, action)]


def test_cancelled_event_with_args_never_runs():
    engine = Engine()
    fired = []

    def record(*args):
        fired.append(args)

    engine.schedule(10, record, "keep", 1)
    drop = engine.schedule(10, record, "drop", 2, 3)
    engine.schedule(20, record, "later", 4)
    engine.cancel(drop)
    engine.run_until(100)
    assert fired == [("keep", 1), ("later", 4)]
    assert engine.pending() == 0


def test_dispatch_shim_call_shape():
    """A shim scheduled as schedule(d, dispatch, nid, action, args), as
    the benchmark tracer does, gets the action and its args tuple whole."""
    engine = Engine()
    seen = []

    def dispatch(nid, action, args):
        seen.append(nid)
        action(*args)

    fired = []
    engine.schedule(5, dispatch, 7, lambda *got: fired.append(got),
                    (1, ("nested",), "x"))
    engine.schedule(6, dispatch, 8, lambda: fired.append("no args"), ())
    engine.run_until(10)
    assert seen == [7, 8]
    assert fired == [(1, ("nested",), "x"), "no args"]


def test_negative_delay_rejected():
    engine = Engine()
    with pytest.raises(ValueError):
        engine.schedule(-1, lambda: None)


def test_running_backwards_rejected():
    engine = Engine()
    engine.run_until(100)
    with pytest.raises(ValueError):
        engine.run_until(50)


def test_schedule_at_absolute_time():
    engine = Engine()
    engine.run_until(500)
    seen = []
    engine.schedule_at(800, lambda: seen.append(engine.now))
    engine.run_until(1000)
    assert seen == [800]


def _random_workload(seed: int, events: int = 10_000):
    """Random delays plus occasional cascades; returns the firing order."""
    engine = Engine()
    rng = random.Random(seed)
    cascade = random.Random(substream_seed(seed, "cascade"))
    order = []

    def fire(tag):
        order.append((engine.now, tag))
        if cascade.random() < 0.2:
            engine.schedule(cascade.randrange(1, 50), fire, ("child", tag))

    for i in range(events):
        engine.schedule(rng.randrange(1, 100_000), fire, i)
    engine.run_until(10_000_000)
    return order


def test_replay_same_seed_identical_order():
    assert _random_workload(7) == _random_workload(7)


def test_different_seed_diverges():
    assert _random_workload(7) != _random_workload(8)


def test_order_matches_reference_scheduler():
    """Cross-check against an independent sorted-list scheduler."""
    rng = random.Random(99)
    plan = [(rng.randrange(0, 1000), i) for i in range(500)]

    engine = Engine()
    got = []
    for delay, tag in plan:
        engine.schedule(delay, got.append, tag)
    engine.run_until(2000)

    reference = [tag for _, _, tag in
                 sorted((t, seq, tag) for seq, (t, tag) in enumerate(plan))]
    assert got == reference


def test_substream_seed_stable_and_distinct():
    assert substream_seed(1, "a") == substream_seed(1, "a")
    assert substream_seed(1, "a") != substream_seed(1, "b")
    assert substream_seed(1, "a") != substream_seed(2, "a")

