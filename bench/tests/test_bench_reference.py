"""Measuring time in kernel runs sampled around it."""

import signal
import time

from bench.reference import Reference


class Clock:
    """A clock that advances only when told to, or when the kernel runs."""

    def __init__(self) -> None:
        self.now = 0.0
        self.cost = 1.0

    def __call__(self) -> float:
        return self.now

    def kernel(self) -> None:
        self.now += self.cost


def sampled_at(*samples) -> Reference:
    """A reference with one-run samples ``(time, kernel time)``."""
    clock = Clock()
    ref = Reference(repeats=1, clock=clock, work=clock.kernel)
    for t, cost in samples:
        clock.now, clock.cost = t, cost
        ref.sample()
    return ref


def test_sample_is_the_median_of_its_repeats():
    clock = Clock()
    costs = iter([1.0, 9.0, 2.0])

    def work():
        clock.now += next(costs)

    ref = Reference(clock=clock, work=work)
    ref.sample()
    assert list(ref.durations) == [2.0] and ref.spent == 12.0
    assert (ref.starts[0], ref.ends[0]) == (0.0, 12.0)


def test_cost_divides_each_stretch_by_the_kernel_time_at_its_ends():
    # Samples occupy [0, 1], [10, 13] and [20, 25].
    ref = sampled_at((0.0, 1.0), (10.0, 3.0), (20.0, 5.0))
    assert ref.cost(1.0, 10.0) == 9.0 / 2
    # [5, 23]: 5 s at mean(1, 3), 7 s at mean(3, 5); samples left out.
    assert ref.cost(5.0, 23.0) == 5.0 / 2 + 7.0 / 4
    # Before the first and after the last sample: that sample's time.
    assert ref.cost(-4.0, -2.0) == 2.0
    assert ref.cost(25.0, 35.0) == 2.0
    assert ref.sampled(5.0, 23.0) == 6.0
    assert ref.sampled(0.5, 11.0) == 1.5
    assert ref.median() == 3.0


def test_sampling_block_samples_on_a_timer_and_stops_after():
    ref = Reference(every=0.05, repeats=1)
    handler = signal.getsignal(signal.SIGALRM)
    with ref.sampling():
        end = time.perf_counter() + 0.4
        while time.perf_counter() < end:
            pass
    n = len(ref.starts)
    assert n >= 4
    time.sleep(0.15)
    assert len(ref.starts) == n
    assert signal.getsignal(signal.SIGALRM) is handler
