"""Machine-speed calibration: the canary and the speedometer.

This box changes speed under the benchmark.  Two regimes were seen
while the suite was written: whole half-minutes in which everything
runs 40 % slower, and stretches in which the sibling CPU is busy and a
tight loop slows 10 % while the program — many code objects, a cold
instruction cache — slows 30 %.  Ten raw runs of one workload spread
28 % between quartiles, wider than any bound a regression gate could
use.

The **canary** is a fixed piece of pure-Python work that knows nothing
of the program, in two halves because the machine's moods hit the two
kinds of work differently: several hundred distinct generated functions
(slicing, dict updates, string methods, a sort) called once each in a
fixed shuffled order — like the program they live on the interpreter's
dispatch and the instruction cache — and one tight integer loop of
about the same duration.  Under a busy sibling CPU the function walk
tracks the program within 3 % where the loop alone is off by 20 %; in
the whole-machine slow spells the walk alone over-reacts by 15 % and
the pair is right.

A :class:`Speedometer` samples the canary between the operations of a
pass, a :class:`StretchTimer` samples it from a timer signal through one
opaque call (a set-up, a harvest); both turn wall seconds into
**calibrated** seconds: what the work would have taken with the canary
at :data:`REFERENCE_MS`.  Time spent waiting (a realtime host's latency)
is not CPU time and is never scaled.
"""

from __future__ import annotations

import random
import signal
import statistics
import time

__all__ = ["Canary", "Speedometer", "StretchTimer", "REFERENCE_MS"]

#: What one canary sample takes on this box when nothing disturbs it;
#: the speed at which calibrated and raw milliseconds coincide.
REFERENCE_MS = 0.80
N_FUNCTIONS = 600
#: Sized so the loop takes about as long as the function walk.
LOOP_ITERATIONS = 7_000
SAMPLE_EVERY_S = 0.04
#: A sample is smoothed with this many neighbours on each side.
SMOOTHING = 2

_TEMPLATE = """
def canary_{i}(table, text, k):
    a = k * {m} % 97
    piece = text[{s}:{e}] + "{i}"
    table[piece] = table.get(piece, 0) + a
    if a % {d} == 0:
        piece = piece.upper()
    else:
        piece = piece.replace("{r}", "x")
    triple = [a, len(piece), {i}]
    triple.sort()
    return (piece, triple[{p}])
"""


class Canary:
    """The fixed workload; build once per process, sample many times."""

    def __init__(self) -> None:
        source = "".join(
            _TEMPLATE.format(
                i=i, m=i + 3, s=i % 7, e=i % 7 + 9, d=i % 5 + 2, r=i % 10, p=i % 3
            )
            for i in range(N_FUNCTIONS)
        )
        namespace: dict = {}
        exec(compile(source, "<canary>", "exec"), namespace)
        self._functions = [namespace[f"canary_{i}"] for i in range(N_FUNCTIONS)]
        random.Random(3).shuffle(self._functions)

    def sample_ms(self) -> float:
        """Time the second of two rounds.

        The first round brings the canary's own code and data back into
        the caches, so a sample reads the same whether the program ran
        just before it (between operations) or another sample did
        (around a set-up).
        """
        self._round()
        started = time.perf_counter()
        self._round()
        return (time.perf_counter() - started) * 1000.0

    def _round(self) -> None:
        table: dict = {}
        text = "the quick brown fox jumps over the lazy dog"
        for k, function in enumerate(self._functions):
            function(table, text, k)
        total = 0
        for value in range(LOOP_ITERATIONS):
            total += value * value


class Speedometer:
    """Canary samples through one timed stretch."""

    def __init__(self, canary: Canary) -> None:
        self._canary = canary
        self.samples: list[float] = []
        self.sample(3)

    def sample(self, times: int = 1) -> None:
        self.samples.extend(self._canary.sample_ms() for _ in range(times))
        self._last = time.perf_counter()

    def tick(self) -> int:
        """Sample if the last one is stale; returns the newest sample's index.

        Call between operations, outside their timed region.
        """
        if time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.sample()
        return len(self.samples) - 1

    @property
    def canary_ms(self) -> float:
        return statistics.median(self.samples)

    def slowdown_near(self, index: int) -> float:
        """How much slower than reference the machine ran around one sample
        (1 = at it): the median of the sample and its neighbours."""
        window = self.samples[max(0, index - SMOOTHING) : index + SMOOTHING + 1]
        return statistics.median(window) / REFERENCE_MS


class StretchTimer:
    """Calibrated seconds of one opaque CPU-bound call.

    A timer signal interrupts the call every :data:`SAMPLE_EVERY_S`;
    the handler takes a canary sample, credits the slice of work since
    the previous sample at that sample's speed, and keeps its own time
    out of the account.  Main thread only, like every signal handler.
    """

    def __init__(self, canary: Canary) -> None:
        self._canary = canary
        self.calibrated_s = 0.0
        self._last = 0.0

    def _credit(self, *_signal_args) -> None:
        arrived = time.perf_counter()
        sample = self._canary.sample_ms()
        self.calibrated_s += (arrived - self._last) * REFERENCE_MS / sample
        self._last = time.perf_counter()

    def run(self, action):
        """``action()``; afterwards :attr:`calibrated_s` holds its duration."""
        previous = signal.signal(signal.SIGALRM, self._credit)
        self._last = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            return action()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            self._credit()
            signal.signal(signal.SIGALRM, previous)
