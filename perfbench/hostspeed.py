"""Host speed, sampled while a repetition runs.

On a shared virtual machine the speed of one vCPU changes by up to a
factor of two from one second to the next (a fixed pure-Python loop ran
at 34-72 units per 0.1 s within five minutes on a 2-vCPU VM), and the
two vCPUs change independently of each other.  A whole repetition's wall
time follows that speed, so two runs of the same code minutes apart
disagreed by more than any useful bound.

A :class:`Sampler` interrupts the timed program every :data:`INTERVAL`
seconds (``SIGALRM``) and runs a fixed probe for :data:`PROBE_SECONDS`: a
small mix of interpreter work and numpy calls that never touches the
program's state.  The probe's rate in the segments on either side of a
stretch of program time is the host's speed there.  :meth:`Sampler.span`
gives a stretch's program seconds (probe time taken out) and its
*reference seconds*: each segment's program seconds scaled by the
probe's rate there over :data:`REF_RATE`, i.e. how long the stretch
would have taken with the host running the probe at that rate.
"""

from __future__ import annotations

import signal
import time
from typing import List, Tuple

import numpy as np

__all__ = ["INTERVAL", "PROBE_SECONDS", "REF_RATE", "Sampler", "probe_rate"]

#: program seconds between two probes
INTERVAL = 0.06
#: how long one probe runs (after one untimed warm-up unit)
PROBE_SECONDS = 0.004
#: probe units per second that count as reference speed: about the
#: probe's rate on an idle vCPU of a 2-vCPU Xeon (Sapphire Rapids) VM
REF_RATE = 560.0


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


class _Arrays:
    """The probe's own arrays: a small float vector, bitset-sized words."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.small = np.arange(1000, dtype=float) / 500.0
        self.words = rng.integers(0, 2**63, size=(2, 32768), dtype=np.uint64)
        self.floats = rng.random(8192)


def _unit(arrays: _Arrays) -> int:
    """One probe unit, about half interpreter work and half numpy kernels.

    The interpreter half (dict and object churn, a keyed sort) slows down
    more than the numpy half (bitwise ops over 256 KiB of words, a sort,
    a dot product) when the host is contended; the program runs both
    kinds of code, so the probe weighs them about equally.
    """
    counts: dict = {}
    pairs = []
    for i in range(3000):
        key = i % 211
        counts[key] = counts.get(key, 0) + i
        pair = _Pair(i, key)
        pairs.append((pair.a + pair.b, key))
    pairs.sort(key=lambda item: item[1])
    scaled = arrays.small * 1.5
    np.add(scaled, arrays.small, out=scaled)
    found = int(np.count_nonzero(scaled > 1.0))
    for _ in range(5):
        both = arrays.words[0] & arrays.words[1]
        np.bitwise_or(both, arrays.words[0], out=both)
        found += int(np.count_nonzero(both))
        np.sort(arrays.floats)
        found += int(arrays.floats @ arrays.floats)
    return found + len(pairs)


def probe_rate(seconds: float, arrays: _Arrays) -> float:
    """Probe units per second over at least ``seconds``.

    One untimed unit runs first: it refills the caches that the
    program's own work evicted, so the rate follows the host and not
    what the program did just before.
    """
    _unit(arrays)
    start = time.perf_counter()
    units = 0
    while True:
        _unit(arrays)
        units += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return units / elapsed


class Sampler:
    """Probes the host's speed every :data:`INTERVAL` of program time.

    ``samples`` holds ``(start, end, rate)`` per probe, in clock order.
    Use as ``start()`` ... ``stop()`` around the timed call; the first
    and last probe bracket it.  The sampler owns ``SIGALRM`` and the
    real-time interval timer in between; ``stop`` gives them back.
    """

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float, float]] = []
        self._arrays = _Arrays()
        self._armed = False
        self._previous = signal.SIG_DFL

    def _probe(self) -> None:
        began = time.perf_counter()
        rate = probe_rate(PROBE_SECONDS, self._arrays)
        self.samples.append((began, time.perf_counter(), rate))

    def _on_alarm(self, signum, frame) -> None:
        if not self._armed:
            return
        self._probe()
        # one-shot timer re-armed after the probe: every segment of
        # program time between two probes is INTERVAL long
        signal.setitimer(signal.ITIMER_REAL, INTERVAL)

    def start(self) -> None:
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        # system calls the alarm interrupts restart instead of failing
        signal.siginterrupt(signal.SIGALRM, False)
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL)

    def stop(self) -> None:
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()

    def span(self, begin: float, end: float) -> Tuple[float, float]:
        """``(program seconds, reference seconds)`` within ``[begin, end]``.

        Program seconds are the clock time in ``[begin, end]`` outside
        the probes.  Each segment between two probes is scaled by the
        mean of their rates over :data:`REF_RATE`.
        """
        program = reference = 0.0
        for (_, after, rate0), (before, _, rate1) in zip(self.samples, self.samples[1:]):
            seconds = min(before, end) - max(after, begin)
            if seconds > 0:
                program += seconds
                reference += seconds * (rate0 + rate1) / 2.0 / REF_RATE
        return program, reference
