"""Host-speed gauge: a fixed reference block timed all through a run.

On a shared machine the speed of a CPU changes by up to 1.7x, in phases
from a fraction of a second to several minutes.  Raw wall-clock times of
one commit then drift by tens of percent between runs a few minutes
apart, more than any change worth measuring.

While a ``SpeedGauge`` is active, a SIGALRM handler runs
``reference_block`` (exact rational elimination and table relabelling in
plain Python: the kind of work pseudobe does, but none of its code) every
``INTERVAL_S``, in the one thread the benchmark has, in between the
program's own bytecodes.  ``scale`` turns each op's (start, end) into
seconds at the nominal host speed: the time between two consecutive
reference blocks is multiplied by ``NOMINAL_S`` over the mean duration of
those two blocks, and the blocks themselves are left out.  A slower
program still reads slower; a slower host does not.
"""

from __future__ import annotations

import itertools
import signal
import time
from fractions import Fraction

# Duration of one reference block on the host the first numbers were taken
# on, in its fast phases; the scale of every reported timing.
NOMINAL_S = 0.0047
INTERVAL_S = 0.1
BLOCK_REPEATS = 5


def _eliminate() -> list:
    m = [
        [Fraction((i * 7 + j * 3) % 11 - 5, (i + j) % 4 + 1) for j in range(7)]
        for i in range(6)
    ]
    for c in range(6):
        pivot = m[c][c] or Fraction(1)
        m[c] = [v / pivot for v in m[c]]
        for r in range(6):
            if r != c:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return m


def _relabel() -> tuple:
    t = tuple(tuple((i * j + i) % 5 for j in range(5)) for i in range(5))
    best = None
    for perm in itertools.permutations(range(1, 5)):
        p = (0, *perm)
        cand = tuple(tuple(p[t[p[i]][p[j]]] for j in range(5)) for i in range(5))
        if best is None or cand < best:
            best = cand
    return best


def reference_block() -> tuple[float, float]:
    """(start, end) of a fixed amount of reference work."""
    t0 = time.perf_counter()
    for _ in range(BLOCK_REPEATS):
        _eliminate()
        _relabel()
    return t0, time.perf_counter()


class SpeedGauge:
    """Context manager sampling the host speed while ops run.

    Blocks are timed on entry, every ``INTERVAL_S`` after the previous one
    ended, and on exit; every op must start and end inside the context.
    """

    def __init__(self) -> None:
        self.blocks: list[tuple[float, float]] = []
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        self.blocks.append(reference_block())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def __enter__(self) -> "SpeedGauge":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.blocks.append(reference_block())

    def block_seconds(self) -> list[float]:
        return [b - a for a, b in self.blocks]

    def scale(self, times: list[tuple[float, float]]) -> list[tuple[float, float]]:
        """(raw, scaled) seconds of each op, reference blocks left out.

        ``times`` are the ops' (start, end) in time order.
        """
        gaps = [
            (self.blocks[k][1], self.blocks[k + 1][0],
             NOMINAL_S * 2 / (self.blocks[k][1] - self.blocks[k][0]
                              + self.blocks[k + 1][1] - self.blocks[k + 1][0]))
            for k in range(len(self.blocks) - 1)
        ]
        out = []
        k = 0
        for t0, t1 in times:
            while k < len(gaps) - 1 and gaps[k][1] <= t0:
                k += 1
            raw = scaled = 0.0
            j = k
            while j < len(gaps) and gaps[j][0] < t1:
                lo, hi, factor = gaps[j]
                part = min(hi, t1) - max(lo, t0)
                if part > 0:
                    raw += part
                    scaled += part * factor
                j += 1
            out.append((raw, scaled))
        return out


def scaled_call(fn) -> tuple[float, float]:
    """(raw, scaled) seconds of ``fn()``, which returns its own seconds;
    scaled by reference blocks timed just before and just after it."""
    a0, a1 = reference_block()
    raw = fn()
    b0, b1 = reference_block()
    return raw, raw * NOMINAL_S * 2 / (a1 - a0 + b1 - b0)
