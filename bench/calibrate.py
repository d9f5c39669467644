"""Machine-speed calibration for CPU times measured on a shared host.

The cores of a shared machine switch between fast and slow states for
seconds to minutes at a time (a fixed Fraction loop's CPU time swings by up
to 1.8x on a 2-core VM while nothing else of the benchmark runs), so raw CPU
times of two runs of the same code can differ by more than any useful bound.
The benchmark therefore runs a fixed reference chunk between requests and
reports times in *reference seconds*: CPU seconds scaled by
``REFERENCE_S / mean chunk time`` over the run.  The CPU time of a stretch of
work is proportional to the time average of the core's slowness, which the
mean of chunk times spread over the same stretch estimates; a median would
pick one of the two levels.  The chunk does the same kind of work as the
package (Fraction Gauss-Jordan elimination in pure Python) and does not
touch the package, so a change to the program cannot move it.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.010
# CPU time between chunks; sets the calibration overhead to about 4%
INTERVAL_S = 0.25


def chunk() -> float:
    """Run the reference work once; return the CPU time it took."""
    start = time.process_time()
    n = 7
    for rep in range(10):
        m = [[Fraction((i * 7 + j * 13 + rep) % 11 - 5) for j in range(n)] for i in range(n)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
            if pivot is None:
                continue
            m[col], m[pivot] = m[pivot], m[col]
            lead = m[col][col]
            m[col] = [x / lead for x in m[col]]
            for r in range(n):
                if r != col and m[r][col] != 0:
                    factor = m[r][col]
                    m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return time.process_time() - start


class Clock:
    """Interleaves reference chunks with measured work and scales its times."""

    def __init__(self) -> None:
        self.chunks: list[float] = []
        self._since = time.process_time()

    def tick(self) -> None:
        """Run a chunk if ``INTERVAL_S`` of CPU time passed since the last one."""
        if not self.chunks or time.process_time() - self._since >= INTERVAL_S:
            self.chunks.append(chunk())
            self._since = time.process_time()

    def scale(self) -> float:
        """Reference seconds per CPU second over the chunks run so far."""
        return REFERENCE_S / statistics.fmean(self.chunks)
