"""Speed probe: take the host's slow phases out of the timings.

The box this benchmark runs on is a shared microVM whose speed steps
between a fast state and one ~1.45x slower, in phases of 5-10 s (a pure
Python loop completes 56-92 iterations per second over one minute).  A
15 s window that catches a slow phase reads 10 % slower with identical
inputs, which is wider than any bound worth setting.

A probe process times a fixed 1 ms loop fifty times a second for the
whole run.  Its slowdown tracks the main process's (correlation 0.93
second by second), so every duration the benchmark reports is divided
by the probe's local slowdown: timings are in milliseconds of the
box's fast state, ``NOMINAL_MS`` being the probe loop's own time in
that state.  Raw wall-clock figures stay in the run document.
"""

from __future__ import annotations

import bisect
import json
import os
import select
import statistics
import subprocess
import sys
import time
from typing import List, Tuple

#: The probe loop's duration in the box's fast state.
NOMINAL_MS = 0.96
PROBE_NAME = "speed-probe"
PROBE_ITERATIONS = 20_000
PROBE_PERIOD_S = 0.02
#: Probe samples this far either side of an interval set its factor.
NEIGHBOURHOOD_NS = 400_000_000
_STEP_NS = 100_000_000


def _probe_loop() -> int:
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i % 7
    return total


def _probe_main() -> None:
    """Child process: sample until told to stop or the parent goes away.

    One request per line on stdin (``dump`` or ``stop``), one JSON line
    of ``[ended_ns, duration_ns]`` samples per request on stdout.
    """
    samples: List[Tuple[int, int]] = []
    while True:
        started = time.perf_counter_ns()
        _probe_loop()
        ended = time.perf_counter_ns()
        samples.append((ended, ended - started))
        if select.select([sys.stdin], [], [], PROBE_PERIOD_S)[0]:
            message = sys.stdin.readline().strip()
            if not message:
                return  # end of file: the parent is gone
            sys.stdout.write(json.dumps(samples) + "\n")
            sys.stdout.flush()
            samples = []
            if message == "stop":
                return


class SpeedProbe:
    """Local slowdown of the host, sampled by a child process."""

    def __init__(self) -> None:
        # A plain child, not multiprocessing: its spawn context starts a
        # resource tracker that outlives the benchmark by a moment.
        # CLOCK_MONOTONIC is system-wide, so the child's stamps compare
        # with the parent's.
        self._process = subprocess.Popen(
            [sys.executable, "-S", "-E", os.path.abspath(__file__), PROBE_NAME],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._times: List[int] = []
        self._durations: List[int] = []
        try:
            self.sync()  # returns once the child is up and sampling
        except BaseException:
            self.stop()
            raise

    def sync(self) -> None:
        """Fetch the samples taken since the last call."""
        self._extend(self._request("dump"))

    def stop(self) -> None:
        """Fetch the last samples, end the child and wait for it."""
        try:
            if self._process.poll() is None:
                self._extend(self._request("stop"))
        except (OSError, ValueError):
            pass  # the child died; there is nothing more to fetch
        finally:
            self._process.stdin.close()  # end of file stops a live child
            try:
                self._process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self._process.kill()
                self._process.wait()
            self._process.stdout.close()

    def _request(self, message: str) -> List[Tuple[int, int]]:
        self._process.stdin.write(message + "\n")
        self._process.stdin.flush()
        return json.loads(self._process.stdout.readline())

    def _extend(self, samples: List[Tuple[int, int]]) -> None:
        for at, duration in samples:
            self._times.append(at)
            self._durations.append(duration)

    def factor(self, start_ns: int, end_ns: int) -> float:
        """Slowdown around [start, end]: above 1 in a slow phase."""
        lo = bisect.bisect_left(self._times, start_ns - NEIGHBOURHOOD_NS)
        hi = bisect.bisect_right(self._times, end_ns + NEIGHBOURHOOD_NS)
        if hi - lo < 3:
            # Not sampled yet (call sync() first) or the probe starved:
            # fall back to the nearest samples on either side.
            lo, hi = max(0, lo - 5), min(len(self._times), hi + 5)
        if hi <= lo:
            return 1.0
        return statistics.median(self._durations[lo:hi]) / 1e6 / NOMINAL_MS

    def ms(self, start_ns: int, end_ns: int) -> float:
        """The interval's length in fast-state milliseconds."""
        return (end_ns - start_ns) / 1e6 / self.factor(start_ns, end_ns)

    def seconds(self, start_ns: int, end_ns: int) -> float:
        """A long interval's length in fast-state seconds, step by step."""
        total = 0.0
        at = start_ns
        while at < end_ns:
            step_end = min(end_ns, at + _STEP_NS)
            total += (step_end - at) / 1e9 / self.factor(at, step_end)
            at = step_end
        return total


if __name__ == "__main__":
    if sys.argv[1:] == [PROBE_NAME]:
        _probe_main()
