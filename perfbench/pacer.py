"""Host-speed reference: a process that repeats a fixed unit of pure-Python
work beside the sample, on the same CPU.

On a shared host the speed of a core changes by 20% within seconds and by
up to 1.6x within minutes, as other tenants come and go, and CPU time moves
with wall time, so raw times of the same code spread further over ten runs
than any useful bound.  run.py therefore pins itself, the samples and this
pacer to one CPU.  The pacer and the sample take turns on it every few
milliseconds, so the pacer's units run at the speed the sample's code runs
at, at the same moments.  Each unit (a breadth-first search of a small
dict-of-tuples graph, the kind of work cubikit does; it uses no cubikit) is
timed in CPU time, and a CPU time of the sample is reported scaled to a
fixed host speed:

    reported = sample CPU time * NOMINAL_S / (mean CPU time of the units
                                             run during that interval)

that is, seconds on a host where one unit takes NOMINAL_S.  Raw CPU times
are kept beside the scaled ones.

    python3 perfbench/pacer.py      # runs units until SIGTERM, then prints
                                    # one JSON list of [end, cpu_s] records
"""

from __future__ import annotations

import bisect
import json
import signal
import statistics
import subprocess
import sys
import time
from collections import deque

# One unit's CPU time on a 2-vCPU x86_64 VM (Python 3.11) in a quiet phase.
NOMINAL_S = 0.003

N = 40            # side of the torus grid searched by one unit
MIN_UNITS = 8     # units that at least go into one interval's speed


def unit():
    adj = {}
    for i in range(N):
        for j in range(N):
            adj[(i, j)] = [((i + di) % N, (j + dj) % N)
                           for di, dj in ((1, 0), (0, 1), (-1, 0), (0, -1))]
    dist = {(0, 0): 0}
    queue = deque([(0, 0)])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return len(dist)


class Pacer:
    """The pacer process; `stop` ends it and returns its records."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, __file__],
                                     stdout=subprocess.PIPE, text=True)
        self.records = None

    def stop(self):
        if self.records is None:
            self.proc.terminate()
            try:
                out, _ = self.proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
                raise
            self.records = json.loads(out) if out.strip() else []
        return self.records

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


class Speed:
    """Scale factors from a pacer's records ([monotonic end, cpu_s])."""

    def __init__(self, records):
        if len(records) < MIN_UNITS:
            raise RuntimeError(f"the pacer ran only {len(records)} units")
        self.ends = [end for end, _ in records]
        self.cpu = [cpu for _, cpu in records]

    def units(self, start, end):
        """CPU times of the units that ended within [start, end], or of the
        MIN_UNITS units around it when fewer did."""
        lo = bisect.bisect_left(self.ends, start)
        hi = bisect.bisect_right(self.ends, end)
        if hi - lo < MIN_UNITS:
            mid = bisect.bisect_left(self.ends, (start + end) / 2)
            lo = max(0, min(mid - MIN_UNITS // 2, len(self.ends) - MIN_UNITS))
            hi = lo + MIN_UNITS
        return self.cpu[lo:hi]

    def scale(self, start, end):
        return NOMINAL_S / statistics.fmean(self.units(start, end))

    def median_unit(self):
        return statistics.median(self.cpu)


def main():
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    records = []
    while not stop:
        c0 = time.process_time()
        unit()
        records.append((time.clock_gettime(time.CLOCK_MONOTONIC),
                        time.process_time() - c0))
    json.dump(records, sys.stdout)


if __name__ == "__main__":
    main()
