"""One cold sample of a workload, run in a fresh interpreter by run.py.

Usage: python3 perfbench/sample.py WORKLOAD SEED SIZE MODE

MODE is "plain", "traced" or "setup".  Prints one JSON object: the
monotonic time at which set-up ended and the process's CPU time until then
(interpreter start, imports and input generation) and, unless MODE is
"setup", each job's CPU time and monotonic start and end, the counts, the
checked operations and (when traced) the spans.  run.py scales the CPU
times by the pacer's speed over the same intervals.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv):
    workload, seed, size, mode = argv[0], int(argv[1]), argv[2], argv[3]
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    import cubikit

    if not os.path.abspath(cubikit.__file__).startswith(src + os.sep):
        raise SystemExit(f"cubikit imported from {cubikit.__file__}, "
                         f"not from {src}")
    import workloads
    from runner import Runner

    R = Runner(mode == "traced")
    state = workloads.setup(workload, R, seed, size)
    setup_cpu = time.process_time()
    setup_done = monotonic()
    if mode == "setup":
        print(json.dumps({"setup_done": setup_done, "setup_cpu": setup_cpu}))
        return
    windows = {}
    for name, job in workloads.jobs(workload, R.traced):
        start = monotonic()
        with R.job(name):
            job(R, state)
        windows[name] = (start, monotonic())
    out = R.report()
    out["setup_done"] = setup_done
    out["setup_cpu"] = setup_cpu
    out["windows"] = windows
    out["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["block_maps"] = state.get("block_maps", {})
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
