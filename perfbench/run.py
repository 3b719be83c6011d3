"""cubikit benchmark.

    python3 perfbench/run.py --workload construct|walls|tracks --seed N
                             --seconds S --trace 0|1

Runs cold samples of the workload, each in a fresh interpreter
(perfbench/sample.py), until the next one would end after S seconds.  With
--trace 0 every sample is untraced, set-up-only samples fill the time left,
and the last line of stdout is a JSON object with the end-to-end metrics;
with --trace 1 traced and untraced samples alternate and the metrics are the
per-layer ones.  The run pins itself to one CPU, where the samples share
it with a pacer process (perfbench/pacer.py); times are the samples' CPU
times scaled by the pacer's speed over the same intervals.  The samples,
their spans and the environment are written to .perfbench/ at the end.

A checked operation has the same id in every sample of a run; `attempted`
counts the distinct ids and `failed` those that failed in any sample, so
both are the same for every run of the same code and seed, however many
samples fit in the run.

All samples of one run share the inputs made from --seed and a
PYTHONHASHSEED derived from it (set order steers early exits in the code
under test).  cubikit is imported from ./src of the checkout; without it
the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
import zlib
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import pacer  # noqa: E402
from config import KNOWN_DEFECTS, SIZES, WORKLOADS  # noqa: E402

# A run must end within 180 s; no sample starts after this much of it.
HARD_LIMIT_S = 165


class SampleError(RuntimeError):
    pass


def monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def hash_seed(workload, seed):
    return zlib.crc32(f"{workload}:{seed}".encode())


def run_sample(workload, seed, size, mode, timeout):
    """One sample in a fresh interpreter; mode is plain, traced or setup."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed(workload, seed)))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    cmd = [sys.executable, str(HERE / "sample.py"), workload, str(seed), size,
           mode]
    start = monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise SampleError(f"sample exceeded {timeout:.0f} s") from exc
    end = monotonic()
    if proc.returncode != 0:
        raise SampleError(proc.stderr.strip()[-2000:] or
                          f"sample exited {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["traced"] = mode == "traced"
    out["start"] = start
    out["wall_s"] = end - start
    return out


def scale_times(sample, speed):
    """Scale a sample's CPU times by the pacer's speed: set-up over the
    interval from the sample's start to the end of its set-up, each job
    over its own interval."""
    scales = {"setup": speed.scale(sample["start"], sample["setup_done"])}
    sample["raw_setup_s"] = sample["setup_cpu"]
    sample["setup_s"] = sample["setup_cpu"] * scales["setup"]
    if "windows" in sample:
        for job, (start, end) in sample["windows"].items():
            scales[job] = speed.scale(start, end)
        sample["raw_run_s"] = sum(sample["jobs"][job]
                                  for job in sample["windows"])
        sample["run_s"] = sum(sample["jobs"][job] * scales[job]
                              for job in sample["windows"])
    sample["scales"] = scales


def run_samples(workload, seed, seconds, trace, size):
    """Cold samples until the next would end after `seconds`.

    A traced run alternates traced and untraced samples and makes at least
    one of each.  An untraced run fills the time left after its last full
    sample with set-up-only samples, so that setup_s is a median over many
    set-ups.  The pacer runs beside all of them.  Returns (full samples,
    set-up-only samples, the pacer's speed).
    """
    with pacer.Pacer() as pace:
        samples, setups = _run_samples(workload, seed, seconds, trace, size)
        speed = pacer.Speed(pace.stop())
    for s in samples + setups:
        scale_times(s, speed)
    return samples, setups, speed


def _run_samples(workload, seed, seconds, trace, size):
    modes = ["traced", "plain"] if trace else ["plain"]
    start = monotonic()
    deadline = start + min(seconds, HARD_LIMIT_S)
    samples, setups = [], []

    def fits(previous):
        return monotonic() + max(s["wall_s"] for s in previous) <= deadline

    def timeout():
        return max(start + HARD_LIMIT_S - monotonic(), 1.0)

    while True:
        mode = modes[len(samples) % len(modes)]
        if len(samples) >= len(modes) and not fits(
                [s for s in samples if s["traced"] == (mode == "traced")]):
            break
        samples.append(run_sample(workload, seed, size, mode, timeout()))
    guess = samples[0]["setup_done"] - samples[0]["start"]
    while not trace and fits(setups or [{"wall_s": guess}]):
        setups.append(run_sample(workload, seed, size, "setup", timeout()))
    return samples, setups


def merge_ops(samples):
    """Operation id -> passed, over the samples of a run: an operation
    fails when it failed in any sample."""
    ops = {}
    for s in samples:
        for op, ok in s["ops"].items():
            ops[op] = ops.get(op, True) and ok
    return ops


def split_checks(samples):
    """Traced tracks samples call semiconjugate's stages one by one; their
    block maps must equal those of semiconjugate itself (untraced).  One
    operation per action, failed when any sample's map differs from that
    of the first untraced sample."""
    whole = [s["block_maps"] for s in samples if not s["traced"]]
    others = [s["block_maps"] for s in samples if s["traced"]] + whole[1:]
    if not whole:
        return {}
    return {f"semiconjugacy.split_matches_whole.{key}":
            all(bm.get(key) == want for bm in others)
            for key, want in sorted(whole[0].items())}


def environment(workload, seed, seconds, trace, size, nproc, cpu):
    commit = "unknown"
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "size": size,
            "python_hash_seed": hash_seed(workload, seed),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": nproc, "cpu_count": os.cpu_count(), "pinned_cpu": cpu,
            "machine": platform.machine(), "commit": commit}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=sorted(SIZES),
                    help="input sizes; 'tiny' serves the benchmark's tests")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "cubikit" / "__init__.py").is_file():
        print(f"no cubikit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    try:
        samples, setups, speed = run_samples(args.workload, args.seed,
                                             args.seconds, args.trace,
                                             args.size)
    except RuntimeError as exc:         # a sample or the pacer failed
        print(f"sample failed:\n{exc}", file=sys.stderr)
        return 1
    ops = merge_ops(samples)
    failures = [f for s in samples for f in s["failures"]]
    if args.workload == "tracks" and args.trace:
        split = split_checks(samples)
        ops.update(split)
        failures += [{"op": op, "detail": "stage-by-stage block map differs "
                      "from semiconjugate", "known": None}
                     for op, ok in split.items() if not ok]
    attempted = len(ops)
    failed = sum(1 for ok in ops.values() if not ok)
    if args.trace:
        values = metrics.per_layer([s for s in samples if s["traced"]],
                                   [s for s in samples if not s["traced"]],
                                   attempted, failed, speed)
    else:
        values = metrics.end_to_end(samples, setups, attempted, failed)
    correct = all(f["known"] in KNOWN_DEFECTS for f in failures) and \
        all(s["attempted"] > 0 for s in samples)

    env = environment(args.workload, args.seed, args.seconds, args.trace,
                      args.size, nproc, cpu)
    record = {"environment": env, "samples": samples,
              "setup_only": setups, "metrics": values,
              "attempted": attempted, "failed": failed, "correct": correct}
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record))

    print(f"env: {json.dumps(env)}")
    print(f"samples: {len(samples)} ({sum(s['traced'] for s in samples)} "
          f"traced) and {len(setups)} set-up only, record: .perfbench/{name}")
    by_kind = {}
    for f in failures:
        by_kind.setdefault(f["known"] or "UNEXPECTED", {}).setdefault(
            f["op"], f)
    for kind, fs in sorted(by_kind.items()):
        f = next(iter(fs.values()))
        print(f"failed {len(fs)} operations [{kind}] e.g. {f['op']}: "
              f"{f['detail']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
