"""Metric definitions and their computation from sample reports.

End-to-end metrics come from untraced samples.  Per-layer metrics come
from the spans of traced samples (each the median over the run's traced
samples), except `job.*` and `raw.*` (untraced samples of the same run),
`host.pacer_unit_ms` and the `trace.*`/`checks.*` bookkeeping.  Every time
is a CPU time of the sample scaled to the nominal host speed by the pacer's
speed over the same interval (pacer.py); `raw.*` are the unscaled CPU
times and `host.pacer_unit_ms` the pacer's median unit.
BENCHMARK.json lists the same names and units; the benchmark's tests keep
the two in step.
"""

from __future__ import annotations

import statistics

# name, unit, better, bound
E2E = [
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.15),
    ("success_rate", "ratio", "higher", 0.05),
]


def _fn(span):
    return (f"{span}.s", "s", "lower", "s", (span, None))


def _rung(span, rung):
    return (f"{span}.{rung}.s", "s", "lower", "s", (span, rung))


def _per_call(span, rung=None, stat="us"):
    return (f"{span}.{stat}", "us", "lower", "us", (span, rung))


def _count(name):
    return (name, "count", "lower", "count", name)


LAYERS = ["raag_geometry", "building", "blowup", "cube_complex",
          "wallspace_dual", "semiconjugacy"]

JOBS = ["ball", "davis", "blowup", "iws", "mul", "hyperplanes", "rq", "dual",
        "semiconj_small", "semiconj_large", "semiconj_misc"]

# name, unit, better, kind, key
PER_LAYER = [
    _per_call("raag_geometry.mul", "len4", "us_len4"),
    _per_call("raag_geometry.mul", "len8", "us_len8"),
    _per_call("raag_geometry.mul", "len16", "us_len16"),
    _per_call("raag_geometry.mul", "pair16", "us_pair16"),
    _fn("raag_geometry.ball_X"),
    _rung("raag_geometry.ball_X", "small"),
    _rung("raag_geometry.ball_X", "large"),
    _count("raag_geometry.ball_X.vertices"),
    _count("raag_geometry.ball_X.squares"),
    _fn("raag_geometry.ball_Xe"),
    _fn("building.davis_ball"),
    _rung("building.davis_ball", "small"),
    _rung("building.davis_ball", "large"),
    _count("building.davis_ball.vertices"),
    _per_call("building.gallery_distance"),
    ("building.gallery_distance.calls", "count", "lower", "calls",
     "building.gallery_distance"),
    _fn("blowup.build_fiber_functor"),
    _fn("blowup.blowup_complex"),
    _fn("blowup.one_data"),
    _count("blowup.Y.vertices"),
    _fn("wallspace_dual.invariant_wallspace"),
    _count("wallspace_dual.invariant_wallspace.walls"),
    _per_call("wallspace_dual.transversality"),
    _fn("cube_complex.hyperplanes"),
    _rung("cube_complex.hyperplanes", "small"),
    _rung("cube_complex.hyperplanes", "large"),
    _count("cube_complex.hyperplanes.count"),
    _count("cube_complex.hyperplanes.truncated"),
    _fn("cube_complex.check_flag_links"),
    _fn("cube_complex.restriction_quotient"),
    _fn("cube_complex.verify_rq_characterization"),
    _per_call("cube_complex.CubeComplexBall.distance"),
    _fn("cube_complex.labeled_isomorphism"),
    _fn("wallspace_dual.dual_cube_complex"),
    _count("wallspace_dual.dual_cube_complex.orientations"),
    _fn("wallspace_dual.maximal_cubes"),
    _fn("wallspace_dual.phi_map"),
    _fn("semiconjugacy.rips2"),
    _count("semiconjugacy.rips2.edges"),
    _fn("semiconjugacy.track_family"),
    _rung("semiconjugacy.track_family", "small"),
    _rung("semiconjugacy.track_family", "large"),
    _count("semiconjugacy.track_family.tracks"),
    _fn("semiconjugacy.collapse"),
]
PER_LAYER += [(f"{m}.busy_s", "s", "lower", "busy", m) for m in LAYERS]
PER_LAYER += [(f"{m}.failed", "count", "lower", "failed", m) for m in LAYERS]
PER_LAYER += [(f"job.{j}_s", "s", "lower", "job", j) for j in JOBS]
PER_LAYER += [
    ("raw.setup_s", "s", "lower", "raw", "raw_setup_s"),
    ("raw.run_s", "s", "lower", "raw", "raw_run_s"),
    ("host.pacer_unit_ms", "ms", "lower", "pacer", None),
    ("trace.overhead_s", "s", "lower", "overhead", None),
    ("trace.spans", "count", "lower", "spans", None),
    ("checks.error_rate", "ratio", "lower", "error_rate", None),
    ("checks.attempted", "count", "higher", "attempted", None),
]


def span_totals(sample):
    """Per traced sample: time and calls per (span name, rung), and per-layer
    self time (a span's duration minus that of its child spans)."""
    spans = sample["spans"]
    scales = sample["scales"]
    dur = [(end - start) * scales.get(job, scales["setup"])
           for _, start, end, _, job, *_ in spans]
    children = [0.0] * len(spans)
    for i, (_, _, _, parent, *_) in enumerate(spans):
        if parent is not None:
            children[parent] += dur[i]
    time_of, calls_of, busy = {}, {}, {}
    for i, (name, _, _, _, _, rung, calls) in enumerate(spans):
        if name.startswith("job."):
            continue
        for key in ((name, None), (name, rung)):
            time_of[key] = time_of.get(key, 0.0) + dur[i]
            calls_of[key] = calls_of.get(key, 0) + calls
            if rung is None:
                break
        layer = name.split(".", 1)[0]
        busy[layer] = busy.get(layer, 0.0) + dur[i] - children[i]
    return time_of, calls_of, busy


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(samples, setups, attempted, failed):
    values = {
        "setup_s": _median([s["setup_s"] for s in samples + setups]),
        "run_s": _median([s["run_s"] for s in samples]),
        "peak_rss_mib": _median([s["peak_rss_kib"] / 1024 for s in samples]),
        "success_rate": 1 - failed / attempted if attempted else 0.0,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _, _ in E2E}


def per_layer(traced, plain, attempted, failed, speed):
    totals = [span_totals(s) for s in traced]

    def per_sample(kind, key, sample, tot):
        time_of, calls_of, busy = tot
        if kind == "s":
            return time_of.get(key, 0.0)
        if kind == "us":
            calls = calls_of.get(key, 0)
            return time_of[key] / calls * 1e6 if calls else 0.0
        if kind == "calls":
            return calls_of.get((key, None), 0)
        if kind == "count":
            return sample["counts"].get(key, 0)
        if kind == "busy":
            return busy.get(key, 0.0)
        if kind == "failed":
            return sample["failed_by_layer"].get(key, 0)
        if kind == "spans":
            return len(sample["spans"])
        raise ValueError(kind)

    out = {}
    for name, unit, _, kind, key in PER_LAYER:
        if kind == "job":
            value = _median([s["jobs"].get(key, 0.0) *
                             s["scales"].get(key, 0.0) for s in plain])
        elif kind == "raw":
            value = _median([s[key] for s in plain])
        elif kind == "pacer":
            value = speed.median_unit() * 1e3
        elif kind == "overhead":
            value = _median([s["run_s"] for s in traced]) - \
                _median([s["run_s"] for s in plain])
        elif kind == "error_rate":
            value = failed / attempted if attempted else 0.0
        elif kind == "attempted":
            value = attempted
        else:
            value = _median([per_sample(kind, key, s, t)
                             for s, t in zip(traced, totals)])
        out[name] = {"value": value, "unit": unit}
    return out
