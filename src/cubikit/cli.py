"""Command-line front door.

Subcommands parse inputs, run constructions and verification suites, and
write JSON reports (plus optional DOT of 1-skeleta).  Reports are plain
JSON with a top-level "checks" array; identical config and seed give
byte-identical output.  Exit codes: 0 success, 1 verification failure,
2 bad path, 3 invalid parameters.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys

from . import acceptance
from . import blowup as bu
from . import building as bd
from . import cube_complex as cc
from . import graph_core as gc
from . import raag_geometry as rg
from . import semiconjugacy as sc
from . import wallspace_dual as wd

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PATH = 2
EXIT_PARAMS = 3


class CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(EXIT_PATH, f"cannot read {path}: {exc}") from exc


def _write(path, chunks):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise CliError(EXIT_PATH, f"cannot write {path}: {exc}") from exc


def _load_graph(path):
    try:
        return gc.parse_graph(_read(path))
    except gc.GraphError as exc:
        raise CliError(EXIT_PARAMS, f"bad graph file {path}: {exc}") from exc


def _report(args, checks, extra=None):
    """Write the report to --out or stdout chunk by chunk, as `json.dump`
    does: the encoded report is never held as one string."""
    body = {"checks": checks, "seed": getattr(args, "seed", 0)}
    if extra:
        body.update(extra)
    chunks = itertools.chain(
        json.JSONEncoder(sort_keys=True, indent=1).iterencode(body), "\n")
    if getattr(args, "out", None):
        _write(args.out, chunks)
    else:
        sys.stdout.writelines(chunks)


def _require_radius(args, minimum=1):
    if args.radius < minimum:
        raise CliError(EXIT_PARAMS, f"radius must be >= {minimum}")


def cmd_graph_info(args):
    g = _load_graph(args.graph)
    cl = gc.cliques(g)
    factors = gc.join_decompose(g)
    checks = [{"name": "graph parsed", "status": "pass",
               "witness": f"{len(g.vertices)} vertices, {len(g.edges)} edges"}]
    _report(args, checks, {
        "vertices": list(g.vertices),
        "edges": sorted(sorted(e) for e in g.edges),
        "cliques": len(cl),
        "max_clique": max(len(c) for c in cl),
        "join_factors": [list(f) for f in factors],
    })
    return EXIT_OK


def cmd_ball(args):
    g = _load_graph(args.graph)
    _require_radius(args)
    ball = rg.ball_Xe(g, args.radius) if args.exploded else \
        rg.ball_X(g, args.radius)
    flags = cc.check_flag_links(ball)
    checks = [{"name": "flag links", "status": "pass" if flags["ok"] else "fail",
               "witness": f"{flags['checked']} interior vertices"}]
    if args.dot:
        _write(args.dot, [ball.to_dot()])
    _report(args, checks, {"complex": ball.json_body()})
    return EXIT_OK if flags["ok"] else EXIT_VERIFY


def cmd_davis(args):
    g = _load_graph(args.graph)
    _require_radius(args)
    db = bd.davis_ball(g, args.radius)
    body = db.ball.json_body()
    for v in body["vertices"]:
        v["rank"] = db.rank_of[v["id"]]
    if args.dot:
        _write(args.dot, [db.ball.to_dot()])
    _report(args, [{"name": "davis ball", "status": "pass",
                    "witness": f"{len(db.ball.vertex_ids)} residues"}],
            {"complex": body})
    return EXIT_OK


def cmd_check_cat0(args):
    g = _load_graph(args.graph)
    _require_radius(args)
    ball = rg.ball_Xe(g, args.radius) if args.exploded else \
        rg.ball_X(g, args.radius)
    rep = cc.check_flag_links(ball)
    checks = [{"name": "flag links", "status": "pass" if rep["ok"] else "fail",
               "witness": f"checked={rep['checked']} "
                          f"failures={rep['failures'][:3]}"}]
    _report(args, checks)
    return EXIT_OK if rep["ok"] else EXIT_VERIFY


def cmd_check_rq(args):
    g = _load_graph(args.graph)
    _require_radius(args)
    ball = rg.ball_X(g, args.radius)
    hps = [h for h in cc.hyperplanes(ball) if not h.truncated]
    if args.walls is not None:
        try:
            idx = [int(i) for i in args.walls.split(",")]
        except ValueError as exc:
            raise CliError(EXIT_PARAMS, f"bad --walls list: {exc}") from exc
        if len(set(idx)) < len(idx) or not all(0 <= i < len(hps) for i in idx):
            raise CliError(EXIT_PARAMS, "--walls must list distinct indices "
                           f"in 0..{len(hps) - 1}")
        picks = [hps[i] for i in idx]
    else:
        rng = random.Random(args.seed)
        picks = rng.sample(hps, rng.randint(0, len(hps)))
    q = cc.restriction_quotient(ball, picks)
    rep = cc.verify_rq_characterization(q.map, seed=args.seed)
    checks = [{"name": f"condition {i+1}", "status":
               "pass" if val else "fail", "witness": ""}
              for i, val in enumerate(rep["conditions"])]
    checks.append({"name": "five-way agreement",
                   "status": "pass" if rep["agree"] else "fail",
                   "witness": f"walls={len(picks)}"})
    _report(args, checks)
    return EXIT_OK if rep["all_true"] else EXIT_VERIFY


def cmd_blowup(args):
    g = _load_graph(args.graph)
    _require_radius(args)
    if args.window < 1:
        raise CliError(EXIT_PARAMS, "--window must be >= 1")
    davis = bd.davis_ball(g, args.radius)
    if args.data:
        text = _read(args.data)
        try:
            data = bu.BlowUpData.from_json(g, text, args.window)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise CliError(EXIT_PARAMS,
                           f"bad blow-up data {args.data}: {exc!r}") from exc
    else:
        data = bu.bijective_data(g, davis, args.window)
    psi = bu.build_fiber_functor(data, davis)
    bc = bu.blowup_complex(psi)
    rep = cc.verify_rq_characterization(bc.q, samples=10, seed=args.seed)
    body = bc.Y.json_body()
    for v in body["vertices"]:
        v["rank"] = bc.rank(v["id"])
        v["clique-label"] = list(bc.clique_label(v["id"]))
    for e in body["edges"]:
        e.append("vertical" if e[2].startswith("v:") else "horizontal")
    checks = [{"name": "restriction quotient checks",
               "status": "pass" if rep["all_true"] else "fail",
               "witness": str(rep["conditions"])}]
    if args.dot:
        _write(args.dot, [bc.Y.to_dot()])
    _report(args, checks, {"complex": body})
    return EXIT_OK if rep["all_true"] else EXIT_VERIFY


def cmd_dual(args):
    if args.wallspace:
        text = _read(args.wallspace)
        try:
            raw = json.loads(text)
            points = raw["points"]
            if any(type(i) is not int or not 0 <= i < len(points)
                   for side in raw["walls"] for i in side):
                raise ValueError(f"wall index not in range({len(points)})")
            walls = [[points[i] for i in side] for side in raw["walls"]]
            ws = wd.Wallspace.make(points, walls)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise CliError(EXIT_PARAMS,
                           f"bad wallspace {args.wallspace}: {exc!r}") from exc
    elif args.graph is None:
        raise CliError(EXIT_PARAMS, "dual needs --graph or --wallspace")
    else:
        g = _load_graph(args.graph)
        _require_radius(args)
        ball = rg.ball_X(g, args.radius)
        ws = wd.hyperplane_wallspace(ball, margin=1)
    try:
        dual = wd.dual_cube_complex(ws)
    except (ValueError, MemoryError) as exc:
        raise CliError(EXIT_PARAMS, f"cannot build the dual: {exc}") from exc
    dim = wd.dual_dimension(ws)
    checks = [{"name": "dual dimension vs transverse families",
               "status": "pass", "witness": f"dim={dim}"}]
    if args.dot:
        _write(args.dot, [dual.to_dot()])
    _report(args, checks, {"complex": dual.json_body()})
    return EXIT_OK


def cmd_semiconj(args):
    if args.window is not None and args.window < 1:
        raise CliError(EXIT_PARAMS, "--window must be >= 1")
    if args.depth < 1:
        raise CliError(EXIT_PARAMS, "--depth must be >= 1")
    if args.rips_radius is not None and not 0 < args.rips_radius <= 2**53:
        raise CliError(EXIT_PARAMS, "--rips-radius must be > 0 and <= 2**53")
    text = _read(args.action)
    try:
        spec = sc.ZActionSpec.from_json(text)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise CliError(EXIT_PARAMS,
                       f"bad action {args.action}: {exc!r}") from exc
    if args.window is not None:
        if args.window > spec.window:
            raise CliError(EXIT_PARAMS, "requested window exceeds the tables")
        spec.window = args.window
    # entries that leave the window are not part of the windowed action
    spec.generators = {n: {k: v for k, v in t.items()
                           if abs(k) <= spec.window and abs(v) <= spec.window}
                       for n, t in spec.generators.items()}
    try:
        spec.validate()
    except sc.ActionError as exc:
        raise CliError(EXIT_PARAMS, f"bad action: {exc}") from exc
    res = sc.semiconjugate(spec, B=args.depth, radius=args.rips_radius)
    body = json.loads(sc.result_to_json(res))
    checks = [{"name": "equivariant collapse", "status": "pass",
               "witness": f"{body['measured']['blocks']} blocks, "
               f"isometries {body['isometries']}"}]
    _report(args, checks, body)
    return EXIT_OK


def cmd_verify_all(args):
    only = None
    if args.only:
        try:
            only = {int(x) for x in args.only.split(",")}
        except ValueError as exc:
            raise CliError(EXIT_PARAMS, f"bad criteria list: {exc}") from exc
        unknown = only - set(range(1, len(acceptance.CRITERIA) + 1))
        if unknown:
            raise CliError(EXIT_PARAMS, f"unknown criteria {sorted(unknown)}")
    criteria = [(i, fn) for i, fn in enumerate(acceptance.CRITERIA, start=1)
                if only is None or i in only]
    fixture, scoped = None, acceptance.graph_scoped()
    if args.graph:
        fixtures = acceptance._graph_fixtures()
        fixture = {fg: k for k, fg in fixtures.items()}.get(
            _load_graph(args.graph))
        if fixture is None:
            raise CliError(EXIT_PARAMS, f"--graph {args.graph} is none of "
                           f"the fixtures {', '.join(fixtures)}")
        lacking = [i for i, fn in criteria
                   if fn in scoped and fixture not in scoped[fn]]
        if lacking:
            raise CliError(EXIT_PARAMS, f"no case for fixture {fixture} in "
                           f"criteria {lacking}; leave them out with --only")
    results = [fn(args.seed, graphs=[fixture]) if fixture and fn in scoped
               else fn(args.seed) for _, fn in criteria]
    for r in results:
        print(f"{r['status'].upper():4}  {r['name']}: {r['witness']}",
              file=sys.stderr)
    _report(args, results)
    ok = all(r["status"] == "pass" for r in results)
    return EXIT_OK if ok else EXIT_VERIFY


def build_parser():
    p = argparse.ArgumentParser(prog="cubikit")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, graph=True, radius=True):
        if graph:
            sp.add_argument("--graph", required=True)
        if radius:
            sp.add_argument("--radius", type=int, default=2)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out")

    sp = sub.add_parser("graph", help="graph utilities")
    gsub = sp.add_subparsers(dest="graph_cmd", required=True)
    gi = gsub.add_parser("info")
    common(gi, radius=False)
    gi.set_defaults(fn=cmd_graph_info)

    b = sub.add_parser("ball", help="ball of X or X_e")
    common(b)
    b.add_argument("--dot")
    b.add_argument("--exploded", action="store_true")
    b.set_defaults(fn=cmd_ball)

    d = sub.add_parser("davis", help="Davis realization ball")
    common(d)
    d.add_argument("--dot")
    d.set_defaults(fn=cmd_davis)

    ch = sub.add_parser("check", help="verification suites")
    csub = ch.add_subparsers(dest="check_cmd", required=True)
    c0 = csub.add_parser("cat0")
    common(c0)
    c0.add_argument("--exploded", action="store_true")
    c0.set_defaults(fn=cmd_check_cat0)
    cr = csub.add_parser("rq")
    common(cr)
    cr.add_argument("--walls", help="comma-separated hyperplane indices")
    cr.set_defaults(fn=cmd_check_rq)

    bl = sub.add_parser("blowup", help="Z-blow-up of the Davis ball")
    common(bl)
    bl.add_argument("--dot")
    bl.add_argument("--window", type=int, default=3)
    bl.add_argument("--data", help="blow-up data JSON (default: bijective)")
    bl.set_defaults(fn=cmd_blowup)

    du = sub.add_parser("dual", help="Sageev dual of a wallspace")
    du.add_argument("--wallspace")
    du.add_argument("--graph")
    du.add_argument("--radius", type=int, default=2)
    du.add_argument("--seed", type=int, default=0)
    du.add_argument("--out")
    du.add_argument("--dot")
    du.set_defaults(fn=cmd_dual)

    se = sub.add_parser("semiconj", help="semiconjugate a Z-action")
    se.add_argument("--action", required=True)
    se.add_argument("--window", type=int)
    se.add_argument("--depth", type=int, default=8,
                    help="group ball depth for the sup metric")
    se.add_argument("--rips-radius", type=float, default=None)
    se.add_argument("--seed", type=int, default=0)
    se.add_argument("--out")
    se.set_defaults(fn=cmd_semiconj)

    ve = sub.add_parser("verify", help="acceptance suites")
    vsub = ve.add_subparsers(dest="verify_cmd", required=True)
    va = vsub.add_parser("all")
    va.add_argument("--graph", help="a fixture; criteria 1, 3, 5, 6 run on it")
    va.add_argument("--only", help="comma-separated criterion numbers")
    va.add_argument("--seed", type=int, default=0)
    va.add_argument("--out")
    va.set_defaults(fn=cmd_verify_all)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (cc.ComplexError, gc.GraphError, sc.ActionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS


if __name__ == "__main__":
    sys.exit(main())
