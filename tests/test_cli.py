import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cubikit
from cubikit import cli
from cubikit import wallspace_dual as wd


@pytest.fixture
def graphs(tmp_path):
    k2 = tmp_path / "k2.json"
    k2.write_text('{"vertices": ["u","v"], "edges": [["u","v"]]}')
    pent = tmp_path / "pentagon.json"
    pent.write_text(json.dumps({
        "vertices": list("abcde"),
        "edges": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "e"], ["e", "a"]],
    }))
    square4 = tmp_path / "square4.json"
    square4.write_text(json.dumps({
        "vertices": list("wxyz"),
        "edges": [["w", "x"], ["x", "y"], ["y", "z"], ["z", "w"]],
    }))
    return {"k2": str(k2), "pentagon": str(pent), "square4": str(square4),
            "dir": tmp_path}


def run_cli(args, hash_seed):
    """Run the CLI in a fresh interpreter under a fixed hash seed; stdout.

    A non-zero exit status fails the calling test."""
    src = os.path.dirname(os.path.dirname(cubikit.__file__))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "cubikit.cli", *args],
                          env=env, capture_output=True, check=True).stdout


def test_graph_info(graphs, capsys):
    rc = cli.main(["graph", "info", "--graph", graphs["pentagon"]])
    assert rc == 0
    body = json.loads(capsys.readouterr().out)
    assert body["cliques"] == 11
    assert len(body["join_factors"]) == 1


def test_ball_and_dot(graphs):
    out = graphs["dir"] / "ball.json"
    dot = graphs["dir"] / "ball.dot"
    rc = cli.main(["ball", "--graph", graphs["k2"], "--radius", "2",
                   "--out", str(out), "--dot", str(dot)])
    assert rc == 0
    body = json.loads(out.read_text())
    assert len(body["complex"]["vertices"]) == 13
    assert "graph ball" in dot.read_text()


def test_ball_exploded(graphs, capsys):
    rc = cli.main(["ball", "--graph", graphs["k2"], "--radius", "3",
                   "--exploded"])
    assert rc == 0
    body = json.loads(capsys.readouterr().out)
    assert body["checks"][0]["status"] == "pass"


def test_davis(graphs, capsys):
    rc = cli.main(["davis", "--graph", graphs["k2"], "--radius", "2"])
    assert rc == 0
    body = json.loads(capsys.readouterr().out)
    ranks = {v["rank"] for v in body["complex"]["vertices"]}
    assert ranks == {0, 1, 2}


def test_check_cat0(graphs, capsys):
    rc = cli.main(["check", "cat0", "--graph", graphs["pentagon"],
                   "--radius", "2"])
    assert rc == 0


def test_check_rq_deterministic(graphs, capsys):
    rc1 = cli.main(["check", "rq", "--graph", graphs["k2"], "--radius", "2",
                    "--seed", "5"])
    out1 = capsys.readouterr().out
    rc2 = cli.main(["check", "rq", "--graph", graphs["k2"], "--radius", "2",
                    "--seed", "5"])
    out2 = capsys.readouterr().out
    assert rc1 == rc2 == 0
    assert out1 == out2


@pytest.mark.parametrize("walls, message", [
    ("-1", "--walls must list distinct indices"),
    ("0,0", "--walls must list distinct indices"),
    ("", "bad --walls list"),
], ids=["negative", "repeated", "empty"])
def test_check_rq_bad_walls_exits_3(graphs, capsys, walls, message):
    assert cli.main(["check", "rq", "--graph", graphs["k2"], "--radius", "2",
                     f"--walls={walls}"]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1"])
def test_blowup_window_below_one_exits_3(graphs, capsys, value):
    assert cli.main(["blowup", "--graph", graphs["k2"], "--radius", "2",
                     "--window", value]) == 3
    assert "--window must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["graph", "info"], ["check", "cat0"],
                                     ["check", "rq"]], ids=" ".join)
def test_dot_only_where_dot_is_written(graphs, tmp_path, capsys, command):
    dot = tmp_path / "x.dot"
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, "--graph", graphs["k2"], "--dot", str(dot)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --dot" in capsys.readouterr().err
    assert not dot.exists()


def test_blowup(graphs, capsys):
    rc = cli.main(["blowup", "--graph", graphs["k2"], "--radius", "2",
                   "--window", "2"])
    assert rc == 0
    body = json.loads(capsys.readouterr().out)
    kinds = {e[3] for e in body["complex"]["edges"]}
    assert kinds == {"vertical", "horizontal"}


def test_dual_from_wallspace_file(graphs, capsys):
    ws = graphs["dir"] / "ws.json"
    ws.write_text(json.dumps({"points": ["a", "b", "c"],
                              "walls": [[0], [1], [2]]}))
    rc = cli.main(["dual", "--wallspace", str(ws)])
    assert rc == 0
    body = json.loads(capsys.readouterr().out)
    assert len(body["complex"]["vertices"]) == 4


def flip_action(tmp_path):
    """The two-flipping action on a window of 24 as an action file."""
    spec = {"window": 24, "L": 3, "A": 2,
            "generators": {"a": {}, "b": {}},
            "relations": [["a", "a"]]}
    for n in range(-24, 25):
        m = n + 1 if n % 2 == 0 else n - 1
        if abs(m) <= 24:
            spec["generators"]["a"][str(n)] = m
        if abs(n + 2) <= 24:
            spec["generators"]["b"][str(n)] = n + 2
    path = tmp_path / "flip.json"
    path.write_text(json.dumps(spec))
    return str(path)


SEMICONJ_ARGS = ["--depth", "5", "--rips-radius", "6"]


def test_semiconj_cli(tmp_path, capsys):
    rc = cli.main(["semiconj", "--action", flip_action(tmp_path),
                   *SEMICONJ_ARGS])
    assert rc == 0
    body = json.loads(capsys.readouterr().out)
    assert body["isometries"]["a"] == {"offset": 0, "sign": 1}
    assert abs(body["isometries"]["b"]["offset"]) == 1


def test_semiconj_tables_leaving_the_window(tmp_path, capsys):
    # the two-flipping heights on window 40 before any trimming: a swaps
    # 2n <-> 2n+1 and b adds 2 at every height, so a(40) = 41, b(40) = 42
    # and b_inv(-40) = -42 leave the window
    spec = {"window": 40, "L": 3, "A": 0,
            "generators": {"a": {}, "b": {}, "b_inv": {}},
            "inverses": {"a": "a", "b": "b_inv", "b_inv": "b"}}
    for n in range(-40, 41):
        spec["generators"]["a"][str(n)] = n + 1 if n % 2 == 0 else n - 1
        spec["generators"]["b"][str(n)] = n + 2
        spec["generators"]["b_inv"][str(n)] = n - 2
    path = tmp_path / "leave.json"
    path.write_text(json.dumps(spec))
    args = ["semiconj", "--action", str(path), "--depth", "8",
            "--rips-radius", "6"]
    assert cli.main(args) == 0
    out = capsys.readouterr().out
    assert cli.main([*args, "--window", "40"]) == 0
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("value", ["0", "-3"])
def test_semiconj_window_below_one_exits_3(tmp_path, capsys, value):
    assert cli.main(["semiconj", "--action", flip_action(tmp_path),
                     "--window", value]) == 3
    assert "--window must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1"])
def test_semiconj_depth_below_one_exits_3(tmp_path, capsys, value):
    assert cli.main(["semiconj", "--action", flip_action(tmp_path),
                     "--depth", value]) == 3
    assert "--depth must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-2", "nan"])
def test_semiconj_rips_radius_not_positive_exits_3(tmp_path, capsys, value):
    assert cli.main(["semiconj", "--action", flip_action(tmp_path),
                     "--rips-radius", value]) == 3
    assert "--rips-radius must be > 0" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["inf", "1e308", "nan"])
def test_semiconj_rips_radius_past_float_range_exits_3(tmp_path, capsys,
                                                       value):
    # the weight cap int(4 * (L * radius + A)) of min_essential_track
    # overflows on inf and 1e308
    assert cli.main(["semiconj", "--action", flip_action(tmp_path),
                     *SEMICONJ_ARGS[:2], "--rips-radius", value]) == 3
    assert "--rips-radius must be > 0 and <= 2**53" in capsys.readouterr().err


def test_bad_paths_and_params(graphs, capsys):
    assert cli.main(["graph", "info", "--graph", "/nope/missing.json"]) == 2
    assert cli.main(["ball", "--graph", graphs["k2"], "--radius", "0"]) == 3
    assert cli.main(["ball", "--graph", graphs["k2"], "--radius", "1", "--out",
                     str(graphs["dir"] / "missing" / "ball.json")]) == 2
    bad = graphs["dir"] / "bad.json"
    bad.write_text('{"vertices": ["a"], "edges": [["a","a"]]}')
    assert cli.main(["graph", "info", "--graph", str(bad)]) == 3
    capsys.readouterr()


def test_verify_subset(graphs, capsys):
    rc = cli.main(["verify", "all", "--only", "3,4", "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "3 Sageev round-trip" in out and "4 dual dimension" in out


def test_verify_all_graph_scoped(graphs, capsys):
    rc = cli.main(["verify", "all", "--graph", graphs["k2"],
                   "--only", "1,3"])
    assert rc == 0


def test_verify_all_graph_off_the_fixtures_exits_3(graphs, capsys):
    # square4 is no fixture: criterion 3 must not run on its default graphs
    rc = cli.main(["verify", "all", "--graph", graphs["square4"],
                   "--only", "3"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "none of the fixtures" in err and "k2" in err and "p3" in err


def test_verify_all_graph_without_a_case_exits_3(graphs, capsys):
    # criterion 6 has no case for p3: it must not fall back to its defaults
    p3 = graphs["dir"] / "p3.json"
    p3.write_text(json.dumps({"vertices": ["p", "q", "r"],
                              "edges": [["p", "q"], ["q", "r"]]}))
    rc = cli.main(["verify", "all", "--graph", str(p3), "--only", "1,6"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "no case for fixture p3 in criteria [6]" in err and "--only" in err


def test_blowup_data_file_roundtrip(graphs, tmp_path, capsys):
    from cubikit import blowup as bu
    from cubikit import building as bd
    from cubikit import graph_core as gc

    g = gc.k2()
    davis = bd.davis_ball(g, 2)
    data = bu.data_from_function(g, davis, window=2, fn=lambda pc, n: n // 2)
    path = tmp_path / "data.json"
    path.write_text(data.to_json())
    rc = cli.main(["blowup", "--graph", graphs["k2"], "--radius", "2",
                   "--window", "2", "--data", str(path)])
    assert rc == 0
    body = json.loads(capsys.readouterr().out)
    assert body["checks"][0]["status"] == "pass"


def test_verify_deterministic(graphs, tmp_path):
    out1 = tmp_path / "v1.json"
    out2 = tmp_path / "v2.json"
    cli.main(["verify", "all", "--only", "3,4", "--out", str(out1)])
    cli.main(["verify", "all", "--only", "3,4", "--out", str(out2)])
    assert out1.read_text() == out2.read_text()


def test_verify_stdout_is_one_json_document(capsys):
    rc = cli.main(["verify", "all", "--only", "3,4"])
    captured = capsys.readouterr()
    assert rc == 0
    body = json.loads(captured.out)
    assert [c["status"] for c in body["checks"]] == ["pass", "pass"]
    assert "PASS  3 Sageev round-trip" in captured.err


def test_semiconj_bad_action_exits_3(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    missing.write_text('{"window": 4, "L": 1, "A": 0}')
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"window": 4, "generators": ')
    for path in (missing, malformed):
        assert cli.main(["semiconj", "--action", str(path)]) == 3
    assert "bad action" in capsys.readouterr().err


@pytest.mark.parametrize("edge", [["u", 5], [["u"], "v"]])
def test_graph_info_edge_endpoint_not_a_string_exits_3(graphs, capsys, edge):
    path = graphs["dir"] / "endpoint.json"
    path.write_text(json.dumps({"vertices": ["u", "v"], "edges": [edge]}))
    assert cli.main(["graph", "info", "--graph", str(path)]) == 3
    assert "is not a pair of strings" in capsys.readouterr().err


def _edit_flip_action(tmp_path, **changes):
    """`flip_action` with some top-level fields replaced."""
    path = flip_action(tmp_path)
    with open(path) as fh:
        spec = json.load(fh)
    with open(path, "w") as fh:
        json.dump({**spec, **changes}, fh)
    return path


def test_semiconj_relation_with_unknown_generator_exits_3(tmp_path, capsys):
    path = _edit_flip_action(tmp_path, relations=[["a", "zz"]])
    assert cli.main(["semiconj", "--action", path]) == 3
    assert "names an unknown generator" in capsys.readouterr().err


@pytest.mark.parametrize("inverses, message", [
    (5, "inverses must map generator names"),
    ({"a": ["a"]}, "lacks an inverse table")])
def test_semiconj_malformed_inverses_exits_3(tmp_path, capsys, inverses,
                                             message):
    path = _edit_flip_action(tmp_path, inverses=inverses)
    assert cli.main(["semiconj", "--action", path]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("constants", [
    {"L": float("nan")}, {"L": 1e308}, {"A": float("inf")}])
def test_semiconj_constants_past_float_range_exit_3(tmp_path, capsys,
                                                    constants):
    # NaN and Infinity are JSON extensions that json.load accepts
    path = _edit_flip_action(tmp_path, **constants)
    assert cli.main(["semiconj", "--action", path]) == 3
    err = capsys.readouterr().err
    assert "bad action: L=" in err and "need 1 <= L, 0 <= A" in err


def test_semiconj_without_generators_exits_3(tmp_path, capsys):
    # the collapse interior is empty, and no generator names the shortfall
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"window": 5, "L": 1, "A": 0,
                                "generators": {}}))
    assert cli.main(["semiconj", "--action", str(path)]) == 3
    assert "window too small for the collapse interior" in \
        capsys.readouterr().err


@st.composite
def action_specs(draw):
    """An action file's contents: a window of 0-8 and up to two generators,
    each a shift, swap, identity, reflection or random table.  Windows stay
    small; larger ones can reach a runaway orbit closure."""
    w = draw(st.integers(0, 8))
    points = range(-w, w + 1)
    tables = {
        "shift": lambda k: {n: n + k for n in points},
        "swap": lambda k: {n: n + 1 if n % 2 == 0 else n - 1 for n in points},
        "identity": lambda k: {n: n for n in points},
        "reflection": lambda k: {n: -n for n in points},
        "random": lambda k: {n: draw(st.integers(-w, w)) for n in points},
    }
    kinds = draw(st.lists(st.sampled_from(sorted(tables)), max_size=2))
    generators = {f"g{i}": {str(n): m for n, m in
                            tables[kind](draw(st.integers(-3, 3))).items()}
                  for i, kind in enumerate(kinds)}
    return {"window": w, "L": draw(st.integers(1, 3)),
            "A": draw(st.integers(0, 2)), "generators": generators}


@settings(max_examples=60, deadline=None)
@given(spec=action_specs(), depth=st.integers(1, 4),
       radius=st.none() | st.floats(0.5, 8))
def test_semiconj_returns_ok_or_exit_3(tmp_path_factory, spec, depth, radius):
    path = tmp_path_factory.mktemp("action") / "action.json"
    path.write_text(json.dumps(spec))
    args = ["semiconj", "--action", str(path), "--depth", str(depth)]
    if radius is not None:
        args += ["--rips-radius", repr(radius)]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(args) in (0, 3)


def test_dual_without_input_exits_3(capsys):
    assert cli.main(["dual"]) == 3
    assert "--graph or --wallspace" in capsys.readouterr().err


def test_dual_empty_side_wall_exits_3(tmp_path, capsys):
    ws = tmp_path / "ws.json"
    ws.write_text(json.dumps({"points": ["a", "b"], "walls": [[]]}))
    assert cli.main(["dual", "--wallspace", str(ws)]) == 3
    assert "empty side" in capsys.readouterr().err


@pytest.mark.parametrize("body, message", [
    ({"points": [], "walls": []}, "empty wallspace"),
    ({"points": ["a", "a", "b"], "walls": [[0]]}, "points repeat"),
])
def test_dual_degenerate_wallspace_exits_3(tmp_path, capsys, body, message):
    ws = tmp_path / "ws.json"
    ws.write_text(json.dumps(body))
    assert cli.main(["dual", "--wallspace", str(ws)]) == 3
    captured = capsys.readouterr()
    assert message in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("index", [-1, True, 3, 1.0, "0"])
def test_dual_wall_index_off_the_points_exits_3(tmp_path, capsys, index):
    # points[-1] and points[True] would pick r and q without the check
    ws = tmp_path / "ws.json"
    ws.write_text(json.dumps({"points": ["p", "q", "r"], "walls": [[index]]}))
    assert cli.main(["dual", "--wallspace", str(ws)]) == 3
    captured = capsys.readouterr()
    assert "not in range(3)" in captured.err and "Traceback" not in captured.err


def test_dual_past_the_orientation_cap_exits_3(tmp_path, capsys, monkeypatch):
    # three pairwise-transverse walls: the dual is a 3-cube, 8 orientations
    monkeypatch.setattr(wd, "MAX_ORIENTATIONS", 2)
    ws = tmp_path / "ws.json"
    ws.write_text(json.dumps({"points": list(range(8)),
                              "walls": [[p for p in range(8) if p >> i & 1]
                                        for i in range(3)]}))
    assert cli.main(["dual", "--wallspace", str(ws)]) == 3
    assert "cap exceeded" in capsys.readouterr().err


def test_blowup_window_below_radius_reports_failure(graphs, capsys):
    rc = cli.main(["blowup", "--graph", graphs["k2"], "--radius", "3",
                   "--window", "2"])
    assert rc == 1
    body = json.loads(capsys.readouterr().out)
    assert body["checks"][0]["name"] == "restriction quotient checks"
    assert body["checks"][0]["status"] == "fail"


def test_blowup_malformed_data_exits_3(graphs, capsys):
    path = graphs["dir"] / "data.json"
    path.write_text('{"classes": [')
    assert cli.main(["blowup", "--graph", graphs["k2"], "--radius", "2",
                     "--window", "2", "--data", str(path)]) == 3
    assert "bad blow-up data" in capsys.readouterr().err


def test_blowup_data_without_classes_exits_3(graphs, capsys):
    path = graphs["dir"] / "data.json"
    path.write_text('{"window": 2}')
    assert cli.main(["blowup", "--graph", graphs["k2"], "--radius", "2",
                     "--window", "2", "--data", str(path)]) == 3
    assert "bad blow-up data" in capsys.readouterr().err


def test_blowup_data_off_its_class_exits_3(graphs, capsys):
    path = graphs["dir"] / "data.json"
    path.write_text(json.dumps({"classes": [{"id": "a@1",
                                             "table": {"1": 1, "c": 0}}]}))
    assert cli.main(["blowup", "--graph", graphs["pentagon"], "--radius", "2",
                     "--window", "2", "--data", str(path)]) == 3
    err = capsys.readouterr().err
    assert "bad blow-up data" in err and "lies on class" in err


def test_blowup_data_with_a_class_twice_exits_3(graphs, capsys):
    path = graphs["dir"] / "data.json"
    path.write_text(json.dumps({"classes": [
        {"id": "u@1", "table": {"1": 5}}, {"id": "u@1", "table": {"u": 7}}]}))
    assert cli.main(["blowup", "--graph", graphs["k2"], "--radius", "2",
                     "--window", "2", "--data", str(path)]) == 3
    err = capsys.readouterr().err
    assert "bad blow-up data" in err and "class u@1: listed twice" in err


def test_blowup_data_unknown_generator_exits_3(graphs, capsys):
    path = graphs["dir"] / "data.json"
    path.write_text(json.dumps(
        {"classes": [{"id": "u@1", "table": {"zz": 0}}]}))
    assert cli.main(["blowup", "--graph", graphs["k2"], "--radius", "2",
                     "--window", "2", "--data", str(path)]) == 3
    assert "unknown generator" in capsys.readouterr().err


def test_dual_builds_the_dual_once(graphs, monkeypatch):
    calls = []
    build = wd.dual_cube_complex

    def counting(ws):
        calls.append(ws)
        return build(ws)

    monkeypatch.setattr(wd, "dual_cube_complex", counting)
    assert cli.main(["dual", "--graph", graphs["k2"], "--radius", "2"]) == 0
    assert len(calls) == 1


def test_verify_unknown_criterion_exits_3(capsys):
    assert cli.main(["verify", "all", "--only", "99"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown criteria [99]" in captured.err


def test_dot_does_not_depend_on_hash_seed(graphs):
    dots = []
    for seed in ("1", "2"):
        dot = graphs["dir"] / f"ball{seed}.dot"
        run_cli(["ball", "--graph", graphs["k2"], "--radius", "2",
                 "--out", os.devnull, "--dot", str(dot)], seed)
        dots.append(dot.read_bytes())
    assert dots[0] == dots[1]


def sha256(data):
    return hashlib.sha256(data).hexdigest()


# SHA-256 of the reports under PYTHONHASHSEED=0: a refactor of the
# cube-complex core must keep them byte-identical
GOLDEN_BALL_DOT = {
    "json": "1dfeebbf01d02aa6deea1d696e6fbcd955a131b6e0cb48965d3e3fd0673e087e",
    "dot": "0e23a3785972bd1fff8295cc5ad11e69575b34f13e475a806ca414b9b1e948f2",
}
GOLDEN_CHECK_RQ = {
    ("k2", 0): "10bcd5ce8ea98823b86808a657cc839e4b3e26952394202db05728e94a4149e5",
    ("k2", 1): "608ed9001cb1d8cba62171e2d51cf1cfa3be65134a7a9521cc4b8001724aa90b",
    ("k2", 2): "45850aa646ea91f9eacc369f7cc4ed00b7fbb9b93180123150d8402391c6049e",
    ("square4", 0): "08769d4d404f7e23ca4d05658501b2782b9a531809c987aa04f3b6f303104ebf",
    ("square4", 1): "cac2c6f408fb13fee262d8c28844aa78638169d3a69aa9f4d94109403a3d111e",
    ("square4", 2): "1deff2ca64f27c3aafc8e242feec97abf35321663ca9452a1adb495285e1f5cd",
}
GOLDEN_BLOWUP = "27cbd827fd946657d3519bd3b064b0e651cfb30990797885ce7ece2a71a624b0"
GOLDEN_SEMICONJ = "dfd21de870c05d126c0648c43de40c18a90bc83826ccfbca1f003f610cddb454"
# blow-up data with the n // 2 table on every class, read through --data
GOLDEN_BLOWUP_DATA = \
    "220131f13814f14fe86df17261e6951cdfcc110fc6a1e7fd5ee5c2abaac047c1"


def test_golden_ball_dot(graphs):
    dot = graphs["dir"] / "pentagon.dot"
    out = run_cli(["ball", "--graph", graphs["pentagon"], "--radius", "2",
                   "--dot", str(dot)], "0")
    assert sha256(out) == GOLDEN_BALL_DOT["json"]
    assert sha256(dot.read_bytes()) == GOLDEN_BALL_DOT["dot"]


@pytest.mark.parametrize("graph, seed", sorted(GOLDEN_CHECK_RQ))
def test_golden_check_rq(graphs, graph, seed):
    out = run_cli(["check", "rq", "--graph", graphs[graph], "--radius", "2",
                   "--seed", str(seed)], "0")
    assert sha256(out) == GOLDEN_CHECK_RQ[graph, seed]


def test_golden_blowup(graphs):
    out = run_cli(["blowup", "--graph", graphs["k2"], "--radius", "2",
                   "--window", "2"], "0")
    assert sha256(out) == GOLDEN_BLOWUP


def test_golden_semiconj(tmp_path):
    out = run_cli(["semiconj", "--action", flip_action(tmp_path),
                   *SEMICONJ_ARGS], "0")
    assert sha256(out) == GOLDEN_SEMICONJ


def test_golden_blowup_data(graphs, tmp_path):
    from cubikit import blowup as bu
    from cubikit import building as bd
    from cubikit import graph_core as gc

    g = gc.k2()
    data = bu.data_from_function(g, bd.davis_ball(g, 2), window=2,
                                 fn=lambda pc, n: n // 2)
    path = tmp_path / "data.json"
    path.write_text(data.to_json())
    out = run_cli(["blowup", "--graph", graphs["k2"], "--radius", "2",
                   "--window", "2", "--data", str(path)], "0")
    assert sha256(out) == GOLDEN_BLOWUP_DATA


# SHA-256 of the `davis` (K2, r2) and `dual` (C5, r2) reports under
# PYTHONHASHSEED=0, taken before the reports were streamed
GOLDEN_DAVIS = "ef618adf44c1de4280afeb878efdc4152550a0ee798d4db35d2edb17f6153d92"
GOLDEN_DUAL = "dadc4b11d5550dede5245eaa87586258b330c72526b833d4449e62f4f4492c42"


def run_cli_without_to_json(args, hash_seed):
    """`run_cli` with `CubeComplexBall.to_json` raising: the reports are
    decorated from `json_body`, never parsed back from a JSON string."""
    code = ("import sys\n"
            "from cubikit import cli, cube_complex as cc\n"
            "def refuse(self):\n"
            "    raise AssertionError('to_json was called')\n"
            "cc.CubeComplexBall.to_json = refuse\n"
            "sys.exit(cli.main(sys.argv[1:]))\n")
    src = os.path.dirname(os.path.dirname(cubikit.__file__))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code, *args], env=env,
                   capture_output=True, check=True)


@pytest.mark.parametrize("command, graph, extra, pin", [
    ("ball", "pentagon", [], GOLDEN_BALL_DOT["json"]),
    ("davis", "k2", [], GOLDEN_DAVIS),
    ("blowup", "k2", ["--window", "2"], GOLDEN_BLOWUP),
    ("dual", "pentagon", [], GOLDEN_DUAL),
])
def test_reports_are_written_without_to_json(graphs, command, graph, extra,
                                             pin):
    out = graphs["dir"] / f"{command}.json"
    run_cli_without_to_json([command, "--graph", graphs[graph], "--radius",
                             "2", *extra, "--out", str(out)], "0")
    assert sha256(out.read_bytes()) == pin
