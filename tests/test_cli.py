import json

import pytest

from cubikit import cli


@pytest.fixture
def graphs(tmp_path):
    k2 = tmp_path / "k2.json"
    k2.write_text('{"vertices": ["u","v"], "edges": [["u","v"]]}')
    pent = tmp_path / "pentagon.json"
    pent.write_text(json.dumps({
        "vertices": list("abcde"),
        "edges": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "e"], ["e", "a"]],
    }))
    return {"k2": str(k2), "pentagon": str(pent), "dir": tmp_path}


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


def test_semiconj_cli(tmp_path, capsys):
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
    rc = cli.main(["semiconj", "--action", str(path), "--depth", "5",
                   "--rips-radius", "6"])
    assert rc == 0
    body = json.loads(capsys.readouterr().out)
    assert body["isometries"]["a"] == {"offset": 0, "sign": 1}
    assert abs(body["isometries"]["b"]["offset"]) == 1


def test_bad_paths_and_params(graphs, capsys):
    assert cli.main(["graph", "info", "--graph", "/nope/missing.json"]) == 2
    assert cli.main(["ball", "--graph", graphs["k2"], "--radius", "0"]) == 3
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


def test_dual_without_input_exits_3(capsys):
    assert cli.main(["dual"]) == 3
    assert "--graph or --wallspace" in capsys.readouterr().err


def test_dual_empty_side_wall_exits_3(tmp_path, capsys):
    ws = tmp_path / "ws.json"
    ws.write_text(json.dumps({"points": ["a", "b"], "walls": [[]]}))
    assert cli.main(["dual", "--wallspace", str(ws)]) == 3
    assert "empty side" in capsys.readouterr().err


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


def test_verify_unknown_criterion_exits_3(capsys):
    assert cli.main(["verify", "all", "--only", "99"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown criteria [99]" in captured.err


def test_dot_does_not_depend_on_hash_seed(graphs):
    import os
    import subprocess
    import sys

    import cubikit

    src = os.path.dirname(os.path.dirname(cubikit.__file__))
    dots = []
    for seed in ("1", "2"):
        dot = graphs["dir"] / f"ball{seed}.dot"
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        subprocess.run([sys.executable, "-m", "cubikit.cli", "ball",
                        "--graph", graphs["k2"], "--radius", "2",
                        "--out", os.devnull, "--dot", str(dot)],
                       env=env, check=True)
        dots.append(dot.read_bytes())
    assert dots[0] == dots[1]
