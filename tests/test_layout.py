"""Module layout: imports at module top, and an acyclic import graph."""

import ast
import os
import pathlib
import subprocess
import sys

import cubikit

SRC = pathlib.Path(cubikit.__file__).parent


def test_no_function_imports():
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    assert not isinstance(node, (ast.Import, ast.ImportFrom)), \
                        f"{path.name}:{node.lineno} imports inside {fn.name}"


def test_semiconjugacy_loads_neither_building_nor_wallspaces():
    # building and wallspace_dual stand on semiconjugacy, never below it
    code = ("import sys, cubikit.semiconjugacy; "
            "print(' '.join(sorted(m for m in sys.modules "
            "if m.startswith('cubikit'))))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out == ["cubikit", "cubikit.cube_complex", "cubikit.semiconjugacy"]
