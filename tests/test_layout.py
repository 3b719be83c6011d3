"""Module layout: imports at module top, an acyclic import graph, and no
top-level name in `src/` that only the tests use, past an explicit list."""

import ast
import os
import pathlib
import subprocess
import sys

import cubikit

SRC = pathlib.Path(cubikit.__file__).parent
PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"

# Top-level names whose only callers are tests: paper lemmas and fixture
# builders that still wait for a production caller (`construct`) or a move
# to the tests.  A name that gains a caller leaves this list.
TEST_ONLY = {
    # paper lemmas
    "rank_preserving_check", "are_parallel", "parallel_set",
    "product_decomposition", "branched_flat_embed", "downward_complex_check",
    "direction_labeled_dual", "eta_quasi_morphism",
    # fixture builders
    "left_translation_action", "relabel_action", "standard_flat", "v_levels",
    "zero_cube_of_vertex", "rejoin",
    # steps of the main construction, which has no caller yet
    "extract_factor_action", "equivariant_blowup",
}


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


def _defined(node):
    """The names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return {t.id for t in targets if isinstance(t, ast.Name)}
    return set()


def _referenced(tree):
    """The names, attribute names and imported names a tree uses."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rsplit(".", 1)[-1])
    return out


def test_every_src_name_has_a_caller():
    """Each top-level name of `src/` (dunders aside) is used by `src/` or
    `perfbench/` outside its own definition.  Names match bare, across
    modules, so a use anywhere counts."""
    defined, used = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            names = _defined(node)
            defined |= names
            used |= _referenced(node) - names
    for path in sorted(PERFBENCH.glob("*.py")):
        used |= _referenced(ast.parse(path.read_text()))
    unused = {n for n in defined - used if not n.startswith("__")}
    assert unused - TEST_ONLY == set(), "names without a caller"
    assert TEST_ONLY - unused == set(), "listed names that now have a caller"
