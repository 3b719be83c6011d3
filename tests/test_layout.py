"""Module layout: imports at module top, an acyclic import graph, no
top-level name or method in `src/` that only the tests use, past explicit
lists, direct cube-complex constructor calls only from the listed
producers, and one call site for each computation whose result its owner
keeps."""

import ast
import collections
import os
import pathlib
import re
import subprocess
import sys

import cubikit

SRC = pathlib.Path(cubikit.__file__).parent
PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"

# Top-level names, as module.name, whose only callers are tests: paper
# lemmas and fixture builders that still wait for a production caller
# (`construct`) or a move to the tests.  A name that gains a caller leaves
# this list.
TEST_ONLY = {
    # paper lemmas
    "building.rank_preserving_check", "building.are_parallel",
    "building.parallel_set",
    # fixture builders
    "building.left_translation_action", "building.relabel_action",
    # steps of the main construction, which has no caller yet
    "building.extract_factor_action", "blowup.equivariant_blowup",
}

# Methods, as module.Class.method, whose only readers are tests; like
# TEST_ONLY, each waits for a production caller or a move to the tests.
TEST_ONLY_METHODS = {
    "semiconjugacy.BranchedLine.branching_number",
    # JSON writers: the CLI decorates `CubeComplexBall.json_body`, so only
    # tests call them (reads are matched by name, so one read of any
    # `to_json` in `src/` or `perfbench/` clears all six)
    "blowup.BlowUpData.to_json", "building.Residue.to_json",
    "cube_complex.CubeComplexBall.to_json", "graph_core.DefiningGraph.to_json",
    "semiconjugacy.ZActionSpec.to_json", "wallspace_dual.Wallspace.to_json",
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


def _is_dict_or_set(node):
    if isinstance(node, (ast.Dict, ast.Set, ast.DictComp, ast.SetComp)):
        return True
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
        and node.func.id in ("dict", "set", "defaultdict", "OrderedDict")


def test_no_module_level_caches():
    """No module of `src/` binds a dict or a set at top level."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                value, ann = node.value, None
            elif isinstance(node, ast.AnnAssign):
                value, ann = node.value, node.annotation
            else:
                continue
            if _is_dict_or_set(value) or (
                    isinstance(ann, ast.Name) and ann.id in ("dict", "set")):
                found |= {(path.stem, n) for n in _defined(node)}
    assert found == set()


# The producers that build a complex straight from squares already in
# canonical, sorted form (see `CubeComplexBall`); any other caller with raw
# squares goes through `make`, which normalises and checks them.
DIRECT_BUILDERS = {
    ("cube_complex", "rising_ball"), ("cube_complex", "span"),
    ("cube_complex", "restriction_quotient"),
    ("wallspace_dual", "dual_cube_complex"),
}


def _callers(node, names, owner, found):
    """Append to `found` the innermost function (`owner` outside any) around
    each call of a name in `names` under node."""
    for child in ast.iter_child_nodes(node):
        inner = owner
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = child.name
        elif isinstance(child, ast.Call):
            f = child.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name in names:
                found.append(owner)
        _callers(child, names, inner, found)


def test_complexes_with_raw_squares_go_through_make():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        names = []
        _callers(ast.parse(path.read_text()), ("CubeComplexBall",),
                 "<module>", names)
        found |= {(path.stem, n) for n in names}
    assert found == DIRECT_BUILDERS


# Work done once per owner: each computation has one call site, the cached
# property by which its owner keeps the result.
OWNED = {"_hyperplanes": ("cube_complex", "_hyperplane_tuple"),
         "_orientations": ("wallspace_dual", "flips"),
         "_cube_search": ("wallspace_dual", "maximal_cubes")}


def test_owned_computations_have_one_caller():
    found = {name: [] for name in OWNED}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for name, calls in found.items():
            owners = []
            _callers(tree, (name,), "<module>", owners)
            calls += [(path.stem, n) for n in owners]
    assert found == {name: [owner] for name, owner in OWNED.items()}


def _defined(node):
    """The names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return {t.id for t in targets if isinstance(t, ast.Name)}
    return set()


def _module_uses(tree):
    """(module, name) pairs a file of `src/` or `perfbench/` uses through
    `from <module> import name` or as `alias.name` with alias bound to a
    cubikit module."""
    bound, out = {}, set()
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom):
            if n.level:     # relative imports occur only inside cubikit
                path = f"cubikit.{n.module}" if n.module else "cubikit"
            else:
                path = n.module
            if path == "cubikit":
                bound.update((a.asname or a.name, a.name) for a in n.names)
            elif path.startswith("cubikit."):
                out |= {(path[len("cubikit."):], a.name) for a in n.names}
        elif isinstance(n, ast.Import):
            bound.update((a.asname, a.name[len("cubikit."):])
                         for a in n.names
                         if a.asname and a.name.startswith("cubikit."))
    for n in ast.walk(tree):
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) \
                and n.value.id in bound:
            out.add((bound[n.value.id], n.attr))
    return out


def test_every_src_name_has_a_caller():
    """Each top-level name N of a module M of `src/` (dunders aside) has a
    caller in `src/` or `perfbench/`: a use of N inside M outside its own
    definition, a `from M import N`, or `alias.N` with alias bound to M.  A
    name used under another module, or as a method, does not count."""
    defined, used = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            names = _defined(node)
            defined |= {(path.stem, n) for n in names}
            used |= {(path.stem, n.id) for n in ast.walk(node)
                     if isinstance(n, ast.Name) and n.id not in names}
        used |= _module_uses(tree)
    for path in sorted(PERFBENCH.glob("*.py")):
        used |= _module_uses(ast.parse(path.read_text()))
    unused = {f"{m}.{n}" for m, n in defined - used if not n.startswith("__")}
    assert unused - TEST_ONLY == set(), "names without a caller"
    assert TEST_ONLY - unused == set(), "listed names that now have a caller"


def _attribute_reads(tree):
    """Counter of the attribute names read (`x.name`) under a node."""
    return collections.Counter(
        n.attr for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))


def test_every_src_method_has_a_reader():
    """Each method of a class of `src/` (dunders aside) is read as an
    attribute, `x.name`, in `src/` or `perfbench/` outside its own body.
    Attributes are matched by name alone: a read of another class's
    attribute of the same name counts."""
    reads = collections.Counter()
    methods = []
    for path in sorted(SRC.glob("*.py")) + sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        reads += _attribute_reads(tree)
        if path.parent != SRC:
            continue
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                methods += [(f"{path.stem}.{cls.name}.{fn.name}", fn)
                            for fn in cls.body
                            if isinstance(fn, ast.FunctionDef)
                            and not fn.name.startswith("__")]
    unread = {name for name, fn in methods
              if reads[fn.name] == _attribute_reads(fn)[fn.name]}
    assert unread - TEST_ONLY_METHODS == set(), "methods without a reader"
    assert TEST_ONLY_METHODS - unread == set(), \
        "listed methods that now have a reader"


def _private_attribute_sets(tree):
    """(line, target) for each statement under `tree` that sets an attribute
    named `_...` on an object other than `self`: an assignment target
    `x._name`, or `object.__setattr__(x, "_name", ...)` or
    `setattr(x, "_name", ...)` with x not `self`."""
    def is_self(node):
        return isinstance(node, ast.Name) and node.id == "self"

    found = []
    for n in ast.walk(tree):
        targets = []
        if isinstance(n, ast.Assign):
            targets = n.targets
        elif isinstance(n, (ast.AugAssign, ast.AnnAssign)):
            targets = [n.target]
        for t in targets:
            for a in ast.walk(t):
                if isinstance(a, ast.Attribute) and \
                        isinstance(a.ctx, ast.Store) and \
                        a.attr.startswith("_") and not is_self(a.value):
                    found.append((n.lineno, ast.unparse(a)))
        if isinstance(n, ast.Call) and len(n.args) >= 2:
            f = n.func
            setter = (isinstance(f, ast.Name) and f.id == "setattr") or (
                isinstance(f, ast.Attribute) and f.attr == "__setattr__"
                and isinstance(f.value, ast.Name) and f.value.id == "object")
            name = n.args[1]
            if setter and not is_self(n.args[0]) and \
                    isinstance(name, ast.Constant) and \
                    str(name.value).startswith("_"):
                found.append((n.lineno, ast.unparse(n)))
    return found


def test_no_private_attributes_set_from_outside():
    """No statement of `src/` bolts a private attribute onto another object:
    a derived table is a field or cached property its owner builds."""
    found = {(path.name, line, text)
             for path in sorted(SRC.glob("*.py"))
             for line, text in _private_attribute_sets(
                 ast.parse(path.read_text()))}
    assert found == set()


def test_private_attribute_rule_sees_each_form():
    code = ("b._nbrs = {}\n"
            "object.__setattr__(b, '_adj', {})\n"
            "setattr(b, '_x', 1)\n"
            "b._n += 1\n"
            "self._ok = 1\n"
            "object.__setattr__(self, '_ok', 1)\n"
            "b.public = 1\n")
    assert sorted(line for line, _ in _private_attribute_sets(
        ast.parse(code))) == [1, 2, 3, 4]


# Backticked identifiers of `src/` docstrings that name nothing defined in
# `src/`: a Python constant, a benchmark workload and a standard-library
# call.  A name that comes to be defined, or leaves the docstrings, leaves
# this list.
DOC_NAMES_ELSEWHERE = {"None", "tracks", "json.dump"}

_DOC_NAME = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)`")


def _parameters(fn):
    a = fn.args
    return {x.arg for x in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                            a.vararg, a.kwarg) if x}


def _unresolved_doc_names(sources):
    """The backticked identifiers of the docstrings in `sources` (module
    name -> source text) that name nothing in them.  A plain name resolves
    to a def or class, a module-level name, a field (an annotated class
    attribute or a string key of a dict display), a parameter of a public
    function or of the documented one, or a module; a dotted name resolves
    by its last part, which must be defined in the module its first part
    names, if it names one."""
    trees = {m: ast.parse(text) for m, text in sources.items()}
    defined, known, docs = {}, {"cubikit", *trees}, []
    for mod, tree in trees.items():
        own = defined[mod] = set()
        for node in tree.body:
            own |= _defined(node)
        for n in ast.walk(tree):
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
                own.add(n.name)
                if ast.get_docstring(n):
                    docs.append((mod, n))
            if isinstance(n, ast.ClassDef):
                own |= {b.target.id for b in n.body
                        if isinstance(b, ast.AnnAssign)
                        and isinstance(b.target, ast.Name)}
            elif isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and \
                    (not n.name.startswith("_") or n.name.startswith("__")):
                known |= _parameters(n)
            elif isinstance(n, ast.Dict):
                known |= {k.value for k in n.keys
                          if isinstance(k, ast.Constant)
                          and isinstance(k.value, str)}
        known |= own
        if ast.get_docstring(tree):
            docs.append((mod, tree))
    found = set()
    for mod, node in docs:
        scope = known | (_parameters(node) if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)) else set())
        for name in _DOC_NAME.findall(ast.get_docstring(node)):
            parts = name.split(".")
            where = defined.get(parts[0], scope) if len(parts) > 1 else scope
            if parts[-1] not in where:
                found.add(name)
    return found


def test_docstring_names_resolve():
    """Every backticked identifier in a `src/` docstring names something
    defined in `src/` (see `_unresolved_doc_names`), so a renamed or
    removed name leaves no stale mention behind."""
    found = _unresolved_doc_names(
        {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))})
    assert found - DOC_NAMES_ELSEWHERE == set(), "docstring names unresolved"
    assert DOC_NAMES_ELSEWHERE - found == set(), \
        "listed docstring names that now resolve"


def test_docstring_name_rule_sees_each_form():
    code = ('"""`f`, `C.x`, `m.f`, `m.gone`, `gone`, `key` and `p`."""\n'
            "class C:\n    x: int\n"
            "def f(p):\n    '''`p`, `q` and `_q`.'''\n    return {'key': p}\n"
            "def _g(q):\n    '''`q`.'''\n")
    # `q` resolves in the docstring of `_g`, whose parameter it is, and
    # nowhere else: `_g` is private
    assert _unresolved_doc_names({"m": code}) == {"m.gone", "gone", "q", "_q"}
