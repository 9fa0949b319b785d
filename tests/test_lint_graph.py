"""Unit tests for the whole-program symbol graph under simlint v2."""

import ast
import textwrap
from pathlib import Path

from repro.lint.engine import iter_python_files
from repro.lint.graph import ProjectGraph, module_name_for

SRC = Path(__file__).parent.parent / "src"


def build(files):
    """files: {posix path: source} -> ProjectGraph."""
    graph = ProjectGraph()
    for path, source in files.items():
        graph.add_module(path, ast.parse(textwrap.dedent(source)))
    return graph


# -- module naming and imports ----------------------------------------------

def test_module_name_follows_init_py_packaging(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "__init__.py").write_text("")
    (tmp_path / "pkg" / "sub").mkdir()
    (tmp_path / "pkg" / "sub" / "__init__.py").write_text("")
    mod = tmp_path / "pkg" / "sub" / "mod.py"
    mod.write_text("x = 1\n")
    assert module_name_for(mod) == "pkg.sub.mod"
    assert module_name_for(tmp_path / "pkg" / "sub" / "__init__.py") == \
        "pkg.sub"
    loose = tmp_path / "script.py"
    loose.write_text("x = 1\n")
    assert module_name_for(loose) == "script"


def test_import_alias_maps():
    graph = build({"m.py": """\
        import collections
        import numpy as np
        from os import path as osp
        from pkg.mod import Thing
    """})
    imports = graph.modules["m"].imports
    assert imports["collections"] == "collections"
    assert imports["np"] == "numpy"
    assert imports["osp"] == "os.path"
    assert imports["Thing"] == "pkg.mod.Thing"


def test_relative_imports_resolve_against_package():
    # add_module normally derives names from on-disk __init__.py files;
    # explicit names here pin the relative-import arithmetic alone.
    graph = ProjectGraph()
    graph.add_module("pkg/__init__.py", ast.parse(""), name="pkg")
    graph.add_module("pkg/base.py",
                     ast.parse("class Base:\n    pass\n"), name="pkg.base")
    graph.add_module("pkg/sub/mod.py",
                     ast.parse("from ..base import Base\n"
                               "class Child(Base):\n    pass\n"),
                     name="pkg.sub.mod")
    child = graph.modules["pkg.sub.mod"].classes["Child"]
    order, unresolved = graph.ancestors(child)
    assert [c.qualname for c in order] == ["pkg.sub.mod.Child",
                                           "pkg.base.Base"]
    assert unresolved == set()


# -- taint fixpoint ----------------------------------------------------------

def test_taint_propagates_through_call_chain():
    graph = build({
        "clock.py": """\
            import time

            def stamp():
                return time.monotonic()
        """,
        "wrap.py": """\
            from clock import stamp

            def padded():
                return stamp() + 1
        """,
    })
    summaries = graph.taint_summaries()
    assert ("clock", "", "stamp") in summaries
    origin = summaries[("wrap", "", "padded")]
    assert "wall-clock read 'time.monotonic'" in origin
    assert "via call to 'clock.stamp'" in origin


def test_seeded_rng_and_pure_helpers_stay_clean():
    graph = build({"m.py": """\
        import random

        def make_rng(seed):
            return random.Random(seed)

        def double(x):
            return 2 * x
    """})
    assert graph.taint_summaries() == {}


def test_method_taint_keys_by_defining_class():
    graph = build({"m.py": """\
        import random

        class Base:
            def draw(self):
                return random.random()

        class Child(Base):
            def pick(self):
                return self.draw()
    """})
    summaries = graph.taint_summaries()
    assert ("m", "Base", "draw") in summaries
    # Child.pick's self.draw() resolves to Base.draw, so the taint
    # reaches it through the hierarchy.
    assert ("m", "Child", "pick") in summaries


# -- node index ---------------------------------------------------------------

def _outermost_functions(tree):
    """Functions not nested in another function, in ast.walk order."""
    found, queue = [], [tree]
    for node in queue:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append(child)
            else:
                queue.append(child)
    return found


def test_node_index_is_ast_walk_order_for_every_module_and_function():
    """Rules and SIM013's first-origin messages rely on the index
    yielding exactly what ``ast.walk`` would, in the same order."""
    graph = ProjectGraph()
    for path in iter_python_files([SRC]):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module = graph.add_module(path, tree)
        assert module.nodes == list(ast.walk(tree)), path
        for fn in module.all_functions():
            assert fn.nodes == list(ast.walk(fn.node)), fn.qualname
        assert list(module.scopes()) == _outermost_functions(tree), path
        for function in module.scopes():
            assert module.walk(function) == list(ast.walk(function))


def test_node_index_slices_nested_and_conditional_functions():
    graph = build({"m.py": """\
        if True:
            def guarded(a):
                def inner(b):
                    return b + 1
                return inner(a)

        class C:
            class Nested:
                def deep(self):
                    return [x for x in range(3)]

            def method(self, y):
                return lambda z: y + z
    """})
    module = graph.modules["m"]
    names = [fn.name for fn in module.scopes()]
    assert names == ["guarded", "method", "deep"]
    for function in module.scopes():
        assert module.walk(function) == list(ast.walk(function))
    assert [fn.name for fn in module.all_functions()] == ["method"]
