"""Files near the workspace, diagram and bindings shapes, each with a few
values replaced by arbitrary JSON, fed to the loaders (`parse_workspace`,
`parse_diagram` and `load_bindings` from a file) and to `plexus eval` on
them. A loader gives its value or a PlexusError and nothing else, and the
CLI exits 0 or 2, never with another exception (exit 1 is a failed law).
The draws are derandomized and bounded, so runs repeat exactly."""
import copy
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from plexus.cli import run_command  # noqa: E402
from plexus.core import PlexusError  # noqa: E402
from plexus.workspace import load_bindings, load_diagram, load_workspace, parse_diagram, parse_workspace  # noqa: E402

BOUNDED = settings(max_examples=100, derandomize=True, deadline=None, database=None)

VERTICES = [{"id": "v0", "index_set": "I"}, {"id": "v1", "index_set": "J", "contracted": True},
            {"id": "v2", "index_set": "I"}]
EDGES = [{"id": "e0", "legs": ["v0", "v1"], "label": "a"}, {"id": "e1", "legs": ["v1", "v2"], "label": "b"}]
ARRAYS = {"a": {"axes": ["I", "J"], "entries": [1, 2, 3, 4, 0, 1]},
          "b": {"axes": ["J", "I"], "entries": [0, 1, 1, 0, 2, 2]}}
WORKSPACE = {"semiring": "int-mod:5", "index_sets": {"I": 2, "J": 3}, "arrays": ARRAYS,
             "diagrams": {"d": {"vertices": VERTICES, "edges": EDGES}}}
DIAGRAM = {"index_sets": {"I": 2, "J": 3}, "vertices": VERTICES, "edges": EDGES}
BINDINGS = {"semiring": "min-plus", "arrays": {"e0": ARRAYS["a"], "b": {"axes": ["J", "I"],
                                                                      "entries": ["inf", 0, 1, 2, 3, 4]}}}

# the keys and strings of the shapes, so a replaced value often names a part that exists
WORDS = ["semiring", "index_sets", "arrays", "diagrams", "vertices", "edges", "axes", "entries", "id", "legs",
         "label", "index_set", "contracted", "I", "J", "v0", "v1", "e0", "a", "b", "inf", "boolean", "nat64",
         "int-mod:5", "min-plus", "float64"]
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2, 6), st.integers(), st.floats(),
                    st.sampled_from(WORDS), st.text(max_size=3))
VALUES = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.dictionaries(st.sampled_from(WORDS), inner, max_size=3)), max_leaves=8)


@st.composite
def near(draw, shape):
    """`shape` with one to three of its values, mostly deep ones, replaced
    by arbitrary JSON or deleted."""
    obj = copy.deepcopy(shape)
    for _ in range(draw(st.integers(1, 3))):
        parent, key, node = None, None, obj
        while isinstance(node, (dict, list)) and node and (parent is None or draw(st.integers(0, 3))):
            parent, key = node, draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
            node = node[key]
        if isinstance(parent, dict) and draw(st.integers(0, 3)) == 0:
            del parent[key]
        elif parent is not None:
            parent[key] = draw(VALUES)
    return obj


def _written(directory, name, obj):
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def _loaded(load, *args):
    """load(*args), or None if it refused with a PlexusError: any other exception escapes."""
    try:
        return load(*args)
    except PlexusError:
        return None


def _exit_code(argv):
    with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
        return run_command(argv)


@BOUNDED
@given(near(WORKSPACE))
def test_a_fuzzed_workspace_loads_or_is_refused_and_eval_exits_0_or_2(obj):
    parsed = _loaded(parse_workspace, obj)
    with tempfile.TemporaryDirectory() as directory:
        path = _written(directory, "ws.json", obj)
        assert (_loaded(load_workspace, path) is None) == (parsed is None)
        assert _exit_code(["eval", path]) in (0, 2)


@BOUNDED
@given(near(DIAGRAM), near(BINDINGS))
def test_a_fuzzed_diagram_and_bindings_load_or_are_refused_and_eval_exits_0_or_2(diagram, bindings):
    parsed = _loaded(parse_diagram, diagram)
    with tempfile.TemporaryDirectory() as directory:
        dpath, bpath = _written(directory, "d.json", diagram), _written(directory, "b.json", bindings)
        assert (_loaded(load_diagram, dpath) is None) == (parsed is None)
        _loaded(load_bindings, bpath, (parsed or parse_diagram(DIAGRAM))[1])
        assert _exit_code(["eval", dpath, "--bindings", bpath]) in (0, 2)
