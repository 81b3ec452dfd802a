"""Workspace JSON: a semiring, named index sets, named arrays, and named
diagrams, loaded with structured error codes.

Workspace shape:
{
  "semiring": "boolean" | "nat64" | "int-mod:5" | "min-plus" | "float64",
  "index_sets": {"I": 2, "J": 3},
  "arrays": {"a": {"axes": ["I", "J"], "entries": [0, 1, 1, 0, 1, 1]}},
  "diagrams": {
    "d": {
      "vertices": [{"id": "v0", "index_set": "I", "contracted": false}, ...],
      "edges": [{"id": "e0", "legs": ["v0", "v1"], "label": "a"}, ...]
    }
  }
}

A standalone diagram file uses the same vertex/edge shape with its own
top-level "index_sets". Array entries are row-major over the axes. The
min-plus zero is the string "inf". Edge labels default to the edge id;
`plexus eval` binds the array whose name equals each edge's label.
"""
from __future__ import annotations

import json
import math

from .arrays import Array
from .core import IndexSet, PlexusError, Record, int_in
from .diagram import Diagram, Hyperedge, Vertex
from .semiring import Semiring, parse_semiring


class Workspace(Record):
    __slots__ = ("semiring", "index_sets", "arrays", "diagrams")

    def __init__(self, semiring: Semiring, index_sets=None, arrays=None, diagrams=None):
        object.__setattr__(self, "semiring", semiring)
        object.__setattr__(self, "index_sets", {} if index_sets is None else index_sets)
        object.__setattr__(self, "arrays", {} if arrays is None else arrays)
        object.__setattr__(self, "diagrams", {} if diagrams is None else diagrams)


def _require(cond: bool, code: str, message: str, location: str):
    if not cond:
        raise PlexusError(code, message, location)


def _section(obj: dict, key: str, load) -> dict:
    """A file's section `key` by name, each entry loaded by load(name, entry, location); an absent
    section reads as empty, and one that is not an object is refused at `key`."""
    raw = obj.get(key, {})
    _require(isinstance(raw, dict), "PARSE_ERROR", f"'{key}' must be an object", key)
    return {name: load(name, entry, f"{key}.{name}") for name, entry in raw.items()}


def _index_set(name, size, loc: str) -> IndexSet:
    _require(int_in(size, 1, math.inf), "PARSE_ERROR", f"index set {name!r} needs a positive integer size", loc)
    return IndexSet(name, size)


def _parse_header(obj, what: str) -> Semiring:
    _require(isinstance(obj, dict), "PARSE_ERROR", f"{what} must be an object", "$")
    _require("semiring" in obj, "PARSE_ERROR", "missing 'semiring'", "$")
    return parse_semiring(obj["semiring"])


def parse_workspace(obj) -> Workspace:
    semiring = _parse_header(obj, "workspace")
    index_sets = _section(obj, "index_sets", _index_set)
    arrays = _parse_arrays(obj, index_sets, semiring)
    diagrams = _section(obj, "diagrams", lambda _, spec, loc: _load_diagram(spec, index_sets, loc))
    return Workspace(semiring, index_sets, arrays, diagrams)


def parse_diagram(obj):
    """Validate a standalone diagram object carrying its own index_sets.

    Returns (diagram, index_sets)."""
    _require(isinstance(obj, dict), "PARSE_ERROR", "diagram must be an object", "$")
    index_sets = _section(obj, "index_sets", _index_set)
    return _load_diagram(obj, index_sets, "$"), index_sets


def _parse_arrays(obj, index_sets, semiring) -> dict:
    return _section(obj, "arrays", lambda _, spec, loc: _load_array(spec, loc, index_sets, semiring))


def _load_array(spec, loc, index_sets, semiring) -> Array:
    _require(isinstance(spec, dict), "PARSE_ERROR", "array spec must be an object", loc)
    _require("axes" in spec and "entries" in spec, "PARSE_ERROR", "array needs 'axes' and 'entries'", loc)
    _require(isinstance(spec["axes"], list), "PARSE_ERROR", "'axes' must be a list", loc)
    axes = []
    for ax in spec["axes"]:
        _require(isinstance(ax, str), "PARSE_ERROR", f"axis {ax!r} must name an index set", loc)
        if ax not in index_sets:
            raise PlexusError("UNKNOWN_INDEX_SET", f"axis {ax!r} is not a declared index set", loc)
        axes.append(index_sets[ax])
    _require(isinstance(spec["entries"], list), "PARSE_ERROR", "'entries' must be a list", loc)
    try:
        return Array(axes, semiring.entries_from_json(spec["entries"]), semiring)
    except PlexusError as err:
        raise PlexusError(err.code, err.args[0], loc)


def _load_diagram(spec, index_sets, loc) -> Diagram:
    _require(isinstance(spec, dict), "PARSE_ERROR", "diagram spec must be an object", loc)
    _require(
        isinstance(spec.get("vertices"), list) and isinstance(spec.get("edges"), list),
        "PARSE_ERROR",
        "diagram needs 'vertices' and 'edges' lists",
        loc,
    )
    vertices = {}
    for k, vspec in enumerate(spec["vertices"]):
        vloc = f"{loc}.vertices[{k}]"
        _require(isinstance(vspec, dict), "PARSE_ERROR", "vertex spec must be an object", vloc)
        vid = vspec.get("id")
        _require(isinstance(vid, str), "PARSE_ERROR", "vertex needs a string 'id'", vloc)
        _require(vid not in vertices, "PARSE_ERROR", f"duplicate vertex id {vid!r}", vloc)
        iset = vspec.get("index_set")
        _require(isinstance(iset, str), "PARSE_ERROR", f"'index_set' {iset!r} must name an index set", vloc)
        if iset not in index_sets:
            raise PlexusError("UNKNOWN_INDEX_SET", f"vertex uses undeclared index set {iset!r}", vloc)
        contracted = vspec.get("contracted", False)
        _require(isinstance(contracted, bool), "PARSE_ERROR", "'contracted' must be a boolean", vloc)
        vertices[vid] = Vertex(vid, index_sets[iset], contracted)
    edges = {}
    for k, espec in enumerate(spec["edges"]):
        eloc = f"{loc}.edges[{k}]"
        _require(isinstance(espec, dict), "PARSE_ERROR", "edge spec must be an object", eloc)
        eid = espec.get("id")
        _require(isinstance(eid, str), "PARSE_ERROR", "edge needs a string 'id'", eloc)
        _require(eid not in edges, "PARSE_ERROR", f"duplicate edge id {eid!r}", eloc)
        legs = espec.get("legs")
        _require(
            isinstance(legs, list) and all(isinstance(v, str) for v in legs),
            "PARSE_ERROR",
            "'legs' must be a list of vertex ids",
            eloc,
        )
        for v in legs:
            if v not in vertices:
                raise PlexusError("BAD_REFERENCE", f"edge leg {v!r} is not a declared vertex", eloc)
        label = espec.get("label", "")
        _require(isinstance(label, str), "PARSE_ERROR", "'label' must be a string", eloc)
        edges[eid] = Hyperedge(eid, tuple(legs), label)
    try:
        return Diagram(vertices, edges)
    except PlexusError as err:
        raise PlexusError(err.code, err.args[0], loc)


def load_workspace(path: str) -> Workspace:
    """Read and validate a workspace file. JSON syntax errors surface as
    PARSE_ERROR with line and column in the message."""
    return parse_workspace(_read_json(path))


def load_diagram(path: str):
    """Read a standalone diagram file. Returns (diagram, index_sets)."""
    return parse_diagram(_read_json(path))


def load_bindings(path: str, index_sets: dict):
    """Read an eval bindings file: {"semiring": ..., "arrays": {name: {"axes",
    "entries"}}}. Axes reference the caller's index_sets (normally the ones
    declared by the diagram file). Returns (semiring, arrays by name)."""
    obj = _read_json(path)
    semiring = _parse_header(obj, "bindings")
    return semiring, _parse_arrays(obj, index_sets, semiring)


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as err:
        raise PlexusError("PARSE_ERROR", f"cannot read file: {err}")
    except (ValueError, RecursionError) as err:  # bad syntax or UTF-8, too many digits, too deep
        raise PlexusError("PARSE_ERROR", f"invalid JSON: {err}")


def array_to_json(a: Array) -> dict:
    return {
        "axes": [{"id": ax.id, "size": ax.size} for ax in a.axes],
        "entries": [a.semiring.element_to_json(x) for x in a.entries],
    }


def diagram_to_json(d: Diagram) -> dict:
    return {
        "vertices": [
            {"id": v.id, "index_set": v.index_set.id, "contracted": v.marked}
            for v in d.vertices.values()
        ],
        "edges": [
            {"id": e.id, "legs": list(e.legs), "label": e.label}
            for e in d.edges.values()
        ],
    }
