"""Workspace, diagram, and bindings JSON loading with structured errors."""
import json
import math

import pytest

from plexus import (
    PlexusError,
    array_to_json,
    diagram_to_json,
    load_bindings,
    load_diagram,
    load_workspace,
    make_semiring,
    parse_diagram,
    parse_workspace,
    standard_diagram,
)

GOOD = {
    "semiring": "int-mod:5",
    "index_sets": {"I": 2, "J": 3},
    "arrays": {
        "a": {"axes": ["I", "J"], "entries": [0, 1, 2, 3, 4, 0]},
        "s": {"axes": [], "entries": [3]},
    },
    "diagrams": {
        "d": {
            "vertices": [
                {"id": "v0", "index_set": "I", "contracted": False},
                {"id": "v1", "index_set": "J", "contracted": True},
                {"id": "v2", "index_set": "I", "contracted": False},
            ],
            "edges": [
                {"id": "e0", "legs": ["v0", "v1"], "label": "a"},
                {"id": "e1", "legs": ["v1", "v2"]},
            ],
        }
    },
}


def write_json(tmp_path, obj, name="w.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def test_parse_valid_workspace():
    ws = parse_workspace(GOOD)
    assert ws.semiring.name == "int-mod:5"
    assert ws.index_sets["I"].size == 2
    assert ws.index_sets["J"].size == 3
    a = ws.arrays["a"]
    assert a.axes == (ws.index_sets["I"], ws.index_sets["J"])
    assert a.entries == (0, 1, 2, 3, 4, 0)
    assert ws.arrays["s"].order == 0
    d = ws.diagrams["d"]
    assert not d.vertices["v0"].marked
    assert d.vertices["v1"].marked
    assert d.edges["e0"].label == "a"
    assert d.edges["e1"].label == "e1"


def test_load_workspace_file(tmp_path):
    ws = load_workspace(write_json(tmp_path, GOOD))
    assert sorted(ws.arrays) == ["a", "s"]
    assert list(ws.diagrams) == ["d"]


def test_malformed_json_reports_line_and_column(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"semiring": "boolean",}')
    with pytest.raises(PlexusError) as err:
        load_workspace(str(p))
    assert err.value.code == "PARSE_ERROR"
    assert "line" in str(err.value)


def test_missing_file_is_parse_error(tmp_path):
    with pytest.raises(PlexusError) as err:
        load_workspace(str(tmp_path / "absent.json"))
    assert err.value.code == "PARSE_ERROR"


def test_missing_semiring():
    with pytest.raises(PlexusError) as err:
        parse_workspace({"index_sets": {"I": 2}})
    assert err.value.code == "PARSE_ERROR"


def test_bad_semiring_token():
    for token, code in (("tropical", "UNKNOWN_KIND"), (7, "PARSE_ERROR"), (["boolean"], "PARSE_ERROR")):
        with pytest.raises(PlexusError) as err:
            parse_workspace({"semiring": token})
        assert err.value.code == code


def test_bad_index_set_sizes():
    for size in (0, -1, True, "2"):
        with pytest.raises(PlexusError) as err:
            parse_workspace({"semiring": "boolean", "index_sets": {"I": size}})
        assert err.value.code == "PARSE_ERROR"


def test_unknown_index_set_in_array():
    for axis, code in (("Q", "UNKNOWN_INDEX_SET"), (["I"], "PARSE_ERROR")):
        obj = {
            "semiring": "boolean",
            "index_sets": {"I": 2},
            "arrays": {"a": {"axes": [axis], "entries": [0, 1]}},
        }
        with pytest.raises(PlexusError) as err:
            parse_workspace(obj)
        assert err.value.code == code
        assert err.value.location == "arrays.a"


def test_entry_count_mismatch():
    obj = {
        "semiring": "boolean",
        "index_sets": {"I": 2},
        "arrays": {"a": {"axes": ["I", "I"], "entries": [0, 1, 0]}},
    }
    with pytest.raises(PlexusError) as err:
        parse_workspace(obj)
    assert err.value.code == "SIZE_MISMATCH"


def test_bad_element_for_semiring():
    for semiring, bad in (("boolean", 7), ("float64", math.nan), ("float64", math.inf),
                          ("float64", -math.inf), ("float64", 10**400)):
        obj = {
            "semiring": semiring,
            "index_sets": {"I": 2},
            "arrays": {"a": {"axes": ["I"], "entries": [0, bad]}},
        }
        with pytest.raises(PlexusError) as err:
            parse_workspace(obj)
        assert err.value.code == "BAD_ELEMENT"


def test_min_plus_inf_round_trip():
    obj = {
        "semiring": "min-plus",
        "index_sets": {"I": 2},
        "arrays": {"a": {"axes": ["I"], "entries": ["inf", 4]}},
    }
    ws = parse_workspace(obj)
    a = ws.arrays["a"]
    assert math.isinf(a.entries[0])
    assert a.entries[1] == 4
    assert array_to_json(a)["entries"] == ["inf", 4]


def test_unknown_index_set_in_vertex():
    for iset, code in (("Z", "UNKNOWN_INDEX_SET"), (["I"], "PARSE_ERROR")):
        obj = {
            "semiring": "boolean",
            "index_sets": {"I": 2},
            "diagrams": {
                "d": {
                    "vertices": [{"id": "v0", "index_set": iset}],
                    "edges": [{"id": "e0", "legs": ["v0"]}],
                }
            },
        }
        with pytest.raises(PlexusError) as err:
            parse_workspace(obj)
        assert err.value.code == code
        assert err.value.location == "diagrams.d.vertices[0]"


def test_edge_leg_must_name_a_vertex():
    obj = {
        "semiring": "boolean",
        "index_sets": {"I": 2},
        "diagrams": {
            "d": {
                "vertices": [{"id": "v0", "index_set": "I"}],
                "edges": [{"id": "e0", "legs": ["v0", "ghost"]}],
            }
        },
    }
    with pytest.raises(PlexusError) as err:
        parse_workspace(obj)
    assert err.value.code == "BAD_REFERENCE"


def test_duplicate_ids_rejected():
    base = {"semiring": "boolean", "index_sets": {"I": 2}}
    dup_v = {
        **base,
        "diagrams": {
            "d": {
                "vertices": [
                    {"id": "v0", "index_set": "I"},
                    {"id": "v0", "index_set": "I"},
                ],
                "edges": [{"id": "e0", "legs": ["v0"]}],
            }
        },
    }
    with pytest.raises(PlexusError) as err:
        parse_workspace(dup_v)
    assert err.value.code == "PARSE_ERROR"
    dup_e = {
        **base,
        "diagrams": {
            "d": {
                "vertices": [
                    {"id": "v0", "index_set": "I"},
                    {"id": "v1", "index_set": "I"},
                ],
                "edges": [
                    {"id": "e0", "legs": ["v0"]},
                    {"id": "e0", "legs": ["v1"]},
                ],
            }
        },
    }
    with pytest.raises(PlexusError) as err:
        parse_workspace(dup_e)
    assert err.value.code == "PARSE_ERROR"


def test_structural_diagram_errors_keep_their_code():
    obj = {
        "semiring": "boolean",
        "index_sets": {"I": 2},
        "diagrams": {
            "d": {
                "vertices": [
                    {"id": "v0", "index_set": "I"},
                    {"id": "v1", "index_set": "I"},
                ],
                "edges": [{"id": "e0", "legs": ["v0"]}],
            }
        },
    }
    with pytest.raises(PlexusError) as err:
        parse_workspace(obj)
    assert err.value.code == "INVALID_DIAGRAM"


def test_standalone_diagram_file(tmp_path):
    obj = {
        "index_sets": {"I": 2, "J": 3},
        "vertices": [
            {"id": "v0", "index_set": "I"},
            {"id": "v1", "index_set": "J", "contracted": True},
            {"id": "v2", "index_set": "I"},
        ],
        "edges": [
            {"id": "e0", "legs": ["v0", "v1"]},
            {"id": "e1", "legs": ["v1", "v2"]},
        ],
    }
    d, index_sets = load_diagram(write_json(tmp_path, obj, "d.json"))
    assert sorted(index_sets) == ["I", "J"]
    assert d.vertices["v1"].marked
    d2, sets2 = parse_diagram(obj)
    assert d2.vertices.keys() == d.vertices.keys()
    assert sets2["J"].size == 3


def test_load_bindings(tmp_path):
    dobj = {
        "index_sets": {"I": 2},
        "vertices": [
            {"id": "v0", "index_set": "I"},
            {"id": "v1", "index_set": "I", "contracted": True},
            {"id": "v2", "index_set": "I"},
        ],
        "edges": [
            {"id": "e0", "legs": ["v0", "v1"]},
            {"id": "e1", "legs": ["v1", "v2"]},
        ],
    }
    _, index_sets = load_diagram(write_json(tmp_path, dobj, "d.json"))
    bobj = {
        "semiring": "int-mod:5",
        "arrays": {
            "e0": {"axes": ["I", "I"], "entries": [1, 2, 3, 4]},
            "e1": {"axes": ["I", "I"], "entries": [0, 1, 1, 0]},
        },
    }
    semiring, arrays = load_bindings(write_json(tmp_path, bobj, "b.json"), index_sets)
    assert semiring.name == "int-mod:5"
    assert arrays["e0"].entries == (1, 2, 3, 4)


def test_bindings_need_semiring(tmp_path):
    for obj in ({"arrays": {}}, {"semiring": 7, "arrays": {}}):
        path = write_json(tmp_path, obj, "b.json")
        with pytest.raises(PlexusError) as err:
            load_bindings(path, {})
        assert err.value.code == "PARSE_ERROR"


def test_array_json_round_trip():
    ws = parse_workspace(GOOD)
    a = ws.arrays["a"]
    j = array_to_json(a)
    assert j["axes"] == [{"id": "I", "size": 2}, {"id": "J", "size": 3}]
    assert j["entries"] == [0, 1, 2, 3, 4, 0]


def test_diagram_json_round_trip():
    d = standard_diagram("vee")
    obj = diagram_to_json(d)
    assert {v["id"] for v in obj["vertices"]} == set(d.vertices)
    marked = {v["id"] for v in obj["vertices"] if v["contracted"]}
    assert marked == {v.id for v in d.vertices.values() if v.marked}
    obj["index_sets"] = {ax.index_set.id: ax.index_set.size for ax in d.vertices.values()}
    d2, _ = parse_diagram(obj)
    assert d2.vertices.keys() == d.vertices.keys()
    assert {e.label for e in d2.edges.values()} == {e.label for e in d.edges.values()}


def test_float64_entries_round_trip():
    obj = {
        "semiring": "float64",
        "index_sets": {"I": 2},
        "arrays": {"a": {"axes": ["I"], "entries": [0.5, 2]}},
    }
    ws = parse_workspace(obj)
    assert array_to_json(ws.arrays["a"])["entries"] == [0.5, 2.0]


def test_semiring_token_spellings():
    for token in ("int-mod:5", "int_mod:5"):
        ws = parse_workspace({"semiring": token})
        assert ws.semiring.modulus == 5
    assert parse_workspace({"semiring": "min-plus"}).semiring.name == "min-plus"
    assert make_semiring("min_plus").name == "min-plus"
