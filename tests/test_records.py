"""The immutable records keep a frozen dataclass's semantics: equality
needs the same class and equal fields, the hash is the hash of the field
tuple, the repr lists the fields, and no field can be set or deleted."""
import pytest

from plexus import (
    BoundEdge,
    Hyperedge,
    IndexSet,
    Match,
    Motif,
    Semiring,
    Vertex,
    Verdict,
    Workspace,
    make_array,
    make_semiring,
    standard_diagram,
)

I2 = IndexSet("I", 2)
BOOL = make_semiring("boolean")
PATTERN = standard_diagram("vee")
ARRAY = make_array((I2,), [0, 1], BOOL)

RECORDS = [
    (IndexSet("I", 2), ("I", 2), "IndexSet(id='I', size=2)"),
    (Verdict(False, "law", (1,)), (False, "law", (1,)), "Verdict(ok=False, law='law', witness=(1,))"),
    (Vertex("v0", I2), ("v0", I2, False),
     "Vertex(id='v0', index_set=IndexSet(id='I', size=2), marked=False)"),
    (Hyperedge("e0", ("v0", "v1")), ("e0", ("v0", "v1"), "e0"),
     "Hyperedge(id='e0', legs=('v0', 'v1'), label='e0')"),
    (Semiring("int_mod", 5), ("int_mod", 5), "Semiring(kind='int_mod', modulus=5)"),
    (Motif(PATTERN), (PATTERN,), f"Motif(pattern={PATTERN!r})"),
    (BoundEdge(ARRAY, {"v0": 0}), (ARRAY, {"v0": 0}), f"BoundEdge(array={ARRAY!r}, leg_to_axis={{'v0': 0}})"),
    (Match({"a": "b"}, {"e": "f"}), ({"a": "b"}, {"e": "f"}),
     "Match(vertex_map={'a': 'b'}, edge_map={'e': 'f'})"),
    (Workspace(BOOL), (BOOL, {}, {}, {}),
     "Workspace(semiring=Semiring(kind='boolean', modulus=0), index_sets={}, arrays={}, diagrams={})"),
]
IDS = [type(r).__name__ for r, _, _ in RECORDS]


@pytest.mark.parametrize("record, fields, text", RECORDS, ids=IDS)
def test_record_eq_hash_repr(record, fields, text):
    assert repr(record) == text
    assert record == type(record)(*fields) and not record != type(record)(*fields)
    assert record != fields
    try:
        want = hash(fields)
    except TypeError:  # a dict field: unhashable, as a frozen dataclass is
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == want


@pytest.mark.parametrize("record, fields, text", RECORDS, ids=IDS)
def test_record_is_immutable(record, fields, text):
    name = type(record).__slots__[0]
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, name) == fields[0]


def test_records_of_another_class_are_never_equal():
    assert IndexSet("I", 2) != Vertex("I", 2)
    assert IndexSet("I", 2) != ("I", 2)
    assert hash(IndexSet("I", 2)) == hash(("I", 2))
    assert {IndexSet("I", 2): 1}[IndexSet("I", 2)] == 1
    assert Verdict(True) == Verdict(True, "", None) and bool(Verdict(True)) and not Verdict(False)


def test_record_defaults_and_keywords():
    assert Vertex(id="v", index_set=I2).marked is False
    assert Hyperedge("e1", ("v0",), label="a").label == "a"
    assert Semiring(kind="boolean") == BOOL
    assert IndexSet(size=3, id="J") == IndexSet("J", 3)
