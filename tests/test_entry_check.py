"""Differential tests of the one-pass entry check: `entries_from_json` and
`make_array` take a list of ints in range whole, and must give the same
entries, of the same types, or the same error code and message, as the
per-entry `element_from_json` and `validate` on every kind. Examples are
derandomized and bounded, so runs repeat exactly."""
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from plexus import Array, IndexSet, PlexusError, make_array, parse_semiring  # noqa: E402

SEMIRINGS = [parse_semiring(t) for t in ("boolean", "nat64", "int-mod:2", "int-mod:7", "min-plus", "float64")]
BOUNDED = settings(max_examples=400, derandomize=True, deadline=None, database=None)

entry = st.one_of(
    st.integers(-3, 9),
    st.sampled_from([2**64 - 1, 2**64, -(2**64), 10**30]),
    st.booleans(),
    st.floats(),  # NaN and the infinities included
    st.sampled_from([0.0, 1.0, 2.5, -1.0, "inf", "-inf", "1", None]),
)
# lists of small ints, most of them in range, are the common input: draw them often
entry_lists = st.one_of(st.lists(st.integers(-1, 2), max_size=6), st.lists(st.integers(-1, 7), max_size=6),
                        st.lists(entry, max_size=6))


def outcome(compute):
    try:
        return "ok", [(type(x), x) for x in compute()]
    except PlexusError as err:
        return "refused", err.code, str(err)


@BOUNDED
@given(st.sampled_from(SEMIRINGS), entry_lists)
def test_entries_from_json_agrees_with_each_entry(semiring, values):
    want = outcome(lambda: [semiring.element_from_json(v) for v in values])
    assert outcome(lambda: semiring.entries_from_json(values)) == want


@BOUNDED
@given(st.sampled_from(SEMIRINGS), entry_lists.filter(len))
def test_make_array_agrees_with_validate(semiring, values):
    axes = (IndexSet("I", len(values)),)

    def each():
        for x in values:
            semiring.validate(x)
        return Array(axes, values, semiring).entries

    assert outcome(lambda: make_array(axes, values, semiring).entries) == outcome(each)
