"""Differential tests of the one-pass entry check: `entries_from_json` and
`make_array` take a list of ints in range (for min-plus, ints >= 0 and
infinity, `"inf"` in JSON and `math.inf` in arrays) whole, and must give
the same entries, of the same types, or the same error code and message,
as the per-entry `element_from_json` and `validate` on every kind. Examples are
derandomized and bounded, so runs repeat exactly."""
import math
import random

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


MIN_PLUS = parse_semiring("min-plus")
BAD = [True, False, 1.0, -1, "INF", 1e400, -1e400, math.nan, "3", "0", None]


def min_plus_lists(rng, inf):
    """Lists of 1 to 12 entries: ints >= 0 and `inf`, with no bad entry in
    half of them and one or two of BAD at random places in the rest."""
    values = [inf if rng.random() < 0.3 else rng.randint(0, 9) for _ in range(rng.randint(1, 12))]
    for _ in range(rng.choice((0, 0, 1, 2))):
        values.insert(rng.randint(0, len(values)), rng.choice(BAD))
    return values


@pytest.mark.parametrize("seed", range(4))
def test_min_plus_entry_lists_agree_with_each_entry(seed):
    rng = random.Random(seed)
    taken_whole = 0
    for _ in range(500):
        values = min_plus_lists(rng, "inf")
        want = outcome(lambda: [MIN_PLUS.element_from_json(v) for v in values])
        assert outcome(lambda: MIN_PLUS.entries_from_json(values)) == want
        taken_whole += MIN_PLUS.as_ints(values, "inf") is not None
        array = min_plus_lists(rng, math.inf)
        axes = (IndexSet("I", len(array)),)

        def each():
            for x in array:
                MIN_PLUS.validate(x)
            return Array(axes, array, MIN_PLUS).entries

        assert outcome(lambda: make_array(axes, array, MIN_PLUS).entries) == outcome(each)
    assert 100 < taken_whole < 400  # both paths are exercised


def test_min_plus_one_pass_refuses_what_each_entry_refuses():
    for bad in BAD:
        assert MIN_PLUS.as_ints([0, "inf", bad], "inf") is None
        assert MIN_PLUS.as_ints([0, math.inf, bad]) is None or bad == 1e400
    assert MIN_PLUS.as_ints([3, "inf", 0], "inf") == [3, math.inf, 0]
    assert MIN_PLUS.as_ints(["inf"], "inf") == [math.inf]
    assert MIN_PLUS.as_ints([math.inf, 2]) == [math.inf, 2]
