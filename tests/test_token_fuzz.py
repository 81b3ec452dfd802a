"""Short arbitrary text fed to the three readers of a count inside a CLI
token (`int-mod:<m>`, `--sizes i,j,k`, `chain<N>`) and to a whole-value
option (`--seed`): each gives its value or a PlexusError, and the CLI exits
0 or 2, never another exception. The draws are derandomized and bounded, so
runs repeat exactly."""
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from plexus.cli import _parse_sizes, run_command  # noqa: E402
from plexus.core import PlexusError, parse_count  # noqa: E402
from plexus.diagram import STANDARD_NAMES  # noqa: E402
from plexus.semiring import parse_semiring  # noqa: E402

BOUNDED = settings(max_examples=100, derandomize=True, deadline=None, database=None)

# half of the draws are characters a count is misspelled with: digits of other
# scripts, signs, space, underscore, parentheses and the separators
CHARS = st.one_of(st.sampled_from("0123456789\u0663\u00b2+-_ ()\n,:"), st.characters())


def tokens(prefixes):
    """A prefix, then at most four characters, mostly near a count; the
    bound keeps a well-formed chain short."""
    return st.builds(str.__add__, st.sampled_from(prefixes), st.text(alphabet=CHARS, max_size=4))


@BOUNDED
@given(st.text(alphabet=CHARS, max_size=6))
def test_a_count_reads_back_as_its_own_text(text):
    n = parse_count(text)
    assert n is None or str(n) == text


@BOUNDED
@given(tokens(["int-mod:", "int_mod:", "", "boolean", "int-mod"]))
def test_a_semiring_token_is_a_semiring_or_a_plexus_error(text):
    try:
        s = parse_semiring(text)
    except PlexusError as err:
        assert err.code in {"BAD_MODULUS", "UNKNOWN_KIND", "PARSE_ERROR"}
    else:
        assert s.name.replace("-", "_") == text.replace("-", "_")


@BOUNDED
@given(tokens(["", "2,", "2,2,", "1,2"]))
def test_sizes_are_three_positive_counts_or_a_parse_error(text):
    try:
        sizes = _parse_sizes(text)
    except PlexusError as err:
        assert err.code == "PARSE_ERROR"
    else:
        assert ",".join(map(str, sizes)) == text and min(sizes) >= 1


@BOUNDED
@given(tokens(["chain", "chain(", "", "vee"]))
def test_a_host_token_exits_0_or_2(text):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_command(["export-dot", "--", text])
    assert code in (0, 2)
    if code == 0:
        assert text in STANDARD_NAMES or re.fullmatch(r"chain([1-9][0-9]*|\([1-9][0-9]*\))", text)
    else:
        assert out.getvalue() == ""
        assert json.loads(err.getvalue())["error"] in {"PARSE_ERROR", "BAD_REFERENCE"}


@BOUNDED
@given(tokens(["", "-", "-0", "0", "1", "-1"]))
def test_a_whole_value_option_runs_only_on_a_number_that_reads_back(text):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_command(["laws", "--suite", "semiheap", "--sizes", "1,1,1", "--trials", "1", "--seed", text])
    if re.fullmatch(r"0|-?[1-9][0-9]*", text):
        assert (code, err.getvalue()) == (0, "")
    else:
        assert (code, out.getvalue()) == (2, "")
        assert json.loads(err.getvalue())["error"] == "PARSE_ERROR"
