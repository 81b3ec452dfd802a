"""Command line interface: subcommands, exit codes, JSON error contract,
and byte-stable output."""
import hashlib
import json
import os
import subprocess
import sys

import pytest

import plexus
from plexus import IndexSet, fish, make_array, make_semiring
from plexus import checks
from plexus.cli import SUITE_NAMES, _fail_law, run_command
from plexus.core import Verdict
from plexus.diagram import STANDARD_NAMES, standard_diagram, to_dot

MOD5 = make_semiring("int_mod", 5)

WS = {
    "semiring": "int-mod:5",
    "index_sets": {"I": 2},
    "arrays": {
        "a": {"axes": ["I", "I"], "entries": [1, 2, 3, 4]},
        "b": {"axes": ["I", "I"], "entries": [0, 1, 1, 0]},
    },
    "diagrams": {
        "comp": {
            "vertices": [
                {"id": "v0", "index_set": "I"},
                {"id": "v1", "index_set": "I", "contracted": True},
                {"id": "v2", "index_set": "I"},
            ],
            "edges": [
                {"id": "e0", "legs": ["v0", "v1"], "label": "a"},
                {"id": "e1", "legs": ["v1", "v2"], "label": "b"},
            ],
        }
    },
}

DIAGRAM = {
    "index_sets": {"I": 2},
    "vertices": WS["diagrams"]["comp"]["vertices"],
    "edges": [
        {"id": "e0", "legs": ["v0", "v1"]},
        {"id": "e1", "legs": ["v1", "v2"]},
    ],
}

BINDINGS = {
    "semiring": "int-mod:5",
    "arrays": {
        "e0": {"axes": ["I", "I"], "entries": [1, 2, 3, 4]},
        "e1": {"axes": ["I", "I"], "entries": [0, 1, 1, 0]},
    },
}


def write(tmp_path, obj, name):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def run(capsys, argv):
    code = run_command(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_eval_workspace(tmp_path, capsys):
    path = write(tmp_path, WS, "w.json")
    code, out, err = run(capsys, ["eval", path])
    assert code == 0 and err == ""
    obj = json.loads(out)
    assert obj["axes"] == [{"id": "I", "size": 2}, {"id": "I", "size": 2}]
    assert obj["entries"] == [2, 1, 4, 3]


def test_eval_standalone_diagram_with_bindings(tmp_path, capsys):
    dpath = write(tmp_path, DIAGRAM, "d.json")
    bpath = write(tmp_path, BINDINGS, "b.json")
    code, out, _ = run(capsys, ["eval", dpath, "--bindings", bpath])
    assert code == 0
    assert json.loads(out)["entries"] == [2, 1, 4, 3]
    code, out, _ = run(capsys, ["eval", dpath, "--bindings", bpath, "--order", "v2,v0"])
    assert code == 0
    assert json.loads(out)["entries"] == [2, 4, 1, 3]


def test_eval_bindings_can_use_labels(tmp_path, capsys):
    labeled = {
        "index_sets": {"I": 2},
        "vertices": DIAGRAM["vertices"],
        "edges": [
            {"id": "e0", "legs": ["v0", "v1"], "label": "left"},
            {"id": "e1", "legs": ["v1", "v2"], "label": "right"},
        ],
    }
    arrays = {
        "semiring": "int-mod:5",
        "arrays": {
            "left": {"axes": ["I", "I"], "entries": [1, 2, 3, 4]},
            "right": {"axes": ["I", "I"], "entries": [0, 1, 1, 0]},
        },
    }
    dpath = write(tmp_path, labeled, "d.json")
    bpath = write(tmp_path, arrays, "b.json")
    code, out, _ = run(capsys, ["eval", dpath, "--bindings", bpath])
    assert code == 0
    assert json.loads(out)["entries"] == [2, 1, 4, 3]


def test_eval_missing_array_reports_bad_reference(tmp_path, capsys):
    broken = dict(WS, arrays={"a": WS["arrays"]["a"]})
    path = write(tmp_path, broken, "w.json")
    code, out, err = run(capsys, ["eval", path])
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "BAD_REFERENCE"
    assert "b" in payload["message"]


def test_eval_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, ["eval", str(tmp_path / "nope.json")])
    assert code == 2
    assert json.loads(err)["error"] == "PARSE_ERROR"


def test_eval_malformed_json_names_the_line(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text('{"semiring": }')
    code, _, err = run(capsys, ["eval", str(p)])
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "PARSE_ERROR"
    assert "line" in payload["message"]


@pytest.mark.parametrize("text", [
    pytest.param('{"semiring": "nat64", "index_sets": {"I": 1}, '
                 '"arrays": {"a": {"axes": ["I"], "entries": [' + "9" * 5001 + ']}}}',
                 id="5001-digit-entry"),
    pytest.param("[" * 100_000, id="100000-nested-lists"),
])
def test_eval_json_the_decoder_cannot_hold_is_parse_error(tmp_path, capsys, text):
    p = tmp_path / "w.json"
    p.write_text(text)
    code, out, err = run(capsys, ["eval", str(p)])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "PARSE_ERROR"


def test_eval_float64_overflow_is_refused(tmp_path, capsys):
    # 1e308 * 1e308 is inf, which would print as the non-JSON token Infinity
    ws = json.loads(json.dumps(WS))
    ws["semiring"] = "float64"
    for name in ("a", "b"):
        ws["arrays"][name]["entries"] = [1e308, 1, 1, 1]
    code, out, err = run(capsys, ["eval", write(tmp_path, ws, "w.json")])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "OVERFLOW"


def test_eval_entry_count_error(tmp_path, capsys):
    broken = json.loads(json.dumps(WS))
    broken["arrays"]["a"]["entries"] = [1, 2, 3]
    path = write(tmp_path, broken, "w.json")
    code, _, err = run(capsys, ["eval", path])
    assert code == 2
    assert json.loads(err)["error"] == "SIZE_MISMATCH"


def test_eval_bad_element(tmp_path, capsys):
    broken = json.loads(json.dumps(WS))
    broken["arrays"]["a"]["entries"] = [1, 2, 3, 9]
    path = write(tmp_path, broken, "w.json")
    code, _, err = run(capsys, ["eval", path])
    assert code == 2
    assert json.loads(err)["error"] == "BAD_ELEMENT"


@pytest.mark.parametrize("semiring", ["boolean", "nat64", "int-mod:5", "min-plus"])
@pytest.mark.parametrize("bad", [True, 1.0])
def test_eval_refuses_bool_and_float_in_integer_kinds(tmp_path, capsys, semiring, bad):
    broken = json.loads(json.dumps(WS))
    broken["semiring"] = semiring
    broken["arrays"]["a"]["entries"] = [1, 0, 0, bad]
    path = write(tmp_path, broken, "w.json")
    code, out, err = run(capsys, ["eval", path])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "BAD_ELEMENT"


def test_eval_unknown_index_set(tmp_path, capsys):
    broken = json.loads(json.dumps(WS))
    broken["arrays"]["a"]["axes"] = ["I", "Q"]
    path = write(tmp_path, broken, "w.json")
    code, _, err = run(capsys, ["eval", path])
    assert code == 2
    assert json.loads(err)["error"] == "UNKNOWN_INDEX_SET"


def test_eval_diagram_choice(tmp_path, capsys):
    two = json.loads(json.dumps(WS))
    two["diagrams"]["other"] = two["diagrams"]["comp"]
    path = write(tmp_path, two, "w.json")
    code, _, err = run(capsys, ["eval", path])
    assert code == 2
    assert json.loads(err)["error"] == "BAD_REFERENCE"
    code, out, _ = run(capsys, ["eval", path, "--diagram", "comp"])
    assert code == 0
    assert json.loads(out)["entries"] == [2, 1, 4, 3]


def test_fish_command(tmp_path, capsys):
    iset = IndexSet("I", 2)
    entries = {
        "a": [1, 2, 3, 4, 0, 1, 2, 3],
        "b": [0, 1, 1, 0, 2, 2, 3, 4],
        "c": [1, 0, 0, 1, 1, 2, 3, 0],
    }
    ws = {
        "semiring": "int-mod:5",
        "index_sets": {"I": 2},
        "arrays": {
            k: {"axes": ["I", "I", "I"], "entries": v} for k, v in entries.items()
        },
    }
    path = write(tmp_path, ws, "w.json")
    code, out, _ = run(capsys, ["fish", f"{path}:a", f"{path}:b", f"{path}:c"])
    assert code == 0
    arrays = {
        k: make_array((iset, iset, iset), v, MOD5) for k, v in entries.items()
    }
    want = fish(arrays["a"], arrays["b"], arrays["c"])
    assert tuple(json.loads(out)["entries"]) == want.entries
    code, out2, _ = run(capsys, ["fish", f"{path}:a", f"{path}:b", f"{path}:c", "--variant", "KJI"])
    assert code == 0
    want2 = fish(arrays["a"], arrays["b"], arrays["c"], "KJI")
    assert tuple(json.loads(out2)["entries"]) == want2.entries


def test_fish_semiring_mismatch(tmp_path, capsys):
    mk = lambda sr: {
        "semiring": sr,
        "index_sets": {"I": 2},
        "arrays": {"a": {"axes": ["I", "I", "I"], "entries": [0, 1] * 4}},
    }
    p1 = write(tmp_path, mk("boolean"), "w1.json")
    p2 = write(tmp_path, mk("int-mod:5"), "w2.json")
    code, _, err = run(capsys, ["fish", f"{p1}:a", f"{p1}:a", f"{p2}:a"])
    assert code == 2
    assert json.loads(err)["error"] == "SEMIRING_MISMATCH"


@pytest.mark.parametrize("position", [0, 1, 2], ids=["a", "b", "c"])
def test_fish_refuses_an_argument_not_of_order_3(tmp_path, capsys, position):
    ws = {
        "semiring": "int-mod:5",
        "index_sets": {"I": 2},
        "arrays": {"cube": {"axes": ["I", "I", "I"], "entries": [1] * 8},
                   "square": {"axes": ["I", "I"], "entries": [1] * 4}},
    }
    path = write(tmp_path, ws, "w.json")
    args = [f"{path}:cube"] * 3
    args[position] = f"{path}:square"
    code, out, err = run(capsys, ["fish", *args])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "CONFORMABILITY"
    # the argument's labels in a[i,j,p] b[q,r,p] c[q,r,k]
    labels = list(("ijp", "qrp", "qrk")[position])
    assert f"labels {labels} for an order-2 array" in json.loads(err)["message"]


def test_rewrite_text_report(capsys):
    code, out, err = run(capsys, ["rewrite", "zee"])
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert "confluent: true" in lines
    assert "overlapping: true" in lines
    assert "concurrent: true" in lines
    assert "initial_matches: 2" in lines
    assert "states: 4" in lines
    assert "terminals: 1" in lines
    assert 'terminal_labels: [["((e0e1)e2)"]]' in lines


def test_rewrite_json_with_semantic_trials(capsys):
    argv = ["rewrite", "long_fish", "--motif", "fish", "--semantic", "int-mod:7",
            "--trials", "5", "--seed", "3", "--json"]
    code, out, err = run(capsys, argv)
    assert code == 0 and err == ""
    rep = json.loads(out)
    assert rep["initial_matches"] == 3
    assert rep["states"] == 5
    assert rep["terminals"] == 1
    assert rep["concurrent"] is True
    assert rep["semantic"]["ok"] is True
    assert rep["semantic"]["trials"] == 5


def test_rewrite_chain_host_token(capsys):
    code, out, _ = run(capsys, ["rewrite", "chain(4)", "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["confluent"] is True
    assert rep["overlapping"] is False
    assert rep["concurrent"] is False


@pytest.mark.parametrize("host", ["zee", "chain4"])
def test_rewrite_semantic_refuses_a_self_rewriting_motif(host, capsys):
    code, out, err = run(capsys, ["rewrite", host, "--motif", "chain1", "--semantic", "int-mod:7"])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "INVALID_MOTIF"
    # without --semantic the report still shows the one looping state
    code, out, err = run(capsys, ["rewrite", host, "--motif", "chain1"])
    assert (code, err) == (0, "")
    assert {"states: 1", "terminals: 0"} <= set(out.splitlines())


def test_rewrite_refuses_a_parallel_edge(tmp_path, capsys):
    # the vee's rewrite of a-b*-c adds an edge on a and c beside the one there
    tri = {"vertices": [{"id": "a", "index_set": "I"}, {"id": "b", "index_set": "I", "contracted": True},
                        {"id": "c", "index_set": "I"}],
           "edges": [{"id": "e0", "legs": ["a", "b"]}, {"id": "e1", "legs": ["b", "c"]},
                     {"id": "e2", "legs": ["a", "c"]}]}
    path = write(tmp_path, {**WS, "diagrams": {"tri": tri}}, "tri.json")
    code, out, err = run(capsys, ["rewrite", path, "--diagram", "tri"])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "INVALID_DIAGRAM",
                               "message": "[INVALID_DIAGRAM] duplicate edge on legs ['a', 'c']"}


def test_rewrite_unknown_host(capsys):
    code, _, err = run(capsys, ["rewrite", "mystery"])
    assert code == 2
    assert json.loads(err)["error"] == "PARSE_ERROR"


def test_enumerate_pinned_output(capsys):
    code, out, _ = run(capsys, ["enumerate", "--edges", "3", "--order", "3", "--free", "3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "count: 10, symmetric: 3"
    assert len([ln for ln in lines if ln.startswith("class ")]) == 10
    assert len([ln for ln in lines if ln.endswith(" symmetric")]) == 3


def test_enumerate_two_edges(capsys):
    code, out, _ = run(capsys, ["enumerate", "--edges", "2", "--order", "2", "--free", "2"])
    assert code == 0
    assert out.splitlines()[-1] == "count: 1, symmetric: 1"


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, ["enumerate", "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["count"] == 10
    assert rep["symmetric"] == 3
    assert len(rep["classes"]) == 10
    assert sum(c["symmetric"] for c in rep["classes"]) == 3


# sha256 of `plexus enumerate` stdout, recorded before the census read
# classes off one labelling search per edge group: the census must print the
# same first representatives, in the same order, byte for byte
ENUMERATE_SHA256 = {
    ("--variant", "loose"): ("11181673531ac76ea630633f17ee03bae72a8c54920ac84e84ea2f3c30e558e6",
                             "6c99c365f752454c3328c7df315f6eba7e6c98d5adf60b63ffc6dc081b5b009e"),
    ("--variant", "tips-only"): ("3d05766c6c5a16122b2c197d9292fac505902639fa2b09fa895e2f0dcb0a88b2",
                                 "719d91c9720c601156f98997ec7e28f411152311e7741ed82620311caeb75a4a"),
    ("--variant", "all"): ("f1a1b2b7440a2329b5cad03e36c85ac0f6ed765233b08529aca42bc0f703d90b",
                           "4fd834c10bae96a5f7841ff37c94371f009e9c540ced84dfc6f1341e953d4488"),
    ("--edges", "4"): ("79c5bbe7277597dad6abaf1acaa58ba8d9cb8a3fff6dc3e7c3f98acb1b32ae41",
                       "a52e81b5c4ffb639fee6f23a1e3c1706b185c8e29892c4ee256b1d0b2163ae36"),
}


@pytest.mark.parametrize("args", list(ENUMERATE_SHA256), ids=" ".join)
def test_enumerate_stdout_is_pinned(capsys, args):
    for form, want in zip(([], ["--json"]), ENUMERATE_SHA256[args]):
        code, out, err = run(capsys, ["enumerate", *args, *form])
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == want, form


@pytest.mark.parametrize("flag,value,name,least", [
    ("--edges", "0", "num_edges", 1),
    ("--order", "0", "edge_order", 1),
    ("--free", "-1", "free_vertices", 0),
])
def test_enumerate_refuses_a_parameter_below_its_bound(capsys, flag, value, name, least):
    code, out, err = run(capsys, ["enumerate", flag, value])
    assert code == 2 and out == ""
    rep = json.loads(err)
    assert rep["error"] == "BAD_REFERENCE"
    assert f"{name} must be at least {least}, got {value}" in rep["message"]


def test_enumerate_allows_no_free_vertices(capsys):
    code, out, _ = run(capsys, ["enumerate", "--free", "0"])
    assert code == 0
    assert out.splitlines()[-1] == "count: 1, symmetric: 1"


def test_export_dot(tmp_path, capsys):
    code, out, _ = run(capsys, ["export-dot", "vee"])
    assert code == 0
    assert out.count("--") == 2
    target = tmp_path / "vee.dot"
    code, out, _ = run(capsys, ["export-dot", "vee", "--out", str(target)])
    assert code == 0 and out == ""
    assert "fillcolor=black" in target.read_text()


@pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
def test_export_dot_refuses_an_out_path_it_cannot_write(where, tmp_path, capsys):
    # these raised FileNotFoundError and IsADirectoryError: exit 1, a traceback
    target = tmp_path / "no" / "such" / "vee.dot" if where == "missing-directory" else tmp_path
    code, out, err = run(capsys, ["export-dot", "vee", "--out", str(target)])
    assert (code, out) == (2, "")
    report = json.loads(err)
    assert report["error"] == "WRITE_ERROR" and str(target) in report["message"]


@pytest.mark.parametrize("name", STANDARD_NAMES)
def test_export_dot_every_standard_name(name, capsys):
    code, out, err = run(capsys, ["export-dot", name])
    if name == "chain":
        # chain needs its edge count: chain5 or chain(5)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "BAD_REFERENCE"
    else:
        assert (code, err) == (0, "")
        assert out == to_dot(standard_diagram(name)) + "\n"


@pytest.mark.parametrize("token", ["chain5", "chain(5)"])
def test_export_dot_chain_tokens(token, capsys):
    code, out, _ = run(capsys, ["export-dot", token])
    assert code == 0
    assert out == to_dot(standard_diagram("chain", n=5)) + "\n"


def test_export_dot_unknown_token(capsys):
    code, out, err = run(capsys, ["export-dot", "chainx"])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "PARSE_ERROR"


def test_laws_semiheap(capsys):
    argv = ["laws", "--suite", "semiheap", "--semiring", "int-mod:5",
            "--sizes", "2,2,2", "--trials", "10", "--seed", "7"]
    code, out, err = run(capsys, argv)
    assert code == 0 and err == ""
    assert "semiheap ok" in out


def test_laws_isotropy_json(capsys):
    code, out, _ = run(capsys, ["laws", "--suite", "isotropy", "--json"])
    assert code == 0
    assert json.loads(out) == {"ok": True, "suites": ["isotropy"]}


def test_laws_units_and_flatfish(capsys):
    for suite in ("units", "flatfish"):
        code, out, _ = run(capsys, ["laws", "--suite", suite, "--semiring", "int-mod:3",
                                    "--trials", "5"])
        assert code == 0
        assert f"{suite} ok" in out


def test_laws_biunit_requires_boolean(capsys):
    code, _, err = run(capsys, ["laws", "--suite", "biunit", "--semiring", "int-mod:5"])
    assert code == 2
    assert json.loads(err)["error"] == "UNSUPPORTED"


def test_laws_bad_sizes(capsys):
    code, _, err = run(capsys, ["laws", "--sizes", "2,x,2"])
    assert code == 2
    assert json.loads(err)["error"] == "PARSE_ERROR"
    code, _, err = run(capsys, ["laws", "--sizes", "2,2"])
    assert code == 2
    assert json.loads(err)["error"] == "PARSE_ERROR"


@pytest.mark.parametrize("variant", ["IJK", "JIK", "KIJ", "IKJ", "JKI", "KJI"])
def test_laws_semiheap_twist_holds_on_equal_tips(capsys, variant):
    code, out, err = run(capsys, ["laws", "--suite", "semiheap", "--twist", "--variant", variant,
                                  "--sizes", "2,2,2"])
    assert (code, err) == (0, "")
    assert out == "semiheap ok: 20 trials, sizes (2, 2, 2), semiring boolean\n"


def test_laws_semiheap_twist_refuses_unequal_tips(capsys):
    code, out, err = run(capsys, ["laws", "--suite", "semiheap", "--twist", "--sizes", "2,3,2"])
    assert (code, out) == (2, "")
    rep = json.loads(err)
    assert rep["error"] == "CONFORMABILITY"
    assert "needs equal tip sizes, got I:2 and J:3" in rep["message"]
    # the mouth may differ: KIJ has its tips on I and K
    code, out, err = run(capsys, ["laws", "--suite", "semiheap", "--twist", "--variant", "KIJ",
                                  "--sizes", "2,3,2"])
    assert (code, err) == (0, "")


@pytest.mark.parametrize("argv", [
    ["laws", "--suite", "semiheap"],
    ["laws"],
    ["rewrite", "chain4", "--semantic", "int-mod:7"],
], ids=["laws-semiheap", "laws-all", "rewrite-semantic"])
@pytest.mark.parametrize("trials", ["0", "-3"])
def test_trials_below_one_are_refused(capsys, argv, trials):
    code, out, err = run(capsys, [*argv, "--trials", trials])
    assert (code, out) == (2, "")
    rep = json.loads(err)
    assert rep["error"] == "BAD_REFERENCE"
    assert f"trials must be at least 1, got {trials}" in rep["message"]


def test_fail_law_contract(capsys):
    code = _fail_law("sh-mid", {"trial": 3})
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"law": "sh-mid", "counterexample": {"trial": 3}}


def test_output_is_byte_stable(capsys):
    seen = {}
    for argv in (
        ["enumerate"],
        ["rewrite", "zee", "--semantic", "int-mod:5", "--trials", "3", "--seed", "11"],
        ["laws", "--suite", "units", "--trials", "5", "--seed", "9"],
    ):
        key = " ".join(argv)
        first = run(capsys, argv)
        second = run(capsys, argv)
        assert first == second
        seen[key] = first[0]
    assert all(code == 0 for code in seen.values())


SELFTEST_LINES = [
    "PASS fish-matches-diagram-evaluation: engine, evaluator and formula oracle agree",
    "PASS fish-para-associativity: ((abc)de) = (a(dcb)e) = (ab(cde)) on random arrays",
    "PASS multiway-concurrency: zee 2/4/1 and long_fish 3/5/1, both concurrent",
    "PASS semantic-confluence: all rewrite orders evaluate like the host",
    "PASS kronecker-identities: identity edges are neutral",
    "PASS fish-right-units: (att) = (aut) = (atu) = a",
    "PASS flat-fish: mouth-first product = flattened matrix product",
    "PASS biunit-pairs: 24 boolean pairs at sizes (4,2,2), none at (3,2,2)",
    "PASS finite-semiheaps: group, vector, bijection heaps and relation semiheap pass",
    "PASS involuted-monoids: biunits induce involuted monoids",
    "PASS isotropy-biinvariance: relabelings leave the bijection heap invariant",
    "PASS composition-census: 10 composition classes, 3 symmetric",
    "PASS reversal-relations: each variant is the reverse of its partner",
    "PASS twist-witness: twist changes values, except through the order-3 identity",
]


def test_selftest_json(capsys):
    code, out, _ = run(capsys, ["selftest", "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] is True
    assert len(rep["lines"]) >= 10
    assert rep["lines"] == SELFTEST_LINES


def test_selftest_text_prints_one_line_per_check(capsys):
    assert run(capsys, ["selftest"]) == (0, "".join(line + "\n" for line in SELFTEST_LINES), "")


def test_laws_exits_1_with_the_counterexample_on_stdout(capsys, monkeypatch):
    def fails(semiring, sizes, trials, rng, **_):
        return Verdict(False, "demo-law", {"trial": 2}), ""

    monkeypatch.setitem(checks.SUITES, "units", fails)
    code, out, err = run(capsys, ["laws", "--suite", "units"])
    assert (code, err) == (1, "")
    assert json.loads(out) == {"law": "demo-law", "counterexample": {"trial": 2}}


def test_rewrite_semantic_failure_prints_the_report_and_exits_1(capsys, monkeypatch):
    from plexus import rewrite

    def fails(host, motif, semiring, trials, seed):
        return {"ok": False, "sequences": 2, "direct": None, "finals": [], "trial": 1}

    monkeypatch.setattr(rewrite, "semantic_confluence", fails)
    code, out, err = run(capsys, ["rewrite", "zee", "--semantic", "int-mod:5"])
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "confluent: true", "regular: true", "overlapping: true", "concurrent: true", "initial_matches: 2",
        "states: 4", "terminals: 1", 'terminal_labels: [["((e0e1)e2)"]]',
        'semantic: {"ok": false, "sequences": 2, "trial": 1}',
    ]


def test_selftest_fail_line_names_the_run_and_the_counterexample(monkeypatch):
    def fails_on_int_mod(semiring, sizes, trials, rng):
        return Verdict(semiring.kind != "int_mod", "demo-law", {"trial": 0}), ""

    def fails_without_witness(semiring, sizes, trials, rng):
        return Verdict(False, "demo-law"), ""

    rows = (
        ("two-runs", fails_on_int_mod, checks._on("boolean int-mod:5", (2, 3, 2)), 1, "passes"),
        ("one-run", fails_without_witness, checks._on("boolean"), 1, "passes"),
        ("passing", fails_on_int_mod, checks._on("boolean"), 1, "passes"),
    )
    monkeypatch.setattr(checks, "SELFTEST", rows)
    assert checks.run_selftest(0) == (False, [
        'FAIL two-runs: demo-law on int-mod:5 at sizes (2, 3, 2): {"trial": 0}',
        "FAIL one-run: demo-law",
        "PASS passing: passes",
    ])


LAWS_BOOLEAN_LINES = {
    "semiheap": "semiheap ok: 5 trials, sizes (2, 2, 2), semiring boolean",
    "heap": "heap ok: group Z2, group Z3, vectors, bijections; relations are semiheap only",
    "units": "units ok: 5 trials, sizes (2, 2, 2), semiring boolean",
    "biunit": "biunit ok: 0 pairs at sizes (2, 2, 2)",
    "flatfish": "flatfish ok: 5 trials, sizes (2, 2, 2), semiring boolean",
    "isotropy": "isotropy ok: sizes 2 and 3, exhaustive",
    "heapoid": "heapoid ok: delta carrier semiheapoid only; permutation carrier Malcev heapoid",
}


@pytest.mark.parametrize("suite", list(LAWS_BOOLEAN_LINES))
def test_laws_suite_golden_text(capsys, suite):
    argv = ["laws", "--suite", suite, "--semiring", "boolean", "--trials", "5", "--seed", "4"]
    assert run(capsys, argv) == (0, LAWS_BOOLEAN_LINES[suite] + "\n", "")


def test_laws_all_stops_at_the_first_boolean_only_suite(capsys):
    code, out, err = run(capsys, ["laws", "--semiring", "int-mod:5"])
    assert code == 2
    assert out == (
        "semiheap ok: 20 trials, sizes (2, 2, 2), semiring int-mod:5\n"
        "heap ok: group Z2, group Z3, vectors, bijections; relations are semiheap only\n"
        "units ok: 20 trials, sizes (2, 2, 2), semiring int-mod:5\n"
    )
    assert json.loads(err)["error"] == "UNSUPPORTED"


# sha256 of `--help` stdout at 80 columns, recorded while the parser still
# read its choices from `checks.SUITES` and `ternary.ETA_VARIANTS`
HELP_SHA256 = {
    "": "67d0e9a24906362d7ec36420610c7127cd8a81802eed0b94e76573867c041025",
    "eval": "b24368590ca7d1eaa8f6d4e0fb6b15de2cdbc9a1a1c81be12afead194dfad972",
    "fish": "00f3e4d0cee2ca44c60dc1727af3530c0b2d5be3096ad622e3cc447cae329e14",
    "rewrite": "3c41b25e7b7bb6934fa2d7c6cc7b426a34c4519e172aee25cc974db05348a428",
    "enumerate": "4f7afa39f9bdcf5003bb4d3f740718d3aa19b779bd628522997c17811fdf6bd3",
    "export-dot": "398114dc2980ddf62cf61b819748b4c263ccdc797efb980a904c43727772f13c",
    "laws": "6948f4535d5b590226e9ae141f46d989262ccc4e17879bd966587d16a25461c0",
    "selftest": "259ecd98bbf4797f1904a4c9af9ad49c2e8574c659a56278fc136e26fa9f8022",
}


@pytest.mark.parametrize("command", list(HELP_SHA256))
def test_help_stdout_is_pinned(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as stop:
        run_command([command, "--help"] if command else ["--help"])
    assert stop.value.code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == HELP_SHA256[command]


def test_suite_choices_are_the_registry_suites():
    assert SUITE_NAMES == tuple(sorted(checks.SUITES))


SRC = os.path.dirname(os.path.dirname(plexus.__file__))


def child(code, *argv):
    """Run `code` in a fresh interpreter that imports plexus from SRC."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *code, *argv], env=env, capture_output=True, text=True, timeout=60)


def test_module_entry_point_prints_no_warning():
    proc = child(["-m", "plexus.cli"], "--help")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: plexus")


# the start line perfbench gives each `plexus` child, reporting the modules it loaded
START = ("import json, sys; from plexus.cli import main; code = main(); "
         "sys.stderr.write(json.dumps(sorted(sys.modules))); sys.exit(code)")


def loaded_by(*argv):
    proc = child(["-c", START], *argv)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stderr))


def test_a_command_loads_only_the_modules_it_runs(tmp_path):
    path = write(tmp_path, WS, "w.json")
    held = loaded_by("eval", path)
    assert {"plexus.evaluator", "plexus.workspace"} <= held
    assert not held & {"dataclasses", "plexus.ternary", "plexus.rewrite", "plexus.checks"}
    cube = {"semiring": "boolean", "index_sets": {"I": 2},
            "arrays": {"a": {"axes": ["I", "I", "I"], "entries": [1, 0, 0, 1, 0, 1, 1, 0]}}}
    path = write(tmp_path, cube, "f.json")
    held = loaded_by("fish", path, path, path)
    assert "plexus.ternary" in held
    assert not held & {"plexus.rewrite", "plexus.checks"}


def test_building_the_parser_loads_no_law_or_rewrite_code():
    proc = child(["-c", "import json, sys; from plexus.cli import build_parser; build_parser(); "
                        "print(json.dumps(sorted(sys.modules)))"])
    assert not set(json.loads(proc.stdout)) & {"plexus.ternary", "plexus.rewrite", "plexus.checks"}


def test_fish_reads_each_workspace_file_once(tmp_path, capsys, monkeypatch):
    from plexus import workspace

    cube = {"semiring": "int-mod:5", "index_sets": {"I": 2},
            "arrays": {n: {"axes": ["I", "I", "I"], "entries": [(k * 3 + m) % 5 for k in range(8)]}
                       for m, n in enumerate("abc")}}
    path = write(tmp_path, cube, "f.json")
    read, load = [], workspace.load_workspace
    monkeypatch.setattr(workspace, "load_workspace", lambda p: read.append(p) or load(p))
    code, out, _ = run(capsys, ["fish", f"{path}:a", f"{path}:b", f"{path}:c"])
    assert code == 0 and read == [path]
    a, b, c = (make_array((IndexSet("I", 2),) * 3, cube["arrays"][n]["entries"], MOD5) for n in "abc")
    assert json.loads(out)["entries"] == list(fish(a, b, c).entries)
