"""One conformability rule: every product refuses operands whose shared
index carries two index sets (CONFORMABILITY) and operands over different
semirings (SEMIRING_MISMATCH), whichever product it is."""
import pytest

from plexus import (
    ETA_VARIANTS,
    BoundEdge,
    IndexSet,
    PlexusError,
    additive_incidence,
    biunit_pair_check,
    contract,
    entrywise_add,
    entrywise_mul,
    evaluate,
    evaluate_formula_oracle,
    fish,
    make_fish_binding,
    make_semiring,
    multiplicative_incidence,
    self_contract,
    standard_diagram,
    tensor_product,
    zero_array,
)
from plexus.arrays import einsum

BOOL = make_semiring("boolean")
MOD5 = make_semiring("int_mod", 5)

I2 = IndexSet("I", 2)
J3 = IndexSet("J", 3)
K2 = IndexSet("K", 2)
Q2 = IndexSet("Q", 2)


def arr(*axes, s=BOOL):
    return zero_array(axes, s)


def _fish_triple(variant, twist, body_mouth=None, body_tip=None, body_semiring=BOOL):
    """(a, b, c) accepted by the variant: tail tips X, Y and mouth P, head
    tips W, V and mouth M, the body on the head's tips and the tail's mouth.
    `body_mouth` / `body_tip` replace the body's mouth / first tip axis."""
    z, rev = ETA_VARIANTS[variant]
    t1, t2 = [p for p in range(3) if p != z]
    x, y, p, w, v, m = (IndexSet(n, k) for n, k in zip("XYPWVM", (2, 3, 2, 3, 2, 2)))

    def at(tip1, tip2, mouth, s=BOOL):
        axes = [None] * 3
        axes[t1], axes[t2], axes[z] = tip1, tip2, mouth
        return zero_array(axes, s)

    tips = (v, w) if twist else (w, v)
    tail, head = at(x, y, p), at(w, v, m)
    body = at(body_tip or tips[0], tips[1], body_mouth or p, body_semiring)
    return (head, body, tail) if rev else (tail, body, head)


def _vee_binding(right):
    """The vee (v0 -e0- v1 -e1- v2) over I:2, with `right` bound to e1."""
    return {"e0": BoundEdge(arr(I2, I2), {"v0": 0, "v1": 1}),
            "e1": BoundEdge(right, {"v1": 0, "v2": 1})}


FISH_PAIRS = [(variant, twist) for variant in ETA_VARIANTS for twist in (False, True)]

INDEX_SET_MISMATCH = [
    pytest.param(lambda: contract([arr(I2, J3), arr(K2)], [0, 0]), id="contract"),
    pytest.param(lambda: additive_incidence([arr(I2, J3), arr(K2)], [0, 0]), id="additive_incidence"),
    pytest.param(lambda: multiplicative_incidence([arr(I2, J3), arr(K2)], [0, 0]),
                 id="multiplicative_incidence"),
    pytest.param(lambda: self_contract(arr(I2, K2, J3), 0, 1), id="self_contract"),
    pytest.param(lambda: entrywise_add(arr(I2, J3), arr(I2, K2)), id="entrywise_add"),
    pytest.param(lambda: entrywise_mul(arr(I2, J3), arr(J3, I2)), id="entrywise_mul"),
    pytest.param(lambda: entrywise_add(arr(I2), arr(I2, I2)), id="entrywise_add-order"),
    pytest.param(lambda: evaluate(standard_diagram("vee"), _vee_binding(arr(I2, Q2))), id="evaluate"),
    pytest.param(lambda: biunit_pair_check(arr(I2, J3, K2), arr(I2, J3, Q2)), id="biunit_pair_check"),
    *[pytest.param(lambda v=v, t=t: fish(*_fish_triple(v, t, body_mouth=Q2), v, t),
                   id=f"fish-{v}-{'twist' if t else 'straight'}-mouth") for v, t in FISH_PAIRS],
    *[pytest.param(lambda v=v, t=t: fish(*_fish_triple(v, t, body_tip=Q2), v, t),
                   id=f"fish-{v}-{'twist' if t else 'straight'}-tip") for v, t in FISH_PAIRS],
    *[pytest.param(lambda v=v, t=t: evaluate(*make_fish_binding(*_fish_triple(v, t, body_mouth=Q2), v, t)),
                   id=f"fish-binding-{v}-{'twist' if t else 'straight'}-mouth") for v, t in FISH_PAIRS],
    *[pytest.param(lambda v=v, t=t: evaluate(*make_fish_binding(*_fish_triple(v, t, body_tip=Q2), v, t)),
                   id=f"fish-binding-{v}-{'twist' if t else 'straight'}-tip") for v, t in FISH_PAIRS],
]

SEMIRING_MISMATCH = [
    pytest.param(lambda: contract([arr(I2, J3), arr(I2, s=MOD5)], [0, 0]), id="contract"),
    pytest.param(lambda: additive_incidence([arr(I2, J3), arr(I2, s=MOD5)], [0, 0]),
                 id="additive_incidence"),
    pytest.param(lambda: multiplicative_incidence([arr(I2, J3), arr(I2, s=MOD5)], [0, 0]),
                 id="multiplicative_incidence"),
    pytest.param(lambda: tensor_product([arr(I2), arr(J3), arr(K2, s=MOD5)]), id="tensor_product"),
    pytest.param(lambda: entrywise_add(arr(I2), arr(I2, s=MOD5)), id="entrywise_add"),
    pytest.param(lambda: entrywise_mul(arr(I2), arr(I2, s=MOD5)), id="entrywise_mul"),
    pytest.param(lambda: evaluate(standard_diagram("vee"), _vee_binding(arr(I2, I2, s=MOD5))),
                 id="evaluate"),
    pytest.param(lambda: evaluate_formula_oracle(standard_diagram("vee"),
                                                 _vee_binding(arr(I2, I2, s=MOD5))),
                 id="evaluate_formula_oracle"),
    pytest.param(lambda: biunit_pair_check(arr(I2, J3, K2), arr(I2, J3, K2, s=MOD5)),
                 id="biunit_pair_check"),
    *[pytest.param(lambda v=v, t=t: fish(*_fish_triple(v, t, body_semiring=MOD5), v, t),
                   id=f"fish-{v}-{'twist' if t else 'straight'}") for v, t in FISH_PAIRS],
]


@pytest.mark.parametrize("variant,twist", FISH_PAIRS)
def test_unaltered_fish_triples_conform(variant, twist):
    # the mismatch cases below alter exactly one axis or semiring of these
    assert fish(*_fish_triple(variant, twist), variant, twist).order == 3
    assert evaluate(*make_fish_binding(*_fish_triple(variant, twist), variant, twist)).order == 3


@pytest.mark.parametrize("product", INDEX_SET_MISMATCH)
def test_every_product_refuses_an_index_set_mismatch(product):
    with pytest.raises(PlexusError) as err:
        product()
    assert err.value.code == "CONFORMABILITY"


@pytest.mark.parametrize("product", SEMIRING_MISMATCH)
def test_every_product_refuses_mixed_semirings(product):
    with pytest.raises(PlexusError) as err:
        product()
    assert err.value.code == "SEMIRING_MISMATCH"


@pytest.mark.parametrize("engine", [evaluate, evaluate_formula_oracle])
def test_engines_check_the_binding_before_the_output_order(engine):
    # a bad binding and a bad output order at once: both engines name the binding
    with pytest.raises(PlexusError) as err:
        engine(standard_diagram("vee"), _vee_binding(arr(J3)), output_order=["v0"])
    assert err.value.code == "CONFORMABILITY"


@pytest.mark.parametrize("labels", ["ij", "ijkl", ""])
def test_einsum_refuses_a_label_list_of_the_wrong_length(labels):
    with pytest.raises(PlexusError) as err:
        einsum([(arr(I2, J3, K2), labels)], [])
    assert err.value.code == "CONFORMABILITY"


def _vee_changed(edge=None):
    """A valid vee binding over I:2, with e1's BoundEdge replaced by `edge`
    if one is given."""
    valid = _vee_binding(arr(I2, I2))
    if edge is not None:
        valid["e1"] = edge
    return valid


MALFORMED_BINDINGS = [
    pytest.param(lambda: None, None, "BAD_REFERENCE", id="binding-none"),
    pytest.param(lambda: list(_vee_changed().items()), None, "BAD_REFERENCE", id="binding-pairs"),
    pytest.param(lambda: {"e0": _vee_changed()["e0"], "e1": None}, None, "BAD_REFERENCE", id="edge-none"),
    pytest.param(lambda: _vee_changed(arr(I2, I2)), None, "BAD_REFERENCE", id="edge-bare-array"),
    pytest.param(lambda: _vee_changed(BoundEdge([0, 0, 0, 0], {"v1": 0, "v2": 1})), None, "BAD_REFERENCE",
                 id="array-list"),
    pytest.param(lambda: _vee_changed(BoundEdge(arr(I2, I2), None)), None, "CONFORMABILITY", id="legs-none"),
    pytest.param(lambda: _vee_changed(BoundEdge(arr(I2, I2), {"v1": 0, "v2": "1"})), None, "CONFORMABILITY",
                 id="axes-mixed"),
    pytest.param(lambda: _vee_changed(BoundEdge(arr(I2, I2), {"v1": 0, "v2": 1.0})), None, "CONFORMABILITY",
                 id="axis-float"),
    pytest.param(lambda: _vee_changed(), 5, "BAD_REFERENCE", id="output-order-int"),
    pytest.param(lambda: _vee_changed(), [1, 2], "BAD_REFERENCE", id="output-order-ints"),
]


@pytest.mark.parametrize("engine", [evaluate, evaluate_formula_oracle])
@pytest.mark.parametrize("binding, output_order, code", MALFORMED_BINDINGS)
def test_engines_refuse_a_malformed_binding_or_output_order(engine, binding, output_order, code):
    with pytest.raises(PlexusError) as err:
        engine(standard_diagram("vee"), binding(), output_order)
    assert err.value.code == code


@pytest.mark.parametrize("engine", [evaluate, evaluate_formula_oracle])
def test_the_unchanged_vee_binding_evaluates(engine):
    # the malformed cases above change this binding in one place
    assert engine(standard_diagram("vee"), _vee_changed(), ("v2", "v0")).order == 2
