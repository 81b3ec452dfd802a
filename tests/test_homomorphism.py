"""Semiring homomorphisms commute with every product. A map h from one
semiring to another that keeps 0, 1, sums and products carries each sum of
products over the first to the same sum over the second, so h applied to
the entries of a result equals the result on h's images. This checks the
engine (`evaluate`), the kernel (`einsum`), the fish product in all twelve
(variant, twist) forms, a bound rewrite and the finals of semantic
confluence on shapes no oracle loop reaches: chains of up to 64 edges, the
standard hosts and the census classes. The draws are derandomized and
bounded, so runs repeat exactly."""
import math
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from plexus.arrays import Array, einsum  # noqa: E402
from plexus.core import ETA_VARIANTS, IndexSet  # noqa: E402
from plexus.diagram import STANDARD_NAMES, standard_diagram  # noqa: E402
from plexus.evaluator import BoundEdge, default_binding, evaluate  # noqa: E402
from plexus.rewrite import (apply_rewrite_bound, enumerate_compositions, find_matches, fish_motif,  # noqa: E402
                            semantic_confluence_binding, vee_motif)
from plexus.semiring import INF, make_semiring  # noqa: E402
from plexus.ternary import fish  # noqa: E402

BOUNDED = settings(max_examples=40, derandomize=True, deadline=None, database=None)


def _homomorphisms():
    """(name, source, target, h on elements): x mod 7, x mod d for each
    modulus d of an int-mod whose modulus d divides, and x != inf."""
    homs = [("nat64->int-mod:7", make_semiring("nat64"), make_semiring("int_mod", 7), lambda x: x % 7),
            ("min-plus->boolean", make_semiring("min_plus"), make_semiring("boolean"), lambda x: int(x != INF))]
    for m in (4, 6, 12, 35):
        for d in range(2, m + 1):
            if m % d == 0:
                homs.append((f"int-mod:{m}->int-mod:{d}", make_semiring("int_mod", m), make_semiring("int_mod", d),
                             lambda x, d=d: x % d))
    return homs


HOMOMORPHISMS = _homomorphisms()
HOSTS = [standard_diagram(name) for name in STANDARD_NAMES if name != "chain"] + enumerate_compositions()[0]
MOTIFS = (vee_motif(), fish_motif())


def _image(h, target, x: Array) -> Array:
    return Array(x.axes, [h(v) for v in x.entries], target)


def _bind(d, source, rng):
    """A random binding of d over `source`; nat64 entries stay at 0 or 1 on a
    long chain, whose value would pass 2^64 - 1 otherwise."""
    top = 1 if source.name == "nat64" and len(d.edges) > 16 else None
    arrays = {}
    for eid, e in d.edges.items():
        axes = [d.vertices[v].index_set for v in sorted(e.legs, key=d.rank.get)]
        arrays[eid] = Array(axes, [rng.randint(0, top) if top is not None else source.random_element(rng)
                                   for _ in range(math.prod(ax.size for ax in axes))], source)
    return default_binding(d, arrays)


def _image_binding(h, target, binding):
    return {eid: BoundEdge(_image(h, target, be.array), be.leg_to_axis) for eid, be in binding.items()}


diagrams = st.one_of(st.sampled_from(HOSTS), st.integers(1, 64).map(lambda n: standard_diagram("chain", n)))


@BOUNDED
@given(diagrams, st.sampled_from(HOMOMORPHISMS), st.integers(0, 2**32))
def test_a_homomorphism_commutes_with_evaluation_and_the_kernel(d, hom, seed):
    _, source, target, h = hom
    binding = _bind(d, source, random.Random(seed))
    image = _image_binding(h, target, binding)
    assert evaluate(d, image) == _image(h, target, evaluate(d, binding))

    def terms(b):  # each array on its legs in axis order, as the evaluator reads it
        return [(be.array, sorted(be.leg_to_axis, key=be.leg_to_axis.get)) for be in b.values()]

    out = d.free_vertices()
    assert einsum(terms(image), out) == _image(h, target, einsum(terms(binding), out))


@BOUNDED
@given(st.sampled_from(HOMOMORPHISMS), st.integers(1, 3), st.integers(0, 2**32))
def test_a_homomorphism_commutes_with_every_fish_product(hom, size, seed):
    _, source, target, h = hom
    rng, axes = random.Random(seed), (IndexSet("I", size),) * 3
    arrays = [Array(axes, [source.random_element(rng) for _ in range(size ** 3)], source) for _ in range(3)]
    images = [_image(h, target, x) for x in arrays]
    for variant in ETA_VARIANTS:
        for twist in (False, True):
            assert fish(*images, variant, twist) == _image(h, target, fish(*arrays, variant, twist)), (variant, twist)


@BOUNDED
@given(st.one_of(st.sampled_from(HOSTS), st.integers(1, 6).map(lambda n: standard_diagram("chain", n))),
       st.sampled_from(HOMOMORPHISMS), st.integers(0, 2**32))
def test_a_homomorphism_commutes_with_bound_rewrites_and_their_finals(d, hom, seed):
    _, source, target, h = hom
    binding = _bind(d, source, random.Random(seed))
    image = _image_binding(h, target, binding)
    for motif in MOTIFS:
        matches = find_matches(d, motif)
        if not matches:
            continue
        d2, b2, eid = apply_rewrite_bound(d, binding, matches[0], motif)
        d3, b3, eid3 = apply_rewrite_bound(d, image, matches[0], motif)
        assert (d3.vertices, d3.edges, eid3) == (d2.vertices, d2.edges, eid)
        assert b3 == _image_binding(h, target, b2)
        src, tgt = semantic_confluence_binding(d, binding, motif), semantic_confluence_binding(d, image, motif)
        assert src["ok"] and tgt["ok"]
        assert {_image(h, target, f).entries for f in src["finals"]} == {f.entries for f in tgt["finals"]}
