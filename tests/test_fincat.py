"""Category layer: validation, closure, quotients, enumeration."""
import collections
import gc
import itertools
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from birkhoff2d import corpus
from birkhoff2d.errors import (
    AssociativityViolation,
    BoundaryMismatch,
    IdentityLawViolation,
    IllTypedComposition,
    MissingIdentity,
    NonParallelGenerator,
    SizeLimitExceeded,
    ValidationError,
)
from birkhoff2d import fincat
from birkhoff2d.fincat import (
    Congruence,
    FinCategory,
    Functor,
    NatTransformation,
    classify,
    compose_functors,
    congruence_closure,
    coproduct_category,
    enumerate_functors,
    enumerate_nat_transformations,
    identity_functor,
    lifts,
    product_category,
    quotient_by_congruence,
    whisker,
)
from birkhoff2d.factor import factor_bof
from birkhoff2d.jsonio import category_to_json, validate_category
from birkhoff2d.kernel import bof_kernel, coequify

import oracles


# -- validation --------------------------------------------------------


def test_corpus_categories_validate_idempotently(cats):
    for C in cats.values():
        again = validate_category(category_to_json(C), name=C.name)
        assert again == C


def _raw(objects, morphisms, identities, composition):
    return {
        "objects": objects,
        "morphisms": [{"id": n, "dom": d, "cod": c} for (n, d, c) in morphisms],
        "identities": identities,
        "composition": composition,
    }


def test_missing_identity_rejected():
    raw = _raw(["x"], [("f", "x", "x")], {}, [["f", "f", "f"]])
    with pytest.raises(MissingIdentity):
        validate_category(raw)


def test_identity_law_violation_rejected():
    raw = _raw(
        ["0", "1"],
        [("id0", "0", "0"), ("id1", "1", "1"), ("t", "0", "1")],
        {"0": "id0", "1": "id1"},
        [["t", "id0", "id0"]],
    )
    with pytest.raises(IdentityLawViolation):
        validate_category(raw)


def test_broken_associativity_rejected():
    raw = _raw(
        ["x"],
        [("1", "x", "x"), ("a", "x", "x"), ("b", "x", "x")],
        {"x": "1"},
        [["a", "a", "b"], ["a", "b", "1"], ["b", "a", "b"], ["b", "b", "1"]],
    )
    with pytest.raises(AssociativityViolation):
        validate_category(raw)


def test_first_associativity_witness_is_pinned():
    # fails on (b, c, a) and on (c, b, a); the scan runs h, then g into
    # h's domain, then f into g's domain, each in declaration order
    table = {("a", "a"): "a", ("a", "b"): "b", ("a", "c"): "a",
             ("b", "a"): "a", ("b", "b"): "b", ("b", "c"): "b",
             ("c", "a"): "c", ("c", "b"): "b", ("c", "c"): "c"}
    raw = _raw(
        ["x"],
        [("1", "x", "x"), ("a", "x", "x"), ("b", "x", "x"), ("c", "x", "x")],
        {"x": "1"},
        [[g, f, h] for (g, f), h in sorted(table.items())],
    )
    with pytest.raises(AssociativityViolation) as exc:
        validate_category(raw)
    assert exc.value.witness == ("b", "c", "a")
    assert str(exc.value) == "associativity fails on (b, c, a)"


def test_first_identity_law_witness_is_pinned():
    # t breaks the right identity law, the later s the left one
    raw = _raw(
        ["0", "1"],
        [("id0", "0", "0"), ("id1", "1", "1"), ("t", "0", "1"), ("s", "0", "1")],
        {"0": "id0", "1": "id1"},
        [["t", "id0", "s"], ["id1", "s", "t"]],
    )
    with pytest.raises(IdentityLawViolation) as exc:
        validate_category(raw)
    assert exc.value.witness == ("t", "id0")
    assert str(exc.value) == "t after id is s"
    raw["composition"] = [["id1", "t", "s"], ["s", "id0", "t"]]
    with pytest.raises(IdentityLawViolation) as exc:
        validate_category(raw)
    assert exc.value.witness == ("id1", "t")
    assert str(exc.value) == "id after t is s"


def test_missing_composite_rejected():
    raw = _raw(["x"], [("1", "x", "x"), ("a", "x", "x")], {"x": "1"}, [])
    with pytest.raises(IllTypedComposition):
        validate_category(raw)


@pytest.mark.parametrize("raw", [None, [], "objects", ["objects"], 5])
def test_a_description_that_is_not_an_object_is_rejected(raw):
    with pytest.raises(ValidationError, match="^category must be an object$"):
        validate_category(raw)


def test_compose_rejects_non_composable(cats):
    with pytest.raises(BoundaryMismatch):
        cats["two"].compose("id0", "t")  # id0 after t is ill typed


# -- congruence closure ------------------------------------------------


CLOSURE_CASES = [
    ("two", []),
    ("p", [("u", "v")]),
    ("z2z2", [("id0", "s0")]),
    ("z2z2", [("id0", "s0"), ("id1", "s1")]),
    ("z2", [("1", "s")]),
]


@pytest.mark.parametrize("name,gens", CLOSURE_CASES)
def test_congruence_closure_matches_pair_saturation(cats, name, gens):
    C = cats[name]
    cong = congruence_closure(C, gens)
    got = {frozenset(cl) for cl in cong.classes}
    assert got == oracles.naive_congruence_classes(C, gens)


def test_congruence_closure_is_a_fixpoint(cats):
    C = cats["z2z2"]
    cong = congruence_closure(C, [("id0", "s0")])
    pairs = [(cl[0], u) for cl in cong.classes for u in cl[1:]]
    assert congruence_closure(C, pairs) == cong


def _closure_category(name):
    if name == "d2xz2z2":
        return product_category(corpus.category("d2"), corpus.category("z2z2"))[0]
    return corpus.category(name)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_congruence_closure_random_generators(data):
    C = _closure_category(data.draw(st.sampled_from(["p", "z2z2", "z2", "d2xz2z2"])))
    parallel = list(C.parallel_pairs())
    gens = data.draw(st.lists(st.sampled_from(parallel), max_size=3)) if parallel else []
    cong = congruence_closure(C, gens)
    got = {frozenset(cl) for cl in cong.classes}
    assert got == oracles.naive_congruence_classes(C, gens)
    for (u, v) in gens:
        assert cong.related(u, v)


def _hom_wise_partitions(C):
    """Every partition of C's morphisms that refines the hom-sets."""
    keys = sorted({(m.dom, m.cod) for m in C.morphisms})
    per_hom = [list(oracles.set_partitions(C.hom(a, b))) for (a, b) in keys]
    for combo in itertools.product(*per_hom):
        yield [block for part in combo for block in part]


def test_congruence_check_agrees_with_the_definition(cats):
    z2, P = cats["z2"], cats["p"]
    categories = [P, cats["d2"], product_category(z2, z2)[0], product_category(P, z2)[0]]
    verdicts = []
    for C in categories:
        for classes in _hom_wise_partitions(C):
            rep = {u: min(block) for block in classes for u in block}
            try:
                Congruence(C, classes)
                accepted = True
            except ValidationError as exc:
                u, v, p, q = exc.witness
                assert rep[u] == rep[v] and (C.is_identity(p) or C.is_identity(q))
                accepted = False
            assert accepted == oracles._is_congruence(C, rep), (C.name, classes)
            verdicts.append(accepted)
    assert True in verdicts and False in verdicts


def test_closure_rejects_non_parallel_generators(cats):
    with pytest.raises(NonParallelGenerator):
        congruence_closure(cats["two"], [("id0", "t")])


# -- quotients ---------------------------------------------------------


def test_quotient_projection_is_bo_full(cats):
    for name, gens in CLOSURE_CASES:
        C = cats[name]
        _, q = quotient_by_congruence(C, congruence_closure(C, gens))
        flags = classify(q)
        assert flags.bo_full


def test_quotient_by_discrete_congruence_is_isomorphism(cats):
    for C in cats.values():
        _, q = quotient_by_congruence(C, congruence_closure(C, []))
        flags = classify(q)
        assert flags.bo and flags.ff


def test_quotient_of_parallel_pair_is_walking_arrow(cats):
    P, two = cats["p"], cats["two"]
    Q, q = quotient_by_congruence(P, congruence_closure(P, [("u", "v")]))
    assert len(Q.morphisms) == 3
    iso = Functor(Q, two, {"a": "0", "b": "1"},
                  {"ida": "id0", "idb": "id1", "u": "t"}, name="iso")
    flags = classify(iso)
    assert flags.bo and flags.ff
    assert q.mor("u") == q.mor("v")


# -- enumeration -------------------------------------------------------


def test_functor_counts_match_frozen_matrix(cats):
    total = 0
    for (src, dst), expected in oracles.FUNCTOR_MATRIX.items():
        found = enumerate_functors(cats[src], cats[dst])
        assert len(found) == expected, (src, dst)
        total += len(found)
    assert total == oracles.TOTAL_FUNCTORS


def test_functor_counts_match_bruteforce_recount(cats):
    for (src, dst), expected in oracles.FUNCTOR_MATRIX.items():
        assert oracles.count_functors_bruteforce(cats[src], cats[dst]) == expected


def test_enumeration_order_matches_product_then_filter(cats):
    D = product_category(cats["d2"], cats["z2z2"])[0]
    pairs = [(cats[a], cats[b]) for (a, b) in oracles.FUNCTOR_MATRIX] + [(D, cats["z2z2"])]
    for A, B in pairs:
        got = [(F.on_objects, F.on_morphisms) for F in enumerate_functors(A, B)]
        assert got == oracles.functors_bruteforce(A, B), (A.name, B.name)
    assert len(enumerate_functors(D, cats["z2z2"])) == 256


def test_search_limits_ignore_cache_history(cats):
    """A kept result raises where a cold search does.  An equal but
    distinct copy of z2z2 keeps its own results, and they list equal to
    z2z2's, in the same order."""
    z2z2 = cats["z2z2"]
    copy = FinCategory(z2z2.objects, z2z2.morphisms, z2z2.identities, z2z2.composition,
                       name=z2z2.name)
    found = []
    for C in (z2z2, copy):
        C._functors_to.pop(C, None)
        with pytest.raises(SizeLimitExceeded):
            enumerate_functors(C, C, limit=3)
        functors = enumerate_functors(C, C)
        assert C._functors_to[C][0] is functors and functors[0].source is C
        with pytest.raises(SizeLimitExceeded):
            enumerate_functors(C, C, limit=3)
        idf = identity_functor(C)
        C._nats_between.pop((idf, idf), None)
        with pytest.raises(SizeLimitExceeded):
            enumerate_nat_transformations(idf, idf, limit=3)
        cells = enumerate_nat_transformations(idf, idf)
        assert C._nats_between[(idf, idf)][0] is cells
        with pytest.raises(SizeLimitExceeded):
            enumerate_nat_transformations(idf, idf, limit=3)
        found.append((functors, cells))
    assert (len(found[0][0]), len(found[0][1])) == (16, 4)
    assert found[1] == found[0]


def test_search_results_are_released_with_their_source_category(cats):
    """Every result a search keeps hangs on its source category, so a
    category dropped after its searches is freed."""
    def searched():
        P = product_category(cats["z2"], cats["two"])[0]
        functors = enumerate_functors(P, cats["z2"])
        assert enumerate_nat_transformations(functors[-1], functors[-1])
        factor_bof(functors[-1])
        bof_kernel(functors[-1])
        assert P._functors_to and P._nats_between and P._bof_middles and P._bof_kernels
        return weakref.ref(P)

    released = searched()
    gc.collect()
    assert released() is None


def test_pinned_search_stays_under_a_limit_the_full_search_passes(cats):
    """Lifts along the quotient of the parallel pair visit a subset of the
    nodes of the full search: with a limit below the object-map space of
    the quotient's functors into z2z2 they still come out, in the order of
    enumerating and filtering, while the full enumeration raises."""
    q, Q = coequify(*corpus.coequifier_data()[0])
    z2z2 = cats["z2z2"]
    limit = len(z2z2.objects) ** len(Q.objects) - 1
    with pytest.raises(SizeLimitExceeded):
        enumerate_functors(Q, z2z2, limit=limit)
    everything = enumerate_functors(Q, z2z2)
    found = 0
    for x in enumerate_functors(cats["p"], z2z2):
        got = lifts(q, x, limit=limit)
        assert got == tuple(d for d in everything if compose_functors(d, q) == x)
        found += len(got)
    assert found == len(everything) == 4
    with pytest.raises(SizeLimitExceeded):
        enumerate_functors(Q, z2z2, limit=limit)


def test_enumeration_contains_identity_and_is_cached(cats):
    for C in cats.values():
        fs = enumerate_functors(C, C)
        assert identity_functor(C) in fs
        assert enumerate_functors(C, C) is fs


def test_nat_transformation_counts(cats):
    z2z2, two, p = cats["z2z2"], cats["two"], cats["p"]
    idf = identity_functor(z2z2)
    assert len(enumerate_nat_transformations(idf, idf)) == 4
    const_a = Functor(two, p, {"0": "a", "1": "a"},
                      {"id0": "ida", "id1": "ida", "t": "ida"})
    const_b = Functor(two, p, {"0": "b", "1": "b"},
                      {"id0": "idb", "id1": "idb", "t": "idb"})
    assert len(enumerate_nat_transformations(const_a, const_b)) == 2
    assert len(enumerate_nat_transformations(const_b, const_a)) == 0


# -- classification ----------------------------------------------------


def test_classify_collapse_functor():
    flags = classify(corpus.collapse_functor())
    assert flags.bo and flags.full and flags.bo_full
    assert not flags.faithful and not flags.ff


def test_classify_object_inclusion(cats):
    incl = Functor(cats["one"], cats["two"], {"*": "0"}, {"id": "id0"})
    flags = classify(incl)
    assert flags.faithful and flags.full and flags.ff and flags.ioff
    assert flags.injective_on_objects and not flags.so and not flags.bo


def test_classify_matches_per_pair_oracle(cats, all_functors):
    D = product_category(cats["d2"], cats["z2z2"])[0]
    functors = list(all_functors) + list(enumerate_functors(D, cats["z2z2"]))
    flags = [classify(F) for F in functors]
    assert flags == [oracles.classify_by_pairs(F) for F in functors]
    assert {(x.full, x.faithful) for x in flags} == {
        (True, True), (True, False), (False, True), (False, False)}


def _indiscrete_pair():
    """Two objects with exactly one morphism between any two of them."""
    return validate_category({
        "objects": ["0", "1"],
        "morphisms": [{"id": "id0", "dom": "0", "cod": "0"},
                      {"id": "id1", "dom": "1", "cod": "1"},
                      {"id": "f", "dom": "0", "cod": "1"},
                      {"id": "g", "dom": "1", "cod": "0"}],
        "identities": {"0": "id0", "1": "id1"},
        "composition": [["g", "f", "id0"], ["f", "g", "id1"]],
    }, name="indiscrete")


@pytest.mark.parametrize("case", ["discrete into two", "two onto one",
                                  "indiscrete onto one", "empty source"])
def test_classify_fullness_edge_cases(cats, case):
    """Fullness decided by counting agrees with the per-pair oracle where a
    source hom-set is empty and its target hom-set is not, where several
    source objects go to one target object, and on an empty source."""
    one, two = cats["one"], cats["two"]
    F, full = {
        "discrete into two": (Functor(cats["d2"], two, {"x": "0", "y": "1"},
                                      {"idx": "id0", "idy": "id1"}), False),
        "two onto one": (Functor(two, one, {"0": "*", "1": "*"},
                                 {"id0": "id", "id1": "id", "t": "id"}), False),
        "indiscrete onto one": (Functor(_indiscrete_pair(), one, {"0": "*", "1": "*"},
                                        {u: "id" for u in ("id0", "id1", "f", "g")}), True),
        "empty source": (Functor(FinCategory([], [], {}, {}), one, {}, {}), True),
    }[case]
    flags = classify(F)
    assert flags == oracles.classify_by_pairs(F)
    assert flags.full is full


def test_frozen_class_census(all_functors):
    bo_full = [f for f in all_functors if classify(f).bo_full]
    faithful = [f for f in all_functors if classify(f).faithful]
    assert len(all_functors) == oracles.TOTAL_FUNCTORS
    assert len(bo_full) == oracles.BO_FULL_COUNT
    assert len(faithful) == oracles.FAITHFUL_COUNT


def test_classes_closed_under_composition(all_functors):
    by_source = {}
    for f in all_functors:
        by_source.setdefault(f.source, []).append(f)
    checked = 0
    for f in all_functors:
        for g in by_source.get(f.target, ()):
            gf = compose_functors(g, f)
            ff_, gg, hh = classify(f), classify(g), classify(gf)
            if ff_.bo_full and gg.bo_full:
                assert hh.bo_full
            if ff_.faithful and gg.faithful:
                assert hh.faithful
            if ff_.ff and gg.ff:
                assert hh.ff
            checked += 1
    assert checked > 2000


# -- products, coproducts, transformations -----------------------------


def test_binary_product_universal_property(cats):
    one, p, z2 = cats["one"], cats["p"], cats["z2"]
    P, pr1, pr2 = product_category(p, z2)
    assert len(P.objects) == 2 and len(P.morphisms) == 8
    for f in enumerate_functors(one, p):
        for g in enumerate_functors(one, z2):
            mediators = [
                h for h in enumerate_functors(one, P)
                if compose_functors(pr1, h) == f and compose_functors(pr2, h) == g
            ]
            assert len(mediators) == 1


def test_coproduct_injections(cats):
    C, inl, inr = coproduct_category(cats["one"], cats["two"])
    assert len(C.objects) == 3 and len(C.morphisms) == 4
    assert classify(inl).ff and classify(inr).ff
    assert {inl.obj("*"), inr.obj("0"), inr.obj("1")} == set(C.objects)


def test_constructors_reject_a_stray_map_entry():
    """A map entry for nothing in the source is refused, naming its key;
    kept, it would make two equal functors or 2-cells compare unequal."""
    f = corpus.collapse_functor()
    with pytest.raises(ValidationError, match="on_objects maps 'zzz', which is not a source "):
        Functor(f.source, f.target, dict(f.on_objects, zzz="0"), f.on_morphisms)
    with pytest.raises(ValidationError, match="on_morphisms maps 'junk', which is not a source "):
        Functor(f.source, f.target, f.on_objects, dict(f.on_morphisms, junk="id0"))
    with pytest.raises(ValidationError, match="components map 'zzz', which is not a source "):
        NatTransformation(f, f, {"a": "id0", "b": "id1", "zzz": "id0"})


def test_vertical_composition_unit_and_associativity(cats):
    z2z2 = cats["z2z2"]
    idf = identity_functor(z2z2)
    nats = enumerate_nat_transformations(idf, idf)
    unit = oracles.identity_nat(idf)
    for a in nats:
        assert oracles.vcompose(a, unit) == a
        assert oracles.vcompose(unit, a) == a
        for b in nats:
            for c in nats:
                assert oracles.vcompose(c, oracles.vcompose(b, a)) == oracles.vcompose(
                    oracles.vcompose(c, b), a)


def test_whiskers_are_natural_and_match_the_definition(cats, all_functors):
    """Every corpus functor h, whiskered on both sides with every 2-cell
    between functors of corpus categories that it fits: the public
    constructor accepts each component map as a transformation between the
    composites, and the result is the whole whisker read off the definition.
    On the left the map is whisker(h, alpha); on the right it is the key
    under which _whisker_fibres files alpha, read in the order of h's source
    objects, and the fibres of all 2-cells between functors out of h's
    target count their whole whiskers.  A 2-cell the whisker does not fit
    is refused."""
    cells = {}
    counts = {"left": 0, "right": 0}
    for h in all_functors:
        for X in cats.values():
            for side, (A, B) in (("left", (X, h.source)), ("right", (h.target, X))):
                if (A, B) not in cells:
                    found = enumerate_functors(A, B)
                    cells[(A, B)] = [alpha for F in found for G in found
                                     for alpha in enumerate_nat_transformations(F, G)]
                wholes = collections.Counter()
                for alpha in cells[(A, B)]:
                    want = oracles.whole_whisker(h, alpha, side)
                    if side == "left":
                        F, G = compose_functors(h, alpha.source), compose_functors(h, alpha.target)
                        components = whisker(h, alpha)
                    else:
                        F, G = compose_functors(alpha.source, h), compose_functors(alpha.target, h)
                        (key,) = fincat._whisker_fibres(h, [alpha])
                        components = dict(zip(h.source.objects, key))
                        wholes[tuple(want.components[c] for c in h.source.objects)] += 1
                    assert NatTransformation(F, G, components) == want, (h, alpha, side)
                    counts[side] += 1
                if side == "right":
                    assert fincat._whisker_fibres(h, cells[(A, B)]) == wholes, (h, X)
    assert counts == {"left": 7682, "right": 7676}
    h = identity_functor(cats["two"])
    alpha = oracles.identity_nat(identity_functor(cats["z2"]))
    with pytest.raises(BoundaryMismatch, match="left whisker"):
        whisker(h, alpha)


def test_whisker_by_identity_is_trivial(cats):
    z2z2 = cats["z2z2"]
    idf = identity_functor(z2z2)
    for a in enumerate_nat_transformations(idf, idf):
        assert whisker(idf, a) == a.components
        assert fincat._whisker_fibres(idf, [a]) == {
            tuple(a.components[c] for c in z2z2.objects): 1}
