"""Trusted builders: constructions from validated parts skip the law checks.

Each corruption test lets one unlawful value through a trusted builder.
By default the construction returns it; in strict mode the same
construction raises what the public constructor raises on the same parts.
The equality tests rebuild trusted values with the public constructors and
find the same value, down to its bookkeeping, and check that equality and
hashing, decided on fields and made on first use, agree with the identity
key.
"""
import itertools

import pytest

import oracles
from birkhoff2d import corpus, fincat, theory
from birkhoff2d.birkhoff import enumerate_quotient_algebras, reflect
from birkhoff2d.errors import (
    AssociativityViolation,
    LabError,
    NotOperationClosed,
    ValidationError,
)
from birkhoff2d.factor import FACTOR_SYSTEMS, factor_bof
from birkhoff2d.fincat import (
    Congruence,
    FinCategory,
    Functor,
    Morphism,
    NatTransformation,
    classify,
    congruence_closure,
    coproduct_category,
    enumerate_functors,
    enumerate_nat_transformations,
    product_category,
)
from birkhoff2d.kernel import bof_kernel
from birkhoff2d.theory import (
    Algebra,
    AlgebraHom,
    compose_algebra_homs,
    enumerate_algebra_homs,
    product_algebra,
)


def _error(build):
    with pytest.raises(LabError) as info:
        build()
    return type(info.value), str(info.value), info.value.witness


def _tables(A):
    operations = {op: (A._op_obj[op], A._op_mor[op]) for op in A._op_obj}
    return operations, A._gen


def _public(x):
    """``x`` rebuilt from its own parts by its public constructor."""
    if isinstance(x, FinCategory):
        return FinCategory(x.objects, x.morphisms, x.identities, x.composition, name=x.name)
    if isinstance(x, Functor):
        return Functor(x.source, x.target, x.on_objects, x.on_morphisms, name=x.name)
    if isinstance(x, NatTransformation):
        return NatTransformation(x.source, x.target, x.components, name=x.name)
    if isinstance(x, Congruence):
        return Congruence(x.base, x.classes)
    if isinstance(x, AlgebraHom):
        return AlgebraHom(x.source, x.target, x.functor, name=x.name)
    return Algebra(x.presentation, x.carrier, *_tables(x), name=x.name)


def _state(x):
    """Every attribute, once every table and key made on first use is made."""
    for attr, value in vars(type(x)).items():
        if isinstance(value, fincat._made_on_first_use):
            getattr(x, attr)
    return vars(x)


def _assert_same_as_public(*values):
    for x in values:
        y = _public(x)
        assert x == y and hash(x) == hash(y), x
        assert _state(x) == _state(y), x


# -- corruption --------------------------------------------------------


def test_strict_mode_catches_a_non_associative_table(cats, request):
    # a one-object table with the identity laws but (a.a).a = b, a.(a.a) = 1
    table = {("a", "a"): "b", ("a", "b"): "1", ("b", "a"): "b", ("b", "b"): "1"}
    table.update({(u, "1"): u for u in "1ab"})
    table.update({("1", u): u for u in "ab"})
    bad = FinCategory._trusted(["x"], [Morphism(u, "x", "x") for u in "1ab"], {"x": "1"},
                               table, name="bad")
    P, _, _ = product_category(bad, cats["one"])
    public = _error(lambda: _public(P))
    assert public[0] is AssociativityViolation
    request.getfixturevalue("strict")
    assert _error(lambda: product_category(bad, cats["one"])) == public


def test_strict_mode_catches_a_broken_morphism_map(cats, monkeypatch, request):
    search = fincat.functor_maps

    def corrupted(A, B, *args, **kwargs):
        maps, visited = search(A, B, *args, **kwargs)
        maps[0][1]["t"] = "id1"  # t: 0 -> 1 sent to an endomorphism
        return maps, visited

    monkeypatch.setattr(fincat, "functor_maps", corrupted)
    two = cats["two"]
    monkeypatch.setattr(two, "_functors_to", {})
    public = _error(lambda: _public(enumerate_functors(two, two)[0]))
    assert public[1] == "functor ?: morphism t: boundary not preserved"
    request.getfixturevalue("strict")
    assert _error(lambda: enumerate_functors(two, two)) == public


def test_strict_mode_catches_a_class_that_is_not_closed(cats, monkeypatch, request):
    class Forgetful(fincat._UnionFind):
        """Merges, but reports no merge, so nothing reaches the worklist."""

        def union(self, x, y):
            super().union(x, y)
            return False

    monkeypatch.setattr(fincat, "_UnionFind", Forgetful)
    P, _, _ = product_category(cats["z2"], cats["two"])
    gens = [("(1,id0)", "(s,id0)")]
    public = _error(lambda: _public(congruence_closure(P, gens)))
    assert public[1].startswith("not closed under composition")
    request.getfixturevalue("strict")
    assert _error(lambda: congruence_closure(P, gens)) == public


def test_strict_mode_catches_a_component_that_is_not_natural(cats, monkeypatch, request):
    def unfiltered(F, G, limit, laws=None):
        slots = [F.target.hom(F.obj(a), G.obj(a)) for a in F.source.objects]
        return [dict(zip(F.source.objects, c)) for c in itertools.product(*slots)], 1

    monkeypatch.setattr(fincat, "_natural_components", unfiltered)
    two, P = cats["two"], cats["p"]
    monkeypatch.setattr(two, "_nats_between", {})
    objects = {"0": "a", "1": "b"}
    F = Functor(two, P, objects, {"id0": "ida", "id1": "idb", "t": "u"})
    G = Functor(two, P, objects, {"id0": "ida", "id1": "idb", "t": "v"})
    public = _error(lambda: _public(enumerate_nat_transformations(F, G)[0]))
    assert public[1] == "naturality fails at t"
    request.getfixturevalue("strict")
    assert _error(lambda: enumerate_nat_transformations(F, G)) == public


def test_strict_mode_catches_a_hom_search_without_its_laws(catalog, monkeypatch, request):
    search = theory.functor_maps

    def lawless(A, B, *args, laws=None, **kwargs):
        return search(A, B, *args, **kwargs)

    monkeypatch.setattr(theory, "functor_maps", lawless)
    xor = catalog["xor_strict"]
    found = enumerate_algebra_homs(xor, xor)
    bad = next(h for h in found if not theory.is_algebra_hom(h.functor, xor, xor))
    public = _error(lambda: _public(bad))
    assert public[:2] == (ValidationError, "functor ? is not a homomorphism: "
                          "{'kind': 'operation-morphisms', 'op': 'tensor', 'tuple': ('s0', 'id1')}")
    request.getfixturevalue("strict")
    assert _error(lambda: enumerate_algebra_homs(xor, xor)) == public


def test_strict_mode_catches_a_broken_operation_table(catalog, request):
    A = catalog["xor_strict"]
    operations, generators = _tables(A)
    tensor = dict(A._op_mor["tensor"])
    tensor[("id0", "s0")] = "id0"
    operations["tensor"] = (A._op_obj["tensor"], tensor)
    bad = Algebra._trusted(A.presentation, A.carrier, operations, generators, name="bad")
    P, _, _ = product_algebra(bad, bad)
    public = _error(lambda: _public(P))
    assert public[:2] == (ValidationError, "operation tensor: composition not preserved")
    request.getfixturevalue("strict")
    assert _error(lambda: product_algebra(bad, bad)) == public


def test_strict_mode_restores_the_quotient_scan(catalog, request):
    """Without the scan, a congruence that is not operation-closed gives a
    quotient whose trusted projection is no homomorphism; strict mode scans
    first, as quotient_algebra does."""
    A = catalog["xor_strict"]
    partial = Congruence(A.carrier, [["id0", "s0"], ["id1"], ["s1"]])
    Q, q = theory._trusted_quotient_algebra(A, partial)
    assert not theory.is_algebra_hom(q.functor, A, Q)
    public = _error(lambda: theory.quotient_algebra(A, partial))
    assert public[0] is NotOperationClosed
    request.getfixturevalue("strict")
    assert _error(lambda: theory._trusted_quotient_algebra(A, partial)) == public


# -- trusted and public builds agree -------------------------------------


def test_factorisations_match_public_builds(all_functors):
    for f in all_functors:
        for system in sorted(FACTOR_SYSTEMS):
            fact = FACTOR_SYSTEMS[system][0](f)
            _assert_same_as_public(fact.middle, fact.left, fact.right, fact.recompose())


def test_fincat_constructions_match_public_builds(cats, all_functors):
    names = sorted(cats)
    for a, b in itertools.combinations_with_replacement(names, 2):
        A, B = cats[a], cats[b]
        _assert_same_as_public(*product_category(A, B), *coproduct_category(A, B))
        for F in enumerate_functors(A, B):
            _assert_same_as_public(F)
    for f in all_functors:
        closure = congruence_closure(
            f.source, [(u, v) for (u, v) in f.source.parallel_pairs() if f.mor(u) == f.mor(v)])
        _assert_same_as_public(closure, *oracles.lifts_by_filter(f, f))
        for G in enumerate_functors(f.source, f.target):
            _assert_same_as_public(*enumerate_nat_transformations(f, G))


def test_algebra_constructions_match_public_builds(catalog, coherence):
    for A in catalog.values():
        R = reflect(A, coherence)
        _assert_same_as_public(R.reflected, R.congruence, R.unit)
    for A in list(catalog.values()) + [corpus.plain_p()]:
        for cong, Q, q in enumerate_quotient_algebras(A):
            _assert_same_as_public(cong, Q, Q.carrier, q)
    for A, B in itertools.combinations_with_replacement(list(catalog.values()), 2):
        P, pr1, pr2 = product_algebra(A, B)
        _assert_same_as_public(P, P.carrier, pr1, pr2)
        for f in enumerate_algebra_homs(A, B):
            for g in enumerate_algebra_homs(B, A):
                _assert_same_as_public(f, g, compose_algebra_homs(g, f))


CATEGORY_FIELDS = {"name", "objects", "morphisms", "identities", "composition"}


def test_a_trusted_category_holds_only_its_fields_until_a_table_is_read(cats, all_functors):
    """Products and bof middles are built, compared and classified without
    reading a table; reading one makes that table and no other."""
    P, pr1, pr2 = product_category(cats["z2"], cats["two"])
    assert set(vars(P)) == CATEGORY_FIELDS
    assert P == product_category(cats["z2"], cats["two"])[0]
    assert classify(pr1).so and classify(pr2).so
    assert set(vars(P)) == CATEGORY_FIELDS
    assert P.hom("(*,0)", "(*,1)") == ("(1,t)", "(s,t)")
    assert set(vars(P)) == CATEGORY_FIELDS | {"_hom"}
    for f in all_functors:
        fact = factor_bof(f)
        assert oracles.factorisation_sound(f, "bof")
        assert set(vars(fact.middle)) == CATEGORY_FIELDS, f


def test_functors_with_one_kernel_get_equal_middles_that_are_not_shared(cats):
    """The middle of a kernel partition is built once, yet each call gets a
    new middle and new legs with fields of their own: reading a table of one
    middle makes nothing on another."""
    z2z2 = cats["z2z2"]
    P = product_category(z2z2, z2z2)[0]
    by_kernel = {}
    for f in enumerate_functors(P, z2z2):
        projection = oracles.factor_bof_uncached(f).left.on_morphisms
        by_kernel.setdefault(tuple(sorted(projection.items())), []).append(f)
    f, g = next(fs for fs in by_kernel.values() if len(fs) > 1)[:2]
    facts = (factor_bof(f), factor_bof(g), factor_bof(f))
    assert facts[0].right != facts[1].right
    for x, y in itertools.combinations(facts, 2):
        assert x.middle == y.middle and x.left == y.left
        assert x.middle is not y.middle and x.left is not y.left and x.right is not y.right
        assert x.middle.composition is not y.middle.composition
        assert x.left.on_morphisms is not y.left.on_morphisms
    M = facts[0].middle
    a = M.objects[0]
    assert M.identity(a) in M.hom(a, a)
    assert set(vars(M)) == CATEGORY_FIELDS | {"_hom"}
    assert all(set(vars(x.middle)) == CATEGORY_FIELDS for x in facts[1:])


def test_functors_with_one_kernel_get_equal_kernel_data_that_is_not_shared(cats):
    """The kernel data of a kernel partition are built once, yet each call
    gets a new apex, new legs and new cells with fields of their own."""
    P = product_category(cats["z2"], cats["two"])[0]
    by_kernel = {}
    for f in enumerate_functors(P, cats["z2"]):
        projection = oracles.factor_bof_uncached(f).left.on_morphisms
        by_kernel.setdefault(tuple(sorted(projection.items())), []).append(f)
    f, g = next(fs for fs in by_kernel.values() if len(fs) > 1)[:2]
    assert f != g
    kds = (bof_kernel(f), bof_kernel(g), bof_kernel(f))
    for x, y in itertools.combinations(kds, 2):
        assert (x.apex, x.s, x.t, x.phi, x.psi) == (y.apex, y.s, y.t, y.phi, y.psi)
        for u, v in zip((x.apex, x.s, x.t, x.phi, x.psi), (y.apex, y.s, y.t, y.phi, y.psi)):
            assert u is not v
        fields = [(k.apex.identities, k.apex.composition, k.s.on_objects, k.s.on_morphisms,
                   k.t.on_objects, k.t.on_morphisms, k.phi.components, k.psi.components)
                  for k in (x, y)]
        for u, v in zip(*fields):
            assert u is not v
    K = kds[0].apex
    a = K.objects[0]
    assert K.identity(a) in K.hom(a, a)
    assert all(set(vars(k.apex)) == CATEGORY_FIELDS for k in kds[1:])


def _assert_equality_follows_the_key(values):
    for x, y in itertools.product(values, repeat=2):
        assert (x == y) == (y == x) == (x._key == y._key), (x, y)
        if x == y:
            assert hash(x) == hash(y), (x, y)


def test_equality_and_hash_agree_with_the_key(cats):
    """Trusted values next to public rebuilds under another name, next to
    values over renamed copies of their categories, and next to values over
    ``idem``, which differs from z2 only in its composition table."""
    z2 = cats["z2"]
    cats = dict(cats, idem=FinCategory(z2.objects, z2.morphisms, z2.identities,
                                       {**z2.composition, ("s", "s"): "s"}, name="idem"))
    names = ("one", "two", "p", "d2", "z2", "idem")
    renamed = {n: FinCategory(C.objects, C.morphisms, C.identities, C.composition,
                              name=C.name + "'") for n, C in cats.items()}
    categories = [cats[n] for n in names] + list(renamed.values())
    functors, cells, closures = [], [], []
    for a, b in itertools.product(names, repeat=2):
        found = enumerate_functors(cats[a], cats[b])
        h = fincat.identity_functor(cats[b])
        for F in found:
            functors += [F, Functor(F.source, F.target, F.on_objects, F.on_morphisms,
                                    name="rebuilt"),
                         Functor(renamed[a], renamed[b], F.on_objects, F.on_morphisms)]
            for alpha in itertools.chain(*(enumerate_nat_transformations(F, G)
                                           for G in found)):
                w = oracles.whole_whisker(h, alpha, "left")
                cells += [alpha, NatTransformation(w.source, w.target, w.components,
                                                   name="rebuilt")]
    for n in names:
        for gens in [[]] + [[pair] for pair in cats[n].parallel_pairs()]:
            for C in (cats[n], renamed[n]):
                cong = congruence_closure(C, gens)
                closures += [cong, Congruence(cong.base, cong.classes)]
    assert any(len(c.classes) < len(c.base.morphisms) for c in closures)
    for values in (categories, functors, cells, closures):
        _assert_equality_follows_the_key(values)
