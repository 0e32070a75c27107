"""Reflections, quotient enumeration, the closure audit and its converse."""
import pytest

from birkhoff2d import corpus
from birkhoff2d.birkhoff import (
    Reflection,
    audit_closure,
    algebras_isomorphic,
    check_algebra_orthogonal,
    enumerate_quotient_algebras,
    reflect,
    verify_orthogonality_characterisation,
    verify_reflection_free,
    verify_unit_terminal,
)
from birkhoff2d.errors import SizeLimitExceeded, ValidationError
from birkhoff2d.fincat import classify, lifts
from birkhoff2d.theory import enumerate_algebra_homs, product_algebra, satisfies

import oracles


@pytest.fixture(scope="module")
def sigma_reflection(catalog, coherence):
    return reflect(catalog["sigma_assoc"], coherence)


# -- reflection --------------------------------------------------------


def test_reflecting_a_member_changes_nothing(catalog, coherence):
    for name in ("xor_strict", "two_max", "z2_strict", "terminal_alg"):
        R = reflect(catalog[name], coherence)
        assert R.trivial
        flags = classify(R.unit.functor)
        assert flags.bo and flags.ff


def test_reflection_of_twisted_algebra(catalog, coherence, sigma_reflection):
    R = sigma_reflection
    assert not R.trivial
    assert R.congruence.classes == (("id0", "s0"), ("id1", "s1"))
    assert classify(R.unit.functor).bo_full
    assert satisfies(R.reflected, coherence)


def test_reflection_is_idempotent_up_to_isomorphism(catalog, coherence, sigma_reflection):
    R2 = reflect(sigma_reflection.reflected, coherence)
    assert R2.trivial
    assert algebras_isomorphic(R2.reflected, sigma_reflection.reflected) is not None


def test_reflection_requires_matching_presentation(coherence):
    with pytest.raises(ValidationError):
        reflect(corpus.plain_p(), coherence)


# -- orthogonality to the unit -----------------------------------------


def test_members_are_orthogonal_to_the_unit(catalog, sigma_reflection):
    homs = {}
    for name in ("xor_strict", "two_max", "z2_strict", "terminal_alg"):
        res = check_algebra_orthogonal(sigma_reflection.unit, catalog[name])
        assert res, (name, res.witness)
        homs[name] = res.witness["homs"]
    assert homs == {"xor_strict": 2, "two_max": 1, "z2_strict": 1, "terminal_alg": 1}


def test_twisted_algebra_is_not_orthogonal(catalog, sigma_reflection):
    res = check_algebra_orthogonal(sigma_reflection.unit, catalog["sigma_assoc"])
    assert not res
    assert res.witness == {"kind": "no factorisation", "hom": {"0": "0", "1": "0"}}


def test_freeness_over_member_probes(catalog, coherence, sigma_reflection):
    probes = [catalog[k] for k in ("xor_strict", "two_max", "z2_strict", "terminal_alg")]
    res = verify_reflection_free(sigma_reflection, coherence, probes)
    assert res
    assert res.witness == {"probes": 4}


def test_freeness_rejects_probes_outside_the_subclass(catalog, coherence, sigma_reflection):
    with pytest.raises(ValidationError):
        verify_reflection_free(sigma_reflection, coherence, [catalog["sigma_assoc"]])


def test_freeness_names_the_failing_probe(catalog, coherence):
    """Every hom between catalog algebras, taken as a unit and checked
    against the member z2_strict: the failures and the witnesses of those
    at the 2-cell level are pinned as the version that compared whisker
    tuples gave them, each hom of the failing pair named by its morphism
    map."""
    kinds, two_cell = {}, []
    for A in catalog.values():
        for B in catalog.values():
            for eta in enumerate_algebra_homs(A, B):
                res = verify_reflection_free(Reflection(eta, B, None), coherence,
                                             [catalog["z2_strict"]])
                kind = res.witness.get("kind", "ok")
                kinds[kind] = kinds.get(kind, 0) + 1
                if "2-cell" in kind:
                    two_cell.append((A.name, B.name, eta.functor.on_objects, res.witness))
    assert kinds == {"ok": 11, "non-unique factorisation": 14, "no factorisation": 4,
                     "non-unique 2-cell factorisation": 4, "2-cell does not descend": 4}

    def unique(*morphisms):
        h = dict.fromkeys(morphisms, "1")
        return {"kind": "non-unique 2-cell factorisation", "pair": (h, h), "probe": "z2_strict"}

    def descend(*morphisms):
        h = dict.fromkeys(morphisms, "1")
        return {"kind": "2-cell does not descend", "pair": (h, h), "missing": 1,
                "probe": "z2_strict"}

    # each pair names the hom into z2_strict that sends every morphism to 1
    assert two_cell == [
        ("sigma_assoc", "sigma_assoc", {"0": "0", "1": "0"}, unique("id0", "id1", "s0", "s1")),
        ("sigma_assoc", "terminal_alg", {"0": "*", "1": "*"}, descend("id")),
        ("sigma_assoc", "two_max", {"0": "0", "1": "0"}, descend("id0", "id1", "t")),
        ("sigma_assoc", "z2_sigma", {"0": "*", "1": "*"}, descend("1", "s")),
        ("xor_strict", "xor_strict", {"0": "0", "1": "0"}, unique("id0", "id1", "s0", "s1")),
        ("xor_strict", "z2_strict", {"0": "*", "1": "*"}, descend("1", "s")),
        ("z2_sigma", "sigma_assoc", {"*": "0"}, unique("id0", "id1", "s0", "s1")),
        ("z2_strict", "xor_strict", {"*": "0"}, unique("id0", "id1", "s0", "s1")),
    ]


@pytest.mark.parametrize("mode", ["trusted", "strict"])
def test_algebra_orthogonality_matches_comparing_whiskers(catalog, coherence, mode, request):
    """Every reflection unit and every hom between catalog algebras against
    every catalog algebra: check_algebra_orthogonal gives the verdict and
    witness of the version that compares whole whiskers w * eta (every kind
    of failure among them), and verify_reflection_free passes on the
    members exactly when that version passes on each."""
    if mode == "strict":
        request.getfixturevalue("strict")
    algebras = list(catalog.values())
    members = [B for B in algebras if satisfies(B, coherence)]
    units = []
    for A in algebras:
        R = reflect(A, coherence)
        free = all(oracles.algebra_orthogonal_by_whiskers(R.unit, B) for B in members)
        assert bool(verify_reflection_free(R, coherence, members)) == free
        units.append(R.unit)
    homs = [eta for A in algebras for B in algebras for eta in enumerate_algebra_homs(A, B)]
    verdicts = {}
    for eta in units + homs:
        for B in algebras:
            got = check_algebra_orthogonal(eta, B)
            assert got == oracles.algebra_orthogonal_by_whiskers(eta, B), (eta, B)
            kind = got.witness.get("kind", "ok")
            verdicts[kind] = verdicts.get(kind, 0) + 1
    assert verdicts == {"ok": 169, "non-unique factorisation": 40, "no factorisation": 38,
                        "non-unique 2-cell factorisation": 6, "2-cell does not descend": 5}


# -- quotient enumeration ----------------------------------------------


def test_partition_generator_matches_recursive_oracle():
    for items in ([], ["a"], ["a", "b"], ["a", "b", "c"], ["w", "x", "y", "z"]):
        mine = [
            frozenset(frozenset(b) for b in part) for part in oracles._set_partitions(items)
        ]
        ref = [
            frozenset(frozenset(b) for b in part) for part in oracles.set_partitions(items)
        ]
        assert len(mine) == len(set(mine)) == len(ref)
        assert set(mine) == set(ref)
    assert [len(list(oracles._set_partitions(list("abcd"[:n])))) for n in range(5)] == [
        1, 1, 2, 5, 15,
    ]


def test_quotient_counts_match_bruteforce(catalog):
    algebras = dict(catalog)
    algebras["plain_p"] = corpus.plain_p()
    for name, expected in oracles.QUOTIENT_COUNTS.items():
        A = algebras[name]
        found = enumerate_quotient_algebras(A)
        assert len(found) == expected, name
        assert oracles.count_quotient_algebras(A) == expected, name


def test_quotient_enumeration_respects_limit(catalog):
    with pytest.raises(SizeLimitExceeded):
        enumerate_quotient_algebras(catalog["xor_strict"], limit=1)


def test_quotient_limit_error_names_the_search(catalog):
    with pytest.raises(SizeLimitExceeded,
                       match=r"^quotient search exceeds limit \(2 congruence closures > 1\)$"):
        enumerate_quotient_algebras(catalog["xor_strict"], limit=1)


def test_generated_quotients_match_the_partition_filter(catalog):
    xor = catalog["xor_strict"]
    algebras = dict(catalog)
    algebras["plain_p"] = corpus.plain_p()
    algebras["xor_strict^2"] = product_algebra(xor, xor)[0]
    algebras["sigma_assoc x two_max"] = product_algebra(
        catalog["sigma_assoc"], catalog["two_max"])[0]
    for name, A in algebras.items():
        found = enumerate_quotient_algebras(A)
        ref = oracles.quotients_by_partitions(A)
        assert found == ref, name
        assert [(q.name, h.name) for (_, q, h) in found] == [
            (q.name, h.name) for (_, q, h) in ref], name


# -- isomorphism -------------------------------------------------------


def test_isomorphism_detection(catalog):
    xor, sigma, two_max = (catalog[k] for k in
                           ("xor_strict", "sigma_assoc", "two_max"))
    assert algebras_isomorphic(xor, xor) is not None
    assert algebras_isomorphic(xor, sigma) is None
    assert algebras_isomorphic(xor, two_max) is None


def test_product_associativity_up_to_isomorphism(catalog):
    A, B, C = (catalog[k] for k in ("xor_strict", "two_max", "terminal_alg"))
    AB, _, _ = product_algebra(A, B)
    BC, _, _ = product_algebra(B, C)
    left, _, _ = product_algebra(AB, C)
    right, _, _ = product_algebra(A, BC)
    assert algebras_isomorphic(left, right) is not None


def test_product_with_terminal_is_identity_up_to_isomorphism(catalog):
    A = catalog["xor_strict"]
    P, _, _ = product_algebra(A, catalog["terminal_alg"])
    assert algebras_isomorphic(P, A) is not None


# -- the closure audit -------------------------------------------------


def test_audit_of_the_equational_subclass(catalog, coherence):
    report = audit_closure(
        coherence,
        list(catalog.values()),
        corpus.sub_witnesses(),
        corpus.refl_data(),
    )
    assert report.ok
    assert report.subclass == ("terminal_alg", "two_max", "xor_strict", "z2_strict")
    assert len(report.checks) == 21
    assert len(report.family("products")) == 10
    assert len(report.family("subalgebras")) == 3
    assert len(report.family("quotients")) == 6
    assert len(report.family("reflexive_coequifiers")) == 2
    assert report.to_json()["ok"] is True
    assert any("result: pass" in line for line in report.lines())


def test_audit_of_a_pinned_non_equational_subclass(catalog, coherence):
    report = audit_closure(
        coherence,
        list(catalog.values()),
        corpus.sub_witnesses(),
        corpus.refl_data(),
        members=[catalog["sigma_assoc"]],
    )
    assert not report.ok
    assert len(report.checks) == 3
    failed = [c for c in report.checks if not c["ok"]]
    assert {c["family"] for c in failed} == {"products", "quotients"}
    collapse = [c for c in failed if c["family"] == "quotients"]
    assert "id0" in collapse[0]["inputs"] and "s0" in collapse[0]["inputs"]


def test_audit_with_empty_extension_accepts_everything(catalog):
    from birkhoff2d.theory import Extension

    E0 = Extension(corpus.monoidal_presentation(), [], name="no-equations")
    report = audit_closure(
        E0, list(catalog.values()), corpus.sub_witnesses(), corpus.refl_data())
    assert report.ok
    assert len(report.subclass) == 6


# A LabError while building a subalgebra or a reflexive coequifier is a
# failed check under that family's key; a SizeLimitExceeded, and a
# constructed algebra outside the subclass, are reported as below.


def test_audit_reports_a_subalgebra_that_does_not_induce(catalog, coherence):
    from birkhoff2d.fincat import Functor

    xor = catalog["xor_strict"]
    # the object 1 alone: 1 (x) 1 = 0 leaves the image
    m = Functor(corpus.category("one"), xor.carrier, {"*": "1"}, {"id": "id1"}, name="odd")
    report = audit_closure(coherence, list(catalog.values()), [(m, xor)])
    [check] = report.family("subalgebras")
    assert check["inputs"] == "odd into xor_strict" and not check["ok"]
    assert list(check["witness"]) == ["induction_failed"]
    assert "outside the image" in check["witness"]["induction_failed"]


def test_audit_reports_a_reflexive_datum_that_does_not_lift(catalog, coherence):
    datum = dict(corpus.refl_data()[0])
    datum["u"], datum["v"] = datum["v"], datum["u"]  # the 2-cells now run t => s
    report = audit_closure(coherence, list(catalog.values()), refl_data=[datum])
    [check] = report.family("reflexive_coequifiers")
    assert check["inputs"] == "two_max-projection-vs-tensor" and not check["ok"]
    assert check["witness"] == {"lift_failed": "2-cells must run s => t"}


def test_audit_reports_an_equational_non_member(monkeypatch, catalog, coherence):
    from birkhoff2d import birkhoff

    sigma = catalog["sigma_assoc"]
    monkeypatch.setattr(birkhoff, "subalgebra_check", lambda m, A: sigma)
    report = audit_closure(coherence, list(catalog.values()), corpus.sub_witnesses())
    checks = report.family("subalgebras")
    assert len(checks) == 3 and not report.ok
    expected = {"equation_failure": satisfies(sigma, coherence).witness}
    assert [c["witness"] for c in checks] == [expected] * 3


def test_audit_lets_a_size_limit_out_of_a_family_build(monkeypatch, catalog, coherence):
    from birkhoff2d import birkhoff

    def too_big(*args):
        raise SizeLimitExceeded("too big")

    monkeypatch.setattr(birkhoff, "reflexive_coequifier_algebra", too_big)
    with pytest.raises(SizeLimitExceeded, match="too big"):
        audit_closure(coherence, list(catalog.values()), refl_data=corpus.refl_data())


def test_pinned_audit_raises_at_a_tiny_limit(catalog, coherence):
    # terminal_alg x xor_strict has xor_strict's size, so it is searched for an isomorphism
    members = [catalog["terminal_alg"], catalog["xor_strict"]]
    with pytest.raises(SizeLimitExceeded):
        audit_closure(coherence, list(catalog.values()), members=members, limit=1)


# -- converse and terminality ------------------------------------------


def test_subclass_equals_orthogonality_class(catalog, coherence):
    res = verify_orthogonality_characterisation(coherence, list(catalog.values()))
    assert res
    assert res.witness == {"catalog": 6, "units": 6, "class_size": 4}


def test_unit_is_terminal_among_subclass_quotients(catalog, coherence):
    counts = {}
    for name in ("sigma_assoc", "xor_strict", "two_max"):
        res = verify_unit_terminal(catalog[name], coherence)
        assert res, (name, res.witness)
        counts[name] = res.witness["quotients_in_subclass"]
    assert counts == {"sigma_assoc": 1, "xor_strict": 2, "two_max": 1}


def test_every_lift_along_the_unit_is_a_hom(catalog, coherence):
    """verify_unit_terminal counts the lifts along the unit without testing
    them: the unit is onto objects and morphisms, so each lift of a
    homomorphism is one.  Here every lift of every quotient map passes the
    homomorphism filter, and the quotients in the subclass each have one."""
    counts = {}
    for name in ("sigma_assoc", "xor_strict", "two_max"):
        A = catalog[name]
        R = reflect(A, coherence)
        counts[name] = 0
        for _, Q, h in enumerate_quotient_algebras(A):
            got = lifts(R.unit.functor, h.functor)
            assert list(got) == oracles.unit_lifts_by_filter(R, Q, h), name
            if satisfies(Q, coherence):
                assert len(got) == 1, name
                counts[name] += 1
        assert verify_unit_terminal(A, coherence).witness == {
            "quotients_in_subclass": counts[name]}
    assert counts == {"sigma_assoc": 1, "xor_strict": 2, "two_max": 1}
