"""The ten release criteria, one test and one summary line each.

Every test funnels its verdict through record_acceptance so the run ends
with a visible pass/fail block; the asserts keep the suite red whenever
a criterion regresses.  Each criterion runs a second time in strict mode,
where every trusted builder validates what it builds; its summary line is
marked "(strict)" and reads the same otherwise.
"""
import inspect

import pytest

import conftest
from conftest import record_acceptance

from birkhoff2d import corpus
from birkhoff2d.birkhoff import (
    audit_closure,
    enumerate_quotient_algebras,
    reflect,
    verify_orthogonality_characterisation,
    verify_reflection_free,
)
from birkhoff2d.factor import (
    FACTOR_SYSTEMS,
    check_orthogonal_morphisms,
    factor_bof,
)
from birkhoff2d.fincat import classify
from birkhoff2d.kernel import (
    bof_kernel,
    lemma_cancel_two_cells,
    lemma_coeq_refl,
    lemma_immediate_convergence,
    verify_kernel_universal,
)
from birkhoff2d.theory import satisfies

import oracles


def test_criterion_1_factorisation_soundness(all_functors):
    failures = 0
    for name in sorted(FACTOR_SYSTEMS):
        build, left_class, right_class = FACTOR_SYSTEMS[name]
        for f in all_functors:
            fact = build(f)
            ok = (
                fact.recompose() == f
                and getattr(classify(fact.left), left_class)
                and getattr(classify(fact.right), right_class)
            )
            failures += 0 if ok else 1
    total = len(FACTOR_SYSTEMS) * len(all_functors)
    assert record_acceptance(
        1, failures == 0,
        "all %d factorisations recompose and land in their classes" % total)


def test_criterion_2_exhaustive_orthogonality(all_functors):
    quotients = [f for f in all_functors if classify(f).bo_full]
    monos = [f for f in all_functors if classify(f).faithful]
    assert (len(quotients), len(monos)) == (
        oracles.BO_FULL_COUNT, oracles.FAITHFUL_COUNT)
    failures = sum(
        0 if check_orthogonal_morphisms(e, m) else 1
        for e in quotients for m in monos
    )
    e0 = factor_bof(corpus.collapse_functor()).left
    negative_rejected = not check_orthogonal_morphisms(e0, e0)
    assert record_acceptance(
        2, failures == 0 and negative_rejected,
        "all %d quotient/mono pairs orthogonal, designed negative rejected"
        % (len(quotients) * len(monos)))


def test_criterion_3_two_cell_cancellation(all_functors, cats):
    res = lemma_cancel_two_cells(all_functors, list(cats.values()))
    assert record_acceptance(
        3, res.ok and res.witness == {"pairs": 1335, "cells": 698},
        "whiskering with quotients is bijective on 2-cells "
        "(1335 pairs, 698 cells)")


def test_criterion_4_reflexivized_coequifiers():
    data = corpus.coequifier_data()
    res = lemma_coeq_refl(data)
    assert record_acceptance(
        4, res.ok and res.witness == {"data": len(data)},
        "%d reflexivized coequifier data give isomorphic quotients" % len(data))


def test_criterion_5_immediate_convergence(all_functors):
    res = lemma_immediate_convergence(all_functors)
    assert record_acceptance(
        5, res.ok and res.witness == {"functors": len(all_functors)},
        "%d/%d functors converge after one kernel-quotient step"
        % (len(all_functors), len(all_functors)))


def test_criterion_6_kernel_universality(all_functors, cats):
    apexes = list(cats.values())
    passed = sum(
        1 for f in all_functors
        if verify_kernel_universal(bof_kernel(f), f, apexes)
    )
    assert record_acceptance(
        6, passed == len(all_functors),
        "kernel data terminal among coequified data for %d/%d functors"
        % (passed, len(all_functors)))


def test_criterion_7_monoidal_flagship(catalog, coherence):
    strict_ok = bool(satisfies(catalog["xor_strict"], coherence))
    res = satisfies(catalog["sigma_assoc"], coherence)
    witness_ok = not res and res.witness == {
        "kind": "two_cell", "equation": 0, "tuple": ("0", "0", "0", "0"),
        "lhs": "id0", "rhs": "s0",
    }
    R = reflect(catalog["sigma_assoc"], coherence)
    collapse_ok = R.congruence.classes == (("id0", "s0"), ("id1", "s1"))
    unit_ok = classify(R.unit.functor).bo_full
    probes = [A for A in catalog.values() if satisfies(A, coherence)]
    free = verify_reflection_free(R, coherence, probes)
    free_ok = free.ok and free.witness == {"probes": len(probes)}
    assert record_acceptance(
        7, strict_ok and witness_ok and collapse_ok and unit_ok and free_ok,
        "strict algebra satisfies, twisted algebra fails with the recorded "
        "witness, its reflection is free over %d probes" % len(probes))


def test_criterion_8_closure_audit(catalog, coherence):
    algebras = list(catalog.values())
    subs = corpus.sub_witnesses()
    refl = corpus.refl_data()
    report = audit_closure(coherence, algebras, subs, refl)
    sizes = tuple(
        len(report.family(k))
        for k in ("products", "subalgebras", "quotients", "reflexive_coequifiers")
    )
    positive_ok = report.ok and sizes == (10, 3, 6, 2)
    corrupted = audit_closure(
        coherence, algebras, subs, refl, members=[catalog["sigma_assoc"]])
    bad = [c for c in corrupted.checks if not c["ok"]]
    negative_ok = (
        not corrupted.ok
        and bad
        and all("not_isomorphic_to_any_member" in c["witness"] for c in bad)
    )
    assert record_acceptance(
        8, positive_ok and negative_ok,
        "audit passes %d checks on the equational subclass, pinned subclass "
        "fails with witnesses" % len(report.checks))


def test_criterion_9_orthogonality_characterisation(catalog, coherence):
    algebras = list(catalog.values())
    res = verify_orthogonality_characterisation(coherence, algebras)
    in_class = sum(1 for A in algebras if satisfies(A, coherence))
    ok = (
        res.ok
        and res.witness == {"catalog": 6, "units": 6, "class_size": 4}
        and in_class == res.witness["class_size"]
    )
    assert record_acceptance(
        9, ok,
        "equational subclass equals the orthogonality class "
        "(%d of %d algebras, 0 disagreements)" % (in_class, len(algebras)))


def test_criterion_10_quotient_enumeration(catalog):
    algebras = dict(catalog)
    algebras["plain_p"] = corpus.plain_p()
    counts_ok = all(
        len(enumerate_quotient_algebras(algebras[n])) == want
        == oracles.count_quotient_algebras(algebras[n])
        for n, want in oracles.QUOTIENT_COUNTS.items()
    )
    merged = [
        tuple(sorted(tuple(cl) for cl in cong.classes if len(cl) > 1))
        for (cong, _, _) in enumerate_quotient_algebras(catalog["sigma_assoc"])
    ]
    collapse_present = (("id0", "s0"), ("id1", "s1")) in merged
    assert record_acceptance(
        10, counts_ok and collapse_present,
        "quotient enumeration matches the independent partition oracle "
        "on %d algebras" % len(oracles.QUOTIENT_COUNTS))


CRITERIA = [test_criterion_1_factorisation_soundness,
            test_criterion_2_exhaustive_orthogonality,
            test_criterion_3_two_cell_cancellation,
            test_criterion_4_reflexivized_coequifiers,
            test_criterion_5_immediate_convergence,
            test_criterion_6_kernel_universality,
            test_criterion_7_monoidal_flagship,
            test_criterion_8_closure_audit,
            test_criterion_9_orthogonality_characterisation,
            test_criterion_10_quotient_enumeration]


@pytest.mark.parametrize("criterion", CRITERIA, ids=lambda t: t.__name__[len("test_"):])
def test_criterion_in_strict_mode(criterion, strict, request):
    lines = conftest.acceptance_lines
    start = len(lines)
    criterion(**{name: request.getfixturevalue(name)
                 for name in inspect.signature(criterion).parameters})
    lines[start:] = [line + "  (strict)" for line in lines[start:]]
