"""Postconditions of the constructions raise LabError, so `python -O` keeps them.

Each test breaks one composite the construction checks itself against,
and expects the check to fire instead of returning a wrong result.
"""
import pytest

from birkhoff2d import birkhoff, corpus, factor, kernel, theory
from birkhoff2d.errors import LabError
from birkhoff2d.factor import CheckResult
from birkhoff2d.fincat import identity_functor


def test_factorisation_that_does_not_recompose(monkeypatch):
    f = corpus.collapse_functor()
    monkeypatch.setattr(factor, "compose_functors", lambda g, h: identity_functor(h.source))
    with pytest.raises(LabError):
        factor.factor_bof(f)


def test_quotient_that_does_not_coequify(monkeypatch):
    phi, psi = corpus.coequifier_data()[0]
    monkeypatch.setattr(kernel, "whisker", lambda h, alpha, side: alpha)
    with pytest.raises(LabError):
        kernel.coequify(phi, psi)


def test_comparison_that_does_not_give_back_the_functor(monkeypatch):
    f = corpus.collapse_functor()
    monkeypatch.setattr(kernel, "compose_functors", lambda g, h: identity_functor(h.source))
    with pytest.raises(LabError):
        kernel.immediate_convergence_check(f)


def test_reflection_that_misses_the_subclass(monkeypatch, catalog, coherence):
    monkeypatch.setattr(birkhoff, "satisfies", lambda A, E: CheckResult(False, {"kind": "x"}))
    with pytest.raises(LabError):
        birkhoff.reflect(catalog["sigma_assoc"], coherence)


def test_saturation_that_is_not_operation_closed(monkeypatch, catalog):
    monkeypatch.setattr(theory, "congruence_operation_witness", lambda A, cong: ("op",))
    with pytest.raises(LabError):
        theory.algebra_congruence_closure(catalog["xor_strict"], [])
