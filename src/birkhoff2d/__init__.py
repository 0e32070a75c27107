"""Finite 2-categorical algebra workbench.

Finite categories with total composition tables, the three
factorisation systems (b.o. full/faithful, b.o./fully faithful,
surjective/injective-on-objects fully faithful), kernels and
coequifiers, presentations of operations with invertible 2-cell
generators, their finite algebras, and reflections of algebras into
equationally defined subclasses together with the closure-property
audits that characterise such subclasses.

The package imports lazily (PEP 562): ``import birkhoff2d`` loads no
submodule, and a public name loads its home module on first access.
"""
import importlib

__version__ = "0.1.0"

# home module -> the public names it gives the package
_EXPORTS = {
    "errors": ("LabError", "UsageError", "ValidationError"),
    "fincat": (
        "Congruence", "FinCategory", "Functor", "NatTransformation", "classify",
        "congruence_closure", "enumerate_functors", "enumerate_nat_transformations",
        "quotient_by_congruence",
    ),
    "jsonio": ("validate_category",),
    "factor": (
        "Factorisation", "check_orthogonal_morphisms", "check_orthogonal_object",
        "factor_bo_ff", "factor_bof", "factor_so_ioff",
    ),
    "kernel": (
        "KernelData", "bof_kernel", "coequify", "immediate_convergence_check",
        "make_reflexive", "verify_coequifier_2d", "verify_kernel_universal",
    ),
    "theory": ("Algebra", "AlgebraHom", "Extension", "Presentation", "Signature", "satisfies"),
    "birkhoff": (
        "audit_closure", "check_algebra_orthogonal", "enumerate_quotient_algebras",
        "reflect", "verify_orthogonality_characterisation", "verify_reflection_free",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(importlib.import_module("." + _HOME[name], __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
