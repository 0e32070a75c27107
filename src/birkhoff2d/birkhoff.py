"""Reflections into equational subclasses and the closure-property audits.

The central construction is :func:`reflect`: the universal quotient of an
algebra into the subclass cut out by an extension's added 2-cell
equations.  Around it sit the freeness verification (precomposition with
the unit is bijective on homs and on algebra 2-cells), exhaustive
enumeration of quotient algebras, the four-family closure audit
(products, subalgebras, quotients, reflexive coequifiers), and the
orthogonality characterisation of the subclass.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import LabError, SizeLimitExceeded, ValidationError
from .factor import CheckResult
from .fincat import (
    DEFAULT_SEARCH_LIMIT,
    Congruence,
    classify,
    congruence_context_witness,
    whisker,
)
from .theory import (
    Algebra,
    AlgebraHom,
    Extension,
    algebra_congruence_closure,
    algebra_two_cells,
    compose_algebra_homs,
    enumerate_algebra_homs,
    eval_expr,
    product_algebra,
    quotient_algebra,
    reflexive_coequifier_algebra,
    satisfies,
    subalgebra_check,
)


@dataclass
class Reflection:
    """The universal quotient of an algebra into an equational subclass."""

    unit: AlgebraHom
    reflected: Algebra
    congruence: Congruence

    @property
    def trivial(self) -> bool:
        return all(len(cl) == 1 for cl in self.congruence.classes)


def reflect(A: Algebra, E: Extension) -> Reflection:
    """Quotient A by the congruence generated by all instantiations of
    the added equations; the result satisfies the extension and the
    projection is bijective on objects and full."""
    if E.base != A.presentation:
        raise ValidationError("extension does not extend the algebra's presentation")
    pairs = []
    for (l, r) in E.added_two_cell_equations:
        n = A.presentation.resolve_arity(l, r)
        for t in A.obj_tuples(n):
            lv = eval_expr(A, l, t, n)
            rv = eval_expr(A, r, t, n)
            if lv != rv:
                pairs.append((lv, rv))
    cong = algebra_congruence_closure(A, pairs)
    reflected, unit = quotient_algebra(A, cong)
    check = satisfies(reflected, E)
    if not check:
        raise LabError("reflection failed to reach the subclass", witness=check.witness)
    return Reflection(unit, reflected, cong)


def check_algebra_orthogonal(
    eta: AlgebraHom, B: Algebra, limit: int = DEFAULT_SEARCH_LIMIT
) -> CheckResult:
    """Is B orthogonal to eta in the algebra sense?

    Precomposition with eta must be a bijection from homs out of eta's
    target to homs out of eta's source, and a bijection on algebra
    2-cells between every pair of such homs.
    """
    down_of: Dict[AlgebraHom, AlgebraHom] = {}
    upper = enumerate_algebra_homs(eta.target, B, limit=limit)
    for h in upper:
        c = compose_algebra_homs(h, eta)
        if c in down_of:
            return CheckResult(
                False, {"kind": "non-unique factorisation", "through": c.functor.on_objects}
            )
        down_of[c] = h
    for g in enumerate_algebra_homs(eta.source, B, limit=limit):
        if g not in down_of:
            return CheckResult(
                False, {"kind": "no factorisation", "hom": g.functor.on_objects}
            )
    for h in upper:
        for k in upper:
            up_cells = algebra_two_cells(h, k, limit=limit)
            whiskered = [whisker(eta.functor, w, "right") for w in up_cells]
            if len(set(whiskered)) != len(whiskered):
                return CheckResult(
                    False, {"kind": "non-unique 2-cell factorisation", "pair": (h.name, k.name)}
                )
            down_cells = set(
                algebra_two_cells(
                    compose_algebra_homs(h, eta), compose_algebra_homs(k, eta), limit=limit
                )
            )
            if set(whiskered) != down_cells:
                return CheckResult(
                    False,
                    {
                        "kind": "2-cell does not descend",
                        "pair": (h.name, k.name),
                        "missing": len(down_cells - set(whiskered)),
                    },
                )
    return CheckResult(True, {"homs": len(upper)})


def verify_reflection_free(
    R: Reflection,
    E: Extension,
    probes: Sequence[Algebra],
    limit: int = DEFAULT_SEARCH_LIMIT,
) -> CheckResult:
    """Freeness of the reflection on every probe: each probe must satisfy
    the extension (rejected otherwise), and precomposition with the unit
    must be bijective on homs and on algebra 2-cells."""
    checked = 0
    for B in probes:
        ok = satisfies(B, E)
        if not ok:
            raise ValidationError(
                "probe %s does not satisfy the extension: %r" % (B.name or "?", ok.witness),
                witness=ok.witness,
            )
        res = check_algebra_orthogonal(R.unit, B, limit=limit)
        if not res:
            out = dict(res.witness)
            out["probe"] = B.name or "?"
            return CheckResult(False, out)
        checked += 1
    return CheckResult(True, {"probes": checked})


# -- quotient enumeration ---------------------------------------------


def _set_partitions(items: Sequence[str]):
    """All partitions of a sequence, by restricted growth strings; the
    all-in-one-block partition comes first, all-singletons last."""
    n = len(items)
    if n == 0:
        yield []
        return
    codes = [0] * n
    while True:
        blocks: Dict[int, List[str]] = {}
        for x, c in zip(items, codes):
            blocks.setdefault(c, []).append(x)
        yield [blocks[c] for c in sorted(blocks)]
        # next restricted growth string in reverse-lexicographic series
        i = n - 1
        while i > 0:
            if codes[i] <= max(codes[:i]):
                break
            i -= 1
        if i == 0:
            return
        codes[i] += 1
        for j in range(i + 1, n):
            codes[j] = 0


def enumerate_quotient_algebras(
    A: Algebra, limit: int = DEFAULT_SEARCH_LIMIT
) -> Tuple[Tuple[Congruence, Algebra, AlgebraHom], ...]:
    """All quotients of A: every operation-closed congruence on the
    carrier with its quotient algebra and projection, in a canonical
    duplicate-free order (partition products per hom-set, filtered by
    composition closure and operation closure)."""
    C = A.carrier
    hom_sets = sorted(
        {(m.dom, m.cod) for m in C.morphisms}
    )
    per_set = [list(C.hom(a, b)) for (a, b) in hom_sets]
    partition_lists = [list(_set_partitions(ms)) for ms in per_set]
    total = 1
    for p in partition_lists:
        total *= len(p)
        if total > limit:
            raise SizeLimitExceeded(
                "quotient search space exceeds limit (%d partitions > %d)" % (total, limit)
            )
    from .theory import congruence_operation_witness

    out = []
    for combo in itertools.product(*partition_lists):
        classes = [cl for part in combo for cl in part]
        rel: Dict[str, str] = {}
        for cl in classes:
            rep = min(cl)
            for m in cl:
                rel[m] = rep
        if congruence_context_witness(C, rel) is not None:
            continue
        cong = Congruence(C, classes)
        if congruence_operation_witness(A, cong) is not None:
            continue
        quot, h = quotient_algebra(A, cong)
        out.append((cong, quot, h))
    return tuple(out)


# -- isomorphism of algebras ------------------------------------------


def algebras_isomorphic(
    A: Algebra, B: Algebra, limit: int = DEFAULT_SEARCH_LIMIT
) -> Optional[AlgebraHom]:
    """An invertible homomorphism A -> B if one exists, else None."""
    if A.presentation != B.presentation:
        return None
    if len(A.carrier.objects) != len(B.carrier.objects):
        return None
    if len(A.carrier.morphisms) != len(B.carrier.morphisms):
        return None
    for h in enumerate_algebra_homs(A, B, limit=limit):
        flags = classify(h.functor)
        if flags.bo and flags.ff:
            return h
    return None


# -- the closure audit -------------------------------------------------


@dataclass
class ClosureReport:
    """Outcome of the four-family closure audit."""

    extension: str
    subclass: Tuple[str, ...]
    checks: Tuple[dict, ...] = ()

    @property
    def ok(self) -> bool:
        return all(c["ok"] for c in self.checks)

    def family(self, name: str) -> Tuple[dict, ...]:
        return tuple(c for c in self.checks if c["family"] == name)

    def to_json(self) -> dict:
        return {
            "extension": self.extension,
            "subclass": list(self.subclass),
            "ok": self.ok,
            "checks": [dict(c) for c in self.checks],
        }

    def lines(self) -> List[str]:
        out = [
            "closure audit for extension %s" % (self.extension or "?"),
            "subclass members: %s" % (", ".join(self.subclass) or "(none)"),
        ]
        for c in self.checks:
            status = "pass" if c["ok"] else "FAIL"
            line = "  [%s] %s: %s" % (status, c["family"], c["inputs"])
            if not c["ok"]:
                line += "  <- %s" % (c["witness"],)
            out.append(line)
        out.append("result: %s (%d checks)" % ("pass" if self.ok else "FAIL", len(self.checks)))
        return out


def audit_closure(
    E: Extension,
    catalog: Sequence[Algebra],
    sub_witnesses: Sequence[Tuple] = (),
    refl_data: Sequence[Mapping] = (),
    members: Optional[Sequence[Algebra]] = None,
    limit: int = DEFAULT_SEARCH_LIMIT,
) -> ClosureReport:
    """Check the four closure families for the subclass of the catalog.

    By default the subclass is the E-satisfying part of the catalog and
    membership of a constructed algebra means satisfying E.  Passing
    ``members`` pins the subclass to an explicit list instead, with
    membership meaning isomorphism to some listed algebra; that mode
    exists to demonstrate failure on subclasses that are not equationally
    defined.
    """
    for A in catalog:
        if A.presentation != E.base:
            raise ValidationError(
                "catalog algebra %s is not an algebra of the base presentation"
                % (A.name or "?")
            )
    if members is None:
        subclass = [A for A in catalog if satisfies(A, E)]

        def member_of(X: Algebra):
            res = satisfies(X, E)
            if res:
                return True, None
            return False, {"equation_failure": res.witness}

    else:
        subclass = list(members)

        def member_of(X: Algebra):
            for M in subclass:
                if algebras_isomorphic(X, M, limit=limit) is not None:
                    return True, None
            return False, {"not_isomorphic_to_any_member": X.name or "?"}

    def nm(X: Algebra) -> str:
        return X.name or "?"

    checks: List[dict] = []

    for i, Ai in enumerate(subclass):
        for Aj in subclass[i:]:
            P, _, _ = product_algebra(Ai, Aj)
            ok, witness = member_of(P)
            checks.append({
                "family": "products",
                "inputs": "%s x %s" % (nm(Ai), nm(Aj)),
                "ok": ok,
                "witness": witness,
            })

    for (m, target) in sub_witnesses:
        if not any(target is S or target == S for S in subclass):
            continue
        try:
            S = subalgebra_check(m, target)
        except SizeLimitExceeded:
            raise
        except LabError as exc:
            checks.append({
                "family": "subalgebras",
                "inputs": "%s into %s" % (m.name or "?", nm(target)),
                "ok": False,
                "witness": {"induction_failed": str(exc)},
            })
            continue
        ok, witness = member_of(S)
        checks.append({
            "family": "subalgebras",
            "inputs": "%s into %s" % (m.name or "?", nm(target)),
            "ok": ok,
            "witness": witness,
        })

    for Ai in subclass:
        for (cong, Q, _) in enumerate_quotient_algebras(Ai, limit=limit):
            merged = [list(cl) for cl in cong.classes if len(cl) > 1]
            ok, witness = member_of(Q)
            checks.append({
                "family": "quotients",
                "inputs": "%s / %s" % (nm(Ai), merged or "discrete"),
                "ok": ok,
                "witness": witness,
            })

    for datum in refl_data:
        target = datum["u"].target
        if not any(target is S or target == S for S in subclass):
            continue
        try:
            Q, _ = reflexive_coequifier_algebra(
                datum["u"], datum["v"], datum["phi"], datum["psi"], datum["section"]
            )
        except SizeLimitExceeded:
            raise
        except LabError as exc:
            checks.append({
                "family": "reflexive_coequifiers",
                "inputs": datum.get("name", nm(target)),
                "ok": False,
                "witness": {"lift_failed": str(exc)},
            })
            continue
        ok, witness = member_of(Q)
        checks.append({
            "family": "reflexive_coequifiers",
            "inputs": datum.get("name", nm(target)),
            "ok": ok,
            "witness": witness,
        })

    return ClosureReport(
        extension=E.name or "?",
        subclass=tuple(nm(A) for A in subclass),
        checks=tuple(checks),
    )


# -- inclusion and orthogonality characterisation ---------------------


def verify_fully_faithful_inclusion(
    E: Extension, A: Algebra, B: Algebra, limit: int = DEFAULT_SEARCH_LIMIT
) -> CheckResult:
    """The hom-category between two subclass members is the same whether
    they are viewed as algebras of the extension or of the base.

    In this representation extension algebras are base algebras with
    extra equations, so this is a consistency check of the encoding: both
    hom-categories are computed and compared entity by entity.
    """
    for X in (A, B):
        ok = satisfies(X, E)
        if not ok:
            raise ValidationError(
                "%s does not satisfy the extension" % (X.name or "?"), witness=ok.witness
            )
    base_homs = enumerate_algebra_homs(A, B, limit=limit)
    ext_homs = enumerate_algebra_homs(A, B, limit=limit)
    if base_homs != ext_homs:
        return CheckResult(False, {"kind": "hom-sets differ"})
    pairs = 0
    for h in base_homs:
        for k in base_homs:
            if algebra_two_cells(h, k, limit=limit) != algebra_two_cells(h, k, limit=limit):
                return CheckResult(False, {"kind": "2-cells differ", "pair": (h.name, k.name)})
            pairs += 1
    return CheckResult(
        True,
        {"homs": len(base_homs), "pairs": pairs,
         "note": "inclusion acts as the identity on hom-categories"},
    )


def verify_orthogonality_characterisation(
    E: Extension, catalog: Sequence[Algebra], limit: int = DEFAULT_SEARCH_LIMIT
) -> CheckResult:
    """The E-satisfying subclass of the catalog must coincide with the
    class of algebras orthogonal to every reflection unit of the catalog.

    Checks both containments and reports the first disagreement."""
    units = [(A, reflect(A, E).unit) for A in catalog]
    class_size = 0
    for B in catalog:
        sat = bool(satisfies(B, E))
        orth = True
        detail = None
        for (A, eta) in units:
            res = check_algebra_orthogonal(eta, B, limit=limit)
            if not res:
                orth = False
                detail = {"unit_of": A.name or "?", "reason": res.witness}
                break
        if sat != orth:
            return CheckResult(
                False,
                {"algebra": B.name or "?", "satisfies": sat, "orthogonal": orth,
                 "detail": detail},
            )
        if sat:
            class_size += 1
    return CheckResult(
        True, {"catalog": len(catalog), "units": len(units), "class_size": class_size}
    )


def verify_unit_terminal(
    A: Algebra, E: Extension, limit: int = DEFAULT_SEARCH_LIMIT
) -> CheckResult:
    """Among all quotients of A landing in the subclass, the reflection
    unit is terminal: each such quotient factors through it exactly once."""
    R = reflect(A, E)
    checked = 0
    for (cong, Q, h) in enumerate_quotient_algebras(A, limit=limit):
        if not satisfies(Q, E):
            continue
        mediators = [
            u
            for u in enumerate_algebra_homs(R.reflected, Q, limit=limit)
            if compose_algebra_homs(u, R.unit) == h
        ]
        if len(mediators) != 1:
            return CheckResult(
                False,
                {"quotient_classes": [list(c) for c in cong.classes],
                 "mediators": len(mediators)},
            )
        checked += 1
    return CheckResult(True, {"quotients_in_subclass": checked})
