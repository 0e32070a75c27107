"""Reflections into equational subclasses and the closure-property audits.

The central construction is :func:`reflect`: the universal quotient of an
algebra into the subclass cut out by an extension's added 2-cell
equations.  Around it sit the freeness verification (precomposition with
the unit is bijective on homs and on algebra 2-cells), generation of
every quotient algebra from principal congruences, the four-family
closure audit (products, subalgebras, quotients, reflexive coequifiers),
and the orthogonality characterisation of the subclass.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import LabError, SizeLimitExceeded, ValidationError
from .factor import CheckResult
from .fincat import (
    DEFAULT_SEARCH_LIMIT,
    Congruence,
    _differ,
    _through_quotient,
    _whisker_fibres,
    classify,
)
from .theory import (
    Algebra,
    AlgebraHom,
    Extension,
    _cell_disagreements,
    _trusted_quotient_algebra,
    algebra_congruence_closure,
    algebra_two_cells,
    compose_algebra_homs,
    enumerate_algebra_homs,
    product_algebra,
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
    if _differ(E.base, A.presentation):
        raise ValidationError("extension does not extend the algebra's presentation")
    pairs = [(lv, rv) for _, _, lv, rv in _cell_disagreements(A, E)]
    cong = algebra_congruence_closure(A, pairs)
    reflected, unit = _trusted_quotient_algebra(A, cong)
    check = satisfies(reflected, E)
    if not check:
        raise LabError("reflection failed to reach the subclass", witness=check.witness)
    return Reflection(unit, reflected, cong)


def check_algebra_orthogonal(
    eta: AlgebraHom, B: Algebra, limit: int = DEFAULT_SEARCH_LIMIT
) -> CheckResult:
    """Is B orthogonal to eta in the algebra sense?

    Precomposition with eta must be a bijection from homs out of eta's
    target to homs out of eta's source, and w |-> w * eta a bijection on
    algebra 2-cells between every pair of such homs.
    """
    upper = enumerate_algebra_homs(eta.target, B, limit=limit)
    restricted: List[AlgebraHom] = []  # h.eta for each h in upper
    down = set()
    for h in upper:
        c = compose_algebra_homs(h, eta)
        if c in down:
            return CheckResult(
                False, {"kind": "non-unique factorisation", "through": c.functor.on_morphisms}
            )
        restricted.append(c)
        down.add(c)
    for g in enumerate_algebra_homs(eta.source, B, limit=limit):
        if g not in down:
            return CheckResult(
                False, {"kind": "no factorisation", "hom": g.functor.on_morphisms}
            )
    for h, h_eta in zip(upper, restricted):
        for k, k_eta in zip(upper, restricted):
            up_cells = algebra_two_cells(h, k, limit=limit)
            whiskered = _whisker_fibres(eta.functor, up_cells)
            if len(whiskered) != len(up_cells):
                return CheckResult(
                    False, {"kind": "non-unique 2-cell factorisation",
                            "pair": (h.functor.on_morphisms, k.functor.on_morphisms)}
                )
            down_cells = {
                tuple(w.components[c] for c in eta.functor.source.objects)
                for w in algebra_two_cells(h_eta, k_eta, limit=limit)
            }
            if whiskered.keys() != down_cells:
                return CheckResult(
                    False,
                    {
                        "kind": "2-cell does not descend",
                        "pair": (h.functor.on_morphisms, k.functor.on_morphisms),
                        "missing": len(down_cells - whiskered.keys()),
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


# -- quotient generation ----------------------------------------------


def enumerate_quotient_algebras(
    A: Algebra, limit: int = DEFAULT_SEARCH_LIMIT
) -> Tuple[Tuple[Congruence, Algebra, AlgebraHom], ...]:
    """All quotients of A: every operation-closed congruence on the
    carrier with its quotient algebra and projection, in a canonical
    duplicate-free order.

    The operation-closed congruences form a lattice generated by the
    principal congruences Cg(u, v) of the carrier's parallel pairs, so
    they are reached from the discrete congruence by joining with
    principals until nothing new appears (Freese, "Computing congruences
    efficiently", Algebra Universalis 59, 2008).  Each congruence closure
    computed counts against ``limit``.  The order is that of the classes
    per hom-set, read as restricted growth strings over the hom-set in
    declaration order, hom-sets taken by (domain, codomain).
    """
    C = A.carrier
    closures = 0

    def closure(pairs) -> Congruence:
        nonlocal closures
        closures += 1
        if closures > limit:
            raise SizeLimitExceeded(
                "quotient search exceeds limit (%d congruence closures > %d)"
                % (closures, limit)
            )
        return algebra_congruence_closure(A, pairs)

    principals = list(dict.fromkeys(closure([pair]) for pair in C.parallel_pairs()))
    found = [closure([])]
    seen = set(found)
    for X in found:
        for P in principals:
            if all(X.related(u, r) for u, r in P.rep_of.items()):
                continue
            J = closure(list(X.rep_of.items()) + list(P.rep_of.items()))
            if J not in seen:
                seen.add(J)
                found.append(J)

    hom_sets = [C.hom(a, b) for (a, b) in sorted({(m.dom, m.cod) for m in C.morphisms})]

    def growth_string(cong: Congruence) -> List[int]:
        key: List[int] = []
        for ms in hom_sets:
            codes: Dict[str, int] = {}
            key.extend(codes.setdefault(cong.rep_of[u], len(codes)) for u in ms)
        return key

    return tuple((cong,) + _trusted_quotient_algebra(A, cong)
                 for cong in sorted(found, key=growth_string))


# -- isomorphism of algebras ------------------------------------------


def algebras_isomorphic(
    A: Algebra, B: Algebra, limit: int = DEFAULT_SEARCH_LIMIT
) -> Optional[AlgebraHom]:
    """An invertible homomorphism A -> B if one exists, else None."""
    if _differ(A.presentation, B.presentation):
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

    Each check builds one algebra and judges its membership, families in
    the order products, subalgebras, quotients, reflexive coequifiers.  A
    non-member fails with ``{"equation_failure": ...}``, or with
    ``{"not_isomorphic_to_any_member": ...}`` in pinned mode.  A LabError
    while building a subalgebra or a reflexive coequifier fails its check
    with ``{"induction_failed": ...}`` or ``{"lift_failed": ...}``; any
    other LabError, and every SizeLimitExceeded, propagates.
    """
    for A in catalog:
        if _differ(A.presentation, E.base):
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

    def candidates():
        """(family, inputs, build, failure key) per check, in report order."""
        for i, Ai in enumerate(subclass):
            for Aj in subclass[i:]:
                yield ("products", "%s x %s" % (nm(Ai), nm(Aj)),
                       lambda Ai=Ai, Aj=Aj: product_algebra(Ai, Aj)[0], None)
        for (m, target) in sub_witnesses:
            if target in subclass:
                yield ("subalgebras", "%s into %s" % (m.name or "?", nm(target)),
                       lambda m=m, target=target: subalgebra_check(m, target),
                       "induction_failed")
        for Ai in subclass:
            for (cong, Q, _) in enumerate_quotient_algebras(Ai, limit=limit):
                merged = [list(cl) for cl in cong.classes if len(cl) > 1]
                yield ("quotients", "%s / %s" % (nm(Ai), merged or "discrete"),
                       lambda Q=Q: Q, None)
        for datum in refl_data:
            target = datum["u"].target
            if target in subclass:
                yield ("reflexive_coequifiers", datum.get("name", nm(target)),
                       lambda d=datum: reflexive_coequifier_algebra(
                           d["u"], d["v"], d["phi"], d["psi"], d["section"])[0],
                       "lift_failed")

    checks: List[dict] = []
    for family, inputs, build, failure_key in candidates():
        try:
            X = build()
        except LabError as exc:
            if failure_key is None or isinstance(exc, SizeLimitExceeded):
                raise
            ok, witness = False, {failure_key: str(exc)}
        else:
            ok, witness = member_of(X)
        checks.append({"family": family, "inputs": inputs, "ok": ok, "witness": witness})

    return ClosureReport(
        extension=E.name or "?",
        subclass=tuple(nm(A) for A in subclass),
        checks=tuple(checks),
    )


# -- orthogonality characterisation -----------------------------------


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
    unit is terminal: each such quotient factors through it exactly once,
    by the factorisation :func:`birkhoff2d.fincat._through_quotient` forces,
    since the unit is bijective on objects and full."""
    R = reflect(A, E)
    checked = 0
    for (cong, Q, h) in enumerate_quotient_algebras(A, limit=limit):
        if not satisfies(Q, E):
            continue
        # the unit is onto objects and morphisms, so the u with u.unit = h
        # is a homomorphism: u(op(unit t)) = h(op t) = op(h t) = op(u(unit t))
        if _through_quotient(R.unit.functor, h.functor) is None:
            return CheckResult(
                False,
                {"quotient_classes": [list(c) for c in cong.classes], "mediators": 0},
            )
        checked += 1
    return CheckResult(True, {"quotients_in_subclass": checked})
