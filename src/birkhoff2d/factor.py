"""Factorisation systems on finite categories and Cat-valued orthogonality.

Three systems are provided, each splitting a functor f: A -> B as
``right after left`` through an explicitly constructed middle category:

* ``factor_bof``      left bijective-on-objects and full, right faithful
* ``factor_bo_ff``    left bijective-on-objects, right fully faithful
* ``factor_so_ioff``  left surjective-on-objects, right injective-on-objects
                      and fully faithful

Orthogonality is checked in the enriched sense: unique diagonal fill-ins
for commuting squares at the functor level, and unique fill-ins at the
transformation level for every compatible pair of 2-cells between squares.
All checks are brute-force enumerations over the finite data.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .errors import BoundaryMismatch, LabError
from .fincat import (
    DEFAULT_SEARCH_LIMIT,
    FinCategory,
    Functor,
    Morphism,
    classify,
    compose_functors,
    congruence_closure,
    enumerate_functors,
    enumerate_nat_transformations,
    quotient_by_congruence,
    whisker,
)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a property check, with a witness when it fails."""

    ok: bool
    witness: Optional[dict] = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class Factorisation:
    original: Functor
    left: Functor
    right: Functor

    @property
    def middle(self) -> FinCategory:
        return self.left.target

    def recompose(self) -> Functor:
        return compose_functors(self.right, self.left)


def _check_split(f: Functor, left: Functor, right: Functor) -> Factorisation:
    fact = Factorisation(f, left, right)
    if fact.recompose() != f:
        raise LabError("factorisation of %s does not recompose" % (f.name or "?"))
    return fact


def factor_bof(f: Functor) -> Factorisation:
    """(bijective-on-objects full, faithful) factorisation.

    The middle is A with each hom-set collapsed along equal f-images;
    classes are named by their least member, so the left leg is the
    evident quotient projection.
    """
    A, B = f.source, f.target
    gens = []
    for (u, v) in A.parallel_pairs():
        if f.mor(u) == f.mor(v):
            gens.append((u, v))
    cong = congruence_closure(A, gens)
    M, e = quotient_by_congruence(A, cong)
    m = Functor(
        M,
        B,
        {a: f.obj(a) for a in M.objects},
        {mm.name: f.mor(mm.name) for mm in M.morphisms},
        name="m",
    )
    return _check_split(f, e, m)


def factor_bo_ff(f: Functor) -> Factorisation:
    """(bijective-on-objects, fully faithful) factorisation.

    The middle keeps A's objects and pulls hom-sets back from B; a
    middle morphism is a triple (dom, cod, target morphism), named
    ``dom|cod|name``.
    """
    A, B = f.source, f.target

    def mangle(a: str, b: str, beta: str) -> str:
        return "%s|%s|%s" % (a, b, beta)

    morphisms = []
    for a in A.objects:
        for b in A.objects:
            for beta in B.hom(f.obj(a), f.obj(b)):
                morphisms.append(Morphism(mangle(a, b, beta), a, b))
    identities = {a: mangle(a, a, B.identity(f.obj(a))) for a in A.objects}
    composition = {}
    for g in morphisms:
        for h in morphisms:
            if h.cod == g.dom:
                gb = g.name.rsplit("|", 1)[1]
                hb = h.name.rsplit("|", 1)[1]
                composition[(g.name, h.name)] = mangle(h.dom, g.cod, B.compose(gb, hb))
    M = FinCategory(A.objects, morphisms, identities, composition,
                    name="%s<%s>" % (A.name or "?", B.name or "?"))
    e = Functor(
        A,
        M,
        {a: a for a in A.objects},
        {u.name: mangle(u.dom, u.cod, f.mor(u.name)) for u in A.morphisms},
        name="e",
    )
    m = Functor(
        M,
        B,
        {a: f.obj(a) for a in A.objects},
        {mm.name: mm.name.rsplit("|", 1)[1] for mm in morphisms},
        name="m",
    )
    return _check_split(f, e, m)


def factor_so_ioff(f: Functor) -> Factorisation:
    """(surjective-on-objects, injective-on-objects fully faithful)
    factorisation through the full image subcategory of B."""
    A, B = f.source, f.target
    image = {f.obj(a) for a in A.objects}
    objects = [b for b in B.objects if b in image]
    morphisms = [m for m in B.morphisms if m.dom in image and m.cod in image]
    names = {m.name for m in morphisms}
    identities = {b: B.identity(b) for b in objects}
    composition = {
        (g, h): r
        for (g, h), r in B.composition.items()
        if g in names and h in names
    }
    M = FinCategory(objects, morphisms, identities, composition,
                    name="im(%s)" % (f.name or "?"))
    e = Functor(A, M, {a: f.obj(a) for a in A.objects},
                {u.name: f.mor(u.name) for u in A.morphisms}, name="e")
    m = Functor(M, B, {b: b for b in objects},
                {mm.name: mm.name for mm in morphisms}, name="m")
    return _check_split(f, e, m)


FACTOR_SYSTEMS = {
    "bof": (factor_bof, "bo_full", "faithful"),
    "bo": (factor_bo_ff, "bo", "ff"),
    "so": (factor_so_ioff, "so", "ioff"),
}


def factorisation_sound(f: Functor, system: str) -> CheckResult:
    """Factor f in the named system and check classes plus recomposition."""
    build, left_flag, right_flag = FACTOR_SYSTEMS[system]
    fact = build(f)
    if fact.recompose() != f:
        return CheckResult(False, {"reason": "does not recompose", "functor": f.name})
    lf = getattr(classify(fact.left), left_flag)
    rf = getattr(classify(fact.right), right_flag)
    if not (lf and rf):
        return CheckResult(
            False,
            {"reason": "wrong classes", "functor": f.name,
             "left_" + left_flag: lf, "right_" + right_flag: rf},
        )
    return CheckResult(True)


# -- orthogonality -----------------------------------------------------


def diagonal_fillins(
    f: Functor, g: Functor, x: Functor, y: Functor,
    limit: int = DEFAULT_SEARCH_LIMIT,
) -> Tuple[Functor, ...]:
    """All d with d after f == x and g after d == y, for a commuting
    square y.f == g.x around f: A -> B and g: C -> D."""
    if compose_functors(y, f) != compose_functors(g, x):
        raise BoundaryMismatch("square does not commute")
    out = []
    for d in enumerate_functors(f.target, g.source, limit=limit):
        if compose_functors(d, f) == x and compose_functors(g, d) == y:
            out.append(d)
    return tuple(out)


def check_orthogonal_morphisms(
    f: Functor, g: Functor, limit: int = DEFAULT_SEARCH_LIMIT
) -> CheckResult:
    """Enriched orthogonality f -| g.

    Level 1: every commuting square (x, y) with y.f == g.x has exactly one
    diagonal d.  Level 2: for squares (x, y), (x', y') with diagonals
    d, d' and every pair of 2-cells alpha: x => x', beta: y => y' with
    g * alpha == beta * f, there is exactly one delta: d => d' with
    delta * f == alpha and g * delta == beta.
    """
    A, B = f.source, f.target
    C, D = g.source, g.target
    squares: List[Tuple[Functor, Functor]] = []
    for x in enumerate_functors(A, C, limit=limit):
        gx = compose_functors(g, x)
        for y in enumerate_functors(B, D, limit=limit):
            if compose_functors(y, f) == gx:
                squares.append((x, y))
    diag: Dict[Tuple[Functor, Functor], Functor] = {}
    for (x, y) in squares:
        ds = diagonal_fillins(f, g, x, y, limit=limit)
        if len(ds) != 1:
            return CheckResult(
                False,
                {"level": 1, "square": (x.on_objects, y.on_objects),
                 "fillins": len(ds)},
            )
        diag[(x, y)] = ds[0]
    for (x, y), (x2, y2) in itertools.product(squares, repeat=2):
        d, d2 = diag[(x, y)], diag[(x2, y2)]
        for alpha in enumerate_nat_transformations(x, x2, limit=limit):
            g_alpha = whisker(g, alpha, "left")
            for beta in enumerate_nat_transformations(y, y2, limit=limit):
                if whisker(f, beta, "right") != g_alpha:
                    continue
                deltas = [
                    delta
                    for delta in enumerate_nat_transformations(d, d2, limit=limit)
                    if whisker(f, delta, "right") == alpha
                    and whisker(g, delta, "left") == beta
                ]
                if len(deltas) != 1:
                    return CheckResult(
                        False,
                        {"level": 2, "alpha": alpha.components,
                         "beta": beta.components, "fillins": len(deltas)},
                    )
    return CheckResult(True)


def check_orthogonal_object(
    f: Functor, C: FinCategory, limit: int = DEFAULT_SEARCH_LIMIT
) -> CheckResult:
    """f is orthogonal to the object C: precomposition with f is an
    isomorphism between the functor category out of f's target and the one
    out of f's source, bijective on functors and on transformations."""
    hs = enumerate_functors(f.target, C, limit=limit)
    gs = enumerate_functors(f.source, C, limit=limit)
    restricted = [compose_functors(h, f) for h in hs]
    if len(set(restricted)) != len(restricted):
        dup = [h for h in hs if restricted.count(compose_functors(h, f)) > 1]
        return CheckResult(False, {"level": 1, "reason": "not injective on functors",
                                   "count": len(dup)})
    if set(restricted) != set(gs):
        missing = [g for g in gs if g not in set(restricted)]
        return CheckResult(
            False,
            {"level": 1, "reason": "not surjective on functors",
             "missing": [g.on_objects for g in missing]},
        )
    for h, h2 in itertools.product(hs, repeat=2):
        upstairs = enumerate_nat_transformations(h, h2, limit=limit)
        downstairs = enumerate_nat_transformations(
            compose_functors(h, f), compose_functors(h2, f), limit=limit
        )
        restricted_nats = [whisker(f, beta, "right") for beta in upstairs]
        if len(set(restricted_nats)) != len(restricted_nats) or set(
            restricted_nats
        ) != set(downstairs):
            return CheckResult(
                False,
                {"level": 2, "pair": (h.on_objects, h2.on_objects),
                 "upstairs": len(upstairs), "downstairs": len(downstairs)},
            )
    return CheckResult(True)
