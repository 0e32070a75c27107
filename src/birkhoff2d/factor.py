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
All checks run on the functor and transformation searches of :mod:`fincat`.
"""
from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .errors import BoundaryMismatch, LabError
from .fincat import (
    DEFAULT_SEARCH_LIMIT,
    Congruence,
    FinCategory,
    Functor,
    Morphism,
    _differ,
    _kernel_classes,
    _whisker_fibres,
    compose_functors,
    enumerate_functors,
    enumerate_nat_transformations,
    lifts,
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

    The middle is the quotient of A by the kernel of f: each hom-set is
    collapsed along equal f-images.  The kernel is closed under composition
    because f is a functor, so its classes are read off directly and need
    no congruence closure.  Classes are named by their least member, so the
    left leg is the evident quotient projection.

    The middle is built once per kernel partition of A: its fields and the
    projection's maps are kept on A (``A._bof_middles``) and every functor
    out of A with that kernel reuses them.  Each call still returns a new
    middle category and new legs, so no caller shares an object another
    caller holds.
    """
    A, B = f.source, f.target
    fm = f.on_morphisms
    partition = _kernel_classes(f)
    middles = A._bof_middles
    kept = middles.get(partition)
    if kept is None:
        M, e = quotient_by_congruence(A, Congruence._trusted(A, partition))
        kept = middles[partition] = (M.morphisms, M.identities, M.composition, M.name,
                                     e.on_objects, e.on_morphisms)
    morphisms, identities, composition, name, q_objects, q_morphisms = kept
    M = FinCategory._trusted(A.objects, morphisms, identities, composition, name=name)
    e = Functor._trusted(A, M, q_objects, q_morphisms, name="q")
    fo = f.on_objects
    m = Functor._trusted(M, B, {a: fo[a] for a in A.objects},
                         {mm.name: fm[mm.name] for mm in morphisms}, name="m")
    return _check_split(f, e, m)


def factor_bo_ff(f: Functor) -> Factorisation:
    """(bijective-on-objects, fully faithful) factorisation.

    The middle keeps A's objects and pulls hom-sets back from B; a
    middle morphism is a triple (dom, cod, target morphism), named
    ``dom|cod|name``.  When a part contains '|', every part has '\\' and
    '|' escaped with a backslash, so the name has more than two '|' and
    no two triples share a name.
    """
    A, B = f.source, f.target
    # each middle morphism's target morphism, kept so that no name is parsed
    beta_of: Dict[str, str] = {}
    into: Dict[str, List[Morphism]] = {a: [] for a in A.objects}

    def mangle(a: str, b: str, beta: str) -> str:
        parts = (a, b, beta)
        if any("|" in p for p in parts):
            parts = tuple(p.replace("\\", "\\\\").replace("|", "\\|") for p in parts)
        return "|".join(parts)

    morphisms = []
    for a in A.objects:
        for b in A.objects:
            for beta in B.hom(f.obj(a), f.obj(b)):
                mm = Morphism(mangle(a, b, beta), a, b)
                morphisms.append(mm)
                beta_of[mm.name] = beta
                into[b].append(mm)
    identities = {a: mangle(a, a, B.identity(f.obj(a))) for a in A.objects}
    composition = {}
    for g in morphisms:
        for h in into[g.dom]:
            composition[(g.name, h.name)] = mangle(
                h.dom, g.cod, B.compose(beta_of[g.name], beta_of[h.name]))
    M = FinCategory._trusted(A.objects, morphisms, identities, composition,
                             name="%s<%s>" % (A.name or "?", B.name or "?"))
    e = Functor._trusted(
        A,
        M,
        {a: a for a in A.objects},
        {u.name: mangle(u.dom, u.cod, f.mor(u.name)) for u in A.morphisms},
        name="e",
    )
    m = Functor._trusted(
        M,
        B,
        {a: f.obj(a) for a in A.objects},
        beta_of,
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
    M = FinCategory._trusted(objects, morphisms, identities, composition,
                             name="im(%s)" % (f.name or "?"))
    e = Functor._trusted(A, M, {a: f.obj(a) for a in A.objects},
                         {u.name: f.mor(u.name) for u in A.morphisms}, name="e")
    m = Functor._trusted(M, B, {b: b for b in objects},
                         {mm.name: mm.name for mm in morphisms}, name="m")
    return _check_split(f, e, m)


FACTOR_SYSTEMS = {
    "bof": (factor_bof, "bo_full", "faithful"),
    "bo": (factor_bo_ff, "bo", "ff"),
    "so": (factor_so_ioff, "so", "ioff"),
}


# -- orthogonality -----------------------------------------------------


def diagonal_fillins(
    f: Functor, g: Functor, x: Functor, y: Functor,
    limit: int = DEFAULT_SEARCH_LIMIT,
) -> Tuple[Functor, ...]:
    """All d with d after f == x and g after d == y, for a commuting
    square y.f == g.x around f: A -> B and g: C -> D.

    The square is compared pointwise, on every object and morphism of A,
    without building either composite.
    """
    if (_differ(f.source, x.source) or _differ(f.target, y.source)
            or _differ(x.target, g.source) or _differ(y.target, g.target)
            or any(y.obj(f.obj(a)) != g.obj(x.obj(a)) for a in f.source.objects)
            or any(y.mor(f.mor(u.name)) != g.mor(x.mor(u.name)) for u in f.source.morphisms)):
        raise BoundaryMismatch("square does not commute")
    return lifts(f, x, g, y, limit=limit)


def check_orthogonal_morphisms(
    f: Functor, g: Functor, limit: int = DEFAULT_SEARCH_LIMIT
) -> CheckResult:
    """Enriched orthogonality f -| g.

    Level 1: every commuting square (x, y) with y.f == g.x has exactly one
    diagonal d.  Level 2: for squares (x, y), (x', y') with diagonals
    d, d' and every pair of 2-cells alpha: x => x', beta: y => y' with
    g * alpha == beta * f, there is exactly one delta: d => d' with
    delta * f == alpha and g * delta == beta.

    Level 2 is read from fibres.  For each pair of squares with some alpha,
    every beta is filed under beta * f and every delta is counted under
    (delta * f, g * delta), both keyed by components as
    :func:`birkhoff2d.fincat._whisker_fibres` keys them; each alpha then
    takes the betas filed under g * alpha and looks up its count.  So
    ``limit`` bounds the whole component spaces of y => y' and d => d'.
    """
    squares = [(x, y) for x in enumerate_functors(f.source, g.source, limit=limit)
               for y in lifts(f, compose_functors(g, x), limit=limit)]
    filled = []
    for (x, y) in squares:
        ds = diagonal_fillins(f, g, x, y, limit=limit)
        if len(ds) != 1:
            return CheckResult(
                False,
                {"level": 1, "square": (x.on_objects, y.on_objects),
                 "fillins": len(ds)},
            )
        filled.append((x, y, ds[0]))
    A, B = f.source, f.target
    images = [f.on_objects[a] for a in A.objects]
    gm = g.on_morphisms
    for (x, y, d), (x2, y2, d2) in itertools.product(filled, repeat=2):
        alphas = enumerate_nat_transformations(x, x2, limit=limit)
        if not alphas:
            continue
        betas: Dict[tuple, list] = {}
        for beta in enumerate_nat_transformations(y, y2, limit=limit):
            betas.setdefault(tuple([beta.components[b] for b in images]), []).append(beta)
        deltas: Dict[tuple, int] = {}
        for delta in enumerate_nat_transformations(d, d2, limit=limit):
            c = delta.components
            key = (tuple([c[b] for b in images]), tuple([gm[c[b]] for b in B.objects]))
            deltas[key] = deltas.get(key, 0) + 1
        for alpha in alphas:
            g_alpha = whisker(g, alpha)
            alpha_key = tuple([alpha.components[a] for a in A.objects])
            for beta in betas.get(tuple([g_alpha[a] for a in A.objects]), ()):
                n = deltas.get((alpha_key, tuple([beta.components[b] for b in B.objects])), 0)
                if n != 1:
                    return CheckResult(
                        False,
                        {"level": 2, "alpha": alpha.components,
                         "beta": beta.components, "fillins": n},
                    )
    return CheckResult(True)


def check_orthogonal_object(
    f: Functor, C: FinCategory, limit: int = DEFAULT_SEARCH_LIMIT
) -> CheckResult:
    """f is orthogonal to the object C: precomposition with f is an
    isomorphism between the functor category out of f's target and the one
    out of f's source: h |-> h.f and alpha |-> alpha * f are bijective."""
    hs = enumerate_functors(f.target, C, limit=limit)
    gs = enumerate_functors(f.source, C, limit=limit)
    restricted = [compose_functors(h, f) for h in hs]
    times = collections.Counter(restricted)
    if len(times) != len(restricted):
        dup = [hf for hf in restricted if times[hf] > 1]
        return CheckResult(False, {"level": 1, "reason": "not injective on functors",
                                   "count": len(dup)})
    if times.keys() != set(gs):
        missing = [g for g in gs if g not in times]
        return CheckResult(
            False,
            {"level": 1, "reason": "not surjective on functors",
             "missing": [g.on_objects for g in missing]},
        )
    for (h, hf), (h2, h2f) in itertools.product(zip(hs, restricted), repeat=2):
        upstairs = enumerate_nat_transformations(h, h2, limit=limit)
        downstairs = enumerate_nat_transformations(hf, h2f, limit=limit)
        fibres = _whisker_fibres(f, upstairs)
        if any(fibres.get(tuple([alpha.components[a] for a in f.source.objects]), 0) != 1
               for alpha in downstairs):
            return CheckResult(
                False,
                {"level": 2, "pair": (h.on_objects, h2.on_objects),
                 "upstairs": len(upstairs), "downstairs": len(downstairs)},
            )
    return CheckResult(True)
