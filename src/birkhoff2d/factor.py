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

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .errors import LabError
from .fincat import (
    DEFAULT_SEARCH_LIMIT,
    Congruence,
    FinCategory,
    Functor,
    Morphism,
    _kernel_classes,
    _precomposition_fibres,
    _whisker_fibres,
    compose_functors,
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
    f: Functor, g: Functor, limit: int = DEFAULT_SEARCH_LIMIT
) -> Dict[Tuple[tuple, tuple], List[Functor]]:
    """The diagonals of every commuting square around f: A -> B and
    g: C -> D in one table: each d: B -> C, in enumeration order, filed
    under the square (d.f, g.d) it fills, keyed by the morphism maps on A's
    and on B's morphisms.  Every key commutes; a square not in it has no
    diagonal."""
    mors = [u.name for u in f.target.morphisms]
    gm = g.on_morphisms
    table: Dict[Tuple[tuple, tuple], List[Functor]] = {}
    ds = enumerate_functors(f.target, g.source, limit=limit)
    for d_f, fibre in _precomposition_fibres(f, ds).items():
        for d in fibre:
            table.setdefault((d_f, tuple([gm[d.on_morphisms[v]] for v in mors])), []).append(d)
    return table


def check_orthogonal_morphisms(
    f: Functor, g: Functor, limit: int = DEFAULT_SEARCH_LIMIT
) -> CheckResult:
    """Enriched orthogonality f -| g.

    Level 1: every commuting square (x, y) with y.f == g.x has exactly one
    diagonal d.  Level 2: for squares (x, y), (x', y') with diagonals
    d, d' and every pair of 2-cells alpha: x => x', beta: y => y' with
    g * alpha == beta * f, there is exactly one delta: d => d' with
    delta * f == alpha and g * delta == beta.

    Level 1 takes each y from the fibre of g.x among all functors B -> D
    (:func:`birkhoff2d.fincat._precomposition_fibres`) and the diagonals
    from the table of :func:`diagonal_fillins`, so ``limit`` bounds the
    whole spaces A -> C, B -> D and B -> C: 5,644 of the 114 x 114 corpus
    pairs need a larger least limit than a search pinned to f's image
    (at most 24, as before), none a smaller one.

    Level 2 is read from fibres.  For each pair of squares with some alpha,
    every beta is filed under beta * f and every delta is counted under
    (delta * f, g * delta), both keyed by components as
    :func:`birkhoff2d.fincat._whisker_fibres` keys them; each alpha then
    takes the betas filed under g * alpha and looks up its count.  So
    ``limit`` bounds the whole component spaces of y => y' and d => d'.
    """
    A, B = f.source, f.target
    a_mors, b_mors = [u.name for u in A.morphisms], [u.name for u in B.morphisms]
    gm = g.on_morphisms
    ys = _precomposition_fibres(f, enumerate_functors(B, g.target, limit=limit))
    fillins = diagonal_fillins(f, g, limit=limit)
    filled = []
    for x in enumerate_functors(A, g.source, limit=limit):
        x_key = tuple([x.on_morphisms[u] for u in a_mors])
        for y in ys.get(tuple([gm[v] for v in x_key]), ()):
            ds = fillins.get((x_key, tuple([y.on_morphisms[v] for v in b_mors])), ())
            if len(ds) != 1:
                return CheckResult(
                    False,
                    {"level": 1, "square": (x.on_objects, y.on_objects),
                     "fillins": len(ds)},
                )
            filled.append((x, y, ds[0]))
    images = [f.on_objects[a] for a in A.objects]
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
    above = _precomposition_fibres(f, hs)
    if len(above) != len(hs):
        return CheckResult(False, {"level": 1, "reason": "not injective on functors",
                                   "count": sum(len(ds) for ds in above.values() if len(ds) > 1)})
    mors = [u.name for u in f.source.morphisms]
    below = {tuple([g.on_morphisms[u] for u in mors]): g for g in gs}
    if below.keys() != above.keys():
        return CheckResult(
            False,
            {"level": 1, "reason": "not surjective on functors",
             "missing": [g.on_objects for key, g in below.items() if key not in above]},
        )
    restricted = [(h, below[key]) for key, (h,) in above.items()]  # (h, h.f), hs order
    for (h, hf), (h2, h2f) in itertools.product(restricted, repeat=2):
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
