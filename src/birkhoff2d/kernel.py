"""Kernel data, coequifiers and reflexivization for finite categories.

The kernel of a functor f: A -> B (relative to the bijective-on-objects
full / faithful system) is presented as a span with 2-cells: an apex
category K, parallel functors s, t: K -> A and transformations
phi, psi: s => t which f coequifies.  ``coequify`` quotients the target by
the congruence the 2-cells generate; ``make_reflexive`` pads any such
datum with a section without changing the coequifier.  These pieces
compose into the kernel-quotient factorisation, which for this system
converges in one step: the induced comparison out of the quotient is
always faithful.

The kernel, its reflexivization and the comparison are built trusted;
``KernelData`` and ``ReflexiveData`` still check their boundaries, and
the comparison is checked to give back the functor it came from.  The
kernel's fields are built once per kernel partition of the source and
kept there, as the bof middle is.  Universality is decided with one
mediator search per apex category: each functor into the kernel apex is
counted under the datum it serves, and each candidate datum looks up its
count.  The verdict is kept on the apex category, keyed by the kernel
datum (compared by content, so equal kernels built by separate calls
share it) and the kernel partition of the functor, the only part of the
functor the decision reads.  A kept verdict replays the limits of the
searches that made it, in the order a cold call meets them.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .errors import BoundaryMismatch, LabError, SizeLimitExceeded
from .factor import CheckResult
from .fincat import (
    DEFAULT_SEARCH_LIMIT,
    FinCategory,
    Functor,
    Morphism,
    NatTransformation,
    _component_limit_check,
    _component_slots,
    _differ,
    _functor_limit_check,
    _kernel_classes,
    _precomposition_fibres,
    _through_quotient,
    _whisker_fibres,
    classify,
    compose_functors,
    congruence_closure,
    coproduct_category,
    enumerate_functors,
    enumerate_nat_transformations,
    functor_maps,
    identity_functor,
    quotient_by_congruence,
)

DEFAULT_APEX_CAP = 20_000


@dataclass(frozen=True)
class KernelData:
    """A span-with-2-cells (apex, s, t, phi, psi) ready to be coequified."""

    apex: FinCategory
    s: Functor
    t: Functor
    phi: NatTransformation
    psi: NatTransformation

    def __post_init__(self):
        if _differ(self.s.source, self.apex) or _differ(self.t.source, self.apex):
            raise BoundaryMismatch("legs must start at the apex")
        if _differ(self.s.target, self.t.target):
            raise BoundaryMismatch("legs must share a target")
        for cell in (self.phi, self.psi):
            if _differ(cell.source, self.s) or _differ(cell.target, self.t):
                raise BoundaryMismatch("2-cells must run s => t")

    @property
    def target(self) -> FinCategory:
        return self.s.target


def bof_kernel(f: Functor) -> KernelData:
    """Kernel data of f: apex objects are the parallel pairs (u, v) of
    f's source with equal image, morphisms are the pairs (p, q) making
    both squares commute; s and t project to domains and codomains and
    phi, psi pick out the two members of each pair.

    The apex squares the morphism count, so its size is capped at
    DEFAULT_APEX_CAP objects and morphisms.

    The data depend only on f's source and kernel partition, so their
    fields are built once per partition and kept on the source
    (``A._bof_kernels``).  Each call still returns a new apex, new legs and
    new cells, so no caller shares an object another caller holds.
    """
    A = f.source
    partition = _kernel_classes(f)
    kernels = A._bof_kernels
    kept = kernels.get(partition)
    if kept is None:
        kept = kernels[partition] = _kernel_fields(A, partition)
    objects, morphisms, identities, composition, s_maps, t_maps, phi_at, psi_at = kept
    K = FinCategory._trusted(objects, morphisms, identities, composition,
                             name="ker(%s)" % (f.name or "?"))
    s = Functor._trusted(K, A, *s_maps, name="s")
    t = Functor._trusted(K, A, *t_maps, name="t")
    phi = NatTransformation._trusted(s, t, phi_at, name="phi")
    psi = NatTransformation._trusted(s, t, psi_at, name="psi")
    return KernelData(K, s, t, phi, psi)


def _kernel_fields(A: FinCategory, partition):
    """The fields of :func:`bof_kernel`'s apex (objects, morphisms,
    identities, composition), the maps of its legs s and t, and the
    components of phi and psi, for a kernel partition of A."""
    class_of = {u: cl for cl in partition for u in cl}
    pairs = [(u.name, v) for u in A.morphisms for v in class_of[u.name]]
    if len(pairs) > DEFAULT_APEX_CAP:
        raise SizeLimitExceeded("kernel apex would have %d objects" % len(pairs))

    def oname(uv: Tuple[str, str]) -> str:
        return "(%s,%s)" % uv

    def mname(pq: Tuple[str, str], src: Tuple[str, str], dst: Tuple[str, str]) -> str:
        return "(%s,%s)|%s|%s" % (pq[0], pq[1], oname(src), oname(dst))

    objects = [oname(uv) for uv in pairs]
    morphisms: List[Morphism] = []
    mor_index: Dict[Tuple[Tuple[str, str], Tuple[str, str], Tuple[str, str]], str] = {}
    # per source pair, (pq, dst, name) of the morphisms out of it, in mor_index order
    leaving: Dict[Tuple[str, str], list] = {uv: [] for uv in pairs}
    for src in pairs:
        for dst in pairs:
            su, sv = src
            du, dv = dst
            for p in A.hom(A.dom(su), A.dom(du)):
                for q in A.hom(A.cod(su), A.cod(du)):
                    if (
                        A.compose(du, p) == A.compose(q, su)
                        and A.compose(dv, p) == A.compose(q, sv)
                    ):
                        name = mname((p, q), src, dst)
                        morphisms.append(Morphism(name, oname(src), oname(dst)))
                        mor_index[((p, q), src, dst)] = name
                        leaving[src].append(((p, q), dst, name))
                        if len(morphisms) > DEFAULT_APEX_CAP:
                            raise SizeLimitExceeded(
                                "kernel apex would have more than %d morphisms"
                                % DEFAULT_APEX_CAP
                            )
    identities = {}
    for uv in pairs:
        u = uv[0]
        identities[oname(uv)] = mor_index[
            ((A.identity(A.dom(u)), A.identity(A.cod(u))), uv, uv)
        ]
    composition = {}
    for ((pq1, src1, dst1), n1) in mor_index.items():
        for (pq2, dst2, n2) in leaving[dst1]:
            comp = (A.compose(pq2[0], pq1[0]), A.compose(pq2[1], pq1[1]))
            composition[(n2, n1)] = mor_index[(comp, src1, dst2)]
    s_maps = ({oname(uv): A.dom(uv[0]) for uv in pairs},
              {name: pq[0] for ((pq, _s, _d), name) in mor_index.items()})
    t_maps = ({oname(uv): A.cod(uv[0]) for uv in pairs},
              {name: pq[1] for ((pq, _s, _d), name) in mor_index.items()})
    return (objects, morphisms, identities, composition, s_maps, t_maps,
            {oname(uv): uv[0] for uv in pairs}, {oname(uv): uv[1] for uv in pairs})


def coequify(phi: NatTransformation, psi: NatTransformation):
    """Coequifier of a parallel pair of 2-cells: the quotient functor q
    and quotient category, where q identifies phi and psi componentwise.

    Returns (q, C) with q * phi == q * psi.
    """
    if _differ(phi.source, psi.source) or _differ(phi.target, psi.target):
        raise BoundaryMismatch("coequifier needs 2-cells with the same boundary")
    A = phi.source.target
    K = phi.source.source
    gens = [(phi.at(k), psi.at(k)) for k in K.objects]
    cong = congruence_closure(A, gens)
    C, q = quotient_by_congruence(A, cong)
    if not coequifies(q, phi, psi):
        raise LabError("quotient does not coequify %s and %s" % (phi.name or "?", psi.name or "?"))
    return q, C


def coequifies(h: Functor, phi: NatTransformation, psi: NatTransformation) -> bool:
    """Parallel phi, psi with h * phi == h * psi, decided on components."""
    if _differ(phi.source.target, h.source):
        raise BoundaryMismatch("coequifies: h must start where the 2-cells land")
    hm = h.on_morphisms
    return phi.source == psi.source and phi.target == psi.target and all(
        hm[c] == hm[psi.at(k)] for k, c in phi.components.items())


def verify_coequifier_2d(
    q: Functor,
    phi: NatTransformation,
    psi: NatTransformation,
    test_categories: Sequence[FinCategory],
    limit: int = DEFAULT_SEARCH_LIMIT,
) -> CheckResult:
    """Check the two-dimensional coequifier property of q by enumeration.

    Level 1: every functor h out of q's source into a test category with
    h * phi == h * psi factors through q exactly once.  Level 2: every
    2-cell between two such functors is bar * q for exactly one of the
    2-cells bar between their factorisations, all enumerated under ``limit``.

    Level 1 takes the factorisations of h from its fibre
    (:func:`birkhoff2d.fincat._precomposition_fibres`) among all functors
    out of q's target, enumerated under ``limit``.  Over the 115 corpus
    coequifier data against the 6 corpus categories no least limit rises
    (each q is a quotient); a q that adds objects needs more than a search
    pinned to q's image did.
    """
    A = q.source
    C = q.target
    if not coequifies(q, phi, psi):
        return CheckResult(False, {"reason": "q does not coequify the data"})
    mors = [u.name for u in A.morphisms]
    for X in test_categories:
        lifted = _precomposition_fibres(q, enumerate_functors(C, X, limit=limit))
        factor_of: Dict[Functor, Functor] = {}
        for h in enumerate_functors(A, X, limit=limit):
            if not coequifies(h, phi, psi):
                continue
            hbars = lifted.get(tuple([h.on_morphisms[u] for u in mors]), ())
            if len(hbars) != 1:
                return CheckResult(
                    False,
                    {"level": 1, "test_category": X.name, "functor": h.on_objects,
                     "factorizations": len(hbars)},
                )
            factor_of[h] = hbars[0]
        items = sorted(factor_of.items(), key=lambda kv: kv[0]._key)
        for (h1, hb1), (h2, hb2) in itertools.product(items, repeat=2):
            fibres = _whisker_fibres(q, enumerate_nat_transformations(hb1, hb2, limit=limit))
            for gamma in enumerate_nat_transformations(h1, h2, limit=limit):
                count = fibres.get(tuple([gamma.components[a] for a in A.objects]), 0)
                if count != 1:
                    return CheckResult(
                        False,
                        {"level": 2, "test_category": X.name,
                         "gamma": gamma.components, "factorizations": count},
                    )
    return CheckResult(True)


def verify_kernel_universal(
    kd: KernelData,
    f: Functor,
    apexes: Sequence[FinCategory],
    limit: int = DEFAULT_SEARCH_LIMIT,
) -> CheckResult:
    """Check that kd is coequified by f and terminal among data f
    coequifies, enumerating candidate data over the given apex categories.

    A morphism of kernel data is a functor between apexes commuting with
    both legs and both 2-cells; terminality asks for exactly one such
    morphism from every candidate datum into kd.  The mediators are
    counted by key: per apex category KP, one search lists every functor
    KP -> kd.apex and files it under the datum it serves
    (:func:`_mediator_counts`).  That search's object-map space is
    ``len(kd.apex.objects) ** len(KP.objects)``, and it must stay under
    ``limit`` like every other search here.  The data are then walked in
    enumeration order (s2, t2, phi2, psi2), and the first whose count is
    not 1 is the witness.

    The walk reads f only through its kernel partition: phi2 and psi2
    have parallel components, which have equal f-images exactly when they
    lie in one kernel class.  So the verdict on KP is decided once per
    kernel datum (compared by content) and kernel partition, and kept on
    KP (``KP._universality``) with the size of the searches that made it.
    A kept verdict replays their limits in the order a cold call meets
    them: the mediator search's object-map space and nodes visited, the
    functors KP -> f.source, then the largest component space among the
    2-cells walked, up to the witness.
    """
    A = f.source
    if _differ(kd.target, A):
        return CheckResult(False, {"reason": "kernel data does not target f's source"})
    if not coequifies(f, kd.phi, kd.psi):
        return CheckResult(False, {"reason": "f does not coequify the data"})
    partition = _kernel_classes(f)
    for KP in apexes:
        kept = KP._universality.get((kd, partition))
        if kept is None:
            kept = KP._universality[(kd, partition)] = _universality_on(kd, partition, KP, limit)
        witness, visited, peak = kept
        _functor_limit_check(len(kd.apex.objects) ** len(KP.objects), visited, limit)
        enumerate_functors(KP, A, limit=limit)
        _component_limit_check(peak, limit)
        if witness is not None:
            return CheckResult(False, dict(witness))  # no caller edits the kept one
    return CheckResult(True)


def _universality_on(kd: KernelData, partition, KP: FinCategory, limit: int):
    """The first candidate datum over KP, among those coequified by the
    functors with this kernel partition, whose mediators into kd are not
    exactly one, as a witness (None when there is none), with the nodes
    the mediator search visited and the largest component space walked."""
    A = kd.target
    counts, visited = _mediator_counts(kd, KP, limit)
    class_of = {u: i for i, cl in enumerate(partition) for u in cl}
    objects, mors = KP.objects, [u.name for u in KP.morphisms]
    peak = 0
    for s2 in enumerate_functors(KP, A, limit=limit):
        s_key = tuple([s2.on_morphisms[u] for u in mors])
        for t2 in enumerate_functors(KP, A, limit=limit):
            t_key = tuple([t2.on_morphisms[u] for u in mors])
            nats = enumerate_nat_transformations(s2, t2, limit=limit)
            peak = max(peak, _component_slots(s2, t2)[1])
            cells = [tuple([alpha.components[k] for k in objects]) for alpha in nats]
            # each phi2 is paired with the psi2 in its bucket of kernel
            # classes, in order: those f coequifies with it
            buckets: Dict[Tuple[int, ...], list] = {}
            for psi2, psi_key in zip(nats, cells):
                buckets.setdefault(tuple([class_of[c] for c in psi_key]), []).append(
                    (psi2, psi_key))
            for phi2, phi_key in zip(nats, cells):
                for psi2, psi_key in buckets[tuple([class_of[c] for c in phi_key])]:
                    n = counts.get((s_key, t_key, phi_key, psi_key), 0)
                    if n != 1:
                        return ({"apex": KP.name, "s": s2.on_objects, "t": t2.on_objects,
                                 "phi": phi2.components, "psi": psi2.components,
                                 "mediators": n}, visited, peak)
    return None, visited, peak


def _mediator_counts(kd: KernelData, KP: FinCategory, limit: int):
    """How many functors m: KP -> kd.apex serve each datum (s2, t2, phi2,
    psi2) with s.m == s2, t.m == t2, phi * m == phi2 and psi * m == psi2,
    keyed by the images of s2 and t2 on KP.morphisms and the components of
    phi2 and psi2 on KP.objects, each in declaration order, and the nodes
    the search visited.  A functor's morphism map fixes its object map,
    since identities are distinct."""
    sm, tm = kd.s.on_morphisms, kd.t.on_morphisms
    phi_at, psi_at = kd.phi.components, kd.psi.components
    objects, mors = KP.objects, [u.name for u in KP.morphisms]
    counts: Dict[tuple, int] = {}
    mediators, visited = functor_maps(KP, kd.apex, limit)
    for omap, mmap in mediators:
        key = (tuple([sm[mmap[u]] for u in mors]), tuple([tm[mmap[u]] for u in mors]),
               tuple([phi_at[omap[k]] for k in objects]),
               tuple([psi_at[omap[k]] for k in objects]))
        counts[key] = counts.get(key, 0) + 1
    return counts, visited


@dataclass(frozen=True)
class ReflexiveData:
    """A coequifier datum with a common section killing both 2-cells.

    Both 2-cells must run s => t: a cell with another boundary is refused
    with BoundaryMismatch, even one whose restriction along the section is
    the identity 2-cell.
    """

    s: Functor
    t: Functor
    phi: NatTransformation
    psi: NatTransformation
    section: Functor

    def __post_init__(self):
        A = self.s.target
        if _differ(self.section.source, A) or _differ(self.section.target, self.s.source):
            raise BoundaryMismatch("section must run from the target back to the apex")
        ident = identity_functor(A)
        if compose_functors(self.s, self.section) != ident:
            raise BoundaryMismatch("s does not split the section")
        if compose_functors(self.t, self.section) != ident:
            raise BoundaryMismatch("t does not split the section")
        # with both cells running s => t, each restriction along the section
        # runs s.section => t.section, the identity functor, so it is the
        # identity 2-cell exactly when its components are identities
        for cell in (self.phi, self.psi):
            if _differ(cell.source, self.s) or _differ(cell.target, self.t):
                raise BoundaryMismatch("2-cells must run s => t")
        units = [A.identity(a) for a in A.objects]
        images = [self.section.on_objects[a] for a in A.objects]
        if [self.phi.components[k] for k in images] != units:
            raise BoundaryMismatch("phi restricted along the section is not the identity")
        if [self.psi.components[k] for k in images] != units:
            raise BoundaryMismatch("psi restricted along the section is not the identity")


def make_reflexive(phi: NatTransformation, psi: NatTransformation) -> ReflexiveData:
    """Reflexivize a coequifier datum.

    Replaces the apex K by K + A; the legs become the copairings of the
    old legs with the identity, the 2-cells are padded with identity
    components and the right injection is the section.  The coequifier is
    unchanged because the new generating pairs are all degenerate.
    """
    if _differ(phi.source, psi.source) or _differ(phi.target, psi.target):
        raise BoundaryMismatch("need 2-cells with a common boundary")
    s, t = phi.source, phi.target
    K, A = s.source, s.target
    KA, inl, inr = coproduct_category(K, A)

    def copair(leg: Functor, name: str) -> Functor:
        on_obj = {inl.obj(k): leg.obj(k) for k in K.objects}
        on_obj.update({inr.obj(a): a for a in A.objects})
        on_mor = {inl.mor(m.name): leg.mor(m.name) for m in K.morphisms}
        on_mor.update({inr.mor(m.name): m.name for m in A.morphisms})
        return Functor._trusted(KA, A, on_obj, on_mor, name=name)

    S, T = copair(s, "[s,id]"), copair(t, "[t,id]")

    def pad(cell: NatTransformation, name: str) -> NatTransformation:
        comps = {inl.obj(k): cell.at(k) for k in K.objects}
        comps.update({inr.obj(a): A.identity(a) for a in A.objects})
        return NatTransformation._trusted(S, T, comps, name=name)

    PHI, PSI = pad(phi, "[phi,1]"), pad(psi, "[psi,1]")
    return ReflexiveData(S, T, PHI, PSI, inr)


@dataclass(frozen=True)
class ConvergenceResult:
    converges: bool
    quotient: Functor
    comparison: Functor

    def __bool__(self) -> bool:
        return self.converges


def immediate_convergence_check(f: Functor) -> ConvergenceResult:
    """Run one kernel-quotient step on f and test convergence.

    Builds q = coequify(bof_kernel(f)) and the comparison e with
    e . q == f (defined on a class by the image of any member, which is
    well defined by construction).  Convergence means e is faithful; for
    this system that always holds, and the check makes it observable.
    """
    kd = bof_kernel(f)
    q, C = coequify(kd.phi, kd.psi)
    A, B = f.source, f.target
    eps = Functor._trusted(
        C,
        B,
        {a: f.obj(a) for a in C.objects},
        {m.name: f.mor(m.name) for m in C.morphisms},
        name="eps",
    )
    if compose_functors(eps, q) != f:
        raise LabError("comparison after quotient does not give back %s" % (f.name or "?"))
    return ConvergenceResult(classify(eps).faithful, q, eps)


# -- exhaustive lemma suites ------------------------------------------
#
# Each suite quantifies over explicitly supplied functors and test
# categories, so callers control the search space.  They return a
# CheckResult whose witness either counts what was checked or pins down
# the first counterexample.


def _parallel_pairs_below(functors, flag, targets, limit):
    """(h, X, f, g, 2-cells f => g) for every h among the functors with the
    given class flag and every parallel pair f, g out of h's target into a
    test category X."""
    for h in functors:
        if not getattr(classify(h), flag):
            continue
        for X in targets:
            across = enumerate_functors(h.target, X, limit=limit)
            for f in across:
                for g in across:
                    yield h, X, f, g, enumerate_nat_transformations(f, g, limit=limit)


def lemma_cancel_two_cells(
    functors: Sequence[Functor],
    targets: Sequence[FinCategory],
    limit: int = DEFAULT_SEARCH_LIMIT,
) -> CheckResult:
    """For every b.o. full h among the functors and every parallel pair
    f, g out of h's target into a test category, every 2-cell f.h => g.h
    is the whisker alpha * h of exactly one 2-cell alpha: f => g."""
    checked = cells = 0
    for h, X, f, g, alphas in _parallel_pairs_below(functors, "bo_full", targets, limit):
        betas = enumerate_nat_transformations(
            compose_functors(f, h), compose_functors(g, h), limit=limit
        )
        fibres = _whisker_fibres(h, alphas)
        if any(fibres.get(tuple([beta.components[a] for a in h.source.objects]), 0) != 1
               for beta in betas):
            return CheckResult(
                False,
                {"functor": h.name or h.on_objects, "test_category": X.name,
                 "pair": (f.on_objects, g.on_objects),
                 "upstairs": len(alphas), "downstairs": len(betas)},
            )
        checked += 1
        cells += len(betas)
    return CheckResult(True, {"pairs": checked, "cells": cells})


def lemma_so_faithful(
    functors: Sequence[Functor],
    targets: Sequence[FinCategory],
    limit: int = DEFAULT_SEARCH_LIMIT,
) -> CheckResult:
    """For every surjective-on-objects h among the functors, whiskering
    with h never identifies two distinct parallel 2-cells: the whiskers
    alpha * h of the 2-cells f => g are as many as the cells."""
    checked = cells = 0
    for h, X, f, g, alphas in _parallel_pairs_below(functors, "so", targets, limit):
        whiskered = _whisker_fibres(h, alphas)
        if len(whiskered) != len(alphas):
            return CheckResult(
                False,
                {"functor": h.name or h.on_objects, "test_category": X.name,
                 "pair": (f.on_objects, g.on_objects),
                 "cells": len(alphas), "images": len(whiskered)},
            )
        checked += 1
        cells += len(alphas)
    return CheckResult(True, {"pairs": checked, "cells": cells})


def lemma_coeq_refl(
    data: Sequence[Tuple[NatTransformation, NatTransformation]],
) -> CheckResult:
    """Reflexivizing a coequifier datum does not change the coequifier:
    for each (phi, psi) the quotients by the original and by the
    reflexivized datum are isomorphic, with the isomorphism constructed
    from the induced functors in both directions, each forced through a
    quotient by :func:`birkhoff2d.fincat._through_quotient`."""
    for i, (phi, psi) in enumerate(data):
        q1, C1 = coequify(phi, psi)
        rd = make_reflexive(phi, psi)
        q2, C2 = coequify(rd.phi, rd.psi)
        u, v = _through_quotient(q1, q2), _through_quotient(q2, q1)
        if u is None or v is None:
            return CheckResult(
                False, {"datum": i, "reason": "quotients identify different morphisms"}
            )
        if (
            compose_functors(v, u) != identity_functor(C1)
            or compose_functors(u, v) != identity_functor(C2)
        ):
            return CheckResult(False, {"datum": i, "reason": "induced functors do not invert"})
        flags = classify(u)
        if not (flags.bo and flags.ff):
            return CheckResult(False, {"datum": i, "reason": "induced functor is not invertible"})
    return CheckResult(True, {"data": len(data)})


def lemma_immediate_convergence(functors: Sequence[Functor]) -> CheckResult:
    """Every supplied functor converges after one kernel-quotient step."""
    for f in functors:
        res = immediate_convergence_check(f)
        if not res:
            return CheckResult(
                False, {"functor": f.name or "?", "on_objects": f.on_objects}
            )
    return CheckResult(True, {"functors": len(functors)})
