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
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import BoundaryMismatch, LabError, SizeLimitExceeded
from .factor import CheckResult
from .fincat import (
    DEFAULT_SEARCH_LIMIT,
    FinCategory,
    Functor,
    Morphism,
    NatTransformation,
    classify,
    compose_functors,
    congruence_closure,
    coproduct_category,
    enumerate_functors,
    enumerate_nat_transformations,
    identity_functor,
    identity_nat,
    quotient_by_congruence,
    whisker,
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
        if self.s.source != self.apex or self.t.source != self.apex:
            raise BoundaryMismatch("legs must start at the apex")
        if self.s.target != self.t.target:
            raise BoundaryMismatch("legs must share a target")
        for cell in (self.phi, self.psi):
            if cell.source != self.s or cell.target != self.t:
                raise BoundaryMismatch("2-cells must run s => t")

    @property
    def target(self) -> FinCategory:
        return self.s.target


def bof_kernel(f: Functor, max_size: int = DEFAULT_APEX_CAP) -> KernelData:
    """Kernel data of f: apex objects are the parallel pairs (u, v) of
    f's source with equal image, morphisms are the pairs (p, q) making
    both squares commute; s and t project to domains and codomains and
    phi, psi pick out the two members of each pair.

    The apex squares the morphism count, so its size is capped.
    """
    A = f.source
    pairs: List[Tuple[str, str]] = []
    for u in A.morphisms:
        for v in A.morphisms:
            if u.dom == v.dom and u.cod == v.cod and f.mor(u.name) == f.mor(v.name):
                pairs.append((u.name, v.name))
    if len(pairs) > max_size:
        raise SizeLimitExceeded("kernel apex would have %d objects" % len(pairs))

    def oname(uv: Tuple[str, str]) -> str:
        return "(%s,%s)" % uv

    def mname(pq: Tuple[str, str], src: Tuple[str, str], dst: Tuple[str, str]) -> str:
        return "(%s,%s)|%s|%s" % (pq[0], pq[1], oname(src), oname(dst))

    objects = [oname(uv) for uv in pairs]
    morphisms: List[Morphism] = []
    mor_index: Dict[Tuple[Tuple[str, str], Tuple[str, str], Tuple[str, str]], str] = {}
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
                        if len(morphisms) > max_size:
                            raise SizeLimitExceeded(
                                "kernel apex would have more than %d morphisms" % max_size
                            )
    identities = {}
    for uv in pairs:
        u = uv[0]
        identities[oname(uv)] = mor_index[
            ((A.identity(A.dom(u)), A.identity(A.cod(u))), uv, uv)
        ]
    composition = {}
    for ((pq1, src1, dst1), n1) in mor_index.items():
        for ((pq2, src2, dst2), n2) in mor_index.items():
            if dst1 != src2:
                continue
            comp = (A.compose(pq2[0], pq1[0]), A.compose(pq2[1], pq1[1]))
            composition[(n2, n1)] = mor_index[(comp, src1, dst2)]
    K = FinCategory(objects, morphisms, identities, composition,
                    name="ker(%s)" % (f.name or "?"))
    s = Functor(
        K,
        A,
        {oname(uv): A.dom(uv[0]) for uv in pairs},
        {name: pq[0] for ((pq, _s, _d), name) in mor_index.items()},
        name="s",
    )
    t = Functor(
        K,
        A,
        {oname(uv): A.cod(uv[0]) for uv in pairs},
        {name: pq[1] for ((pq, _s, _d), name) in mor_index.items()},
        name="t",
    )
    phi = NatTransformation(s, t, {oname(uv): uv[0] for uv in pairs}, name="phi")
    psi = NatTransformation(s, t, {oname(uv): uv[1] for uv in pairs}, name="psi")
    return KernelData(K, s, t, phi, psi)


def coequify(phi: NatTransformation, psi: NatTransformation):
    """Coequifier of a parallel pair of 2-cells: the quotient functor q
    and quotient category, where q identifies phi and psi componentwise.

    Returns (q, C) with q * phi == q * psi.
    """
    if phi.source != psi.source or phi.target != psi.target:
        raise BoundaryMismatch("coequifier needs 2-cells with the same boundary")
    A = phi.source.target
    K = phi.source.source
    gens = [(phi.at(k), psi.at(k)) for k in K.objects]
    cong = congruence_closure(A, gens)
    C, q = quotient_by_congruence(A, cong)
    if whisker(q, phi, "left") != whisker(q, psi, "left"):
        raise LabError("quotient does not coequify %s and %s" % (phi.name or "?", psi.name or "?"))
    return q, C


def coequifies(h: Functor, phi: NatTransformation, psi: NatTransformation) -> bool:
    return whisker(h, phi, "left") == whisker(h, psi, "left")


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
    2-cell between two such functors factors uniquely as well.
    """
    A = q.source
    C = q.target
    if not coequifies(q, phi, psi):
        return CheckResult(False, {"reason": "q does not coequify the data"})
    for X in test_categories:
        factor_of: Dict[Functor, Functor] = {}
        cand = enumerate_functors(C, X, limit=limit)
        for h in enumerate_functors(A, X, limit=limit):
            if not coequifies(h, phi, psi):
                continue
            hbars = [hb for hb in cand if compose_functors(hb, q) == h]
            if len(hbars) != 1:
                return CheckResult(
                    False,
                    {"level": 1, "test_category": X.name, "functor": h.on_objects,
                     "factorizations": len(hbars)},
                )
            factor_of[h] = hbars[0]
        items = sorted(factor_of.items(), key=lambda kv: kv[0]._key)
        for (h1, hb1), (h2, hb2) in itertools.product(items, repeat=2):
            for gamma in enumerate_nat_transformations(h1, h2, limit=limit):
                bars = [
                    delta
                    for delta in enumerate_nat_transformations(hb1, hb2, limit=limit)
                    if whisker(q, delta, "right") == gamma
                ]
                if len(bars) != 1:
                    return CheckResult(
                        False,
                        {"level": 2, "test_category": X.name,
                         "gamma": gamma.components, "factorizations": len(bars)},
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
    morphism from every candidate datum into kd.
    """
    A = f.source
    if kd.target != A:
        return CheckResult(False, {"reason": "kernel data does not target f's source"})
    if not coequifies(f, kd.phi, kd.psi):
        return CheckResult(False, {"reason": "f does not coequify the data"})
    for KP in apexes:
        for s2 in enumerate_functors(KP, A, limit=limit):
            for t2 in enumerate_functors(KP, A, limit=limit):
                nats = enumerate_nat_transformations(s2, t2, limit=limit)
                for phi2 in nats:
                    f_phi2 = whisker(f, phi2, "left")
                    for psi2 in nats:
                        if whisker(f, psi2, "left") != f_phi2:
                            continue
                        n = _count_mediators(kd, KP, s2, t2, phi2, psi2, limit)
                        if n != 1:
                            return CheckResult(
                                False,
                                {"apex": KP.name, "s": s2.on_objects,
                                 "t": t2.on_objects,
                                 "phi": phi2.components, "psi": psi2.components,
                                 "mediators": n},
                            )
    return CheckResult(True)


def _count_mediators(kd, KP, s2, t2, phi2, psi2, limit) -> int:
    """Number of functors m: KP -> apex with s.m == s2, t.m == t2,
    phi * m == phi2 and psi * m == psi2, by constrained backtracking."""
    K = kd.apex
    obj_cands: Dict[str, List[str]] = {}
    for k in KP.objects:
        cands = [
            o
            for o in K.objects
            if kd.s.obj(o) == s2.obj(k)
            and kd.t.obj(o) == t2.obj(k)
            and kd.phi.at(o) == phi2.at(k)
            and kd.psi.at(o) == psi2.at(k)
        ]
        obj_cands[k] = cands
        if not cands:
            return 0
    non_identity = [m for m in KP.morphisms if not KP.is_identity(m.name)]
    pair_list = [(g, f_, h) for (g, f_), h in KP.composition.items()]
    count = 0
    visited = 0
    for combo in itertools.product(*(obj_cands[k] for k in KP.objects)):
        omap = dict(zip(KP.objects, combo))
        mmap = {KP.identity(k): K.identity(omap[k]) for k in KP.objects}

        def backtrack(i: int):
            nonlocal count, visited
            if i == len(non_identity):
                count += 1
                return
            mo = non_identity[i]
            for cand in K.hom(omap[mo.dom], omap[mo.cod]):
                visited += 1
                if visited > limit:
                    raise SizeLimitExceeded("mediator search exceeded limit %d" % limit)
                if kd.s.mor(cand) != s2.mor(mo.name) or kd.t.mor(cand) != t2.mor(mo.name):
                    continue
                mmap[mo.name] = cand
                ok = True
                for (g, f_, h) in pair_list:
                    if g in mmap and f_ in mmap and h in mmap:
                        if K.compose(mmap[g], mmap[f_]) != mmap[h]:
                            ok = False
                            break
                if ok:
                    backtrack(i + 1)
                del mmap[mo.name]

        backtrack(0)
    return count


@dataclass(frozen=True)
class ReflexiveData:
    """A coequifier datum with a common section killing both 2-cells."""

    s: Functor
    t: Functor
    phi: NatTransformation
    psi: NatTransformation
    section: Functor

    def __post_init__(self):
        A = self.s.target
        if self.section.source != A or self.section.target != self.s.source:
            raise BoundaryMismatch("section must run from the target back to the apex")
        ident = identity_functor(A)
        if compose_functors(self.s, self.section) != ident:
            raise BoundaryMismatch("s does not split the section")
        if compose_functors(self.t, self.section) != ident:
            raise BoundaryMismatch("t does not split the section")
        unit = identity_nat(ident)
        if whisker(self.section, self.phi, "right") != unit:
            raise BoundaryMismatch("phi restricted along the section is not the identity")
        if whisker(self.section, self.psi, "right") != unit:
            raise BoundaryMismatch("psi restricted along the section is not the identity")


def make_reflexive(phi: NatTransformation, psi: NatTransformation) -> ReflexiveData:
    """Reflexivize a coequifier datum.

    Replaces the apex K by K + A; the legs become the copairings of the
    old legs with the identity, the 2-cells are padded with identity
    components and the right injection is the section.  The coequifier is
    unchanged because the new generating pairs are all degenerate.
    """
    if phi.source != psi.source or phi.target != psi.target:
        raise BoundaryMismatch("need 2-cells with a common boundary")
    s, t = phi.source, phi.target
    K, A = s.source, s.target
    KA, inl, inr = coproduct_category(K, A)
    on_obj_s = {inl.obj(k): s.obj(k) for k in K.objects}
    on_obj_s.update({inr.obj(a): a for a in A.objects})
    on_mor_s = {inl.mor(m.name): s.mor(m.name) for m in K.morphisms}
    on_mor_s.update({inr.mor(m.name): m.name for m in A.morphisms})
    S = Functor(KA, A, on_obj_s, on_mor_s, name="[s,id]")
    on_obj_t = {inl.obj(k): t.obj(k) for k in K.objects}
    on_obj_t.update({inr.obj(a): a for a in A.objects})
    on_mor_t = {inl.mor(m.name): t.mor(m.name) for m in K.morphisms}
    on_mor_t.update({inr.mor(m.name): m.name for m in A.morphisms})
    T = Functor(KA, A, on_obj_t, on_mor_t, name="[t,id]")
    comp_phi = {inl.obj(k): phi.at(k) for k in K.objects}
    comp_phi.update({inr.obj(a): A.identity(a) for a in A.objects})
    comp_psi = {inl.obj(k): psi.at(k) for k in K.objects}
    comp_psi.update({inr.obj(a): A.identity(a) for a in A.objects})
    PHI = NatTransformation(S, T, comp_phi, name="[phi,1]")
    PSI = NatTransformation(S, T, comp_psi, name="[psi,1]")
    return ReflexiveData(S, T, PHI, PSI, inr)


@dataclass(frozen=True)
class ConvergenceResult:
    converges: bool
    quotient: Functor
    comparison: Functor

    def __bool__(self) -> bool:
        return self.converges


def immediate_convergence_check(f: Functor, max_size: int = DEFAULT_APEX_CAP) -> ConvergenceResult:
    """Run one kernel-quotient step on f and test convergence.

    Builds q = coequify(bof_kernel(f)) and the comparison e with
    e . q == f (defined on a class by the image of any member, which is
    well defined by construction).  Convergence means e is faithful; for
    this system that always holds, and the check makes it observable.
    """
    kd = bof_kernel(f, max_size=max_size)
    q, C = coequify(kd.phi, kd.psi)
    A, B = f.source, f.target
    eps = Functor(
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


def lemma_cancel_two_cells(
    functors: Sequence[Functor],
    targets: Sequence[FinCategory],
    limit: int = DEFAULT_SEARCH_LIMIT,
) -> CheckResult:
    """For every b.o. full h among the functors and every parallel pair
    f, g out of h's target into a test category, whiskering with h is a
    bijection from 2-cells f => g to 2-cells f.h => g.h."""
    checked = cells = 0
    for h in functors:
        if not classify(h).bo_full:
            continue
        A = h.target
        for X in targets:
            across = enumerate_functors(A, X, limit=limit)
            for f in across:
                for g in across:
                    alphas = enumerate_nat_transformations(f, g, limit=limit)
                    betas = enumerate_nat_transformations(
                        compose_functors(f, h), compose_functors(g, h), limit=limit
                    )
                    whiskered = [whisker(h, a, "right") for a in alphas]
                    if len(set(whiskered)) != len(whiskered) or set(whiskered) != set(betas):
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
    with h never identifies two distinct parallel 2-cells."""
    checked = cells = 0
    for h in functors:
        if not classify(h).so:
            continue
        A = h.target
        for X in targets:
            across = enumerate_functors(A, X, limit=limit)
            for f in across:
                for g in across:
                    alphas = enumerate_nat_transformations(f, g, limit=limit)
                    whiskered = {whisker(h, a, "right") for a in alphas}
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


def induced_between_quotients(q1: Functor, q2: Functor) -> Optional[Functor]:
    """The functor u with u . q1 == q2, when q1's identifications are
    also made by q2; None otherwise.  Requires q1 surjective."""
    A = q1.source
    on_obj: Dict[str, str] = {}
    for a in A.objects:
        key, val = q1.obj(a), q2.obj(a)
        if on_obj.get(key, val) != val:
            return None
        on_obj[key] = val
    on_mor: Dict[str, str] = {}
    for m in A.morphisms:
        key, val = q1.mor(m.name), q2.mor(m.name)
        if on_mor.get(key, val) != val:
            return None
        on_mor[key] = val
    return Functor(q1.target, q2.target, on_obj, on_mor, name="induced")


def lemma_coeq_refl(
    data: Sequence[Tuple[NatTransformation, NatTransformation]],
    limit: int = DEFAULT_SEARCH_LIMIT,
) -> CheckResult:
    """Reflexivizing a coequifier datum does not change the coequifier:
    for each (phi, psi) the quotients by the original and by the
    reflexivized datum are isomorphic, with the isomorphism constructed
    from the induced functors in both directions."""
    for i, (phi, psi) in enumerate(data):
        q1, C1 = coequify(phi, psi)
        rd = make_reflexive(phi, psi)
        q2, C2 = coequify(rd.phi, rd.psi)
        u = induced_between_quotients(q1, q2)
        v = induced_between_quotients(q2, q1)
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
