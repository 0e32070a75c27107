"""Reference implementations used to cross-check the package.

Everything here is deliberately naive: pair-set saturation instead of
union-find, recursive partition generation, product-and-filter counting
straight from the definitions.  Slow, but transparently correct on
corpus-sized inputs, which is the point.
"""
import collections
import functools
import itertools

from birkhoff2d.errors import (
    BoundaryMismatch,
    LabError,
    NonInvertibleComponent,
    NotOperationClosed,
    ValidationError,
)
from birkhoff2d.factor import FACTOR_SYSTEMS, CheckResult, Factorisation, diagonal_fillins
from birkhoff2d.fincat import (
    DEFAULT_SEARCH_LIMIT,
    Congruence,
    FinCategory,
    Functor,
    FunctorFlags,
    Morphism,
    NatTransformation,
    classify,
    compose_functors,
    congruence_closure,
    enumerate_functors,
    enumerate_nat_transformations,
    functor_maps,
    lifts,
    power_span,
    quotient_by_congruence,
)
from birkhoff2d.theory import (
    Algebra,
    AlgebraHom,
    App,
    Extension,
    GenCell,
    IdCell,
    SubstCell,
    Var,
    VCompCell,
    compose_algebra_homs,
    is_algebra_hom,
    quotient_algebra,
    subst_term,
    term_min_arity,
    term_to_json,
)

# Functor counts between the six bundled categories, derived by hand
# from the composition tables (object map choices times constrained
# morphism image choices) and frozen here.
FUNCTOR_MATRIX = {
    ("one", "one"): 1, ("one", "two"): 2, ("one", "p"): 2,
    ("one", "d2"): 2, ("one", "z2"): 1, ("one", "z2z2"): 2,
    ("two", "one"): 1, ("two", "two"): 3, ("two", "p"): 4,
    ("two", "d2"): 2, ("two", "z2"): 2, ("two", "z2z2"): 4,
    ("p", "one"): 1, ("p", "two"): 3, ("p", "p"): 6,
    ("p", "d2"): 2, ("p", "z2"): 4, ("p", "z2z2"): 8,
    ("d2", "one"): 1, ("d2", "two"): 4, ("d2", "p"): 4,
    ("d2", "d2"): 4, ("d2", "z2"): 1, ("d2", "z2z2"): 4,
    ("z2", "one"): 1, ("z2", "two"): 2, ("z2", "p"): 2,
    ("z2", "d2"): 2, ("z2", "z2"): 2, ("z2", "z2z2"): 4,
    ("z2z2", "one"): 1, ("z2z2", "two"): 4, ("z2z2", "p"): 4,
    ("z2z2", "d2"): 4, ("z2z2", "z2"): 4, ("z2z2", "z2z2"): 16,
}
TOTAL_FUNCTORS = 114
BO_FULL_COUNT = 13
FAITHFUL_COUNT = 60

# Operation-closed congruence counts per bundled algebra, worked out by
# hand over the carrier hom-set partitions (see count_quotient_algebras
# for the machine recount).
QUOTIENT_COUNTS = {
    "two_max": 1,
    "xor_strict": 2,
    "sigma_assoc": 2,
    "z2_strict": 2,
    "terminal_alg": 1,
    "plain_p": 2,
}


def functors_bruteforce(A, B):
    """Every functor A -> B as an (object map, morphism map) pair.

    Enumerates every object map, then every boundary-respecting choice
    of morphism images with identities forced, both as plain products in
    declaration order, and keeps the ones that preserve all composites.
    """
    a_objects = list(A.objects)
    a_mors = [m.name for m in A.morphisms]
    pairs = [(g.name, f.name) for g in A.morphisms for f in A.morphisms if f.cod == g.dom]
    found = []
    for images in itertools.product(B.objects, repeat=len(a_objects)):
        omap = dict(zip(a_objects, images))
        pools = []
        for u in a_mors:
            cands = B.hom(omap[A.dom(u)], omap[A.cod(u)])
            if A.is_identity(u):
                forced = B.identity(omap[A.dom(u)])
                cands = tuple(c for c in cands if c == forced)
            pools.append(cands)
        if not all(pools):
            continue
        for choice in itertools.product(*pools):
            mmap = dict(zip(a_mors, choice))
            if all(
                mmap[A.compose(g, f)] == B.compose(mmap[g], mmap[f])
                for (g, f) in pairs
            ):
                found.append((omap, mmap))
    return found


def count_functors_bruteforce(A, B):
    """Count functors A -> B from first principles."""
    return len(functors_bruteforce(A, B))


def saturate_pairs(C, generators):
    """Congruence closure as a plain set of ordered pairs.

    Seeds reflexivity and the generators both ways, then loops adding
    transitive consequences and pre/post composites until nothing new
    appears.
    """
    names = [m.name for m in C.morphisms]
    rel = {(u, u) for u in names}
    for (u, v) in generators:
        rel.add((u, v))
        rel.add((v, u))
    changed = True
    while changed:
        changed = False
        for (u, v) in list(rel):
            for (x, y) in list(rel):
                if v == x and (u, y) not in rel:
                    rel.add((u, y))
                    changed = True
            for p in names:
                if C.cod(p) == C.dom(u):
                    pair = (C.compose(u, p), C.compose(v, p))
                    if pair not in rel:
                        rel.add(pair)
                        rel.add((pair[1], pair[0]))
                        changed = True
            for q in names:
                if C.dom(q) == C.cod(u):
                    pair = (C.compose(q, u), C.compose(q, v))
                    if pair not in rel:
                        rel.add(pair)
                        rel.add((pair[1], pair[0]))
                        changed = True
    return rel


def naive_congruence_classes(C, generators):
    """Classes of the closure, as a set of frozensets."""
    rel = saturate_pairs(C, generators)
    out = {}
    for m in C.morphisms:
        out.setdefault(m.name, set()).add(m.name)
    for (u, v) in rel:
        out[u].add(v)
    return {frozenset(s) for s in out.values()}


def set_partitions(items):
    """All partitions of a finite sequence, by recursive insertion."""
    items = list(items)
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [head]] + part[i + 1:]
        yield part + [[head]]


def _is_congruence(C, rep):
    for m1 in C.morphisms:
        for m2 in C.morphisms:
            if m1.dom != m2.dom or m1.cod != m2.cod:
                continue
            if rep[m1.name] != rep[m2.name]:
                continue
            for p in C.morphisms:
                if p.cod != m1.dom:
                    continue
                for q in C.morphisms:
                    if q.dom != m1.cod:
                        continue
                    a = C.compose(q.name, C.compose(m1.name, p.name))
                    b = C.compose(q.name, C.compose(m2.name, p.name))
                    if rep[a] != rep[b]:
                        return False
    return True


def _ops_descend(A, rep):
    names = [m.name for m in A.carrier.morphisms]
    for op in A.presentation.signature.operations:
        if op.arity == 0:
            continue
        for tu in itertools.product(names, repeat=op.arity):
            for tv in itertools.product(names, repeat=op.arity):
                if all(rep[x] == rep[y] for x, y in zip(tu, tv)):
                    if rep[A.op_mor(op.name, tu)] != rep[A.op_mor(op.name, tv)]:
                        return False
    return True


def count_quotient_algebras(A):
    """Count morphism partitions that are congruences closed under every
    operation, assembled hom-set by hom-set and filtered from the
    definitions with no shortcuts."""
    C = A.carrier
    hom_keys = sorted(set((m.dom, m.cod) for m in C.morphisms))
    per_hom = [list(set_partitions(C.hom(a, b))) for (a, b) in hom_keys]
    count = 0
    for combo in itertools.product(*per_hom):
        rep = {}
        for part in combo:
            for block in part:
                least = min(block)
                for u in block:
                    rep[u] = least
        if _is_congruence(C, rep) and _ops_descend(A, rep):
            count += 1
    return count


def vcompose(beta, alpha):
    """Vertical composite beta after alpha, componentwise."""
    if alpha.target != beta.source:
        raise BoundaryMismatch("vertical composite needs matching middle functor")
    B = alpha.source.target
    comps = {
        a: B.compose(beta.at(a), alpha.at(a)) for a in alpha.source.source.objects
    }
    return NatTransformation(alpha.source, beta.target, comps)


def _set_partitions(items):
    """All partitions of a sequence, by restricted growth strings in
    lexicographic order; the all-in-one-block partition comes first,
    all-singletons last."""
    n = len(items)
    if n == 0:
        yield []
        return
    codes = [0] * n
    while True:
        blocks = {}
        for x, c in zip(items, codes):
            blocks.setdefault(c, []).append(x)
        yield [blocks[c] for c in sorted(blocks)]
        # next restricted growth string in lexicographic order
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


def quotients_by_partitions(A):
    """Every quotient of A as (congruence, quotient algebra, projection),
    as the package listed them before generating congruences from
    principal ones: the product of the set partitions of every hom-set,
    hom-sets by (domain, codomain), keeping the candidates that Congruence
    and quotient_algebra accept."""
    C = A.carrier
    hom_sets = sorted({(m.dom, m.cod) for m in C.morphisms})
    partition_lists = [list(_set_partitions(list(C.hom(a, b)))) for (a, b) in hom_sets]
    out = []
    for combo in itertools.product(*partition_lists):
        try:
            cong = Congruence(C, [cl for part in combo for cl in part])
        except ValidationError:
            continue
        try:
            quot, h = quotient_algebra(A, cong)
        except NotOperationClosed:
            continue
        out.append((cong, quot, h))
    return tuple(out)


def bof_congruence_by_closure(f):
    """The congruence of the bof factorisation as the package built it
    before reading off the kernel classes: the closure of every parallel
    pair of f's source with equal f-images."""
    A = f.source
    return congruence_closure(
        A, [(u, v) for (u, v) in A.parallel_pairs() if f.mor(u) == f.mor(v)])


# Enumerate-then-filter definitions of the lift searches, as the package
# stated them before every such search ran on one constrained backtracker.
# They list every functor with the package's enumerator and keep the ones
# with the prescribed restriction.


def fillins_by_filter(f, g, x, y):
    """Every d out of f's target into g's source with d.f == x and
    g.d == y, in enumeration order."""
    return tuple(
        d for d in enumerate_functors(f.target, g.source)
        if compose_functors(d, f) == x and compose_functors(g, d) == y
    )


def count_mediators(kd, KP, s2, t2, phi2, psi2):
    """Number of functors m: KP -> apex with s.m == s2, t.m == t2,
    phi * m == phi2 and psi * m == psi2, by one constrained search per
    datum, as the package counted them before it searched once per apex
    category: each object of KP is pinned to the apex objects with its
    phi2 and psi2 components, and each morphism image must have the s2 and
    t2 images."""
    apex_by_cells = {}
    for o in kd.apex.objects:
        apex_by_cells.setdefault((kd.phi.at(o), kd.psi.at(o)), []).append(o)
    objects = {k: apex_by_cells.get((phi2.at(k), psi2.at(k)), ()) for k in KP.objects}

    def accept(u, cand):
        return kd.s.mor(cand) == s2.mor(u) and kd.t.mor(cand) == t2.mor(u)

    return len(functor_maps(KP, kd.apex, DEFAULT_SEARCH_LIMIT, objects, accept)[0])


def mediator_signatures(kd, KP):
    """For every functor m: KP -> apex of the kernel data, the tuple
    (s.m, t.m, phi * m, psi * m) a candidate datum must equal for m to
    mediate into kd."""
    return [
        (compose_functors(kd.s, m), compose_functors(kd.t, m),
         whole_whisker(m, kd.phi, "right"), whole_whisker(m, kd.psi, "right"))
        for m in enumerate_functors(KP, kd.apex)
    ]


def induced_by_hand(q1, q2):
    """The functor u with u.q1 == q2 read off pointwise, or None when q1
    identifies something q2 keeps apart."""
    A = q1.source
    on_obj, on_mor = {}, {}
    for a in A.objects:
        key, val = q1.obj(a), q2.obj(a)
        if on_obj.get(key, val) != val:
            return None
        on_obj[key] = val
    for m in A.morphisms:
        key, val = q1.mor(m.name), q2.mor(m.name)
        if on_mor.get(key, val) != val:
            return None
        on_mor[key] = val
    return Functor(q1.target, q2.target, on_obj, on_mor, name="induced")


# Enumerate-then-filter definitions at the level of 2-cells, and the
# per-pair classification, as the package stated them before transformation
# lifts, component-wise coequifying and one-pass classification.


def whole_whisker(h, alpha, side):
    """h * alpha (side "left") or alpha * h (side "right") as a whole
    2-cell between the composite functors, built by the public constructor,
    which checks its boundaries and naturality.  Each component is read off
    the definition: h applied to alpha's component, or alpha's component at
    the image of the object under h."""
    if side == "left":
        F, G = compose_functors(h, alpha.source), compose_functors(h, alpha.target)
        components = {a: h.mor(alpha.at(a)) for a in F.source.objects}
    else:
        F, G = compose_functors(alpha.source, h), compose_functors(alpha.target, h)
        components = {c: alpha.at(h.obj(c)) for c in F.source.objects}
    return NatTransformation(F, G, components)


@functools.lru_cache(maxsize=None)
def whisker_once(h, alpha, side):
    """whole_whisker, computed once per argument triple."""
    return whole_whisker(h, alpha, side)


def nat_lifts_by_filter(f, alpha, d, d2, g=None, beta=None):
    """The 2-cell lifts by their definition: the component map of every
    delta: d => d2 whose whole whisker delta * f has the components alpha
    (and g * delta the components beta), kept from the full enumeration."""
    return tuple(
        delta.components for delta in enumerate_nat_transformations(d, d2)
        if whisker_once(f, delta, "right").components == alpha
        and (g is None or whisker_once(g, delta, "left").components == beta)
    )


def coequifies_by_whiskers(h, phi, psi):
    return whisker_once(h, phi, "left") == whisker_once(h, psi, "left")


# The checks that compared whole whiskers, as the package stated them
# before 2-cells with one common boundary were compared by components,
# each 2-cell lift kept from the full enumeration by nat_lifts_by_filter.


def orthogonal_by_whiskers(f, g):
    """check_orthogonal_morphisms, building each whisker g * alpha whole."""
    squares = [(x, y) for x in enumerate_functors(f.source, g.source)
               for y in lifts(f, compose_functors(g, x))]
    diag = {}
    for (x, y) in squares:
        ds = diagonal_fillins(f, g, x, y)
        if len(ds) != 1:
            return CheckResult(
                False,
                {"level": 1, "square": (x.on_objects, y.on_objects),
                 "fillins": len(ds)},
            )
        diag[(x, y)] = ds[0]
    for (x, y), (x2, y2) in itertools.product(squares, repeat=2):
        d, d2 = diag[(x, y)], diag[(x2, y2)]
        for alpha in enumerate_nat_transformations(x, x2):
            g_alpha = whole_whisker(g, alpha, "left").components
            for beta in nat_lifts_by_filter(f, g_alpha, y, y2):
                deltas = nat_lifts_by_filter(f, alpha.components, d, d2, g, beta)
                if len(deltas) != 1:
                    return CheckResult(
                        False,
                        {"level": 2, "alpha": alpha.components,
                         "beta": beta, "fillins": len(deltas)},
                    )
    return CheckResult(True)


def orthogonal_object_by_recomposing(f, C):
    """check_orthogonal_object, composing h.f afresh wherever it is needed."""
    hs = enumerate_functors(f.target, C)
    gs = enumerate_functors(f.source, C)
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
        upstairs = enumerate_nat_transformations(h, h2)
        downstairs = enumerate_nat_transformations(
            compose_functors(h, f), compose_functors(h2, f))
        if any(len(nat_lifts_by_filter(f, alpha.components, h, h2)) != 1
               for alpha in downstairs):
            return CheckResult(
                False,
                {"level": 2, "pair": (h.on_objects, h2.on_objects),
                 "upstairs": len(upstairs), "downstairs": len(downstairs)},
            )
    return CheckResult(True)


def coequify_by_whiskers(phi, psi):
    """coequify, checking q * phi == q * psi on whole whiskers."""
    gens = [(phi.at(k), psi.at(k)) for k in phi.source.source.objects]
    C, q = quotient_by_congruence(phi.source.target,
                                  congruence_closure(phi.source.target, gens))
    if whole_whisker(q, phi, "left") != whole_whisker(q, psi, "left"):
        raise LabError("quotient does not coequify")
    return q, C


def so_faithful_by_whiskers(functors, targets):
    """lemma_so_faithful, collecting the whiskers alpha * h in a set."""
    checked = cells = 0
    for h in functors:
        if not classify(h).so:
            continue
        for X in targets:
            across = enumerate_functors(h.target, X)
            for f in across:
                for g in across:
                    alphas = enumerate_nat_transformations(f, g)
                    whiskered = {whole_whisker(h, a, "right") for a in alphas}
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


def algebra_homs_by_filter(A, B, limit=DEFAULT_SEARCH_LIMIT):
    """enumerate_algebra_homs as every carrier functor that passes
    is_algebra_hom."""
    out = []
    for F in enumerate_functors(A.carrier, B.carrier, limit=limit):
        if is_algebra_hom(F, A, B):
            out.append(AlgebraHom._trusted(A, B, F))
    return tuple(out)


def is_algebra_two_cell(omega, h, k):
    """A 2-cell of algebras is a natural transformation compatible with
    every operation at every object tuple (for a nullary operation the
    component at its value must be the identity)."""
    if omega.source != h.functor or omega.target != k.functor:
        raise BoundaryMismatch("transformation does not run h => k")
    A, B = h.source, h.target
    for op in A.presentation.signature.operations:
        for t in A.obj_tuples(op.arity):
            lhs = omega.at(A.op_obj(op.name, t))
            rhs = B.op_mor(op.name, tuple(omega.at(a) for a in t))
            if lhs != rhs:
                return CheckResult(False, {"op": op.name, "tuple": t, "lhs": lhs, "rhs": rhs})
    return CheckResult(True)


def algebra_two_cells_by_filter(h, k, limit=DEFAULT_SEARCH_LIMIT):
    """algebra_two_cells as every transformation h => k that passes
    is_algebra_two_cell."""
    return tuple(
        w
        for w in enumerate_nat_transformations(h.functor, k.functor, limit=limit)
        if is_algebra_two_cell(w, h, k)
    )


def unit_lifts_by_filter(R, Q, h):
    """The lifts of the quotient map h: A -> Q along the unit of the
    reflection R that pass is_algebra_hom."""
    return [u for u in lifts(R.unit.functor, h.functor) if is_algebra_hom(u, R.reflected, Q)]


def algebra_orthogonal_by_whiskers(eta, B):
    """check_algebra_orthogonal, comparing whole whiskers w * eta with the
    algebra 2-cells below."""
    down_of = {}
    upper = algebra_homs_by_filter(eta.target, B)
    for h in upper:
        c = compose_algebra_homs(h, eta)
        if c in down_of:
            return CheckResult(
                False, {"kind": "non-unique factorisation", "through": c.functor.on_objects}
            )
        down_of[c] = h
    for g in algebra_homs_by_filter(eta.source, B):
        if g not in down_of:
            return CheckResult(
                False, {"kind": "no factorisation", "hom": g.functor.on_objects}
            )
    for h in upper:
        for k in upper:
            whiskered = [whole_whisker(eta.functor, w, "right")
                         for w in algebra_two_cells_by_filter(h, k)]
            if len(set(whiskered)) != len(whiskered):
                return CheckResult(
                    False, {"kind": "non-unique 2-cell factorisation",
                            "pair": (h.functor.on_morphisms, k.functor.on_morphisms)}
                )
            down_cells = set(algebra_two_cells_by_filter(compose_algebra_homs(h, eta),
                                                         compose_algebra_homs(k, eta)))
            if set(whiskered) != down_cells:
                return CheckResult(
                    False,
                    {"kind": "2-cell does not descend",
                     "pair": (h.functor.on_morphisms, k.functor.on_morphisms),
                     "missing": len(down_cells - set(whiskered))},
                )
    return CheckResult(True, {"homs": len(upper)})


def factor_bof_uncached(f):
    """The bof factorisation built afresh for each functor, with no middle
    kept between calls: the kernel classes, their canonical order (each
    sorted, ordered by least member), and the quotient of the source by them
    with a new Morphism per class, as factor_bof built it per call before."""
    A, B = f.source, f.target
    kernel = {}
    for u in A.morphisms:
        kernel.setdefault((u.dom, u.cod, f.mor(u.name)), []).append(u.name)
    classes = sorted((tuple(sorted(cl)) for cl in kernel.values()), key=lambda c: c[:1])
    rep = {u: cl[0] for cl in classes for u in cl}
    morphisms, done = [], set()
    for m in A.morphisms:
        r = rep[m.name]
        if r not in done:
            done.add(r)
            morphisms.append(Morphism(r, m.dom, m.cod))
    composition = {(g, h): rep[A.compose(g, h)] for (g, h) in A.composable_pairs()
                   if rep[g] == g and rep[h] == h}
    M = FinCategory._trusted(A.objects, morphisms,
                             {a: rep[A.identity(a)] for a in A.objects}, composition,
                             name="%s/~" % (A.name or "?"))
    e = Functor._trusted(A, M, {a: a for a in A.objects},
                         {m.name: rep[m.name] for m in A.morphisms}, name="q")
    m = Functor._trusted(M, B, {a: f.obj(a) for a in M.objects},
                         {mm.name: f.mor(mm.name) for mm in M.morphisms}, name="m")
    return Factorisation(f, e, m)


def classify_by_buckets(F):
    """Functor classes from the image of each source hom-set, bucketed as
    sets, and a Counter of the objects sent to each target object."""
    A, B = F.source, F.target
    image_objects = {F.obj(a) for a in A.objects}
    so = image_objects == set(B.objects)
    injective_on_objects = len(image_objects) == len(A.objects)
    bo = so and injective_on_objects
    image = {}
    for m in A.morphisms:
        image.setdefault((m.dom, m.cod), set()).add(F.on_morphisms[m.name])
    image_size = sum(map(len, image.values()))
    faithful = image_size == len(A.morphisms)
    sent_to = collections.Counter(F.on_objects[a] for a in A.objects)
    full = image_size == sum(sent_to[m.dom] * sent_to[m.cod] for m in B.morphisms)
    return FunctorFlags(
        bo=bo,
        full=full,
        faithful=faithful,
        so=so,
        injective_on_objects=injective_on_objects,
        ff=full and faithful,
        bo_full=bo and full,
        ioff=injective_on_objects and full and faithful,
    )


def classify_by_pairs(F):
    """Functor classes decided hom-set by hom-set over every pair of
    source objects."""
    A, B = F.source, F.target
    image_objects = {F.obj(a) for a in A.objects}
    so = image_objects == set(B.objects)
    injective_on_objects = len(image_objects) == len(A.objects)
    bo = so and injective_on_objects
    full = True
    faithful = True
    for a in A.objects:
        for b in A.objects:
            image = [F.mor(u) for u in A.hom(a, b)]
            if len(set(image)) != len(image):
                faithful = False
            if set(image) != set(B.hom(F.obj(a), F.obj(b))):
                full = False
    return FunctorFlags(
        bo=bo,
        full=full,
        faithful=faithful,
        so=so,
        injective_on_objects=injective_on_objects,
        ff=full and faithful,
        bo_full=bo and full,
        ioff=injective_on_objects and full and faithful,
    )


# Algebra validation as the package stated it before the equations were
# decided by satisfies and composition was checked on composable data only.
# Applied to an Algebra built without validation (unvalidated_algebra), it
# raises what the constructor raised then.


def unvalidated_algebra(presentation, carrier, operations, generators):
    """An Algebra holding the given (on_objects, on_morphisms) operation
    maps, each sorted by tuple, and generator components, with no law
    checked."""
    alg = Algebra.__new__(Algebra)
    alg.presentation, alg.carrier, alg.name = presentation, carrier, ""
    alg._op_obj = {k: dict(sorted(o.items())) for k, (o, m) in operations.items()}
    alg._op_mor = {k: dict(sorted(m.items())) for k, (o, m) in operations.items()}
    alg._gen = {k: dict(comps) for k, comps in generators.items()}
    return alg


def validate_by_all_pairs(alg):
    """Algebra._validate as it stood before the equations were left to
    satisfies and functoriality visited only composable pairs: every pair
    of morphism tuples, kept when composable coordinate by coordinate."""
    C = alg.carrier
    obj_set = set(C.objects)
    for op in alg.presentation.signature.operations:
        n = op.arity
        objs = alg._op_obj[op.name]
        mors = alg._op_mor[op.name]
        want_obj = set(alg.obj_tuples(n))
        if set(objs) != want_obj:
            raise ValidationError(
                "operation %s: object table does not cover the %d-tuples"
                % (op.name, n)
            )
        want_mor = set(alg.mor_tuples(n))
        if set(mors) != want_mor:
            raise ValidationError(
                "operation %s: morphism table does not cover the %d-tuples"
                % (op.name, n)
            )
        for t, v in objs.items():
            if v not in obj_set:
                raise ValidationError("operation %s maps %r outside the carrier" % (op.name, t))
        for t, v in mors.items():
            if not C.has_morphism(v):
                raise ValidationError("operation %s maps %r outside the carrier" % (op.name, t))
            if C.dom(v) != objs[tuple(C.dom(u) for u in t)] or C.cod(v) != objs[
                tuple(C.cod(u) for u in t)
            ]:
                raise ValidationError(
                    "operation %s: boundary not preserved at %r" % (op.name, t),
                    witness=(op.name, t),
                )
        for t in alg.obj_tuples(n):
            if mors[tuple(C.identity(a) for a in t)] != C.identity(objs[t]):
                raise ValidationError(
                    "operation %s: identities not preserved at %r" % (op.name, t),
                    witness=(op.name, t),
                )
        for gt in alg.mor_tuples(n):
            for ft in alg.mor_tuples(n):
                if all(C.cod(f) == C.dom(g) for g, f in zip(gt, ft)):
                    lhs = mors[tuple(C.compose(g, f) for g, f in zip(gt, ft))]
                    rhs = C.compose(mors[gt], mors[ft])
                    if lhs != rhs:
                        raise ValidationError(
                            "operation %s: composition not preserved" % op.name,
                            witness=(op.name, gt, ft),
                        )
    for g in alg.presentation.generators:
        comps = alg._gen[g.name]
        if set(comps) != set(alg.obj_tuples(g.arity)):
            raise ValidationError(
                "generator %s: components do not cover the %d-tuples"
                % (g.name, g.arity)
            )
        for t, v in comps.items():
            if not C.has_morphism(v):
                raise ValidationError("generator %s maps %r outside the carrier" % (g.name, t))
            sv = walk_term_obj(alg, g.source, t)
            tv = walk_term_obj(alg, g.target, t)
            if C.dom(v) != sv or C.cod(v) != tv:
                raise BoundaryMismatch(
                    "generator %s at %r has boundary %s -> %s, wanted %s -> %s"
                    % (g.name, t, C.dom(v), C.cod(v), sv, tv),
                    witness=(g.name, t),
                )
        for mt in alg.mor_tuples(g.arity):
            doms = tuple(C.dom(u) for u in mt)
            cods = tuple(C.cod(u) for u in mt)
            lhs = C.compose(walk_term_mor(alg, g.target, mt), comps[doms])
            rhs = C.compose(comps[cods], walk_term_mor(alg, g.source, mt))
            if lhs != rhs:
                raise ValidationError(
                    "generator %s: naturality fails at %r" % (g.name, mt),
                    witness=(g.name, mt),
                )
        if g.invertible:
            for t, v in comps.items():
                if C.inverse(v) is None:
                    raise NonInvertibleComponent(
                        "generator %s component at %r is not invertible" % (g.name, t),
                        witness=(g.name, t),
                    )
    for i, (l, r) in enumerate(alg.presentation.term_equations):
        n = max(term_min_arity(l), term_min_arity(r))
        for t in alg.obj_tuples(n):
            if walk_term_obj(alg, l, t) != walk_term_obj(alg, r, t):
                raise ValidationError(
                    "term equation %d fails on objects at %r" % (i, t), witness=(i, t)
                )
        for mt in alg.mor_tuples(n):
            if walk_term_mor(alg, l, mt) != walk_term_mor(alg, r, mt):
                raise ValidationError(
                    "term equation %d fails on morphisms at %r" % (i, mt), witness=(i, mt)
                )
    for i, (l, r, n) in enumerate(alg.presentation._cell_equations):
        for t in alg.obj_tuples(n):
            if eval_expr_at_objects(alg, l, t) != eval_expr_at_objects(alg, r, t):
                raise ValidationError(
                    "2-cell equation %d fails at %r" % (i, t), witness=(i, t)
                )


# Terms and 2-cell expressions evaluated one tuple at a time by a recursive
# walk, the way the package evaluated them before it evaluated a column of
# tuples per expression node.


def walk_term_obj(alg, t, objs):
    if isinstance(t, Var):
        return objs[t.index - 1]
    return alg.op_obj(t.op, tuple(walk_term_obj(alg, a, objs) for a in t.args))


def walk_term_mor(alg, t, mors):
    if isinstance(t, Var):
        return mors[t.index - 1]
    return alg.op_mor(t.op, tuple(walk_term_mor(alg, a, mors) for a in t.args))


def walk_expr(alg, e, mors):
    """The diagonal of the naturality square of e at a morphism tuple."""
    C = alg.carrier
    if isinstance(e, IdCell):
        return walk_term_mor(alg, e.term, mors)
    if isinstance(e, SubstCell):
        return walk_expr(alg, e.head, tuple(
            walk_term_mor(alg, a, mors) if isinstance(a, (Var, App)) else walk_expr(alg, a, mors)
            for a in e.args))
    if isinstance(e, VCompCell):
        ids = tuple(C.identity(C.dom(u)) for u in mors)
        return C.compose(walk_expr(alg, e.after, mors), walk_expr(alg, e.before, ids))
    g = alg.presentation.generator[e.name]
    objs = tuple(C.dom(u) for u in mors)
    comp = alg.gen_at(e.name, objs)
    if isinstance(e, GenCell):
        return C.compose(walk_term_mor(alg, g.target, mors), comp)
    inv = C.inverse(comp)
    if inv is None:
        raise NonInvertibleComponent(
            "component of %s at %r has no inverse" % (e.name, objs), witness=(e.name, objs))
    return C.compose(walk_term_mor(alg, g.source, mors), inv)


def cell_disagreements_by_walk(alg, E):
    """(equation, object tuple, lhs, rhs) wherever the sides of one of E's
    2-cell equations have different components, in the order satisfies
    and reflect read them."""
    for i, (l, r, n) in enumerate(E._cell_equations):
        for t in alg.obj_tuples(n):
            ids = tuple(alg.carrier.identity(a) for a in t)
            lv, rv = walk_expr(alg, l, ids), walk_expr(alg, r, ids)
            if lv != rv:
                yield i, t, lv, rv


def satisfaction_witness_by_walk(alg, E):
    """The witness of satisfies(alg, E): the first failing equation and its
    least tuple, or None when every equation holds."""
    term_eqs = () if isinstance(E, Extension) else E.term_equations
    for i, (l, r) in enumerate(term_eqs):
        n = max(term_min_arity(l), term_min_arity(r))
        for tuples, walk in ((alg.obj_tuples(n), walk_term_obj),
                             (alg.mor_tuples(n), walk_term_mor)):
            for t in tuples:
                lv, rv = walk(alg, l, t), walk(alg, r, t)
                if lv != rv:
                    return {"kind": "term", "equation": i, "tuple": t, "lhs": lv, "rhs": rv}
    for i, t, lv, rv in cell_disagreements_by_walk(alg, E):
        return {"kind": "two_cell", "equation": i, "tuple": t, "lhs": lv, "rhs": rv}
    return None


# 2-cell expressions as the package evaluated them before evaluation moved to
# morphism tuples: one component at an object tuple, with each substitution
# argument's source and the head's target read off the boundary terms.


def boundary(pres, e):
    """Source and target terms of a well-typed 2-cell expression."""
    if isinstance(e, IdCell):
        return e.term, e.term
    if isinstance(e, VCompCell):
        return boundary(pres, e.before)[0], boundary(pres, e.after)[1]
    if isinstance(e, SubstCell):
        parts = [(a, a) if isinstance(a, (Var, App)) else boundary(pres, a) for a in e.args]
        return tuple(subst_term(h, [p[side] for p in parts])
                     for side, h in enumerate(boundary(pres, e.head)))
    g = pres.generator[e.name]
    return (g.source, g.target) if isinstance(e, GenCell) else (g.target, g.source)


def eval_expr_at_objects(alg, e, objs):
    """The component of the interpreted expression at an object tuple."""
    C = alg.carrier
    if isinstance(e, IdCell):
        return C.identity(walk_term_obj(alg, e.term, objs))
    if isinstance(e, GenCell):
        return alg.gen_at(e.name, objs)
    if isinstance(e, VCompCell):
        return C.compose(eval_expr_at_objects(alg, e.after, objs),
                         eval_expr_at_objects(alg, e.before, objs))
    if isinstance(e, SubstCell):
        src_vals, comp_mors = [], []
        for a in e.args:
            if isinstance(a, (Var, App)):
                o = walk_term_obj(alg, a, objs)
                src_vals.append(o)
                comp_mors.append(C.identity(o))
            else:
                src_vals.append(walk_term_obj(alg, boundary(alg.presentation, a)[0], objs))
                comp_mors.append(eval_expr_at_objects(alg, a, objs))
        head_comp = eval_expr_at_objects(alg, e.head, tuple(src_vals))
        action = walk_term_mor(alg, boundary(alg.presentation, e.head)[1], tuple(comp_mors))
        return C.compose(action, head_comp)
    inv = C.inverse(alg.gen_at(e.name, objs))
    if inv is None:
        raise NonInvertibleComponent(
            "component of %s at %r has no inverse" % (e.name, objs), witness=(e.name, objs))
    return inv


def _power(C, n):
    return power_span((C,) * n, name="%s^%d" % (C.name or "?", n))


def interpret_term(alg, t, n):
    """The interpretation of a term at arity n as a functor out of the n-th
    power of the carrier."""
    alg.presentation.signature.check_term(t, n)
    span = _power(alg.carrier, n)
    return Functor(
        span.category,
        alg.carrier,
        {span.obj_of[tup]: walk_term_obj(alg, t, tup) for tup in alg.obj_tuples(n)},
        {span.mor_of[tup]: walk_term_mor(alg, t, tup) for tup in alg.mor_tuples(n)},
        name="[%s]" % (term_to_json(t),),
    )


def interpret_two_cell(alg, e, n):
    """The interpretation of a 2-cell expression at arity n as a natural
    transformation between its interpreted boundary terms, with its
    diagonals at identity tuples as components."""
    src, tgt = boundary(alg.presentation, e)
    span = _power(alg.carrier, n)
    C = alg.carrier
    return NatTransformation(
        interpret_term(alg, src, n),
        interpret_term(alg, tgt, n),
        {span.obj_of[tup]: walk_expr(alg, e, tuple(C.identity(a) for a in tup))
         for tup in alg.obj_tuples(n)},
    )


# Helpers that only tests use.


def identity_nat(F):
    """The identity 2-cell on a functor."""
    B = F.target
    return NatTransformation(
        F, F, {a: B.identity(F.obj(a)) for a in F.source.objects}, name="1_%s" % (F.name or "?")
    )


def factorisation_sound(f, system):
    """Factor f in the named system and check the classes of both legs.
    Recomposition needs no check here: every builder raises LabError when
    its legs do not recompose to f."""
    build, left_flag, right_flag = FACTOR_SYSTEMS[system]
    fact = build(f)
    lf = getattr(classify(fact.left), left_flag)
    rf = getattr(classify(fact.right), right_flag)
    if not (lf and rf):
        return CheckResult(
            False,
            {"reason": "wrong classes", "functor": f.name,
             "left_" + left_flag: lf, "right_" + right_flag: rf},
        )
    return CheckResult(True)
