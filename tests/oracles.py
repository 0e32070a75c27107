"""Reference implementations used to cross-check the package.

Everything here is deliberately naive: pair-set saturation instead of
union-find, recursive partition generation, product-and-filter counting
straight from the definitions.  Slow, but transparently correct on
corpus-sized inputs, which is the point.
"""
import itertools

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
