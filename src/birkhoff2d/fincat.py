"""Finite categories, functors, natural transformations and congruences.

Everything is tabulated.  A category stores its full composition table, so
all laws are decided by direct inspection and every construction in the
package stays finite and deterministic.  Next to the table each category
carries its composable-triple table ``(g, f, g after f)`` and, per object,
the morphisms ending and starting there, so the law checks, congruence
closure and functor search visit only composable data.  Values validate
themselves at construction time and are immutable afterwards; structural
equality ignores the display name.

Identifiers (object and morphism names) are opaque strings.  Iteration
everywhere follows declaration order, and canonical representatives are
chosen as the lexicographically least name, so repeated runs produce
byte-identical results.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import (
    AssociativityViolation,
    BoundaryMismatch,
    IdentityLawViolation,
    IllTypedComposition,
    MissingIdentity,
    NonParallelGenerator,
    SizeLimitExceeded,
    ValidationError,
)

DEFAULT_SEARCH_LIMIT = 10**6


@dataclass(frozen=True)
class Morphism:
    name: str
    dom: str
    cod: str


class FinCategory:
    """A finite category given by objects, morphisms and a total composition table.

    ``composition`` must contain an entry for every composable pair (g, f)
    with cod(f) == dom(g), keyed ``(g, f)`` and valued with the name of
    ``g after f``.  Use :func:`validate_category` to build one from loose
    data with identity-forced entries filled in.
    """

    def __init__(
        self,
        objects: Sequence[str],
        morphisms: Sequence[Morphism],
        identities: Dict[str, str],
        composition: Dict[Tuple[str, str], str],
        name: str = "",
    ):
        self.name = name
        self.objects: Tuple[str, ...] = tuple(objects)
        self.morphisms: Tuple[Morphism, ...] = tuple(morphisms)
        self.identities: Dict[str, str] = dict(identities)
        self.composition: Dict[Tuple[str, str], str] = dict(composition)
        self._mor: Dict[str, Morphism] = {m.name: m for m in self.morphisms}
        self._objset = frozenset(self.objects)
        # per-object in- and out-lists, declaration order; an unknown
        # endpoint gets a list too, and _validate rejects it before use
        self._ending_at: Dict[str, List[str]] = {a: [] for a in self.objects}
        self._starting_at: Dict[str, List[str]] = {a: [] for a in self.objects}
        for m in self.morphisms:
            self._ending_at.setdefault(m.cod, []).append(m.name)
            self._starting_at.setdefault(m.dom, []).append(m.name)
        self._validate()
        self._hom: Dict[Tuple[str, str], Tuple[str, ...]] = {}
        for m in self.morphisms:
            self._hom.setdefault((m.dom, m.cod), ())
            self._hom[(m.dom, m.cod)] += (m.name,)
        # every (g, f, g after f), in composable_pairs() order
        comp = self.composition
        self._triples: Tuple[Tuple[str, str, str], ...] = tuple(
            (g.name, f, comp[(g.name, f)])
            for g in self.morphisms
            for f in self._ending_at[g.dom]
        )
        self._identity_names = frozenset(self.identities.values())
        self._key = (
            self.objects,
            tuple((m.name, m.dom, m.cod) for m in self.morphisms),
            tuple(sorted(self.identities.items())),
            tuple(sorted(self.composition.items())),
        )
        self._hash = hash(self._key)
        self._inverses: Optional[Dict[str, str]] = None

    # -- basic queries -------------------------------------------------

    def morphism(self, u: str) -> Morphism:
        return self._mor[u]

    def has_morphism(self, u: str) -> bool:
        return u in self._mor

    def dom(self, u: str) -> str:
        return self._mor[u].dom

    def cod(self, u: str) -> str:
        return self._mor[u].cod

    def identity(self, a: str) -> str:
        return self.identities[a]

    def is_identity(self, u: str) -> bool:
        return u in self._identity_names

    def hom(self, a: str, b: str) -> Tuple[str, ...]:
        return self._hom.get((a, b), ())

    def compose(self, g: str, f: str) -> str:
        """g after f."""
        try:
            return self.composition[(g, f)]
        except KeyError:
            raise BoundaryMismatch(
                "pair (%s, %s) is not composable in %s" % (g, f, self.name or "category"),
                witness=(g, f),
            ) from None

    def composable_pairs(self) -> Iterator[Tuple[str, str]]:
        for g in self.morphisms:
            for f in self._ending_at[g.dom]:
                yield (g.name, f)

    def parallel_pairs(self) -> Iterator[Tuple[str, str]]:
        """Unordered pairs of distinct parallel morphisms, declaration order."""
        for i, u in enumerate(self.morphisms):
            for v in self.morphisms[i + 1 :]:
                if u.dom == v.dom and u.cod == v.cod:
                    yield (u.name, v.name)

    def inverse(self, u: str) -> Optional[str]:
        """Name of a two-sided inverse of u, or None."""
        if self._inverses is None:
            inv: Dict[str, str] = {}
            for m in self.morphisms:
                for w in self.hom(m.cod, m.dom):
                    if (
                        self.compose(w, m.name) == self.identity(m.dom)
                        and self.compose(m.name, w) == self.identity(m.cod)
                    ):
                        inv[m.name] = w
                        break
            self._inverses = inv
        return self._inverses.get(u)

    # -- validation ----------------------------------------------------

    def _validate(self) -> None:
        if len(self._objset) != len(self.objects):
            raise ValidationError("duplicate object names", witness=self.objects)
        if len(self._mor) != len(self.morphisms):
            raise ValidationError("duplicate morphism names")
        for m in self.morphisms:
            if m.dom not in self._objset or m.cod not in self._objset:
                raise ValidationError(
                    "morphism %s has unknown endpoint" % m.name, witness=(m.name, m.dom, m.cod)
                )
        for a in self.objects:
            i = self.identities.get(a)
            if i is None or i not in self._mor:
                raise MissingIdentity("object %s has no identity" % a, witness=a)
            im = self._mor[i]
            if im.dom != a or im.cod != a:
                raise MissingIdentity(
                    "identity of %s is not an endomorphism of %s" % (a, a), witness=a
                )
        for a in self.identities:
            if a not in self._objset:
                raise ValidationError("identity listed for unknown object %s" % a, witness=a)
        comp = self.composition
        ending_at = self._ending_at
        # table keys refer to known composable morphisms
        for (g, f) in comp:
            if g not in self._mor or f not in self._mor:
                raise IllTypedComposition(
                    "composition entry over unknown morphisms", witness=(g, f)
                )
            if self._mor[f].cod != self._mor[g].dom:
                raise IllTypedComposition(
                    "entry (%s, %s) is not a composable pair" % (g, f), witness=(g, f)
                )
            if comp[(g, f)] not in self._mor:
                raise IllTypedComposition(
                    "entry (%s, %s) has unknown result" % (g, f), witness=(g, f)
                )
        # totality: every key is a composable pair, so equal counts suffice
        if len(comp) != sum(len(ending_at[g.dom]) for g in self.morphisms):
            for (g, f) in self.composable_pairs():
                if (g, f) not in comp:
                    raise IllTypedComposition(
                        "missing composition entry for (%s, %s)" % (g, f), witness=(g, f)
                    )
        # identity laws first: a bad explicit entry like (id_b, u) -> id_b is
        # reported as a law violation, not a typing problem
        for m in self.morphisms:
            left = comp[(self.identities[m.cod], m.name)]
            if left != m.name:
                raise IdentityLawViolation(
                    "id after %s is %s" % (m.name, left),
                    witness=(self.identities[m.cod], m.name),
                )
            right = comp[(m.name, self.identities[m.dom])]
            if right != m.name:
                raise IdentityLawViolation(
                    "%s after id is %s" % (m.name, right),
                    witness=(m.name, self.identities[m.dom]),
                )
        for (g, f), h in comp.items():
            hm = self._mor[h]
            if hm.dom != self._mor[f].dom or hm.cod != self._mor[g].cod:
                raise IllTypedComposition(
                    "result of (%s, %s) has wrong boundary" % (g, f), witness=(g, f)
                )
        for hm in self.morphisms:
            h = hm.name
            for g in ending_at[hm.dom]:
                hg = comp[(h, g)]
                for f in ending_at[self._mor[g].dom]:
                    if comp[(h, comp[(g, f)])] != comp[(hg, f)]:
                        raise AssociativityViolation(
                            "associativity fails on (%s, %s, %s)" % (h, g, f),
                            witness=(h, g, f),
                        )

    def revalidate(self) -> "FinCategory":
        """Re-run validation; idempotent on valid data."""
        self._validate()
        return self

    # -- identity ------------------------------------------------------

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return isinstance(other, FinCategory) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "FinCategory(%s: %d objects, %d morphisms)" % (
            self.name or "?",
            len(self.objects),
            len(self.morphisms),
        )


def validate_category(raw: dict, name: str = "") -> FinCategory:
    """Build a category from an untyped description, checking all laws.

    ``raw`` uses the on-disk shape: ``objects`` (list of names),
    ``morphisms`` (list of {"id", "dom", "cod"}), ``identities``
    (object -> morphism) and ``composition`` (list of [g, f, result]
    triples).  Entries forced by the identity laws may be omitted; explicit
    entries always win and are then checked.
    """
    if not isinstance(raw, dict):
        raise ValidationError("category description must be a mapping")
    for key in ("objects", "morphisms", "identities"):
        if key not in raw:
            raise ValidationError("category description lacks %r" % key)
    try:
        morphisms = tuple(
            Morphism(str(m["id"]), str(m["dom"]), str(m["cod"])) for m in raw["morphisms"]
        )
    except (TypeError, KeyError) as exc:
        raise ValidationError("bad morphism entry: %s" % exc)
    objects = tuple(str(o) for o in raw["objects"])
    identities = {str(k): str(v) for k, v in dict(raw["identities"]).items()}
    composition: Dict[Tuple[str, str], str] = {}
    for entry in raw.get("composition", ()):
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise ValidationError("composition entries must be [g, f, result] triples",
                                  witness=entry)
        g, f, h = (str(x) for x in entry)
        if (g, f) in composition:
            raise ValidationError("duplicate composition entry", witness=(g, f))
        composition[(g, f)] = h
    # fill identity-forced entries that were left implicit
    mor_by_name = {m.name: m for m in morphisms}
    for m in morphisms:
        ic = identities.get(m.cod)
        idm = identities.get(m.dom)
        if ic is not None and ic in mor_by_name:
            composition.setdefault((ic, m.name), m.name)
        if idm is not None and idm in mor_by_name:
            composition.setdefault((m.name, idm), m.name)
    return FinCategory(objects, morphisms, identities, composition, name=name)


class Functor:
    """A functor between finite categories, validated at construction."""

    def __init__(
        self,
        source: FinCategory,
        target: FinCategory,
        on_objects: Dict[str, str],
        on_morphisms: Dict[str, str],
        name: str = "",
    ):
        self.source = source
        self.target = target
        self.on_objects = dict(on_objects)
        self.on_morphisms = dict(on_morphisms)
        self.name = name
        witness = functor_law_witness(source, target, self.on_objects, self.on_morphisms)
        if witness is not None:
            raise ValidationError("functor %s: %s" % (name or "?", witness[0]),
                                  witness=witness)
        self._key = (source._key, target._key,
                     tuple(sorted(self.on_objects.items())),
                     tuple(sorted(self.on_morphisms.items())))
        self._hash = hash(self._key)

    def obj(self, a: str) -> str:
        return self.on_objects[a]

    def mor(self, u: str) -> str:
        return self.on_morphisms[u]

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return isinstance(other, Functor) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "Functor(%s: %s -> %s)" % (
            self.name or "?",
            self.source.name or "?",
            self.target.name or "?",
        )


def functor_law_witness(source, target, on_objects, on_morphisms):
    """First broken functor law, or None.  Shared by the constructor and
    the enumerator so candidates are filtered exactly once."""
    target_objects = target._objset
    for a in source.objects:
        b = on_objects.get(a)
        if b is None:
            return ("object %s unmapped" % a, a)
        if b not in target_objects:
            return ("object %s mapped outside target" % a, a)
    target_mor = target._mor
    for m in source.morphisms:
        v = on_morphisms.get(m.name)
        if v is None:
            return ("morphism %s unmapped" % m.name, m.name)
        vm = target_mor.get(v)
        if vm is None:
            return ("morphism %s mapped outside target" % m.name, m.name)
        if vm.dom != on_objects[m.dom] or vm.cod != on_objects[m.cod]:
            return ("morphism %s: boundary not preserved" % m.name, m.name)
    for a in source.objects:
        if on_morphisms[source.identities[a]] != target.identities[on_objects[a]]:
            return ("identity of %s not preserved" % a, a)
    # boundaries are preserved, so every image pair is composable in target
    target_comp = target.composition
    for (g, f, h) in source._triples:
        if on_morphisms[h] != target_comp[(on_morphisms[g], on_morphisms[f])]:
            return ("composition (%s, %s) not preserved" % (g, f), (g, f))
    return None


def identity_functor(A: FinCategory) -> Functor:
    return Functor(
        A,
        A,
        {a: a for a in A.objects},
        {m.name: m.name for m in A.morphisms},
        name="id_%s" % (A.name or "?"),
    )


def compose_functors(g: Functor, f: Functor) -> Functor:
    """g after f, computed pointwise."""
    if f.target != g.source:
        raise BoundaryMismatch(
            "cannot compose %r after %r: middle categories differ" % (g, f)
        )
    return Functor(
        f.source,
        g.target,
        {a: g.obj(f.obj(a)) for a in f.source.objects},
        {m.name: g.mor(f.mor(m.name)) for m in f.source.morphisms},
        name="%s.%s" % (g.name or "?", f.name or "?"),
    )


class NatTransformation:
    """A natural transformation between parallel functors."""

    def __init__(self, source: Functor, target: Functor, components: Dict[str, str],
                 name: str = ""):
        if source.source != target.source or source.target != target.target:
            raise BoundaryMismatch("transformation needs parallel functors")
        self.source = source
        self.target = target
        self.components = dict(components)
        self.name = name
        A, B = source.source, source.target
        for a in A.objects:
            c = self.components.get(a)
            if c is None or not B.has_morphism(c):
                raise ValidationError("component at %s missing or unknown" % a, witness=a)
            cm = B.morphism(c)
            if cm.dom != source.obj(a) or cm.cod != target.obj(a):
                raise BoundaryMismatch(
                    "component at %s has boundary %s -> %s, wanted %s -> %s"
                    % (a, cm.dom, cm.cod, source.obj(a), target.obj(a)),
                    witness=a,
                )
        for m in A.morphisms:
            lhs = B.compose(target.mor(m.name), self.components[m.dom])
            rhs = B.compose(self.components[m.cod], source.mor(m.name))
            if lhs != rhs:
                raise ValidationError(
                    "naturality fails at %s" % m.name, witness=(m.name, lhs, rhs)
                )
        self._key = (source._key, target._key, tuple(sorted(self.components.items())))
        self._hash = hash(self._key)

    def at(self, a: str) -> str:
        return self.components[a]

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return isinstance(other, NatTransformation) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "NatTransformation(%s => %s)" % (self.source.name or "?",
                                                self.target.name or "?")


def identity_nat(F: Functor) -> NatTransformation:
    B = F.target
    return NatTransformation(
        F, F, {a: B.identity(F.obj(a)) for a in F.source.objects}, name="1_%s" % (F.name or "?")
    )


def vcompose(beta: NatTransformation, alpha: NatTransformation) -> NatTransformation:
    """Vertical composite beta after alpha."""
    if alpha.target != beta.source:
        raise BoundaryMismatch("vertical composite needs matching middle functor")
    B = alpha.source.target
    comps = {
        a: B.compose(beta.at(a), alpha.at(a)) for a in alpha.source.source.objects
    }
    return NatTransformation(alpha.source, beta.target, comps)


def whisker(h: Functor, alpha: NatTransformation, side: str) -> NatTransformation:
    """Whisker a transformation with a functor.

    ``side == "left"``: h * alpha, components h(alpha_a).
    ``side == "right"``: alpha * h, components alpha at h-images.
    """
    if side == "left":
        if alpha.source.target != h.source:
            raise BoundaryMismatch("left whisker: functor must start at alpha's target category")
        return NatTransformation(
            compose_functors(h, alpha.source),
            compose_functors(h, alpha.target),
            {a: h.mor(alpha.at(a)) for a in alpha.source.source.objects},
        )
    if side == "right":
        if h.target != alpha.source.source:
            raise BoundaryMismatch("right whisker: functor must land in alpha's source category")
        return NatTransformation(
            compose_functors(alpha.source, h),
            compose_functors(alpha.target, h),
            {c: alpha.at(h.obj(c)) for c in h.source.objects},
        )
    raise ValueError("side must be 'left' or 'right'")


# -- products, coproducts, powers -------------------------------------


def _tuple_name(parts: Iterable[str]) -> str:
    return "(" + ",".join(parts) + ")"


def product_category(A: FinCategory, B: FinCategory, name: str = ""):
    """Binary product A x B with its two projections."""
    p = power_span((A, B), name=name or "(%sx%s)" % (A.name or "?", B.name or "?"))
    return p.category, p.projections[0], p.projections[1]


@dataclass(frozen=True)
class PowerSpan:
    """A finite power (or more generally a finite product) of categories,
    together with tuple bookkeeping so nothing ever parses a name."""

    factors: Tuple[FinCategory, ...]
    category: FinCategory
    obj_tuple: Dict[str, Tuple[str, ...]]
    mor_tuple: Dict[str, Tuple[str, ...]]
    obj_of: Dict[Tuple[str, ...], str]
    mor_of: Dict[Tuple[str, ...], str]
    projections: Tuple[Functor, ...]


def power_span(factors: Sequence[FinCategory], name: str = "") -> PowerSpan:
    factors = tuple(factors)
    obj_tuples = list(itertools.product(*(C.objects for C in factors)))
    mor_tuples = list(itertools.product(*((m.name for m in C.morphisms) for C in factors)))
    obj_of = {t: _tuple_name(t) for t in obj_tuples}
    mor_of = {t: _tuple_name(t) for t in mor_tuples}
    objects = [obj_of[t] for t in obj_tuples]
    morphisms = []
    for t in mor_tuples:
        doms = tuple(C.dom(u) for C, u in zip(factors, t))
        cods = tuple(C.cod(u) for C, u in zip(factors, t))
        morphisms.append(Morphism(mor_of[t], obj_of[doms], obj_of[cods]))
    identities = {}
    for t in obj_tuples:
        ids = tuple(C.identity(a) for C, a in zip(factors, t))
        identities[obj_of[t]] = mor_of[ids]
    composition = {}
    for gt in mor_tuples:
        for ft in mor_tuples:
            if all(C.cod(f) == C.dom(g) for C, g, f in zip(factors, gt, ft)):
                res = tuple(C.compose(g, f) for C, g, f in zip(factors, gt, ft))
                composition[(mor_of[gt], mor_of[ft])] = mor_of[res]
    cat = FinCategory(objects, morphisms, identities, composition, name=name)
    projections = []
    for i, C in enumerate(factors):
        projections.append(
            Functor(
                cat,
                C,
                {obj_of[t]: t[i] for t in obj_tuples},
                {mor_of[t]: t[i] for t in mor_tuples},
                name="pr%d" % (i + 1),
            )
        )
    return PowerSpan(
        factors,
        cat,
        {v: k for k, v in obj_of.items()},
        {v: k for k, v in mor_of.items()},
        obj_of,
        mor_of,
        tuple(projections),
    )


def power(A: FinCategory, n: int) -> PowerSpan:
    """The n-fold power of A; n == 0 gives the one-object one-morphism category."""
    return power_span((A,) * n, name="%s^%d" % (A.name or "?", n))


def coproduct_category(A: FinCategory, B: FinCategory, name: str = ""):
    """Disjoint union A + B with its two injections."""
    lo = {a: "l:" + a for a in A.objects}
    ro = {b: "r:" + b for b in B.objects}
    lm = {m.name: "l:" + m.name for m in A.morphisms}
    rm = {m.name: "r:" + m.name for m in B.morphisms}
    objects = [lo[a] for a in A.objects] + [ro[b] for b in B.objects]
    morphisms = [Morphism(lm[m.name], lo[m.dom], lo[m.cod]) for m in A.morphisms] + [
        Morphism(rm[m.name], ro[m.dom], ro[m.cod]) for m in B.morphisms
    ]
    identities = {lo[a]: lm[A.identity(a)] for a in A.objects}
    identities.update({ro[b]: rm[B.identity(b)] for b in B.objects})
    composition = {(lm[g], lm[f]): lm[h] for (g, f), h in A.composition.items()}
    composition.update({(rm[g], rm[f]): rm[h] for (g, f), h in B.composition.items()})
    cat = FinCategory(objects, morphisms, identities, composition,
                      name=name or "(%s+%s)" % (A.name or "?", B.name or "?"))
    inl = Functor(A, cat, lo, lm, name="inl")
    inr = Functor(B, cat, ro, rm, name="inr")
    return cat, inl, inr


# -- congruences and quotients ----------------------------------------


class Congruence:
    """A partition of the morphisms of a category into parallel classes,
    closed under pre- and post-composition."""

    def __init__(self, base: FinCategory, classes: Sequence[Sequence[str]]):
        self.base = base
        canon = []
        seen = set()
        for cls in classes:
            cl = tuple(sorted(cls))
            if not cl:
                raise ValidationError("empty congruence class")
            canon.append(cl)
            seen.update(cl)
        canon.sort(key=lambda c: c[0])
        self.classes: Tuple[Tuple[str, ...], ...] = tuple(canon)
        if seen != {m.name for m in base.morphisms} or sum(len(c) for c in canon) != len(
            base.morphisms
        ):
            raise ValidationError("classes do not partition the morphisms")
        self.rep_of: Dict[str, str] = {}
        for cl in self.classes:
            for u in cl:
                self.rep_of[u] = cl[0]
        for cl in self.classes:
            d, c = base.dom(cl[0]), base.cod(cl[0])
            for u in cl[1:]:
                if base.dom(u) != d or base.cod(u) != c:
                    raise NonParallelGenerator(
                        "class %r mixes non-parallel morphisms" % (cl,), witness=cl
                    )
        witness = congruence_context_witness(base, self.rep_of)
        if witness is not None:
            raise ValidationError(
                "not closed under composition at (%s, %s)" % witness[:2], witness=witness
            )
        self._key = (base._key, self.classes)
        self._hash = hash(self._key)

    def related(self, u: str, v: str) -> bool:
        return self.rep_of[u] == self.rep_of[v]

    def is_discrete(self) -> bool:
        return all(len(c) == 1 for c in self.classes)

    def __eq__(self, other) -> bool:
        return isinstance(other, Congruence) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "Congruence(%d classes on %s)" % (len(self.classes), self.base.name or "?")


def congruence_context_witness(C: FinCategory, rep_of: Dict[str, str]):
    """First context that breaks a partition of C's parallel morphisms, or None.

    ``rep_of`` maps each morphism to its class representative.  The
    partition is a congruence when every v related to its representative u
    stays related under one-sided contexts u.p ~ v.p and q.u ~ q.v; closure
    under the two-sided contexts q.u.p ~ q.v.p follows by applying both.  A
    witness is (u, v, p, q) with an identity on the side left unused.
    """
    comp = C.composition
    for m in C.morphisms:
        v = m.name
        u = rep_of[v]
        if u == v:
            continue
        for p in C._ending_at[m.dom]:
            if rep_of[comp[(u, p)]] != rep_of[comp[(v, p)]]:
                return (u, v, p, C.identities[m.cod])
        for q in C._starting_at[m.cod]:
            if rep_of[comp[(q, u)]] != rep_of[comp[(q, v)]]:
                return (u, v, C.identities[m.dom], q)
    return None


class _UnionFind:
    def __init__(self, items: Iterable[str]):
        self.parent = {x: x for x in items}

    def find(self, x: str) -> str:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, x: str, y: str) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if ry < rx:
            rx, ry = ry, rx
        self.parent[ry] = rx
        return True


def _saturate(A: FinCategory, generators, extra_rule=None) -> Congruence:
    """Close a relation on morphisms under composition contexts (and any
    extra rule) with union-find plus a worklist, then package the classes.

    Each merged pair (u, v) is pushed through the one-sided contexts u.p ~ v.p
    and q.u ~ q.v only; a two-sided context q.u.p is reached by merging q.u
    with q.v first and then precomposing that pair."""
    uf = _UnionFind(m.name for m in A.morphisms)
    work: List[Tuple[str, str]] = []
    for (u, v) in generators:
        if not A.has_morphism(u) or not A.has_morphism(v):
            raise ValidationError("generator mentions unknown morphism", witness=(u, v))
        if A.dom(u) != A.dom(v) or A.cod(u) != A.cod(v):
            raise NonParallelGenerator(
                "generator (%s, %s) is not a parallel pair" % (u, v), witness=(u, v)
            )
        if uf.union(u, v):
            work.append((u, v))
    comp = A.composition
    while work:
        u, v = work.pop()
        um = A._mor[u]
        for p in A._ending_at[um.dom]:
            a, b = comp[(u, p)], comp[(v, p)]
            if uf.union(a, b):
                work.append((a, b))
        for q in A._starting_at[um.cod]:
            a, b = comp[(q, u)], comp[(q, v)]
            if uf.union(a, b):
                work.append((a, b))
        if extra_rule is not None:
            for (a, b) in extra_rule(u, v):
                if uf.union(a, b):
                    work.append((a, b))
    classes: Dict[str, List[str]] = {}
    for m in A.morphisms:
        classes.setdefault(uf.find(m.name), []).append(m.name)
    return Congruence(A, list(classes.values()))


def congruence_closure(A: FinCategory, generators: Iterable[Tuple[str, str]]) -> Congruence:
    """Least congruence relating each generator pair.

    Reaches a fixpoint: feeding the result's pairs back in changes nothing.
    """
    return _saturate(A, generators)


def quotient_by_congruence(A: FinCategory, cong: Congruence):
    """Quotient category and its projection functor.

    Objects are reused from A; each morphism class is named by its
    lexicographically least member.
    """
    if cong.base != A:
        raise BoundaryMismatch("congruence lives on a different category")
    morphisms = []
    done = set()
    for m in A.morphisms:
        r = cong.rep_of[m.name]
        if r not in done:
            done.add(r)
            morphisms.append(Morphism(r, m.dom, m.cod))
    identities = {a: cong.rep_of[A.identity(a)] for a in A.objects}
    composition = {}
    for g in morphisms:
        for f in morphisms:
            if f.cod == g.dom:
                composition[(g.name, f.name)] = cong.rep_of[A.compose(g.name, f.name)]
    Q = FinCategory(A.objects, morphisms, identities, composition,
                    name="%s/~" % (A.name or "?"))
    q = Functor(
        A,
        Q,
        {a: a for a in A.objects},
        {m.name: cong.rep_of[m.name] for m in A.morphisms},
        name="q",
    )
    return Q, q


# -- classification ----------------------------------------------------


@dataclass(frozen=True)
class FunctorFlags:
    bo: bool
    full: bool
    faithful: bool
    so: bool
    injective_on_objects: bool
    ff: bool
    bo_full: bool
    ioff: bool


def classify(F: Functor) -> FunctorFlags:
    """Decide the factorisation-relevant classes of a functor."""
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


# -- enumeration -------------------------------------------------------

# Each entry keeps the size of the search that filled it: functors with
# (object-map count, nodes visited), transformations with the largest partial
# product of the component space.  A hit raises exactly when the cold search
# would have, so a result never depends on what the cache already holds.
_FUNCTOR_CACHE: Dict[Tuple[FinCategory, FinCategory], Tuple[Tuple[Functor, ...], int, int]] = {}
_NAT_CACHE: Dict[Tuple[Functor, Functor], Tuple[Tuple[NatTransformation, ...], int]] = {}


def _functor_limit_check(n_obj_maps: int, visited: int, limit: int) -> None:
    if n_obj_maps > limit:
        raise SizeLimitExceeded(
            "object-map space %d exceeds limit %d" % (n_obj_maps, limit)
        )
    if visited > limit:
        raise SizeLimitExceeded("functor search exceeded limit %d" % limit)


def enumerate_functors(
    A: FinCategory, B: FinCategory, limit: int = DEFAULT_SEARCH_LIMIT
) -> Tuple[Functor, ...]:
    """All functors A -> B, in a fixed deterministic order.

    Backtracking over object maps then morphism maps; raises
    SizeLimitExceeded when the search frontier would pass ``limit``.
    Each composition triple is checked once per node, at the step that
    assigns its last non-identity morphism; identities are fixed by the
    object map, so a triple of identities always holds.
    """
    cached = _FUNCTOR_CACHE.get((A, B))
    if cached is not None:
        out, n_obj_maps, visited = cached
        _functor_limit_check(n_obj_maps, visited, limit)
        return out
    n_obj_maps = len(B.objects) ** len(A.objects) if A.objects else 1
    _functor_limit_check(n_obj_maps, 0, limit)
    non_identity = [m for m in A.morphisms if not A.is_identity(m.name)]
    step = {m.name: k for k, m in enumerate(non_identity)}
    checks: List[List[Tuple[str, str, str]]] = [[] for _ in non_identity]
    for (g, f, h) in A._triples:
        k = max(step.get(g, -1), step.get(f, -1), step.get(h, -1))
        if k >= 0:
            checks[k].append((g, f, h))
    B_comp = B.composition
    results: List[Functor] = []
    visited = 0
    omap: Dict[str, str] = {}
    mmap: Dict[str, str] = {}

    def backtrack(k: int):
        nonlocal visited
        if k == len(non_identity):
            results.append(Functor(A, B, omap, dict(mmap)))
            return
        m = non_identity[k]
        for cand in B.hom(omap[m.dom], omap[m.cod]):
            visited += 1
            if visited > limit:
                raise SizeLimitExceeded("functor search exceeded limit %d" % limit)
            mmap[m.name] = cand
            for (g, f, h) in checks[k]:
                if B_comp[(mmap[g], mmap[f])] != mmap[h]:
                    break
            else:
                backtrack(k + 1)
            del mmap[m.name]

    for combo in itertools.product(B.objects, repeat=len(A.objects)):
        omap = dict(zip(A.objects, combo))
        mmap = {A.identity(a): B.identity(omap[a]) for a in A.objects}
        backtrack(0)
    out = tuple(results)
    _FUNCTOR_CACHE[(A, B)] = (out, n_obj_maps, visited)
    return out


def enumerate_nat_transformations(
    F: Functor, G: Functor, limit: int = DEFAULT_SEARCH_LIMIT
) -> Tuple[NatTransformation, ...]:
    """All natural transformations F => G, deterministic order."""
    if F.source != G.source or F.target != G.target:
        raise BoundaryMismatch("need parallel functors")
    cached = _NAT_CACHE.get((F, G))
    if cached is not None:
        out, peak = cached
        if peak > limit:
            raise SizeLimitExceeded("component space exceeds limit %d" % limit)
        return out
    A, B = F.source, F.target
    slots = [B.hom(F.obj(a), G.obj(a)) for a in A.objects]
    total = peak = 1
    for s in slots:
        total *= len(s)
        peak = max(peak, total)
        if peak > limit:
            raise SizeLimitExceeded("component space exceeds limit %d" % limit)
    results = []
    for combo in itertools.product(*slots):
        comps = dict(zip(A.objects, combo))
        natural = True
        for m in A.morphisms:
            if B.compose(G.mor(m.name), comps[m.dom]) != B.compose(
                comps[m.cod], F.mor(m.name)
            ):
                natural = False
                break
        if natural:
            results.append(NatTransformation(F, G, comps))
    out = tuple(results)
    _NAT_CACHE[(F, G)] = (out, peak)
    return out
