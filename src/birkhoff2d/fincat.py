"""Finite categories, functors, natural transformations and congruences.

Everything is tabulated.  A category stores its objects, morphisms,
identities and full composition table, so all laws are decided by direct
inspection and every construction in the package stays finite and
deterministic.  The tables derived from those fields (morphisms by name,
hom-sets, the composable triples ``(g, f, g after f)``, the morphisms
ending and starting at each object, inverses, the functor search's step
plan, and the search results, bof middles and kernel data kept on it)
are made on first use, so the law checks, congruence closure and functor
search visit only composable data, and a category that is only built and
compared never pays for them.  Functors are searched by :func:`functor_maps`
over whole functor spaces (enumeration, kernel mediators, algebra
homomorphisms), transformations by one search over whole hom-sets
(enumeration, algebra 2-cells) that decides naturality with
:func:`naturality_witness`.  Both searches take optional laws, equations
``table[images of args] == image of result``: the functor search checks
each at the step that assigns its last morphism, the transformation
search with naturality on each choice.
Values from outside, given to the public constructors (and so every
value loaded from JSON), are validated.  Constructions from validated
parts (search results, composites, whiskers, products, quotients,
factorisation legs) use each type's private ``_trusted`` builder instead,
which does the constructor's bookkeeping without the law check.  Values
are immutable afterwards.  Equality is decided by comparing the fields
that make up a value, ignoring the display name; the sorted identity key
``_key`` and the hash are made from the same fields on first use, so a
value that is never hashed never pays for them.  A whisker is only its
component map, so no 2-cell is built for it and no boundary functor is
composed.  2-cells with one common boundary are compared by their
component maps.  No search is pinned to a lift: lifts of a functor are
read from :func:`_precomposition_fibres` or forced by
:func:`_through_quotient`, and lifts of a 2-cell from :func:`_whisker_fibres`.

Identifiers (object and morphism names) are opaque strings.  Iteration
everywhere follows declaration order, and canonical representatives are
chosen as the lexicographically least name, so repeated runs produce
byte-identical results.
"""
from __future__ import annotations

import itertools
import operator
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


class _made_on_first_use:
    """A property computed on first read and then kept as an instance
    attribute, which shadows it.  Unlike ``functools.cached_property`` it
    stores the value with ``setattr`` and never reads the instance
    ``__dict__``: on CPython 3.11 that read makes every later attribute
    lookup on the instance about twice as slow.  A value kept this way is
    still read about three times slower than a plain attribute, since the
    class attribute of the same name stops the interpreter from
    specialising the lookup, so loops read it into a local first."""

    def __init__(self, compute):
        self.compute, self.name = compute, compute.__name__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = self.compute(instance)
        setattr(instance, self.name, value)
        return value


@dataclass(frozen=True)
class Morphism:
    name: str
    dom: str
    cod: str


class FinCategory:
    """A finite category given by objects, morphisms and a total composition table.

    ``composition`` must contain an entry for every composable pair (g, f)
    with cod(f) == dom(g), keyed ``(g, f)`` and valued with the name of
    ``g after f``.  :func:`birkhoff2d.jsonio.validate_category` builds one
    from its on-disk description, filling in identity-forced entries.
    """

    def __init__(
        self,
        objects: Sequence[str],
        morphisms: Sequence[Morphism],
        identities: Dict[str, str],
        composition: Dict[Tuple[str, str], str],
        name: str = "",
    ):
        self._fill(objects, morphisms, identities, composition, name)
        self._validate()

    @classmethod
    def _trusted(cls, objects, morphisms, identities, composition, name=""):
        """The constructor without ``_validate``, for parts that already
        satisfy the laws: quotients, products, coproducts, kernel apexes and
        factorisation middles of validated categories."""
        self = cls.__new__(cls)
        self._fill(objects, morphisms, identities, composition, name)
        return self

    def _fill(self, objects, morphisms, identities, composition, name) -> None:
        self.name = name
        self.objects: Tuple[str, ...] = tuple(objects)
        self.morphisms: Tuple[Morphism, ...] = tuple(morphisms)
        self.identities: Dict[str, str] = dict(identities)
        self.composition: Dict[Tuple[str, str], str] = dict(composition)

    # -- tables, made on first use from the four fields ------------------

    @_made_on_first_use
    def _mor(self) -> Dict[str, Morphism]:
        return {m.name: m for m in self.morphisms}

    @_made_on_first_use
    def _objset(self) -> frozenset:
        return frozenset(self.objects)

    # per-object in- and out-lists, declaration order; an unknown endpoint
    # gets a list too, and _validate rejects it before use

    @_made_on_first_use
    def _ending_at(self) -> Dict[str, List[str]]:
        ending_at: Dict[str, List[str]] = {a: [] for a in self.objects}
        for m in self.morphisms:
            ending_at.setdefault(m.cod, []).append(m.name)
        return ending_at

    @_made_on_first_use
    def _starting_at(self) -> Dict[str, List[str]]:
        starting_at: Dict[str, List[str]] = {a: [] for a in self.objects}
        for m in self.morphisms:
            starting_at.setdefault(m.dom, []).append(m.name)
        return starting_at

    @_made_on_first_use
    def _hom(self) -> Dict[Tuple[str, str], Tuple[str, ...]]:
        hom: Dict[Tuple[str, str], Tuple[str, ...]] = {}
        for m in self.morphisms:
            hom[(m.dom, m.cod)] = hom.get((m.dom, m.cod), ()) + (m.name,)
        return hom

    @_made_on_first_use
    def _triples(self) -> Tuple[Tuple[str, str, str], ...]:
        """Every (g, f, g after f), in composable_pairs() order; needs a
        total table."""
        comp = self.composition
        ending_at = self._ending_at
        return tuple((g.name, f, comp[(g.name, f)])
                     for g in self.morphisms for f in ending_at[g.dom])

    @_made_on_first_use
    def _identity_names(self) -> frozenset:
        return frozenset(self.identities.values())

    @_made_on_first_use
    def _inverses(self) -> Dict[str, str]:
        """Each invertible morphism's first two-sided inverse in its
        reverse hom-set."""
        inv: Dict[str, str] = {}
        for m in self.morphisms:
            for w in self.hom(m.cod, m.dom):
                if (
                    self.compose(w, m.name) == self.identity(m.dom)
                    and self.compose(m.name, w) == self.identity(m.cod)
                ):
                    inv[m.name] = w
                    break
        return inv

    @_made_on_first_use
    def _functors_to(self) -> Dict["FinCategory", tuple]:
        """The results of :func:`enumerate_functors` out of this category
        by target, and (:attr:`_nats_between`) of
        :func:`enumerate_nat_transformations` by pair of functors out of it.
        They live as long as the category does.  Each entry keeps the size
        of the search that filled it (nodes visited; the peak partial
        product of the component space), so a kept result raises exactly
        where a cold search would.  The verdicts of
        :func:`birkhoff2d.kernel.verify_kernel_universal` on this category
        as an apex are kept the same way (:attr:`_universality`)."""
        return {}

    @_made_on_first_use
    def _nats_between(self) -> Dict[tuple, tuple]:
        return {}

    @_made_on_first_use
    def _universality(self) -> Dict[tuple, tuple]:
        return {}

    @_made_on_first_use
    def _bof_middles(self) -> Dict[Tuple[Tuple[str, ...], ...], tuple]:
        """The fields of the bof factorisation middle (quotient category
        and projection) of each kernel partition of this category that
        :func:`birkhoff2d.factor.factor_bof` has met, keyed by the
        partition; it lives as long as the category does."""
        return {}

    @_made_on_first_use
    def _bof_kernels(self) -> Dict[Tuple[Tuple[str, ...], ...], tuple]:
        """The fields of the kernel data of each kernel partition of this
        category that :func:`birkhoff2d.kernel.bof_kernel` has met, keyed
        and kept as :attr:`_bof_middles` is."""
        return {}

    @_made_on_first_use
    def _search_plan(self):
        """The non-identity morphisms in the functor search's assignment
        order, and each composition triple filed under the step that
        assigns its last non-identity member."""
        non_identity = [m for m in self.morphisms if not self.is_identity(m.name)]
        step = {m.name: k for k, m in enumerate(non_identity)}
        checks: List[List[Tuple[str, str, str]]] = [[] for _ in non_identity]
        for (g, f, h) in self._triples:
            k = max(step.get(g, -1), step.get(f, -1), step.get(h, -1))
            if k >= 0:
                checks[k].append((g, f, h))
        return non_identity, checks

    def _file_laws(self, laws):
        """Laws ``(table, args, result)`` over these morphisms, filed as
        :attr:`_search_plan` files composition triples: a list of those whose
        members are all identities, and per step a list of those whose last
        non-identity member that step assigns."""
        step = {m.name: k for k, m in enumerate(self._search_plan[0])}
        fixed: List[tuple] = []
        filed: List[List[tuple]] = [[] for _ in step]
        for law in laws:
            k = max([step.get(u, -1) for u in law[1]] + [step.get(law[2], -1)])
            (filed[k] if k >= 0 else fixed).append(law)
        return fixed, filed

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
        ending_at = self._ending_at
        for g in self.morphisms:
            for f in ending_at[g.dom]:
                yield (g.name, f)

    def parallel_pairs(self) -> Iterator[Tuple[str, str]]:
        """Unordered pairs of distinct parallel morphisms, declaration order."""
        for i, u in enumerate(self.morphisms):
            for v in self.morphisms[i + 1 :]:
                if u.dom == v.dom and u.cod == v.cod:
                    yield (u.name, v.name)

    def inverse(self, u: str) -> Optional[str]:
        """Name of a two-sided inverse of u, or None."""
        return self._inverses.get(u)

    # -- validation ----------------------------------------------------

    def _validate(self) -> None:
        mor, objset = self._mor, self._objset
        _require_distinct(self.objects, "object")
        _require_distinct([m.name for m in self.morphisms], "morphism")
        for m in self.morphisms:
            if m.dom not in objset or m.cod not in objset:
                raise ValidationError(
                    "morphism %s has unknown endpoint" % m.name, witness=(m.name, m.dom, m.cod)
                )
        for a in self.objects:
            i = self.identities.get(a)
            if i is None or i not in mor:
                raise MissingIdentity("object %s has no identity" % a, witness=a)
            im = mor[i]
            if im.dom != a or im.cod != a:
                raise MissingIdentity(
                    "identity of %s is not an endomorphism of %s" % (a, a), witness=a
                )
        for a in self.identities:
            if a not in objset:
                raise ValidationError("identity listed for unknown object %r" % a, witness=a)
        comp = self.composition
        ending_at = self._ending_at
        # table keys refer to known composable morphisms
        for (g, f) in comp:
            if g not in mor or f not in mor:
                raise IllTypedComposition(
                    "composition entry %r over unknown morphisms" % ((g, f),), witness=(g, f)
                )
            if mor[f].cod != mor[g].dom:
                raise IllTypedComposition(
                    "entry (%s, %s) is not a composable pair" % (g, f), witness=(g, f)
                )
            if comp[(g, f)] not in mor:
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
            hm = mor[h]
            if hm.dom != mor[f].dom or hm.cod != mor[g].cod:
                raise IllTypedComposition(
                    "result of (%s, %s) has wrong boundary" % (g, f), witness=(g, f)
                )
        for hm in self.morphisms:
            h = hm.name
            for g in ending_at[hm.dom]:
                hg = comp[(h, g)]
                for f in ending_at[mor[g].dom]:
                    if comp[(h, comp[(g, f)])] != comp[(hg, f)]:
                        raise AssociativityViolation(
                            "associativity fails on (%s, %s, %s)" % (h, g, f),
                            witness=(h, g, f),
                        )

    # -- identity ------------------------------------------------------

    @_made_on_first_use
    def _key(self):
        return (
            self.objects,
            tuple((m.name, m.dom, m.cod) for m in self.morphisms),
            tuple(sorted(self.identities.items())),
            tuple(sorted(self.composition.items())),
        )

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (isinstance(other, FinCategory) and self.objects == other.objects
                and self.morphisms == other.morphisms
                and self.identities == other.identities
                and self.composition == other.composition)

    @_made_on_first_use
    def _hash(self):
        return hash(self._key)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "FinCategory(%s: %d objects, %d morphisms)" % (
            self.name or "?",
            len(self.objects),
            len(self.morphisms),
        )


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
        self._fill(source, target, on_objects, on_morphisms, name)
        witness = functor_law_witness(source, target, self.on_objects, self.on_morphisms)
        if witness is not None:
            raise ValidationError("functor %s: %s" % (name or "?", witness[0]),
                                  witness=witness)

    @classmethod
    def _trusted(cls, source, target, on_objects, on_morphisms, name=""):
        """The constructor without the law check, for maps that are
        functorial by construction: search results, composites, identities,
        projections, injections, quotient maps, factorisation legs and the
        legs and comparisons of kernel data."""
        self = cls.__new__(cls)
        self._fill(source, target, on_objects, on_morphisms, name)
        return self

    def _fill(self, source, target, on_objects, on_morphisms, name) -> None:
        self.source = source
        self.target = target
        self.on_objects = dict(on_objects)
        self.on_morphisms = dict(on_morphisms)
        self.name = name

    def obj(self, a: str) -> str:
        return self.on_objects[a]

    def mor(self, u: str) -> str:
        return self.on_morphisms[u]

    @_made_on_first_use
    def _key(self):
        return (self.source._key, self.target._key,
                tuple(sorted(self.on_objects.items())),
                tuple(sorted(self.on_morphisms.items())))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (isinstance(other, Functor)
                and (self.source is other.source or self.source == other.source)
                and (self.target is other.target or self.target == other.target)
                and self.on_objects == other.on_objects
                and self.on_morphisms == other.on_morphisms)

    @_made_on_first_use
    def _hash(self):
        return hash(self._key)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "Functor(%s: %s -> %s)" % (
            self.name or "?",
            self.source.name or "?",
            self.target.name or "?",
        )


def _differ(x, y) -> bool:
    """``x != y``, deciding by identity first: ``!=`` alone goes through
    ``object.__ne__`` into the Python-level ``__eq__`` even when both sides
    are one object, as they are at most boundary checks."""
    return x is not y and x != y


def _require_distinct(names: Iterable[str], kind: str, error=ValidationError) -> None:
    """Raise ``error`` naming the first of ``names`` that an earlier one repeats."""
    seen = set()
    for name in names:
        if name in seen:
            raise error("duplicate %s name %r" % (kind, name), witness=name)
        seen.add(name)


def _stray_key(mapping, domain):
    """The first key of ``mapping`` outside ``domain``, or None."""
    return next((k for k in mapping if k not in domain), None)


def functor_law_witness(source, target, on_objects, on_morphisms):
    """First broken functor law, or stray entry in either map, or None.
    The public constructor's check."""
    target_objects = target._objset
    for a in source.objects:
        b = on_objects.get(a)
        if b is None:
            return ("object %s unmapped" % a, a)
        if b not in target_objects:
            return ("object %s mapped outside target" % a, a)
    stray = _stray_key(on_objects, source._objset)
    if stray is not None:
        return ("on_objects maps %r, which is not a source object" % stray, stray)
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
    stray = _stray_key(on_morphisms, source._mor)
    if stray is not None:
        return ("on_morphisms maps %r, which is not a source morphism" % stray, stray)
    for a in source.objects:
        if on_morphisms[source.identities[a]] != target.identities[on_objects[a]]:
            return ("identity of %r not preserved" % a, a)
    # boundaries are preserved, so every image pair is composable in target
    target_comp = target.composition
    for (g, f, h) in source._triples:
        if on_morphisms[h] != target_comp[(on_morphisms[g], on_morphisms[f])]:
            return ("composition (%s, %s) not preserved" % (g, f), (g, f))
    return None


def identity_functor(A: FinCategory) -> Functor:
    return Functor._trusted(
        A,
        A,
        {a: a for a in A.objects},
        {m.name: m.name for m in A.morphisms},
        name="id_%s" % (A.name or "?"),
    )


def compose_functors(g: Functor, f: Functor) -> Functor:
    """g after f, computed pointwise."""
    if _differ(f.target, g.source):
        raise BoundaryMismatch(
            "cannot compose %r after %r: middle categories differ" % (g, f)
        )
    fo, fm, go, gm = f.on_objects, f.on_morphisms, g.on_objects, g.on_morphisms
    return Functor._trusted(
        f.source,
        g.target,
        {a: go[fo[a]] for a in f.source.objects},
        {m.name: gm[fm[m.name]] for m in f.source.morphisms},
        name="%s.%s" % (g.name or "?", f.name or "?"),
    )


class NatTransformation:
    """A natural transformation between parallel functors."""

    def __init__(self, source: Functor, target: Functor, components: Dict[str, str],
                 name: str = ""):
        if source.source != target.source or source.target != target.target:
            raise BoundaryMismatch("transformation needs parallel functors")
        self._fill(source, target, components, name)
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
        stray = _stray_key(self.components, A._objset)
        if stray is not None:
            raise ValidationError("components map %r, which is not a source object" % stray,
                                  witness=stray)
        witness = naturality_witness(source, target, self.components)
        if witness is not None:
            raise ValidationError("naturality fails at %s" % witness[0], witness=witness)

    @classmethod
    def _trusted(cls, source, target, components, name=""):
        """The constructor without its checks, for components that are
        natural by construction: search results, identities and the
        2-cells of kernel data."""
        self = cls.__new__(cls)
        self._fill(source, target, components, name)
        return self

    def _fill(self, source, target, components, name) -> None:
        self.source = source
        self.target = target
        self.components = dict(components)
        self.name = name

    def at(self, a: str) -> str:
        return self.components[a]

    @_made_on_first_use
    def _key(self):
        return (self.source._key, self.target._key, tuple(sorted(self.components.items())))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (isinstance(other, NatTransformation) and self.source == other.source
                and self.target == other.target and self.components == other.components)

    @_made_on_first_use
    def _hash(self):
        return hash(self._key)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "NatTransformation(%s => %s)" % (self.source.name or "?",
                                                self.target.name or "?")


def naturality_witness(F: Functor, G: Functor, components: Dict[str, str]):
    """First (m, G(m).c_dom, c_cod.F(m)) with the two sides unequal, or None."""
    comp = F.target.composition
    for m in F.source.morphisms:
        lhs = comp[(G.on_morphisms[m.name], components[m.dom])]
        rhs = comp[(components[m.cod], F.on_morphisms[m.name])]
        if lhs != rhs:
            return (m.name, lhs, rhs)
    return None


def whisker(h: Functor, alpha: NatTransformation) -> Dict[str, str]:
    """The components of the whisker h * alpha: h applied to each component
    of alpha.  Only the component map is made; its boundaries would be the
    composites of h with alpha's source and target.  The other whisker,
    alpha * h, is read in bulk by :func:`_whisker_fibres`."""
    if _differ(alpha.source.target, h.source):
        raise BoundaryMismatch("left whisker: functor must start at alpha's target category")
    hm, comps = h.on_morphisms, alpha.components
    return {a: hm[comps[a]] for a in alpha.source.source.objects}


def _whisker_fibres(h: Functor, cells) -> Dict[tuple, int]:
    """How many of ``cells`` have each whisker alpha * h, keyed by its
    components at the h-images of ``h.source.objects`` in order; a 2-cell
    below lifts along h to as many cells as its key counts.  A plain dict:
    most calls count at most one cell, and a Counter costs more to make."""
    images = [h.on_objects[c] for c in h.source.objects]
    fibres: Dict[tuple, int] = {}
    for a in cells:
        key = tuple([a.components[b] for b in images])
        fibres[key] = fibres.get(key, 0) + 1
    return fibres


def _precomposition_fibres(f: Functor, functors) -> Dict[tuple, List[Functor]]:
    """The 1-cell twin of :func:`_whisker_fibres`: ``functors`` in the
    order given, each d filed under d after f keyed by its morphism map on
    ``f.source.morphisms``, which fixes the object map as identities are
    distinct."""
    images = [f.on_morphisms[u.name] for u in f.source.morphisms]
    fibres: Dict[tuple, List[Functor]] = {}
    for d in functors:
        dm = d.on_morphisms
        fibres.setdefault(tuple([dm[v] for v in images]), []).append(d)
    return fibres


def _through_quotient(e: Functor, x: Functor) -> Optional[Functor]:
    """The one d with d after e == x, for e bijective on objects and full
    (so onto morphisms): d(e u) = x(u), or None when e identifies two
    morphisms that x keeps apart.  It is a functor because e and x are."""
    xm = x.on_morphisms
    on_morphisms: Dict[str, str] = {}
    for u, v in e.on_morphisms.items():
        if on_morphisms.setdefault(v, xm[u]) != xm[u]:
            return None
    xo = x.on_objects
    return Functor._trusted(e.target, x.target,
                            {b: xo[a] for a, b in e.on_objects.items()}, on_morphisms)


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

    category: FinCategory
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
    cat = FinCategory._trusted(objects, morphisms, identities, composition, name=name)
    projections = []
    for i, C in enumerate(factors):
        projections.append(
            Functor._trusted(
                cat,
                C,
                {obj_of[t]: t[i] for t in obj_tuples},
                {mor_of[t]: t[i] for t in mor_tuples},
                name="pr%d" % (i + 1),
            )
        )
    return PowerSpan(cat, obj_of, mor_of, tuple(projections))


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
    cat = FinCategory._trusted(objects, morphisms, identities, composition,
                               name=name or "(%s+%s)" % (A.name or "?", B.name or "?"))
    inl = Functor._trusted(A, cat, lo, lm, name="inl")
    inr = Functor._trusted(B, cat, ro, rm, name="inr")
    return cat, inl, inr


# -- congruences and quotients ----------------------------------------


class Congruence:
    """A partition of the morphisms of a category into parallel classes,
    closed under pre- and post-composition."""

    def __init__(self, base: FinCategory, classes: Sequence[Sequence[str]]):
        self._fill(base, classes)
        if self.classes and not self.classes[0]:  # an empty class sorts first
            raise ValidationError("empty congruence class")
        if set(self.rep_of) != {m.name for m in base.morphisms} or sum(
            len(c) for c in self.classes
        ) != len(base.morphisms):
            raise ValidationError("classes do not partition the morphisms")
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

    @classmethod
    def _trusted(cls, base, classes):
        """The constructor without its checks, for the classes of a
        congruence closure (parallel generators, saturated under contexts)
        and for the kernel classes of a functor."""
        self = cls.__new__(cls)
        self._fill(base, classes)
        return self

    def _fill(self, base, classes) -> None:
        """Canonical classes (each sorted, ordered by least member) and
        each morphism's representative, its class's least member."""
        self.base = base
        # the classes are disjoint, so as tuples they sort by least member
        self.classes: Tuple[Tuple[str, ...], ...] = tuple(
            sorted(tuple(sorted(cl)) for cl in classes))
        self.rep_of: Dict[str, str] = {u: cl[0] for cl in self.classes for u in cl}

    def related(self, u: str, v: str) -> bool:
        return self.rep_of[u] == self.rep_of[v]

    @_made_on_first_use
    def _key(self):
        return (self.base._key, self.classes)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (isinstance(other, Congruence) and self.base == other.base
                and self.classes == other.classes)

    @_made_on_first_use
    def _hash(self):
        return hash(self._key)

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
    comp, ending_at, starting_at = C.composition, C._ending_at, C._starting_at
    for m in C.morphisms:
        v = m.name
        u = rep_of[v]
        if u == v:
            continue
        for p in ending_at[m.dom]:
            if rep_of[comp[(u, p)]] != rep_of[comp[(v, p)]]:
                return (u, v, p, C.identities[m.cod])
        for q in starting_at[m.cod]:
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


def congruence_closure(
    A: FinCategory, generators: Iterable[Tuple[str, str]], extra_rule=None
) -> Congruence:
    """Least congruence relating each generator pair and closed under
    ``extra_rule`` (pairs to relate whenever u ~ v), by union-find plus a
    worklist.

    Each merged pair (u, v) is pushed through the one-sided contexts u.p ~ v.p
    and q.u ~ q.v only; a two-sided context q.u.p is reached by merging q.u
    with q.v first and then precomposing that pair.  Reaches a fixpoint:
    feeding the result's pairs back in changes nothing.  Generators are
    checked to be parallel and contexts keep pairs parallel, so the result
    is built without re-checking; ``extra_rule`` must likewise relate
    parallel morphisms only, as the operation contexts of an algebra do.
    """
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
    comp, mor, ending_at, starting_at = A.composition, A._mor, A._ending_at, A._starting_at
    while work:
        u, v = work.pop()
        um = mor[u]
        for p in ending_at[um.dom]:
            a, b = comp[(u, p)], comp[(v, p)]
            if uf.union(a, b):
                work.append((a, b))
        for q in starting_at[um.cod]:
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
    return Congruence._trusted(A, list(classes.values()))


def quotient_by_congruence(A: FinCategory, cong: Congruence):
    """Quotient category and its projection functor.

    Objects are reused from A; each morphism class is named by its
    lexicographically least member.
    """
    if _differ(cong.base, A):
        raise BoundaryMismatch("congruence lives on a different category")
    rep, mor = cong.rep_of, A._mor
    # a class is placed by its first member in A's order and named by its
    # least member, whose own Morphism is parallel to that first member
    morphisms = [mor[r] for r in dict.fromkeys(rep[m.name] for m in A.morphisms)]
    identities = {a: rep[A.identity(a)] for a in A.objects}
    composition = {(g, f): rep[h] for (g, f, h) in A._triples
                   if rep[g] == g and rep[f] == f}
    Q = FinCategory._trusted(A.objects, morphisms, identities, composition,
                             name="%s/~" % (A.name or "?"))
    q = Functor._trusted(
        A,
        Q,
        {a: a for a in A.objects},
        {m.name: rep[m.name] for m in A.morphisms},
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
    """Decide the factorisation-relevant classes of a functor, in one pass
    over each category's fields and no table."""
    A, B = F.source, F.target
    fo, fm = F.on_objects, F.on_morphisms
    n_image_objects = len(set(fo.values()))
    so = n_image_objects == len(B.objects)
    injective_on_objects = n_image_objects == len(A.objects)
    bo = so and injective_on_objects
    # the distinct images per source hom-set; each hom-set's images are a
    # subset of its target hom-set, so F is full exactly when their number
    # is the sum of |hom(Fa, Fb)| over all pairs (a, b), which counts every
    # morphism x -> y of B once per pair of objects sent to x and y
    image_size = len({(m.dom, m.cod, fm[m.name]) for m in A.morphisms})
    faithful = image_size == len(A.morphisms)
    sent_to = dict.fromkeys(B.objects, 0)
    for b in fo.values():
        sent_to[b] += 1
    full = image_size == sum([sent_to[m.dom] * sent_to[m.cod] for m in B.morphisms])
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


def _kernel_classes(F: Functor) -> Tuple[Tuple[str, ...], ...]:
    """The kernel of F: its source's morphisms grouped by domain, codomain
    and F-image, each class in source order, the classes by first member."""
    fm = F.on_morphisms
    classes: Dict[Tuple[str, str, str], List[str]] = {}
    for u in F.source.morphisms:
        classes.setdefault((u.dom, u.cod, fm[u.name]), []).append(u.name)
    return tuple(map(tuple, classes.values()))


# -- enumeration -------------------------------------------------------


def _functor_limit_check(n_obj_maps: int, visited: int, limit: int) -> None:
    if n_obj_maps > limit:
        raise SizeLimitExceeded("object-map space %d exceeds limit %d" % (n_obj_maps, limit))
    if visited > limit:
        raise SizeLimitExceeded("functor search exceeded limit %d" % limit)


def _component_limit_check(peak: int, limit: int) -> None:
    if peak > limit:
        raise SizeLimitExceeded("component space exceeds limit %d" % limit)


def _laws_hold(laws, image) -> bool:
    """Does ``table[images of args] == image of result`` hold for every law
    ``(table, args, result)``, with ``image`` mapping each member?"""
    for table, args, result in laws:
        if table[tuple([image[u] for u in args])] != image[result]:
            return False
    return True


def functor_maps(
    A: FinCategory,
    B: FinCategory,
    limit: int = DEFAULT_SEARCH_LIMIT,
    laws: Optional[Tuple[list, List[list]]] = None,
) -> Tuple[List[Tuple[Dict[str, str], Dict[str, str]]], int]:
    """The functor search: the (object map, morphism map) pair of every
    functor A -> B whose morphism map satisfies ``laws``, together with
    the nodes visited.

    Backtracking over object maps then morphism maps, in declaration
    order, so a search with laws returns its results in the order the
    search without them lists them.  Each composition triple is checked
    once per node, at the step that assigns its last non-identity
    morphism; identities are fixed by the object map, so a triple of
    identities always holds.  ``laws`` is ``A._file_laws`` of equations
    ``table[images of args] == image of result`` over A's morphisms, and
    each is checked the same way: at its step, or once per object map when
    all its members are identities.  Raises SizeLimitExceeded when the
    object-map space or the nodes visited pass ``limit``.
    """
    _functor_limit_check(len(B.objects) ** len(A.objects), 0, limit)
    non_identity, checks = A._search_plan
    fixed, step_laws = (None, None) if laws is None else laws
    B_comp, B_hom = B.composition, B._hom
    results: List[Tuple[Dict[str, str], Dict[str, str]]] = []
    visited = 0
    omap: Dict[str, str] = {}
    mmap: Dict[str, str] = {}

    def backtrack(k: int):
        nonlocal visited
        if k == len(non_identity):
            results.append((dict(omap), dict(mmap)))
            return
        m = non_identity[k]
        for cand in B_hom.get((omap[m.dom], omap[m.cod]), ()):
            visited += 1
            if visited > limit:
                _functor_limit_check(0, visited, limit)
            mmap[m.name] = cand
            for (g, f, h) in checks[k]:
                if B_comp[(mmap[g], mmap[f])] != mmap[h]:
                    break
            else:
                if step_laws is None or _laws_hold(step_laws[k], mmap):
                    backtrack(k + 1)
            del mmap[m.name]

    for combo in itertools.product(B.objects, repeat=len(A.objects)):
        omap = dict(zip(A.objects, combo))
        mmap = {A.identity(a): B.identity(omap[a]) for a in A.objects}
        if fixed is None or _laws_hold(fixed, mmap):
            backtrack(0)
    return results, visited


def enumerate_functors(
    A: FinCategory, B: FinCategory, limit: int = DEFAULT_SEARCH_LIMIT
) -> Tuple[Functor, ...]:
    """All functors A -> B, in a fixed deterministic order, kept on A."""
    kept = A._functors_to.get(B)
    if kept is None:
        maps, visited = functor_maps(A, B, limit)
        kept = A._functors_to[B] = (tuple(Functor._trusted(A, B, o, m) for o, m in maps), visited)
    _functor_limit_check(len(B.objects) ** len(A.objects), kept[1], limit)
    return kept[0]


def _component_slots(F: Functor, G: Functor):
    """The hom-sets F a -> G a over F's source objects, and the peak partial
    product of their sizes: the component space of the 2-cells F => G."""
    slots = [F.target.hom(F.obj(a), G.obj(a)) for a in F.source.objects]
    return slots, max(itertools.accumulate(map(len, slots), operator.mul, initial=1))


def _natural_components(F: Functor, G: Functor, limit: int, laws=None):
    """The component maps of every natural F => G, in product order over the
    hom-sets F a -> G a, that also satisfy ``laws``, equations
    ``table[components at args] == component at result`` over the source
    objects, and the peak partial product of the hom-set sizes."""
    slots, peak = _component_slots(F, G)
    _component_limit_check(peak, limit)
    choices = (dict(zip(F.source.objects, c)) for c in itertools.product(*slots))
    if laws is None:
        return [c for c in choices if naturality_witness(F, G, c) is None], peak
    return [c for c in choices
            if _laws_hold(laws, c) and naturality_witness(F, G, c) is None], peak


def enumerate_nat_transformations(
    F: Functor, G: Functor, limit: int = DEFAULT_SEARCH_LIMIT
) -> Tuple[NatTransformation, ...]:
    """All natural transformations F => G, deterministic order, kept on F.source."""
    if _differ(F.source, G.source) or _differ(F.target, G.target):
        raise BoundaryMismatch("need parallel functors")
    kept = F.source._nats_between.get((F, G))
    if kept is None:
        found, peak = _natural_components(F, G, limit)
        kept = F.source._nats_between[(F, G)] = (
            tuple(NatTransformation._trusted(F, G, c) for c in found), peak)
    _component_limit_check(kept[1], limit)  # a cold search has already raised here
    return kept[0]
