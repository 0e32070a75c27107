"""Presentations of Cat-valued algebraic theories and their finite algebras.

A presentation has a signature of operations, equations between terms,
a family of named structural 2-cell generators (each a parallel pair of
terms, possibly invertible) and equations between 2-cell expressions.
An :class:`Extension` enlarges a presentation by 2-cell equations only.

An :class:`Algebra` interprets operations as finite tables (functorial by
validation) and generators as natural families over all object tuples.
Terms are evaluated on object and morphism tuples, and 2-cell
expressions on morphism tuples; typing once, at construction: a
presentation or extension types each of its 2-cell equations when it is
built and keeps the arity, and an expression evaluates to the diagonal of
its naturality square at a morphism tuple, its component at an identity
tuple.  Evaluation runs a column at a time: each node of a term or
expression is one pass of table lookups over a column of tuples in
carrier product order, read in slices of at most ``_SLICE`` tuples.
:func:`eval_term_obj`, :func:`eval_term_mor` and :func:`eval_expr` are
its one-tuple case.

Satisfaction, homomorphisms, products, subalgebras, congruences and
quotients, and reflexive coequifiers of algebras all live here.

Equations are decided by one evaluator, :func:`satisfies`, which the
:class:`Algebra` constructor also calls for the presentation's own
equations; its loop over 2-cell equations also gives
:func:`birkhoff.reflect` the pairs it identifies.  Products, subalgebras and quotients build their structure
through one builder, :func:`_induced_algebra`, from pointwise value
functions.  Subalgebras are validated like any other algebra; products
and quotients by operation-closed congruences are lawful by construction
and use the trusted ``Algebra._trusted``, and homomorphisms built from
homomorphisms or found by the search use ``AlgebraHom._trusted``.

Homomorphisms and algebra 2-cells are not filtered from the carrier's
functors and transformations: :func:`enumerate_algebra_homs` is one run
of the functor search with the homomorphism laws, filed once per source
algebra, and :func:`algebra_two_cells` one run of the transformation
search with the operation laws of a 2-cell.  :func:`is_algebra_hom` is
the public ``AlgebraHom`` constructor's check.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .errors import (
    BoundaryMismatch,
    GeneratorComponentEscapes,
    LiftFailure,
    NonInvertibleComponent,
    NotClosedUnderOperations,
    NotFaithful,
    NotOperationClosed,
    SignatureMismatch,
    ValidationError,
)
from .factor import CheckResult
from .fincat import (
    DEFAULT_SEARCH_LIMIT,
    Congruence,
    FinCategory,
    Functor,
    NatTransformation,
    _differ,
    _made_on_first_use,
    _natural_components,
    _require_distinct,
    classify,
    compose_functors,
    congruence_closure,
    functor_maps,
    power_span,
    quotient_by_congruence,
)
from .kernel import ReflexiveData

# -- terms -------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    """Variable x_i; indices are 1-based."""

    index: int


@dataclass(frozen=True)
class App:
    """An operation applied to argument terms."""

    op: str
    args: Tuple["Term", ...]


Term = Union[Var, App]


def term_min_arity(t: Term) -> int:
    if isinstance(t, Var):
        return t.index
    return max((term_min_arity(a) for a in t.args), default=0)


def subst_term(t: Term, args: Sequence[Term]) -> Term:
    if isinstance(t, Var):
        return args[t.index - 1]
    return App(t.op, tuple(subst_term(a, args) for a in t.args))


def term_to_json(t: Term):
    if isinstance(t, Var):
        return ["var", t.index]
    return ["op", t.op] + [term_to_json(a) for a in t.args]


def term_from_json(data) -> Term:
    if not isinstance(data, (list, tuple)) or not data:
        raise ValidationError("term must be a non-empty array, not %r" % (data,), witness=data)
    head = data[0]
    if head == "var":
        if len(data) != 2 or type(data[1]) is not int or data[1] < 1:  # bool is no index
            raise ValidationError("bad variable term %r" % (data,), witness=data)
        return Var(data[1])
    if head == "op":
        if len(data) < 2 or not isinstance(data[1], str):
            raise ValidationError("bad operation term %r" % (data,), witness=data)
        return App(data[1], tuple(term_from_json(a) for a in data[2:]))
    raise ValidationError("unknown term head %r" % (head,), witness=data)


# -- 2-cell expressions ------------------------------------------------


@dataclass(frozen=True)
class IdCell:
    term: Term


@dataclass(frozen=True)
class GenCell:
    name: str


@dataclass(frozen=True)
class InvCell:
    name: str


@dataclass(frozen=True)
class VCompCell:
    after: "TwoCellExpr"
    before: "TwoCellExpr"


@dataclass(frozen=True)
class SubstCell:
    """Substitution of terms and/or 2-cells into a 2-cell.

    Covers whiskering and horizontal composition: term arguments act as
    identity 2-cells, expression arguments are composed in using the
    target-term action of the head.
    """

    head: "TwoCellExpr"
    args: Tuple[Union[Term, "TwoCellExpr"], ...]


TwoCellExpr = Union[IdCell, GenCell, InvCell, VCompCell, SubstCell]

_TERM_TYPES = (Var, App)


def expr_to_json(e: TwoCellExpr):
    if isinstance(e, IdCell):
        return ["id", term_to_json(e.term)]
    if isinstance(e, GenCell):
        return ["gen", e.name]
    if isinstance(e, InvCell):
        return ["inv", e.name]
    if isinstance(e, VCompCell):
        return ["vcomp", expr_to_json(e.after), expr_to_json(e.before)]
    if isinstance(e, SubstCell):
        args = [
            term_to_json(a) if isinstance(a, _TERM_TYPES) else expr_to_json(a)
            for a in e.args
        ]
        return ["subst", expr_to_json(e.head), args]
    raise TypeError(e)


def expr_from_json(data) -> TwoCellExpr:
    if not isinstance(data, (list, tuple)) or not data:
        raise ValidationError("2-cell expression must be a non-empty array", witness=data)
    head = data[0]
    if head == "id" and len(data) == 2:
        return IdCell(term_from_json(data[1]))
    if head in ("gen", "inv") and len(data) == 2:
        if not isinstance(data[1], str):
            raise ValidationError("bad generator name in %r" % (data,), witness=data)
        return (GenCell if head == "gen" else InvCell)(data[1])
    if head == "vcomp" and len(data) == 3:
        return VCompCell(expr_from_json(data[1]), expr_from_json(data[2]))
    if head == "subst" and len(data) == 3 and isinstance(data[2], list):
        args = []
        for a in data[2]:
            if isinstance(a, (list, tuple)) and a and a[0] in ("var", "op"):
                args.append(term_from_json(a))
            else:
                args.append(expr_from_json(a))
        return SubstCell(expr_from_json(data[1]), tuple(args))
    raise ValidationError("unknown 2-cell expression %r" % (data,), witness=data)


# -- signatures and presentations -------------------------------------


@dataclass(frozen=True)
class Operation:
    name: str
    arity: int


@dataclass(frozen=True)
class TwoCellGenerator:
    name: str
    arity: int
    source: Term
    target: Term
    invertible: bool


class Signature:
    def __init__(self, operations: Sequence[Operation]):
        self.operations: Tuple[Operation, ...] = tuple(operations)
        _require_distinct([op.name for op in self.operations], "operation", SignatureMismatch)
        for op in self.operations:
            if op.arity < 0:
                raise SignatureMismatch("negative arity for %r" % op.name, witness=op)
        self.arity: Dict[str, int] = {op.name: op.arity for op in self.operations}

    def check_term(self, t: Term, arity: int) -> None:
        if isinstance(t, Var):
            if not 1 <= t.index <= arity:
                raise SignatureMismatch(
                    "variable %d out of range for arity %d" % (t.index, arity), witness=t
                )
            return
        if t.op not in self.arity:
            raise SignatureMismatch("unknown operation %r" % t.op, witness=t)
        if len(t.args) != self.arity[t.op]:
            raise SignatureMismatch(
                "operation %s expects %d arguments, got %d"
                % (t.op, self.arity[t.op], len(t.args)),
                witness=t,
            )
        for a in t.args:
            self.check_term(a, arity)

    def __eq__(self, other):
        return isinstance(other, Signature) and self.operations == other.operations

    def __hash__(self):
        return hash(self.operations)


class Presentation:
    """Signature + term equations + 2-cell generators + 2-cell equations."""

    def __init__(
        self,
        signature: Signature,
        term_equations: Sequence[Tuple[Term, Term]] = (),
        generators: Sequence[TwoCellGenerator] = (),
        two_cell_equations: Sequence[Tuple[TwoCellExpr, TwoCellExpr]] = (),
        name: str = "",
    ):
        self.signature = signature
        self.term_equations: Tuple[Tuple[Term, Term], ...] = tuple(
            (l, r) for (l, r) in term_equations
        )
        self.generators: Tuple[TwoCellGenerator, ...] = tuple(generators)
        self.two_cell_equations: Tuple[Tuple[TwoCellExpr, TwoCellExpr], ...] = tuple(
            (l, r) for (l, r) in two_cell_equations
        )
        self.name = name
        _require_distinct([g.name for g in self.generators], "generator", SignatureMismatch)
        self.generator: Dict[str, TwoCellGenerator] = {g.name: g for g in self.generators}
        for g in self.generators:
            signature.check_term(g.source, g.arity)
            signature.check_term(g.target, g.arity)
        for (l, r) in self.term_equations:
            n = max(term_min_arity(l), term_min_arity(r))
            signature.check_term(l, n)
            signature.check_term(r, n)
        # each 2-cell equation with its arity, typed here and never again
        self._cell_equations = tuple(
            (l, r, self._equation_arity(l, r)) for (l, r) in self.two_cell_equations)
        self._key = (
            self.signature.operations,
            self.term_equations,
            self.generators,
            self.two_cell_equations,
        )
        self._hash = hash(self._key)

    def _type(self, e: TwoCellExpr) -> Tuple[Term, Term, Optional[int], int]:
        """Source and target terms of an expression, the arity its generators
        force (None if they force none) and the least arity its variables
        allow.  Boundary matching in composites is syntactic."""
        if isinstance(e, (GenCell, InvCell)):
            g = self.generator.get(e.name)
            if g is None:
                raise SignatureMismatch("unknown 2-cell generator %r" % e.name, witness=e)
            if isinstance(e, GenCell):
                return g.source, g.target, g.arity, g.arity
            if not g.invertible:
                raise SignatureMismatch("generator %s is not invertible" % e.name, witness=e)
            return g.target, g.source, g.arity, g.arity
        if isinstance(e, IdCell):
            n = term_min_arity(e.term)
            self.signature.check_term(e.term, n)
            return e.term, e.term, None, n
        if isinstance(e, VCompCell):
            s2, t2, r2, m2 = self._type(e.after)
            s1, t1, r1, m1 = self._type(e.before)
            if r1 is not None and r2 is not None and r1 != r2:
                raise BoundaryMismatch("vertical composite mixes arities", witness=e)
            if t1 != s2:
                raise BoundaryMismatch("vertical composite boundary mismatch", witness=(t1, s2))
            return s1, t2, (r2 if r2 is not None else r1), max(m1, m2)
        if isinstance(e, SubstCell):
            hs, ht, rh, mh = self._type(e.head)
            k = len(e.args)
            if rh is not None and rh != k:
                raise BoundaryMismatch(
                    "substitution head has arity %d, got %d arguments" % (rh, k), witness=e)
            if mh > k:
                raise BoundaryMismatch("substitution head needs more arguments", witness=e)
            srcs: List[Term] = []
            tgts: List[Term] = []
            rigid: Optional[int] = None
            minimal = 0
            for a in e.args:
                if isinstance(a, _TERM_TYPES):
                    ma = term_min_arity(a)
                    self.signature.check_term(a, ma)
                    sa, ta, ra = a, a, None
                else:
                    sa, ta, ra, ma = self._type(a)
                srcs.append(sa)
                tgts.append(ta)
                minimal = max(minimal, ma)
                if ra is not None:
                    if rigid is not None and rigid != ra:
                        raise BoundaryMismatch("substitution arguments mix arities", witness=e)
                    rigid = ra
            return subst_term(hs, srcs), subst_term(ht, tgts), rigid, minimal
        raise TypeError(e)

    def _equation_arity(self, lhs: TwoCellExpr, rhs: TwoCellExpr) -> int:
        """Type an equation between parallel 2-cell expressions and return
        its arity: the one its generators force, else the least its
        variables allow."""
        sl, tl, rl, ml = self._type(lhs)
        sr, tr, rr, mr = self._type(rhs)
        if rl is not None and rr is not None and rl != rr:
            raise BoundaryMismatch("expressions have incompatible arities")
        minimal = max(ml, mr)
        rigid = rl if rl is not None else rr
        n = minimal if rigid is None else rigid
        if n < minimal:
            raise BoundaryMismatch("resolved arity below minimal variable index")
        if sl != sr or tl != tr:
            raise BoundaryMismatch(
                "equation sides are not parallel", witness=((sl, tl), (sr, tr))
            )
        return n

    def __eq__(self, other):
        return isinstance(other, Presentation) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Presentation(%s: %d ops, %d generators)" % (
            self.name or "?",
            len(self.signature.operations),
            len(self.generators),
        )


class Extension:
    """A purely 2-cell-equational enlargement of a presentation."""

    def __init__(
        self,
        base: Presentation,
        added_two_cell_equations: Sequence[Tuple[TwoCellExpr, TwoCellExpr]],
        name: str = "",
    ):
        self.base = base
        self.added_two_cell_equations: Tuple[Tuple[TwoCellExpr, TwoCellExpr], ...] = tuple(
            (l, r) for (l, r) in added_two_cell_equations
        )
        self.name = name
        self._cell_equations = tuple(
            (l, r, base._equation_arity(l, r)) for (l, r) in self.added_two_cell_equations)
        self._key = (base._key, self.added_two_cell_equations)

    def __eq__(self, other):
        return isinstance(other, Extension) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return "Extension(%s: +%d equations over %s)" % (
            self.name or "?",
            len(self.added_two_cell_equations),
            self.base.name or "?",
        )


# -- algebras ----------------------------------------------------------


class Algebra:
    """A finite algebra for a presentation.

    ``operations`` maps each operation name to its ``(on_objects,
    on_morphisms)`` pair of maps from object and morphism tuples, kept
    sorted by tuple; ``generators`` maps each generator name to
    components indexed by object tuples at the generator's arity.  All
    laws (functoriality, naturality, invertibility where declared, and
    every equation of the presentation) are checked by the constructor.
    """

    def __init__(
        self,
        presentation: Presentation,
        carrier: FinCategory,
        operations: Mapping[str, Tuple[Mapping, Mapping]],
        generators: Mapping[str, Mapping[Tuple[str, ...], str]],
        name: str = "",
    ):
        self._fill(presentation, carrier, operations, generators, name)
        self._validate()

    @classmethod
    def _trusted(cls, presentation, carrier, operations, generators, name=""):
        """The constructor without ``_validate``, for tables induced from
        validated algebras: products, and quotients by operation-closed
        congruences."""
        self = cls.__new__(cls)
        self._fill(presentation, carrier, operations, generators, name)
        return self

    def _fill(self, presentation, carrier, operations, generators, name) -> None:
        self.presentation = presentation
        self.carrier = carrier
        self.name = name
        self._op_obj: Dict[str, Dict[Tuple[str, ...], str]] = {}
        self._op_mor: Dict[str, Dict[Tuple[str, ...], str]] = {}
        self._gen: Dict[str, Dict[Tuple[str, ...], str]] = {}
        for op in presentation.signature.operations:
            maps = operations.get(op.name)
            if maps is None:
                raise SignatureMismatch("no interpretation for operation %s" % op.name)
            self._op_obj[op.name], self._op_mor[op.name] = (
                dict(sorted((tuple(k), v) for k, v in table.items())) for table in maps)
        if set(operations) - {op.name for op in presentation.signature.operations}:
            raise SignatureMismatch("interpretation for unknown operation")
        for g in presentation.generators:
            comps = generators.get(g.name)
            if comps is None:
                raise SignatureMismatch("no interpretation for generator %s" % g.name)
            self._gen[g.name] = {tuple(k): v for k, v in comps.items()}
        if set(generators) - set(self._gen):
            raise SignatureMismatch("interpretation for unknown generator")
        self._key = (
            presentation._key,
            carrier._key,
            tuple(
                (op, tuple(self._op_obj[op].items()), tuple(self._op_mor[op].items()))
                for op in sorted(self._op_obj)
            ),
            tuple((g, tuple(sorted(self._gen[g].items()))) for g in sorted(self._gen)),
        )
        self._hash = hash(self._key)

    # -- raw accessors -------------------------------------------------

    def op_obj(self, name: str, objs: Tuple[str, ...]) -> str:
        return self._op_obj[name][objs]

    def op_mor(self, name: str, mors: Tuple[str, ...]) -> str:
        return self._op_mor[name][mors]

    def gen_at(self, name: str, objs: Tuple[str, ...]) -> str:
        return self._gen[name][objs]

    def obj_tuples(self, n: int):
        return itertools.product(self.carrier.objects, repeat=n)

    def mor_tuples(self, n: int):
        return itertools.product([m.name for m in self.carrier.morphisms], repeat=n)

    # -- validation ----------------------------------------------------

    def _validate(self) -> None:
        C = self.carrier
        obj_set = set(C.objects)
        op_obj, op_mor, mor = self._op_obj, self._op_mor, C._mor
        for op in self.presentation.signature.operations:
            n = op.arity
            objs = self._op_obj[op.name]
            mors = self._op_mor[op.name]
            # compare sizes first: a short table never enumerates the n-tuples
            if len(objs) != len(C.objects) ** n or set(objs) != set(self.obj_tuples(n)):
                raise ValidationError(
                    "operation %s: object table does not cover the %d-tuples"
                    % (op.name, n)
                )
            if len(mors) != len(C.morphisms) ** n or set(mors) != set(self.mor_tuples(n)):
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
            for t in self.obj_tuples(n):
                if mors[tuple(C.identity(a) for a in t)] != C.identity(objs[t]):
                    raise ValidationError(
                        "operation %s: identities not preserved at %r" % (op.name, t),
                        witness=(op.name, t),
                    )
            for gt in self.mor_tuples(n):
                for ft in itertools.product(*(C._ending_at[C.dom(g)] for g in gt)):
                    lhs = mors[tuple(C.compose(g, f) for g, f in zip(gt, ft))]
                    rhs = C.compose(mors[gt], mors[ft])
                    if lhs != rhs:
                        raise ValidationError(
                            "operation %s: composition not preserved" % op.name,
                            witness=(op.name, gt, ft),
                        )
        for g in self.presentation.generators:
            comps = self._gen[g.name]
            if (len(comps) != len(C.objects) ** g.arity
                    or set(comps) != set(self.obj_tuples(g.arity))):
                raise ValidationError(
                    "generator %s: components do not cover the %d-tuples"
                    % (g.name, g.arity)
                )

            def boundaries(cols, size):
                ends = [(mor[v].dom, mor[v].cod) if v in mor else None
                        for v in map(comps.__getitem__, _keys(cols, size))]
                return ends, list(zip(_term_column(op_obj, g.source, cols, size),
                                      _term_column(op_obj, g.target, cols, size)))

            for t, ends, wanted in _disagreements(comps, boundaries):
                if ends is None:
                    raise ValidationError("generator %s maps %r outside the carrier" % (g.name, t))
                raise BoundaryMismatch(
                    "generator %s at %r has boundary %s -> %s, wanted %s -> %s"
                    % ((g.name, t) + ends + wanted),
                    witness=(g.name, t),
                )

            def naturality(cols, size):
                cods = [[mor[u].cod for u in col] for col in cols]
                return (_expr_column(self, GenCell(g.name), cols, size),
                        _composite(C, [comps[k] for k in _keys(cods, size)],
                                   _term_column(op_mor, g.source, cols, size)))

            for mt, _, _ in _disagreements(self.mor_tuples(g.arity), naturality):
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
        check = satisfies(self, self.presentation)
        if not check:
            raise ValidationError(
                "equation of the presentation fails: %r" % (check.witness,),
                witness=check.witness,
            )

    # -- the laws of homomorphisms, made on first use ----------------------

    @_made_on_first_use
    def _hom_laws(self):
        """The laws of a homomorphism h out of this algebra, filed by the
        carrier's functor-search steps (``FinCategory._file_laws``):
        h(op(t)) = op(h(t)) at every morphism tuple t, which covers the
        object tables since operations preserve identities, and
        h(g_a) = g_(h a) at the identity tuple of every object tuple a.
        Each law names its table in the target's :attr:`_law_tables`."""
        ids = self.carrier.identities
        laws = [(("op", op), t, v) for op, table in self._op_mor.items()
                for t, v in table.items()]
        laws += [(("gen", g), tuple(ids[a] for a in t), v) for g, comps in self._gen.items()
                 for t, v in comps.items()]
        return self.carrier._file_laws(laws)

    @_made_on_first_use
    def _law_tables(self):
        """The tables that :attr:`_hom_laws` read in a target algebra: each
        operation on morphism tuples, and each generator on identity tuples."""
        ids = self.carrier.identities
        tables = {("op", op): table for op, table in self._op_mor.items()}
        tables.update({("gen", g): {tuple(ids[a] for a in t): v for t, v in comps.items()}
                       for g, comps in self._gen.items()})
        return tables

    def __eq__(self, other):
        return isinstance(other, Algebra) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Algebra(%s over %s)" % (self.name or "?", self.carrier.name or "?")


# -- evaluation --------------------------------------------------------

# Tuples per column slice: bounds the memory of a column evaluation
# whatever the number of tuples.
_SLICE = 2048


def _keys(cols, size: int):
    """The tuples of a column slice, one value from each column."""
    return zip(*cols) if cols else itertools.repeat((), size)


def _disagreements(tuples: Iterable[Tuple[str, ...]], sides):
    """(tuple, lhs, rhs) wherever the two columns ``sides(columns, size)``
    returns differ, in the order of ``tuples``.

    The tuples are read a slice at a time and never listed whole.  A slice
    whose evaluation raises is evaluated again one tuple at a time, so a
    disagreement at an earlier tuple still comes first and the error is
    raised at its first tuple, as a walk tuple by tuple would.
    """
    tuples = iter(tuples)
    while True:
        chunk = list(itertools.islice(tuples, _SLICE))
        if not chunk:
            return
        try:
            pieces = [(chunk, sides(list(zip(*chunk)), len(chunk)))]
        except (KeyError, BoundaryMismatch, NonInvertibleComponent):
            pieces = (((t,), sides([(a,) for a in t], 1)) for t in chunk)
        for ts, (lhs, rhs) in pieces:
            for t, lv, rv in zip(ts, lhs, rhs):
                if lv != rv:
                    yield t, lv, rv


def _composite(C: FinCategory, after, before):
    """The column of composites after.before; the first pair that does not
    compose raises BoundaryMismatch."""
    comp = C.composition
    try:
        return [comp[p] for p in zip(after, before)]
    except KeyError:
        return [C.compose(g, f) for g, f in zip(after, before)]


def _term_column(tables, t: Term, cols, size: int):
    """The values of ``t`` at a slice of tuples: ``cols[i]`` holds the
    values of variable i+1 and ``tables`` is an algebra's object tables
    (``_op_obj``) or morphism tables (``_op_mor``)."""
    if isinstance(t, Var):
        return cols[t.index - 1]
    table = tables[t.op]
    return [table[k] for k in _keys([_term_column(tables, a, cols, size) for a in t.args],
                                    size)]


def _expr_column(alg: Algebra, e: TwoCellExpr, cols, size: int):
    """The diagonals of ``e`` at a slice of morphism tuples, with the
    columns of :func:`_term_column`; see :func:`eval_expr`."""
    C = alg.carrier
    if isinstance(e, IdCell):
        return _term_column(alg._op_mor, e.term, cols, size)
    if isinstance(e, SubstCell):
        return _expr_column(alg, e.head, [
            _term_column(alg._op_mor, a, cols, size) if isinstance(a, _TERM_TYPES)
            else _expr_column(alg, a, cols, size) for a in e.args], size)
    mor = C._mor
    if isinstance(e, VCompCell):
        identities = C.identities
        ids = [[identities[mor[u].dom] for u in col] for col in cols]
        return _composite(C, _expr_column(alg, e.after, cols, size),
                          _expr_column(alg, e.before, ids, size))
    if isinstance(e, (GenCell, InvCell)):
        g = alg.presentation.generator[e.name]
        objs = [[mor[u].dom for u in col] for col in cols]
        table = alg._gen[e.name]
        comps = [table[k] for k in _keys(objs, size)]
        if isinstance(e, GenCell):
            return _composite(C, _term_column(alg._op_mor, g.target, cols, size), comps)
        inverses = C._inverses
        try:
            invs = [inverses[c] for c in comps]
        except KeyError:
            at = next(k for k, c in zip(_keys(objs, size), comps) if c not in inverses)
            raise NonInvertibleComponent(
                "component of %s at %r has no inverse" % (e.name, at), witness=(e.name, at)
            ) from None
        return _composite(C, _term_column(alg._op_mor, g.source, cols, size), invs)
    raise TypeError(e)


def eval_term_obj(alg: Algebra, t: Term, objs: Tuple[str, ...]) -> str:
    return _term_column(alg._op_obj, t, [(a,) for a in objs], 1)[0]


def eval_term_mor(alg: Algebra, t: Term, mors: Tuple[str, ...]) -> str:
    return _term_column(alg._op_mor, t, [(u,) for u in mors], 1)[0]


def eval_expr(alg: Algebra, e: TwoCellExpr, mors: Tuple[str, ...]) -> str:
    """Evaluation on morphism tuples, a column at a time; typing once, at
    construction.

    The diagonal t(m).e_x = e_y.s(m) of the naturality square of
    ``e: s => t`` at ``m: x -> y``, so the component e_x is the diagonal at
    the identity tuple of x.  The presentation typed ``e`` when it was
    built, and no arity or boundary term is needed here: an identity cell
    is its term's action, a vertical composite is after(m).before(1_x), and
    a substitution is its head at its arguments' diagonals (the
    interchange law).  This is the one-tuple case of the column evaluation
    that satisfaction and validation run: each node of ``e`` is one pass
    of table lookups over a slice of up to ``_SLICE`` tuples.
    """
    return _expr_column(alg, e, [(u,) for u in mors], 1)[0]


# -- satisfaction ------------------------------------------------------


def _check_compatible(alg: Algebra, E: Union[Extension, Presentation]) -> None:
    base = E.base if isinstance(E, Extension) else E
    if _differ(base.signature, alg.presentation.signature):
        raise SignatureMismatch("algebra and equations use different signatures")
    if _differ(base.generators, alg.presentation.generators):
        raise SignatureMismatch("algebra and equations use different 2-cell generators")


def satisfies(alg: Algebra, E: Union[Extension, Presentation]) -> CheckResult:
    """Decide whether the algebra satisfies every equation of E.

    The witness of a failure is the first offending equation together with
    the least object tuple (in carrier declaration order) where the two
    sides evaluate differently.
    """
    _check_compatible(alg, E)
    term_eqs = () if isinstance(E, Extension) else E.term_equations
    for i, (l, r) in enumerate(term_eqs):
        n = max(term_min_arity(l), term_min_arity(r))
        for tuples, tables in ((alg.obj_tuples(n), alg._op_obj), (alg.mor_tuples(n), alg._op_mor)):
            for t, lv, rv in _disagreements(tuples, lambda cols, size: (
                    _term_column(tables, l, cols, size), _term_column(tables, r, cols, size))):
                return CheckResult(
                    False, {"kind": "term", "equation": i, "tuple": t, "lhs": lv, "rhs": rv}
                )
    for i, t, lv, rv in _cell_disagreements(alg, E):
        return CheckResult(
            False, {"kind": "two_cell", "equation": i, "tuple": t, "lhs": lv, "rhs": rv}
        )
    return CheckResult(True)


def _cell_disagreements(alg: Algebra, E: Union[Extension, Presentation]):
    """(equation, object tuple, lhs, rhs) wherever the two sides of one of
    E's 2-cell equations have different components, equation by equation,
    tuples in carrier declaration order."""
    identities = alg.carrier.identities
    for i, (l, r, n) in enumerate(E._cell_equations):
        def sides(cols, size):
            ids = [[identities[a] for a in col] for col in cols]
            return _expr_column(alg, l, ids, size), _expr_column(alg, r, ids, size)
        for t, lv, rv in _disagreements(alg.obj_tuples(n), sides):
            yield i, t, lv, rv


# -- homomorphisms -----------------------------------------------------


def is_algebra_hom(h: Functor, A: Algebra, B: Algebra) -> CheckResult:
    """Strict homomorphism check: h commutes with every operation on
    objects and morphisms and carries generator components to generator
    components at image tuples."""
    if _differ(h.source, A.carrier) or _differ(h.target, B.carrier):
        raise BoundaryMismatch("functor does not run between the carriers")
    if _differ(A.presentation.signature, B.presentation.signature):
        raise SignatureMismatch("algebras have different signatures")
    for op in A.presentation.signature.operations:
        n = op.arity
        for t in A.obj_tuples(n):
            if h.obj(A.op_obj(op.name, t)) != B.op_obj(op.name, tuple(h.obj(a) for a in t)):
                return CheckResult(
                    False, {"kind": "operation-objects", "op": op.name, "tuple": t}
                )
        for mt in A.mor_tuples(n):
            if h.mor(A.op_mor(op.name, mt)) != B.op_mor(
                op.name, tuple(h.mor(u) for u in mt)
            ):
                return CheckResult(
                    False, {"kind": "operation-morphisms", "op": op.name, "tuple": mt}
                )
    for g in A.presentation.generators:
        for t in A.obj_tuples(g.arity):
            if h.mor(A.gen_at(g.name, t)) != B.gen_at(g.name, tuple(h.obj(a) for a in t)):
                return CheckResult(
                    False, {"kind": "generator", "generator": g.name, "tuple": t}
                )
    return CheckResult(True)


class AlgebraHom:
    """A functor between carriers that is a strict homomorphism."""

    def __init__(self, source: Algebra, target: Algebra, functor: Functor, name: str = ""):
        self._fill(source, target, functor, name)
        check = is_algebra_hom(functor, source, target)
        if not check:
            raise ValidationError(
                "functor %s is not a homomorphism: %r" % (self.name or "?", check.witness),
                witness=check.witness,
            )

    @classmethod
    def _trusted(cls, source, target, functor, name=""):
        """The constructor without the homomorphism check, for functors that
        are homomorphisms by construction: composites of homomorphisms,
        product and quotient projections, and the results of
        :func:`enumerate_algebra_homs`, whose search checks every
        homomorphism law."""
        self = cls.__new__(cls)
        self._fill(source, target, functor, name)
        return self

    def _fill(self, source, target, functor, name) -> None:
        self.source = source
        self.target = target
        self.functor = functor
        self.name = name or functor.name
        self._key = (source._key, target._key, functor._key)
        self._hash = hash(self._key)

    def obj(self, a: str) -> str:
        return self.functor.obj(a)

    def mor(self, u: str) -> str:
        return self.functor.mor(u)

    def __eq__(self, other):
        return isinstance(other, AlgebraHom) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "AlgebraHom(%s: %s -> %s)" % (
            self.name or "?",
            self.source.name or "?",
            self.target.name or "?",
        )


def compose_algebra_homs(g: AlgebraHom, f: AlgebraHom) -> AlgebraHom:
    return AlgebraHom._trusted(f.source, g.target, compose_functors(g.functor, f.functor),
                               name="%s.%s" % (g.name or "?", f.name or "?"))


def enumerate_algebra_homs(
    A: Algebra, B: Algebra, limit: int = DEFAULT_SEARCH_LIMIT
) -> Tuple[AlgebraHom, ...]:
    """Every strict homomorphism A -> B, in enumerate_functors order: one
    functor search on the carriers, with A's homomorphism laws read
    against B's tables, so each law is checked at the step that assigns
    its last morphism.  ``limit`` bounds the nodes of that search."""
    if _differ(A.presentation.signature, B.presentation.signature):
        raise SignatureMismatch("algebras have different signatures")
    fixed, filed = A._hom_laws
    tables = B._law_tables

    def read(laws):
        return [(tables[key], args, result) for key, args, result in laws]

    maps, _ = functor_maps(A.carrier, B.carrier, limit, laws=(read(fixed), list(map(read, filed))))
    return tuple(AlgebraHom._trusted(A, B, Functor._trusted(A.carrier, B.carrier, o, m))
                 for o, m in maps)


def algebra_two_cells(
    h: AlgebraHom, k: AlgebraHom, limit: int = DEFAULT_SEARCH_LIMIT
) -> Tuple[NatTransformation, ...]:
    """Every algebra 2-cell h => k, in enumerate_nat_transformations order: a
    natural transformation w with w(op(t)) = op(w(t)) for every operation
    and object tuple t (for a nullary operation, the identity at its
    value), from one transformation search that checks those laws with
    naturality.  ``limit`` bounds the component space, as there."""
    F, G = h.functor, k.functor
    if _differ(F.source, G.source) or _differ(F.target, G.target):
        raise BoundaryMismatch("need parallel functors")
    A, B = h.source, h.target
    laws = [(B._op_mor[op], t, v) for op, table in A._op_obj.items() for t, v in table.items()]
    found, _ = _natural_components(F, G, limit, laws)
    return tuple(NatTransformation._trusted(F, G, c) for c in found)


# -- induced structure -------------------------------------------------


def _induced_algebra(build, presentation: Presentation, carrier: FinCategory, name: str,
                     op_obj, op_mor, gen_at) -> Algebra:
    """The algebra on ``carrier`` with every table entry given pointwise by
    ``op_obj(op, objects)``, ``op_mor(op, morphisms)`` and
    ``gen_at(generator, objects)``, made by ``build``: ``Algebra`` to
    validate the tables, ``Algebra._trusted`` where they are lawful by
    construction.

    Entries are computed operation by operation, objects before morphisms,
    then generator by generator, over tuples in declaration order, so a
    value function that raises does so at the first failing entry.
    """
    mors = [m.name for m in carrier.morphisms]
    operations = {
        op.name: (
            {t: op_obj(op.name, t) for t in itertools.product(carrier.objects, repeat=op.arity)},
            {t: op_mor(op.name, t) for t in itertools.product(mors, repeat=op.arity)},
        )
        for op in presentation.signature.operations
    }
    generators = {
        g.name: {t: gen_at(g.name, t) for t in itertools.product(carrier.objects, repeat=g.arity)}
        for g in presentation.generators
    }
    return build(presentation, carrier, operations, generators, name=name)


# -- products ----------------------------------------------------------


def product_algebra(A: Algebra, B: Algebra):
    """Binary product with componentwise structure and its projections."""
    if _differ(A.presentation, B.presentation):
        raise SignatureMismatch("product needs algebras of the same presentation")
    span = power_span((A.carrier, B.carrier),
                      name="(%sx%s)" % (A.carrier.name or "?", B.carrier.name or "?"))
    pr1, pr2 = span.projections
    prod = _induced_algebra(
        Algebra._trusted,
        A.presentation, span.category, "(%sx%s)" % (A.name or "?", B.name or "?"),
        lambda op, t: span.obj_of[(A.op_obj(op, tuple(pr1.obj(x) for x in t)),
                                   B.op_obj(op, tuple(pr2.obj(x) for x in t)))],
        lambda op, t: span.mor_of[(A.op_mor(op, tuple(pr1.mor(x) for x in t)),
                                   B.op_mor(op, tuple(pr2.mor(x) for x in t)))],
        lambda g, t: span.mor_of[(A.gen_at(g, tuple(pr1.obj(x) for x in t)),
                                  B.gen_at(g, tuple(pr2.obj(x) for x in t)))],
    )
    return (prod, AlgebraHom._trusted(prod, A, pr1, name="pr1"),
            AlgebraHom._trusted(prod, B, pr2, name="pr2"))


# -- subalgebras -------------------------------------------------------


def subalgebra_check(m: Functor, A: Algebra) -> Algebra:
    """Induce an algebra structure on the source of a faithful functor
    into A's carrier, or explain why none exists.

    Operation values are lifted along m by choosing the least preimage
    object (unique when m is injective on objects, as all bundled
    witnesses are); the lifted structure is then fully validated.
    """
    if _differ(m.target, A.carrier):
        raise BoundaryMismatch("witness functor must land in the algebra's carrier")
    if not classify(m).faithful:
        raise NotFaithful("witness functor is not faithful")
    S = m.source

    def in_image(op: str, t: Tuple[str, ...], target: str, lifts: List[str]) -> List[str]:
        if not lifts:
            raise NotClosedUnderOperations(
                "operation %s at %r lands at %s, outside the image" % (op, t, target),
                witness=(op, t, target),
            )
        return lifts

    def lift_obj(op: str, t: Tuple[str, ...]) -> str:
        target = A.op_obj(op, tuple(m.obj(x) for x in t))
        return min(in_image(op, t, target, [x for x in S.objects if m.obj(x) == target]))

    def lift_mor(op: str, t: Tuple[str, ...]) -> str:
        target = A.op_mor(op, tuple(m.mor(x) for x in t))
        d = lift_obj(op, tuple(S.dom(x) for x in t))
        c = lift_obj(op, tuple(S.cod(x) for x in t))
        return in_image(op, t, target, [w for w in S.hom(d, c) if m.mor(w) == target])[0]

    def lift_gen(g: str, t: Tuple[str, ...]) -> str:
        target = A.gen_at(g, tuple(m.obj(x) for x in t))
        lifts = [w.name for w in S.morphisms if m.mor(w.name) == target]
        if not lifts:
            raise GeneratorComponentEscapes(
                "generator %s component at %r is not in the image" % (g, t),
                witness=(g, t, target),
            )
        return min(lifts)

    # lift_* pick preimages of exactly the values m must reach, so m is a
    # homomorphism from the induced algebra by construction
    return _induced_algebra(Algebra, A.presentation, S, "sub(%s)" % (A.name or "?"),
                            lift_obj, lift_mor, lift_gen)


# -- congruences and quotients ----------------------------------------


def _operation_contexts(A: Algebra, u: str, v: str):
    """(op, tu, tv, op(tu), op(tv)) for argument tuples that differ only by
    u against v at one position; by operation, position, then the rest."""
    names = [m.name for m in A.carrier.morphisms]
    for op in A.presentation.signature.operations:
        n = op.arity
        for pos in range(n):
            for rest in itertools.product(names, repeat=n - 1):
                tu = rest[:pos] + (u,) + rest[pos:]
                tv = rest[:pos] + (v,) + rest[pos:]
                yield (op.name, tu, tv, A.op_mor(op.name, tu), A.op_mor(op.name, tv))


def congruence_operation_witness(A: Algebra, cong: Congruence):
    """First failure of operation-closure for a congruence, or None."""
    for cl in cong.classes:
        for v in cl[1:]:
            for context in _operation_contexts(A, cl[0], v):
                if not cong.related(context[3], context[4]):
                    return context
    return None


def algebra_congruence_closure(
    A: Algebra, generators: Iterable[Tuple[str, str]]
) -> Congruence:
    """Least congruence on the carrier closed under composition contexts
    and under every operation's action on morphisms."""
    cong = congruence_closure(A.carrier, generators, extra_rule=lambda u, v: (
        (a, b) for (_op, _tu, _tv, a, b) in _operation_contexts(A, u, v)))
    witness = congruence_operation_witness(A, cong)
    if witness is not None:
        raise NotOperationClosed("saturated congruence is not operation-closed",
                                 witness=witness)
    return cong


def quotient_algebra(A: Algebra, cong: Congruence):
    """Quotient by an operation-closed congruence, with the projection.

    The structure on the quotient is the unique one making the projection
    a homomorphism: every table entry is forced classwise, which is
    exactly what operation-closure guarantees to be well defined.
    """
    _require_operation_closed(A, cong)
    return _trusted_quotient_algebra(A, cong)


def _require_operation_closed(A: Algebra, cong: Congruence) -> None:
    """The precondition of :func:`quotient_algebra`."""
    if _differ(cong.base, A.carrier):
        raise BoundaryMismatch("congruence lives on a different carrier")
    bad = congruence_operation_witness(A, cong)
    if bad is not None:
        raise NotOperationClosed(
            "congruence is not closed under operation %s" % bad[0], witness=bad
        )


def _trusted_quotient_algebra(A: Algebra, cong: Congruence):
    """:func:`quotient_algebra` without its precondition, for a congruence
    known to be operation-closed: a result of
    :func:`algebra_congruence_closure`, which has already scanned it."""
    Q, q = quotient_by_congruence(A.carrier, cong)
    rep = cong.rep_of
    quot = _induced_algebra(Algebra._trusted, A.presentation, Q, "%s/~" % (A.name or "?"),
                            A.op_obj, lambda op, t: rep[A.op_mor(op, t)],
                            lambda g, t: rep[A.gen_at(g, t)])
    return quot, AlgebraHom._trusted(A, quot, q, name="q")


# -- reflexive coequifiers --------------------------------------------


def reflexive_coequifier_algebra(
    u: AlgebraHom,
    v: AlgebraHom,
    phi: NatTransformation,
    psi: NatTransformation,
    section: AlgebraHom,
):
    """Coequifier in algebras of a reflexive pair of 2-cells.

    The carrier-level coequifier is computed first; the algebra structure
    must then descend along it (guaranteed for genuine reflexive algebra
    data, surfaced as LiftFailure otherwise).  Returns (quotient algebra,
    projection homomorphism).
    """
    if _differ(u.source, v.source) or _differ(u.target, v.target):
        raise BoundaryMismatch("parallel homomorphisms required")
    # validates boundaries, the splitting laws and that the section kills both cells
    ReflexiveData(u.functor, v.functor, phi, psi, section.functor)
    A = u.target
    K = u.source
    gens = [(phi.at(k), psi.at(k)) for k in K.carrier.objects]
    try:
        return quotient_algebra(A, congruence_closure(A.carrier, gens))
    except NotOperationClosed as exc:
        raise LiftFailure(
            "carrier coequifier does not support the algebra structure; "
            "input was not genuine reflexive algebra data",
            witness=exc.witness,
        ) from None
