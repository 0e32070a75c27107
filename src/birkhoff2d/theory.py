"""Presentations of Cat-valued algebraic theories and their finite algebras.

A presentation has a signature of operations, equations between terms,
a family of named structural 2-cell generators (each a parallel pair of
terms, possibly invertible) and equations between 2-cell expressions.
An :class:`Extension` enlarges a presentation by 2-cell equations only.

An :class:`Algebra` interprets operations as finite tables (functorial by
validation) and generators as natural families over all object tuples.
Interpretation of terms and expressions is done by direct evaluation on
tuples; materialized functor/transformation views over power categories
are available for modest arities via :func:`interpret_term` and
:func:`interpret_two_cell`.

Satisfaction, homomorphisms, products, subalgebras, congruences and
quotients, and reflexive coequifiers of algebras all live here.
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
    PowerSpan,
    _saturate,
    classify,
    enumerate_functors,
    enumerate_nat_transformations,
    power,
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
        raise ValidationError("term must be a non-empty array", witness=data)
    head = data[0]
    if head == "var":
        if len(data) != 2 or not isinstance(data[1], int) or data[1] < 1:
            raise ValidationError("bad variable term", witness=data)
        return Var(data[1])
    if head == "op":
        if len(data) < 2 or not isinstance(data[1], str):
            raise ValidationError("bad operation term", witness=data)
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
    if head == "gen" and len(data) == 2:
        return GenCell(str(data[1]))
    if head == "inv" and len(data) == 2:
        return InvCell(str(data[1]))
    if head == "vcomp" and len(data) == 3:
        return VCompCell(expr_from_json(data[1]), expr_from_json(data[2]))
    if head == "subst" and len(data) == 3:
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
        names = [op.name for op in self.operations]
        if len(set(names)) != len(names):
            raise SignatureMismatch("duplicate operation names", witness=names)
        for op in self.operations:
            if op.arity < 0:
                raise SignatureMismatch("negative arity for %s" % op.name, witness=op)
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
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise SignatureMismatch("duplicate generator names", witness=names)
        self.generator: Dict[str, TwoCellGenerator] = {g.name: g for g in self.generators}
        for g in self.generators:
            signature.check_term(g.source, g.arity)
            signature.check_term(g.target, g.arity)
        self._boundary_cache: Dict[Tuple[TwoCellExpr, int], Tuple[Term, Term]] = {}
        for (l, r) in self.term_equations:
            n = max(term_min_arity(l), term_min_arity(r))
            signature.check_term(l, n)
            signature.check_term(r, n)
        for (l, r) in self.two_cell_equations:
            self.check_equation(l, r)
        self._key = (
            self.signature.operations,
            self.term_equations,
            self.generators,
            self.two_cell_equations,
        )
        self._hash = hash(self._key)

    # arity resolution: generators force an exact arity, identity cells and
    # term arguments are flexible above their minimal arity
    def _arity_constraint(self, e: TwoCellExpr) -> Tuple[Optional[int], int]:
        if isinstance(e, (GenCell, InvCell)):
            g = self.generator.get(e.name)
            if g is None:
                raise SignatureMismatch("unknown 2-cell generator %r" % e.name, witness=e)
            if isinstance(e, InvCell) and not g.invertible:
                raise SignatureMismatch(
                    "generator %s is not invertible" % e.name, witness=e
                )
            return g.arity, g.arity
        if isinstance(e, IdCell):
            return None, term_min_arity(e.term)
        if isinstance(e, VCompCell):
            r1, m1 = self._arity_constraint(e.after)
            r2, m2 = self._arity_constraint(e.before)
            rigid = r1 if r1 is not None else r2
            if r1 is not None and r2 is not None and r1 != r2:
                raise BoundaryMismatch("vertical composite mixes arities", witness=e)
            return rigid, max(m1, m2)
        if isinstance(e, SubstCell):
            rh, mh = self._arity_constraint(e.head)
            if rh is not None and rh != len(e.args):
                raise BoundaryMismatch(
                    "substitution head has arity %d, got %d arguments" % (rh, len(e.args)),
                    witness=e,
                )
            if rh is None and mh > len(e.args):
                raise BoundaryMismatch("substitution head needs more arguments", witness=e)
            rigid: Optional[int] = None
            minimal = 0
            for a in e.args:
                if isinstance(a, _TERM_TYPES):
                    minimal = max(minimal, term_min_arity(a))
                else:
                    ra, ma = self._arity_constraint(a)
                    minimal = max(minimal, ma)
                    if ra is not None:
                        if rigid is not None and rigid != ra:
                            raise BoundaryMismatch(
                                "substitution arguments mix arities", witness=e
                            )
                        rigid = ra
            return rigid, minimal
        raise TypeError(e)

    def resolve_arity(self, *exprs: TwoCellExpr) -> int:
        rigid: Optional[int] = None
        minimal = 0
        for e in exprs:
            r, m = self._arity_constraint(e)
            minimal = max(minimal, m)
            if r is not None:
                if rigid is not None and rigid != r:
                    raise BoundaryMismatch("expressions have incompatible arities")
                rigid = r
        n = rigid if rigid is not None else minimal
        if n < minimal:
            raise BoundaryMismatch("resolved arity below minimal variable index")
        return n

    def boundary(self, e: TwoCellExpr, arity: int) -> Tuple[Term, Term]:
        """Source and target terms of an expression at the given arity.
        Boundary matching in composites is syntactic."""
        key = (e, arity)
        hit = self._boundary_cache.get(key)
        if hit is not None:
            return hit
        if isinstance(e, IdCell):
            self.signature.check_term(e.term, arity)
            out = (e.term, e.term)
        elif isinstance(e, GenCell):
            g = self.generator.get(e.name)
            if g is None:
                raise SignatureMismatch("unknown 2-cell generator %r" % e.name, witness=e)
            if g.arity != arity:
                raise BoundaryMismatch(
                    "generator %s used at arity %d, declared %d" % (e.name, arity, g.arity)
                )
            out = (g.source, g.target)
        elif isinstance(e, InvCell):
            g = self.generator.get(e.name)
            if g is None:
                raise SignatureMismatch("unknown 2-cell generator %r" % e.name, witness=e)
            if not g.invertible:
                raise SignatureMismatch("generator %s is not invertible" % e.name, witness=e)
            if g.arity != arity:
                raise BoundaryMismatch(
                    "generator %s used at arity %d, declared %d" % (e.name, arity, g.arity)
                )
            out = (g.target, g.source)
        elif isinstance(e, VCompCell):
            s1, t1 = self.boundary(e.before, arity)
            s2, t2 = self.boundary(e.after, arity)
            if t1 != s2:
                raise BoundaryMismatch(
                    "vertical composite boundary mismatch", witness=(t1, s2)
                )
            out = (s1, t2)
        elif isinstance(e, SubstCell):
            hs, ht = self.boundary(e.head, len(e.args))
            srcs: List[Term] = []
            tgts: List[Term] = []
            for a in e.args:
                if isinstance(a, _TERM_TYPES):
                    self.signature.check_term(a, arity)
                    srcs.append(a)
                    tgts.append(a)
                else:
                    s, t = self.boundary(a, arity)
                    srcs.append(s)
                    tgts.append(t)
            out = (subst_term(hs, srcs), subst_term(ht, tgts))
        else:
            raise TypeError(e)
        self._boundary_cache[key] = out
        return out

    def check_equation(self, lhs: TwoCellExpr, rhs: TwoCellExpr) -> int:
        """Validate an equation between parallel 2-cell expressions and
        return its resolved arity."""
        n = self.resolve_arity(lhs, rhs)
        sl, tl = self.boundary(lhs, n)
        sr, tr = self.boundary(rhs, n)
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
        for (l, r) in self.added_two_cell_equations:
            base.check_equation(l, r)
        self._key = (base._key, self.added_two_cell_equations)

    def extended_presentation(self) -> Presentation:
        return Presentation(
            self.base.signature,
            self.base.term_equations,
            self.base.generators,
            self.base.two_cell_equations + self.added_two_cell_equations,
            name=(self.name or "?") + "-total",
        )

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


@dataclass(frozen=True)
class OpTable:
    """Graph of an operation's action on object and morphism tuples."""

    on_objects: Tuple[Tuple[Tuple[str, ...], str], ...]
    on_morphisms: Tuple[Tuple[Tuple[str, ...], str], ...]

    @staticmethod
    def from_maps(on_objects: Mapping, on_morphisms: Mapping) -> "OpTable":
        return OpTable(
            tuple(sorted((tuple(k), v) for k, v in on_objects.items())),
            tuple(sorted((tuple(k), v) for k, v in on_morphisms.items())),
        )


class Algebra:
    """A finite algebra for a presentation.

    ``operations`` maps each operation name to an :class:`OpTable`;
    ``generators`` maps each generator name to components indexed by
    object tuples at the generator's arity.  All laws (functoriality,
    naturality, invertibility where declared, and every equation of the
    presentation) are checked at construction.
    """

    def __init__(
        self,
        presentation: Presentation,
        carrier: FinCategory,
        operations: Mapping[str, OpTable],
        generators: Mapping[str, Mapping[Tuple[str, ...], str]],
        name: str = "",
    ):
        self.presentation = presentation
        self.carrier = carrier
        self.name = name
        self._op_obj: Dict[str, Dict[Tuple[str, ...], str]] = {}
        self._op_mor: Dict[str, Dict[Tuple[str, ...], str]] = {}
        self._gen: Dict[str, Dict[Tuple[str, ...], str]] = {}
        for op in presentation.signature.operations:
            table = operations.get(op.name)
            if table is None:
                raise SignatureMismatch("no interpretation for operation %s" % op.name)
            self._op_obj[op.name] = dict(table.on_objects)
            self._op_mor[op.name] = dict(table.on_morphisms)
        if set(operations) - {op.name for op in presentation.signature.operations}:
            raise SignatureMismatch("interpretation for unknown operation")
        for g in presentation.generators:
            comps = generators.get(g.name)
            if comps is None:
                raise SignatureMismatch("no interpretation for generator %s" % g.name)
            self._gen[g.name] = {tuple(k): v for k, v in comps.items()}
        if set(generators) - set(self._gen):
            raise SignatureMismatch("interpretation for unknown generator")
        self._validate()
        self._functor_cache: Dict[str, Functor] = {}
        self._key = (
            presentation._key,
            carrier._key,
            tuple(
                (op, tuple(sorted(self._op_obj[op].items())), tuple(sorted(self._op_mor[op].items())))
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
        for op in self.presentation.signature.operations:
            n = op.arity
            objs = self._op_obj[op.name]
            mors = self._op_mor[op.name]
            want_obj = set(self.obj_tuples(n))
            if set(objs) != want_obj:
                raise ValidationError(
                    "operation %s: object table does not cover the %d-tuples"
                    % (op.name, n)
                )
            want_mor = set(self.mor_tuples(n))
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
            for t in self.obj_tuples(n):
                if mors[tuple(C.identity(a) for a in t)] != C.identity(objs[t]):
                    raise ValidationError(
                        "operation %s: identities not preserved at %r" % (op.name, t),
                        witness=(op.name, t),
                    )
            for gt in self.mor_tuples(n):
                for ft in self.mor_tuples(n):
                    if all(C.cod(f) == C.dom(g) for g, f in zip(gt, ft)):
                        lhs = mors[tuple(C.compose(g, f) for g, f in zip(gt, ft))]
                        rhs = C.compose(mors[gt], mors[ft])
                        if lhs != rhs:
                            raise ValidationError(
                                "operation %s: composition not preserved" % op.name,
                                witness=(op.name, gt, ft),
                            )
        for g in self.presentation.generators:
            comps = self._gen[g.name]
            if set(comps) != set(self.obj_tuples(g.arity)):
                raise ValidationError(
                    "generator %s: components do not cover the %d-tuples"
                    % (g.name, g.arity)
                )
            for t, v in comps.items():
                if not C.has_morphism(v):
                    raise ValidationError("generator %s maps %r outside the carrier" % (g.name, t))
                sv = eval_term_obj(self, g.source, t)
                tv = eval_term_obj(self, g.target, t)
                if C.dom(v) != sv or C.cod(v) != tv:
                    raise BoundaryMismatch(
                        "generator %s at %r has boundary %s -> %s, wanted %s -> %s"
                        % (g.name, t, C.dom(v), C.cod(v), sv, tv),
                        witness=(g.name, t),
                    )
            for mt in self.mor_tuples(g.arity):
                doms = tuple(C.dom(u) for u in mt)
                cods = tuple(C.cod(u) for u in mt)
                lhs = C.compose(eval_term_mor(self, g.target, mt), comps[doms])
                rhs = C.compose(comps[cods], eval_term_mor(self, g.source, mt))
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
        for i, (l, r) in enumerate(self.presentation.term_equations):
            n = max(term_min_arity(l), term_min_arity(r))
            for t in self.obj_tuples(n):
                if eval_term_obj(self, l, t) != eval_term_obj(self, r, t):
                    raise ValidationError(
                        "term equation %d fails on objects at %r" % (i, t), witness=(i, t)
                    )
            for mt in self.mor_tuples(n):
                if eval_term_mor(self, l, mt) != eval_term_mor(self, r, mt):
                    raise ValidationError(
                        "term equation %d fails on morphisms at %r" % (i, mt), witness=(i, mt)
                    )
        for i, (l, r) in enumerate(self.presentation.two_cell_equations):
            n = self.presentation.resolve_arity(l, r)
            for t in self.obj_tuples(n):
                if eval_expr(self, l, t, n) != eval_expr(self, r, t, n):
                    raise ValidationError(
                        "2-cell equation %d fails at %r" % (i, t), witness=(i, t)
                    )

    # -- materialized views --------------------------------------------

    def op_functor(self, name: str) -> Functor:
        """The operation as a functor carrier^arity -> carrier."""
        cached = self._functor_cache.get(name)
        if cached is not None:
            return cached
        n = self.presentation.signature.arity[name]
        span = power(self.carrier, n)
        F = Functor(
            span.category,
            self.carrier,
            {span.obj_of[t]: self._op_obj[name][t] for t in map(tuple, itertools.product(self.carrier.objects, repeat=n))},
            {span.mor_of[t]: self._op_mor[name][t] for t in map(tuple, self.mor_tuples(n))},
            name=name,
        )
        self._functor_cache[name] = F
        return F

    def __eq__(self, other):
        return isinstance(other, Algebra) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Algebra(%s over %s)" % (self.name or "?", self.carrier.name or "?")


# -- evaluation --------------------------------------------------------


def eval_term_obj(alg: Algebra, t: Term, objs: Tuple[str, ...]) -> str:
    if isinstance(t, Var):
        return objs[t.index - 1]
    return alg.op_obj(t.op, tuple(eval_term_obj(alg, a, objs) for a in t.args))


def eval_term_mor(alg: Algebra, t: Term, mors: Tuple[str, ...]) -> str:
    if isinstance(t, Var):
        return mors[t.index - 1]
    return alg.op_mor(t.op, tuple(eval_term_mor(alg, a, mors) for a in t.args))


def eval_expr(alg: Algebra, e: TwoCellExpr, objs: Tuple[str, ...], arity: int) -> str:
    """Component of the interpreted expression at an object tuple."""
    C = alg.carrier
    pres = alg.presentation
    if isinstance(e, IdCell):
        return C.identity(eval_term_obj(alg, e.term, objs))
    if isinstance(e, GenCell):
        return alg.gen_at(e.name, objs)
    if isinstance(e, InvCell):
        inv = C.inverse(alg.gen_at(e.name, objs))
        if inv is None:
            raise NonInvertibleComponent(
                "component of %s at %r has no inverse" % (e.name, objs), witness=(e.name, objs)
            )
        return inv
    if isinstance(e, VCompCell):
        return C.compose(
            eval_expr(alg, e.after, objs, arity), eval_expr(alg, e.before, objs, arity)
        )
    if isinstance(e, SubstCell):
        src_vals: List[str] = []
        comp_mors: List[str] = []
        for a in e.args:
            if isinstance(a, _TERM_TYPES):
                o = eval_term_obj(alg, a, objs)
                src_vals.append(o)
                comp_mors.append(C.identity(o))
            else:
                s_term, _ = pres.boundary(a, arity)
                src_vals.append(eval_term_obj(alg, s_term, objs))
                comp_mors.append(eval_expr(alg, a, objs, arity))
        head_comp = eval_expr(alg, e.head, tuple(src_vals), len(e.args))
        _, ht = pres.boundary(e.head, len(e.args))
        action = eval_term_mor(alg, ht, tuple(comp_mors))
        return C.compose(action, head_comp)
    raise TypeError(e)


def interpret_term(alg: Algebra, t: Term, arity: Optional[int] = None) -> Functor:
    """Materialize the interpretation of a term as a functor out of the
    corresponding power of the carrier."""
    n = term_min_arity(t) if arity is None else arity
    alg.presentation.signature.check_term(t, n)
    span = power(alg.carrier, n)
    return Functor(
        span.category,
        alg.carrier,
        {span.obj_of[tup]: eval_term_obj(alg, t, tup) for tup in alg.obj_tuples(n)},
        {span.mor_of[tup]: eval_term_mor(alg, t, tup) for tup in alg.mor_tuples(n)},
        name="[%s]" % (term_to_json(t),),
    )


def interpret_two_cell(
    alg: Algebra, e: TwoCellExpr, arity: Optional[int] = None
) -> NatTransformation:
    """Materialize the interpretation of a 2-cell expression as a natural
    transformation between interpreted boundary terms."""
    n = alg.presentation.resolve_arity(e) if arity is None else arity
    src, tgt = alg.presentation.boundary(e, n)
    span = power(alg.carrier, n)
    return NatTransformation(
        interpret_term(alg, src, n),
        interpret_term(alg, tgt, n),
        {span.obj_of[tup]: eval_expr(alg, e, tup, n) for tup in alg.obj_tuples(n)},
    )


# -- satisfaction ------------------------------------------------------


def _equations_of(E: Union[Extension, Presentation]):
    if isinstance(E, Extension):
        return (), E.added_two_cell_equations
    return E.term_equations, E.two_cell_equations


def _check_compatible(alg: Algebra, E: Union[Extension, Presentation]) -> None:
    base = E.base if isinstance(E, Extension) else E
    if base.signature != alg.presentation.signature:
        raise SignatureMismatch("algebra and equations use different signatures")
    if base.generators != alg.presentation.generators:
        raise SignatureMismatch("algebra and equations use different 2-cell generators")


def satisfies(alg: Algebra, E: Union[Extension, Presentation]) -> CheckResult:
    """Decide whether the algebra satisfies every equation of E.

    The witness of a failure is the first offending equation together with
    the least object tuple (in carrier declaration order) where the two
    sides evaluate differently.
    """
    _check_compatible(alg, E)
    pres = E.base if isinstance(E, Extension) else E
    term_eqs, cell_eqs = _equations_of(E)
    for i, (l, r) in enumerate(term_eqs):
        n = max(term_min_arity(l), term_min_arity(r))
        for t in alg.obj_tuples(n):
            lv, rv = eval_term_obj(alg, l, t), eval_term_obj(alg, r, t)
            if lv != rv:
                return CheckResult(
                    False,
                    {"kind": "term", "equation": i, "tuple": t, "lhs": lv, "rhs": rv},
                )
        for mt in alg.mor_tuples(n):
            lv, rv = eval_term_mor(alg, l, mt), eval_term_mor(alg, r, mt)
            if lv != rv:
                return CheckResult(
                    False,
                    {"kind": "term", "equation": i, "tuple": mt, "lhs": lv, "rhs": rv},
                )
    for i, (l, r) in enumerate(cell_eqs):
        n = pres.resolve_arity(l, r)
        for t in alg.obj_tuples(n):
            lv = _eval_with(alg, pres, l, t, n)
            rv = _eval_with(alg, pres, r, t, n)
            if lv != rv:
                return CheckResult(
                    False,
                    {"kind": "two_cell", "equation": i, "tuple": t, "lhs": lv, "rhs": rv},
                )
    return CheckResult(True)


def _eval_with(alg: Algebra, pres: Presentation, e: TwoCellExpr, objs, arity: int) -> str:
    """Evaluate with boundary lookups against the given presentation (the
    algebra's own presentation is structurally equal; this keeps cache use
    on the caller's instance)."""
    C = alg.carrier
    if isinstance(e, IdCell):
        return C.identity(eval_term_obj(alg, e.term, objs))
    if isinstance(e, GenCell):
        return alg.gen_at(e.name, objs)
    if isinstance(e, InvCell):
        inv = C.inverse(alg.gen_at(e.name, objs))
        if inv is None:
            raise NonInvertibleComponent("no inverse for %s at %r" % (e.name, objs))
        return inv
    if isinstance(e, VCompCell):
        return C.compose(
            _eval_with(alg, pres, e.after, objs, arity),
            _eval_with(alg, pres, e.before, objs, arity),
        )
    if isinstance(e, SubstCell):
        src_vals: List[str] = []
        comp_mors: List[str] = []
        for a in e.args:
            if isinstance(a, _TERM_TYPES):
                o = eval_term_obj(alg, a, objs)
                src_vals.append(o)
                comp_mors.append(C.identity(o))
            else:
                s_term, _ = pres.boundary(a, arity)
                src_vals.append(eval_term_obj(alg, s_term, objs))
                comp_mors.append(_eval_with(alg, pres, a, objs, arity))
        head_comp = _eval_with(alg, pres, e.head, tuple(src_vals), len(e.args))
        _, ht = pres.boundary(e.head, len(e.args))
        action = eval_term_mor(alg, ht, tuple(comp_mors))
        return C.compose(action, head_comp)
    raise TypeError(e)


# -- homomorphisms -----------------------------------------------------


def is_algebra_hom(h: Functor, A: Algebra, B: Algebra) -> CheckResult:
    """Strict homomorphism check: h commutes with every operation on
    objects and morphisms and carries generator components to generator
    components at image tuples."""
    if h.source != A.carrier or h.target != B.carrier:
        raise BoundaryMismatch("functor does not run between the carriers")
    if A.presentation.signature != B.presentation.signature:
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
        self.source = source
        self.target = target
        self.functor = functor
        self.name = name or functor.name
        check = is_algebra_hom(functor, source, target)
        if not check:
            raise ValidationError(
                "functor %s is not a homomorphism: %r" % (self.name or "?", check.witness),
                witness=check.witness,
            )
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
    from .fincat import compose_functors

    return AlgebraHom(f.source, g.target, compose_functors(g.functor, f.functor),
                      name="%s.%s" % (g.name or "?", f.name or "?"))


def identity_algebra_hom(A: Algebra) -> AlgebraHom:
    from .fincat import identity_functor

    return AlgebraHom(A, A, identity_functor(A.carrier), name="id")


def enumerate_algebra_homs(
    A: Algebra, B: Algebra, limit: int = DEFAULT_SEARCH_LIMIT
) -> Tuple[AlgebraHom, ...]:
    out = []
    for F in enumerate_functors(A.carrier, B.carrier, limit=limit):
        if is_algebra_hom(F, A, B):
            out.append(AlgebraHom(A, B, F))
    return tuple(out)


def is_algebra_two_cell(
    omega: NatTransformation, h: AlgebraHom, k: AlgebraHom
) -> CheckResult:
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


def algebra_two_cells(
    h: AlgebraHom, k: AlgebraHom, limit: int = DEFAULT_SEARCH_LIMIT
) -> Tuple[NatTransformation, ...]:
    return tuple(
        w
        for w in enumerate_nat_transformations(h.functor, k.functor, limit=limit)
        if is_algebra_two_cell(w, h, k)
    )


# -- products ----------------------------------------------------------


def product_algebra(A: Algebra, B: Algebra):
    """Binary product with componentwise structure and its projections."""
    if A.presentation != B.presentation:
        raise SignatureMismatch("product needs algebras of the same presentation")
    span = power_span((A.carrier, B.carrier),
                      name="(%sx%s)" % (A.carrier.name or "?", B.carrier.name or "?"))
    P = span.category
    pr1, pr2 = span.projections
    operations = {}
    for op in A.presentation.signature.operations:
        n = op.arity
        on_objects = {}
        for t in itertools.product(P.objects, repeat=n):
            a_val = A.op_obj(op.name, tuple(pr1.obj(x) for x in t))
            b_val = B.op_obj(op.name, tuple(pr2.obj(x) for x in t))
            on_objects[t] = span.obj_of[(a_val, b_val)]
        on_morphisms = {}
        for t in itertools.product([m.name for m in P.morphisms], repeat=n):
            a_val = A.op_mor(op.name, tuple(pr1.mor(x) for x in t))
            b_val = B.op_mor(op.name, tuple(pr2.mor(x) for x in t))
            on_morphisms[t] = span.mor_of[(a_val, b_val)]
        operations[op.name] = OpTable.from_maps(on_objects, on_morphisms)
    generators = {}
    for g in A.presentation.generators:
        comps = {}
        for t in itertools.product(P.objects, repeat=g.arity):
            a_val = A.gen_at(g.name, tuple(pr1.obj(x) for x in t))
            b_val = B.gen_at(g.name, tuple(pr2.obj(x) for x in t))
            comps[t] = span.mor_of[(a_val, b_val)]
        generators[g.name] = comps
    prod = Algebra(
        A.presentation, P, operations, generators,
        name="(%sx%s)" % (A.name or "?", B.name or "?"),
    )
    return prod, AlgebraHom(prod, A, pr1, name="pr1"), AlgebraHom(prod, B, pr2, name="pr2")


# -- subalgebras -------------------------------------------------------


def subalgebra_check(m: Functor, A: Algebra) -> Algebra:
    """Induce an algebra structure on the source of a faithful functor
    into A's carrier, or explain why none exists.

    Operation values are lifted along m by choosing the least preimage
    object (unique when m is injective on objects, as all bundled
    witnesses are); the lifted structure is then fully validated.
    """
    if m.target != A.carrier:
        raise BoundaryMismatch("witness functor must land in the algebra's carrier")
    if not classify(m).faithful:
        raise NotFaithful("witness functor is not faithful")
    S = m.source
    operations: Dict[str, OpTable] = {}
    for op in A.presentation.signature.operations:
        n = op.arity
        on_objects: Dict[Tuple[str, ...], str] = {}
        for t in itertools.product(S.objects, repeat=n):
            target = A.op_obj(op.name, tuple(m.obj(x) for x in t))
            lifts = [x for x in S.objects if m.obj(x) == target]
            if not lifts:
                raise NotClosedUnderOperations(
                    "operation %s at %r lands at %s, outside the image"
                    % (op.name, t, target),
                    witness=(op.name, t, target),
                )
            on_objects[t] = min(lifts)
        on_morphisms: Dict[Tuple[str, ...], str] = {}
        for t in itertools.product([u.name for u in S.morphisms], repeat=n):
            target = A.op_mor(op.name, tuple(m.mor(x) for x in t))
            d = on_objects[tuple(S.dom(x) for x in t)]
            c = on_objects[tuple(S.cod(x) for x in t)]
            lifts = [w for w in S.hom(d, c) if m.mor(w) == target]
            if not lifts:
                raise NotClosedUnderOperations(
                    "operation %s at %r lands at %s, outside the image"
                    % (op.name, t, target),
                    witness=(op.name, t, target),
                )
            on_morphisms[t] = lifts[0]
        operations[op.name] = OpTable.from_maps(on_objects, on_morphisms)
    generators: Dict[str, Dict[Tuple[str, ...], str]] = {}
    for g in A.presentation.generators:
        comps: Dict[Tuple[str, ...], str] = {}
        for t in itertools.product(S.objects, repeat=g.arity):
            target = A.gen_at(g.name, tuple(m.obj(x) for x in t))
            lifts = [w.name for w in S.morphisms if m.mor(w.name) == target]
            if not lifts:
                raise GeneratorComponentEscapes(
                    "generator %s component at %r is not in the image" % (g.name, t),
                    witness=(g.name, t, target),
                )
            comps[t] = min(lifts)
        generators[g.name] = comps
    sub = Algebra(A.presentation, S, operations, generators,
                  name="sub(%s)" % (A.name or "?"))
    # the witness is now a homomorphism from the induced algebra
    AlgebraHom(sub, A, m, name="m")
    return sub


# -- congruences and quotients ----------------------------------------


def congruence_operation_witness(A: Algebra, cong: Congruence):
    """First failure of operation-closure for a congruence, or None."""
    names = [m.name for m in A.carrier.morphisms]
    for cl in cong.classes:
        u = cl[0]
        for v in cl[1:]:
            for op in A.presentation.signature.operations:
                n = op.arity
                if n == 0:
                    continue
                for pos in range(n):
                    for rest in itertools.product(names, repeat=n - 1):
                        tu = rest[:pos] + (u,) + rest[pos:]
                        tv = rest[:pos] + (v,) + rest[pos:]
                        a = A.op_mor(op.name, tu)
                        b = A.op_mor(op.name, tv)
                        if not cong.related(a, b):
                            return (op.name, tu, tv, a, b)
    return None


def algebra_congruence_closure(
    A: Algebra, generators: Iterable[Tuple[str, str]]
) -> Congruence:
    """Least congruence on the carrier closed under composition contexts
    and under every operation's action on morphisms."""
    names = [m.name for m in A.carrier.morphisms]
    ops = [op for op in A.presentation.signature.operations if op.arity > 0]

    def op_rule(u: str, v: str):
        for op in ops:
            n = op.arity
            for pos in range(n):
                for rest in itertools.product(names, repeat=n - 1):
                    tu = rest[:pos] + (u,) + rest[pos:]
                    tv = rest[:pos] + (v,) + rest[pos:]
                    yield (A.op_mor(op.name, tu), A.op_mor(op.name, tv))

    cong = _saturate(A.carrier, generators, extra_rule=op_rule)
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
    if cong.base != A.carrier:
        raise BoundaryMismatch("congruence lives on a different carrier")
    bad = congruence_operation_witness(A, cong)
    if bad is not None:
        raise NotOperationClosed(
            "congruence is not closed under operation %s" % bad[0], witness=bad
        )
    Q, q = quotient_by_congruence(A.carrier, cong)
    rep = cong.rep_of
    qmors = [m.name for m in Q.morphisms]
    operations = {}
    for op in A.presentation.signature.operations:
        n = op.arity
        on_objects = {
            t: A.op_obj(op.name, t) for t in itertools.product(Q.objects, repeat=n)
        }
        on_morphisms = {
            t: rep[A.op_mor(op.name, t)] for t in itertools.product(qmors, repeat=n)
        }
        operations[op.name] = OpTable.from_maps(on_objects, on_morphisms)
    generators = {}
    for g in A.presentation.generators:
        generators[g.name] = {
            t: rep[A.gen_at(g.name, t)] for t in itertools.product(Q.objects, repeat=g.arity)
        }
    quot = Algebra(A.presentation, Q, operations, generators,
                   name="%s/~" % (A.name or "?"))
    hom = AlgebraHom(A, quot, q, name="q")
    return quot, hom


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
    if u.source != v.source or u.target != v.target:
        raise BoundaryMismatch("parallel homomorphisms required")
    # validates boundaries, the splitting laws and that the section kills both cells
    ReflexiveData(u.functor, v.functor, phi, psi, section.functor)
    A = u.target
    K = u.source
    gens = [(phi.at(k), psi.at(k)) for k in K.carrier.objects]
    from .fincat import congruence_closure

    cong = congruence_closure(A.carrier, gens)
    if congruence_operation_witness(A, cong) is not None:
        raise LiftFailure(
            "carrier coequifier does not support the algebra structure; "
            "input was not genuine reflexive algebra data",
            witness=congruence_operation_witness(A, cong),
        )
    return quotient_algebra(A, cong)
