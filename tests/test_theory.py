"""Theories, algebras, satisfaction and the algebra-level constructions."""
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from birkhoff2d import corpus, theory
from birkhoff2d.birkhoff import algebras_isomorphic
from birkhoff2d.errors import (
    BoundaryMismatch,
    LabError,
    LiftFailure,
    NonInvertibleComponent,
    NotClosedUnderOperations,
    NotOperationClosed,
    SignatureMismatch,
    SizeLimitExceeded,
    ValidationError,
)
from birkhoff2d.fincat import (
    Congruence,
    FinCategory,
    Functor,
    Morphism,
    classify,
    congruence_closure,
    enumerate_functors,
    identity_functor,
)
from birkhoff2d.theory import (
    Algebra,
    AlgebraHom,
    App,
    GenCell,
    IdCell,
    InvCell,
    Operation,
    Presentation,
    Signature,
    SubstCell,
    TwoCellGenerator,
    VCompCell,
    Var,
    algebra_congruence_closure,
    algebra_two_cells,
    compose_algebra_homs,
    congruence_operation_witness,
    enumerate_algebra_homs,
    eval_expr,
    eval_term_mor,
    eval_term_obj,
    is_algebra_hom,
    product_algebra,
    quotient_algebra,
    reflexive_coequifier_algebra,
    satisfies,
    subalgebra_check,
    subst_term,
    term_min_arity,
)


@pytest.fixture(scope="module")
def algebras(catalog):
    return catalog


@pytest.fixture(scope="module")
def xor(catalog):
    return catalog["xor_strict"]


@pytest.fixture(scope="module")
def sigma(catalog):
    return catalog["sigma_assoc"]


TENSOR = lambda l, r: App("tensor", (l, r))
UNIT = App("unit", ())


# -- signatures --------------------------------------------------------


def test_signature_rejects_unknown_operation():
    sig = Signature([Operation("unit", 0), Operation("tensor", 2)])
    with pytest.raises(SignatureMismatch):
        sig.check_term(App("mystery", ()), 0)


def test_signature_rejects_wrong_argument_count():
    sig = Signature([Operation("tensor", 2)])
    with pytest.raises(SignatureMismatch):
        sig.check_term(App("tensor", (Var(1),)), 1)


def test_signature_rejects_out_of_range_variable():
    sig = Signature([Operation("tensor", 2)])
    with pytest.raises(SignatureMismatch):
        sig.check_term(Var(3), 2)


def test_duplicate_operations_rejected():
    with pytest.raises(SignatureMismatch):
        Signature([Operation("tensor", 2), Operation("tensor", 2)])


def test_substitution_needs_an_argument_list():
    with pytest.raises(ValidationError):
        theory.expr_from_json(["subst", ["gen", "assoc"], 2])


# -- typing 2-cell expressions -----------------------------------------

ASSOC, LUNIT = GenCell("assoc"), GenCell("lunit")
T12 = TENSOR(Var(1), Var(2))
ASSOC_SOURCE, ASSOC_TARGET = TENSOR(T12, Var(3)), TENSOR(Var(1), TENSOR(Var(2), Var(3)))

# One malformed equation per typing error, with the class, message and
# witness the presentation (and an extension) refuses it with.
TYPING_ERRORS = [
    ((GenCell("nope"), ASSOC), SignatureMismatch,
     "unknown 2-cell generator 'nope'", GenCell("nope")),
    ((InvCell("lax"), InvCell("lax")), SignatureMismatch,
     "generator lax is not invertible", InvCell("lax")),
    ((VCompCell(ASSOC, LUNIT), ASSOC), BoundaryMismatch,
     "vertical composite mixes arities", VCompCell(ASSOC, LUNIT)),
    ((VCompCell(ASSOC, ASSOC), ASSOC), BoundaryMismatch,
     "vertical composite boundary mismatch", (ASSOC_TARGET, ASSOC_SOURCE)),
    ((SubstCell(ASSOC, (Var(1), Var(2))), IdCell(T12)), BoundaryMismatch,
     "substitution head has arity 3, got 2 arguments", SubstCell(ASSOC, (Var(1), Var(2)))),
    ((SubstCell(IdCell(T12), (Var(1),)), IdCell(Var(1))), BoundaryMismatch,
     "substitution head needs more arguments", SubstCell(IdCell(T12), (Var(1),))),
    ((SubstCell(IdCell(T12), (ASSOC, LUNIT)), ASSOC), BoundaryMismatch,
     "substitution arguments mix arities", SubstCell(IdCell(T12), (ASSOC, LUNIT))),
    ((ASSOC, LUNIT), BoundaryMismatch, "expressions have incompatible arities", None),
    ((SubstCell(IdCell(Var(1)), (LUNIT, Var(2))), LUNIT), BoundaryMismatch,
     "resolved arity below minimal variable index", None),
    ((IdCell(App("mystery", ())), IdCell(UNIT)), SignatureMismatch,
     "unknown operation 'mystery'", App("mystery", ())),
    ((ASSOC, IdCell(ASSOC_SOURCE)), BoundaryMismatch, "equation sides are not parallel",
     ((ASSOC_SOURCE, ASSOC_TARGET), (ASSOC_SOURCE, ASSOC_SOURCE))),
]


@pytest.mark.parametrize("equation,cls,message,witness", TYPING_ERRORS, ids=[
    "unknown-generator", "non-invertible-inverse", "vertical-arities", "vertical-boundary",
    "head-arity", "head-needs-arguments", "argument-arities", "equation-arities",
    "below-minimal-arity", "unknown-operation", "not-parallel"])
def test_ill_typed_equations_are_refused(xor, equation, cls, message, witness):
    base = xor.presentation
    lax = TwoCellGenerator("lax", 2, T12, T12, False)
    refused = (cls, message, witness)
    assert _rejection(lambda: Presentation(
        base.signature, generators=base.generators + (lax,),
        two_cell_equations=[equation])) == refused
    if equation[0] != InvCell("lax"):
        assert _rejection(lambda: theory.Extension(base, [equation])) == refused


# -- evaluation and the substitution property --------------------------


def test_tensor_tables_on_xor(xor):
    assert eval_term_obj(xor, TENSOR(Var(1), Var(2)), ("1", "1")) == "0"
    assert eval_term_obj(xor, UNIT, ()) == "0"
    assert eval_term_mor(xor, TENSOR(Var(1), Var(2)), ("s0", "id1")) == "s1"
    assert eval_term_mor(xor, TENSOR(Var(1), Var(2)), ("s0", "s1")) == "id1"


DEPTH3_TERMS = [
    (Var(1), 1),
    (TENSOR(Var(1), Var(2)), 2),
    (TENSOR(Var(2), Var(1)), 2),
    (TENSOR(TENSOR(Var(1), Var(2)), Var(3)), 3),
    (TENSOR(Var(1), TENSOR(Var(2), UNIT)), 2),
]


@pytest.mark.parametrize("name", ["xor_strict", "two_max"])
def test_substitution_commutes_with_evaluation(algebras, name):
    A = algebras[name]
    args2 = [TENSOR(Var(1), Var(2)), Var(2), UNIT]
    for (t, n) in DEPTH3_TERMS:
        args = args2[:n] if n <= len(args2) else None
        if args is None:
            continue
        composed = subst_term(t, args)
        m = max(term_min_arity(a) for a in args)
        for tup in A.obj_tuples(m):
            inner = tuple(eval_term_obj(A, a, tup) for a in args)
            assert eval_term_obj(A, composed, tup) == eval_term_obj(A, t, inner)
        for tup in A.mor_tuples(m):
            inner = tuple(eval_term_mor(A, a, tup) for a in args)
            assert eval_term_mor(A, composed, tup) == eval_term_mor(A, t, inner)


def _terms(depth):
    if depth == 0:
        return st.sampled_from([Var(1), Var(2), UNIT])
    sub = _terms(depth - 1)
    return st.one_of(sub, st.tuples(sub, sub).map(lambda p: TENSOR(*p)))


@settings(max_examples=60, deadline=None)
@given(t=_terms(2), args=st.tuples(_terms(1), _terms(1)))
def test_substitution_lemma_random_terms(t, args):
    A = corpus.catalog_algebra("xor_strict")
    composed = subst_term(t, list(args))
    for tup in A.obj_tuples(2):
        inner = tuple(eval_term_obj(A, a, tup) for a in args)
        assert eval_term_obj(A, composed, tup) == eval_term_obj(A, t, inner)
    for tup in A.mor_tuples(2):
        inner = tuple(eval_term_mor(A, a, tup) for a in args)
        assert eval_term_mor(A, composed, tup) == eval_term_mor(A, t, inner)


# -- interpretation ----------------------------------------------------


def test_interpret_variable_is_projection(xor):
    F = oracles.interpret_term(xor, Var(1), 1)
    for a in xor.carrier.objects:
        assert F.obj("(%s)" % a) == a


def test_interpret_tensor_matches_tables(xor):
    F = oracles.interpret_term(xor, TENSOR(Var(1), Var(2)), 2)
    for (a, b) in itertools.product(xor.carrier.objects, repeat=2):
        assert F.obj("(%s,%s)" % (a, b)) == xor.op_obj("tensor", (a, b))


def test_identity_cell_interprets_to_identity_nat(xor):
    t = TENSOR(Var(1), Var(2))
    nat = oracles.interpret_two_cell(xor, IdCell(t), 2)
    C = xor.carrier
    for o, comp in nat.components.items():
        assert C.is_identity(comp)


def test_vertical_composite_cell_matches_vcompose(sigma):
    g = GenCell("assoc")
    comp_expr = oracles.interpret_two_cell(sigma, VCompCell(InvCell("assoc"), g), 3)
    direct = oracles.vcompose(
        oracles.interpret_two_cell(sigma, InvCell("assoc"), 3),
        oracles.interpret_two_cell(sigma, g, 3),
    )
    assert comp_expr == direct


def test_inverse_cell_cancels_generator(sigma):
    both = VCompCell(InvCell("assoc"), GenCell("assoc"))
    nat = oracles.interpret_two_cell(sigma, both, 3)
    src = TENSOR(Var(1), TENSOR(Var(2), Var(3)))
    assert nat == oracles.interpret_two_cell(sigma, IdCell(src), 3)


def test_twisted_associator_components(sigma):
    nat = oracles.interpret_two_cell(sigma, GenCell("assoc"), 3)
    assert sorted(set(nat.components.values())) == ["s0", "s1"]


def _subexpressions(e, n, found):
    """Record e at arity n and every expression inside it at its arity: a
    substitution head at its number of arguments, the rest at n."""
    found[(e, n)] = None
    if isinstance(e, VCompCell):
        _subexpressions(e.after, n, found)
        _subexpressions(e.before, n, found)
    elif isinstance(e, SubstCell):
        _subexpressions(e.head, len(e.args), found)
        for a in e.args:
            if isinstance(a, (VCompCell, SubstCell, GenCell, InvCell, IdCell)):
                _subexpressions(a, n, found)


def _cyclic_algebra(presentation):
    """The cyclic group of order 3 as a one-object carrier, tensor its
    multiplication, with every generator component a: the corpus components
    are all their own inverses, these are not."""
    names = ("e", "a", "b")
    C = FinCategory(["*"], [Morphism(u, "*", "*") for u in names], {"*": "e"},
                    {(u, v): names[(i + j) % 3] for i, u in enumerate(names)
                     for j, v in enumerate(names)}, name="z3")
    ops = {"unit": ({(): "*"}, {(): "e"}),
           "tensor": ({("*", "*"): "*"}, C.composition)}
    gens = {g.name: {("*",) * g.arity: "a"} for g in presentation.generators}
    return Algebra(presentation, C, ops, gens, name="z3_twisted")


def _typed_subexpressions(E, found):
    """Every subexpression of the 2-cell equations of a presentation or an
    extension, with its arity."""
    for (l, r, n) in E._cell_equations:
        _subexpressions(l, n, found)
        _subexpressions(r, n, found)
    return found


def _check_diagonals(A, found, checked, max_morphisms):
    """eval_expr at the identity tuple of x is the reference component
    e_x, for every object tuple x; at every morphism tuple m: x -> y it is
    t(m).e_x = e_y.s(m), when the carrier has at most max_morphisms."""
    C = A.carrier
    for (e, n) in found:
        s, t = oracles.boundary(A.presentation, e)
        comps = {x: oracles.eval_expr_at_objects(A, e, x) for x in A.obj_tuples(n)}
        for x, e_x in comps.items():
            assert eval_expr(A, e, tuple(map(C.identity, x))) == e_x, (A.name, e, x)
        checked[0] += len(comps)
        if len(C.morphisms) > max_morphisms:
            continue
        for m in A.mor_tuples(n):
            diagonal = eval_expr(A, e, m)
            e_x, e_y = comps[tuple(map(C.dom, m))], comps[tuple(map(C.cod, m))]
            assert diagonal == C.compose(eval_term_mor(A, t, m), e_x), (A.name, e, m)
            assert diagonal == C.compose(e_y, eval_term_mor(A, s, m)), (A.name, e, m)
            checked[1] += 1


def test_diagonals_match_the_components_of_the_reference(algebras, coherence):
    """Every subexpression of a corpus equation, plus two with inverse
    cells (the corpus has none), on every catalog algebra, every binary
    product of two and a cyclic algebra whose components are not their own
    inverses.  Morphism tuples are checked on the algebras with at most six
    morphisms: the ten larger products would add 2.6 million tuples (over
    a minute), and a product acts componentwise, so each of their tuples
    pairs two tuples checked on the factors."""
    inverses = theory.Extension(coherence.base, [(e, e) for e in (
        VCompCell(SubstCell(InvCell("assoc"), (Var(1), Var(2), UNIT)),
                  SubstCell(ASSOC, (Var(1), Var(2), UNIT))),
        SubstCell(InvCell("lunit"), (SubstCell(InvCell("runit"), (Var(1),)),)))])
    found = {}
    for E in (coherence.base, coherence, inverses):
        _typed_subexpressions(E, found)
    pairs = itertools.combinations_with_replacement(list(algebras.values()), 2)
    checked = [0, 0]
    cyclic = _cyclic_algebra(coherence.base)
    for A in [cyclic] + list(algebras.values()) + [product_algebra(*p)[0] for p in pairs]:
        _check_diagonals(A, found, checked, 6)
    assert (len(found), checked) == (28, [20248, 51564])


def _column(tuples):
    """The columns of a list of tuples and their length."""
    return [list(c) for c in zip(*tuples)], len(tuples)


def _walk_cases(algebras, coherence):
    """The catalog, its binary products (xor_strict^2 among them) and the
    two apexes of refl.json; every generator, its inverse and every
    subexpression of the coherence equations, with their arities."""
    pairs = itertools.combinations_with_replacement(list(algebras.values()), 2)
    apexes = [datum["u"].source for datum in corpus.refl_data()]
    found = {}
    for g in coherence.base.generators:
        found[(GenCell(g.name), g.arity)] = found[(InvCell(g.name), g.arity)] = None
    return (list(algebras.values()) + [product_algebra(*p)[0] for p in pairs] + apexes,
            _typed_subexpressions(coherence, found))


def test_columns_equal_the_per_tuple_walk(algebras, coherence):
    """Each expression and its boundary terms, evaluated a column at a time,
    equal the per-tuple walk of the oracles at every identity tuple, and
    at every morphism tuple where an expression has at most 1296 (six
    morphisms at arity 4)."""
    bases, found = _walk_cases(algebras, coherence)
    checked = [0, 0]
    for A in bases:
        C = A.carrier
        for (e, n) in found:
            s, t = oracles.boundary(A.presentation, e)
            identities = [tuple(map(C.identity, x)) for x in A.obj_tuples(n)]
            mors = list(A.mor_tuples(n)) if len(C.morphisms) ** n <= 1296 else []
            for k, tuples in enumerate((identities, mors)):
                if not tuples:
                    continue
                assert theory._expr_column(A, e, *_column(tuples)) == [
                    oracles.walk_expr(A, e, m) for m in tuples], (A.name, e)
                for term in (s, t):
                    assert theory._term_column(A._op_mor, term, *_column(tuples)) == [
                        oracles.walk_term_mor(A, term, m) for m in tuples], (A.name, term)
                checked[k] += len(tuples)
            objects = list(A.obj_tuples(n))
            for term in (s, t):
                assert theory._term_column(A._op_obj, term, *_column(objects)) == [
                    oracles.walk_term_obj(A, term, x) for x in objects], (A.name, term)
    assert (len(bases), len(found), checked) == (29, 23, [25279, 69494])


@pytest.mark.parametrize("slice_size", [theory._SLICE, 7])
def test_satisfaction_follows_the_per_tuple_walk(algebras, coherence, monkeypatch,
                                                 slice_size):
    """satisfies reports the walk's witness, and the 2-cell disagreements
    that reflect identifies come in the walk's order, for the monoidal
    presentation, the coherence extension and lunit = runit at the unit,
    also when slices of 7 tuples split every equation's tuples."""
    monkeypatch.setattr(theory, "_SLICE", slice_size)
    base = coherence.base
    theories = [base, coherence, theory.Extension(base, [
        (SubstCell(LUNIT, (UNIT,)), SubstCell(GenCell("runit"), (UNIT,)))])]
    failures, identified = 0, 0
    for A in _walk_cases(algebras, coherence)[0]:
        for E in theories:
            witness = oracles.satisfaction_witness_by_walk(A, E)
            assert satisfies(A, E).witness == witness, (A.name, E)
            pairs = list(theory._cell_disagreements(A, E))
            assert pairs == list(oracles.cell_disagreements_by_walk(A, E)), (A.name, E)
            failures += witness is not None
            identified += len(pairs)
    assert (failures, identified) == (13, 944)


def test_diagonals_tell_a_generator_source_from_its_target():
    """On the catalog every generator's two boundary terms agree on
    morphisms.  Here turn: x => flip(x) on the category 0 <-> 1 has
    components 0 -> 1 and 1 -> 0, so only the right term composes."""
    sig = Signature([Operation("flip", 1)])
    turn = TwoCellGenerator("turn", 1, Var(1), App("flip", (Var(1),)), True)
    pres = Presentation(sig, generators=[turn])
    C = FinCategory(["0", "1"], [Morphism("id0", "0", "0"), Morphism("id1", "1", "1"),
                                 Morphism("u", "0", "1"), Morphism("v", "1", "0")],
                    {"0": "id0", "1": "id1"},
                    {("id0", "id0"): "id0", ("id1", "id1"): "id1", ("u", "id0"): "u",
                     ("id1", "u"): "u", ("v", "id1"): "v", ("id0", "v"): "v",
                     ("u", "v"): "id1", ("v", "u"): "id0"}, name="iso")
    flip = ({("0",): "1", ("1",): "0"},
            {("id0",): "id1", ("id1",): "id0", ("u",): "v", ("v",): "u"})
    A = Algebra(pres, C, {"flip": flip}, {"turn": {("0",): "u", ("1",): "v"}}, name="turn")
    g, inv = GenCell("turn"), InvCell("turn")
    cells = theory.Extension(pres, [(e, e) for e in (
        VCompCell(inv, g), VCompCell(g, inv), SubstCell(g, (inv,)),
        SubstCell(IdCell(App("flip", (Var(1),))), (g,)))])
    checked = [0, 0]
    _check_diagonals(A, _typed_subexpressions(cells, {}), checked, 4)
    assert checked == [14, 28]


# -- satisfaction ------------------------------------------------------


def test_coherent_algebras_satisfy(algebras, coherence):
    for name in ("xor_strict", "two_max", "z2_strict", "terminal_alg"):
        assert satisfies(algebras[name], coherence)


def test_twisted_algebras_fail_with_witness(algebras, coherence):
    res = satisfies(algebras["sigma_assoc"], coherence)
    assert not res
    assert res.witness == {
        "kind": "two_cell",
        "equation": 0,
        "tuple": ("0", "0", "0", "0"),
        "lhs": "id0",
        "rhs": "s0",
    }
    assert not satisfies(algebras["z2_sigma"], coherence)


def test_satisfaction_of_bare_presentation():
    bare = corpus.workspace().presentation(corpus.corpus_root() / "bare.json")
    assert satisfies(corpus.plain_p(), bare)


def test_satisfies_rejects_foreign_signature(coherence):
    with pytest.raises(SignatureMismatch):
        satisfies(corpus.plain_p(), coherence)


# Trusted tables on two_max x z2_strict (objects (0,*) and (1,*)), tested
# against lunit.lunit^-1 = 1: "twist" makes the unit tensor (id0,s) at
# (0,*), so the equation fails there; "stuck" gives lunit the
# non-invertible component (t,1) at (1,*), "loose" the component (id0,1),
# which does not compose with (id1,1).  An error at (1,*) comes after the
# disagreement at (0,*), and is raised when there is none.
EVALUATION_ORDER = [
    ("stuck", None, (NonInvertibleComponent, "component of lunit at ('(1,*)',) has no inverse",
                     ("lunit", ("(1,*)",)))),
    ("twist stuck", {"kind": "two_cell", "equation": 0, "tuple": ("(0,*)",),
                     "lhs": "(id0,s)", "rhs": "(id0,1)"}, None),
    ("loose", None, (BoundaryMismatch, "pair ((id1,1), (id0,1)) is not composable in (twoxz2)",
                     ("(id1,1)", "(id0,1)"))),
    ("twist loose", {"kind": "two_cell", "equation": 0, "tuple": ("(0,*)",),
                     "lhs": "(id0,s)", "rhs": "(id0,1)"}, None),
]


@pytest.mark.parametrize("slice_size", [theory._SLICE, 1])
@pytest.mark.parametrize("tables,witness,error", EVALUATION_ORDER,
                         ids=[case[0] for case in EVALUATION_ORDER])
def test_an_earlier_disagreement_comes_before_an_evaluation_error(
        algebras, monkeypatch, tables, witness, error, slice_size):
    """The same witness or error as the per-tuple walk, whether the two
    tuples share a slice or not."""
    monkeypatch.setattr(theory, "_SLICE", slice_size)
    P = product_algebra(algebras["two_max"], algebras["z2_strict"])[0]
    ops, gens = _tables(P)
    if "twist" in tables:
        ops["tensor"][1][("(id0,1)", "(id0,1)")] = "(id0,s)"
    gens["lunit"][("(1,*)",)] = "(t,1)" if "stuck" in tables else "(id0,1)"
    A = Algebra._trusted(P.presentation, P.carrier, ops, gens)
    E = theory.Extension(P.presentation, [
        (VCompCell(LUNIT, InvCell("lunit")), IdCell(Var(1)))])
    if error is None:
        assert satisfies(A, E).witness == witness
        assert oracles.satisfaction_witness_by_walk(A, E) == witness
    else:
        assert _rejection(lambda: satisfies(A, E)) == error
        assert _rejection(lambda: oracles.satisfaction_witness_by_walk(A, E)) == error


# -- algebra validation ------------------------------------------------


def _tables(A):
    """Mutable copies of A's operation tables and generator components."""
    ops = {k: (dict(A._op_obj[k]), dict(A._op_mor[k])) for k in A._op_obj}
    return ops, {k: dict(v) for k, v in A._gen.items()}


def _build(A, ops, gens, presentation=None):
    return Algebra(presentation or A.presentation, A.carrier, ops, gens)


def _rejection(build):
    try:
        build()
    except LabError as exc:
        return type(exc), str(exc), exc.witness
    return None


def _table(ops, gens, slot, key):
    """The object ("obj") or morphism ("mor") table of an operation, or the
    components of a generator ("gen")."""
    return gens[key] if slot == "gen" else ops[key][slot == "mor"]


def _with_entry(ops, gens, slot, key, t, value):
    """Set one entry, or delete it when value is None."""
    table = _table(ops, gens, slot, key)
    if value is None:
        del table[t]
    else:
        table[t] = value


# One mutated table per branch of Algebra validation, with the class,
# message and witness the all-pairs validation raised for it.
REJECTIONS = [
    ("xor_strict", ("obj", "tensor", ("0", "1"), None), ValidationError,
     "operation tensor: object table does not cover the 2-tuples", None),
    ("xor_strict", ("mor", "tensor", ("s0", "s1"), None), ValidationError,
     "operation tensor: morphism table does not cover the 2-tuples", None),
    ("xor_strict", ("obj", "unit", (), "zz"), ValidationError,
     "operation unit maps () outside the carrier", None),
    ("xor_strict", ("mor", "tensor", ("id0", "id0"), "id1"), ValidationError,
     "operation tensor: boundary not preserved at ('id0', 'id0')",
     ("tensor", ("id0", "id0"))),
    ("xor_strict", ("mor", "tensor", ("id0", "id0"), "s0"), ValidationError,
     "operation tensor: identities not preserved at ('0', '0')", ("tensor", ("0", "0"))),
    ("xor_strict", ("mor", "tensor", ("id0", "s0"), "id0"), ValidationError,
     "operation tensor: composition not preserved",
     ("tensor", ("id0", "s0"), ("s0", "id0"))),
    ("xor_strict", ("gen", "lunit", ("1",), None), ValidationError,
     "generator lunit: components do not cover the 1-tuples", None),
    ("xor_strict", ("gen", "lunit", ("0",), "id1"), BoundaryMismatch,
     "generator lunit at ('0',) has boundary 1 -> 1, wanted 0 -> 0", ("lunit", ("0",))),
    ("two_max x z2_strict", ("gen", "lunit", ("(0,*)",), "(id0,s)"), ValidationError,
     "generator lunit: naturality fails at ('(t,1)',)", ("lunit", ("(t,1)",))),
]


@pytest.mark.parametrize("base,mutation,cls,message,witness", REJECTIONS, ids=[
    "object-coverage", "morphism-coverage", "outside-carrier", "boundary", "identities",
    "composition", "generator-coverage", "generator-boundary", "naturality"])
def test_algebra_rejection_branches(algebras, base, mutation, cls, message, witness):
    if " x " in base:
        A, _, _ = product_algebra(*(algebras[n] for n in base.split(" x ")))
    else:
        A = algebras[base]
    ops, gens = _tables(A)
    _with_entry(ops, gens, *mutation)
    assert _rejection(lambda: _build(A, ops, gens)) == (cls, message, witness)


def test_algebra_rejects_a_non_invertible_component(algebras):
    """A generator declared invertible, x1 => x1 (x) x2 on two_max, whose
    component at (0, 1) is the non-invertible arrow t."""
    A = algebras["two_max"]
    gen = TwoCellGenerator("u", 2, Var(1), TENSOR(Var(1), Var(2)), True)
    pres = Presentation(A.presentation.signature, generators=[gen])
    ops, _ = _tables(A)
    comps = {t: A.carrier.hom(t[0], A.op_obj("tensor", t))[0]
             for t in itertools.product(A.carrier.objects, repeat=2)}
    assert _rejection(lambda: _build(A, ops, {"u": comps}, pres)) == (
        NonInvertibleComponent, "generator u component at ('0', '1') is not invertible",
        ("u", ("0", "1")))


@pytest.mark.parametrize("carrier,table,message", [
    ("p", "ops", "operation big: object table does not cover the 30-tuples"),
    ("z2", "ops", "operation big: morphism table does not cover the 30-tuples"),
    ("p", "gens", "generator g: components do not cover the 30-tuples"),
], ids=["object-table", "morphism-table", "generator"])
def test_a_short_table_is_refused_without_enumerating_the_tuples(
        monkeypatch, carrier, table, message):
    """An empty table at arity 30 is refused by its size: on two objects,
    or two morphisms, the 30-tuples number 2^30 and cannot be listed."""
    def at_most_a_thousand(tuples):
        def guarded(self, n):
            found = list(itertools.islice(tuples(self, n), 1001))
            if len(found) > 1000:
                raise AssertionError("enumerated the %d-tuples" % n)
            return iter(found)
        return guarded

    for name in ("obj_tuples", "mor_tuples"):
        monkeypatch.setattr(Algebra, name, at_most_a_thousand(getattr(Algebra, name)))
    C = corpus.category(carrier)
    if table == "ops":
        pres = Presentation(Signature([Operation("big", 30)]))
        # z2 has one object, so its object table is whole with one entry
        whole = {("*",) * 30: "*"} if carrier == "z2" else {}
        ops, gens = {"big": (whole, {})}, {}
    else:
        pres = Presentation(Signature([]),
                            generators=[TwoCellGenerator("g", 30, Var(1), Var(1), False)])
        ops, gens = {}, {"g": {}}
    with pytest.raises(ValidationError) as info:
        Algebra(pres, C, ops, gens)
    assert str(info.value) == message


def _with_equations(A, coherence, term_equations):
    base = A.presentation
    return Presentation(base.signature, term_equations, base.generators,
                        coherence.added_two_cell_equations)


def test_algebra_equations_are_decided_by_satisfies(algebras, coherence):
    """Presentation equations are checked at construction and reported
    with the witness of satisfies; an algebra satisfying them builds."""
    xor, sigma = algebras["xor_strict"], algebras["sigma_assoc"]
    left_unit = (TENSOR(UNIT, Var(1)), Var(1))
    pres = _with_equations(xor, coherence, [left_unit])
    assert _build(xor, *_tables(xor), pres).presentation == pres
    pres = _with_equations(xor, coherence, [(TENSOR(Var(1), Var(2)), Var(1))])
    witness = {"kind": "term", "equation": 0, "tuple": ("0", "1"), "lhs": "1", "rhs": "0"}
    assert _rejection(lambda: _build(xor, *_tables(xor), pres)) == (
        ValidationError, "equation of the presentation fails: %r" % (witness,), witness)
    pres = _with_equations(sigma, coherence, [left_unit])
    witness = {"kind": "two_cell", "equation": 0, "tuple": ("0", "0", "0", "0"),
               "lhs": "id0", "rhs": "s0"}
    assert _rejection(lambda: _build(sigma, *_tables(sigma), pres)) == (
        ValidationError, "equation of the presentation fails: %r" % (witness,), witness)


def test_algebra_validation_matches_the_all_pairs_reference(algebras):
    """2000 random mutations of catalog and product algebras: each is
    rejected with the class, message and witness of the all-pairs
    validation, or accepted by both."""
    bases = list(algebras.values()) + [
        product_algebra(algebras["two_max"], algebras["two_max"])[0],
        product_algebra(algebras["two_max"], algebras["z2_strict"])[0],
    ]
    rng = random.Random(0)
    seen = {}
    for _ in range(2000):
        A = rng.choice(bases)
        ops, gens = _tables(A)
        slots = [(s, k) for k in sorted(ops) for s in ("obj", "mor")]
        slots += [("gen", k) for k in sorted(gens)]
        for _ in range(rng.choice((1, 1, 2, 3))):
            slot, key = rng.choice(slots)
            table = _table(ops, gens, slot, key)
            pool = A.carrier.objects if slot == "obj" else [m.name for m in A.carrier.morphisms]
            if table:
                value = None if rng.random() < 0.1 else rng.choice(list(pool) + ["zz"])
                _with_entry(ops, gens, slot, key, rng.choice(sorted(table)), value)
        new = _rejection(lambda: Algebra(A.presentation, A.carrier, ops, gens))
        old = _rejection(lambda: oracles.validate_by_all_pairs(oracles.unvalidated_algebra(
            A.presentation, A.carrier, ops, gens)))
        assert new == old
        branch = new and new[1].split(":")[-1].split(" at ")[0].strip()
        seen[branch] = seen.get(branch, 0) + 1
    assert seen["composition not preserved"] >= 20
    assert seen["naturality fails"] >= 3
    assert seen[None] >= 200


def test_validation_in_slices_of_five_matches_the_all_pairs_reference(algebras, monkeypatch):
    """The same mutations when slices of 5 tuples split the generator
    boundary and naturality checks."""
    monkeypatch.setattr(theory, "_SLICE", 5)
    test_algebra_validation_matches_the_all_pairs_reference(algebras)


# -- homomorphisms and 2-cells -----------------------------------------


def test_hom_counts(algebras):
    xor, two_max = algebras["xor_strict"], algebras["two_max"]
    sigma, term = algebras["sigma_assoc"], algebras["terminal_alg"]
    assert len(enumerate_algebra_homs(xor, xor)) == 4
    assert len(enumerate_algebra_homs(two_max, two_max)) == 2
    assert len(enumerate_algebra_homs(sigma, sigma)) == 2
    assert len(enumerate_algebra_homs(term, xor)) == 1
    assert len(enumerate_algebra_homs(xor, term)) == 1


def test_structure_breaking_functor_is_refused(xor):
    Z = xor.carrier
    swap = Functor(Z, Z, {"0": "1", "1": "0"},
                   {"id0": "id1", "id1": "id0", "s0": "s1", "s1": "s0"}, name="swap")
    res = is_algebra_hom(swap, xor, xor)
    assert not res
    assert res.witness == {"kind": "operation-objects", "op": "unit", "tuple": ()}


def test_algebra_two_cells_between_identity(xor):
    idh = AlgebraHom(xor, xor, identity_functor(xor.carrier), name="id")
    cells = algebra_two_cells(idh, idh)
    comps = sorted(tuple(sorted(w.components.items())) for w in cells)
    assert comps == [
        (("0", "id0"), ("1", "id1")),
        (("0", "id0"), ("1", "s1")),
    ]


def test_two_cells_need_parallel_homs(algebras):
    xor, term = algebras["xor_strict"], algebras["terminal_alg"]
    idh = AlgebraHom(xor, xor, identity_functor(xor.carrier), name="id")
    (unit,) = enumerate_algebra_homs(term, xor)
    for h, k in ((idh, unit), (unit, idh)):
        with pytest.raises(BoundaryMismatch, match="^need parallel functors$"):
            algebra_two_cells(h, k)


def test_hom_and_two_cell_searches_match_the_filters(algebras):
    """The searches that check their laws as they go return what filtering
    every carrier functor and every transformation keeps, in the same
    order: on every ordered pair of catalog algebras and plain_p, and from
    and to each binary product of catalog algebras."""
    members = list(algebras.values())
    pairs = list(itertools.product(members + [corpus.plain_p()], repeat=2))
    for A, B in itertools.combinations_with_replacement(members, 2):
        P = product_algebra(A, B)[0]
        pairs += [(P, C) for C in members] + [(C, P) for C in members]
    homs = cells = mismatched = 0
    for A, B in pairs:
        if A.presentation.signature != B.presentation.signature:
            for search in (enumerate_algebra_homs, oracles.algebra_homs_by_filter):
                with pytest.raises(SignatureMismatch):
                    search(A, B)
            mismatched += 1
            continue
        found = enumerate_algebra_homs(A, B)
        assert found == oracles.algebra_homs_by_filter(A, B), (A.name, B.name)
        for h, k in itertools.product(found, repeat=2):
            got = algebra_two_cells(h, k)
            assert got == oracles.algebra_two_cells_by_filter(h, k), (A.name, B.name)
            cells += len(got)
        homs += len(found)
    assert (len(pairs), mismatched, homs, cells) == (301, 12, 422, 888)


def test_hom_searches_on_powers_of_xor_finish_under_the_default_limit(xor):
    """Each of these searches exceeds the default limit when every carrier
    functor is enumerated and then filtered."""
    x2, pr1, pr2 = product_algebra(xor, xor)
    x3 = product_algebra(x2, xor)[0]
    homs = enumerate_algebra_homs(x2, x2)
    into_xor = enumerate_algebra_homs(x2, xor)
    # a homomorphism into a product is the pair of its legs
    assert len(homs) == len(into_xor) ** 2 == 256
    assert ({(compose_algebra_homs(pr1, h), compose_algebra_homs(pr2, h)) for h in homs}
            == set(itertools.product(into_xor, repeat=2)))
    iso = algebras_isomorphic(x2, x2)
    assert iso is not None
    flags = classify(iso.functor)
    assert flags.bo and flags.ff
    cube = enumerate_algebra_homs(x3, xor)
    assert len(cube) == 64
    assert all(is_algebra_hom(h.functor, x3, xor) for h in cube)


def test_hom_search_stays_under_a_limit_the_carrier_search_passes(xor):
    """The laws prune the functor search: xor_strict^2 -> xor_strict visits
    328 nodes against 21,216 for every carrier functor, so under a limit
    between the two the homomorphisms still come out, in the order of
    enumerating and filtering, while the carrier enumeration raises, cold
    and warm."""
    x2 = product_algebra(xor, xor)[0]
    limit = 1000
    with pytest.raises(SizeLimitExceeded):
        enumerate_functors(x2.carrier, xor.carrier, limit=limit)
    homs = enumerate_algebra_homs(x2, xor, limit=limit)
    assert homs == oracles.algebra_homs_by_filter(x2, xor)
    assert len(homs) == 16
    with pytest.raises(SizeLimitExceeded):
        enumerate_functors(x2.carrier, xor.carrier, limit=limit)
    with pytest.raises(SizeLimitExceeded):
        enumerate_algebra_homs(x2, xor, limit=327)


# -- products ----------------------------------------------------------


def test_product_projections_and_satisfaction(algebras, coherence):
    xor, two_max, sigma = (algebras[k] for k in
                           ("xor_strict", "two_max", "sigma_assoc"))
    prod, pr1, pr2 = product_algebra(xor, two_max)
    assert pr1.source is prod and pr2.source is prod
    assert satisfies(prod, coherence)
    bad, _, _ = product_algebra(sigma, xor)
    assert not satisfies(bad, coherence)


def test_product_rejects_different_presentations(algebras):
    with pytest.raises(SignatureMismatch):
        product_algebra(algebras["xor_strict"], corpus.plain_p())


# -- subalgebras -------------------------------------------------------


def test_subalgebra_at_unit_object(xor, coherence, cats):
    m = Functor(cats["one"], xor.carrier, {"*": "0"}, {"id": "id0"}, name="at0")
    sub = subalgebra_check(m, xor)
    assert satisfies(sub, coherence)
    assert sub.op_obj("unit", ()) == "*"


def test_subalgebra_away_from_unit_is_rejected(xor, cats):
    m = Functor(cats["one"], xor.carrier, {"*": "1"}, {"id": "id1"}, name="at1")
    with pytest.raises(NotClosedUnderOperations) as exc:
        subalgebra_check(m, xor)
    assert exc.value.witness == ("unit", (), "0")


def test_accepted_witnesses_are_homomorphisms_from_the_induced_algebra(cats, catalog):
    """subalgebra_check lifts each operation value and generator component to
    a preimage of the value the witness must reach, so the witness is a
    homomorphism from the induced algebra by construction. Checked on the
    corpus witnesses and on every faithful functor from a corpus category
    into a catalog carrier that subalgebra_check accepts."""
    cases = list(corpus.sub_witnesses()) + [
        (m, A) for A in catalog.values() for C in cats.values()
        for m in enumerate_functors(C, A.carrier) if classify(m).faithful]
    accepted = 0
    for m, A in cases:
        try:
            sub = subalgebra_check(m, A)
        except LabError:
            continue
        assert is_algebra_hom(m, sub, A)
        accepted += 1
    assert (len(cases), accepted) == (71, 20)


# -- congruences and quotients -----------------------------------------


def test_discrete_quotient_is_the_algebra(xor):
    disc = congruence_closure(xor.carrier, [])
    quot, h = quotient_algebra(xor, disc)
    assert quot == xor
    flags = classify(h.functor)
    assert flags.bo and flags.ff


def test_operation_closure_witness_and_rejection(xor):
    partial = Congruence(xor.carrier, [["id0", "s0"], ["id1"], ["s1"]])
    w = congruence_operation_witness(xor, partial)
    assert w == ("tensor", ("id0", "id1"), ("s0", "id1"), "id1", "s1")
    with pytest.raises(NotOperationClosed) as exc:
        quotient_algebra(xor, partial)
    assert exc.value.witness == w


def test_algebra_congruence_closure_collapses_both_fibres(xor, coherence):
    cc = algebra_congruence_closure(xor, [("id0", "s0")])
    assert cc.classes == (("id0", "s0"), ("id1", "s1"))
    assert congruence_operation_witness(xor, cc) is None
    quot, h = quotient_algebra(xor, cc)
    assert classify(h.functor).bo_full
    assert satisfies(quot, coherence)


def test_algebra_congruence_closure_is_a_fixpoint(xor):
    cc = algebra_congruence_closure(xor, [("id0", "s0")])
    pairs = [(cl[0], u) for cl in cc.classes for u in cl[1:]]
    assert algebra_congruence_closure(xor, pairs) == cc


# -- reflexive coequifiers ---------------------------------------------


def test_bundled_reflexive_data_quotients(coherence):
    sizes = {}
    for d in corpus.refl_data():
        quot, proj = reflexive_coequifier_algebra(
            d["u"], d["v"], d["phi"], d["psi"], d["section"])
        assert classify(proj.functor).bo_full
        assert satisfies(quot, coherence)
        sizes[d["name"]] = len(quot.carrier.morphisms)
    assert sizes == {
        "two_max-projection-vs-tensor": 3,
        "xor-character-collapse": 2,
    }


def test_coequifier_that_does_not_descend_is_a_lift_failure(monkeypatch):
    """An operation-closure failure of the carrier coequifier surfaces as
    LiftFailure with the witness of the failing context."""
    d = corpus.refl_data()[0]
    context = ("tensor", ("id0", "t"), ("t", "t"), "t", "id1")
    monkeypatch.setattr(theory, "congruence_operation_witness", lambda A, cong: context)
    with pytest.raises(LiftFailure) as exc:
        reflexive_coequifier_algebra(d["u"], d["v"], d["phi"], d["psi"], d["section"])
    assert exc.value.witness == context


# -- satisfaction is preserved by the constructions --------------------


def test_satisfaction_closed_under_all_four_constructions(algebras, coherence, cats):
    good = [algebras[k] for k in ("xor_strict", "two_max", "z2_strict", "terminal_alg")]
    for A in good:
        for B in good:
            prod, _, _ = product_algebra(A, B)
            assert satisfies(prod, coherence), (A.name, B.name)
    for (m, member) in corpus.sub_witnesses():
        sub = subalgebra_check(m, member)
        assert satisfies(sub, coherence)
    xor = algebras["xor_strict"]
    for gens in ([], [("id0", "s0")]):
        quot, _ = quotient_algebra(xor, algebra_congruence_closure(xor, gens))
        assert satisfies(quot, coherence)
    for d in corpus.refl_data():
        quot, _ = reflexive_coequifier_algebra(
            d["u"], d["v"], d["phi"], d["psi"], d["section"])
        assert satisfies(quot, coherence)
