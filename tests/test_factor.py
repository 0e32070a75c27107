"""Factorisation systems and enriched orthogonality."""
import itertools

import pytest

import oracles
from birkhoff2d import corpus, fincat
from birkhoff2d.errors import SizeLimitExceeded
from birkhoff2d.factor import (
    FACTOR_SYSTEMS,
    check_orthogonal_morphisms,
    check_orthogonal_object,
    diagonal_fillins,
    factor_bof,
    factor_bo_ff,
    factor_so_ioff,
)
from birkhoff2d.fincat import (
    Functor,
    classify,
    compose_functors,
    enumerate_functors,
    enumerate_nat_transformations,
    identity_functor,
    product_category,
    quotient_by_congruence,
)
from birkhoff2d.jsonio import validate_category
from birkhoff2d.kernel import bof_kernel, coequify


def _discrete_with_pipes():
    """The discrete category on p|q, r, p, q|r into one: the pairs (p|q, r)
    and (p, q|r) join to the same string around a '|'."""
    objects = ["p|q", "r", "p", "q|r"]
    D = validate_category({
        "objects": objects,
        "morphisms": [{"id": "id" + o, "dom": o, "cod": o} for o in objects],
        "identities": {o: "id" + o for o in objects},
    }, name="pipes")
    return Functor(D, corpus.category("one"), {o: "*" for o in objects},
                   {"id" + o: "id" for o in objects}, name="pipes")


@pytest.mark.parametrize("system", sorted(FACTOR_SYSTEMS))
def test_factorisations_sound_on_corpus(all_functors, system):
    """Every corpus functor, every functor from a corpus category into a
    kernel apex, whose morphism names contain '|', and a functor out of a
    category whose object names contain '|'."""
    apex = bof_kernel(corpus.collapse_functor()).apex
    into_apex = tuple(F for C in corpus.categories() for F in enumerate_functors(C, apex))
    assert len(into_apex) == 110
    for f in all_functors + into_apex + (_discrete_with_pipes(),):
        res = oracles.factorisation_sound(f, system)
        assert res, (f.name, res.witness)


def test_bof_left_is_identity_exactly_for_faithful(all_functors):
    for f in all_functors:
        fact = factor_bof(f)
        if classify(f).faithful:
            assert fact.left == identity_functor(f.source)
        else:
            assert fact.left != identity_functor(f.source)


@pytest.mark.parametrize("mode", ["trusted", "strict"])
def test_bof_kernel_classes_match_the_closure_oracle(cats, all_functors, mode, request):
    """The kernel classes read off f give the congruence, middle and legs
    of the closure of f's parallel pairs; in strict mode the trusted
    congruence builder validates every kernel class."""
    if mode == "strict":
        request.getfixturevalue("strict")
    D = product_category(cats["d2"], cats["z2z2"])[0]
    product_functors = enumerate_functors(D, cats["z2z2"])
    assert len(product_functors) == 256
    for f in all_functors + product_functors:
        fact = factor_bof(f)
        cong = oracles.bof_congruence_by_closure(f)
        fibres = {}
        for u in f.source.morphisms:
            fibres.setdefault(fact.left.mor(u.name), []).append(u.name)
        assert tuple(sorted(tuple(sorted(c)) for c in fibres.values())) == cong.classes
        M, e = quotient_by_congruence(f.source, cong)
        m = Functor(M, f.target, {a: f.obj(a) for a in M.objects},
                    {u.name: f.mor(u.name) for u in M.morphisms}, name="m")
        assert (fact.middle, fact.left, fact.right) == (M, e, m)
        assert (fact.middle.name, fact.left.name, fact.right.name) == (M.name, e.name, m.name)


@pytest.fixture(scope="module")
def ladder(cats):
    """Every functor of the three rungs of the benchmark's scale ladder:
    d2xz2z2 to z2z2 and to itself, and z2z2xz2z2 to z2z2."""
    D, Z = (product_category(cats[a], cats["z2z2"])[0] for a in ("d2", "z2z2"))
    rungs = [enumerate_functors(A, B) for A, B in ((D, cats["z2z2"]), (D, D), (Z, cats["z2z2"]))]
    assert [len(r) for r in rungs] == [256, 4096, 4096]
    return tuple(f for r in rungs for f in r)


def test_bof_and_classify_match_their_uncached_oracles(all_functors, ladder):
    """factor_bof, which keeps one middle per kernel partition of the
    source, gives the factorisation built afresh per functor, in value and
    in every name; the one-pass classify gives the bucketed flags on each
    functor and on both legs."""
    for f in all_functors + ladder:
        fact, want = factor_bof(f), oracles.factor_bof_uncached(f)
        for got, ref in ((fact.middle, want.middle), (fact.left, want.left),
                         (fact.right, want.right)):
            assert got == ref and got.name == ref.name, f
        for F in (f, fact.left, fact.right):
            assert classify(F) == oracles.classify_by_buckets(F), F


def test_bof_of_collapse_merges_the_parallel_pair():
    fact = factor_bof(corpus.collapse_functor())
    assert len(fact.middle.objects) == 2
    assert len(fact.middle.morphisms) == 3
    assert fact.left.mor("u") == fact.left.mor("v")
    assert classify(fact.right).faithful


def test_bo_ff_through_pulled_back_homs(cats):
    incl = Functor(cats["d2"], cats["two"], {"x": "0", "y": "1"},
                   {"idx": "id0", "idy": "id1"}, name="incl")
    fact = factor_bo_ff(incl)
    assert len(fact.middle.objects) == 2
    assert len(fact.middle.morphisms) == 3
    assert classify(fact.left).bo
    right = classify(fact.right)
    assert right.ff and right.bo  # an isomorphism here: incl was already bo


def test_so_ioff_through_full_image(cats):
    pick = Functor(cats["one"], cats["d2"], {"*": "x"}, {"id": "idx"}, name="pick")
    fact = factor_so_ioff(pick)
    assert len(fact.middle.objects) == 1
    assert len(fact.middle.morphisms) == 1
    assert classify(fact.left).so
    assert classify(fact.right).ioff


def test_factorisations_agree_up_to_comparison_isomorphism(all_functors):
    """The quotient route through the kernel gives a second (bo full,
    faithful) splitting; the two middles are linked by an invertible
    comparison in every corpus case."""
    for f in all_functors:
        fact = factor_bof(f)
        kd = bof_kernel(f)
        q, _ = coequify(kd.phi, kd.psi)
        (u,), (v,) = oracles.lifts_by_filter(fact.left, q), oracles.lifts_by_filter(q, fact.left)
        uf, vf = classify(u), classify(v)
        assert uf.bo and uf.ff and vf.bo and vf.ff


# -- orthogonality -----------------------------------------------------


def test_identity_is_orthogonal_to_everything(cats, all_functors):
    e = identity_functor(cats["p"])
    for m in all_functors[:20]:
        assert check_orthogonal_morphisms(e, m)


def test_collapse_not_orthogonal_to_itself():
    e = factor_bof(corpus.collapse_functor()).left
    res = check_orthogonal_morphisms(e, e)
    assert not res
    assert res.witness


def test_projection_orthogonal_object_cases(cats):
    e = factor_bof(corpus.collapse_functor()).left
    assert check_orthogonal_object(e, cats["two"])
    res = check_orthogonal_object(e, cats["p"])
    assert not res
    assert res.witness["reason"] == "not surjective on functors"


def test_left_and_right_classes_are_orthogonal_sample(all_functors):
    """A small slice of the exhaustive sweep (the full product of classes
    runs in the acceptance suite)."""
    bo_full = [f for f in all_functors if classify(f).bo_full][:4]
    faithful = [f for f in all_functors if classify(f).faithful][:6]
    for e in bo_full:
        for m in faithful:
            res = check_orthogonal_morphisms(e, m)
            assert res, (e.name, m.name, res.witness)


def _corpus_square_pairs(all_functors):
    """Every quotient/mono pair, and every functor against every quotient."""
    quotients = [f for f in all_functors if classify(f).bo_full]
    monos = [g for g in all_functors if classify(g).faithful]
    return ([(f, g) for f in quotients for g in monos]
            + [(f, g) for f in all_functors for g in quotients])


def _morphism_map(F):
    return tuple(F.mor(u.name) for u in F.source.morphisms)


def test_fillins_match_enumerate_then_filter(all_functors):
    """Every commuting square of every quotient/mono pair (one fill-in
    each), and of every functor against every quotient (none, one, two or
    four): the y filed under g.x among the functors f.target -> g.target
    are those that lift g.x by the filter, and the fill-in table holds the
    fill-ins of the filter under (x, y), as the same sequence."""
    counts = {}
    for f, g in _corpus_square_pairs(all_functors):
        ys_of = fincat._precomposition_fibres(f, enumerate_functors(f.target, g.target))
        table = diagonal_fillins(f, g)
        for x in enumerate_functors(f.source, g.source):
            gx = compose_functors(g, x)
            ys = ys_of.get(_morphism_map(gx), [])
            assert tuple(ys) == oracles.lifts_by_filter(f, gx)
            for y in ys:
                ds = tuple(table.get((_morphism_map(x), _morphism_map(y)), ()))
                assert ds == oracles.fillins_by_filter(f, g, x, y)
                counts[len(ds)] = counts.get(len(ds), 0) + 1
    assert counts == {0: 1080, 1: 7488, 2: 534, 4: 240}


def test_every_square_in_the_fillin_table_commutes(cats, all_functors):
    """The table files each functor d: f.target -> g.source once, under
    (d.f, g.d), which always commute, so it holds no square that does not
    commute and none can be refused.  Around f = g = an identity it is
    the squares (x, x), each filled by x alone."""
    for f, g in _corpus_square_pairs(all_functors):
        table = diagonal_fillins(f, g)
        B = f.target
        at = {u.name: i for i, u in enumerate(B.morphisms)}
        for (x_key, y_key), ds in table.items():
            # y.f == g.x on every morphism of f.source
            assert [y_key[at[f.mor(u.name)]] for u in f.source.morphisms] == [
                g.mor(v) for v in x_key]
            assert all((_morphism_map(compose_functors(d, f)), _morphism_map(
                compose_functors(g, d))) == (x_key, y_key) for d in ds)
        assert sum(map(len, table.values())) == len(enumerate_functors(B, g.source))
    for C in cats.values():
        ident = identity_functor(C)
        assert diagonal_fillins(ident, ident) == {
            (_morphism_map(x), _morphism_map(x)): [x] for x in enumerate_functors(C, C)}


def test_two_cell_fillins_match_enumerate_then_filter(all_functors):
    """Every level-2 problem of every quotient/mono pair, and of every
    functor against every quotient, whose squares all have one diagonal:
    the fill-ins of each compatible (alpha, beta), kept by the whisker
    filter, number as the census says, and the check passes exactly where
    every count is 1, naming the first other count as its witness."""
    counts = {}
    for f, g in _corpus_square_pairs(all_functors):
        diag = {(x, y): oracles.fillins_by_filter(f, g, x, y)
                for x in enumerate_functors(f.source, g.source)
                for y in oracles.lifts_by_filter(f, compose_functors(g, x))}
        if any(len(ds) != 1 for ds in diag.values()):
            continue  # the check stops at level 1
        first = None
        for ((x, y), (d,)), ((x2, y2), (d2,)) in itertools.product(diag.items(), repeat=2):
            for alpha in enumerate_nat_transformations(x, x2):
                g_alpha = oracles.whisker_once(g, alpha, "left")
                for beta in oracles.nat_lifts_by_filter(f, g_alpha.components, y, y2):
                    n = len(oracles.nat_lifts_by_filter(f, alpha.components, d, d2, g, beta))
                    counts[n] = counts.get(n, 0) + 1
                    if n != 1 and first is None:
                        first = {"level": 2, "alpha": alpha.components, "beta": beta,
                                 "fillins": n}
        got = check_orthogonal_morphisms(f, g)
        assert (got.ok, got.witness) == (first is None, first), (f, g)
    assert counts == {0: 164, 1: 19748, 2: 232}


@pytest.mark.parametrize("bound", ["beta", "delta"])
def test_two_cells_are_enumerated_whole_under_the_limit(bound, monkeypatch):
    """Level 2 enumerates every beta: y => y' and every delta: d => d' under
    ``limit``, pinned nowhere.  Below the component space 4 of y => y' (the
    quotient of the parallel pair against one -> z2) or of d => d'
    (one -> d2 against z2 -> one) the check raises, cold and with the kept
    results filled; at 4 it gives the verdict of the default limit."""
    one, z2, d2 = (corpus.category(name) for name in ("one", "z2", "d2"))
    if bound == "beta":
        f, _ = coequify(*corpus.coequifier_data()[0])
        (g,) = enumerate_functors(one, z2)
        verdict = (True, None)
    else:
        f = enumerate_functors(one, d2)[0]
        (g,) = enumerate_functors(z2, one)
        verdict = (False, {"level": 2, "alpha": {"*": "1"}, "beta": {"x": "id", "y": "id"},
                           "fillins": 2})
    for C in (f.source, f.target):
        monkeypatch.setattr(C, "_nats_between", {})
    with pytest.raises(SizeLimitExceeded, match="component space exceeds limit 3"):
        check_orthogonal_morphisms(f, g, limit=3)
    got = check_orthogonal_morphisms(f, g)
    assert (got.ok, got.witness) == verdict
    with pytest.raises(SizeLimitExceeded, match="component space exceeds limit 3"):
        check_orthogonal_morphisms(f, g, limit=3)
    assert check_orthogonal_morphisms(f, g, limit=4) == got


def test_squares_are_enumerated_whole_under_the_limit(cats, monkeypatch):
    """Level 1 reads each y from all functors f.target -> g.target and each
    d from all functors f.target -> g.source, enumerated under ``limit``,
    not from a search pinned to the image of f.  Around the identity of
    one and a functor one -> two, a pinned y had one object to choose;
    the whole space has two, so limit 1 raises, cold and after a
    default-limit run, and limit 2 gives the verdict."""
    one = cats["one"]
    f, g = identity_functor(one), enumerate_functors(one, cats["two"])[0]
    monkeypatch.setattr(one, "_functors_to", {})
    message = "object-map space 2 exceeds limit 1"
    with pytest.raises(SizeLimitExceeded, match=message):
        check_orthogonal_morphisms(f, g, limit=1)
    assert check_orthogonal_morphisms(f, g)
    with pytest.raises(SizeLimitExceeded, match=message):
        check_orthogonal_morphisms(f, g, limit=1)
    assert check_orthogonal_morphisms(f, g, limit=2)


@pytest.mark.parametrize("mode", ["trusted", "strict"])
def test_orthogonality_matches_the_whisker_building_loop(all_functors, mode, request):
    """Every quotient/mono pair, the designed negative, and every functor
    out of one or two against every quotient (19 of these fail at level 2):
    the same verdict and witness as the loop that built each whisker
    g * alpha."""
    if mode == "strict":
        request.getfixturevalue("strict")
    quotients = [f for f in all_functors if classify(f).bo_full]
    monos = [g for g in all_functors if classify(g).faithful]
    e0 = factor_bof(corpus.collapse_functor()).left
    pairs = [(f, g) for f in quotients for g in monos] + [(e0, e0)]
    pairs += [(f, g) for f in all_functors if f.source.name in ("one", "two")
              for g in quotients]
    levels = {}
    for f, g in pairs:
        got = check_orthogonal_morphisms(f, g)
        assert got == oracles.orthogonal_by_whiskers(f, g), (f, g)
        level = None if got.ok else got.witness["level"]
        levels[level] = levels.get(level, 0) + 1
    assert not check_orthogonal_morphisms(e0, e0)
    assert levels[2] == 19 and set(levels) == {None, 1, 2}


@pytest.mark.parametrize("mode", ["trusted", "strict"])
def test_orthogonality_to_objects_matches_recomposing(cats, all_functors, mode, request):
    """Every corpus functor against every corpus category: the same verdict
    and witness as the check that composed h.f afresh for every use."""
    if mode == "strict":
        request.getfixturevalue("strict")
    reasons = {}
    for f in all_functors:
        for C in cats.values():
            got = check_orthogonal_object(f, C)
            assert got == oracles.orthogonal_object_by_recomposing(f, C), (f, C)
            reason = "ok" if got.ok else got.witness.get("reason", "level 2")
            reasons[reason] = reasons.get(reason, 0) + 1
    assert reasons == {"ok": 232, "not injective on functors": 348,
                       "not surjective on functors": 97, "level 2": 7}

