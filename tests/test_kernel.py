"""Kernel data, coequifiers, reflexivization and convergence."""
import collections
import hashlib
import itertools
from types import SimpleNamespace

import pytest

import oracles
from birkhoff2d import corpus, fincat, kernel
from birkhoff2d.errors import BoundaryMismatch, SizeLimitExceeded
from birkhoff2d.factor import factor_bof
from birkhoff2d.fincat import (
    FinCategory,
    Functor,
    NatTransformation,
    classify,
    compose_functors,
    coproduct_category,
    enumerate_functors,
    enumerate_nat_transformations,
    identity_functor,
)
from birkhoff2d.kernel import (
    KernelData,
    ReflexiveData,
    bof_kernel,
    coequifies,
    coequify,
    immediate_convergence_check,
    lemma_cancel_two_cells,
    lemma_coeq_refl,
    lemma_immediate_convergence,
    lemma_so_faithful,
    make_reflexive,
    verify_coequifier_2d,
    verify_kernel_universal,
)


@pytest.fixture(scope="module")
def walking_pair():
    """The parallel pair u, v of P as a coequifier datum."""
    return corpus.coequifier_data()[0]


def _crush_to_one(cats):
    return Functor(cats["p"], cats["one"], {"a": "*", "b": "*"},
                   {"ida": "id", "idb": "id", "u": "id", "v": "id"}, name="crush")


# -- kernels -----------------------------------------------------------


def test_kernel_of_identity_is_diagonal(cats):
    for C in cats.values():
        kd = bof_kernel(identity_functor(C))
        assert len(kd.apex.objects) == len(C.morphisms)
        for o in kd.apex.objects:
            assert kd.phi.at(o) == kd.psi.at(o)


def test_kernel_of_collapse(cats):
    kd = bof_kernel(corpus.collapse_functor())
    assert len(kd.apex.objects) == 6
    assert len(kd.apex.morphisms) == 12
    assert "(u,v)" in kd.apex.objects
    assert kd.phi.at("(u,v)") == "u" and kd.psi.at("(u,v)") == "v"
    assert kd.s.obj("(u,v)") == "a" and kd.t.obj("(u,v)") == "b"


def test_functor_coequifies_its_own_kernel(all_functors):
    for f in all_functors[:30]:
        kd = bof_kernel(f)
        assert coequifies(f, kd.phi, kd.psi)


# -- coequifiers -------------------------------------------------------


def test_coequify_walking_pair(cats, walking_pair):
    phi, psi = walking_pair
    q, C = coequify(phi, psi)
    assert len(C.objects) == 2 and len(C.morphisms) == 3
    assert q.mor("u") == q.mor("v")
    assert classify(q).bo_full
    assert verify_coequifier_2d(q, phi, psi, [cats["one"], cats["two"], cats["p"]])


def test_coequify_of_equal_cells_is_isomorphism(walking_pair):
    phi, _ = walking_pair
    q, _ = coequify(phi, phi)
    flags = classify(q)
    assert flags.bo and flags.ff


def test_coequify_rejects_mismatched_cells(cats, walking_pair):
    phi, _ = walking_pair
    idp = identity_functor(cats["p"])
    other = oracles.identity_nat(idp)
    with pytest.raises(BoundaryMismatch):
        coequify(phi, other)


def test_overcollapsing_candidate_fails_verification(cats, walking_pair):
    phi, psi = walking_pair
    crush = _crush_to_one(cats)
    assert coequifies(crush, phi, psi)
    res = verify_coequifier_2d(crush, phi, psi, [cats["one"], cats["two"]])
    assert not res
    assert res.witness["level"] == 1
    assert res.witness["factorizations"] == 0


def test_two_cell_factorisations_are_counted_under_the_limit(cats):
    """Level 2 enumerates every 2-cell between two factorisations, so a limit
    below that component space raises, on a cold call and again after a warm
    one.  Here q adds an isolated object to z2, where a 2-cell into z2 may
    take either morphism: each gamma has two factorisations."""
    z2 = cats["z2"]
    unit = oracles.identity_nat(identity_functor(z2))
    C, q, _ = coproduct_category(z2, cats["one"])
    message = "component space exceeds limit 3"
    with pytest.raises(SizeLimitExceeded, match=message):
        verify_coequifier_2d(q, unit, unit, [z2], limit=3)
    assert verify_coequifier_2d(q, unit, unit, [z2], limit=4) == kernel.CheckResult(
        False, {"level": 2, "test_category": "z2", "gamma": {"*": "1"}, "factorizations": 2})
    assert C._nats_between
    with pytest.raises(SizeLimitExceeded, match=message):
        verify_coequifier_2d(q, unit, unit, [z2], limit=3)


def test_factorisations_are_enumerated_whole_under_the_limit(cats, monkeypatch):
    """Level 1 reads the factorisations of each h from all functors out of
    q's target, enumerated under ``limit``, not from a search pinned to the
    image of q.  Here q adds an isolated object to z2, so against two a
    pinned search chose the image of that object alone (2 object maps)
    and the whole space chooses both (4): limit 3 raises, cold and after
    a default-limit run, and limit 4 gives the verdict."""
    z2 = cats["z2"]
    unit = oracles.identity_nat(identity_functor(z2))
    C, q, _ = coproduct_category(z2, cats["one"])
    for category in (z2, C):
        monkeypatch.setattr(category, "_functors_to", {})
    message = "object-map space 4 exceeds limit 3"
    with pytest.raises(SizeLimitExceeded, match=message):
        verify_coequifier_2d(q, unit, unit, [cats["two"]], limit=3)
    verdict = kernel.CheckResult(False, {"level": 1, "test_category": "two",
                                         "functor": {"*": "0"}, "factorizations": 2})
    assert verify_coequifier_2d(q, unit, unit, [cats["two"]]) == verdict
    with pytest.raises(SizeLimitExceeded, match=message):
        verify_coequifier_2d(q, unit, unit, [cats["two"]], limit=3)
    assert verify_coequifier_2d(q, unit, unit, [cats["two"]], limit=4) == verdict


def test_kernel_quotient_equals_bof_left_leg(all_functors):
    for f in all_functors:
        kd = bof_kernel(f)
        q, C = coequify(kd.phi, kd.psi)
        fact = factor_bof(f)
        assert q == fact.left
        assert C == fact.middle


def test_kernel_composition_lists_composable_pairs_in_order(all_functors):
    """The apex composition of every corpus kernel lists each composable
    pair (g, f) once, by f and then g in declaration order, so the kernel
    a command writes out keeps its bytes."""
    for f in all_functors:
        K = bof_kernel(f).apex
        assert list(K.composition) == [(g, u.name) for u in K.morphisms
                                       for g in K._starting_at[u.cod]]


# -- universality ------------------------------------------------------


def test_kernel_universal_for_collapse(cats):
    f = corpus.collapse_functor()
    kd = bof_kernel(f)
    assert verify_kernel_universal(kd, f, [cats["one"], cats["two"]])


def test_undersized_datum_fails_universality(cats):
    """A degenerate datum on a single-object apex is coequified by the
    collapse functor but has no room for the candidate picking u and v
    apart, so terminality fails with zero mediators."""
    f = corpus.collapse_functor()
    one, P = cats["one"], cats["p"]
    pick = Functor(one, P, {"*": "a"}, {"id": "ida"}, name="pick")
    trivial = oracles.identity_nat(pick)
    kd_small = KernelData(one, pick, pick, trivial, trivial)
    assert coequifies(f, kd_small.phi, kd_small.psi)
    res = verify_kernel_universal(kd_small, f, [one])
    assert not res
    assert res.witness["apex"] == "one"
    assert res.witness["mediators"] == 0


def test_mediator_search_raises_above_the_limit(cats):
    """The one mediator search per apex category lists every functor into
    the kernel apex, so a limit below its object-map space raises, on a
    cold call and again after a warm one."""
    f = corpus.collapse_functor()
    kd = bof_kernel(f)
    two = cats["two"]
    KP = FinCategory(two.objects, two.morphisms, two.identities, two.composition, name="two")
    space = len(kd.apex.objects) ** len(KP.objects)
    message = "object-map space %d exceeds limit %d" % (space, space - 1)
    with pytest.raises(SizeLimitExceeded, match=message):
        verify_kernel_universal(kd, f, [KP], limit=space - 1)
    assert verify_kernel_universal(kd, f, [KP], limit=space)
    assert KP._functors_to
    with pytest.raises(SizeLimitExceeded, match=message):
        verify_kernel_universal(kd, f, [KP], limit=space - 1)


def _doubled(kd):
    """kd with its apex replaced by two copies of itself, so every
    mediator into kd comes in two."""
    KK, inl, inr = coproduct_category(kd.apex, kd.apex)

    def copair(F):
        return Functor(KK, F.target,
                       {i.obj(k): F.obj(k) for i in (inl, inr) for k in kd.apex.objects},
                       {i.mor(m.name): F.mor(m.name)
                        for i in (inl, inr) for m in kd.apex.morphisms})

    S, T = copair(kd.s), copair(kd.t)

    def cell(alpha):
        return NatTransformation(
            S, T, {i.obj(k): alpha.at(k) for i in (inl, inr) for k in kd.apex.objects})

    return KernelData(KK, S, T, cell(kd.phi), cell(kd.psi))


def _fresh(*categories):
    """Copies of the categories that keep nothing yet."""
    return [FinCategory._trusted(C.objects, C.morphisms, C.identities, C.composition,
                                 name=C.name) for C in categories]


def test_mediator_counts_match_enumerate_then_filter(cats, all_functors, monkeypatch):
    """Checking the kernels of all corpus functors over one, two and p, and
    two data that fail with zero and two mediators: the mediator counts are
    looked up for the data an enumerate-then-filter walk reaches, in its
    order and up to its first count other than 1, and each equals the count
    of one constrained search for that datum and the number of functors
    into the apex that the old signature filter keeps.  Each datum is
    checked over fresh copies of one, two and p, so that no verdict kept
    from an equal datum spares its walk."""
    looked_up = []
    counts_of = kernel._mediator_counts

    class Recording(dict):
        def get(self, key, default=None):
            looked_up.append((key, dict.get(self, key, default)))
            return looked_up[-1][1]

    def recorded(kd, KP, limit):
        counts, visited = counts_of(kd, KP, limit)
        return Recording(counts), visited

    monkeypatch.setattr(kernel, "_mediator_counts", recorded)

    def walked(kd, f, apexes):
        for KP in apexes:
            signatures = oracles.mediator_signatures(kd, KP)
            mors = [u.name for u in KP.morphisms]
            for s2, t2 in itertools.product(enumerate_functors(KP, f.source), repeat=2):
                nats = enumerate_nat_transformations(s2, t2)
                for phi2, psi2 in itertools.product(nats, repeat=2):
                    if not oracles.coequifies_by_whiskers(f, phi2, psi2):
                        continue
                    n = oracles.count_mediators(kd, KP, s2, t2, phi2, psi2)
                    assert n == signatures.count((s2, t2, phi2, psi2))
                    yield ((tuple(s2.mor(u) for u in mors), tuple(t2.mor(u) for u in mors),
                            tuple(phi2.at(k) for k in KP.objects),
                            tuple(psi2.at(k) for k in KP.objects)), n)
                    if n != 1:
                        return

    seen = []

    def verify(kd, f):
        looked_up.clear()
        apexes = _fresh(cats["one"], cats["two"], cats["p"])
        res = verify_kernel_universal(kd, f, apexes)
        expected = list(walked(kd, f, apexes))
        assert looked_up == expected
        seen.extend(n for _, n in expected)
        return res

    for f in all_functors:
        assert verify(bof_kernel(f), f)
    collapse = corpus.collapse_functor()
    pick = Functor(cats["one"], cats["p"], {"*": "a"}, {"id": "ida"})
    unit = oracles.identity_nat(pick)
    small = KernelData(cats["one"], pick, pick, unit, unit)
    assert verify(small, collapse).witness == {
        "apex": "one", "s": {"*": "a"}, "t": {"*": "b"},
        "phi": {"*": "u"}, "psi": {"*": "u"}, "mediators": 0}
    doubled = _doubled(bof_kernel(collapse))
    assert verify(doubled, collapse).witness == {
        "apex": "one", "s": {"*": "a"}, "t": {"*": "a"},
        "phi": {"*": "ida"}, "psi": {"*": "ida"}, "mediators": 2}
    assert len(seen) == 4611
    assert set(seen) == {0, 1, 2}


def test_kept_verdicts_raise_and_pass_where_cold_ones_do(cats):
    """For the collapse kernel, the undersized datum and the doubled kernel,
    and an undersized datum on z2 checked against the identity, at every
    limit from 1 to one past the least that passes, the outcome (verdict
    and witness, or the limit's message) over fresh copies of one, two and
    p is the same on cold apexes, on apexes that keep the verdict from a
    call at the default limit, and for an equal datum rebuilt after that
    call.  The mediator search binds first for both kernels, the functors
    into f's source for the undersized datum on p, and the 2-cells walked
    for the one on z2."""
    collapse = corpus.collapse_functor()
    one, P, Z = cats["one"], cats["p"], cats["z2"]

    def undersized(X, a):
        pick = Functor(one, X, {"*": a}, {"id": X.identity(a)}, name="pick")
        trivial = oracles.identity_nat(pick)
        return KernelData(one, pick, pick, trivial, trivial)

    def outcome(kd, f, apexes, limit):
        try:
            res = verify_kernel_universal(kd, f, apexes, limit=limit)
        except SizeLimitExceeded as exc:
            return str(exc)
        return res.ok, res.witness

    def warm(build, f):
        apexes = _fresh(one, cats["two"], P)
        verify_kernel_universal(build(), f, apexes)
        return apexes

    least, first = {}, {}
    for name, f, build in (
            ("collapse", collapse, lambda: bof_kernel(collapse)),
            ("undersized", collapse, lambda: undersized(P, "a")),
            ("doubled", collapse, lambda: _doubled(bof_kernel(collapse))),
            ("undersized on z2", identity_functor(Z), lambda: undersized(Z, "*"))):
        limit, cold = 0, "none yet"
        while isinstance(cold, str):
            limit += 1
            kd = build()
            cold = outcome(kd, f, _fresh(one, cats["two"], P), limit)
            first.setdefault(name, cold)
            assert outcome(kd, f, warm(build, f), limit) == cold
            apexes = warm(build, f)
            held = [len(KP._universality) for KP in apexes]
            assert outcome(build(), f, apexes, limit) == cold
            assert [len(KP._universality) for KP in apexes] == held != [0, 0, 0]
        assert outcome(build(), f, warm(build, f), limit + 1) == cold
        least[name] = limit
    assert least == {"collapse": 36, "undersized": 2, "doubled": 12, "undersized on z2": 2}
    assert first == {"collapse": "object-map space 6 exceeds limit 1",
                     "undersized": "object-map space 2 exceeds limit 1",
                     "doubled": "object-map space 12 exceeds limit 1",
                     "undersized on z2": "component space exceeds limit 1"}


def test_kept_verdicts_are_shared_by_content(cats, all_functors, monkeypatch):
    """The 114 corpus functors have 11 kernel partitions, so checking each
    new kernel against each of six fresh corpus categories makes 66
    mediator searches, a second sweep makes none, and each category keeps
    11 verdicts."""
    searches = []
    search = kernel.functor_maps

    def counted(A, B, limit=fincat.DEFAULT_SEARCH_LIMIT, laws=None):
        searches.append((A, B))
        return search(A, B, limit, laws)

    monkeypatch.setattr(kernel, "functor_maps", counted)
    apexes = _fresh(*cats.values())
    for sweep in (66, 0):
        searches.clear()
        for f in all_functors:
            kd = bof_kernel(f)
            for KP in apexes:
                assert verify_kernel_universal(kd, f, [KP])
        assert len(searches) == sweep
    assert [len(KP._universality) for KP in apexes] == [11] * 6


def test_kept_verdicts_are_kept_per_kernel_partition(cats):
    """The diagonal kernel of P is coequified by every functor out of P:
    it is terminal for the identity, but not for the collapse functor,
    whose candidate picking u and v apart has no mediator.  A verdict kept
    for the identity is not read for the collapse."""
    P, collapse = cats["p"], corpus.collapse_functor()
    kd = bof_kernel(identity_functor(P))
    apexes = _fresh(cats["one"], cats["two"], P)
    assert verify_kernel_universal(kd, identity_functor(P), apexes)
    res = verify_kernel_universal(kd, collapse, apexes)
    assert res == verify_kernel_universal(kd, collapse, _fresh(cats["one"]))
    assert res.witness == {"apex": "one", "s": {"*": "a"}, "t": {"*": "b"},
                           "phi": {"*": "u"}, "psi": {"*": "v"}, "mediators": 0}
    assert [len(KP._universality) for KP in apexes] == [2, 1, 1]


def test_coequifies_matches_whisker_equality(all_functors):
    """On the kernel data of every corpus functor against every corpus
    functor out of its target, for the parallel pairs (phi, psi),
    (psi, phi), (phi, phi) and for phi against the psi of a kernel with
    each other apex on the same category."""
    kernels = [bof_kernel(f) for f in all_functors]
    verdicts = {}
    for kd in kernels:
        others = {k.apex: k for k in kernels if k.target == kd.target and k.apex != kd.apex}
        pairs = [(kd.phi, kd.psi), (kd.psi, kd.phi), (kd.phi, kd.phi)]
        pairs += [(kd.phi, k.psi) for k in others.values()]
        for h in all_functors:
            if h.source != kd.target:
                continue
            for phi, psi in pairs:
                got = coequifies(h, phi, psi)
                assert got == oracles.coequifies_by_whiskers(h, phi, psi)
                parallel = phi.source == psi.source and phi.target == psi.target
                verdicts[(parallel, got)] = verdicts.get((parallel, got), 0) + 1
    assert verdicts == {(True, True): 6486, (True, False): 1056, (False, False): 4012}


def test_non_parallel_cells_are_never_coequified(cats, walking_pair):
    """phi: s => t against the identity of s: the functor onto one sends
    both to the identity of s's image, so the two whiskers agree, but the
    cells are not a parallel pair to coequify."""
    phi, _ = walking_pair
    crush = _crush_to_one(cats)
    unit = oracles.identity_nat(phi.source)
    assert oracles.whole_whisker(crush, phi, "left") == oracles.whole_whisker(crush, unit, "left")
    assert not coequifies(crush, phi, unit)


def test_coequifier_two_cell_factorisations_match_enumerate_then_filter(cats):
    """Every 2-cell factorisation count that verify_coequifier_2d reads on
    the corpus coequifier data over one, two and p, the fibre of gamma's
    components among the whiskers bar * q, is the number of lifts the old
    whisker filter keeps."""
    counts = {}
    for phi, psi in corpus.coequifier_data():
        q, _ = coequify(phi, psi)
        for X in (cats["one"], cats["two"], cats["p"]):
            bars = [(h, oracles.lifts_by_filter(q, h)[0]) for h in enumerate_functors(q.source, X)
                    if coequifies(h, phi, psi)]
            for (h1, hb1), (h2, hb2) in itertools.product(bars, repeat=2):
                fibres = fincat._whisker_fibres(q, enumerate_nat_transformations(hb1, hb2))
                for gamma in enumerate_nat_transformations(h1, h2):
                    got = fibres.get(tuple(gamma.components[a] for a in q.source.objects), 0)
                    assert got == len(oracles.nat_lifts_by_filter(q, gamma.components, hb1, hb2))
                    counts[got] = counts.get(got, 0) + 1
    assert counts == {1: 2223}


# -- reflexivization ---------------------------------------------------


def test_make_reflexive_laws(walking_pair):
    phi, psi = walking_pair
    rd = make_reflexive(phi, psi)
    A = rd.s.target
    assert compose_functors(rd.s, rd.section) == identity_functor(A)
    assert compose_functors(rd.t, rd.section) == identity_functor(A)
    unit = oracles.identity_nat(identity_functor(A))
    assert oracles.whole_whisker(rd.section, rd.phi, "right") == unit
    assert oracles.whole_whisker(rd.section, rd.psi, "right") == unit


def test_make_reflexive_preserves_the_coequifier(walking_pair):
    phi, psi = walking_pair
    rd = make_reflexive(phi, psi)
    q1, C1 = coequify(phi, psi)
    q2, C2 = coequify(rd.phi, rd.psi)
    assert q1 == q2 and C1 == C2


@pytest.mark.parametrize("mode", ["trusted", "strict"])
def test_reflexive_data_accepts_the_cells_whole_whiskers_accept(mode, request):
    """For the reflexivized kernel of every corpus functor out of z2, every
    2-cell s => t of the padded datum in the place of phi or psi:
    ReflexiveData refuses it exactly when its whisker along the section is
    not the identity 2-cell."""
    if mode == "strict":
        request.getfixturevalue("strict")
    verdicts = {}
    for phi, psi in corpus.coequifier_data():
        if phi.source.target.name != "z2":
            continue
        rd = make_reflexive(phi, psi)
        unit = oracles.identity_nat(identity_functor(rd.s.target))
        for cell in enumerate_nat_transformations(rd.s, rd.t):
            kills = oracles.whole_whisker(rd.section, cell, "right") == unit
            for cells in ((cell, rd.psi), (rd.phi, cell)):
                try:
                    ReflexiveData(rd.s, rd.t, *cells, rd.section)
                    accepted = True
                except BoundaryMismatch:
                    accepted = False
                assert accepted == kills
                verdicts[accepted] = verdicts.get(accepted, 0) + 1
    assert set(verdicts) == {True, False}


def test_reflexive_data_refuses_cells_that_do_not_run_s_to_t(walking_pair):
    """The identity 2-cells of s and of t restrict along the section to the
    identity 2-cell, as phi and psi do, but they do not run s => t."""
    rd = make_reflexive(*walking_pair)
    unit = oracles.identity_nat(identity_functor(rd.s.target))
    for cell in (oracles.identity_nat(rd.s), oracles.identity_nat(rd.t)):
        assert oracles.whole_whisker(rd.section, cell, "right") == unit
        for cells in ((cell, rd.psi), (rd.phi, cell)):
            with pytest.raises(BoundaryMismatch, match="2-cells must run s => t"):
                ReflexiveData(rd.s, rd.t, *cells, rd.section)


def test_reflexive_data_rejects_bad_section(walking_pair):
    phi, psi = walking_pair
    rd = make_reflexive(phi, psi)
    A = rd.s.target
    K = rd.s.source
    const = Functor(
        A, K,
        {a: "r:a" for a in A.objects},
        {m.name: "r:ida" for m in A.morphisms},
        name="const",
    )
    with pytest.raises(BoundaryMismatch):
        ReflexiveData(rd.s, rd.t, rd.phi, rd.psi, const)


# -- convergence -------------------------------------------------------


def test_identity_converges_immediately(cats):
    for C in cats.values():
        res = immediate_convergence_check(identity_functor(C))
        assert res.converges
        flags = classify(res.comparison)
        assert flags.bo and flags.ff


def test_collapse_converges_with_faithful_comparison():
    res = immediate_convergence_check(corpus.collapse_functor())
    assert res.converges
    assert classify(res.comparison).faithful
    assert classify(res.quotient).bo_full
    assert compose_functors(res.comparison, res.quotient) == corpus.collapse_functor()


# -- induced functors between quotients --------------------------------


def test_induced_functor_direction(walking_pair):
    phi, psi = walking_pair
    fine, _ = coequify(phi, phi)
    coarse, _ = coequify(phi, psi)
    assert len(oracles.lifts_by_filter(fine, coarse)) == 1
    assert oracles.lifts_by_filter(coarse, fine) == ()
    assert fincat._through_quotient(fine, coarse) is not None
    assert fincat._through_quotient(coarse, fine) is None


def test_induced_functor_matches_pointwise_definition(walking_pair):
    phi, psi = walking_pair
    fine, _ = coequify(phi, phi)
    coarse, _ = coequify(phi, psi)
    for q1, q2 in ((fine, coarse), (coarse, fine)):
        expected = oracles.induced_by_hand(q1, q2)
        assert oracles.lifts_by_filter(q1, q2) == (() if expected is None else (expected,))
        assert fincat._through_quotient(q1, q2) == expected


@pytest.mark.parametrize("mode", ["trusted", "strict"])
def test_coequify_matches_comparing_whiskers(mode, request):
    """On the corpus coequifier data, each pair also swapped: coequify
    returns what the version that compares whole whiskers q * phi and
    q * psi returns."""
    if mode == "strict":
        request.getfixturevalue("strict")
    data = corpus.coequifier_data()
    merged = {}
    for phi, psi in data + [(psi, phi) for phi, psi in data]:
        q, C = coequify(phi, psi)
        want_q, want_C = oracles.coequify_by_whiskers(phi, psi)
        assert (q, C, q.name, C.name) == (want_q, want_C, want_q.name, want_C.name)
        key = len(C.morphisms) < len(phi.source.target.morphisms)
        merged[key] = merged.get(key, 0) + 1
    assert set(merged) == {True, False}


@pytest.mark.parametrize("mode", ["trusted", "strict"])
def test_so_faithful_matches_comparing_whiskers(cats, all_functors, mode, request):
    """The surjective-whiskering lemma on every corpus functor against every
    corpus category, with the same counts as the set of whole whiskers."""
    if mode == "strict":
        request.getfixturevalue("strict")
    targets = list(cats.values())
    res = lemma_so_faithful(all_functors, targets)
    assert res == oracles.so_faithful_by_whiskers(all_functors, targets)
    assert res.ok and res.witness["cells"] > 0


# -- exhaustive suites, small slices -----------------------------------


def test_cancellation_suite_on_sample(cats, all_functors):
    sample = [f for f in all_functors if classify(f).bo_full][:3]
    res = lemma_cancel_two_cells(sample, [cats["two"], cats["p"]])
    assert res
    assert res.witness["pairs"] > 0


def test_surjective_whiskering_suite_on_sample(cats, all_functors):
    sample = [f for f in all_functors if classify(f).so][:3]
    res = lemma_so_faithful(sample, [cats["two"], cats["z2"]])
    assert res
    assert res.witness["cells"] >= 0


def test_whiskering_lemmas_keep_their_failure_witnesses(cats, all_functors, monkeypatch):
    """With the class filter patched to let every functor through, both
    whiskering lemmas fail on functors outside their class.  The first
    witness over all corpus functors, the pass/fail split per functor and a
    digest of every per-functor witness are pinned as the lift-search
    version of both lemmas gave them."""
    monkeypatch.setattr(kernel, "classify", lambda h: SimpleNamespace(bo_full=True, so=True))
    targets = list(cats.values())
    assert lemma_cancel_two_cells(all_functors, targets) == kernel.CheckResult(False, {
        "functor": {"*": "0"}, "test_category": "two",
        "pair": ({"0": "0", "1": "1"}, {"0": "0", "1": "0"}), "upstairs": 0, "downstairs": 1})
    assert lemma_so_faithful(all_functors, targets) == kernel.CheckResult(False, {
        "functor": {"*": "x"}, "test_category": "p",
        "pair": ({"x": "a", "y": "a"}, {"x": "a", "y": "b"}), "cells": 2, "images": 1})
    pinned = {
        lemma_cancel_two_cells: (
            {False: 97, True: 17},
            "e554a523aadcf362d847fdb5aa7540996fdddb057c58c10dda4204b06d7faaa7"),
        lemma_so_faithful: (
            {False: 40, True: 74},
            "8c3d765fded82ea871a3414657aec92a7aca5e6d5dea3bdd26b9ffaee57d9c35"),
    }
    for lemma, (split, digest) in pinned.items():
        results = [lemma([h], targets) for h in all_functors]
        assert collections.Counter(r.ok for r in results) == split
        witnesses = repr([r.witness for r in results]).encode()
        assert hashlib.sha256(witnesses).hexdigest() == digest, lemma.__name__


def test_reflexivization_suite_on_sample():
    res = lemma_coeq_refl(corpus.coequifier_data()[:6])
    assert res
    assert res.witness["data"] == 6


def test_convergence_suite_on_sample(all_functors):
    res = lemma_immediate_convergence(all_functors[:25])
    assert res
