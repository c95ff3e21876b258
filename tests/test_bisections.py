"""Local bisections, the inverse semigroup, sectionability, extendibility."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import (
    cyclic_window,
    full_window,
    identity_window,
    sierpinski_pair_data,
    swap2_groupoid,
    swap3_groupoid,
)
from groupoidkit import bisections
from groupoidkit.bisections import (
    EMPTY_BISECTION,
    InverseSemigroup,
    check_extendible,
    compose_bisections,
    generate_semigroup,
    identity_bisection,
    inverse_semigroup_laws,
    is_sectionable,
    is_valid_bisection,
    is_window_bisection,
    left_translate,
    local_bisections,
    make_bisection,
    relative_inverse,
    sections_over,
    w_bisections,
)
from groupoidkit.core import (
    FiniteTopology,
    action_groupoid,
    closure,
    cyclic_group,
    discrete_topology,
    group_by,
    pair_groupoid,
)
from groupoidkit.errors import CapExceeded, GroupoidKitError, OutOfDomain
from groupoidkit.holonomy import annulus_model, mobius_model
from groupoidkit.presentations import local_data
from reference_tables import (
    reference_generate_semigroup,
    reference_inverse_semigroup_laws,
    reference_is_valid_bisection,
    reference_is_window_bisection,
    reference_sections_over,
)


def swap3_data():
    G = swap3_groupoid()
    return full_window(G)


def swap_bisection(G):
    """The full-domain bisection applying the non-identity group element."""
    return make_bisection(
        {x: next(a for a in G.star(x) if not a.startswith("id:")) for x in G.objects}
    )


class TestBisectionBasics:
    def test_identity_bisection_is_valid(self):
        D = swap3_data()
        s = identity_bisection(D.G, D.G.objects)
        assert is_valid_bisection(D.G, D.t_objects, s)
        assert is_window_bisection(D, s)

    def test_mixture_with_clashing_shadow_rejected(self):
        D = swap3_data()
        G = D.G
        bad = make_bisection({"1": G.id_of["1"], "2": next(a for a in G.star("2") if not a.startswith("id:"))})
        # both points land on 1
        assert not is_valid_bisection(G, D.t_objects, bad)

    def test_domain_must_be_open(self):
        D = sierpinski_pair_data()
        s = make_bisection({"b": D.G.id_of["b"]})  # {b} is not open
        assert not is_valid_bisection(D.G, D.t_objects, s)


class TestComposeBisections:
    def test_identity_is_neutral(self):
        D = swap3_data()
        e = identity_bisection(D.G, D.G.objects)
        t = swap_bisection(D.G)
        assert compose_bisections(D.G, e, t) == t
        assert compose_bisections(D.G, t, e) == t

    def test_disjoint_shadow_gives_empty(self):
        G = pair_groupoid(["a", "b"])
        s = make_bisection({"a": G.id_of["a"]})
        t = make_bisection({"b": G.id_of["b"]})  # shadow misses dom s entirely
        assert compose_bisections(G, s, t) == EMPTY_BISECTION

    def test_swap_squared_is_identity(self):
        D = swap3_data()
        t = swap_bisection(D.G)
        assert compose_bisections(D.G, t, t) == identity_bisection(D.G, D.G.objects)

    def test_associative_exhaustively_on_small_instance(self):
        D = full_window(pair_groupoid(["a", "b"]))
        family = local_bisections(D.G, D.t_objects)
        for s in family:
            for t in family:
                st = compose_bisections(D.G, s, t)
                for u in family:
                    left = compose_bisections(D.G, st, u)
                    right = compose_bisections(D.G, s, compose_bisections(D.G, t, u))
                    assert left == right


class TestRelativeInverse:
    def test_identity_inverse(self):
        D = swap3_data()
        e = identity_bisection(D.G, D.G.objects)
        assert relative_inverse(D.G, e) == e

    def test_swap_is_self_inverse(self):
        D = swap3_data()
        t = swap_bisection(D.G)
        assert relative_inverse(D.G, t) == t

    def test_single_point_bisection(self):
        G = pair_groupoid(["a", "b"])
        s = make_bisection({"a": "a>b"})
        sp = relative_inverse(G, s)
        assert sp == make_bisection({"b": "b>a"})

    def test_involution_exhaustive(self):
        D = swap3_data()
        for s in w_bisections(D):
            assert relative_inverse(D.G, relative_inverse(D.G, s)) == s

    def test_defining_equations(self):
        D = swap3_data()
        for s in w_bisections(D):
            sp = relative_inverse(D.G, s)
            assert compose_bisections(D.G, compose_bisections(D.G, s, sp), s) == s
            assert compose_bisections(D.G, compose_bisections(D.G, sp, s), sp) == sp


class TestLeftTranslate:
    def test_identity_bisection_fixes_arrows(self):
        D = swap3_data()
        e = identity_bisection(D.G, D.G.objects)
        for g in D.G.arrows:
            assert left_translate(D.G, e, g) == g

    def test_identity_arrow_gives_section_value(self):
        D = swap3_data()
        t = swap_bisection(D.G)
        for x in D.G.objects:
            assert left_translate(D.G, t, D.G.id_of[x]) == t.as_dict()[x]

    def test_swap_translate_of_swap_is_identity(self):
        D = swap3_data()
        t = swap_bisection(D.G)
        g = next(a for a in D.G.arrows if not a.startswith("id:") and D.G.src[a] == "1")
        assert left_translate(D.G, t, g) == "id:1"

    def test_out_of_domain(self):
        G = pair_groupoid(["a", "b"])
        s = make_bisection({"a": G.id_of["a"]})
        with pytest.raises(OutOfDomain):
            left_translate(G, s, "a>b")  # target b outside dom s

    def test_translation_maps_opens_to_opens(self):
        # with the topology produced by a successful extension
        D = cyclic_window(4, 1)
        res = check_extendible(D)
        assert res.ok
        T = res.topology
        for s in w_bisections(D):
            m = s.as_dict()
            for U in T.opens():
                image = frozenset(
                    left_translate(D.G, s, g) for g in U if D.G.tgt[g] in m
                )
                assert T.is_open(image)


class TestWBisections:
    def test_identity_window_gives_identity_bisections(self):
        D = identity_window(swap3_groupoid())
        family = w_bisections(D)
        opens = D.t_objects.opens()
        assert len(family) == len(opens)
        for s in family:
            assert all(a.startswith("id:") for a in s.as_dict().values())

    def test_swap3_full_window_counts(self):
        D = swap3_data()
        family = w_bisections(D)
        fulls = [s for s in family if len(s.domain) == 3]
        assert len(fulls) == 4  # identity/swap on {1,2} x identity/flip at 3
        assert EMPTY_BISECTION in family

    def test_sierpinski_discontinuous_excluded(self):
        D = sierpinski_pair_data()
        family = w_bisections(D)
        # no member may hit a cross arrow: its shadow image {b} is not open
        for s in family:
            assert all(a.startswith("id:") for a in s.as_dict().values())


class TestSemigroup:
    def test_single_identity_seed(self):
        D = swap3_data()
        e = identity_bisection(D.G, D.G.objects)
        S = generate_semigroup(D.G, [e])
        assert S.elements == (e,)

    def test_swap3_closure_is_its_generator_family(self):
        D = swap3_data()
        family = w_bisections(D)
        S = generate_semigroup(D.G, family)
        assert set(S.elements) == set(family)  # window is the whole groupoid

    def test_laws_hold_exhaustively(self):
        for D in (swap3_data(), cyclic_window(4, 1), sierpinski_pair_data()):
            S = generate_semigroup(D.G, w_bisections(D))
            assert inverse_semigroup_laws(S) == []

    def test_relative_inverse_unique_on_small_instance(self):
        D = cyclic_window(4, 1)
        S = generate_semigroup(D.G, w_bisections(D))
        for s in S.elements:
            matches = [
                t
                for t in S.elements
                if S.multiply(S.multiply(s, t), s) == s and S.multiply(S.multiply(t, s), t) == t
            ]
            assert matches == [S.inverse(s)]


class TestSectionable:
    def test_identity_window_sectionable(self):
        assert is_sectionable(identity_window(swap3_groupoid()))

    def test_swap3_full_sectionable(self):
        assert is_sectionable(swap3_data())

    def test_sierpinski_cross_arrows_not_sectionable(self):
        assert not is_sectionable(sierpinski_pair_data())

    def test_agrees_with_bisection_search_on_small_instances(self):
        for D in (swap3_data(), sierpinski_pair_data(), cyclic_window(4, 1)):
            family = w_bisections(D)
            direct = all(
                any(s.as_dict().get(D.G.src[w]) == w for s in family)
                for w in D.window
            )
            assert is_sectionable(D) == direct


class TestExtendible:
    def test_whole_groupoid_with_discrete_topology(self):
        D = full_window(swap3_groupoid())
        res = check_extendible(D)
        assert res.ok
        assert res.topology.same_as(discrete_topology(D.G.arrows))

    def test_classical_group_case_c4(self):
        D = cyclic_window(4, 1)
        res = check_extendible(D)
        assert res.ok
        assert all(len(res.topology.min_open[a]) == 1 for a in D.G.arrows)

    def test_failure_reported_with_witness(self):
        from groupoidkit.holonomy import mobius_model

        res = check_extendible(mobius_model(3))
        assert not res.ok
        kinds = {k for (k, _) in res.failures}
        assert "window-subspace" in kinds

    def test_result_carries_the_germ_closure(self):
        from groupoidkit.germs import germ_closure
        from groupoidkit.holonomy import mobius_model

        D = mobius_model(3)
        res = check_extendible(D)
        assert (res.generator_germs, res.closure_germs) == germ_closure(D)


class TestClosureBudget:
    def test_overflow_guard_stops_oversized_closures(self):
        from groupoidkit.holonomy import mobius_model

        D = mobius_model(3)
        with pytest.raises(OverflowError) as info:
            generate_semigroup(D.G, w_bisections(D), max_elements=50)
        assert isinstance(info.value, CapExceeded) and isinstance(info.value, GroupoidKitError)
        assert str(info.value) == "semigroup closure exceeded 50 elements"


def reference_closure(G, gens):
    """The object-path closure: left multiplication by the inverse-closed seed."""
    seed = set(gens) | {relative_inverse(G, s) for s in gens}
    seen = set(seed)
    queue = list(seed)
    while queue:
        t = queue.pop()
        for g in seed:
            gt = compose_bisections(G, g, t)
            if gt not in seen:
                seen.add(gt)
                queue.append(gt)
    return tuple(sorted(seen, key=lambda s: (len(s.domain), s.values)))


def chain_window(n):
    """Pair groupoid on n points with window: identities and neighbour arrows."""
    pts = "abcdefgh"[:n]
    G = pair_groupoid(list(pts))
    W = sorted(
        a for a in G.arrows
        if a.startswith("id:") or abs(pts.index(a[0]) - pts.index(a[2])) == 1
    )
    return local_data(G, W, discrete_topology(W))


SEMIGROUP_CORPUS = {
    "c4-window": lambda: cyclic_window(4, 1),
    "c8-window-2": lambda: cyclic_window(8, 2),
    "sierpinski": sierpinski_pair_data,
    "swap2-full": lambda: full_window(swap2_groupoid()),
    "swap3-full": swap3_data,
    "pair4-full": lambda: full_window(pair_groupoid(list("abcd"))),
    "pair4-chain": lambda: chain_window(4),
    "pair5-chain": lambda: chain_window(5),
    "no-objects": lambda: full_window(pair_groupoid([])),
}


def cyclic_action_groupoid(n, step):
    """C_n acting on the points of ``step``, the generator moving p to step[p]."""
    act = {}
    for p in step:
        q = p
        for k in range(n):
            act[(k, p)] = q
            q = step[q]
    return action_groupoid(cyclic_group(n), sorted(step), act)


SMALL_GROUPOIDS = [
    lambda: pair_groupoid(["a"]),
    lambda: pair_groupoid(["a", "b"]),
    lambda: pair_groupoid(["a", "b", "c"]),
    lambda: cyclic_action_groupoid(2, {"x": "x"}),
    lambda: cyclic_action_groupoid(2, {"x": "y", "y": "x", "z": "z"}),
    lambda: cyclic_action_groupoid(3, {"x": "y", "y": "z", "z": "x"}),
    lambda: cyclic_action_groupoid(3, {"x": "x", "y": "y"}),
]


@st.composite
def small_window_data(draw):
    """A small pair or action groupoid with a random discrete, inverse-closed window."""
    G = draw(st.sampled_from(SMALL_GROUPOIDS))()
    extra = draw(st.sets(st.sampled_from(G.arrows)))
    W = sorted(set(G.id_of.values()) | extra | {G.inv[a] for a in extra})
    return local_data(G, W, discrete_topology(W))


class TestSemigroupKernel:
    """The integer-coded closure against the object-path reference."""

    @pytest.mark.parametrize("name", sorted(SEMIGROUP_CORPUS))
    def test_corpus_matches_reference(self, name):
        D = SEMIGROUP_CORPUS[name]()
        gens = w_bisections(D)
        assert generate_semigroup(D.G, gens).elements == reference_closure(D.G, gens)

    @settings(max_examples=60, deadline=None)
    @given(small_window_data(), st.data())
    def test_generated_matches_reference(self, D, data):
        family = w_bisections(D)
        assert EMPTY_BISECTION in family
        gens = data.draw(st.lists(st.sampled_from(family), max_size=6)) + [EMPTY_BISECTION]
        expected = reference_closure(D.G, gens)
        S = generate_semigroup(D.G, gens)
        assert S.elements == expected
        assert inverse_semigroup_laws(S) == reference_inverse_semigroup_laws(S) == []

    @pytest.mark.parametrize("name", sorted(SEMIGROUP_CORPUS) + ["pair5-full"])
    def test_corpus_matches_the_all_seeds_oracle(self, name):
        # pair5-full, whose 1,546 seeds are all of I_5, is too large for the object-path reference
        D = full_window(pair_groupoid(list("abcde"))) if name == "pair5-full" else SEMIGROUP_CORPUS[name]()
        gens = w_bisections(D)
        assert generate_semigroup(D.G, gens).elements == reference_generate_semigroup(D.G, gens)

    @settings(max_examples=40, deadline=None)
    @given(small_window_data(), st.randoms(use_true_random=False))
    def test_greedy_closure_ignores_seed_order(self, D, rnd):
        G = D.G
        family = w_bisections(D)
        seeds = list(dict.fromkeys(family + [relative_inverse(G, s) for s in family]))
        expected = reference_closure(G, family)
        for _ in range(3):
            rnd.shuffle(seeds)
            generators, walked = [], []

            def adjoin(g, fresh):
                generators.append(g)
                walked.extend(fresh)
                return [compose_bisections(G, g, t) for t in walked]

            found = closure(seeds, lambda t: [compose_bisections(G, g, t) for g in generators], adjoin=adjoin)
            assert len(found) == len(set(found))
            assert tuple(sorted(found, key=lambda s: (len(s.domain), s.values))) == expected
            assert set(closure(generators, lambda t: [compose_bisections(G, g, t) for g in generators])) == set(expected)
            shuffled = family[:]
            rnd.shuffle(shuffled)
            assert generate_semigroup(G, shuffled).elements == expected

    def test_generators_keep_their_objects(self):
        # on pair4-full 9 of the 209 seeds become generators, so most are found as products
        for name in ["pair4-chain", "pair4-full"]:
            D = SEMIGROUP_CORPUS[name]()
            gens = w_bisections(D)
            by_value = {s: s for s in generate_semigroup(D.G, gens).elements}
            assert all(by_value[s] is s for s in gens)

    @pytest.mark.parametrize("name", ["c8-window-2", "pair4-chain", "pair4-full"])
    def test_cap_boundary(self, name):
        D = SEMIGROUP_CORPUS[name]()
        gens = w_bisections(D)
        n = len(reference_closure(D.G, gens))
        assert len(generate_semigroup(D.G, gens, max_elements=n).elements) == n
        with pytest.raises(OverflowError):
            generate_semigroup(D.G, gens, max_elements=n - 1)


def every_carrier(G):
    """Every set of objects, open or not."""
    objects = sorted(G.objects, key=repr)
    return [frozenset(c) for k in range(len(objects) + 1) for c in combinations(objects, k)]


def candidate_sections(G, pool):
    """Every section of the source map over every set of objects, valued in pool, repeated targets included."""
    return reference_sections_over(G, every_carrier(G), pool, lambda s: True)


def inverse_shadow_space():
    """pair(u, v, x, y) with x and y isolated and u < v.

    x -> u, y -> v is a continuous shadow with a discontinuous inverse.
    """
    G = pair_groupoid(["u", "v", "x", "y"])
    mins = {"u": {"u"}, "v": {"u", "v"}, "x": {"x"}, "y": {"y"}}
    return G, FiniteTopology(("u", "v", "x", "y"), {p: frozenset(U) for p, U in mins.items()})


def window_continuity_data():
    """C2 acting trivially on a and b, with id:b near id:a and every other window point isolated.

    So b lies in the minimal open of a, and {a: g:1@a, b: id:b} is a local
    bisection (its shadow is the identity) that is not continuous into the window.
    """
    G = action_groupoid(cyclic_group(2), ["a", "b"], {(k, p): p for k in range(2) for p in "ab"})
    mins = {"g:1@a": {"g:1@a"}, "g:1@b": {"g:1@b"}, "id:a": {"id:a", "id:b"}, "id:b": {"id:b"}}
    return local_data(G, G.arrows, FiniteTopology(tuple(mins), {w: frozenset(U) for w, U in mins.items()}))


class TestSectionSearch:
    """The section search against every section filtered by the reference predicates, in order."""

    @staticmethod
    def assert_matches_reference(G, T0, carriers, pool, D=None):
        carriers = list(carriers)
        if D is None:
            found = sections_over(G, T0, carriers, pool)
            expected = reference_sections_over(G, carriers, pool, lambda s: reference_is_valid_bisection(G, T0, s))
        else:
            found = sections_over(G, T0, carriers, pool, D.t_window)
            expected = reference_sections_over(G, carriers, pool, lambda s: reference_is_window_bisection(D, s))
        assert found == expected
        assert [s.values for s in found] == [s.values for s in expected]  # the order of values too
        assert all(any(s.domain is U for U in carriers) for s in found)
        return found

    @pytest.mark.parametrize("name", sorted(SEMIGROUP_CORPUS))
    def test_corpus_matches_reference(self, name):
        D = SEMIGROUP_CORPUS[name]()
        G, T0 = D.G, D.t_objects
        self.assert_matches_reference(G, T0, T0.opens(), D.window, D)
        self.assert_matches_reference(G, T0, T0.opens(), D.window)
        self.assert_matches_reference(G, T0, T0.opens(), G.arrows)

    @pytest.mark.parametrize("model", [mobius_model, annulus_model])
    @pytest.mark.parametrize("n", [3, 5])
    def test_window_germ_bases_match_reference(self, model, n):
        D = model(n)
        bases = group_by(D.G.objects, D.t_objects.min_open.__getitem__)
        self.assert_matches_reference(D.G, D.t_objects, bases, D.window, D)
        self.assert_matches_reference(D.G, D.t_objects, bases, D.window)

    def test_inverse_shadow_and_image_tested(self):
        G, T0 = inverse_shadow_space()
        found = self.assert_matches_reference(G, T0, T0.opens(), G.arrows)
        assert make_bisection({"x": "x>u", "y": "y>v"}) not in found  # discontinuous inverse shadow
        assert make_bisection({"x": "x>v"}) not in found  # open domain, image {v} not open
        assert make_bisection({"x": "x>u"}) in found

    def test_window_continuity_tested(self):
        D = window_continuity_data()
        G, T0 = D.G, D.t_objects
        s = make_bisection({"a": "g:1@a", "b": "id:b"})
        assert s in self.assert_matches_reference(G, T0, T0.opens(), D.window)
        assert s not in self.assert_matches_reference(G, T0, T0.opens(), D.window, D)


class TestBisectionContinuity:
    """The bisection predicates against loops cut down to the domain and image."""

    @pytest.mark.parametrize("name", sorted(SEMIGROUP_CORPUS))
    def test_corpus_matches_reference(self, name):
        D = SEMIGROUP_CORPUS[name]()
        G, T0 = D.G, D.t_objects
        verdicts = set()
        for s in candidate_sections(G, G.arrows):
            window = is_window_bisection(D, s)
            assert is_valid_bisection(G, T0, s) == reference_is_valid_bisection(G, T0, s)
            assert window == reference_is_window_bisection(D, s)
            verdicts.add(window)
        assert verdicts == {True, False} or name == "no-objects"

    def test_discontinuous_inverse_shadow_matches_reference(self):
        G, T0 = inverse_shadow_space()
        assert not is_valid_bisection(G, T0, make_bisection({"x": "x>u", "y": "y>v"}))
        for s in candidate_sections(G, G.arrows):
            assert is_valid_bisection(G, T0, s) == reference_is_valid_bisection(G, T0, s)

    def test_band_sample_matches_reference(self):
        # mobius(3) has a non-discrete object topology; a fixed sample of its window-valued sections over opens
        D = mobius_model(3)
        sections = reference_sections_over(D.G, D.t_objects.opens(), D.window, lambda s: True)
        sample = random.Random(0).sample(sections, 3000)
        verdicts = set()
        for s in sample:
            window = is_window_bisection(D, s)
            assert is_valid_bisection(D.G, D.t_objects, s) == reference_is_valid_bisection(D.G, D.t_objects, s)
            assert window == reference_is_window_bisection(D, s)
            verdicts.add(window)
        assert verdicts == {True, False}


def all_sections(G):
    """Every section of the source map over every set of objects, repeated targets included."""
    return tuple(reference_sections_over(G, every_carrier(G), G.arrows, lambda s: True))


class TestLawsKernel:
    """The laws on codes against `compose_bisections` on the elements themselves."""

    @pytest.mark.parametrize("name", sorted(SEMIGROUP_CORPUS) + ["pair5-full"])
    def test_corpus_matches_reference(self, name):
        D = full_window(pair_groupoid(list("abcde"))) if name == "pair5-full" else SEMIGROUP_CORPUS[name]()
        S = generate_semigroup(D.G, w_bisections(D))
        assert inverse_semigroup_laws(S) == reference_inverse_semigroup_laws(S) == []

    @pytest.mark.parametrize("points", ["ab", "abc"])
    def test_every_violation_kind_matches_reference(self, points):
        # On a source section s, s s' is the identity on the image, so the two inverse laws hold even when
        # targets repeat: they fail only for values off the source section, like {a: id_b}.  Non-injective
        # sections break the third law: on pair(2), {a: a>b, b: id_b} and {a: id_a, b: b>a} do not commute.
        G = pair_groupoid(list(points))
        off_section = [make_bisection({"a": "id:b"}), make_bisection({"b": "id:a"})]
        S = InverseSemigroup(G, all_sections(G) + tuple(off_section))
        laws = inverse_semigroup_laws(S)
        assert laws == reference_inverse_semigroup_laws(S)
        assert {kind for kind, _ in laws} == {"ss's=s", "s'ss'=s'", "idempotents-commute"}
        assert [w for kind, w in laws if kind == "ss's=s"] == off_section
        e, f = make_bisection({"a": "a>b", "b": "id:b"}), make_bisection({"a": "id:a", "b": "b>a"})
        assert ("idempotents-commute", (e, f)) in laws

    def test_one_numbering_serves_the_closure_and_the_laws(self, monkeypatch):
        built = []

        class Counted(bisections._Numbering):
            def __init__(self, G):
                built.append(G)
                super().__init__(G)

        monkeypatch.setattr(bisections, "_Numbering", Counted)
        D = full_window(pair_groupoid(list("abc")))
        S = generate_semigroup(D.G, w_bisections(D))
        assert inverse_semigroup_laws(S) == reference_inverse_semigroup_laws(S) == []
        assert built == [D.G]
        # a semigroup given by its elements numbers its groupoid on the first call of the laws, once
        T = InverseSemigroup(D.G, S.elements)
        assert inverse_semigroup_laws(T) == inverse_semigroup_laws(T) == []
        assert built == [D.G, D.G]

    def test_laws_find_the_idempotents(self):
        # every idempotent of pair(2) but the empty and the full identity fails to commute with another,
        # so the commuting witnesses name exactly the idempotents the laws found
        G = pair_groupoid(["a", "b"])
        central = {EMPTY_BISECTION, identity_bisection(G, G.objects)}
        S = InverseSemigroup(G, tuple(s for s in all_sections(G) if s not in central))
        found = {e for kind, pair in inverse_semigroup_laws(S) if kind == "idempotents-commute" for e in pair}
        assert len(S.idempotents()) > 2 and len(S.idempotents()) < len(S.elements)
        assert found == set(S.idempotents())
