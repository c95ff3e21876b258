"""Words, free groupoids, local morphisms, and the monodromy construction."""

import itertools
import json
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoidkit.core import (
    FiniteTopology,
    cyclic_group,
    discrete_topology,
    make_groupoid,
    one_object_groupoid,
    validate_groupoid,
)
from groupoidkit.errors import (
    IllFormedWord,
    NotFiniteOnInstance,
    NotFree,
    NotLocalMorphism,
    PartialMap,
    RewritingNotConfluent,
)
from groupoidkit.io import groupoid_from_dict, local_data_from_dict, topology_from_dict
from groupoidkit.presentations import (
    POS,
    NEG,
    LocalGroupoidData,
    Word,
    WindowMap,
    broken_product,
    concat,
    derived_object_topology,
    empty_word,
    enumerate_monodromy_arrows,
    extend_local_morphism,
    free_groupoid,
    is_local_morphism,
    local_data,
    monodromy,
    monodromy_groupoid,
    monodromy_is_finite,
    reduce_word,
    reflexive_graph,
    word,
    word_inverse,
    words_up_to,
)
from corpus import cyclic_window, monodromy_corpus
from reference_tables import (
    reference_enumerate_monodromy_arrows,
    reference_local_data_validate,
    reference_monodromy_is_finite,
    reference_pair_rewriting,
    reference_words_up_to,
)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
LOCAL_DATA_FIXTURES = ["annulus3.json", "c4-window.json", "full-window.json", "mobius3.json"]


def loop_graph(loops=("e",)):
    return reflexive_graph(["v"], [(e, "v", "v") for e in loops])


def c4_window_data():
    """One-object C4 with window {1, g, g^-1} (discrete topologies)."""
    G = one_object_groupoid(cyclic_group(4))
    W = ["id:o", "g:1", "g:3"]
    return local_data(G, W, discrete_topology(W))


def full_window_data(G):
    return local_data(G, G.arrows, discrete_topology(G.arrows))


class TestWords:
    def test_cancellation(self):
        g = loop_graph()
        w = word(g, "v", [("e", POS), ("e", NEG)])
        assert reduce_word(w) == empty_word("v")

    def test_already_reduced(self):
        g = loop_graph()
        w = word(g, "v", [("e", POS)])
        assert reduce_word(w) == w

    def test_nested_cancellation(self):
        g = loop_graph(("e", "f"))
        w = word(g, "v", [("e", POS), ("f", NEG), ("f", POS), ("e", POS), ("e", NEG)])
        assert reduce_word(w) == word(g, "v", [("e", POS)])

    def test_ill_formed_rejected(self):
        g = reflexive_graph(["a", "b"], [("e", "a", "b")])
        with pytest.raises(IllFormedWord):
            word(g, "a", [("e", POS), ("e", POS)])  # b -> ... mismatch
        with pytest.raises(IllFormedWord):
            word(g, "b", [("e", POS)])  # wrong start
        with pytest.raises(IllFormedWord):
            word(g, "a", [("id:a", POS)])  # identities are not letters

    @settings(max_examples=200)
    @given(st.lists(st.tuples(st.sampled_from("abc"), st.sampled_from([POS, NEG])), max_size=12))
    def test_reduce_idempotent_and_shrinking(self, letters):
        w = Word("v", tuple(letters))
        r = reduce_word(w)
        assert reduce_word(r) == r
        assert len(r) <= len(w)

    @settings(max_examples=200)
    @given(st.lists(st.tuples(st.sampled_from("ab"), st.sampled_from([POS, NEG])), max_size=10))
    def test_word_times_inverse_reduces_to_empty(self, letters):
        g = loop_graph(("a", "b"))
        w = Word("v", tuple(letters))
        wi = word_inverse(g, w)
        assert reduce_word(concat(g, w, wi)) == empty_word(word_inverse(g, wi).start or "v")
        assert reduce_word(concat(g, wi, w)) == empty_word("v")


class TestFreeGroupoid:
    def test_identity_only_graph(self):
        P = free_groupoid(reflexive_graph(["v"], []))
        assert P.is_free() and P.generators() == ()

    def test_single_loop_is_free_rank_one(self):
        P = free_groupoid(loop_graph())
        ws = words_up_to(P, "v", "v", 2)
        assert len(ws) == 5  # empty, e, e^-1, ee, e^-1 e^-1

    def test_interval_presentation(self):
        P = free_groupoid(reflexive_graph(["0", "1"], [("e", "0", "1")]))
        assert [w.letters for w in words_up_to(P, "0", "1", 1)] == [(("e", POS),)]
        assert len(words_up_to(P, "0", "0", 4)) == 1  # just the empty word

    def test_rank_two_count(self):
        # reduced words of length k on two loops: 4 * 3^(k-1)
        P = free_groupoid(loop_graph(("a", "b")))
        ws = words_up_to(P, "v", "v", 2)
        assert len(ws) == 1 + 4 + 12

    def test_words_up_to_requires_free(self):
        D = c4_window_data()
        M = monodromy(D)
        with pytest.raises(NotFree):
            words_up_to(M.presentation, "o", "o", 2)

    def test_repeated_edge_ids_are_reported_once_each_in_listing_order(self):
        graph = reflexive_graph(["m", "p"], [("b", "p", "m"), ("id:m", "p", "m"), ("a", "m", "p"),
                                             ("b", "m", "m"), ("a", "p", "m"), ("b", "p", "p")])
        # id:m listed as a generator from p also moves the identity edge off its object
        assert [(v.rule, v.witness) for v in graph.validate().violations] == [
            ("identity-edge", ("m", "id:m")),
            ("distinct-edges", ("id:m",)),
            ("distinct-edges", ("b",)),
            ("distinct-edges", ("a",)),
        ]
        with pytest.raises(IllFormedWord):
            free_groupoid(reflexive_graph(["m"], [("id:m", "m", "m")]))


class TestLocalMorphism:
    def test_inclusion_is_local(self):
        D = c4_window_data()
        f = WindowMap({"o": "o"}, {w: w for w in D.window})
        assert is_local_morphism(D, D.G, f)

    def test_constant_identity_map_is_local(self):
        D = full_window_data(one_object_groupoid(cyclic_group(4)))
        H = one_object_groupoid(cyclic_group(2))
        f = WindowMap({"o": "o"}, {w: "id:o" for w in D.window})
        assert is_local_morphism(D, H, f)

    def test_flipping_one_generator_breaks_products(self):
        D = c4_window_data()
        H = one_object_groupoid(cyclic_group(4))
        f = WindowMap({"o": "o"}, {"id:o": "id:o", "g:1": "g:3", "g:3": "g:3"})
        assert not is_local_morphism(D, H, f)  # fails at (g, g^-1) -> 1
        assert broken_product(D, H, f) == ("g:1", "g:3")

    def test_broken_product_is_the_sorted_first_pair(self):
        D = full_window_data(one_object_groupoid(cyclic_group(4)))
        H = one_object_groupoid(cyclic_group(4))
        f = WindowMap({"o": "o"}, {"id:o": "id:o", "g:1": "g:1", "g:2": "g:1", "g:3": "g:3"})
        G = D.G
        broken = [
            (u, v)
            for u in sorted(D.window)
            for v in sorted(D.window)
            if G.tgt[v] == G.src[u] and H.comp[(f.arrow_map[u], f.arrow_map[v])] != f.arrow_map[G.comp[(u, v)]]
        ]
        assert len(broken) > 1 and broken_product(D, H, f) == broken[0]
        assert broken_product(D, D.G, WindowMap({"o": "o"}, {w: w for w in D.window})) is None


class TestMonodromy:
    def test_full_window_gives_back_g(self):
        G = one_object_groupoid(cyclic_group(4))
        M = monodromy(full_window_data(G))
        assert M.rewriting.confluent
        assert monodromy_is_finite(M)
        Mfin, _ = monodromy_groupoid(M)
        assert validate_groupoid(Mfin).ok
        assert len(Mfin.arrows) == len(G.arrows)
        for w in M.data.window:
            assert M.project_word(M.iprime[w]) == w

    def test_identities_only_window_is_discrete(self):
        G = one_object_groupoid(cyclic_group(4))
        D = local_data(G, ["id:o"], discrete_topology(["id:o"]))
        M = monodromy(D)
        Mfin, _ = monodromy_groupoid(M)
        assert len(Mfin.arrows) == len(Mfin.objects)

    def test_c4_window_gives_infinite_cyclic(self):
        M = monodromy(c4_window_data())
        assert M.rewriting.confluent
        assert not monodromy_is_finite(M)
        with pytest.raises(NotFiniteOnInstance):
            enumerate_monodromy_arrows(M)
        # powers g^n are pairwise distinct for |n| <= 8
        g = M.presentation.graph
        nfs = set()
        for n in range(-8, 9):
            if n >= 0:
                w = Word("o", (("g:1", POS),) * n)
            else:
                w = Word("o", (("g:1", NEG),) * (-n))
            nfs.add(M.normal_form(w).letters)
        assert len(nfs) == 17
        del g

    def test_iprime_injective_and_projects_to_inclusion(self):
        for D in (c4_window_data(), full_window_data(one_object_groupoid(cyclic_group(4)))):
            M = monodromy(D)
            assert M.iprime_injective()
            for w in D.window:
                assert M.project_word(M.iprime[w]) == w

    def test_window_arrow_named_like_an_identity_edge_is_refused(self):
        # the pair groupoid on x, y with identities ex, ey: the arrow x -> y is
        # named id:y, the name reflexive_graph gives y's identity edge
        name = {("x", "x"): "ex", ("y", "y"): "ey", ("x", "y"): "id:y", ("y", "x"): "back"}
        ends = {a: xy for xy, a in name.items()}
        src = {a: s for a, (s, _) in ends.items()}
        tgt = {a: t for a, (_, t) in ends.items()}
        comp = {(h, g): name[src[g], tgt[h]] for h in ends for g in ends if tgt[g] == src[h]}
        inv = {a: name[t, s] for a, (s, t) in ends.items()}
        G = make_groupoid(["x", "y"], list(ends), src, tgt, {"x": "ex", "y": "ey"}, inv, comp)
        assert validate_groupoid(G).ok
        with pytest.raises(IllFormedWord, match=r"distinct-edges\('id:y',\)"):
            monodromy(full_window_data(G))


class TestExtension:
    def test_extend_inclusion_gives_projection(self):
        D = c4_window_data()
        M = monodromy(D)
        f = WindowMap({"o": "o"}, {w: w for w in D.window})
        fp = extend_local_morphism(M, D.G, f)
        for w in D.window:
            assert fp.evaluate(M.iprime[w]) == w
        # f' agrees with the projection on every short word
        for n in range(5):
            w = Word("o", (("g:1", POS),) * n)
            assert fp.evaluate(w) == M.project_word(w)

    def test_extend_constant_map(self):
        D = c4_window_data()
        M = monodromy(D)
        H = one_object_groupoid(cyclic_group(2))
        f = WindowMap({"o": "o"}, {w: "id:o" for w in D.window})
        fp = extend_local_morphism(M, H, f)
        assert fp.evaluate(Word("o", (("g:1", POS),) * 3)) == "id:o"

    def test_extend_into_c8(self):
        D = c4_window_data()
        M = monodromy(D)
        H = one_object_groupoid(cyclic_group(8))
        f = WindowMap({"o": "o"}, {"id:o": "id:o", "g:1": "g:1", "g:3": "g:7"})
        fp = extend_local_morphism(M, H, f)
        assert fp.evaluate(M.iprime["g:1"]) == "g:1"
        # [g]^4 maps to the order-8 generator to the fourth power, not identity
        assert fp.evaluate(Word("o", (("g:1", POS),) * 4)) == "g:4"

    def test_non_local_map_rejected(self):
        D = c4_window_data()
        M = monodromy(D)
        H = one_object_groupoid(cyclic_group(4))
        f = WindowMap({"o": "o"}, {"id:o": "id:o", "g:1": "g:3", "g:3": "g:3"})
        with pytest.raises(NotLocalMorphism):
            extend_local_morphism(M, H, f)


class TestInstanceConfluence:
    def test_nonconfluent_window_reported_not_silently_accepted(self):
        # overlapping pair rules with composites leaving the window give two
        # irreducible spellings; the instance must flag itself
        G = one_object_groupoid(cyclic_group(8))
        W = ["id:o", "g:1", "g:2", "g:6", "g:7"]
        D = local_data(G, W, discrete_topology(W))
        M = monodromy(D)
        assert not M.rewriting.confluent
        assert M.rewriting.critical_failures
        with pytest.raises(RewritingNotConfluent):
            M.normal_form(Word("o", (("g:1", POS),) * 3))
        with pytest.raises(RewritingNotConfluent):
            monodromy_is_finite(M)
        # the algebraic data is still usable: projection and embedding hold
        for w in D.window:
            assert M.project_word(M.iprime[w]) == w

    def test_c6_window_fixture_fails_eight_critical_pairs(self):
        D = local_data_from_dict(json.loads((FIXTURES / "c6-window-2.json").read_text()))
        R = monodromy(D).rewriting
        oracle = reference_pair_rewriting(R.graph, R.inv_gen, R.pair_rules)
        assert not R.confluent and len(R.critical_failures) == 8
        assert R.critical_failures == oracle.critical_failures
        # g:1 g:1 g:1 gives g:2 g:1 and g:1 g:2, both irreducible
        g1, g2 = ("g:1", POS), ("g:2", POS)
        assert R.critical_failures[0] == (("g:1", "g:1", "g:1"), Word("o", (g2, g1)), Word("o", (g1, g2)))
        with pytest.raises(RewritingNotConfluent) as refused:
            R.normal_form(Word("o", (g1,)))
        assert str(refused.value) == (
            f"instance rewriting system failed critical pairs: {oracle.critical_failures[:3]!r}")

    def test_confluent_windows_flagging(self):
        for radius, expected in ((1, True),):
            G = one_object_groupoid(cyclic_group(8))
            W = sorted({"id:o", "g:1", "g:7"})
            D = local_data(G, W, discrete_topology(W))
            assert monodromy(D).rewriting.confluent is expected
            del radius


class TestTraversalOracles:
    """Word and normal-form traversals on `core.closure` against the level-by-level loops."""

    def test_words_up_to_matches_reference_in_order(self):
        # every graph with 1-3 generators on objects "0" and "1"
        for k in (1, 2, 3):
            for ends in itertools.product(itertools.product("01", repeat=2), repeat=k):
                P = free_groupoid(reflexive_graph(["0", "1"], [(f"e{i}", s, t) for i, (s, t) in enumerate(ends)]))
                for x, y in itertools.product("01", repeat=2):
                    for n in range(5):
                        assert words_up_to(P, x, y, n) == reference_words_up_to(P, x, y, n)

    def test_monodromy_finiteness_and_arrows_match_reference(self):
        cases = [D for _, D in monodromy_corpus()]
        cases += [cyclic_window(n, r) for n in range(2, 13) for r in range(min(4, n))]  # g^k != 1 for k <= r
        verdicts = set()
        for D in cases:
            M = monodromy(D)
            if not M.rewriting.confluent:
                continue
            finite = monodromy_is_finite(M)
            assert finite == reference_monodromy_is_finite(M)
            verdicts.add(finite)
            if finite:
                assert enumerate_monodromy_arrows(M) == reference_enumerate_monodromy_arrows(M)
            else:
                with pytest.raises(NotFiniteOnInstance):
                    enumerate_monodromy_arrows(M)
        assert verdicts == {True, False}


class TestLocalDataValidation:
    def test_window_must_be_inverse_closed(self):
        G = one_object_groupoid(cyclic_group(4))
        with pytest.raises(PartialMap):
            local_data(G, ["id:o", "g:1"], discrete_topology(["id:o", "g:1"]))

    def test_window_must_contain_identities(self):
        G = one_object_groupoid(cyclic_group(4))
        with pytest.raises(PartialMap):
            local_data(G, ["g:1", "g:3"], discrete_topology(["g:1", "g:3"]))

    def test_object_topology_must_be_the_identity_subspace(self):
        G = one_object_groupoid(cyclic_group(4))
        W = ["id:o", "g:1", "g:3"]
        D = local_data(G, W, discrete_topology(W))
        assert D.t_objects.min_open["o"] == frozenset({"o"})


def _topologies(doc, G):
    """The two topologies of a local-data document, read without validating the window."""
    t_w = topology_from_dict(doc["topology_w"], "topology_w")
    if "topology_objects" in doc:
        return t_w, topology_from_dict(doc["topology_objects"], "topology_objects")
    return t_w, derived_object_topology(G, t_w)


def damaged_copies(D, seed):
    """Local data on D's groupoid and window with some minimal opens of either topology widened or cut down."""
    rng = random.Random(seed)
    W = sorted(D.window, key=repr)
    TW, T0 = dict(D.t_window.min_open), dict(D.t_objects.min_open)
    for _ in range(rng.randint(1, 3)):
        w = rng.choice(W)
        TW[w] = TW[w] | TW[rng.choice(W)]
    if rng.random() < 0.5:
        x = rng.choice(sorted(T0, key=repr))
        T0[x] = frozenset({x})
    return LocalGroupoidData(D.G, D.window, FiniteTopology(D.t_window.points, TW), FiniteTopology(D.t_objects.points, T0))


class TestLocalDataContinuity:
    """The window continuity rules against one loop per rule (`reference_local_data_validate`)."""

    @pytest.mark.parametrize("name", LOCAL_DATA_FIXTURES + ["open-window.json"])
    def test_fixtures_match_reference(self, name):
        doc = json.loads((FIXTURES / name).read_text())
        G = groupoid_from_dict(doc)
        D = LocalGroupoidData(G, frozenset(doc["window"]), *_topologies(doc, G))
        assert D.validate() == reference_local_data_validate(D)

    @pytest.mark.parametrize("name", LOCAL_DATA_FIXTURES)
    def test_damaged_copies_match_reference(self, name):
        D = local_data_from_dict(json.loads((FIXTURES / name).read_text()))
        for seed in range(40):
            damaged = damaged_copies(D, seed)
            assert damaged.validate() == reference_local_data_validate(damaged)

    @pytest.mark.parametrize("name", ["annulus3.json", "mobius3.json"])
    def test_damage_reaches_every_continuity_rule(self, name):
        D = local_data_from_dict(json.loads((FIXTURES / name).read_text()))
        rules = set().union(*(damaged_copies(D, seed).validate().rules() for seed in range(40)))
        assert {"window-src-continuous", "window-tgt-continuous", "window-inv-continuous"} <= rules

    def test_violations_follow_window_repr_order(self):
        D = damaged_copies(local_data_from_dict(json.loads((FIXTURES / "mobius3.json").read_text())), 3)
        for rule in ("window-src-continuous", "window-tgt-continuous", "window-inv-continuous"):
            witnesses = [v.witness for v in D.validate().violations if v.rule == rule]
            assert witnesses == sorted(witnesses, key=lambda w: repr(w[0]))

    def test_missing_inverse_row_is_a_violation(self):
        # drop-inv.json is c4-window.json without the inv row of g:3
        with pytest.raises(PartialMap) as info:
            local_data_from_dict(json.loads((FIXTURES / "drop-inv.json").read_text()))
        assert str(info.value) == "invalid local groupoid data: inverse-exists('g:3',): no inverse arrow"
