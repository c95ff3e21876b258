"""Words, free groupoids, local morphisms, and the monodromy construction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoidkit.core import (
    cyclic_group,
    discrete_topology,
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
from groupoidkit.presentations import (
    POS,
    NEG,
    Word,
    WindowMap,
    broken_product,
    concat,
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

    def test_confluent_windows_flagging(self):
        for radius, expected in ((1, True),):
            G = one_object_groupoid(cyclic_group(8))
            W = sorted({"id:o", "g:1", "g:7"})
            D = local_data(G, W, discrete_topology(W))
            assert monodromy(D).rewriting.confluent is expected
            del radius


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
