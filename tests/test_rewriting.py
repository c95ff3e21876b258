"""The one word reducer, the overlap scan and the pair-table join, against the code they replaced.

`rewriting.rewriter` reduces for both the Knuth-Bendix completion of vertex
group presentations and the monodromy pair rules; `rewriting.overlaps`
finds completion's critical pairs, and the monodromy check joins its
pair-rule table instead.  `enumerate_elements` lists the normal forms and
is in turn the oracle of `count_normal_forms`, which counts the same set
on the automaton of the left-hand sides; the enumeration is checked against
the words, listed by brute force, that no left-hand side divides.  The
oracles in `reference_tables` are the two separate rewriters these
replaced and the overlap scan over the monodromy letter rules.
"""

import gc
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import cyclic_window, full_window, monodromy_corpus, pushout_corpus
from groupoidkit.holonomy import monodromy_pair
from groupoidkit.io import local_data_from_dict
from groupoidkit.colimits import GroupPresentation, HnnInput, hnn_from_pushout, pushout, vertex_group_presentation
from groupoidkit.core import (
    cyclic_group,
    direct_product_group,
    discrete_topology,
    indiscrete,
    one_object_groupoid,
    pair_groupoid,
    product_groupoid,
    symmetric_group,
)
from groupoidkit.errors import NotConnected, PartialMap, RewritingNotConfluent
from groupoidkit.presentations import (
    NEG,
    POS,
    Word,
    letter_src,
    letter_tgt,
    local_data,
    monodromy,
    monodromy_groupoid,
    monodromy_is_finite,
)
from groupoidkit.rewriting import (
    MAX_LEN,
    MAX_RULES,
    GroupRewriting,
    count_normal_forms,
    enumerate_elements,
    inclusions,
    invert,
    knuth_bendix,
    overlaps,
    rewriter,
)
from reference_tables import (
    reference_ball_sizes,
    reference_check_confluence,
    reference_coset_table,
    reference_exhaust,
    reference_inclusions,
    reference_knuth_bendix,
    reference_monodromy_groupoid,
    reference_overlaps,
    reference_pair_rewriting,
    reference_pair_rules,
    reference_rewrite,
    reference_trace,
)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def presentation_corpus():
    """Every group presentation the colimit tests and the benchmark's pushout jobs complete."""
    out = []
    for name, f, g in pushout_corpus():
        apex = pushout(f, g).apex
        try:
            pres = vertex_group_presentation(apex, sorted(apex.objects)[0])
        except NotConnected:
            continue
        out.append((f"pushout-{name}", pres))
    c2 = GroupPresentation(("a",), ((("a", POS), ("a", POS)),))
    c4 = GroupPresentation(("a",), ((("a", POS),) * 4,))
    t2 = GroupPresentation(("t",), ((("t", POS), ("t", POS)),))
    # hnn_from_pushout completes its vertex group; the completion of the C4
    # HNN group itself gives up (tests/test_colimits.py), so only C2's is here
    out.append(("hnn-c2-vertex", c2))
    out.append(("hnn-c4-vertex", c4))
    out.append(("hnn-c2", hnn_from_pushout(HnnInput(c2, t2, {"t": (("a", POS),)}, {"t": (("a", POS),)}))[0]))
    out.append(("s3", GroupPresentation(("r", "s"), (
        (("r", POS),) * 3, (("s", POS),) * 2, (("r", POS), ("s", POS)) * 2))))
    return out


def monodromy_instances():
    """The benchmark's 28 monodromy windows: the test corpus plus four full windows."""
    out = list(monodromy_corpus())
    for n in (12, 16, 24):
        out.append((f"c{n}-full", full_window(one_object_groupoid(cyclic_group(n)))))
    out.append(("s4-full", full_window(one_object_groupoid(symmetric_group(4)))))
    return out


def two_object_c8_window():
    """C8 x pair(x, y) with the window of C8 radius 2: failures whose words leave an object."""
    G = product_groupoid(one_object_groupoid(cyclic_group(8)), pair_groupoid(["x", "y"]))
    W = sorted(a for a in G.arrows if a.split("|")[0] in ("id:o", "g:1", "g:2", "g:6", "g:7"))
    return local_data(G, W, discrete_topology(W))


def local_data_fixtures():
    """Every fixture that loads as local groupoid data; truncated.json is not JSON."""
    out = []
    for path in sorted(FIXTURES.glob("*.json")):
        if path.name == "truncated.json" or "window" not in (doc := json.loads(path.read_text())):
            continue
        try:
            out.append((path.name, local_data_from_dict(doc)))
        except PartialMap:  # drop-inv.json and open-window.json are refused at load
            continue
    return out


PRESENTATIONS = presentation_corpus()
MONODROMY = monodromy_instances()
WINDOWS = MONODROMY + local_data_fixtures()


def letter_rules(R):
    """The monodromy rewriting's letter rules, built as `presentations._pair_rewriting` builds them."""
    rules = {((u, POS), (v, POS)): () if uv is None else ((uv, POS),) for (u, v), uv in R.pair_rules.items()}
    rules.update({((e, NEG),): ((inv, POS),) for e, inv in R.inv_gen.items()})
    return rules


def random_word(graph, rng, length):
    """A composable word of `length` letters with random signs, grown from a random start."""
    start = rng.choice(graph.objects)
    letters = []
    cur = start
    gens = graph.generators()
    for _ in range(length):
        choices = [(e, s) for e in gens for s in (POS, NEG) if letter_src(graph, (e, s)) == cur]
        if not choices:
            break
        let = rng.choice(choices)
        letters.insert(0, let)
        cur = letter_tgt(graph, let)
    return Word(start, tuple(letters))


def completes_every_pair(system):
    """Every proper overlap and every inclusion of two left-hand sides joins under `reference_rewrite`."""
    lhss = [lhs for lhs, _ in system.rules]
    rhs = dict(system.rules)

    def reduce(word):
        return reference_rewrite(system.rules, word)

    for l1 in lhss:
        for l2 in lhss:
            for k in range(1, min(len(l1), len(l2))):
                if l1[-k:] == l2[:k] and reduce(rhs[l1] + l2[k:]) != reduce(l1[:-k] + rhs[l2]):
                    return False
            for i in range(len(l1) - len(l2) + 1):
                if l1 != l2 and l1[i : i + len(l2)] == l2:
                    if reduce(rhs[l1]) != reduce(l1[:i] + rhs[l2] + l1[i + len(l2) :]):
                        return False
    return True


# <a, b | b a^-1, a^-1 b^-1> presents C2: a = b and a^2 = 1
C2_BY_TWO_GENERATORS = (("a", "b"), ((("b", POS), ("a", NEG)), (("a", NEG), ("b", NEG))))


def all_words(generators, length):
    letters = [(g, s) for g in generators for s in (POS, NEG)]
    words = [()]
    frontier = [()]
    for _ in range(length):
        frontier = [w + (let,) for w in frontier for let in letters]
        words.extend(frontier)
    return words


def letters_of(text):
    """A word written as letters, upper case for an inverse letter: "aB" is a b^-1."""
    return tuple((c.lower(), NEG if c.isupper() else POS) for c in text)


# not confluent: a b b b rewrites to b leftmost first, and to a with b b b first (TestReducer)
LEFTMOST_SHORTER = {(("a", POS), ("b", POS)): (("b", POS),), (("b", POS),) * 2: (("a", POS),), (("b", POS),) * 3: ()}


def enumerable_presentations():
    """(name, generators, relators, coset table) for every corpus presentation a coset enumeration can check.

    The corpus presentations whose enumeration closes, a few more finite
    groups, and the free ones, which carry no table: their balls have a formula.
    """
    finite = {
        "c2-by-two-generators": ("ab", ["bA", "AB"]),
        "c6": ("ab", ["aa", "bbb", "abAB"]),
        "c3xc3": ("ab", ["aaa", "bbb", "abAB"]),
        "d4": ("ab", ["aaaa", "bb", "abab"]),
        "q8": ("ij", ["iiii", "iiJJ", "jiJi"]),
        "a4": ("ab", ["aa", "bbb", "ababab"]),
        "s4": ("ab", ["aaaa", "bbb", "abab"]),
    }
    cases = [(name, pres.generators, pres.relators) for name, pres in PRESENTATIONS]
    cases += [(name, tuple(g), [letters_of(r) for r in rs]) for name, (g, rs) in finite.items()]
    out = []
    for name, generators, relators in cases:
        table = reference_coset_table(generators, relators) if relators else None
        if table is not None or not relators:
            out.append((name, generators, relators, table))
    return out


ENUMERABLE = enumerable_presentations()


def agree_with_coset_enumeration(generators, relators, table, rng):
    """Completion's normal forms, balls and equality against the coset table (or the free-group balls)."""
    system = knuth_bendix(generators, relators)
    assert system.complete
    assert [len(enumerate_elements(system, n)) for n in range(7)] == reference_ball_sizes(generators, relators, 6, table)
    if table is None:
        return
    assert len(enumerate_elements(system, len(table))) == len(table)
    letters = [(g, s) for g in generators for s in (POS, NEG)]

    def word():
        return tuple(rng.choice(letters) for _ in range(rng.randrange(9) if letters else 0))

    for _ in range(40):
        w1, w2 = word(), word()
        assert system.equal(w1, w2) == (reference_trace(table, w1) == reference_trace(table, w2))
        r = rng.choice(relators)
        i = rng.randrange(len(w1) + 1)
        assert system.equal(w1, w1[:i] + (tuple(r) if rng.random() < 0.5 else invert(tuple(r))) + w1[i:])


class TestToddCoxeter:
    """Completion checked against coset enumeration, which shares no code with it."""

    def test_the_corpus_holds_finite_and_free_groups(self):
        orders = {name: len(table) for name, _, _, table in ENUMERABLE if table is not None}
        assert orders["s3"] == 6 and orders["hnn-c4-vertex"] == 4 and orders["s4"] == 24 and orders["q8"] == 8
        assert {name for name, _, relators, _ in ENUMERABLE if not relators} >= {"pushout-wedge-two-loops"}

    @pytest.mark.parametrize("name,generators,relators,table", ENUMERABLE, ids=[c[0] for c in ENUMERABLE])
    def test_normal_forms_match_the_coset_table(self, name, generators, relators, table):
        agree_with_coset_enumeration(generators, relators, table, random.Random(name))

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.integers(2, 3).flatmap(lambda k: st.tuples(
        st.just("abc"[:k]),
        st.lists(st.lists(st.tuples(st.sampled_from("abc"[:k]), st.sampled_from([POS, NEG])), min_size=1, max_size=4),
                 min_size=1, max_size=3),
    )))
    def test_random_presentations_match_the_coset_table(self, presentation):
        generators, relators = tuple(presentation[0]), [tuple(r) for r in presentation[1]]
        table = reference_coset_table(generators, relators, max_cosets=512)
        if table is not None and knuth_bendix(generators, relators).complete:
            agree_with_coset_enumeration(generators, relators, table, random.Random(repr(relators)))


def irreducible_words(system, max_len):
    """The words of length <= max_len, by brute force, that have no left-hand side as a factor.

    Every rule of a complete shortlex system shortens a word or keeps its
    length, so these are its normal forms of length <= max_len.
    """
    lhss = {lhs for lhs, _ in system.rules}
    return {w for w in all_words(system.generators, max_len)
            if not any(w[i:j] in lhss for i in range(len(w)) for j in range(i + 1, len(w) + 1))}


class TestEnumeration:
    """The normal forms, against the words that no left-hand side divides."""

    @pytest.mark.parametrize("name,pres", PRESENTATIONS, ids=[name for name, _ in PRESENTATIONS])
    def test_elements_are_the_irreducible_words(self, name, pres):
        system = knuth_bendix(pres.generators, pres.relators)
        assert system.complete
        for n in (0, 1, 5):
            assert enumerate_elements(system, n) == irreducible_words(system, n)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.integers(2, 3).flatmap(lambda k: st.tuples(
        st.just("abc"[:k]),
        st.lists(st.lists(st.tuples(st.sampled_from("abc"[:k]), st.sampled_from([POS, NEG])), min_size=1, max_size=4),
                 max_size=3),
    )))
    def test_random_presentations_elements_are_the_irreducible_words(self, presentation):
        generators, relators = tuple(presentation[0]), [tuple(r) for r in presentation[1]]
        system = knuth_bendix(generators, relators)
        if system.complete:
            assert enumerate_elements(system, 4) == irreducible_words(system, 4)


def refusal(count_or_list, system):
    """The exception type and message with which `count_or_list` refuses `system`."""
    with pytest.raises(RewritingNotConfluent) as refused:
        count_or_list(system, 2)
    return type(refused.value), str(refused.value)


class TestKnuthBendix:
    @pytest.mark.parametrize("name,pres", PRESENTATIONS, ids=[name for name, _ in PRESENTATIONS])
    def test_rules_and_verdict_equal_the_oracle(self, name, pres):
        new = knuth_bendix(pres.generators, pres.relators)
        old = reference_knuth_bendix(pres.generators, pres.relators)
        assert new.complete == old.complete
        assert new.rules == old.rules
        assert not new.complete or completes_every_pair(new)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.lists(
        st.lists(st.tuples(st.sampled_from("ab"), st.sampled_from([POS, NEG])), min_size=1, max_size=3),
        min_size=1, max_size=2,
    ))
    def test_random_presentations_against_the_oracle(self, relators):
        # Completion inter-reduces in one pass, so two strategies can leave
        # different redundant rules; what must agree is the verdict and, for
        # systems that join every critical pair, the normal forms.
        relators = [tuple(r) for r in relators]
        new = knuth_bendix(("a", "b"), relators)
        old = reference_knuth_bendix(("a", "b"), relators)
        assert new.complete == old.complete
        assert list(overlaps(dict(new.rules))) == reference_overlaps(dict(new.rules))
        assert list(inclusions(dict(new.rules))) == reference_inclusions(dict(new.rules))
        if new.complete:
            assert completes_every_pair(new) and completes_every_pair(old)
            for w in all_words(("a", "b"), 3):
                assert new.reduce(w) == reference_rewrite(old.rules, w)

    def test_overlaps_follow_the_all_pairs_loop(self):
        for _, pres in PRESENTATIONS:
            rules = dict(knuth_bendix(pres.generators, pres.relators).rules)
            assert list(overlaps(rules)) == reference_overlaps(rules)
        rules = {(("a", POS),) * 3: (), (("a", POS), ("b", POS)): (("b", POS),), (("b", POS), ("a", POS)): ()}
        assert list(overlaps(rules)) == reference_overlaps(rules)
        assert len(reference_overlaps(rules)) == 6
        # a b c and b c d overlap in b c, which does not start with the last letter of a b c
        a, b, c, d = (("a", POS), ("b", POS), ("c", POS), ("d", POS))
        assert list(overlaps({(a, b, c): (), (b, c, d): ()})) == [((a, b, c), (b, c, d), 2)]

    def test_inclusions_follow_the_all_pairs_loop(self):
        for _, pres in PRESENTATIONS:
            rules = dict(knuth_bendix(pres.generators, pres.relators).rules)
            assert list(inclusions(rules)) == reference_inclusions(rules)
        a, b, c = (("a", POS), ("b", POS), ("c", POS))
        rules = {(a, b, a): (), (a,): (b,), (b, a): (), (c,): ()}
        assert list(inclusions(rules)) == [
            ((a, b, a), (a,), 0), ((a, b, a), (a,), 2), ((a, b, a), (b, a), 1), ((b, a), (a,), 1)]
        assert list(inclusions(rules)) == reference_inclusions(rules)

    @pytest.mark.parametrize("relators", [
        C2_BY_TWO_GENERATORS[1],
        ((("b", POS), ("a", NEG)), (("a", POS), ("b", POS))),  # <a, b | b a^-1, a b> is C2 as well
    ])
    def test_a_core_rule_holding_a_letter_rule_is_joined(self, relators):
        # a^-1 -> a makes a a^-1 -> 1 an inclusion pair: a a = 1
        system = knuth_bendix(("a", "b"), relators)
        assert system.complete and completes_every_pair(system)
        assert len(enumerate_elements(system, 4)) == 2
        assert GroupPresentation(("a", "b"), relators).element_count_up_to(4) == 2

    def test_completion_gives_up_past_the_pair_cap(self):
        # the rules stay under MAX_RULES and MAX_LEN while the rounds form 2,928
        # critical pairs by round 8, 8,309 by round 9 and thousands more each round
        # after it: without the pair cap this ran for about ten minutes
        system = knuth_bendix(("a", "b", "c"), [letters_of("ACbC"), letters_of("accb")])
        assert not system.complete
        assert len(system.rules) <= MAX_RULES and max(len(lhs) for lhs, _ in system.rules) <= MAX_LEN

    def test_element_count_does_not_follow_the_hash_seed(self):
        code = (
            "from groupoidkit.colimits import GroupPresentation\n"
            "from groupoidkit.rewriting import NEG, POS\n"
            f"print(GroupPresentation(*{C2_BY_TWO_GENERATORS!r}).element_count_up_to(4))\n"
        )
        counts = set()
        for seed in range(6):
            env = {**os.environ, "PYTHONHASHSEED": str(seed)}
            out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
            counts.add(out.stdout.strip())
        assert counts == {"2"}

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_free_groups_have_the_free_ball_sizes(self, rank):
        system = knuth_bendix(tuple("abc"[:rank]), [])
        assert system.complete
        assert [len(enumerate_elements(system, n)) for n in range(5)] == reference_ball_sizes("abc"[:rank], [], 4)

    # count_normal_forms refuses each of these as enumerate_elements does: same exception, same message

    def test_enumerate_elements_refuses_an_incomplete_system(self):
        c2 = knuth_bendix(("a",), [(("a", POS),) * 2])
        assert c2.complete and len(enumerate_elements(c2, 2)) == 2
        incomplete = GroupRewriting(c2.generators, c2.rules, complete=False)
        assert refusal(enumerate_elements, incomplete) == refusal(count_normal_forms, incomplete)

    def test_enumerate_elements_refuses_a_system_without_free_cancellation(self):
        # b -> a^-1 alone leaves a a^-1 irreducible: its normal forms are not freely reduced,
        # and the count would take a a^-1 for one
        b_to_a_inverse = ((("b", POS),), (("a", NEG),))
        system = GroupRewriting(("a", "b"), (b_to_a_inverse,), complete=True)
        with pytest.raises(RewritingNotConfluent, match=re.escape(repr((("a", POS), ("a", NEG))))):
            enumerate_elements(system, 3)
        assert refusal(enumerate_elements, system) == refusal(count_normal_forms, system)

    @pytest.mark.parametrize("dropped", range(4))
    def test_enumerate_elements_names_the_missing_cancellation_rule(self, dropped):
        c2 = knuth_bendix(("a", "b"), C2_BY_TWO_GENERATORS[1])
        core = [((g, s), (g, -s)) for g in ("a", "b") for s in (POS, NEG)]
        assert c2.complete and all((lhs, ()) in c2.rules for lhs in core)
        rules = tuple(rule for rule in c2.rules if rule[0] != core[dropped])
        system = GroupRewriting(c2.generators, rules, complete=True)
        with pytest.raises(RewritingNotConfluent, match=re.escape(repr(core[dropped]))):
            enumerate_elements(system, 2)
        assert refusal(enumerate_elements, system) == refusal(count_normal_forms, system)


# elements_up_to_8 of the benchmark's pushout jobs; loop-plus-isolated is not connected
PUSHOUT_COUNTS = {
    "circle-two-points": 17, "circle-one-object": 17, "wedge-two-loops": 13121, "identity-glue": 1,
    "theta-graph": 13121, "c2-wedge-c2": 17, "c2-wedge-c3": 106, "two-segments": 1,
    "interval-against-loop": 13121, "swapped-circle": 17,
}


def assert_count_lists_nothing_else(system, lengths=range(9), most=None):
    """`count_normal_forms` equals the size of `enumerate_elements` at each length; past `most` words, stop."""
    for n in lengths:
        count = count_normal_forms(system, n)
        assert count == len(enumerate_elements(system, n)), n
        if most is not None and count > most:
            return


class TestNormalFormCount:
    """The automaton count against the listed normal forms, its oracle."""

    def test_the_benchmark_pushouts_keep_their_counts(self):
        # the parametrized test below checks each of these against the listed normal forms
        counts = {name.removeprefix("pushout-"): count_normal_forms(knuth_bendix(pres.generators, pres.relators), 8)
                  for name, pres in PRESENTATIONS if name.startswith("pushout-")}
        assert counts == PUSHOUT_COUNTS

    @pytest.mark.parametrize("name,pres", PRESENTATIONS, ids=[name for name, _ in PRESENTATIONS])
    def test_counts_equal_the_listed_normal_forms(self, name, pres):
        system = knuth_bendix(pres.generators, pres.relators)
        assert system.complete
        assert_count_lists_nothing_else(system)
        assert pres.element_count_up_to(8) == count_normal_forms(system, 8)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.integers(2, 3).flatmap(lambda k: st.tuples(
        st.just("abc"[:k]),
        st.lists(st.lists(st.tuples(st.sampled_from("abc"[:k]), st.sampled_from([POS, NEG])), min_size=1, max_size=3),
                 max_size=3),
    )))
    def test_random_presentations_count_what_they_list(self, presentation):
        generators, relators = tuple(presentation[0]), [tuple(r) for r in presentation[1]]
        system = knuth_bendix(generators, relators)
        if system.complete:
            # every length up to 8, or up to the first past 500 normal forms
            assert_count_lists_nothing_else(system, most=500)

    def test_a_left_hand_side_holding_another_is_counted_by_its_suffixes(self):
        # completion inter-reduces its rules, so this needs a system built by hand: with b -> a^-1, the
        # redundant rule a^-1 b a^-1 -> a^-1 makes a^-1 b a trie state that ends the left-hand side b
        c2 = knuth_bendix(*C2_BY_TWO_GENERATORS)
        a_, b = ("a", NEG), ("b", POS)
        system = GroupRewriting(c2.generators, c2.rules + (((a_, b, a_), (a_,)),), complete=True)
        assert_count_lists_nothing_else(system)
        assert count_normal_forms(system, 8) == 2

    def test_a_relator_letter_outside_the_generators_is_never_read(self):
        # <a | b a>: the trie holds states that only the letter b reaches
        system = knuth_bendix(("a",), [(("b", POS), ("a", POS))])
        assert system.complete
        assert_count_lists_nothing_else(system)

    @pytest.mark.parametrize("n", [-1, -3])
    def test_a_negative_bound_counts_the_empty_word(self, n):
        for name, pres in PRESENTATIONS:
            system = knuth_bendix(pres.generators, pres.relators)
            assert count_normal_forms(system, n) == len(enumerate_elements(system, n)) == 1, name

    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_free_groups_reach_the_closed_form_at_length_40(self, rank):
        system = knuth_bendix(tuple("abcd"[:rank]), [])
        # far past what listing could reach: 2 * 3^40 - 1 words at rank 2
        assert count_normal_forms(system, 40) == 1 + 2 * rank * ((2 * rank - 1) ** 40 - 1) // (2 * rank - 2)


GENERATED_WINDOW_GROUPOIDS = [
    one_object_groupoid(cyclic_group(7)),
    one_object_groupoid(cyclic_group(10)),
    one_object_groupoid(symmetric_group(3)),
    one_object_groupoid(direct_product_group(cyclic_group(2), cyclic_group(4))),
    indiscrete(3),
    product_groupoid(one_object_groupoid(cyclic_group(4)), pair_groupoid(["x", "y"])),
]


@st.composite
def generated_windows(draw):
    """A small groupoid with a drawn window: identities, and drawn arrows closed under inversion."""
    G = draw(st.sampled_from(GENERATED_WINDOW_GROUPOIDS))
    arrows = [a for a in G.arrows if not G.is_identity(a)]
    chosen = draw(st.sets(st.sampled_from(arrows)))
    W = sorted(set(G.id_of.values()) | chosen | {G.inv[a] for a in chosen})
    return local_data(G, W, discrete_topology(W))


def assert_pair_rewriting_equals_the_overlap_scan(D, rng, words=30):
    """Verdict, failures in order, pair rules and normal forms (or the refusal) of both builds."""
    M = monodromy(D)
    R = M.rewriting
    old = reference_pair_rewriting(R.graph, R.inv_gen, R.pair_rules)
    assert list(R.pair_rules.items()) == list(reference_pair_rules(D)[0].items())
    assert (R.confluent, R.critical_failures) == (old.confluent, old.critical_failures)
    if not R.confluent:
        messages = []
        for system in (R, old):
            with pytest.raises(RewritingNotConfluent) as refused:
                system.normal_form(Word(M.presentation.objects[0], ()))
            messages.append(str(refused.value))
        assert messages[0] == messages[1]
        return
    for _ in range(words):
        w = random_word(M.presentation.graph, rng, rng.randint(0, 8))
        assert R.normal_form(w) == old.normal_form(w)


class TestMonodromyRewriting:
    @pytest.mark.parametrize("name,D", WINDOWS + [("c8-pair", two_object_c8_window())],
                             ids=[name for name, _ in WINDOWS] + ["c8-pair"])
    def test_pair_table_join_equals_the_overlap_scan(self, name, D):
        assert_pair_rewriting_equals_the_overlap_scan(D, random.Random(name))

    def test_the_join_is_checked_on_windows_that_fail(self):
        failing = {name: len(monodromy(D).rewriting.critical_failures) for name, D in WINDOWS}
        assert failing["c6-window-2"] == 8 and failing["c8-window-2"] == 4 and failing["c6-window-2.json"] == 8
        assert {"c12-full", "c16-full", "c24-full", "s4-full"} <= set(failing)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(generated_windows())
    def test_generated_windows_join_as_the_overlap_scan(self, D):
        assert_pair_rewriting_equals_the_overlap_scan(D, random.Random(repr(sorted(D.window))), words=10)

    @pytest.mark.parametrize("name,D", MONODROMY, ids=[name for name, _ in MONODROMY])
    def test_confluence_and_failures_equal_the_oracle(self, name, D):
        R = monodromy(D).rewriting
        confluent, failures = reference_check_confluence(R.graph, R.inv_gen, R.pair_rules)
        assert R.confluent == confluent
        assert R.critical_failures == failures

    @pytest.mark.parametrize("build", [lambda: cyclic_window(8, 2), two_object_c8_window], ids=["c8", "c8-pair"])
    def test_nonconfluent_windows_fail_the_oracle_check_the_same_way(self, build):
        R = monodromy(build()).rewriting
        assert not R.confluent and R.critical_failures
        assert (R.confluent, R.critical_failures) == reference_check_confluence(R.graph, R.inv_gen, R.pair_rules)

    @pytest.mark.parametrize("name,D", MONODROMY, ids=[name for name, _ in MONODROMY])
    def test_normal_forms_of_mixed_words_equal_the_oracle(self, name, D):
        M = monodromy(D)
        R = M.rewriting
        if not R.confluent:
            return
        rng = random.Random(name)
        for _ in range(60):
            w = random_word(M.presentation.graph, rng, rng.randint(0, 8))
            assert M.normal_form(w) == reference_exhaust(R.inv_gen, R.pair_rules, w)

    @pytest.mark.parametrize("name,D", MONODROMY, ids=[name for name, _ in MONODROMY])
    def test_overlaps_of_letter_rules_follow_the_all_pairs_loop(self, name, D):
        rules = letter_rules(monodromy(D).rewriting)
        assert list(overlaps(rules)) == reference_overlaps(rules)


class TestMonodromyTables:
    """One pair-rule table read twice, window images as normal forms, arrows named by their words."""

    @pytest.mark.parametrize("name,D", WINDOWS, ids=[name for name, _ in WINDOWS])
    def test_rules_and_relations_equal_the_one_loop_oracle(self, name, D):
        M = monodromy(D)
        rules, relations = reference_pair_rules(D)
        assert list(M.rewriting.pair_rules.items()) == list(rules.items())
        assert M.presentation.relations == relations

    @pytest.mark.parametrize("name,D", WINDOWS, ids=[name for name, _ in WINDOWS])
    def test_window_images_are_normal_forms(self, name, D):
        M = monodromy(D)
        if not M.rewriting.confluent:
            return
        for w, im in M.iprime.items():
            assert im.letters in ((), ((w, POS),))
            assert M.normal_form(im) == im

    @pytest.mark.parametrize("name,D", WINDOWS, ids=[name for name, _ in WINDOWS])
    def test_groupoid_and_embedding_equal_the_keyed_oracle(self, name, D):
        M = monodromy(D)
        if not (M.rewriting.confluent and monodromy_is_finite(M)):
            return
        K, name_of = monodromy_groupoid(M)
        L, keyed = reference_monodromy_groupoid(M)
        assert (K.objects, K.arrows, K.src, K.tgt, K.id_of, K.inv) == (L.objects, L.arrows, L.src, L.tgt, L.id_of, L.inv)
        assert list(K.comp.items()) == list(L.comp.items())
        assert [((w.start, w.letters), a) for w, a in name_of.items()] == list(keyed.items())
        _, embed = monodromy_pair(D)
        assert embed == {w: keyed[(M.iprime[w].start, M.iprime[w].letters)] for w in D.window}


class TestReducer:
    def test_leftmost_then_shorter(self):
        a, b = ("a", POS), ("b", POS)
        reduce = rewriter(LEFTMOST_SHORTER)
        # a b at 0 is leftmost, then b b before b b b: a b b b -> b b b -> a b -> b
        assert reduce((a, b, b, b)) == (b,)
        # the rule-by-rule rescan tries b b b first: a b b b -> a
        assert reference_rewrite((((b,) * 3, ()), ((b, b), (a,)), ((a, b), (b,))), (a, b, b, b)) == (a,)

    def test_rescans_where_a_longer_lhs_may_now_start(self):
        a, b, c, d = (("a", POS), ("b", POS), ("c", POS), ("d", POS))
        # d -> c at 2 completes a b c, which starts two letters further left
        assert rewriter({(a, b, c): (), (d,): (c,)})((a, b, d)) == ()

    def test_free_reduces_first(self):
        reduce = rewriter({(("a", POS),) * 2: ()})
        assert reduce((("a", POS), ("b", POS), ("b", NEG), ("a", POS))) == ()

    def test_reads_the_rules_live(self):
        rules = {(("a", POS),) * 2: ()}
        reduce = rewriter(rules)
        rules[(("b", POS),)] = (("a", POS),)
        assert reduce((("b", POS), ("a", POS))) == ()
        del rules[(("a", POS),) * 2]
        assert reduce((("b", POS), ("a", POS))) == (("a", POS), ("a", POS))

    @pytest.mark.parametrize("build", [
        lambda: knuth_bendix(("r", "s"), [(("r", POS),) * 3, (("s", POS),) * 2]),
        lambda: monodromy(cyclic_window(4, 1)).rewriting,
    ])
    def test_cached_reducer_makes_no_reference_cycle(self, build):
        gc.disable()
        try:
            system = build()
            system.reduce((("s", POS),))
            ref = weakref.ref(system)
            del system
            assert ref() is None
        finally:
            gc.enable()
