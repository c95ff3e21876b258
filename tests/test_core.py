"""Groupoid tables, groups, morphisms, coverings, finite topologies."""

import itertools
import json
import pathlib
import random
from collections import Counter
from operator import itemgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus import monodromy_corpus, small_targets, swap2_groupoid, swap_actions
from groupoidkit import core
from groupoidkit.core import (
    FiniteGroup,
    FiniteGroupoid,
    GroupoidMorphism,
    Violation,
    action_groupoid,
    closure,
    components,
    cyclic_group,
    direct_product_group,
    discontinuities,
    discrete_topology,
    disjoint_union,
    equivalence_groupoid,
    group_by,
    group_isomorphism,
    groupoid_isomorphism,
    indiscrete,
    indiscrete_topology,
    is_continuous,
    is_covering,
    make_groupoid,
    minimal_open,
    one_object_groupoid,
    pair_groupoid,
    product_groupoid,
    symmetric_group,
    topology_from_opens,
    topology_from_subbase,
    trivial_group,
    unique_lifting_holds,
    validate_group,
    validate_groupoid,
    validate_morphism,
    vertex_group,
)
from groupoidkit.errors import (
    CapExceeded,
    EmptyNotAllowed,
    InvalidMorphism,
    NotAGroupoid,
    NotAPartition,
    NotComposable,
    UnknownObject,
    UnknownPoint,
)
from groupoidkit.holonomy import mobius_model
from groupoidkit.io import crossed_module_from_dict, groupoid_from_dict
from groupoidkit.presentations import monodromy, monodromy_groupoid, monodromy_is_finite
from reference_tables import (
    reference_action_groupoid,
    reference_disjoint_union,
    reference_equivalence_groupoid,
    reference_group_isomorphism,
    reference_groupoid_isomorphism,
    reference_indiscrete,
    reference_monodromy_groupoid,
    reference_one_object_groupoid,
    reference_opens,
    reference_product_groupoid,
    reference_topology_from_opens,
    reference_topology_from_subbase,
    reference_validate_group,
    reference_validate_groupoid,
)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def swap_action_2pts():
    c2 = cyclic_group(2)
    act = {(0, "p"): "p", (0, "q"): "q", (1, "p"): "q", (1, "q"): "p"}
    return action_groupoid(c2, ["p", "q"], act)


def c2_collapse_morphism():
    """The 2-fold cover: C2 acting on 2 points over the one-object C2."""
    G = swap_action_2pts()
    H = one_object_groupoid(cyclic_group(2))
    obj_map = {"p": "o", "q": "o"}
    arr_map = {}
    for a in G.arrows:
        arr_map[a] = "id:o" if a.startswith("id:") else "g:1"
    return GroupoidMorphism(G, H, obj_map, arr_map)


class TestGroups:
    def test_cyclic_and_symmetric_pass_axioms(self):
        for K in (trivial_group(), cyclic_group(4), symmetric_group(3)):
            assert validate_group(K).ok

    def test_symmetric_mul_is_left_to_right(self):
        s3 = symmetric_group(3)
        a, b = (1, 0, 2), (0, 2, 1)
        # (a then b)(0) = b(a(0)) = b(1) = 2
        assert s3.mul[(a, b)][0] == 2

    def test_group_isomorphism_found_and_refused(self):
        assert group_isomorphism(cyclic_group(4), cyclic_group(4)) is not None
        assert group_isomorphism(cyclic_group(4), direct_product_group(cyclic_group(2), cyclic_group(2))) is None
        s3 = symmetric_group(3)
        iso = group_isomorphism(s3, s3)
        assert iso is not None
        for a in s3.elements:
            for b in s3.elements:
                assert iso[s3.mul[(a, b)]] == s3.mul[(iso[a], iso[b])]


class TestValidation:
    def test_indiscrete_is_valid(self):
        assert validate_groupoid(indiscrete(2)).ok

    def test_broken_inverse_is_reported_at_the_witness(self):
        G = indiscrete(2)
        inv = dict(G.inv)
        inv["a:0->1"] = "a:0->1"  # force a violation of the inverse law
        broken = FiniteGroupoid(G.objects, G.arrows, G.src, G.tgt, G.id_of, inv, G.comp)
        rep = validate_groupoid(broken)
        assert not rep.ok
        assert any("inverse" in v.rule for v in rep.violations)
        assert any("a:0->1" in v.witness for v in rep.violations)

    @pytest.mark.parametrize("identity, rule", [("nope", "identity-exists"), ("a:0->1", "identity-endpoints")])
    def test_bad_identity_is_reported_not_raised(self, identity, rule):
        G = indiscrete(2)
        broken = FiniteGroupoid(G.objects, G.arrows, G.src, G.tgt, {**G.id_of, "1": identity}, G.inv, G.comp)
        rep = validate_groupoid(broken)
        assert [v.rule for v in rep.violations] == [rule]
        assert "1" in rep.violations[0].witness
        assert rep.violations == tuple(reference_validate(broken))

    def test_composite_with_wrong_endpoints_is_reported_at_the_witness(self):
        G = indiscrete(2)
        comp = {**G.comp, ("a:1->0", "a:0->1"): "id:1"}  # a loop at 0 given the loop at 1
        broken = FiniteGroupoid(G.objects, G.arrows, G.src, G.tgt, G.id_of, G.inv, comp)
        rep = validate_groupoid(broken)
        assert [(v.rule, v.witness) for v in rep.violations] == [
            ("composition-endpoints", ("a:1->0", "a:0->1", "id:1"))]
        assert rep.violations == tuple(reference_validate(broken))

    def test_action_groupoid_valid_exhaustively(self):
        assert validate_groupoid(swap_action_2pts()).ok

    def test_other_constructions_valid(self):
        assert validate_groupoid(one_object_groupoid(symmetric_group(3))).ok
        assert validate_groupoid(pair_groupoid(["a", "b", "c"])).ok
        assert validate_groupoid(equivalence_groupoid("abcd", [["a", "b"], ["c", "d"]])).ok
        assert validate_groupoid(disjoint_union(indiscrete(2), indiscrete(2))).ok


class TestCompose:
    def test_identity_law(self):
        G = indiscrete(2)
        assert G.compose("id:1", "a:0->1") == "a:0->1"

    def test_inverse_law(self):
        G = indiscrete(2)
        assert G.compose(G.inv["a:0->1"], "a:0->1") == "id:0"

    def test_swap_arrows_compose_to_identity(self):
        G = swap_action_2pts()
        swap_p = next(a for a in G.arrows if not a.startswith("id:") and G.src[a] == "p")
        swap_q = next(a for a in G.arrows if not a.startswith("id:") and G.src[a] == "q")
        assert G.compose(swap_q, swap_p) == "id:p"

    def test_non_composable_raises(self):
        G = indiscrete(2)
        with pytest.raises(NotComposable):
            G.compose("a:0->1", "a:0->1")


class TestVertexGroup:
    def test_indiscrete_vertex_groups_trivial(self):
        assert vertex_group(indiscrete(2), "0").order == 1

    def test_one_object_s3_vertex_group_is_s3(self):
        s3 = symmetric_group(3)
        V = vertex_group(one_object_groupoid(s3), "o")
        assert validate_group(V).ok
        assert group_isomorphism(V, s3) is not None

    def test_free_action_has_trivial_stabilisers(self):
        assert vertex_group(swap_action_2pts(), "p").order == 1

    def test_unknown_object(self):
        with pytest.raises(UnknownObject):
            vertex_group(indiscrete(2), "missing")

    def test_vertex_groups_conjugate_along_components(self):
        # explicit conjugation isomorphism through a connecting arrow, on a
        # connected groupoid with nontrivial vertex groups
        cases = [
            equivalence_groupoid(["x", "y"], [["x", "y"]]),
            product_groupoid(pair_groupoid(["x", "y"]), one_object_groupoid(cyclic_group(3))),
            product_groupoid(pair_groupoid(["x", "y"]), one_object_groupoid(symmetric_group(3))),
        ]
        for K in cases:
            assert validate_groupoid(K).ok
            for block in components(K):
                xs = sorted(block)
                x, y = xs[0], xs[-1]
                t = K.hom(x, y)[0]
                vx, vy = vertex_group(K, x), vertex_group(K, y)
                phi = {l: K.comp[(t, K.comp[(l, K.inv[t])])] for l in vx.elements}
                assert sorted(map(repr, phi.values())) == sorted(map(repr, vy.elements))
                for a in vx.elements:
                    for b in vx.elements:
                        assert phi[vx.mul[(a, b)]] == vy.mul[(phi[a], phi[b])]
                assert group_isomorphism(vx, vy) is not None


class TestComponents:
    def test_indiscrete_one_block(self):
        assert components(indiscrete(2)) == (frozenset({"0", "1"}),)

    def test_disjoint_union_two_blocks(self):
        assert len(components(disjoint_union(indiscrete(2), indiscrete(2)))) == 2

    def test_swap_action_orbit_is_one_block(self):
        assert components(swap_action_2pts()) == (frozenset({"p", "q"}),)


class TestCovering:
    def test_identity_morphism_is_covering(self):
        G = indiscrete(2)
        p = GroupoidMorphism(G, G, {x: x for x in G.objects}, {a: a for a in G.arrows})
        assert is_covering(p)

    def test_collapse_to_point_is_not_covering(self):
        G = indiscrete(2)
        H = indiscrete(1)
        p = GroupoidMorphism(G, H, {x: "0" for x in G.objects}, {a: "id:0" for a in G.arrows})
        assert not is_covering(p)

    @pytest.mark.parametrize("source, target, obj_map, arr_map, violations", [
        (indiscrete(1), indiscrete(2), {}, {"id:0": "id:0"}, [("object-map", ("0",))]),
        (indiscrete(1), indiscrete(2), {"0": "0"}, {"id:0": "nope"}, [("arrow-map", ("id:0",))]),
        (indiscrete(1), indiscrete(2), {"0": "0"}, {"id:0": "id:1"},
         [("endpoint-preservation", ("id:0",)), ("identity-preservation", ("0",))]),
        (indiscrete(1), one_object_groupoid(cyclic_group(2)), {"0": "o"}, {"id:0": "g:1"},
         [("identity-preservation", ("0",)), ("composition-preservation", ("id:0", "id:0"))]),
        (one_object_groupoid(cyclic_group(2)), one_object_groupoid(cyclic_group(3)), {"o": "o"},
         {"id:o": "id:o", "g:1": "g:1"}, [("composition-preservation", ("g:1", "g:1"))]),
    ], ids=["object-map", "arrow-map", "endpoint-preservation", "identity-preservation", "composition-preservation"])
    def test_a_broken_morphism_is_reported_at_the_witness(self, source, target, obj_map, arr_map, violations):
        p = GroupoidMorphism(source, target, obj_map, arr_map)
        rep = validate_morphism(p)
        assert [(v.rule, v.witness) for v in rep.violations] == violations
        with pytest.raises(InvalidMorphism) as info:
            is_covering(p)
        assert str(info.value) == str(rep)

    def test_two_fold_cover_of_c2(self):
        p = c2_collapse_morphism()
        assert is_covering(p)
        assert unique_lifting_holds(p)


class TestIndiscrete:
    def test_one_object(self):
        G = indiscrete(1)
        assert len(G.arrows) == 1 and len(G.objects) == 1

    def test_two_objects_four_arrows(self):
        G = indiscrete(2)
        assert len(G.arrows) == 4

    def test_three_objects_nine_arrows_trivial_vertex_groups(self):
        G = indiscrete(3)
        assert len(G.arrows) == 9
        assert all(vertex_group(G, x).order == 1 for x in G.objects)

    def test_zero_rejected(self):
        with pytest.raises(EmptyNotAllowed):
            indiscrete(0)


class TestTopology:
    def test_discrete_minimal_opens(self):
        T = discrete_topology(["a", "b"])
        assert minimal_open(T, "a") == frozenset({"a"})

    def test_indiscrete_minimal_opens(self):
        T = indiscrete_topology(["a", "b"])
        assert minimal_open(T, "a") == frozenset({"a", "b"})

    def test_sierpinski(self):
        T = topology_from_opens(["a", "b"], [[], ["a"], ["a", "b"]])
        assert minimal_open(T, "b") == frozenset({"a", "b"})
        assert minimal_open(T, "a") == frozenset({"a"})

    def test_unknown_point(self):
        T = discrete_topology(["a"])
        with pytest.raises(UnknownPoint):
            minimal_open(T, "zz")

    def test_set_with_an_outside_point_is_not_open(self):
        T = topology_from_opens(["a", "b"], [[], ["a"], ["a", "b"]])
        assert T.is_open({"a"}) and T.is_open([]) and T.is_open(("a", "b"))
        assert not T.is_open({"b"})
        assert not T.is_open({"zz"}) and not T.is_open({"a", "zz"}) and not T.is_open({"a", "b", "zz"})

    def test_closure_violation_rejected(self):
        with pytest.raises(UnknownPoint):
            topology_from_opens(["a", "b", "c"], [[], ["a"], ["b"], ["a", "b", "c"]])

    def test_minimal_open_contained_in_every_open(self):
        T = topology_from_opens(["a", "b", "c"], [[], ["a"], ["a", "b"], ["a", "c"], ["a", "b", "c"]])
        for U in T.opens():
            for x in U:
                assert minimal_open(T, x) <= U

    def test_opens_roundtrip(self):
        fam = [[], ["a"], ["a", "b"]]
        T = topology_from_opens(["a", "b"], fam)
        assert sorted(map(sorted, T.opens())) == sorted(map(sorted, map(set, fam)))

    def test_from_opens_matches_reference(self):
        # every family of subsets of {a, b, c} plus one with an outside point:
        # 256 families, 29 of them topologies
        points = ["a", "b", "c"]
        subsets = [frozenset(c) for r in range(4) for c in itertools.combinations(points, r)]
        families = [fam for r in range(len(subsets) + 1) for fam in itertools.combinations(subsets, r)]
        families.append((frozenset(), frozenset(points), frozenset({"a", "z"})))

        def outcome(build, fam):
            try:
                T = build(points, fam)
            except UnknownPoint as exc:
                return str(exc)
            return T.points, list(T.min_open.items())

        got = [outcome(topology_from_opens, fam) for fam in families]
        assert got == [outcome(reference_topology_from_opens, fam) for fam in families]
        assert sum(not isinstance(o, str) for o in got) == 29

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(0, 7), unique=True, max_size=7),
        st.lists(st.frozensets(st.integers(0, 10), max_size=6), max_size=8),
        st.data(),
    )
    def test_subbase_fold_matches_all_sets_loop(self, points, sets, data):
        # empty sets, repeated sets and members outside `points` all occur
        sets = sets + data.draw(st.lists(st.sampled_from(sets), max_size=3)) if sets else sets
        for family in (sets, set(sets)):
            got = topology_from_subbase(points, family)
            want = reference_topology_from_subbase(points, family)
            assert got.points == want.points
            assert list(got.min_open.items()) == list(want.min_open.items())

    def test_continuity_criterion(self):
        S = topology_from_opens(["a", "b"], [[], ["a"], ["a", "b"]])
        D = discrete_topology(["a", "b"])
        ident = {"a": "a", "b": "b"}
        assert is_continuous(ident, D, S)
        assert not is_continuous(ident, S, D)

    def test_discontinuities_in_the_order_given(self):
        # minimal opens {a} < {a, b} < {a, b, c}: the reflection a <-> c breaks continuity at b and c
        T = topology_from_opens(["a", "b", "c"], [[], ["a"], ["a", "b"], ["a", "b", "c"]])
        flip = {"a": "c", "b": "b", "c": "a"}
        assert list(discontinuities(flip, ["c", "b", "a"], T.min_open, T.min_open)) == ["c", "b"]
        assert list(discontinuities(flip, ["a", "b", "c"], T.min_open, T.min_open)) == ["b", "c"]
        ident = {x: x for x in T.points}
        assert list(discontinuities(ident, T.points, T.min_open, T.min_open)) == []
        assert not is_continuous(flip, T, T) and is_continuous(ident, T, T)


class TestGroupoidIso:
    def test_iso_to_itself(self):
        G = swap_action_2pts()
        assert groupoid_isomorphism(G, G) is not None

    def test_non_iso(self):
        assert groupoid_isomorphism(indiscrete(2), one_object_groupoid(cyclic_group(4))) is None

    def test_iso_respects_composition(self):
        G = indiscrete(2)
        out = groupoid_isomorphism(G, G)
        assert out is not None
        obj_map, arr_map = out
        for (h, g) in G.composable_pairs():
            assert arr_map[G.comp[(h, g)]] == G.comp[(arr_map[h], arr_map[g])]


def iso_groups():
    """C1-C8, C12, the abelian groups of orders 4, 8 and 9 with two or more factors, C6 x C2, S3, S3 x C2 and S4.

    C2 x C3, C4 x C2 and C3 x C4 are isomorphic to other members by maps that are not the identity.
    """
    C, x = cyclic_group, direct_product_group
    out = [(f"C{n}", C(n)) for n in (*range(1, 9), 12)]
    out += [("C2xC2", x(C(2), C(2))), ("C2xC4", x(C(2), C(4))), ("C2^3", x(x(C(2), C(2)), C(2))),
            ("C3xC3", x(C(3), C(3))), ("C6xC2", x(C(6), C(2))), ("S3", symmetric_group(3)),
            ("S3xC2", x(symmetric_group(3), C(2))), ("S4", symmetric_group(4))]
    out += [("C2xC3", x(C(2), C(3))), ("C4xC2", x(C(4), C(2))), ("C3xC4", x(C(3), C(4)))]
    return out


def assert_same_tables(G, H, unordered=()):
    """G and H have the same objects, arrows and tables, each table in one insertion order unless named in unordered."""
    assert (G.objects, G.arrows) == (H.objects, H.arrows)
    for table in ("src", "tgt", "id_of", "inv", "comp"):
        mine, theirs = getattr(G, table), getattr(H, table)
        assert mine == theirs, table
        if table not in unordered:
            assert list(mine) == list(theirs), table


def constructor_cases():
    """(id, build): build() gives a constructor's groupoid, its oracle's, and the tables whose insertion order changed.

    disjoint_union's comp follows `composable`, the oracle's each part's own comp.
    """
    C, one = cyclic_group, one_object_groupoid
    cases = [(f"I{n}", lambda n=n: (indiscrete(n), reference_indiscrete(n), ())) for n in range(1, 7)]
    cases += [(f"one-{name}", lambda K=K: (one(K), reference_one_object_groupoid(K), ())) for name, K in iso_groups()]
    s3 = symmetric_group(3)
    actions = swap_actions() + [
        ("C4-on-2", C(4), ["p", "q"], {(k, x): x if k % 2 == 0 else "pq"[x == "p"] for k in range(4) for x in "pq"}),
        ("C2-fixing-2", C(2), ["p", "q"], {(k, x): x for k in range(2) for x in "pq"}),
        ("S3-on-3", s3, [0, 1, 2], {(p, i): p[i] for p in s3.elements for i in range(3)}),
    ]
    cases += [(f"action-{name}", lambda a=(K, points, act): (action_groupoid(*a), reference_action_groupoid(*a), ()))
              for name, K, points, act in actions]
    partitions = [("abcd", [["a", "b"], ["c", "d"]]), ("abcd", [["a", "b", "c"], ["d"]]), ("abcd", [["a", "b", "c", "d"]]),
                  ("abcd", [["d"], ["c", "a"], ["b"]]), ("xyz", [["x"], ["y"], ["z"]]), ("ab", [["b", "a", "b"]])]
    cases += [(f"blocks-{i}", lambda pb=pb: (equivalence_groupoid(*pb), reference_equivalence_groupoid(*pb), ()))
              for i, pb in enumerate(partitions)]
    parts = [("I1", indiscrete(1)), ("I2", indiscrete(2)), ("C2", one(C(2))), ("C3", one(C(3))),
             ("swap2", swap2_groupoid()), ("blocks", equivalence_groupoid("abc", [["a", "b"], ["c"]]))]
    for (na, A), (nb, B) in itertools.product(parts, repeat=2):
        cases.append((f"{na}x{nb}", lambda A=A, B=B: (product_groupoid(A, B), reference_product_groupoid(A, B), ())))
        cases.append((f"{na}+{nb}", lambda A=A, B=B: (disjoint_union(A, B), reference_disjoint_union(A, B), ("comp",))))
    return cases


CONSTRUCTOR_CASES = constructor_cases()


class TestStandardBuilders:
    """The standard constructions, built from cells, against the table loops they replaced."""

    @pytest.mark.parametrize("build", [b for _, b in CONSTRUCTOR_CASES], ids=[i for i, _ in CONSTRUCTOR_CASES])
    def test_constructor_matches_its_oracle(self, build):
        G, H, unordered = build()
        assert_same_tables(G, H, unordered)
        assert validate_groupoid(G).ok

    def test_monodromy_groupoid_matches_its_oracle(self):
        """On the finite instances of the corpus; src, tgt and inv now follow the arrow order."""
        finite = 0
        for name, D in monodromy_corpus():
            M = monodromy(D)
            if M.rewriting.confluent and monodromy_is_finite(M):
                (G, name_of), (H, keyed) = monodromy_groupoid(M), reference_monodromy_groupoid(M)
                assert_same_tables(G, H, ("src", "tgt", "inv"))
                assert [((w.start, w.letters), a) for w, a in name_of.items()] == list(keyed.items()), name
                finite += 1
        assert finite == 17

    def test_indiscrete_refuses_no_objects(self):
        for build in (indiscrete, reference_indiscrete):
            with pytest.raises(EmptyNotAllowed, match="n >= 1"):
                build(0)

    def test_two_arrows_with_one_name_are_refused(self):
        H = indiscrete(2)
        assert disjoint_union(H, H, tags=("A", "B")).arrows[:2] == ("A.a:0->1", "A.a:1->0")
        with pytest.raises(NotAGroupoid, match="two arrows are named 'A.a:0->1'"):
            disjoint_union(H, H, tags=("A", "A"))

    @pytest.mark.parametrize("points, blocks, message", [
        ("abc", [["a", "b"]], "point 'c' is in 0 blocks"),
        ("ab", [["a", "b", "z"]], "'z' is not a point"),
        ("abc", [["a", "b"], ["b", "c"]], "point 'b' is in 2 blocks"),
    ], ids=["point-in-no-block", "member-not-a-point", "point-in-two-blocks"])
    def test_blocks_that_do_not_partition_are_refused(self, points, blocks, message):
        with pytest.raises(NotAPartition, match=message):
            equivalence_groupoid(points, blocks)

    def test_pair_groupoid_lists_its_points_once(self):
        assert_same_tables(pair_groupoid(iter("ab")), pair_groupoid("ab"))

    @pytest.mark.parametrize("act, message", [
        ({(0, "p"): "p"}, "act has no value at (1, 'p')"),
        ({(0, "p"): "p", (1, "p"): "z"}, "act sends (1, 'p') to 'z', which is not a point"),
    ], ids=["no-value", "image-not-a-point"])
    def test_an_action_off_the_points_is_refused(self, act, message):
        with pytest.raises(UnknownPoint) as refused:
            action_groupoid(cyclic_group(2), ["p"], act)
        assert str(refused.value) == message

    def test_blocks_are_read_in_the_order_given(self):
        G = equivalence_groupoid("ab", [["b", "a", "b"]])
        assert list(G.src) == ["a>b", "id:a", "id:b", "b>a"]
        assert G.arrows == ("a>b", "b>a", "id:a", "id:b")

    def test_make_groupoid_keeps_the_tables_it_is_handed(self):
        G = indiscrete(3)
        tables = [dict(t) for t in (G.src, G.tgt, G.id_of, G.inv, G.comp)]
        H = make_groupoid(reversed(G.objects), reversed(G.arrows), *tables)
        assert all(held is given for held, given in zip((H.src, H.tgt, H.id_of, H.inv, H.comp), tables))
        assert (H.objects, H.arrows) == (G.objects, G.arrows)

    def test_hom_refuses_unknown_objects(self):
        G = indiscrete(2)
        assert G.hom("0", "1") == ("a:0->1",)
        for x, y in (("nope", "0"), ("0", "nope"), ("nope", "nope")):
            with pytest.raises(UnknownObject, match="nope"):
                G.hom(x, y)


def iso_groupoids():
    """Indiscrete, one-object, I_n x C_k, disjoint unions in both orders, action and equivalence groupoids."""
    C, one = cyclic_group, one_object_groupoid
    c2c2 = direct_product_group(C(2), C(2))
    s3 = symmetric_group(3)
    out = [(f"I{n}", indiscrete(n)) for n in (1, 2, 3)]
    out += [(f"C{k}", one(C(k))) for k in (2, 3, 4)] + [("C2xC2", one(c2c2)), ("S3", one(s3))]
    out += [(f"I{n}xC{k}", product_groupoid(indiscrete(n), one(C(k)))) for n in (2, 3) for k in (2, 3)]
    out += [("I2xC4", product_groupoid(indiscrete(2), one(C(4)))),
            ("I2xC2^2", product_groupoid(indiscrete(2), one(c2c2))),
            ("C2+I2", disjoint_union(one(C(2)), indiscrete(2))),
            ("I2+C2", disjoint_union(indiscrete(2), one(C(2)))),
            ("C2+C2", disjoint_union(one(C(2)), one(C(2)))),
            ("I1+I3", disjoint_union(indiscrete(1), indiscrete(3))),
            ("I2+I2", disjoint_union(indiscrete(2), indiscrete(2)))]
    swap = swap_action_2pts()
    mod2 = {(k, x): x if k % 2 == 0 else "pq"[x == "p"] for k in range(4) for x in "pq"}
    trivial = {(k, x): x for k in range(2) for x in "pq"}
    out += [("swap", swap), ("C4-on-2", action_groupoid(C(4), ["p", "q"], mod2)),
            ("C2-fixing-2", action_groupoid(C(2), ["p", "q"], trivial)),
            ("S3-on-3", action_groupoid(s3, [0, 1, 2], {(p, i): p[i] for p in s3.elements for i in range(3)}))]
    out += [("blocks-2-2", equivalence_groupoid("abcd", [["a", "b"], ["c", "d"]])),
            ("blocks-3-1", equivalence_groupoid("abcd", [["a", "b", "c"], ["d"]])),
            ("blocks-4", equivalence_groupoid("abcd", [["a", "b", "c", "d"]]))]
    return out


def iso_topologies():
    """The window and object topologies of the monodromy corpus, and a few small spaces."""
    out = [discrete_topology("abc"), indiscrete_topology("abc"),
           topology_from_opens(["a", "b", "c"], [[], ["a"], ["a", "b"], ["a", "c"], ["a", "b", "c"]])]
    out.append(out[2].product(topology_from_opens(["a", "b"], [[], ["a"], ["a", "b"]])))
    for _, D in monodromy_corpus():
        out += [D.t_window, D.t_objects]
    return out


class TestIsomorphismOracles:
    """Isomorphism verdicts and open sets against the searches they replaced."""

    def test_group_verdicts_match_the_closing_search(self):
        groups = iso_groups()
        for (na, A), (nb, B) in itertools.product(groups, repeat=2):
            iso = group_isomorphism(A, B)
            assert (iso is None) == (reference_group_isomorphism(A, B) is None), (na, nb)
            if iso is not None:
                assert sorted(iso, key=repr) == sorted(A.elements, key=repr)
                assert len(set(iso.values())) == B.order
                assert all(iso[A.mul[(a, b)]] == B.mul[(iso[a], iso[b])] for a in A.elements for b in A.elements)
        # orders 4, 8 and 12 each hold groups with equal orders but no isomorphism
        names = dict(groups)
        assert group_isomorphism(names["C6xC2"], names["C12"]) is None
        assert group_isomorphism(names["C2xC4"], names["C2^3"]) is None
        assert group_isomorphism(names["C4"], names["C2xC2"]) is None
        assert group_isomorphism(names["C2xC3"], names["C6"]) is not None
        assert group_isomorphism(names["C3xC4"], names["C12"]) is not None

    def test_groupoid_verdicts_match_the_hom_set_search(self):
        groupoids = iso_groupoids()
        for (ng, G), (nh, H) in itertools.product(groupoids, repeat=2):
            out = groupoid_isomorphism(G, H)
            assert (out is None) == (reference_groupoid_isomorphism(G, H) is None), (ng, nh)
            if out is not None:
                obj_map, arr_map = out
                assert validate_morphism(GroupoidMorphism(G, H, obj_map, arr_map)).ok, (ng, nh)
                assert sorted(obj_map.values(), key=repr) == sorted(H.objects, key=repr)
                assert sorted(arr_map.values(), key=repr) == sorted(H.arrows, key=repr)
        names = dict(groupoids)
        assert groupoid_isomorphism(names["C2+I2"], names["I2+C2"]) is not None
        assert groupoid_isomorphism(names["I2xC4"], names["I2xC2^2"]) is None
        assert groupoid_isomorphism(names["swap"], names["I2"]) is not None
        assert groupoid_isomorphism(names["C2-fixing-2"], names["C2+C2"]) is not None

    def test_opens_match_the_frontier_loop(self):
        for T in iso_topologies():
            assert T.opens() == reference_opens(T)

    def test_subspace_matches_the_per_point_reference(self):
        # subsets in the space's order, every other point, reversed with repeats, with points outside, empty
        for T in iso_topologies():
            pts = list(T.points)
            for subset in (pts, pts[::2], pts[::-1] + pts[:2], pts[1::3] + ["zz", ("outside",)], []):
                S = T.subspace(iter(subset))
                assert (S.points, list(S.min_open.items())) == reference_subspace(T, subset)
                assert all(type(U) is frozenset for U in S.min_open.values())


def reference_subspace(T, subset):
    """The subspace point by point: the points of T that subset lists, each with its minimal open cut to them."""
    kept = tuple(p for p in T.points if p in subset)
    return kept, [(x, frozenset(y for y in T.min_open[x] if y in kept)) for x in kept]


def reference_composable_pairs(G):
    """Every ordered pair of arrows, kept when tgt g == src h."""
    return [(h, g) for g in G.arrows for h in G.arrows if G.tgt[g] == G.src[h]]


def fixture_groupoids():
    """The groupoid of every fixture that holds one: groupoid files and the
    edge groupoids of crossed modules."""
    out = []
    for path in sorted(FIXTURES.glob("*.json")):
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError:
            continue
        if "comp" in doc:
            out.append(pytest.param(groupoid_from_dict(doc), id=path.stem))
        elif "P" in doc:
            out.append(pytest.param(one_object_groupoid(crossed_module_from_dict(doc).P), id=path.stem))
    return out


@st.composite
def small_groupoids(draw):
    """Disjoint unions of pair groupoids and cyclic groups, arrows in a drawn order."""
    G = draw(st.sampled_from([lambda: pair_groupoid(["a"]), lambda: one_object_groupoid(cyclic_group(3))]))()
    for i in range(draw(st.integers(0, 3))):
        n = draw(st.integers(1, 3))
        part = draw(st.sampled_from([
            pair_groupoid([f"p{j}" for j in range(n)]),
            one_object_groupoid(cyclic_group(n)),
        ]))
        G = disjoint_union(G, part, tags=(f"u{i}", f"v{i}"))
    arrows = tuple(draw(st.permutations(G.arrows)))
    return FiniteGroupoid(G.objects, arrows, G.src, G.tgt, G.id_of, G.inv, G.comp)


class TestComposablePairs:
    """The per-object join against the all-pairs scan."""

    @pytest.mark.parametrize("G", fixture_groupoids())
    def test_fixtures_match_reference(self, G):
        assert list(G.composable_pairs()) == reference_composable_pairs(G)

    @settings(max_examples=60, deadline=None)
    @given(small_groupoids())
    def test_generated_match_reference(self, G):
        assert list(G.composable_pairs()) == reference_composable_pairs(G)


class TestGroupBy:
    """The one group-by against one filter over the items per key."""

    @staticmethod
    def reference(items, key):
        return {k: [a for a in items if key(a) == k] for k in dict.fromkeys(map(key, items))}

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 4), st.integers(0, 9)), max_size=30),
        st.sampled_from([itemgetter(0), itemgetter(1), lambda a: a[1] % 3, lambda a: None, lambda a: a]),
    )
    @example([], itemgetter(0))
    @example([(1, 0), (0, 1), (1, 2), (0, 3), (1, 4)], itemgetter(0))
    def test_matches_reference(self, items, key):
        expected = list(self.reference(items, key).items())  # keys in order of first appearance
        assert list(group_by(items, key).items()) == expected
        assert list(group_by(iter(items), key).items()) == expected  # one pass over the items



class TestClosure:
    """The one closure loop, with fixed products and with a greedy generating set, against a fixpoint."""

    @staticmethod
    def compose(g, t):
        return tuple(g[i] for i in t)

    @classmethod
    def reference(cls, seeds):
        found = set(seeds)
        while True:
            more = {cls.compose(g, t) for g in seeds for t in found} - found
            if not more:
                return found
            found |= more

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(*[st.integers(0, 3)] * 4), max_size=6))
    def test_both_walks_match_the_fixpoint(self, seeds):
        expected = self.reference(seeds)
        generators, walked = [], []

        def adjoin(g, fresh):
            generators.append(g)
            walked.extend(fresh)
            return [self.compose(g, t) for t in walked]

        def greedy(cap=None):
            generators.clear()
            walked.clear()
            return closure(seeds, lambda t: [self.compose(g, t) for g in generators], cap, adjoin)

        def fixed(cap=None):
            return closure(list(dict.fromkeys(seeds)), lambda t: [self.compose(g, t) for g in seeds], cap)

        for walk in (fixed, greedy):
            found = walk()
            assert len(found) == len(set(found)) and set(found) == expected
            assert len(walk(len(expected))) == len(expected)
            if expected:
                with pytest.raises(CapExceeded):
                    walk(len(expected) - 1)
        greedy()
        assert self.reference(generators) == expected

    def test_seeds_count_against_the_cap(self):
        assert closure([1, 2, 3], lambda t: (), 3) == [1, 2, 3]
        with pytest.raises(CapExceeded):
            closure([1, 2, 3], lambda t: (), 2)
        with pytest.raises(CapExceeded):
            closure([1, 2, 3], lambda t: [], 2, lambda g, walked: walked)


def reference_validate(G):
    """The axiom check by all-pairs scans; composable pairs walked in set order."""
    bad = []
    arrows = G.arrows
    aset = set(arrows)
    oset = set(G.objects)
    if len(aset) != len(arrows):
        bad.append(Violation("distinct-arrows", (), "duplicate arrow ids"))
    if len(oset) != len(G.objects):
        bad.append(Violation("distinct-objects", (), "duplicate object ids"))
    for a in arrows:
        if G.src.get(a) not in oset or G.tgt.get(a) not in oset:
            bad.append(Violation("endpoints", (a,), "src/tgt missing or unknown"))
    if bad:
        return bad
    for x in G.objects:
        e = G.id_of.get(x)
        if e not in aset:
            bad.append(Violation("identity-exists", (x,), "no identity arrow"))
            continue
        if G.src[e] != x or G.tgt[e] != x:
            bad.append(Violation("identity-endpoints", (x, e), "identity endpoints differ from its object"))
    for a in arrows:
        ai = G.inv.get(a)
        if ai not in aset:
            bad.append(Violation("inverse-exists", (a,), "no inverse arrow"))
    composable = {(h, g) for g in arrows for h in arrows if G.tgt[g] == G.src[h]}
    for key in G.comp:
        if key not in composable:
            bad.append(Violation("composition-domain", key, "comp defined on a non-composable pair"))
    for (h, g) in composable:
        if (h, g) not in G.comp:
            bad.append(Violation("composition-total", (h, g), "composable pair missing from comp"))
            continue
        hg = G.comp[(h, g)]
        if hg not in aset:
            bad.append(Violation("composition-closure", (h, g), "composite is not an arrow"))
            continue
        if G.src[hg] != G.src[g] or G.tgt[hg] != G.tgt[h]:
            bad.append(Violation("composition-endpoints", (h, g, hg), "composite endpoints wrong"))
    if any(v.rule.startswith(("identity", "composition")) or v.rule == "inverse-exists" for v in bad):
        return bad
    for a in arrows:
        ex, ey = G.id_of[G.src[a]], G.id_of[G.tgt[a]]
        if G.comp[(a, ex)] != a:
            bad.append(Violation("right-identity", (a,), "a∘id != a"))
        if G.comp[(ey, a)] != a:
            bad.append(Violation("left-identity", (a,), "id∘a != a"))
        ai = G.inv[a]
        if G.src[ai] != G.tgt[a] or G.tgt[ai] != G.src[a]:
            bad.append(Violation("inverse-endpoints", (a, ai), "inverse endpoints wrong"))
            continue
        if G.comp[(ai, a)] != G.id_of[G.src[a]]:
            bad.append(Violation("inverse-law", (a,), "inv(a)∘a != id(src a)"))
        if G.comp[(a, ai)] != G.id_of[G.tgt[a]]:
            bad.append(Violation("inverse-law", (a,), "a∘inv(a) != id(tgt a)"))
    for g in arrows:
        for h in arrows:
            if G.tgt[g] != G.src[h]:
                continue
            for k in arrows:
                if G.tgt[h] != G.src[k]:
                    continue
                if G.comp[(k, G.comp[(h, g)])] != G.comp[(G.comp[(k, h)], g)]:
                    bad.append(Violation("associativity", (k, h, g), "associativity fails"))
    return bad


def assert_same_violations(G):
    got = list(validate_groupoid(G).violations)
    want = reference_validate(G)
    assert Counter(got) == Counter(want)
    if not any(v.rule.startswith("composition") for v in want):
        assert got == want
    return got


def swap_composites(G, a, b):
    """G with the composites of comp keys a and b exchanged.  When they have
    the same endpoints, comp stays total and closed and the associativity
    pass runs."""
    comp = dict(G.comp)
    comp[a], comp[b] = comp[b], comp[a]
    return FiniteGroupoid(G.objects, G.arrows, G.src, G.tgt, G.id_of, G.inv, comp)


def same_endpoint_keys(G):
    """The comp keys grouped by the endpoints of their composite, in key order."""
    groups = {}
    for h, g in sorted(G.comp):
        groups.setdefault((G.src[g], G.tgt[h]), []).append((h, g))
    return [keys for _, keys in sorted(groups.items()) if len(keys) > 1]


@st.composite
def mutated_groupoids(draw):
    """A small groupoid with one table entry broken: a comp row dropped, a
    composite pointed at a non-arrow, two inverses swapped, two composites
    with the same endpoints swapped, a comp or inv row with one name
    renamed, an inv row dropped, or a comp row added on two arrows that
    do not compose."""
    G = draw(small_groupoids())
    comp, inv = dict(G.comp), dict(G.inv)
    kind = draw(st.sampled_from(
        ["drop", "non-arrow", "swap-inverse", "swap-composites", "rename-comp", "drop-inv", "rename-inv",
         "non-composable"]))
    if kind == "non-composable":
        apart = [(h, g) for h in G.arrows for g in G.arrows if G.tgt[g] != G.src[h]]
        if apart:
            comp[draw(st.sampled_from(apart))] = draw(st.sampled_from(G.arrows))
    elif kind == "swap-inverse":
        if len(G.arrows) > 1:
            a, b = draw(st.permutations(G.arrows))[:2]
            inv[a], inv[b] = inv[b], inv[a]
    elif kind == "swap-composites":
        groups = same_endpoint_keys(G)
        if groups:
            return swap_composites(G, *draw(st.permutations(draw(st.sampled_from(groups))))[:2])
    elif kind in ("drop-inv", "rename-inv"):
        a = draw(st.sampled_from(sorted(inv)))
        ai = inv.pop(a)
        if kind == "rename-inv":
            if draw(st.booleans()):
                inv[a + "'"] = ai
            else:
                inv[a] = ai + "'"
    else:
        key = draw(st.sampled_from(sorted(comp)))
        if kind == "drop":
            del comp[key]
        elif kind == "non-arrow":
            comp[key] = "nope"
        else:
            slot = draw(st.integers(0, 2))
            h, g, hg = [name + "'" if i == slot else name for i, name in enumerate(key + (comp.pop(key),))]
            comp[(h, g)] = hg
    return FiniteGroupoid(G.objects, G.arrows, G.src, G.tgt, G.id_of, inv, comp)


class TestValidateAgainstReference:
    """The joined axiom check against the all-pairs oracle and against
    `reference_validate_groupoid`, which lists violations in the same order."""

    @pytest.mark.parametrize("G", fixture_groupoids())
    def test_fixtures(self, G):
        assert_same_violations(G)
        assert validate_groupoid(G) == reference_validate_groupoid(G)

    def test_broken_comp_lists_composition_rules_in_pair_order(self):
        G = groupoid_from_dict(json.loads((FIXTURES / "broken-comp.json").read_text()))
        got = assert_same_violations(G)
        assert {v.rule for v in got} == {"composition-total", "composition-closure"}
        order = {pair: i for i, pair in enumerate(G.composable_pairs())}
        assert [order[v.witness] for v in got] == sorted(order[v.witness] for v in got)

    @pytest.mark.parametrize("none_at, dropped_at", [(1, 4), (4, 1)])
    def test_none_composite_is_closure_and_a_missing_pair_is_total(self, none_at, dropped_at):
        # a comp entry whose value is None is present: only an absent key is composition-total
        G = pair_groupoid(["x", "y"])
        pairs = list(G.composable_pairs())
        comp = {**G.comp, pairs[none_at]: None}
        del comp[pairs[dropped_at]]
        H = FiniteGroupoid(G.objects, G.arrows, G.src, G.tgt, G.id_of, G.inv, comp)
        rep = validate_groupoid(H)
        want = sorted([("composition-closure", none_at), ("composition-total", dropped_at)], key=itemgetter(1))
        assert [(v.rule, pairs.index(v.witness)) for v in rep.violations] == want
        assert rep == reference_validate_groupoid(H)

    @settings(max_examples=150, deadline=None)
    @given(mutated_groupoids())
    def test_mutations(self, G):
        # validate_groupoid reports broken tables and never raises on them
        assert_same_violations(G)
        assert validate_groupoid(G) == reference_validate_groupoid(G)


def perturbed_groups():
    """C1-C8, S3, S4 and the Klein group, each whole and damaged once in
    derandomised ways: two products swapped, a wrong inverse, a wrong identity."""
    klein = direct_product_group(cyclic_group(2), cyclic_group(2))
    groups = [(f"C{n}", cyclic_group(n)) for n in range(1, 9)]
    groups += [("S3", symmetric_group(3)), ("S4", symmetric_group(4)), ("Klein", klein)]
    out = []
    for name, K in groups:
        rng = random.Random(name)
        elems, pairs = K.elements, list(K.mul)
        out.append((name, K))
        for i in range(40 if len(pairs) > 1 else 0):
            p, q = rng.sample(pairs, 2)
            out.append((f"{name}-swap{i}", FiniteGroup(elems, {**K.mul, p: K.mul[q], q: K.mul[p]}, K.identity, K.inv)))
        for i in range(10 if len(elems) > 1 else 0):
            a, b = rng.sample(elems, 2)
            out.append((f"{name}-inverse{i}", FiniteGroup(elems, K.mul, K.identity, {**K.inv, a: b})))
        for e in elems[1:6]:
            out.append((f"{name}-identity-{e}", FiniteGroup(elems, K.mul, e, K.inv)))
    return out


class TestValidateGroupAgainstReference:
    """`validate_group` through the column join against the triple loop."""

    def test_perturbed_tables_give_the_same_reports(self):
        cases = perturbed_groups()
        assert len(cases) > 500
        rules = Counter()
        for name, K in cases:
            got = validate_group(K)
            assert got == reference_validate_group(K), name
            rules.update(v.rule for v in got.violations)
        assert {"associativity", "inverse-law", "identity-law"} <= set(rules)

    def test_mul_keys_outside_the_elements_are_reported(self):
        # a key that is not a pair, or a pair with a non-element, is a mul-domain violation and stops the check
        for extra in ["x", ("e", "z"), ("e", "e", "e")]:
            K = FiniteGroup(("e",), {("e", "e"): "e", extra: "e"}, "e", {"e": "e"})
            want = (Violation("mul-domain", extra, "mul defined outside elements × elements"),)
            assert validate_group(K).violations == want
            assert reference_validate_group(K).violations == want
        K = cyclic_group(3)
        broken = FiniteGroup(K.elements, {**K.mul, (0, 7): 0, (0, 0): 9}, K.identity, K.inv)
        assert [v.rule for v in validate_group(broken).violations] == ["mul-domain", "closure"]
        assert validate_group(broken) == reference_validate_group(broken)

    def test_closure_violations_follow_the_mul_domain_ones_in_pair_order(self):
        # missing and outside products in several columns, read in the one walk over the table
        K = cyclic_group(4)
        mul = {**K.mul, (2, 2): "z", (3, 1): 7, (0, "q"): 1}
        del mul[(1, 0)], mul[(0, 2)], mul[(2, 3)]
        broken = FiniteGroup(K.elements, mul, K.identity, K.inv)
        got = validate_group(broken)
        assert [(v.rule, v.witness) for v in got.violations] == [
            ("mul-domain", (0, "q")), ("closure", (0, 2)), ("closure", (1, 0)),
            ("closure", (2, 2)), ("closure", (2, 3)), ("closure", (3, 1))]
        assert got == reference_validate_group(broken)

    @pytest.mark.parametrize("K, key", [
        (FiniteGroup((0, 1, 2), {**cyclic_group(3).mul, (1, 2): None}, 0, cyclic_group(3).inv), (1, 2)),
        (FiniteGroup((None, 1), {(None, None): None, (None, 1): 1, (1, None): 1}, None, {None: None, 1: 1}), (1, 1)),
    ], ids=["product-none", "element-none"])
    def test_none_is_a_value_not_a_missing_product(self, K, key):
        want = (Violation("closure", key, "product missing or outside group"),)
        assert validate_group(K).violations == want
        assert validate_group(K) == reference_validate_group(K)

    def test_duplicate_elements_stop_the_check(self):
        K = cyclic_group(3)
        twice = FiniteGroup(K.elements + (0,), K.mul, K.identity, K.inv)
        assert validate_group(twice).violations == (Violation("distinct-elements", (), "duplicate elements"),)


def corpus_groupoids():
    out = [pytest.param(D.G, id=name) for name, D in monodromy_corpus()]
    out += [pytest.param(G, id=f"target-{name}") for name, G in small_targets()]
    out.append(pytest.param(one_object_groupoid(symmetric_group(5)), id="S5"))
    out.append(pytest.param(mobius_model(16).G, id="mobius16"))
    return out


class TestValidateColumns:
    """The column join for associativity against the triple-by-triple
    reference: equal violation tuples, in the same order."""

    @pytest.mark.parametrize("G", corpus_groupoids())
    def test_corpus(self, G):
        rep = validate_groupoid(G)
        assert rep.ok and rep == reference_validate_groupoid(G)

    @pytest.mark.parametrize("n, picks", [(4, [(0, 1), (2, 5), (7, 11)]), (5, [(3, 60)])], ids=["S4", "S5"])
    def test_swapped_composites(self, n, picks):
        G = one_object_groupoid(symmetric_group(n))
        (keys,) = same_endpoint_keys(G)
        for i, j in picks:
            H = swap_composites(G, keys[i], keys[j])
            rep = validate_groupoid(H)
            assert "associativity" in rep.rules()
            assert rep == reference_validate_groupoid(H)


def columns(G):
    """The col and at that `core.associativity_failures` reads, by arrow number:
    col[a] numbers k∘a for k out of tgt a, at[a] places a in the star of src a."""
    stars = group_by(G.arrows, G.src.__getitem__)
    num = {a: i for i, a in enumerate(G.arrows)}
    col = [tuple(num[G.comp[k, a]] for k in stars[G.tgt[a]]) for a in G.arrows]
    return col, {num[a]: i for star in stars.values() for i, a in enumerate(star)}


def light_verdict(G):
    """Light's test on G's own greedy generating set: True iff it finds no failure."""
    return core._light(G.arrows, G.src, G.tgt, *columns(G))


def generators(G):
    """The greedy generating set that `associativity_failures` checks, as arrows."""
    return [G.arrows[h] for h in core._generators(G.arrows, G.src, G.tgt, *columns(G))]


def light_corpus():
    """The groupoids of tests/corpus.py, S3 and S4, each with the comp keys whose
    composite has another arrow with the same endpoints."""
    out = [(name, D.G) for name, D in monodromy_corpus()] + [(f"target-{name}", G) for name, G in small_targets()]
    out += [("S3", one_object_groupoid(symmetric_group(3))), ("S4", one_object_groupoid(symmetric_group(4)))]
    keyed = []
    for name, G in out:
        hom = group_by(G.arrows, lambda a: (G.src[a], G.tgt[a]))
        keys = [(h, g) for h, g in sorted(G.comp) if len(hom[G.src[g], G.tgt[h]]) > 1]
        if keys:
            keyed.append((name, G, hom, keys))
    return keyed


LIGHT_CORPUS = light_corpus()


def recompose(G, changes):
    """G with comp[key] set to the arrow given for each key."""
    return FiniteGroupoid(G.objects, G.arrows, G.src, G.tgt, G.id_of, G.inv, {**G.comp, **changes})


@st.composite
def damaged_tables(draw):
    """A corpus groupoid with one or two composites replaced by another arrow
    with the same endpoints, so that comp stays total and closed."""
    _, G, hom, keys = draw(st.sampled_from(LIGHT_CORPUS))
    changes = {}
    for h, g in draw(st.lists(st.sampled_from(keys), min_size=1, max_size=2, unique=True)):
        changes[h, g] = draw(st.sampled_from([a for a in hom[G.src[g], G.tgt[h]] if a != G.comp[h, g]]))
    return recompose(G, changes)


LIGHT_GROUPS = [symmetric_group(3), symmetric_group(4), direct_product_group(cyclic_group(2), symmetric_group(3))]


@st.composite
def damaged_groups(draw):
    """S3, S4 or C2×S3 with one or two products replaced by another element."""
    K = draw(st.sampled_from(LIGHT_GROUPS))
    mul = dict(K.mul)
    for key in draw(st.lists(st.sampled_from(sorted(K.mul, key=repr)), min_size=1, max_size=2, unique=True)):
        mul[key] = draw(st.sampled_from([x for x in K.elements if x != K.mul[key]]))
    return FiniteGroup(K.elements, mul, K.identity, K.inv)


class TestLight:
    """Light's test on a greedy generating set, against the triple-by-triple
    oracles: the same reports, and a verdict that fails exactly when some
    triple does."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(damaged_tables())
    def test_damaged_tables(self, G):
        want = reference_validate_groupoid(G)
        assert validate_groupoid(G) == want
        assert light_verdict(G) == ("associativity" not in want.rules())

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(damaged_groups())
    def test_damaged_groups(self, K):
        assert validate_group(K) == reference_validate_group(K)

    def test_every_corpus_table_passes(self):
        for name, G, _, _ in LIGHT_CORPUS:
            assert light_verdict(G), name

    def test_broken_assoc_fixture(self):
        G = groupoid_from_dict(json.loads((FIXTURES / "broken-assoc.json").read_text()))
        rep = validate_groupoid(G)
        assert not light_verdict(G)
        assert rep == reference_validate_groupoid(G)
        assert [v.rule for v in rep.violations] == ["associativity"] * 15

    def test_nonassociative_loop(self):
        # the P of xmod-loop5 is a loop: identities and inverses hold, associativity does not
        P = crossed_module_from_dict(json.loads((FIXTURES / "xmod-loop5.json").read_text())).P
        rep = validate_group(P)
        assert rep.rules() == {"associativity"} and rep == reference_validate_group(P)
        one, comp = dict.fromkeys(P.elements, P.identity), {(b, a): ab for (a, b), ab in P.mul.items()}
        assert not light_verdict(FiniteGroupoid(("o",), P.elements, one, one, {"o": P.identity}, P.inv, comp))

    @pytest.mark.parametrize("n", [3, 4])
    def test_damage_off_the_generators_is_caught_through_them(self, n):
        # only composites h∘g with h outside A change, and A stays the same
        G = one_object_groupoid(symmetric_group(n))
        A = generators(G)
        rng = random.Random(n)
        others = [a for a in G.arrows if a not in A]
        for _ in range(20):
            h, g = rng.choice(others), rng.choice(G.arrows)
            H = recompose(G, {(h, g): rng.choice([a for a in G.arrows if a != G.comp[h, g]])})
            assert generators(H) == A
            rep = validate_groupoid(H)
            assert not light_verdict(H) and "associativity" in rep.rules()
            assert rep == reference_validate_groupoid(H)


def generating_set_corpus():
    out = [pytest.param(G, id=name) for name, G, _, _ in light_corpus()]
    out.append(pytest.param(one_object_groupoid(symmetric_group(5)), id="S5"))
    out.append(pytest.param(mobius_model(16).G, id="mobius16"))
    return out


class TestGenerators:
    """The greedy generating set A that Light's test reads."""

    @staticmethod
    def generated(G, A):
        """The arrows that composites of arrows of A reach, by a search of its own."""
        leaving = group_by(A, G.src.__getitem__)
        found, frontier = set(A), list(A)
        while frontier:
            t = frontier.pop()
            for a in leaving.get(G.tgt[t], ()):
                if G.comp[a, t] not in found:
                    found.add(G.comp[a, t])
                    frontier.append(G.comp[a, t])
        return found

    @pytest.mark.parametrize("G", generating_set_corpus())
    def test_generates_every_arrow_greedily(self, G):
        A = generators(G)
        assert self.generated(G, A) == set(G.arrows)
        # each generator is the first arrow, in arrow order, that the ones before it miss
        order = {a: i for i, a in enumerate(G.arrows)}
        for i, a in enumerate(A):
            before = self.generated(G, A[:i])
            missed = [b for b in G.arrows if b not in before]
            assert missed[0] == a and (i == 0 or order[A[i - 1]] < order[a])

    @pytest.mark.parametrize("G", generating_set_corpus())
    def test_light_pairs_never_exceed_the_join(self, G):
        into = Counter(G.tgt.values())
        light_pairs = sum(into[G.src[a]] for a in generators(G))
        join_pairs = sum(1 for _ in G.composable_pairs())
        assert light_pairs <= join_pairs

    def test_sizes(self):
        # S5 is generated by its four adjacent transpositions; the Möbius band needs many more
        assert len(generators(one_object_groupoid(symmetric_group(5)))) == 4
        G = mobius_model(16).G
        assert len(generators(G)) < len(G.arrows) // 10


def all_pairs(G, product):
    """The all-pairs loop: `product(h, g)` on every ordered pair with tgt g == src h."""
    return {(h, g): product(h, g) for h in G.arrows for g in G.arrows if G.tgt[g] == G.src[h]}


def element_names(K, obj="o"):
    """Arrow id -> element of K, as `one_object_groupoid` names them."""
    return {(f"id:{obj}" if k == K.identity else f"g:{k}"): k for k in K.elements}


class TestConstructorTables:
    """Each constructor's comp against the all-pairs loop over its arrows."""

    @pytest.mark.parametrize("K", [trivial_group(), cyclic_group(4), symmetric_group(3)], ids=["1", "C4", "S3"])
    def test_one_object(self, K):
        G = one_object_groupoid(K)
        elem = element_names(K)
        name = {k: a for a, k in elem.items()}
        assert G.comp == all_pairs(G, lambda h, g: name[K.mul[(elem[g], elem[h])]])

    def test_action(self):
        K = symmetric_group(3)
        points = [0, 1, 2]
        act = {(p, x): p[x] for p in K.elements for x in points}
        G = action_groupoid(K, points, act)

        def name(k, x):
            return f"id:{x}" if k == K.identity else f"g:{k}@{x}"

        data = {name(k, x): (k, x) for k in K.elements for x in points}
        assert G.comp == all_pairs(G, lambda a, b: name(K.mul[(data[b][0], data[a][0])], data[b][1]))

    @pytest.mark.parametrize("blocks", [[["a", "b", "c"]], [["a", "b"], ["c", "d"], ["e"]]])
    def test_equivalence(self, blocks):
        G = equivalence_groupoid([x for b in blocks for x in b], blocks)
        assert G.comp == all_pairs(G, lambda a, b: G.id_of[G.src[b]] if G.src[b] == G.tgt[a]
                                   else f"{G.src[b]}>{G.tgt[a]}")

    def test_product(self):
        G, H = pair_groupoid(["x", "y"]), one_object_groupoid(cyclic_group(3))
        P = product_groupoid(G, H)

        def name(a, b):
            if a == G.id_of[G.src[a]] and b == H.id_of[H.src[b]]:
                return f"id:{G.src[a]}|{H.src[b]}"
            return f"{a}|{b}"

        parts = {name(a, b): (a, b) for a in G.arrows for b in H.arrows}
        assert P.comp == all_pairs(P, lambda n1, n2: name(
            G.comp[(parts[n1][0], parts[n2][0])], H.comp[(parts[n1][1], parts[n2][1])]))
