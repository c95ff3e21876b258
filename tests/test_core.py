"""Groupoid tables, groups, morphisms, coverings, finite topologies."""

import json
import pathlib
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoidkit.core import (
    FiniteGroupoid,
    GroupoidMorphism,
    Violation,
    action_groupoid,
    components,
    compose,
    cyclic_group,
    direct_product_group,
    discrete_topology,
    disjoint_union,
    equivalence_groupoid,
    group_isomorphism,
    groupoid_isomorphism,
    indiscrete,
    indiscrete_topology,
    is_continuous,
    is_covering,
    minimal_open,
    one_object_groupoid,
    pair_groupoid,
    product_groupoid,
    symmetric_group,
    topology_from_opens,
    trivial_group,
    unique_lifting_holds,
    validate_group,
    validate_groupoid,
    vertex_group,
)
from groupoidkit.errors import EmptyNotAllowed, NotComposable, UnknownObject, UnknownPoint
from groupoidkit.io import crossed_module_from_dict, groupoid_from_dict

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
        assert compose(G, "id:1", "a:0->1") == "a:0->1"

    def test_inverse_law(self):
        G = indiscrete(2)
        assert compose(G, G.inv["a:0->1"], "a:0->1") == "id:0"

    def test_swap_arrows_compose_to_identity(self):
        G = swap_action_2pts()
        swap_p = next(a for a in G.arrows if not a.startswith("id:") and G.src[a] == "p")
        swap_q = next(a for a in G.arrows if not a.startswith("id:") and G.src[a] == "q")
        assert compose(G, swap_q, swap_p) == "id:p"

    def test_non_composable_raises(self):
        G = indiscrete(2)
        with pytest.raises(NotComposable):
            compose(G, "a:0->1", "a:0->1")


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

    def test_continuity_criterion(self):
        S = topology_from_opens(["a", "b"], [[], ["a"], ["a", "b"]])
        D = discrete_topology(["a", "b"])
        ident = {"a": "a", "b": "b"}
        assert is_continuous(ident, D, S)
        assert not is_continuous(ident, S, D)


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
    if any(v.rule.startswith("composition") or v.rule == "inverse-exists" for v in bad):
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


@st.composite
def mutated_groupoids(draw):
    """A small groupoid with one table entry broken: a comp row dropped, a
    composite pointed at a non-arrow, or two inverses swapped."""
    G = draw(small_groupoids())
    comp, inv = dict(G.comp), dict(G.inv)
    kind = draw(st.sampled_from(["drop", "non-arrow", "swap-inverse"]))
    if kind == "swap-inverse":
        if len(G.arrows) > 1:
            a, b = draw(st.permutations(G.arrows))[:2]
            inv[a], inv[b] = inv[b], inv[a]
    else:
        key = draw(st.sampled_from(sorted(comp)))
        if kind == "drop":
            del comp[key]
        else:
            comp[key] = "nope"
    return FiniteGroupoid(G.objects, G.arrows, G.src, G.tgt, G.id_of, inv, comp)


class TestValidateAgainstReference:
    """The joined axiom check against the all-pairs oracle."""

    @pytest.mark.parametrize("G", fixture_groupoids())
    def test_fixtures(self, G):
        assert_same_violations(G)

    def test_broken_comp_lists_composition_rules_in_pair_order(self):
        G = groupoid_from_dict(json.loads((FIXTURES / "broken-comp.json").read_text()))
        got = assert_same_violations(G)
        assert {v.rule for v in got} == {"composition-total", "composition-closure"}
        order = {pair: i for i, pair in enumerate(G.composable_pairs())}
        assert [order[v.witness] for v in got] == sorted(order[v.witness] for v in got)

    @settings(max_examples=80, deadline=None)
    @given(mutated_groupoids())
    def test_mutations(self, G):
        assert_same_violations(G)


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
