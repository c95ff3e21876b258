"""Germ groupoids, J0, holonomy quotients, charts, and the band models."""

import pytest

import holonomy_oracle as oracle
from corpus import (
    cyclic_window,
    full_window,
    identity_window,
    sierpinski_pair_data,
    swap3_groupoid,
)
from groupoidkit.bisections import (
    check_extendible,
    compose_bisections,
    generate_semigroup,
    identity_bisection,
    is_window_bisection,
    make_bisection,
    w_bisections,
)
from groupoidkit.core import (
    cyclic_group,
    groupoid_isomorphism,
    one_object_groupoid,
    validate_groupoid,
)
from groupoidkit.errors import (
    NotFiniteOnInstance,
    OutOfDomain,
    TooSmall,
)
from groupoidkit.germs import germ, germ_target
from groupoidkit.holonomy import (
    annulus_model,
    chart,
    germ_groupoid,
    holonomy_groupoid,
    holonomy_pipeline,
    holonomy_topology,
    j0,
    mobius_model,
    monodromy_pair,
    projection_continuous,
)


def swap3_data():
    return full_window(swap3_groupoid())


class TestGerm:
    def test_discrete_germ_is_the_point_value(self):
        D = swap3_data()
        s = identity_bisection(D.G, D.G.objects)
        g = germ(D, s, "1")
        assert g.values == (("1", "id:1"),)

    def test_agreement_on_minimal_open_means_equal_germs(self):
        D = sierpinski_pair_data()
        s = identity_bisection(D.G, D.G.objects)
        t = make_bisection({"a": D.G.id_of["a"]})
        assert germ(D, s, "a") == germ(D, t, "a")

    def test_closed_point_germ_records_both_points(self):
        D = sierpinski_pair_data()
        s = identity_bisection(D.G, D.G.objects)
        g = germ(D, s, "b")
        assert dict(g.values) == {"a": "id:a", "b": "id:b"}

    def test_out_of_domain(self):
        D = sierpinski_pair_data()
        t = make_bisection({"a": D.G.id_of["a"]})
        with pytest.raises(OutOfDomain):
            germ(D, t, "b")


class TestGermGroupoid:
    def test_identity_window_gives_discrete_groupoid(self):
        D = identity_window(swap3_groupoid())
        J = germ_groupoid(D)
        assert J.validate().ok
        assert len(J.groupoid.arrows) == len(J.groupoid.objects)

    def test_swap3_full_window_recovers_g(self):
        D = swap3_data()
        J = germ_groupoid(D)
        assert J.validate().ok
        assert groupoid_isomorphism(J.groupoid, D.G) is not None

    def test_semigroup_route_agrees_with_germ_route(self):
        for D in (swap3_data(), cyclic_window(4, 1), sierpinski_pair_data()):
            S = generate_semigroup(D.G, w_bisections(D))
            direct = germ_groupoid(D)
            via_semigroup = oracle.semigroup_germ_groupoid(D, S)
            assert direct.arrow_of_germ == via_semigroup.arrow_of_germ
            assert list(direct.groupoid.comp.items()) == list(via_semigroup.groupoid.comp.items())

    def test_composition_well_defined_on_germ_classes(self):
        # germs of distinct bisections that agree on minimal opens compose equal
        D = sierpinski_pair_data()
        S = generate_semigroup(D.G, w_bisections(D))
        by_germ = {}
        for s in S.elements:
            for x in s.domain:
                by_germ.setdefault(germ(D, s, x), []).append((s, x))
        for g1, reps1 in by_germ.items():
            for g2, reps2 in by_germ.items():
                if germ_target(D, g2) != g1.base:
                    continue
                expected = compose_bisections(D.G, g1, g2)
                for (s, _) in reps1:
                    for (t, x) in reps2:
                        st = compose_bisections(D.G, s, t)
                        assert germ(D, st, x) == expected


class TestIteratedProcedures:
    def test_mobius_closure_contains_a_nonlocal_iterate(self):
        # the germ closure strictly exceeds the window germs, and some
        # iterate takes a value outside the window
        from groupoidkit.germs import germ_closure

        D = mobius_model(3)
        gens, closure = germ_closure(D)
        assert len(closure) > len(gens)
        nonlocal_germs = [g for g in closure if not is_window_bisection(D, g)]
        assert nonlocal_germs
        assert any(set(g.as_dict().values()) - D.window for g in nonlocal_germs)


class TestJ0:
    def test_identity_germs_always_inside(self):
        D = swap3_data()
        J = germ_groupoid(D)
        N = j0(J)
        assert N.wide
        for x in D.G.objects:
            assert J.groupoid.id_of[x] in N.arrows

    def test_value_normalisation_excludes_nonidentity_loops(self):
        D = swap3_data()
        J = germ_groupoid(D)
        N = j0(J)
        fix3 = next(
            a
            for a in J.groupoid.arrows
            if J.germ_of_arrow[a].base == "3" and J.germ_of_arrow[a].value == "g:1@3"
        )
        assert fix3 not in N.arrows
        literal = j0(J, value_normalised=False)
        assert fix3 in literal.arrows

    def test_mobius_once_around_is_not_local(self):
        D = mobius_model(3)
        J = germ_groupoid(D)
        N = j0(J)
        assert N.ok
        loops_c0 = [
            a
            for a in J.groupoid.arrows
            if J.groupoid.src[a] == "c0" and J.groupoid.tgt[a] == "c0"
        ]
        assert len(loops_c0) == 2
        nonlocal_loops = [a for a in loops_c0 if a not in N.arrows]
        assert len(nonlocal_loops) == 1
        g = J.germ_of_arrow[nonlocal_loops[0]]
        assert g.value == "id:c0"  # identity value, yet not window-local

    def test_normality_exhaustive_on_corpus(self):
        for D in (swap3_data(), cyclic_window(4, 1), mobius_model(3), annulus_model(3)):
            J = germ_groupoid(D)
            N = j0(J)
            assert N.wide and N.normal


class TestHolonomyQuotient:
    def test_full_window_quotient_isomorphic_to_g(self):
        for G in (swap3_groupoid(), one_object_groupoid(cyclic_group(4))):
            D = full_window(G)
            hol = holonomy_pipeline(D)
            assert validate_groupoid(hol.groupoid).ok
            assert groupoid_isomorphism(hol.groupoid, G) is not None
            assert hol.projection_constant and hol.embedding_injective
            # the projection is bijective here
            assert len(set(hol.projection.values())) == len(hol.groupoid.arrows)

    def test_projection_functorial(self):
        for D in (swap3_data(), mobius_model(3), annulus_model(3)):
            hol = holonomy_pipeline(D)
            K, G = hol.groupoid, D.G
            for (h, g) in K.composable_pairs():
                assert hol.projection[K.comp[(h, g)]] == G.comp[
                    (hol.projection[h], hol.projection[g])
                ]

    def test_embedding_section_of_projection(self):
        for D in (swap3_data(), mobius_model(3), annulus_model(3)):
            hol = holonomy_pipeline(D)
            for w in D.window:
                assert hol.projection[hol.embedding[w]] == w

    def test_paper_literal_j0_breaks_well_definedness_here(self):
        D = swap3_data()
        J = germ_groupoid(D)
        literal = j0(J, value_normalised=False)
        assert literal.ok  # still wide and normal on this instance
        hol = holonomy_groupoid(J, literal)
        assert not hol.projection_constant
        h, values = hol.projection_witness
        assert values == {J.germ_of_arrow[a].value for a in hol.members[h]} and len(values) > 1
        assert all(
            len({J.germ_of_arrow[a].value for a in hol.members[k]}) == 1 for k in sorted(hol.members) if k < h
        )
        assert holonomy_groupoid(J, j0(J)).projection_witness is None

    def test_holonomy_detects_nonlocality(self):
        # coset counts are consistent with J0 membership: the vertex order is
        # the index of the J0 loops among all loop germs, and on the band
        # models it exceeds one exactly where an identity-valued iterate fails
        # to be window-local
        for D in (mobius_model(3), annulus_model(3), swap3_data()):
            J = germ_groupoid(D)
            N = j0(J)
            hol = holonomy_groupoid(J, N)
            for x in D.G.objects:
                loops = [
                    a
                    for a in J.groupoid.arrows
                    if J.groupoid.src[a] == J.groupoid.tgt[a] == x
                ]
                local = [a for a in loops if a in N.arrows]
                assert hol.vertex_orders()[x] == len(loops) // len(local)
        for D in (mobius_model(3), annulus_model(3)):
            J = germ_groupoid(D)
            N = j0(J)
            hol = holonomy_groupoid(J, N)
            for x in D.G.objects:
                id_loops = [
                    a
                    for a in J.groupoid.arrows
                    if J.groupoid.src[a] == J.groupoid.tgt[a] == x
                    and J.germ_of_arrow[a].value == D.G.id_of[x]
                ]
                has_nonlocal = any(a not in N.arrows for a in id_loops)
                assert (hol.vertex_orders()[x] > 1) == has_nonlocal


class TestBandModels:
    def test_too_small(self):
        with pytest.raises(TooSmall):
            mobius_model(2)

    def test_annulus_leaves_are_two_cycles(self):
        D = annulus_model(3)
        from groupoidkit.core import components

        blocks = components(D.G)
        sizes = sorted(len(b) for b in blocks)
        assert sizes == [3, 3, 3]  # centre circle and two side circles

    def test_mobius_side_leaf_closes_after_two_circuits(self):
        D = mobius_model(3)
        from groupoidkit.core import components

        blocks = components(D.G)
        sizes = sorted(len(b) for b in blocks)
        assert sizes == [3, 6]

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_mobius_centre_holonomy_is_order_two(self, n):
        hol = holonomy_pipeline(mobius_model(n))
        orders = hol.vertex_orders()
        for x in hol.groupoid.objects:
            assert orders[x] == (2 if x.startswith("c") else 1)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_annulus_holonomy_trivial(self, n):
        hol = holonomy_pipeline(annulus_model(n))
        assert all(v == 1 for v in hol.vertex_orders().values())

    @pytest.mark.parametrize("n", [3, 4])
    def test_oracle_agrees(self, n):
        for model in (mobius_model, annulus_model):
            D = model(n)
            hol = holonomy_pipeline(D)
            assert oracle.holonomy_vertex_orders(D) == hol.vertex_orders()
            assert oracle.embedding_and_charts_consistent(D)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_extendibility_discriminates(self, n):
        assert not check_extendible(mobius_model(n)).ok
        assert check_extendible(annulus_model(n)).ok


class TestCharts:
    def test_identity_chart_is_the_embedding(self):
        D = mobius_model(3)
        hol = holonomy_pipeline(D)
        e = germ(D, identity_bisection(D.G, D.G.objects), "c0")
        table = chart(hol, e)
        for w, h in table.items():
            assert h == hol.embedding[w]

    def test_identity_arrow_goes_to_the_class_of_s(self):
        D = mobius_model(3)
        hol = holonomy_pipeline(D)
        for a in hol.J.groupoid.arrows:
            s_germ = hol.J.germ_of_arrow[a]
            table = chart(hol, s_germ)
            idw = D.G.id_of[s_germ.base]
            if idw in table:
                assert table[idw] == hol.coset_of[a]

    @pytest.mark.parametrize("n", [3, 4])
    def test_chart_values_independent_of_bisection_choice(self, n):
        # chart() raises WellDefinednessFailure on dependence; run it over
        # every germ and both models
        for model in (mobius_model, annulus_model):
            D = model(n)
            hol = holonomy_pipeline(D)
            for a in hol.J.groupoid.arrows:
                chart(hol, hol.J.germ_of_arrow[a])


class TestHolonomyTopology:
    def test_discrete_full_window_gives_discrete(self):
        D = swap3_data()
        hol = holonomy_pipeline(D)
        T, report = holonomy_topology(hol)
        assert report["composition_continuous"] and report["inversion_continuous"]
        assert all(len(T.min_open[a]) == 1 for a in hol.groupoid.arrows)

    def test_annulus_projection_homeomorphism_onto_image(self):
        D = annulus_model(3)
        hol = holonomy_pipeline(D)
        T, report = holonomy_topology(hol)
        assert report["composition_continuous"] and report["inversion_continuous"]
        ambient = check_extendible(D).topology
        assert projection_continuous(hol, T, ambient)
        # bijective with continuous inverse: minimal opens correspond
        proj = hol.projection
        assert len(set(proj.values())) == len(hol.groupoid.arrows)
        inv = {v: k for k, v in proj.items()}
        for a in hol.groupoid.arrows:
            assert {inv[b] for b in ambient.min_open[proj[a]]} == set(T.min_open[a])

    def test_mobius_cosets_over_identity_separated(self):
        D = mobius_model(3)
        hol = holonomy_pipeline(D)
        T, _ = holonomy_topology(hol)
        two = [h for h in hol.groupoid.arrows if hol.projection[h] == "id:c0"]
        assert len(two) == 2
        a, b = two
        assert b not in T.min_open[a] and a not in T.min_open[b]


class TestMonodromyPair:
    def test_full_window_unchanged(self):
        G = swap3_groupoid()
        D = full_window(G)
        pair, embed = monodromy_pair(D)
        assert groupoid_isomorphism(pair.G, G) is not None
        assert len(pair.window) == len(D.window)
        assert pair.validate().ok
        del embed

    def test_c4_window_is_infinite(self):
        with pytest.raises(NotFiniteOnInstance):
            monodromy_pair(cyclic_window(4, 1))

    def test_pair_feeds_holonomy_pipeline(self):
        D = full_window(swap3_groupoid())
        pair, _ = monodromy_pair(D)
        hol = holonomy_pipeline(pair)
        assert hol.projection_constant and hol.embedding_injective
