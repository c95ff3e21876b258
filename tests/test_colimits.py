"""Pushouts, the circle computation, vertex group presentations, HNN shapes."""

import itertools
import re

import pytest

from groupoidkit.colimits import (
    GroupPresentation,
    HnnInput,
    PresentationMorphism,
    hnn_from_pushout,
    mediating_morphism,
    pushout,
    spanning_tree,
    van_kampen,
    vertex_group_presentation,
)
from groupoidkit.core import (
    cyclic_group,
    indiscrete,
    one_object_groupoid,
    pair_groupoid,
    symmetric_group,
)
from groupoidkit.errors import InvalidPresentationMorphism, NotConnected, RewritingNotConfluent, WrongShape
from groupoidkit.presentations import (
    NEG,
    POS,
    FpGroupoid,
    PresentationToGroupoidMap,
    Word,
    empty_word,
    free_groupoid,
    reflexive_graph,
)
from groupoidkit.rewriting import enumerate_elements, free_reduce, knuth_bendix

from corpus import all_presentation_maps, pushout_corpus, small_targets
from reference_tables import reference_spanning_tree


# -- presentation builders ---------------------------------------------------


def discrete_presentation(objects):
    return free_groupoid(reflexive_graph(objects, []))


def interval_presentation(edge="e", objects=("0", "1")):
    return free_groupoid(reflexive_graph(objects, [(edge, objects[0], objects[1])]))


def loop_presentation(loops=("a",), obj="v"):
    return free_groupoid(reflexive_graph([obj], [(e, obj, obj) for e in loops]))


def with_tree_edge(P, e):
    """P with generator e renamed "!" + e, which sorts before every other generator,
    so `spanning_tree` reaches e's far end along e."""
    name = {e: "!" + e}
    graph = P.graph
    gens = [(name.get(x, x), graph.src[x], graph.tgt[x]) for x in P.generators()]

    def word(w):
        return Word(w.start, tuple((name.get(x, x), sign) for x, sign in w.letters))

    return FpGroupoid(reflexive_graph(graph.objects, gens), tuple((word(a), word(b)) for a, b in P.relations))


def include_objects(A, B):
    """Object-only morphism between presentations sharing object names."""
    return PresentationMorphism(A, B, {x: x for x in A.objects}, {})


def circle_pushout():
    """Two arcs glued along two base points: the circle on {p, m}."""
    W = discrete_presentation(["p", "m"])
    U = interval_presentation("eU", ("p", "m"))
    V = interval_presentation("eV", ("p", "m"))
    return van_kampen(W, U, V, include_objects(W, U), include_objects(W, V))


def diagram_circle_one_object():
    """Two points collapsing to one against the interval: one loop, no relations."""
    A = discrete_presentation(["0", "1"])
    pt = discrete_presentation(["0"])
    interval = interval_presentation("e", ("0", "1"))
    f = PresentationMorphism(A, pt, {"0": "0", "1": "0"}, {})
    g = include_objects(A, interval)
    return pushout(f, g)


def all_maps_to_groupoid(P, H):
    """Every morphism from a presentation into a finite groupoid (small cases)."""
    objs = list(P.objects)
    gens = list(P.generators())
    for obj_images in itertools.product(H.objects, repeat=len(objs)):
        obj_map = dict(zip(objs, obj_images))
        cands = []
        for e in gens:
            s, t = obj_map[P.graph.src[e]], obj_map[P.graph.tgt[e]]
            cands.append([a for a in H.arrows if H.src[a] == s and H.tgt[a] == t])
        for images in itertools.product(*cands):
            m = PresentationToGroupoidMap(P, H, obj_map, dict(zip(gens, images)))
            if m.respects_relations():
                yield m


# -- free reduction oracle used to check u^n distinctness --------------------


def freely_reduced(word):
    out = []
    for let in word:
        if out and out[-1][0] == let[0] and out[-1][1] == -let[1]:
            out.pop()
        else:
            out.append(let)
    return tuple(out)


class TestPushout:
    def test_pushout_along_identities(self):
        I = interval_presentation()
        ident = PresentationMorphism(
            I, I, {x: x for x in I.objects}, {"e": Word("0", (("e", POS),))}
        )
        out = pushout(ident, ident)
        assert len(out.apex.objects) == 2
        # vertex group stays trivial: the two copies of e are glued
        pres = vertex_group_presentation(out.apex, next(iter(out.apex.objects)))
        assert pres.element_count_up_to(4) == 1

    def test_one_object_circle_diagram(self):
        out = diagram_circle_one_object()
        assert len(out.apex.objects) == 1
        assert len(out.apex.generators()) == 1
        assert out.apex.relations == ()

    def test_circle_two_base_points(self):
        out = circle_pushout()
        assert len(out.apex.objects) == 2
        assert len(out.apex.generators()) == 2
        pres = vertex_group_presentation(out.apex, next(iter(out.apex.objects)))
        assert pres == GroupPresentation(("C.eV",), ())

    def test_invalid_morphism_rejected(self):
        A = loop_presentation()
        # relation a = 1 in the source, image a nontrivial in a free target
        A_rel = FpGroupoid(A.graph, ((Word("v", (("a", POS),)), empty_word("v")),))
        B = loop_presentation(("b",))
        m = PresentationMorphism(A_rel, B, {"v": "v"}, {"a": Word("v", (("b", POS),))})
        ident = PresentationMorphism(A_rel, A_rel, {"v": "v"}, {"a": Word("v", (("a", POS),))})
        with pytest.raises(InvalidPresentationMorphism):
            pushout(m, m)
        del ident

    def test_symmetry_up_to_isomorphism(self):
        # swapping the legs yields an isomorphic apex, witnessed by the
        # explicit tag-swap bijection on objects and generators
        A = discrete_presentation(["0", "1"])
        pt = discrete_presentation(["0"])
        interval = interval_presentation("e", ("0", "1"))
        f = PresentationMorphism(A, pt, {"0": "0", "1": "0"}, {})
        g = include_objects(A, interval)
        one = pushout(f, g)
        two = pushout(g, f)

        def swap_tag(name):
            if name.startswith("B."):
                return "C." + name[2:]
            if name.startswith("C."):
                return "B." + name[2:]
            return name

        def swap_obj(cls):
            inner = cls.strip("{}").split(",")
            return "{" + ",".join(sorted(swap_tag(m) for m in inner)) + "}"

        g1 = {e for e in one.apex.generators()}
        g2 = {e for e in two.apex.generators()}
        assert {swap_tag(e) for e in g1} == g2
        assert {swap_obj(x) for x in one.apex.objects} == set(two.apex.objects)
        graph1, graph2 = one.apex.graph, two.apex.graph
        for e in g1:
            assert swap_obj(graph1.src[e]) == graph2.src[swap_tag(e)]
            assert swap_obj(graph1.tgt[e]) == graph2.tgt[swap_tag(e)]

        def swap_word(w):
            return (swap_obj(w.start), tuple((swap_tag(e), s) for (e, s) in w.letters))

        rel1 = {frozenset((swap_word(w1), swap_word(w2))) for (w1, w2) in one.apex.relations}
        rel2 = {
            frozenset(((w1.start, w1.letters), (w2.start, w2.letters)))
            for (w1, w2) in two.apex.relations
        }
        assert rel1 == rel2


class TestVanKampen:
    def test_degenerate_cover_returns_the_piece(self):
        # V = W = U: the pushout along identities reproduces the input
        U = interval_presentation()
        ident = PresentationMorphism(
            U, U, {x: x for x in U.objects}, {"e": Word("0", (("e", POS),))}
        )
        out = van_kampen(U, U, U, ident, ident)
        assert out.transcript["provenance"]["pieces"]["left"] == "piU"
        assert len(out.apex.objects) == len(U.objects)
        pres = vertex_group_presentation(out.apex, sorted(out.apex.objects)[0])
        assert pres.element_count_up_to(4) == 1  # still the trivial group

    def test_wrapper_rejects_mismatched_shape(self):
        U = interval_presentation()
        W = discrete_presentation(["0", "1"])
        inc = include_objects(W, U)
        with pytest.raises(WrongShape):
            van_kampen(U, U, U, inc, inc)


class TestUniversalProperty:
    def test_mediating_exists_and_unique_on_small_targets(self):
        out = diagram_circle_one_object()
        B, C = out.inj_left.source, out.inj_right.source
        targets = [one_object_groupoid(cyclic_group(2)), one_object_groupoid(cyclic_group(4)), indiscrete(2)]
        for H in targets:
            cocones = 0
            for qB in all_maps_to_groupoid(B, H):
                for qC in all_maps_to_groupoid(C, H):
                    # cocone condition on the span's objects
                    if any(
                        qB.obj_map[out.inj_left.source.objects[0]] != qC.obj_map[x]
                        for x in C.objects
                    ):
                        continue
                    cocones += 1
                    u = mediating_morphism(out, qB, qC)
                    # u restricts to the legs
                    for e in C.generators():
                        assert u.evaluate(out.inj_right.apply_word(Word(C.graph.src[e], ((e, POS),)))) == qC.gen_map[e]
                    # uniqueness: every commuting morphism equals u
                    matches = [
                        m
                        for m in all_maps_to_groupoid(out.apex, H)
                        if all(
                            m.evaluate(out.inj_right.apply_word(Word(C.graph.src[e], ((e, POS),))))
                            == qC.gen_map[e]
                            for e in C.generators()
                        )
                        and all(
                            m.obj_map[out.inj_left.obj_map[x]] == qB.obj_map[x] for x in B.objects
                        )
                        and all(
                            m.obj_map[out.inj_right.obj_map[x]] == qC.obj_map[x] for x in C.objects
                        )
                    ]
                    assert len(matches) == 1
            assert cocones > 0


class TestMediatingRefusals:
    """The spans' non-cocones, fed to `mediating_morphism`: each is refused by name."""

    def test_non_cocones_are_refused(self):
        refused = {"objects": 0, "relation": 0, "targets": 0}
        targets = [H for _, H in small_targets()]
        for _, f, g in pushout_corpus():
            out = pushout(f, g)
            A, B, C = f.source, f.target, g.target
            for H in targets:
                for qB in all_presentation_maps(B, H):
                    for qC in all_presentation_maps(C, H):
                        if any(qB.obj_map[f.obj_map[x]] != qC.obj_map[g.obj_map[x]] for x in A.objects):
                            kind, message = "objects", "cocone objects disagree on a glued class"
                        elif any(qB.evaluate(f.gen_map[e]) != qC.evaluate(g.gen_map[e]) for e in A.generators()):
                            kind, message = "relation", "cocone does not respect a pushout relation"
                        else:
                            continue
                        with pytest.raises(InvalidPresentationMorphism, match=re.escape(message)):
                            mediating_morphism(out, qB, qC)
                        refused[kind] += 1
            for H1, H2 in itertools.permutations(targets, 2):
                qB = next(all_presentation_maps(B, H1))
                qC = next(all_presentation_maps(C, H2))
                with pytest.raises(InvalidPresentationMorphism, match="cocone legs land in different groupoids"):
                    mediating_morphism(out, qB, qC)
                refused["targets"] += 1
        assert all(refused.values())


class TestVertexGroupPresentation:
    def test_spanning_tree_matches_reference_in_order(self):
        for _, f, g in pushout_corpus():
            apex = pushout(f, g).apex
            for x in apex.objects:
                try:
                    want = list(reference_spanning_tree(apex, x).items())
                except NotConnected as exc:
                    with pytest.raises(NotConnected, match=re.escape(str(exc))):
                        spanning_tree(apex, x)
                else:
                    assert list(spanning_tree(apex, x).items()) == want
            with pytest.raises(NotConnected, match="unknown base object 'nope'"):
                spanning_tree(apex, "nope")

    def test_interval_gives_trivial_group(self):
        P = interval_presentation()
        pres = vertex_group_presentation(P, "0")
        assert pres.generators == () and pres.relators == ()

    def test_circle_gives_one_free_generator(self):
        out = circle_pushout()
        pres = vertex_group_presentation(out.apex, next(iter(out.apex.objects)))
        assert len(pres.generators) == 1 and pres.relators == ()
        # u^n pairwise distinct for |n| <= 8, by free reduction (oracle)
        u = pres.generators[0]
        words = set()
        for n in range(-8, 9):
            w = ((u, POS),) * n if n >= 0 else ((u, NEG),) * (-n)
            words.add(freely_reduced(w))
        assert len(words) == 17

    def test_wedge_of_two_circles(self):
        c1 = diagram_circle_one_object()
        c2 = diagram_circle_one_object()
        obj1 = next(iter(c1.apex.objects))
        obj2 = next(iter(c2.apex.objects))
        A = discrete_presentation([obj1])
        f = PresentationMorphism(A, c1.apex, {obj1: obj1}, {})
        g = PresentationMorphism(A, c2.apex, {obj1: obj2}, {})
        wedge = pushout(f, g)
        pres = vertex_group_presentation(wedge.apex, next(iter(wedge.apex.objects)))
        assert len(pres.generators) == 2 and pres.relators == ()
        # distinct reduced words up to length 4: 1 + 4 + 12 + 36 + 108
        system = knuth_bendix(pres.generators, pres.relators)
        assert len(enumerate_elements(system, 4)) == 161

    def test_disconnected_rejected(self):
        P = discrete_presentation(["0", "1"])
        with pytest.raises(NotConnected):
            vertex_group_presentation(P, "0")

    def test_tree_independence_bounded_counts(self):
        # theta graph: two objects, three parallel edges; each edge in turn is the tree
        P = free_groupoid(
            reflexive_graph(["0", "1"], [("e1", "0", "1"), ("e2", "0", "1"), ("e3", "0", "1")])
        )
        counts = set()
        for e in ("e1", "e2", "e3"):
            Q = with_tree_edge(P, e)
            assert spanning_tree(Q, "0") == {"0": None, "1": ("!" + e, POS, "0")}
            counts.add(vertex_group_presentation(Q, "0").element_count_up_to(4))
        assert len(counts) == 1

    def test_tree_independence_on_circle(self):
        apex = circle_pushout().apex
        base, other = sorted(apex.objects)
        counts = []
        for e in sorted(apex.generators()):
            ends = (apex.graph.src[e], apex.graph.tgt[e])
            if ends not in ((base, other), (other, base)):
                continue
            Q = with_tree_edge(apex, e)
            assert spanning_tree(Q, base) == {base: None, other: ("!" + e, POS if ends[0] == base else NEG, base)}
            counts.append(vertex_group_presentation(Q, base).element_count_up_to(4))
        assert len(counts) == 2 and len(set(counts)) == 1


class TestHnn:
    def test_trivial_vertex_group_recovers_the_circle(self):
        K = GroupPresentation((), ())
        C = GroupPresentation((), ())
        pres, _ = hnn_from_pushout(HnnInput(K, C, {}, {}))
        assert pres.generators == ("u",) and pres.relators == ()

    def test_c2_identity_embeddings(self):
        K = GroupPresentation(("a",), ((("a", POS), ("a", POS)),))
        C = GroupPresentation(("t",), ((("t", POS), ("t", POS)),))
        images = {"t": (("a", POS),)}
        pres, _ = hnn_from_pushout(HnnInput(K, C, images, images))
        assert set(pres.generators) == {"a", "u"}
        assert len(pres.relators) == 2
        assert (("a", POS), ("a", POS)) in pres.relators
        assert (("u", POS), ("a", POS), ("u", NEG), ("a", NEG)) in pres.relators
        # oracle: the presented group is C2 x Z; check onto the window
        # {0,1} x {-4..4} via a homomorphism killing both relators,
        # and count normal forms of words up to length 4
        def image(word):
            par, height = 0, 0
            for (g, s) in word:
                if g == "a":
                    par ^= 1
                else:
                    height += s
            return (par, height)

        for r in pres.relators:
            assert image(r) == (0, 0)
        system = knuth_bendix(pres.generators, pres.relators)
        assert system.complete
        elements = enumerate_elements(system, 4)
        assert len(elements) == len({image(w) for w in elements})
        # length-4 window: parity 0 reaches u^{-4..4}, parity 1 only u^{-3..3}
        assert len(elements) == 9 + 7

    def test_c4_with_c2_edge_group(self):
        K = GroupPresentation(("a",), ((("a", POS),) * 4,))
        C = GroupPresentation(("t",), ((("t", POS), ("t", POS)),))
        images = {"t": (("a", POS), ("a", POS))}
        pres, _ = hnn_from_pushout(HnnInput(K, C, images, images))
        assert set(pres.generators) == {"a", "u"}
        assert len(pres.relators) == 2
        assert (("a", POS),) * 4 in pres.relators
        assert free_reduce((("u", POS), ("a", POS), ("a", POS), ("u", NEG), ("a", NEG), ("a", NEG))) in pres.relators

    def test_c4_with_c2_edge_group_does_not_complete(self):
        # kept out of COLIMIT_PRESENTATIONS, whose tests need a complete system
        K = GroupPresentation(("a",), ((("a", POS),) * 4,))
        C = GroupPresentation(("t",), ((("t", POS), ("t", POS)),))
        images = {"t": (("a", POS), ("a", POS))}
        pres, _ = hnn_from_pushout(HnnInput(K, C, images, images))
        assert knuth_bendix(pres.generators, pres.relators).complete is False
        with pytest.raises(RewritingNotConfluent):
            pres.element_count_up_to(4)

    def test_bad_embedding_rejected(self):
        K = GroupPresentation(("a",), ((("a", POS), ("a", POS)),))
        C = GroupPresentation(("t",), ((("t", POS), ("t", POS), ("t", POS)),))
        images = {"t": (("a", POS),)}
        with pytest.raises(WrongShape):
            hnn_from_pushout(HnnInput(K, C, images, images))


def colimit_presentations():
    """(name, GroupPresentation) for every group presentation this module builds.

    The HNN group of C4 over C2 is left out: its completion gives up, at
    the MAX_PAIRS bound on critical pairs, so it has no normal forms to
    count (`TestHnn.test_c4_with_c2_edge_group_does_not_complete`).
    """
    I = interval_presentation()
    ident = PresentationMorphism(I, I, {x: x for x in I.objects}, {"e": Word("0", (("e", POS),))})
    glued = pushout(ident, ident).apex
    out = [("identity-glue", vertex_group_presentation(glued, sorted(glued.objects)[0])),
           ("interval", vertex_group_presentation(I, "0"))]
    circle = circle_pushout().apex
    base, _ = sorted(circle.objects)
    out.append(("circle", vertex_group_presentation(circle, base)))
    out += [(f"circle-tree-{e}", vertex_group_presentation(with_tree_edge(circle, e), base))
            for e in sorted(circle.generators())]
    c1, c2 = diagram_circle_one_object(), diagram_circle_one_object()
    obj = next(iter(c1.apex.objects))
    A = discrete_presentation([obj])
    wedge = pushout(PresentationMorphism(A, c1.apex, {obj: obj}, {}), PresentationMorphism(A, c2.apex, {obj: obj}, {}))
    out.append(("wedge", vertex_group_presentation(wedge.apex, sorted(wedge.apex.objects)[0])))
    theta = free_groupoid(reflexive_graph(["0", "1"], [("e1", "0", "1"), ("e2", "0", "1"), ("e3", "0", "1")]))
    out += [(f"theta-tree-{e}", vertex_group_presentation(with_tree_edge(theta, e), "0")) for e in ("e1", "e2", "e3")]
    c2a = GroupPresentation(("a",), ((("a", POS), ("a", POS)),))
    c4a = GroupPresentation(("a",), ((("a", POS),) * 4,))
    c2t = GroupPresentation(("t",), ((("t", POS), ("t", POS)),))
    c3t = GroupPresentation(("t",), ((("t", POS),) * 3,))
    trivial = GroupPresentation((), ())
    out += [("c2", c2a), ("c4", c4a), ("c2-edge", c2t), ("c3-edge", c3t), ("trivial", trivial)]
    out.append(("hnn-trivial", hnn_from_pushout(HnnInput(trivial, trivial, {}, {}))[0]))
    images = {"t": (("a", POS),)}
    out.append(("hnn-c2", hnn_from_pushout(HnnInput(c2a, c2t, images, images))[0]))
    r, s_ = ("r", POS), ("s", POS)
    out.append(("s3", GroupPresentation(("r", "s"), ((r,) * 3, (s_,) * 2, (r, s_) * 2))))
    return out


COLIMIT_PRESENTATIONS = colimit_presentations()


class TestElementCount:
    @pytest.mark.parametrize("name,pres", COLIMIT_PRESENTATIONS, ids=[name for name, _ in COLIMIT_PRESENTATIONS])
    def test_the_count_is_the_number_of_listed_normal_forms(self, name, pres):
        system = knuth_bendix(pres.generators, pres.relators)
        assert system.complete
        for n in range(9):
            assert pres.element_count_up_to(n) == len(enumerate_elements(system, n)), n

    def test_the_counts_are_the_groups_balls(self):
        counts = {name: pres.element_count_up_to(8) for name, pres in COLIMIT_PRESENTATIONS}
        # Z: 2 * 8 + 1; the free group of rank 2: 1 + 4 (3^8 - 1) / 2; C2 x Z: u^-8..u^8, then a u^-7..a u^7
        assert counts["circle"] == counts["circle-tree-B.eU"] == counts["circle-tree-C.eV"] == 17
        assert counts["hnn-trivial"] == 17
        assert counts["wedge"] == counts["theta-tree-e1"] == counts["theta-tree-e2"] == counts["theta-tree-e3"] == 13121
        assert counts["identity-glue"] == counts["interval"] == counts["trivial"] == 1
        assert (counts["c2"], counts["c4"], counts["c3-edge"], counts["s3"]) == (2, 4, 3, 6)
        assert counts["hnn-c2"] == 17 + 15


class TestRewritingHelper:
    def test_s3_element_count(self):
        s3 = symmetric_group(3)
        # presentation <r, s | r^3, s^2, (rs)^2>
        rel = [
            (("r", POS),) * 3,
            (("s", POS),) * 2,
            (("r", POS), ("s", POS)) * 2,
        ]
        system = knuth_bendix(("r", "s"), rel)
        assert system.complete
        assert len(enumerate_elements(system, 6)) == s3.order

    def test_pair_groupoid_unused_smoke(self):
        assert pair_groupoid(["x", "y"]) is not None
