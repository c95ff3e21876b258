"""Shared instance builders for the test suite."""

from groupoidkit.core import (
    action_groupoid,
    cyclic_group,
    direct_product_group,
    discrete_topology,
    disjoint_union,
    equivalence_groupoid,
    indiscrete,
    one_object_groupoid,
    pair_groupoid,
    symmetric_group,
    topology_from_opens,
)
from groupoidkit.presentations import local_data


def swap_actions():
    """The actions behind `swap2_groupoid` and `swap3_groupoid`, as (name, K, points, act)."""
    c2 = cyclic_group(2)
    return [
        ("swap2", c2, ["p", "q"], {(0, "p"): "p", (0, "q"): "q", (1, "p"): "q", (1, "q"): "p"}),
        ("swap3", c2, ["1", "2", "3"],
         {(0, "1"): "1", (0, "2"): "2", (0, "3"): "3", (1, "1"): "2", (1, "2"): "1", (1, "3"): "3"}),
    ]


def swap2_groupoid():
    _, K, points, act = swap_actions()[0]
    return action_groupoid(K, points, act)


def swap3_groupoid():
    """C2 acting on three points, swapping two and fixing the third."""
    _, K, points, act = swap_actions()[1]
    return action_groupoid(K, points, act)


def full_window(G):
    return local_data(G, G.arrows, discrete_topology(G.arrows))


def identity_window(G):
    ids = sorted(set(G.id_of.values()))
    return local_data(G, ids, discrete_topology(ids))


def cyclic_window(n, radius):
    """One-object cyclic group of order n with window {g^k : |k| <= radius}."""
    G = one_object_groupoid(cyclic_group(n))
    W = {"id:o"}
    for k in range(1, radius + 1):
        W.add(f"g:{k % n}")
        W.add(f"g:{(-k) % n}")
    W = sorted(W)
    return local_data(G, W, discrete_topology(W))


def klein_window():
    """C2 x C2 with window {1, a, b}: no non-identity products stay inside."""
    K = direct_product_group(cyclic_group(2), cyclic_group(2))
    G = one_object_groupoid(K)
    W = ["id:o", "g:(0, 1)", "g:(1, 0)"]
    return local_data(G, W, discrete_topology(W))


def sierpinski_pair_data():
    """Pair groupoid on two points under the Sierpinski object topology.

    The cross arrows are in the window but no bisection passes through
    them: the would-be target shadow is not an open map.
    """
    G = pair_groupoid(["a", "b"])
    W = sorted(G.arrows)
    opens = [
        [],
        ["id:a"],
        ["id:a", "a>b"],
        ["id:a", "b>a"],
        ["id:a", "a>b", "b>a"],
        ["id:a", "id:b", "a>b", "b>a"],
        ["id:a", "id:b", "a>b"],
        ["id:a", "id:b", "b>a"],
        ["id:a", "id:b"],
    ]
    t_w = topology_from_opens(W, opens)
    return local_data(G, W, t_w)


def monodromy_corpus():
    """At least twenty window instances with at most 24 arrows each."""
    out = []
    out.append(("c4-window-1", cyclic_window(4, 1)))
    out.append(("c4-full", full_window(one_object_groupoid(cyclic_group(4)))))
    out.append(("c4-identity", identity_window(one_object_groupoid(cyclic_group(4)))))
    out.append(("c6-window-1", cyclic_window(6, 1)))
    out.append(("c6-window-2", cyclic_window(6, 2)))
    out.append(("c6-full", full_window(one_object_groupoid(cyclic_group(6)))))
    out.append(("c8-window-1", cyclic_window(8, 1)))
    out.append(("c8-window-2", cyclic_window(8, 2)))
    out.append(("c2-full", full_window(one_object_groupoid(cyclic_group(2)))))
    out.append(("c3-full", full_window(one_object_groupoid(cyclic_group(3)))))
    out.append(("klein-window", klein_window()))
    out.append(("klein-full", full_window(one_object_groupoid(direct_product_group(cyclic_group(2), cyclic_group(2))))))
    s3 = one_object_groupoid(symmetric_group(3))
    out.append(("s3-full", full_window(s3)))
    transpositions = ["id:o", "g:(0, 2, 1)", "g:(1, 0, 2)", "g:(2, 1, 0)"]
    out.append(("s3-transpositions", local_data(s3, transpositions, discrete_topology(transpositions))))
    out.append(("interval-full", full_window(indiscrete(2))))
    out.append(("interval-identity", identity_window(indiscrete(2))))
    out.append(("triangle-full", full_window(indiscrete(3))))
    out.append(("swap2-full", full_window(swap2_groupoid())))
    out.append(("swap2-identity", identity_window(swap2_groupoid())))
    out.append(("swap3-full", full_window(swap3_groupoid())))
    out.append(("pair3-full", full_window(pair_groupoid(["x", "y", "z"]))))
    pair3 = pair_groupoid(["x", "y", "z"])
    adjacent = sorted(a for a in pair3.arrows if a.startswith("id:") or "z" not in a)
    out.append(("pair3-chain", local_data(pair3, adjacent, discrete_topology(adjacent))))
    out.append(("two-blocks-full", full_window(equivalence_groupoid("abcd", [["a", "b"], ["c", "d"]]))))
    out.append(("two-intervals", full_window(disjoint_union(indiscrete(2), indiscrete(2)))))
    return out


def small_targets():
    """Target family for the local-morphism extension checks."""
    return [
        ("trivial", indiscrete(1)),
        ("c2", one_object_groupoid(cyclic_group(2))),
        ("interval", indiscrete(2)),
        ("c4", one_object_groupoid(cyclic_group(4))),
    ]


# ---------------------------------------------------------------------------
# pushout corpus
# ---------------------------------------------------------------------------

from groupoidkit.colimits import PresentationMorphism  # noqa: E402
from groupoidkit.presentations import (  # noqa: E402
    POS,
    FpGroupoid,
    PresentationToGroupoidMap,
    Word,
    empty_word,
    free_groupoid,
    reflexive_graph,
)
import itertools  # noqa: E402


def discrete_presentation(objects):
    return free_groupoid(reflexive_graph(objects, []))


def interval_presentation(edge="e", objects=("0", "1")):
    return free_groupoid(reflexive_graph(objects, [(edge, objects[0], objects[1])]))


def loop_presentation(loops=("a",), obj="v"):
    return free_groupoid(reflexive_graph([obj], [(e, obj, obj) for e in loops]))


def group_presentation_one_object(gen, order, obj="v"):
    graph = reflexive_graph([obj], [(gen, obj, obj)])
    rel = (Word(obj, ((gen, POS),) * order), empty_word(obj))
    return FpGroupoid(graph, (rel,))


def include_objects(A, B):
    return PresentationMorphism(A, B, {x: x for x in A.objects}, {})


def pushout_corpus():
    """Named spans (A, B, C, f, g); at least ten."""
    out = []

    W = discrete_presentation(["m", "p"])
    U = interval_presentation("eU", ("p", "m"))
    V = interval_presentation("eV", ("p", "m"))
    out.append(("circle-two-points", include_objects(W, U), include_objects(W, V)))

    A = discrete_presentation(["0", "1"])
    pt = discrete_presentation(["0"])
    seg = interval_presentation("e", ("0", "1"))
    out.append((
        "circle-one-object",
        PresentationMorphism(A, pt, {"0": "0", "1": "0"}, {}),
        include_objects(A, seg),
    ))

    dot = discrete_presentation(["v"])
    out.append(("wedge-two-loops", include_objects(dot, loop_presentation(("a",))),
                include_objects(dot, loop_presentation(("b",)))))

    ident = PresentationMorphism(seg, seg, {"0": "0", "1": "1"}, {"e": Word("0", (("e", POS),))})
    out.append(("identity-glue", ident, ident))

    two_edges = free_groupoid(reflexive_graph(["0", "1"], [("f1", "0", "1"), ("f2", "0", "1")]))
    out.append(("theta-graph", include_objects(A, seg), include_objects(A, two_edges)))

    c2a = group_presentation_one_object("a", 2)
    c2b = group_presentation_one_object("b", 2)
    c3b = group_presentation_one_object("b", 3)
    out.append(("c2-wedge-c2", include_objects(dot, c2a), include_objects(dot, c2b)))
    out.append(("c2-wedge-c3", include_objects(dot, c2a), include_objects(dot, c3b)))

    twopt = discrete_presentation(["v", "w"])
    out.append(("loop-plus-isolated", include_objects(dot, twopt),
                include_objects(dot, loop_presentation(("a",)))))

    segA = interval_presentation("e1", ("0", "x"))
    segB = interval_presentation("e2", ("0", "y"))
    out.append(("two-segments", include_objects(pt, segA), include_objects(pt, segB)))

    out.append(("interval-against-loop", include_objects(A, seg),
                PresentationMorphism(A, loop_presentation(("a",)), {"0": "v", "1": "v"}, {})))

    out.append(("swapped-circle", include_objects(A, seg),
                PresentationMorphism(A, pt, {"0": "0", "1": "0"}, {})))

    return out


def all_presentation_maps(P, H):
    """Every morphism from a presentation into a finite groupoid."""
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


def all_window_maps(D, H):
    """Every structure-compatible assignment on a window (locality unchecked)."""
    G = D.G
    gens = sorted(w for w in D.window if not G.is_identity(w))
    for obj_images in itertools.product(H.objects, repeat=len(G.objects)):
        obj_map = dict(zip(G.objects, obj_images))
        arrow_map = {G.id_of[x]: H.id_of[obj_map[x]] for x in G.objects}
        cands = []
        for w in gens:
            s, t = obj_map[G.src[w]], obj_map[G.tgt[w]]
            cands.append([a for a in H.arrows if H.src[a] == s and H.tgt[a] == t])
        for images in itertools.product(*cands):
            full = dict(arrow_map)
            full.update(dict(zip(gens, images)))
            yield obj_map, full
