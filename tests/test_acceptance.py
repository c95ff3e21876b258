"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every check here is exact (no tolerances) and carries the stated wall-clock
budget, asserted at the end of the criterion.
"""

import time

import holonomy_oracle as oracle
from corpus import (
    all_presentation_maps,
    all_window_maps,
    cyclic_window,
    full_window,
    identity_window,
    monodromy_corpus,
    pushout_corpus,
    sierpinski_pair_data,
    small_targets,
    swap2_groupoid,
    swap3_groupoid,
)
from groupoidkit.bisections import (
    check_extendible,
    generate_semigroup,
    inverse_semigroup_laws,
    w_bisections,
)
from groupoidkit.colimits import (
    mediating_morphism,
    pushout,
    vertex_group_presentation,
)
from groupoidkit.core import (
    GroupoidMorphism,
    cyclic_group,
    indiscrete,
    is_covering,
    one_object_groupoid,
    pair_groupoid,
    symmetric_group,
    unique_lifting_holds,
)
from groupoidkit.double import (
    commuting_squares,
    cube_closure_sweep,
    inner_crossed_module,
    interchange_check,
    is_commutative_cube,
    roundtrip_isomorphism,
    square_as_cube,
    transport_check,
    trivial_boundary_crossed_module,
    xmod_to_double,
)
from groupoidkit.holonomy import (
    annulus_model,
    chart,
    holonomy_pipeline,
    mobius_model,
)
from groupoidkit.presentations import (
    POS,
    WindowMap,
    Word,
    extend_local_morphism,
    is_local_morphism,
    monodromy,
)


def report(n, label, started, budget):
    elapsed = time.time() - started
    print(f"criterion {n} ({label}): PASS in {elapsed:.2f}s (budget {budget}s)")
    assert elapsed < budget, f"criterion {n} exceeded its {budget}s budget"


def freely_reduced(word):
    out = []
    for let in word:
        if out and out[-1][0] == let[0] and out[-1][1] == -let[1]:
            out.pop()
        else:
            out.append(let)
    return tuple(out)


def test_criterion_1_circle_van_kampen():
    started = time.time()
    corpus = dict((name, (f, g)) for name, f, g in pushout_corpus())
    f, g = corpus["circle-one-object"]
    out = pushout(f, g)
    assert len(out.apex.objects) == 1
    pres = vertex_group_presentation(out.apex, next(iter(out.apex.objects)))
    assert len(pres.generators) == 1 and pres.relators == ()
    u = pres.generators[0]
    words = set()
    for n in range(-8, 9):
        w = ((u, POS),) * n if n >= 0 else ((u, -POS),) * (-n)
        words.add(freely_reduced(w))
    assert len(words) == 17  # the powers u^-8 .. u^8 stay distinct
    report(1, "circle van Kampen gives the infinite cyclic vertex group", started, 1)


def test_criterion_2_pushout_universal_property():
    started = time.time()
    targets = [
        indiscrete(1),
        one_object_groupoid(cyclic_group(2)),
        indiscrete(2),
        one_object_groupoid(cyclic_group(4)),
        swap3_groupoid(),
        pair_groupoid(["x", "y", "z"]),
    ]
    assert all(len(H.arrows) <= 12 for H in targets)
    instances = pushout_corpus()
    assert len(instances) >= 10
    for name, f, g in instances:
        out = pushout(f, g)
        A, B, C = f.source, f.target, g.target
        cocones = 0
        for H in targets:
            maps_b = list(all_presentation_maps(B, H))
            maps_c = list(all_presentation_maps(C, H))
            for qB in maps_b:
                for qC in maps_c:
                    if any(qB.obj_map[f.obj_map[x]] != qC.obj_map[g.obj_map[x]] for x in A.objects):
                        continue
                    if any(
                        qB.evaluate(f.gen_map[e]) != qC.evaluate(g.gen_map[e])
                        for e in A.generators()
                    ):
                        continue
                    cocones += 1
                    u = mediating_morphism(out, qB, qC)
                    for e in B.generators():
                        assert u.evaluate(out.inj_left.apply_word(
                            Word(B.graph.src[e], ((e, POS),)))) == qB.gen_map[e]
                    for e in C.generators():
                        assert u.evaluate(out.inj_right.apply_word(
                            Word(C.graph.src[e], ((e, POS),)))) == qC.gen_map[e]
                    matches = sum(
                        1
                        for m in all_presentation_maps(out.apex, H)
                        if all(m.obj_map[out.inj_left.obj_map[x]] == qB.obj_map[x] for x in B.objects)
                        and all(m.obj_map[out.inj_right.obj_map[x]] == qC.obj_map[x] for x in C.objects)
                        and all(
                            m.evaluate(out.inj_left.apply_word(Word(B.graph.src[e], ((e, POS),))))
                            == qB.gen_map[e]
                            for e in B.generators()
                        )
                        and all(
                            m.evaluate(out.inj_right.apply_word(Word(C.graph.src[e], ((e, POS),))))
                            == qC.gen_map[e]
                            for e in C.generators()
                        )
                    )
                    assert matches == 1, f"{name}: mediating morphism not unique"
        assert cocones > 0, f"{name}: no cocones found"
    report(2, "mediating morphism exists uniquely for every cocone", started, 10)


def test_criterion_3_monodromy_principle():
    started = time.time()
    instances = monodromy_corpus()
    assert len(instances) >= 20
    assert all(len(D.G.arrows) <= 24 for _, D in instances)
    targets = small_targets()
    extensions = 0
    for name, D in instances:
        M = monodromy(D)
        for w in D.window:
            assert M.project_word(M.iprime[w]) == w, f"{name}: p∘i' misses the inclusion"
        # every presentation generator is pinned by i', so a morphism out of
        # M agreeing with f on the window is determined: uniqueness holds
        single_letters = {
            im.letters[0][0] for im in M.iprime.values() if len(im.letters) == 1
        }
        assert set(M.presentation.generators()) <= single_letters
        for tname, H in targets:
            for obj_map, arrow_map in all_window_maps(D, H):
                f = WindowMap(obj_map, arrow_map)
                if not is_local_morphism(D, H, f):
                    continue
                fp = extend_local_morphism(M, H, f)
                for w in D.window:
                    assert fp.evaluate(M.iprime[w]) == f.arrow_map[w], (
                        f"{name} -> {tname}: extension does not restrict to f"
                    )
                extensions += 1
    assert extensions >= len(instances)
    report(3, f"monodromy principle over {extensions} local morphisms", started, 30)


def test_criterion_4_inverse_semigroup_laws():
    started = time.time()
    corpus = [
        ("swap2-full", full_window(swap2_groupoid())),
        ("swap3-full", full_window(swap3_groupoid())),
        ("c4-window", cyclic_window(4, 1)),
        ("c8-window-2", cyclic_window(8, 2)),
        ("sierpinski", sierpinski_pair_data()),
        ("swap3-identity", identity_window(swap3_groupoid())),
        ("annulus3", annulus_model(3)),
    ]
    for name, D in corpus:
        S = generate_semigroup(D.G, w_bisections(D), max_elements=10_000)
        assert len(S.elements) <= 10_000
        violations = inverse_semigroup_laws(S)
        assert violations == [], f"{name}: {violations[:3]}"
    report(4, "inverse semigroup laws on the whole closure corpus", started, 60)


def test_criterion_5_holonomy_discriminates_the_band_models():
    started = time.time()
    for n in (3, 4, 5):
        D = mobius_model(n)
        hol = holonomy_pipeline(D)
        orders = hol.vertex_orders()
        for x in hol.groupoid.objects:
            expected = 2 if x.startswith("c") else 1
            assert orders[x] == expected, f"mobius({n}) at {x}: {orders[x]}"
        assert not check_extendible(D).ok

        A = annulus_model(n)
        hol_a = holonomy_pipeline(A)
        assert all(v == 1 for v in hol_a.vertex_orders().values())
        assert check_extendible(A).ok

        # independent brute-force oracle over partial point maps
        assert oracle.holonomy_vertex_orders(D) == orders
        assert oracle.holonomy_vertex_orders(A) == hol_a.vertex_orders()
    report(5, "holonomy of order two on the twisted band only", started, 30)


def test_criterion_6_chart_well_definedness():
    started = time.time()
    pairs_checked = 0
    for model in (mobius_model, annulus_model):
        for n in (3, 4, 5):
            D = model(n)
            hol = holonomy_pipeline(D)
            for a in hol.J.groupoid.arrows:
                table = chart(hol, hol.J.germ_of_arrow[a])  # raises on dependence
                pairs_checked += len(table)
            assert oracle.embedding_and_charts_consistent(D)
    assert pairs_checked > 0
    report(6, f"chart values independent of the bisection ({pairs_checked} pairs)", started, 30)


def test_criterion_7_double_groupoid_laws():
    started = time.time()
    xmods = [
        ("trivial", trivial_boundary_crossed_module(cyclic_group(2), cyclic_group(1))),
        ("c2-by-c2", trivial_boundary_crossed_module(cyclic_group(2), cyclic_group(2))),
        ("inner-s3", inner_crossed_module(symmetric_group(3))),
    ]
    doubles = [(name, xmod_to_double(X)) for name, X in xmods]
    structures = [
        ("box-c2", commuting_squares(one_object_groupoid(cyclic_group(2)))),
        ("box-interval", commuting_squares(indiscrete(2))),
    ] + doubles
    for name, D in structures:
        assert transport_check(D) == [], f"{name}: transport law fails"
        rep = interchange_check(D)
        assert rep.ok, f"{name}: interchange fails via {rep.method}"
    for name, D in doubles:
        out = roundtrip_isomorphism(D)
        assert out["is_isomorphism"], f"{name}: no explicit round-trip isomorphism"
    report(7, "transport, interchange and crossed-module round trips", started, 60)


def test_criterion_8_commutative_cube_closure():
    started = time.time()
    doubles = [
        ("xmod-c2-by-c2", xmod_to_double(trivial_boundary_crossed_module(cyclic_group(2), cyclic_group(2)))),
        ("box-c2", commuting_squares(one_object_groupoid(cyclic_group(2)))),
    ]
    for name, D in doubles:
        sweep = cube_closure_sweep(D)
        assert sweep["violations"] == [], f"{name}: closure fails"
        assert sweep["commutative"] > 0 and sweep["composites_checked"] > 0
        # a height-degenerate cube on (a, b, c, d) exists iff the boundary
        # commutes, and is then commutative
        G = D.edge
        for a in G.arrows:
            for b in G.arrows:
                for c in G.arrows:
                    for d in G.arrows:
                        squares = [
                            u for u in D.squares
                            if (u.top, u.right, u.left, u.bottom) == (a, b, c, d)
                        ]
                        assert bool(squares) == (D.seq(a, b) == D.seq(c, d))
                        for u in squares:
                            assert is_commutative_cube(D, square_as_cube(D, u))
    report(8, "composites of commutative cubes stay commutative", started, 120)


def test_criterion_9_covering_characterisation():
    started = time.time()
    G = swap2_groupoid()
    H = one_object_groupoid(cyclic_group(2))
    cover = GroupoidMorphism(
        G,
        H,
        {"p": "o", "q": "o"},
        {a: ("id:o" if a.startswith("id:") else "g:1") for a in G.arrows},
    )
    assert is_covering(cover)
    assert unique_lifting_holds(cover)
    I2 = indiscrete(2)
    collapse = GroupoidMorphism(
        I2, indiscrete(1), {x: "0" for x in I2.objects}, {a: "id:0" for a in I2.arrows}
    )
    assert not is_covering(collapse)
    report(9, "covering accepted with unique lifting, collapse rejected", started, 1)
