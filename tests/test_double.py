"""Double groupoids of squares, crossed modules, and commutative cubes."""

import dataclasses
import gc
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import weakref
from collections import Counter
from functools import partial
from itertools import islice, product as iproduct
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groupoidkit
from groupoidkit import double
from groupoidkit.core import (
    cyclic_group,
    disjoint_union,
    indiscrete,
    one_object_groupoid,
    pair_groupoid,
    product_groupoid,
    symmetric_group,
    trivial_group,
    validate_groupoid,
)
from groupoidkit.double import (
    CrossedModule,
    _interchange_direct,
    _interchange_factored,
    Square,
    commuting_squares,
    compose_cubes,
    compose_squares,
    corner_square,
    cube_closure_sweep,
    cube_composition_closure,
    double_to_xmod,
    enumerate_cubes,
    square_tables,
    eps1,
    eps2,
    gamma_minus,
    gamma_plus,
    inner_crossed_module,
    interchange_check,
    inverse_square,
    is_commutative_cube,
    net_composite,
    prism_cube,
    roundtrip_isomorphism,
    square_as_cube,
    square_groupoid_axioms,
    transport_check,
    trivial_boundary_crossed_module,
    validate_crossed_module,
    xmod_to_double,
)
from groupoidkit.errors import (
    CapExceeded,
    GroupoidKitError,
    NotACrossedModule,
    NotACube,
    NotComposable,
    NotSpecialDouble,
)
from groupoidkit.io import crossed_module_from_dict, cube_from_dict, groupoid_from_dict, square_catalogue
from reference_tables import reference_compose_squares, reference_inverse_square

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def fixture_double(name):
    """The double a fixture file describes: a crossed module's, or the commuting squares of a groupoid."""
    doc = json.loads((FIXTURES / f"{name}.json").read_text())
    return xmod_to_double(crossed_module_from_dict(doc)) if "P" in doc else commuting_squares(groupoid_from_dict(doc))


def box_c2():
    return commuting_squares(one_object_groupoid(cyclic_group(2)))


def box_interval():
    return commuting_squares(indiscrete(2))


def xmod_c2():
    return trivial_boundary_crossed_module(cyclic_group(2), cyclic_group(2))


def xmod_trivial():
    return trivial_boundary_crossed_module(cyclic_group(2), cyclic_group(1))


def box_c3():
    return commuting_squares(one_object_groupoid(cyclic_group(3)))


def xmod_c2c2_fixture():
    doc = json.loads((FIXTURES / "xmod-c2c2.json").read_text())
    return xmod_to_double(crossed_module_from_dict(doc))


SWEEP_CORPUS = {
    "box-c2": box_c2,
    "box-c3": box_c3,
    "indiscrete-2": box_interval,
    "xmod-c2": lambda: xmod_to_double(xmod_c2()),
    "xmod-c2c2-fixture": xmod_c2c2_fixture,
}

# The fixtures the `double` command accepts whose shells stay under MAX_CUBE_SHELLS
# (c6-window-2, mobius3, open-window and xmod-inner-s3 pass it).
DOUBLE_FIXTURES = (
    "annulus3", "box-c2", "c4-window", "full-window", "interval", "sierpinski", "xmod-c2c2", "xmod-trivial",
)


def commuting_fixtures():
    """The fixtures the `double` command reads as a groupoid, and so as the double of its commuting squares."""
    out = []
    for path in sorted(FIXTURES.glob("*.json")):
        try:
            doc = json.loads(path.read_text())
            if "P" not in doc and validate_groupoid(groupoid_from_dict(doc)).ok:
                out.append(path.stem)
        except (ValueError, GroupoidKitError):  # truncated.json is not JSON; the rest are not groupoids
            continue
    return out


# sum_x s(x)^8 on each commuting-squares fixture, s(x) the number of arrows out of x
COMMUTING_BLOCKS = {
    "annulus3": 59_049, "box-c2": 256, "c4-window": 65_536, "c6-window-2": 1_679_616, "full-window": 768,
    "interval": 512, "mobius3": 10_097_379, "open-window": 10_097_379, "sierpinski": 512,
}


def three_crossed_modules():
    return [xmod_trivial(), xmod_c2(), inner_crossed_module(symmetric_group(3))]


def reference_commuting_squares(G):
    """All boundary tuples by four nested loops over the arrows."""
    squares = set()
    for a in G.arrows:
        for b in G.arrows:
            if G.tgt[a] != G.src[b]:
                continue
            ab = G.comp[(b, a)]
            for c in G.arrows:
                if G.src[c] != G.src[a]:
                    continue
                for d in G.arrows:
                    if G.src[d] != G.tgt[c] or G.tgt[d] != G.tgt[b]:
                        continue
                    if G.comp[(d, c)] == ab:
                        squares.add(Square(a, b, c, d))
    return frozenset(squares)


class TestCommutingSquares:
    @pytest.mark.parametrize("name", sorted(SWEEP_CORPUS) + ["mobius3"])
    def test_matches_four_loop_reference(self, name):
        if name == "mobius3":
            G = groupoid_from_dict(json.loads((FIXTURES / "mobius3.json").read_text()))
        else:
            G = SWEEP_CORPUS[name]().edge
        assert commuting_squares(G).squares == reference_commuting_squares(G)

    def test_trivial_groupoid_has_one_square(self):
        D = commuting_squares(indiscrete(1))
        assert len(D.squares) == 1

    def test_interval_square_count(self):
        # one arrow between any ordered pair: a square per corner assignment
        D = box_interval()
        assert len(D.squares) == 16

    def test_c2_square_count_matches_brute_force(self):
        K = cyclic_group(2)
        brute = sum(
            1
            for a in K.elements
            for b in K.elements
            for c in K.elements
            for d in K.elements
            if K.mul[(a, b)] == K.mul[(c, d)]
        )
        assert brute == 8
        assert len(box_c2().squares) == 8

    def test_degenerate_composition_neutral(self):
        D = box_c2()
        for u in D.squares:
            assert compose_squares(D, 1, eps1(D, u.top), u) == u
            assert compose_squares(D, 1, u, eps1(D, u.bottom)) == u
            assert compose_squares(D, 2, eps2(D, u.left), u) == u
            assert compose_squares(D, 2, u, eps2(D, u.right)) == u

    def test_composition_closed_and_boundary_arithmetic(self):
        D = box_c2()
        for u in D.squares:
            for v in D.squares:
                if v.left != u.right:
                    continue
                uv = compose_squares(D, 2, u, v)
                assert uv in D.squares
                assert uv.top == D.seq(u.top, v.top)
                assert uv.bottom == D.seq(u.bottom, v.bottom)

    def test_mismatch_raises(self):
        D = box_interval()
        u = eps1(D, "a:0->1")
        with pytest.raises(NotComposable):
            compose_squares(D, 2, u, u)


class TestLaws:
    @pytest.mark.parametrize("make", [box_c2, box_interval])
    def test_transport_on_commuting_models(self, make):
        assert transport_check(make()) == []

    def test_transport_on_crossed_module_doubles(self):
        for X in three_crossed_modules():
            assert transport_check(xmod_to_double(X)) == []

    @pytest.mark.parametrize("make", [box_c2, box_interval])
    def test_interchange_direct_small(self, make):
        rep = _interchange_direct(make())
        assert rep.ok and rep.blocks_checked > 0

    def test_interchange_xmods(self):
        rep = _interchange_direct(xmod_to_double(xmod_trivial()))
        assert rep.ok
        rep = _interchange_direct(xmod_to_double(xmod_c2()))
        assert rep.ok
        rep_f = _interchange_factored(xmod_to_double(xmod_c2()))
        assert rep_f.ok
        rep_s3 = interchange_check(xmod_to_double(inner_crossed_module(symmetric_group(3))))
        assert rep_s3.ok and rep_s3.method == "factored"

    def test_square_axioms_both_directions(self):
        for D in (box_c2(), box_interval(), xmod_to_double(xmod_c2())):
            assert square_groupoid_axioms(D, 1) == []
            assert square_groupoid_axioms(D, 2) == []

    def test_a_missing_connection_square_is_named(self):
        D = box_c2()
        gone = gamma_minus(D, "g:1")
        with pytest.raises(NotComposable) as refused:
            square_tables(dataclasses.replace(D, squares=D.squares - {gone}))
        assert repr(gone) in str(refused.value)

    def test_a_missing_degenerate_square_is_named(self):
        D = box_c2()
        gone = eps1(D, "g:1")
        with pytest.raises(NotComposable) as refused:
            square_groupoid_axioms(dataclasses.replace(D, squares=D.squares - {gone}), 1)
        assert repr(gone) in str(refused.value)

    def test_transport_reduces_to_absorption_on_identities(self):
        D = box_c2()
        e = "id:o"
        f = "g:1"
        lhs = compose_squares(
            D,
            1,
            compose_squares(D, 2, gamma_minus(D, e), eps1(D, f)),
            compose_squares(D, 2, eps2(D, f), gamma_minus(D, f)),
        )
        assert lhs == gamma_minus(D, D.seq(e, f))


# Both models: the commuting-squares doubles, including a three-object edge
# groupoid, and the crossed-module doubles, xmod-c2c2 from its fixture.
FILLER_CORPUS = {
    "box-c2": box_c2,
    "box-interval": box_interval,
    "box-c3": box_c3,
    "box-indiscrete-3": lambda: commuting_squares(indiscrete(3)),
    "xmod-c2c2-fixture": xmod_c2c2_fixture,
    **{f"xmod-{name}": (lambda X=X: xmod_to_double(X))
       for name, X in zip(("trivial", "c2", "inner-s3"), three_crossed_modules())},
}


def skewed_double():
    """Every boundary over C2 with either filler in C2, under an "action" that adds the filler 1.

    A double built by hand: the action moves the identity filler, so every
    law that composes degenerate or connection squares fails on it.
    """
    M = cyclic_group(2)
    E = one_object_groupoid(M)
    squares = frozenset(Square(*edges, m) for edges in iproduct(E.arrows, repeat=4) for m in M.elements)
    return double.DoubleGroupoid(E, squares, M, {(e, m): M.mul[(m, 1)] for e in E.arrows for m in M.elements})


class TestRefusalWitnesses:
    """The refusal branches that no double the constructors build reaches, on doubles built by hand."""

    def test_transport_minus(self):
        bad = transport_check(skewed_double())
        assert [w for w in bad if w[0] == "transport-minus"] == [
            ("transport-minus", pair) for pair in (("g:1", "g:1"), ("g:1", "id:o"), ("id:o", "g:1"), ("id:o", "id:o"))
        ]

    def test_transport_plus(self):
        bad = transport_check(skewed_double())
        assert [w for w in bad if w[0] == "transport-plus"] == [
            ("transport-plus", pair) for pair in (("g:1", "g:1"), ("g:1", "id:o"), ("id:o", "g:1"), ("id:o", "id:o"))
        ]

    @pytest.mark.parametrize("direction", [1, 2])
    def test_square_identity_laws(self, direction):
        bad = square_groupoid_axioms(skewed_double(), direction)
        first = Square("g:1", "g:1", "g:1", "g:1", 0)
        assert bad[:2] == [("left-identity", first), ("right-identity", first)]

    def test_square_laws_need_a_direction(self):
        with pytest.raises(NotComposable) as refused:
            square_groupoid_axioms(box_c2(), 3)
        assert str(refused.value) == "direction must be 1 or 2, got 3"

    def test_factored_interchange_names_its_triple(self):
        # trivial boundary and action on the nonabelian S3: the identity fails where m_z m_u != m_u m_z
        P, M = trivial_group(), symmetric_group(3)
        X = CrossedModule(P, M, {m: P.identity for m in M.elements}, {(P.identity, m): m for m in M.elements})
        rep = _interchange_factored(dataclasses.replace(xmod_to_double(xmod_c2()), xmod=X))
        assert (rep.ok, rep.method, rep.blocks_checked) == (False, "factored", 36)
        assert rep.witnesses[0] == ((0, 2, 1), (1, 0, 2), P.identity)

    def test_extraction_needs_the_connection_squares(self):
        D = box_c2()
        with pytest.raises(NotSpecialDouble) as refused:
            double_to_xmod(dataclasses.replace(D, squares=D.squares - {gamma_minus(D, "g:1")}))
        assert str(refused.value) == "missing connection squares for edge 'g:1'"

    def test_extraction_refuses_data_that_is_not_a_crossed_module(self):
        with pytest.raises(NotSpecialDouble) as refused:
            double_to_xmod(skewed_double())
        unit = Square("g:1", "id:o", "id:o", "id:o", 0)
        assert str(refused.value).startswith(f"extracted data fails crossed module axioms: [('M-identity-law', ({unit!r},))")


def composition_outcome(op, *args):
    try:
        return op(*args)
    except NotComposable as exc:
        return ("refused", str(exc))


class TestFillerAlgebra:
    """One filler algebra for both models, against the per-model formulas."""

    # every composable pair in both directions: 559,872 on inner-s3 (about 4 s
    # for both sides), at most 1,458 on the others
    @pytest.mark.parametrize("name", sorted(FILLER_CORPUS))
    def test_compositions_and_inverses_match_reference(self, name):
        D = FILLER_CORPUS[name]()
        squares = sorted(D.squares, key=repr)
        by_top, by_left = {}, {}
        for v in squares:
            by_top.setdefault(v.top, []).append(v)
            by_left.setdefault(v.left, []).append(v)
        for u in squares:
            for direction, meeting in ((1, by_top[u.bottom]), (2, by_left.get(u.right, ()))):
                for v in meeting:
                    assert compose_squares(D, direction, u, v) == reference_compose_squares(D, direction, u, v)
                assert inverse_square(D, direction, u) == reference_inverse_square(D, direction, u)

    @pytest.mark.parametrize("name", sorted(FILLER_CORPUS))
    def test_refusals_match_reference(self, name):
        D = FILLER_CORPUS[name]()
        squares = sorted(D.squares, key=repr)[:12]
        stranger = squares[0]._replace(filler=("not", "a", "filler"))
        for u in squares + [stranger]:
            for v in squares + [stranger]:
                for direction in (1, 2, 3):
                    got = composition_outcome(compose_squares, D, direction, u, v)
                    assert got == composition_outcome(reference_compose_squares, D, direction, u, v)
            for direction in (0, 3):
                got = composition_outcome(inverse_square, D, direction, u)
                assert got == composition_outcome(reference_inverse_square, D, direction, u)

    # every row entry and inverse of the tables, which compose on the filler
    # algebra without `compose_squares`: 559,872 entries on inner-s3, 94,770 on mobius3
    @pytest.mark.parametrize("name", sorted(FILLER_CORPUS) + ["mobius3"])
    def test_table_rows_and_inverses_match_reference(self, name):
        D = FILLER_CORPUS[name]() if name in FILLER_CORPUS else fixture_double(name)
        tab = square_tables(D)
        sq, index = tab.squares, tab.index
        by_top, by_left = {}, {}
        for v, t in enumerate(sq):
            by_top.setdefault(t.top, []).append(v)
            by_left.setdefault(t.left, []).append(v)
        for u, s in enumerate(sq):
            for direction, rows, inverses, meeting in (
                (1, tab.comp1, tab.inv1, by_top.get(s.bottom, ())), (2, tab.comp2, tab.inv2, by_left.get(s.right, ()))
            ):
                assert rows[u] == {v: index[reference_compose_squares(D, direction, s, sq[v])] for v in meeting}
                assert sq[inverses[u]] == reference_inverse_square(D, direction, s)

    @pytest.mark.parametrize("table", ["comp1", "comp2", "inv1", "inv2"])
    def test_a_composite_missing_from_the_double_is_named_when_its_row_is_read(self, table):
        D = box_c3()
        tab = square_tables(D)
        sq = tab.squares
        connections = {gamma_minus(D, e) for e in D.edge.arrows} | {gamma_plus(D, e) for e in D.edge.arrows}
        if table.startswith("comp"):
            u, gone = next((u, w) for u in range(len(sq)) for v, w in getattr(tab, table)[u].items()
                           if sq[w] not in connections and w not in (u, v))
        else:
            u, gone = next((u, w) for u in range(len(sq)) if sq[w := getattr(tab, table)[u]] not in connections and w != u)
        smaller = square_tables(dataclasses.replace(D, squares=D.squares - {sq[gone]}))
        with pytest.raises(NotComposable) as refused:
            getattr(smaller, table)[smaller.index[sq[u]]]
        assert str(refused.value) == f"square {sq[gone]!r} does not belong to this double groupoid"

    @pytest.mark.parametrize("direction", [1, 2])
    def test_a_plain_tuple_equal_to_a_square_is_refused(self, direction):
        D = box_c2()
        u = gamma_minus(D, "g:1")
        plain = tuple(u)
        assert plain == u and plain in D.squares and not D.has_square(plain)
        message = f"square {plain!r} does not belong to this double groupoid"
        for op, oracle, args in (
            (compose_squares, reference_compose_squares, (plain, u)),
            (compose_squares, reference_compose_squares, (u, plain)),
            (inverse_square, reference_inverse_square, (plain,)),
        ):
            assert composition_outcome(op, D, direction, *args) == ("refused", message)
            assert composition_outcome(oracle, D, direction, *args) == ("refused", message)

    def test_square_repr_is_pinned(self):
        # the catalogue is sorted by repr, and a cube file's face indices are positions in it
        assert repr(Square("a", "b", "c", "d")) == "Square(top='a', right='b', left='c', bottom='d', filler=None)"
        fillered = Square("g:1", "id:o", "id:o", "id:o", 1)
        assert repr(fillered) == "Square(top='g:1', right='id:o', left='id:o', bottom='id:o', filler=1)"

    @pytest.mark.parametrize("name", sorted(FILLER_CORPUS))
    def test_kind_follows_the_crossed_module(self, name):
        D = FILLER_CORPUS[name]()
        assert (D.kind == "xmod") == (D.xmod is not None)
        assert D.kind == ("xmod" if name.startswith("xmod-") else "commuting")
        assert "kind" not in {f.name for f in dataclasses.fields(D)}  # derived, so it cannot disagree
        if D.xmod is None:
            assert {u.filler for u in D.squares} == {None} and D.fillers.elements == (None,)
        else:
            assert D.fillers is D.xmod.M


class TestCrossedModules:
    def test_three_corpus_modules_valid(self):
        for X in three_crossed_modules():
            assert validate_crossed_module(X) == []

    def test_peiffer_violation_detected(self):
        # boundary the identity map but action trivial: Peiffer fails on S3
        s3 = symmetric_group(3)
        X = CrossedModule(
            s3,
            s3,
            {m: m for m in s3.elements},
            {(p, m): m for p in s3.elements for m in s3.elements},
        )
        bad = validate_crossed_module(X)
        assert any(kind in ("peiffer", "equivariance") for (kind, _) in bad)
        with pytest.raises(NotACrossedModule):
            xmod_to_double(X)

    def test_loop_is_refused_as_p_and_as_m(self):
        # a five-element loop with identity and inverses that is not associative
        loop = crossed_module_from_dict(json.loads((FIXTURES / "xmod-loop5.json").read_text())).P
        as_p = CrossedModule(loop, trivial_group(), {"e": "e"}, {(p, "e"): "e" for p in loop.elements})
        as_m = CrossedModule(trivial_group(), loop, {m: "e" for m in loop.elements}, {("e", m): m for m in loop.elements})
        assert validate_crossed_module(as_p)[0] == ("P-associativity", ("a", "a", "b"))
        assert validate_crossed_module(as_m)[0] == ("M-associativity", ("a", "a", "b"))
        for X in (as_p, as_m):
            with pytest.raises(NotACrossedModule):
                xmod_to_double(X)

    def test_trivial_m_gives_commuting_squares(self):
        X = xmod_trivial()
        D = xmod_to_double(X)
        box = commuting_squares(one_object_groupoid(X.P))
        assert {(u.top, u.right, u.left, u.bottom) for u in D.squares} == {
            (u.top, u.right, u.left, u.bottom) for u in box.squares
        }
        assert len(D.squares) == len(box.squares)

    def test_c2_by_c2_square_count(self):
        D = xmod_to_double(xmod_c2())
        assert len(D.squares) == 16  # 8 commuting boundaries x 2 fillers

    def test_inner_s3_square_count(self):
        D = xmod_to_double(inner_crossed_module(symmetric_group(3)))
        assert len(D.squares) == 6 ** 4  # boundary free, filler determined


class TestExtraction:
    def test_box_gives_trivial_m(self):
        X = double_to_xmod(box_c2())
        assert X.M.order == 1
        assert X.P.order == 2

    def test_roundtrip_c2(self):
        out = roundtrip_isomorphism(xmod_to_double(xmod_c2()))
        assert out["is_isomorphism"]

    def test_roundtrip_trivial(self):
        out = roundtrip_isomorphism(xmod_to_double(xmod_trivial()))
        assert out["is_isomorphism"]

    def test_roundtrip_inner_s3(self):
        out = roundtrip_isomorphism(xmod_to_double(inner_crossed_module(symmetric_group(3))))
        assert out["is_isomorphism"]

    def test_roundtrip_reads_the_double_it_is_given(self, monkeypatch):
        D = xmod_to_double(xmod_c2())
        monkeypatch.setattr(double, "xmod_to_double", lambda X: pytest.fail("the double was built again"))
        out = roundtrip_isomorphism(D)
        assert out["double"] is D and out["is_isomorphism"]

    def test_roundtrip_needs_a_crossed_module_double(self):
        with pytest.raises(NotSpecialDouble):
            roundtrip_isomorphism(box_c2())

    def test_extraction_needs_one_object(self):
        with pytest.raises(NotSpecialDouble):
            double_to_xmod(box_interval())


class TestCubes:
    def test_all_degenerate_cube_commutative(self):
        D = box_c2()
        u = eps1(D, "id:o")
        assert is_commutative_cube(D, prism_cube(D, u))

    def test_prism_on_any_square_commutative(self):
        for D in (box_c2(), xmod_to_double(xmod_c2())):
            for u in D.squares:
                assert is_commutative_cube(D, prism_cube(D, u))

    def test_square_as_cube_commutative_with_matching_fillers(self):
        D = xmod_to_double(xmod_c2())
        for u in D.squares:
            assert is_commutative_cube(D, square_as_cube(D, u))

    def test_filler_mismatch_detected_and_fixed(self):
        # a lid whose filler bookkeeping differs from the base is not
        # commutative; flipping the lid filler by the defect repairs it
        D = xmod_to_double(inner_crossed_module(symmetric_group(3)))
        u = next(iter(D.squares))
        net = net_composite(D, square_as_cube(D, u))
        assert D.tables.squares[net] == u
        # build a wrong lid: same boundary, different filler (S3 inner has a
        # unique filler per boundary, so perturb via a different boundary's
        # square and check NotACube instead)
        X = xmod_c2()
        D2 = xmod_to_double(X)
        u2 = next(u for u in D2.squares if u.filler == 0)
        wrong = Square(u2.top, u2.right, u2.left, u2.bottom, 1)
        assert wrong in D2.squares
        cube = square_as_cube(D2, wrong, bottom=u2)
        assert not is_commutative_cube(D2, cube)
        fixed = square_as_cube(D2, u2, bottom=u2)
        assert is_commutative_cube(D2, fixed)

    def test_degenerate_cube_exists_iff_boundary_commutes(self):
        # in both corpus doubles a square over (a,b,c,d) exists exactly when
        # a-then-b == c-then-d, and then the height-degenerate cube on it is
        # commutative
        for D in (box_c2(), xmod_to_double(xmod_c2())):
            G = D.edge
            for a in G.arrows:
                for b in G.arrows:
                    for c in G.arrows:
                        for d in G.arrows:
                            boundary_squares = [
                                u
                                for u in D.squares
                                if (u.top, u.right, u.left, u.bottom) == (a, b, c, d)
                            ]
                            commutes = D.seq(a, b) == D.seq(c, d)
                            assert bool(boundary_squares) == commutes
                            for u in boundary_squares:
                                assert is_commutative_cube(D, square_as_cube(D, u))

    def test_cube_shell_validation(self):
        D = box_c2()
        u = eps1(D, "g:1")
        good = prism_cube(D, u)
        bad = good[:5] + (D.tables.index[eps1(D, "id:o")],)
        with pytest.raises(NotACube):
            is_commutative_cube(D, bad)

    def test_corner_square_shape(self):
        D = box_c2()
        sq = corner_square(D, "g:1")
        assert (sq.top, sq.right, sq.left, sq.bottom) == ("id:o", "g:1", "g:1", "id:o")


# Each damage takes a cube whose top index is 0 or 1 and the catalogue size.
NOT_A_CUBE = {
    "list": lambda c, n: list(c),
    "five-entries": lambda c, n: c[:5],
    "seven-entries": lambda c, n: c + (0,),
    "bool": lambda c, n: (bool(c[0]),) + c[1:],
    "str": lambda c, n: (str(c[0]),) + c[1:],
    "minus-one": lambda c, n: (-1,) + c[1:],
    "past-the-end": lambda c, n: (n,) + c[1:],
}


class TestCubeContract:
    """A cube is six in-range `int` square indices in `_FACES` order; anything else is NotACube."""

    @pytest.mark.parametrize("damage", sorted(NOT_A_CUBE))
    def test_not_six_square_indices_is_not_a_cube(self, damage):
        D = box_c2()
        good = next(c for c in enumerate_cubes(D) if c[0] in (0, 1) and is_commutative_cube(D, c))
        bad = NOT_A_CUBE[damage](good, len(D.tables.squares))
        calls = [
            lambda: double.validate_cube(D, bad),
            lambda: net_composite(D, bad),
            lambda: is_commutative_cube(D, bad),
            lambda: compose_cubes(D, 1, bad, good),
            lambda: compose_cubes(D, 3, good, bad),
        ]
        for call in calls:
            with pytest.raises(NotACube, match="a cube is six indices of the 8 squares"):
                call()

    def test_constructors_refuse_a_face_outside_the_double(self):
        D = xmod_to_double(xmod_c2())
        u = next(iter(D.squares))
        stranger = Square(u.top, u.right, u.left, u.bottom, "not a filler")
        for build in (lambda: prism_cube(D, stranger), lambda: square_as_cube(D, u, bottom=stranger)):
            with pytest.raises(NotACube, match="is not a square here"):
                build()

    def test_cube_file_is_read_in_face_order(self):
        D = box_c2()
        doc = {"faces": dict(zip(reversed(double._FACES), range(6)))}  # back first, top last
        assert cube_from_dict(doc, square_catalogue(D)) == (5, 4, 3, 2, 1, 0)

    def test_cube_functions_return_index_cubes(self):
        D = box_c2()
        u = sorted(D.squares, key=repr)[0]
        c = prism_cube(D, u)
        assert c == tuple(map(D.tables.index.__getitem__, (eps1(D, u.top), eps1(D, u.bottom), eps1(D, u.left),
                                                           eps1(D, u.right), u, u)))
        assert compose_cubes(D, 3, c, c) == c and cube_composition_closure(D, c, c, 3)["composite"] == c


class TestCubeClosure:
    def test_direct_api_closure_exhaustive_on_commuting_c2(self):
        D = box_c2()
        cubes = enumerate_cubes(D)
        commutative = [c for c in cubes if is_commutative_cube(D, c)]
        assert commutative
        by_top = {}
        by_left = {}
        by_front = {}
        for c in commutative:
            by_top.setdefault(c[0], []).append(c)
            by_left.setdefault(c[2], []).append(c)
            by_front.setdefault(c[4], []).append(c)
        checked = 0
        for c1 in commutative:
            for c2 in by_top.get(c1[1], ()):  # bottom
                out = compose_cubes(D, 1, c1, c2)
                assert is_commutative_cube(D, out)
                checked += 1
            for c2 in by_left.get(c1[3], ()):  # right
                out = compose_cubes(D, 2, c1, c2)
                assert is_commutative_cube(D, out)
                checked += 1
            for c2 in by_front.get(c1[5], ()):  # back
                out = compose_cubes(D, 3, c1, c2)
                assert is_commutative_cube(D, out)
                checked += 1
        assert checked > 0

    @pytest.mark.parametrize("build", [box_c2, lambda: xmod_to_double(xmod_c2())])
    def test_sweep_closure_exhaustive(self, build):
        D = build()
        out = cube_closure_sweep(D)
        assert out["violations"] == []
        assert out["commutative"] > 0
        assert out["composites_checked"] > 0

    def test_sweep_verdicts_match_direct_api(self):
        D = xmod_to_double(xmod_c2())
        tab = square_tables(D)
        cubes = enumerate_cubes(D)
        for c in cubes[:: max(1, len(cubes) // 97)]:
            assert tab.is_commutative(c) == (tab.squares[c[0]] == reference_net(D, c))

    def test_one_table_per_double(self, monkeypatch):
        D = box_c2()
        calls = []
        build = double.square_tables
        monkeypatch.setattr(double, "square_tables", lambda D: calls.append(D) or build(D))
        c = prism_cube(D, sorted(D.squares, key=repr)[0])
        assert is_commutative_cube(D, c) and is_commutative_cube(D, c)
        _interchange_direct(D)
        cube_closure_sweep(D)
        assert square_catalogue(D) == sorted(D.squares, key=repr)
        assert calls == [D] and D.tables is D.tables

    def test_double_freed_without_the_cycle_collector(self):
        D = xmod_c2c2_fixture()
        gc.collect()
        gc.disable()
        try:
            tab = D.tables
            assert tab.comp1[0] and tab.comp2[0] and tab.inv1[0] is not None
            ref = weakref.ref(D)
            del D
            assert ref() is None
        finally:
            gc.enable()
        assert tab.comp1[1] == square_tables(xmod_c2c2_fixture()).comp1[1]  # rows still fill after the double is gone

    def test_closure_report(self):
        D = box_c2()
        u = next(iter(D.squares))
        c = prism_cube(D, u)
        out = cube_composition_closure(D, c, c, 3)
        assert out["commutative"]


def reference_net(D, cube):
    """The net fold on the cube's square objects, one `compose_squares` call per step."""
    _, B, L, R, F, K = map(D.tables.squares.__getitem__, cube)
    c, b = F.left, F.right
    cp, bp = K.left, K.right
    row1 = compose_squares(
        D, 2, compose_squares(D, 2, double.gamma_plus(D, c), F), double.inverse_square(D, 2, double.gamma_plus(D, b))
    )
    row2 = compose_squares(D, 2, compose_squares(D, 2, L, B), double.inverse_square(D, 2, R))
    row3 = compose_squares(
        D,
        2,
        compose_squares(D, 2, double.inverse_square(D, 1, double.gamma_plus(D, cp)), double.inverse_square(D, 1, K)),
        gamma_minus(D, D.einv(bp)),
    )
    return compose_squares(D, 1, compose_squares(D, 1, row1, row2), row3)


def reference_compose_cubes(D, direction, c1, c2):
    """Cube composition face by face on the cubes' square objects."""
    double.validate_cube(D, c1)
    double.validate_cube(D, c2)
    T1, B1, L1, R1, F1, K1 = map(D.tables.squares.__getitem__, c1)
    T2, B2, L2, R2, F2, K2 = map(D.tables.squares.__getitem__, c2)
    if direction == 1:
        if B1 != T2:
            raise NotComposable("direction 1 needs bottom == top")
        faces = (
            T1, B2, compose_squares(D, 2, L1, L2), compose_squares(D, 2, R1, R2),
            compose_squares(D, 1, F1, F2), compose_squares(D, 1, K1, K2),
        )
    elif direction == 2:
        if R1 != L2:
            raise NotComposable("direction 2 needs right == left")
        faces = (
            compose_squares(D, 2, T1, T2), compose_squares(D, 2, B1, B2), L1, R2,
            compose_squares(D, 2, F1, F2), compose_squares(D, 2, K1, K2),
        )
    elif direction == 3:
        if K1 != F2:
            raise NotComposable("direction 3 needs back == front")
        faces = (
            compose_squares(D, 1, T1, T2), compose_squares(D, 1, B1, B2),
            compose_squares(D, 1, L1, L2), compose_squares(D, 1, R1, R2), F1, K2,
        )
    else:
        raise NotComposable(f"direction must be 1, 2 or 3, got {direction!r}")
    cube = tuple(map(D.tables.index.__getitem__, faces))
    double.validate_cube(D, cube)
    return cube


def reference_interchange(D):
    """Every block by nested loops over edge buckets, each side by `compose_squares`."""
    by_left = {}
    by_top = {}
    for u in D.squares:
        by_left.setdefault(u.left, []).append(u)
        by_top.setdefault(u.top, []).append(u)
    bad = []
    blocks = 0
    for u in D.squares:
        for v in by_left.get(u.right, ()):
            uv = compose_squares(D, 2, u, v)
            for w in by_top.get(u.bottom, ()):
                uw = compose_squares(D, 1, u, w)
                for z in by_top.get(v.bottom, ()):
                    if z.left != w.right:
                        continue
                    blocks += 1
                    lhs = compose_squares(D, 1, uv, compose_squares(D, 2, w, z))
                    rhs = compose_squares(D, 2, uw, compose_squares(D, 1, v, z))
                    if lhs != rhs:
                        bad.append((u, v, w, z))
    return double.InterchangeReport(not bad, "direct", blocks, tuple(bad))


def reference_sweep(D):
    """The per-pair closure sweep: every composite built from the rows, and its `tab.is_commutative` verdict."""
    tab = double.square_tables(D)
    cubes = enumerate_cubes(D)
    commutative = [c for c in cubes if tab.is_commutative(c)]
    by_top, by_left, by_front = {}, {}, {}
    for c in commutative:
        by_top.setdefault(c[0], []).append(c)
        by_left.setdefault(c[2], []).append(c)
        by_front.setdefault(c[4], []).append(c)
    violations = []
    checked = 0
    r1, r2 = tab.comp1, tab.comp2
    verdicts = {}  # the fold is a pure function of the 6-tuple, so a repeated composite reuses its verdict

    def is_commutative(out):
        if out not in verdicts:
            verdicts[out] = tab.is_commutative(out)
        return verdicts[out]

    for c1 in commutative:
        T1, B1, L1, R1, F1, K1 = c1
        for c2 in by_top.get(B1, ()):
            out = (T1, c2[1], r2[L1][c2[2]], r2[R1][c2[3]], r1[F1][c2[4]], r1[K1][c2[5]])
            checked += 1
            if not is_commutative(out):
                violations.append((1, c1, c2))
        for c2 in by_left.get(R1, ()):
            out = (r2[T1][c2[0]], r2[B1][c2[1]], L1, c2[3], r2[F1][c2[4]], r2[K1][c2[5]])
            checked += 1
            if not is_commutative(out):
                violations.append((2, c1, c2))
        for c2 in by_front.get(K1, ()):
            out = (r1[T1][c2[0]], r1[B1][c2[1]], r1[L1][c2[2]], r1[R1][c2[3]], F1, c2[5])
            checked += 1
            if not is_commutative(out):
                violations.append((3, c1, c2))
    return {
        "cubes": len(cubes),
        "commutative": len(commutative),
        "composites_checked": checked,
        "violations": violations,
    }


def reference_cubes(D):
    """All cube shells, as square indices, by eight nested edge loops and a boundary lookup per face."""
    by_boundary = {}
    for u in D.squares:
        by_boundary.setdefault((u.top, u.right, u.left, u.bottom), []).append(u)

    def faces(a, b, c, d):
        return by_boundary.get((a, b, c, d), ())

    G = D.edge
    arrows = G.arrows
    out = []
    for F in D.squares:
        a, b, c, d = F.top, F.right, F.left, F.bottom
        for p in (p for p in arrows if G.src[p] == G.src[a]):
            for q in (q for q in arrows if G.src[q] == G.tgt[a]):
                for r in (r for r in arrows if G.src[r] == G.src[d]):
                    for s in (s for s in arrows if G.src[s] == G.tgt[d]):
                        for ap in (x for x in arrows if G.src[x] == G.tgt[p] and G.tgt[x] == G.tgt[q]):
                            for dp in (x for x in arrows if G.src[x] == G.tgt[r] and G.tgt[x] == G.tgt[s]):
                                for cp in (x for x in arrows if G.src[x] == G.tgt[p] and G.tgt[x] == G.tgt[r]):
                                    for bp in (x for x in arrows if G.src[x] == G.tgt[q] and G.tgt[x] == G.tgt[s]):
                                        for T in faces(a, q, p, ap):
                                            for B in faces(d, s, r, dp):
                                                for L in faces(c, r, p, cp):
                                                    for R in faces(b, s, q, bp):
                                                        for K in faces(ap, bp, cp, dp):
                                                            out.append((T, B, L, R, F, K))
    return [tuple(map(D.tables.index.__getitem__, c)) for c in out]


def sweep_kernel(D):
    """The all-pairs kernel that `cube_closure_sweep` keeps to list violations, on its own."""
    return double._sweep(D, double._commutative_cubes(D))


def tables_with_one_filler_flipped(D):
    """Square tables whose first vertical composite has its filler changed.

    The replacement has the same boundary, so every later lookup still
    resolves; only the verdicts can change.
    """
    tab = square_tables(D)
    comp1 = {u: tab.comp1[u] for u in range(len(tab.squares))}  # rows are lazy: fill every one first
    u = next(i for i, row in comp1.items() if row)
    v, uv = next(iter(comp1[u].items()))
    w = tab.squares[uv]
    boundary = (w.top, w.right, w.left, w.bottom)
    other = next(x for x in tab.squares if x != w and (x.top, x.right, x.left, x.bottom) == boundary)
    comp1[u] = {**comp1[u], v: tab.index[other]}
    return dataclasses.replace(tab, comp1=comp1)


def tables_with_flips(D, flips):
    """Square tables with one to three `comp1`/`comp2` entries changed.

    Each flip (table, entry, choice) picks an entry of that table by its
    position among the (row, column) pairs in index order, and replaces its
    composite by another square with the same boundary; both positions are
    taken modulo their range.  In a commuting-squares double a square is
    its boundary, so there the other square is a twin of the composite
    added to the tables: a filler no square of the double has, with the
    composite's rows, inverses and columns.  `enumerate_cubes` reads the
    tables' squares, so the shells of both sweeps take in the twins too.
    Every later lookup still resolves; only verdicts can change.
    """
    tab = square_tables(D)
    n = len(tab.squares)
    squares = list(tab.squares)
    rows = {name: {u: dict(getattr(tab, name)[u]) for u in range(n)} for name in ("comp1", "comp2")}
    inverses = {name: {u: getattr(tab, name)[u] for u in range(n)} for name in ("inv1", "inv2")}
    by_boundary = {}
    for x, sq in enumerate(squares):
        by_boundary.setdefault((sq.top, sq.right, sq.left, sq.bottom), []).append(x)
    for name, entry, choice in flips:
        table = rows[name]
        u, v = sorted((u, v) for u in range(n) for v in table[u])[entry % sum(len(table[u]) for u in range(n))]
        w = table[u][v]
        boundary = (squares[w].top, squares[w].right, squares[w].left, squares[w].bottom)
        others = [x for x in by_boundary[boundary] if x != w]
        if not others:
            x = len(squares)
            squares.append(squares[w]._replace(filler=("twin", x)))
            for t in rows.values():
                t[x] = dict(t[w])
                for row in t.values():
                    if w in row:
                        row[x] = row[w]
            for t in inverses.values():
                t[x] = t[w]
            by_boundary[boundary].append(x)
            others = [x]
        table[u][v] = others[choice % len(others)]
    return dataclasses.replace(tab, squares=tuple(squares), **rows, **inverses)


class TestSweepKernel:
    """The closure sweep, and its all-pairs kernel `double._sweep`, against the per-pair loop.

    Flipped table entries make square composition non-associative, which no
    double the constructors build can be; the greedy argument of
    `cube_closure_sweep` does not cover that, so the flips test the kernel.
    """

    @pytest.mark.parametrize("name", sorted(SWEEP_CORPUS))
    def test_matches_reference(self, name):
        D = SWEEP_CORPUS[name]()
        expected = reference_sweep(D)
        assert cube_closure_sweep(D) == expected
        assert sweep_kernel(D) == expected

    def test_cache_cannot_hide_a_violation(self, monkeypatch):
        D = xmod_to_double(xmod_c2())
        monkeypatch.setattr(double, "square_tables", tables_with_one_filler_flipped)
        expected = reference_sweep(D)
        assert expected["violations"]
        assert sweep_kernel(D) == expected

    # Each example runs both sweeps: about 0.02 s on box-c2, 0.5 s on box-C3
    # and 3.5 s on xmod-C2, whose 3,145,728 composites the reference builds
    # one by one, folding each distinct one once.  Each of these derandomised
    # draws leaves violations to find.
    @pytest.mark.parametrize("name, examples", [("box-c2", 40), ("box-c3", 4), ("xmod-c2", 3)])
    def test_flipped_tables_match_reference(self, monkeypatch, name, examples):
        flip = st.tuples(st.sampled_from(("comp1", "comp2")), st.integers(0, 1 << 16), st.integers(0, 15))

        @settings(max_examples=examples, derandomize=True, deadline=None)
        @given(st.lists(flip, min_size=1, max_size=3))
        def check(flips):
            monkeypatch.setattr(double, "square_tables", lambda D: tables_with_flips(D, flips))
            D = SWEEP_CORPUS[name]()
            assert sweep_kernel(D) == reference_sweep(D)

        check()

    def test_composite_cap_boundary(self, monkeypatch):
        self.check_composite_cap_boundary(monkeypatch, box_c2())

    def test_composite_cap_boundary_fillered(self, monkeypatch):
        self.check_composite_cap_boundary(monkeypatch, xmod_to_double(xmod_trivial()))

    @staticmethod
    def check_composite_cap_boundary(monkeypatch, D):
        checked = cube_closure_sweep(D)["composites_checked"]
        monkeypatch.setattr(double, "MAX_CUBE_COMPOSITES", checked)
        assert cube_closure_sweep(D)["composites_checked"] == checked
        monkeypatch.setattr(double, "MAX_CUBE_COMPOSITES", checked - 1)
        with pytest.raises(CapExceeded) as info:
            cube_closure_sweep(D)
        assert isinstance(info.value, OverflowError) and isinstance(info.value, GroupoidKitError)
        assert str(checked - 1) in str(info.value)

    def test_caps_leave_room_over_the_corpus(self):
        # every double fixture is answered, at least 2.5x under each cap, as `double.py` states
        for name in DOUBLE_FIXTURES:
            out = cube_closure_sweep(fixture_double(name))
            assert double.MAX_CUBE_SHELLS >= 2.5 * out["cubes"], name
            assert double.MAX_CUBE_COMPOSITES >= 2.5 * out["composites_checked"], name


def star_sizes(D):
    """s(x), the number of edges out of x, for each object x of D's edge groupoid."""
    return Counter(map(D.edge.src.__getitem__, D.edge.arrows)).values()


def kernel_or_reference(D):
    """`reference_sweep` on D, or the kept kernel `double._sweep` past 2,000,000 composable pairs of
    a commuting-squares double, where the per-pair loop takes more than a few seconds."""
    if D.xmod is None and 3 * sum(s ** 11 for s in star_sizes(D)) > 2_000_000:
        return sweep_kernel(D)
    return reference_sweep(D)


def commuting_fixtures_under_the_shell_cap():
    return [name for name in commuting_fixtures()
            if sum(s ** 7 for s in star_sizes(fixture_double(name))) <= double.MAX_CUBE_SHELLS]


# Thin doubles beyond SWEEP_CORPUS: box doubles, and one product and one disjoint union of them.
THIN_CORPUS = {
    "box-c4": lambda: commuting_squares(one_object_groupoid(cyclic_group(4))),
    "indiscrete-3": lambda: commuting_squares(indiscrete(3)),
    "product-c2-c2": lambda: commuting_squares(
        product_groupoid(one_object_groupoid(cyclic_group(2)), one_object_groupoid(cyclic_group(2)))),
    "union-c3-indiscrete-2": lambda: commuting_squares(
        disjoint_union(one_object_groupoid(cyclic_group(3)), indiscrete(2))),
}

# Fillered doubles beyond SWEEP_CORPUS, whose xmod-c2 and xmod-c2c2-fixture are fillered too.
FILLERED_CORPUS = {
    "xmod-trivial-fixture": lambda: fixture_double("xmod-trivial"),
    "inner-c2": lambda: xmod_to_double(inner_crossed_module(cyclic_group(2))),
    "xmod-c1-c4": lambda: xmod_to_double(trivial_boundary_crossed_module(cyclic_group(1), cyclic_group(4))),
}


def one_verdict_flipped(monkeypatch, shell):
    """Make `shell` fail the fold.  Composition is untouched, so it stays associative."""
    fold = double.SquareTables.is_commutative
    monkeypatch.setattr(double.SquareTables, "is_commutative", lambda tab, cube: cube != shell and fold(tab, cube))


class TestClosurePaths:
    """The star-size formulas on thin doubles and the greedy generators on fillered ones, against the sweeps."""

    @pytest.mark.parametrize("name", [f"fixture:{n}" for n in commuting_fixtures_under_the_shell_cap()]
                             + sorted(THIN_CORPUS))
    def test_thin_formulas_match_the_sweep(self, name):
        D = fixture_double(name[8:]) if name.startswith("fixture:") else THIN_CORPUS[name]()
        stars = star_sizes(D)
        out = cube_closure_sweep(D)
        assert out == kernel_or_reference(D)
        assert out["cubes"] == out["commutative"] == sum(s ** 7 for s in stars)
        assert out["composites_checked"] == 3 * sum(s ** 11 for s in stars)

    @pytest.mark.parametrize("name", sorted(set(commuting_fixtures()) - set(commuting_fixtures_under_the_shell_cap())))
    def test_thin_shell_cap_refused_as_the_enumeration_refuses(self, monkeypatch, name):
        D = fixture_double(name)
        with pytest.raises(CapExceeded) as enumerated:
            enumerate_cubes(D)
        monkeypatch.setattr(double, "square_tables", lambda D: pytest.fail("square tables read"))
        with pytest.raises(CapExceeded) as counted:
            cube_closure_sweep(fixture_double(name))
        assert str(counted.value) == str(enumerated.value) == "cube enumeration passed the cap of 65536 shells"

    def test_thin_composite_cap_met_from_the_formula(self, monkeypatch):
        D = box_c2()
        monkeypatch.setattr(double, "MAX_CUBE_COMPOSITES", 6143)
        monkeypatch.setattr(double, "square_tables", lambda D: pytest.fail("square tables read"))
        with pytest.raises(CapExceeded) as info:
            cube_closure_sweep(D)
        assert str(info.value) == "cube closure sweep would check 6144 composites, over the cap of 6143"

    def test_a_subset_of_the_commuting_squares_is_not_taken_for_thin(self):
        # the formulas count the full double; with a square gone, the walk meets the gap and names it
        D = box_c2()
        gone = Square("g:1", "g:1", "g:1", "g:1")
        with pytest.raises(NotComposable) as refused:
            cube_closure_sweep(dataclasses.replace(D, squares=D.squares - {gone}))
        assert repr(gone) in str(refused.value)

    @pytest.mark.parametrize("name", sorted(FILLERED_CORPUS))
    def test_fillered_matches_reference(self, name):
        D = FILLERED_CORPUS[name]()
        assert cube_closure_sweep(D) == reference_sweep(D)

    @pytest.mark.parametrize("name", ["xmod-c2", "xmod-c2c2-fixture", "inner-c2", "xmod-c1-c4"])
    def test_generators_answer_within_the_fraction(self, monkeypatch, name):
        D = {**SWEEP_CORPUS, **FILLERED_CORPUS}[name]()
        monkeypatch.setattr(double, "_sweep", lambda D, parts: pytest.fail("the sweep ran"))
        out = cube_closure_sweep(D)
        assert out["violations"] == [] and out["commutative"] > 0

    def test_a_fraction_too_small_falls_back_to_the_sweep(self, monkeypatch):
        D = fixture_double("xmod-c2c2")
        ran = []
        sweep = double._sweep
        monkeypatch.setattr(double, "_sweep", lambda D, parts: ran.append(D) or sweep(D, parts))
        monkeypatch.setattr(double, "GREEDY_PRODUCT_FRACTION", 1e-4)
        out = cube_closure_sweep(D)
        assert ran == [D] and out == sweep_kernel(D)

    # A shell that is the composite of two commutative cubes is made to fail the fold.
    # Each id builds 3,145,728 composites in the reference: about 4 s.
    @pytest.mark.parametrize("name, pick", [("xmod-c2", 0), ("xmod-c2", 997), ("xmod-c2c2-fixture", 0)])
    def test_a_composite_that_fails_the_fold_is_listed(self, monkeypatch, name, pick):
        D = SWEEP_CORPUS[name]()
        composites = ((d, c1, c2, compose_cubes(D, d, c1, c2)) for d, c1, c2 in commutative_pairs(D))
        d, c1, c2, shell = next(islice((x for x in composites if x[3] not in x[1:3]), pick, None))
        one_verdict_flipped(monkeypatch, shell)
        commutative = [c for c in enumerate_cubes(D) if D.tables.is_commutative(c)]
        assert not double._generated_closed(D.tables, commutative, float("inf"))
        expected = reference_sweep(D)
        assert (d, c1, c2) in expected["violations"]
        assert cube_closure_sweep(D) == expected

    def test_square_laws_hold_on_the_small_corpus_doubles(self):
        # the greedy argument needs associative cube composition: these are its premise
        builds = {**SWEEP_CORPUS, **THIN_CORPUS, **FILLERED_CORPUS,
                  **{f"fixture:{n}": partial(fixture_double, n) for n in DOUBLE_FIXTURES}}
        checked = []
        for name, build in sorted(builds.items()):
            D = build()
            if len(D.squares) <= double.MAX_AXIOM_SQUARES:
                assert square_groupoid_axioms(D, 1) == square_groupoid_axioms(D, 2) == [], name
                checked.append(name)
        assert len(checked) >= 10, checked


class TestEnumerateCubes:
    """The index join against the eight-loop enumeration, and the shells against `_SHELL`."""

    @pytest.mark.parametrize("name", sorted(SWEEP_CORPUS) + [f"fixture:{n}" for n in DOUBLE_FIXTURES])
    def test_matches_reference(self, name):
        D = fixture_double(name[8:]) if name.startswith("fixture:") else SWEEP_CORPUS[name]()
        cubes = enumerate_cubes(D)
        reference = reference_cubes(D)
        assert sorted(cubes) == sorted(reference) and len(set(cubes)) == len(cubes)
        assert cubes == sorted(cubes, key=itemgetter(4, 0, 2, 3, 1, 5))  # front, top, left, right, bottom, back

    @pytest.mark.parametrize("name", DOUBLE_FIXTURES)
    def test_every_shell_passes_the_layout(self, name):
        D = fixture_double(name)
        sq = D.tables.squares
        for c in enumerate_cubes(D):
            for f, side, g, other in double._SHELL:
                assert getattr(sq[c[f]], side) == getattr(sq[c[g]], other), (c, f, side, g, other)

    def test_order_independent_of_hash_seed(self):
        script = (
            "import hashlib\n"
            "from groupoidkit.core import cyclic_group, one_object_groupoid\n"
            "from groupoidkit.double import commuting_squares, enumerate_cubes\n"
            "D = commuting_squares(one_object_groupoid(cyclic_group(3)))\n"
            "print(hashlib.sha256(repr(enumerate_cubes(D)).encode()).hexdigest())\n"
        )
        src = str(pathlib.Path(groupoidkit.__file__).resolve().parent.parent)
        digests = set()
        for seed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True, timeout=120
            )
            digests.add(proc.stdout)
        D = box_c3()
        assert digests == {hashlib.sha256(repr(enumerate_cubes(D)).encode()).hexdigest() + "\n"}

    def test_shell_cap_boundary(self, monkeypatch):
        self.check_shell_cap_boundary(monkeypatch, box_c2())

    def test_shell_cap_boundary_fillered(self, monkeypatch):
        self.check_shell_cap_boundary(monkeypatch, xmod_to_double(xmod_trivial()))

    @staticmethod
    def check_shell_cap_boundary(monkeypatch, D):
        count = len(enumerate_cubes(D))
        monkeypatch.setattr(double, "MAX_CUBE_SHELLS", count)
        assert len(enumerate_cubes(D)) == count
        assert cube_closure_sweep(D)["cubes"] == count
        monkeypatch.setattr(double, "MAX_CUBE_SHELLS", count - 1)
        with pytest.raises(CapExceeded):
            enumerate_cubes(D)
        with pytest.raises(CapExceeded) as info:
            cube_closure_sweep(D)
        assert str(info.value) == f"cube enumeration passed the cap of {count - 1} shells"


def commutative_pairs(D):
    """Every (direction, c1, c2) with c1, c2 commutative and c2 following c1."""
    commutative = [c for c in enumerate_cubes(D) if D.tables.squares[c[0]] == reference_net(D, c)]
    follows = {1: (1, 0), 2: (3, 2), 3: (5, 4)}  # (face of c1, face of c2): bottom/top, right/left, back/front
    for direction, (face, key) in follows.items():
        by_key = {}
        for c in commutative:
            by_key.setdefault(c[key], []).append(c)
        for c1 in commutative:
            for c2 in by_key.get(c1[face], ()):
                yield direction, c1, c2


class TestSquareEngine:
    """The table-backed fold, cube composition and exhaustive checks against object-level oracles."""

    @pytest.mark.parametrize("name", sorted(SWEEP_CORPUS))
    def test_net_view_matches_reference(self, name):
        D = SWEEP_CORPUS[name]()
        for c in enumerate_cubes(D):
            assert D.tables.squares[net_composite(D, c)] == reference_net(D, c)

    # box-C2 has 6,144 composable pairs, all compared; xmod-C2 has 3,145,728,
    # of which every 1,021st (a prime stride, so every direction and face
    # pattern recurs) is compared.
    @pytest.mark.parametrize(
        "build, stride", [(box_c2, 1), (lambda: xmod_to_double(xmod_c2()), 1021)], ids=["box-c2", "xmod-c2"]
    )
    def test_compose_cubes_matches_reference(self, build, stride):
        D = build()
        pairs = 0
        for n, (direction, c1, c2) in enumerate(commutative_pairs(D)):
            pairs += 1
            if n % stride == 0:
                assert compose_cubes(D, direction, c1, c2) == reference_compose_cubes(D, direction, c1, c2)
        assert pairs == cube_closure_sweep(D)["composites_checked"]

    def test_compose_cubes_refuses_like_reference(self):
        def outcome(compose, *args):
            try:
                return compose(*args)
            except NotComposable as exc:
                return str(exc)

        D = box_c2()
        prisms = [prism_cube(D, u) for u in sorted(D.squares, key=repr)]
        refusals = set()
        for c1 in prisms:
            for c2 in prisms:
                for direction in (1, 2, 3, 4):
                    want = outcome(reference_compose_cubes, D, direction, c1, c2)
                    assert outcome(compose_cubes, D, direction, c1, c2) == want
                    if isinstance(want, str):
                        refusals.add(want)
        assert len(refusals) == 4

    @pytest.mark.parametrize(
        "build",
        [box_c2, box_interval, lambda: xmod_to_double(xmod_trivial()), lambda: xmod_to_double(xmod_c2()),
         xmod_c2c2_fixture],
        ids=["box-c2", "indiscrete-2", "xmod-trivial", "xmod-c2", "xmod-c2c2-fixture"],
    )
    def test_interchange_matches_reference(self, build):
        D = build()
        got = _interchange_direct(D)
        want = reference_interchange(D)
        assert (got.ok, got.blocks_checked) == (want.ok, want.blocks_checked)
        assert set(got.witnesses) <= set(want.witnesses) and len(got.witnesses) == min(3, len(want.witnesses))

    def test_interchange_finds_a_flipped_composite(self, monkeypatch):
        D = xmod_to_double(xmod_c2())
        blocks = _interchange_direct(D).blocks_checked
        monkeypatch.setattr(double, "square_tables", tables_with_one_filler_flipped)
        D = xmod_to_double(xmod_c2())  # D keeps its first tables; a fresh double reads the patched ones
        rep = _interchange_direct(D)
        assert not rep.ok and rep.witnesses and rep.blocks_checked == blocks
        order = [tuple(map(square_tables(D).index.__getitem__, block)) for block in rep.witnesses]
        assert order == sorted(order)  # repr order of (u, v, w, z)

    def test_axioms_find_a_flipped_composite(self, monkeypatch):
        D = xmod_to_double(xmod_c2())
        monkeypatch.setattr(double, "square_tables", tables_with_one_filler_flipped)
        assert square_groupoid_axioms(D, 1)
        assert square_groupoid_axioms(D, 2) == []

    def test_interchange_cap_boundary(self, monkeypatch):
        D = box_c2()
        assert _interchange_direct(D).blocks_checked == 256
        monkeypatch.setattr(double, "MAX_INTERCHANGE_BLOCKS", 256)
        assert _interchange_direct(D).ok
        monkeypatch.setattr(double, "MAX_INTERCHANGE_BLOCKS", 255)
        with pytest.raises(CapExceeded) as info:
            interchange_check(D)
        assert "255" in str(info.value)

    @pytest.mark.parametrize("name", commuting_fixtures())
    def test_thin_blocks_and_squares_are_powers_of_the_star_sizes(self, name):
        D = fixture_double(name)
        stars = Counter(map(D.edge.src.__getitem__, D.edge.arrows)).values()
        assert sum(s ** 3 for s in stars) == len(D.squares)
        assert sum(s ** 8 for s in stars) == _interchange_direct(D).blocks_checked == COMMUTING_BLOCKS[name]

    def test_the_walk_refuses_past_the_cap_by_its_own_count(self, monkeypatch):
        D = fixture_double("xmod-c2c2")  # 8 squares, walked directly: no count before the walk
        monkeypatch.setattr(double, "MAX_INTERCHANGE_BLOCKS", 4_096)
        rep = interchange_check(D)
        assert (rep.ok, rep.method, rep.blocks_checked) == (True, "direct", 4_096)
        monkeypatch.setattr(double, "MAX_INTERCHANGE_BLOCKS", 4_095)
        with pytest.raises(CapExceeded) as info:
            interchange_check(D)
        assert str(info.value) == "interchange check passed the cap of 4095 blocks"

    def test_interchange_cap_refused_before_any_table_read(self, monkeypatch):
        # the commuting squares of the pair groupoid on 7 points form 7^9 blocks, past the cap of 2^25
        D = commuting_squares(pair_groupoid(range(7)))

        def unreadable(D):
            raise AssertionError("square tables read before the blocks were counted")

        monkeypatch.setattr(double, "square_tables", unreadable)
        with pytest.raises(CapExceeded) as info:
            interchange_check(D)
        assert str(info.value) == f"interchange check passed the cap of {double.MAX_INTERCHANGE_BLOCKS} blocks"

    def test_axiom_sweep_cap_boundary(self, monkeypatch):
        with pytest.raises(CapExceeded) as info:
            square_groupoid_axioms(xmod_to_double(inner_crossed_module(symmetric_group(3))), 1)
        assert isinstance(info.value, OverflowError) and str(double.MAX_AXIOM_SQUARES) in str(info.value)
        D = box_c2()
        monkeypatch.setattr(double, "MAX_AXIOM_SQUARES", len(D.squares))
        assert square_groupoid_axioms(D, 1) == []
        monkeypatch.setattr(double, "MAX_AXIOM_SQUARES", len(D.squares) - 1)
        with pytest.raises(CapExceeded):
            square_groupoid_axioms(D, 2)
