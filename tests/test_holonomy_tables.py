"""Germ products, charts and subbases read from tables, against the object-level loops."""

import dataclasses
import json
import pathlib

import pytest

from corpus import cyclic_window, full_window, klein_window, sierpinski_pair_data, swap3_groupoid
from groupoidkit import bisections, holonomy
from groupoidkit.bisections import check_extendible, generate_semigroup, identity_bisection, w_bisections
from groupoidkit.core import FiniteTopology, cyclic_group, disjoint_union, one_object_groupoid
from groupoidkit.errors import NotSectionable, WellDefinednessFailure
from groupoidkit.germs import germ, germ_closure, left_translations
from groupoidkit.holonomy import (
    annulus_model,
    chart,
    germ_groupoid,
    holonomy_pipeline,
    holonomy_topology,
    j0,
    mobius_model,
)
from groupoidkit.io import local_data_from_dict
from groupoidkit.presentations import local_data
from holonomy_oracle import semigroup_germ_groupoid
from reference_tables import (
    reference_chart,
    reference_check_extendible,
    reference_extendible_subbase,
    reference_germ_closure,
    reference_germ_groupoid_from_closure,
    reference_holonomy_subbase,
    reference_holonomy_topology,
    reference_is_window_bisection,
)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def bundle_data():
    """Two C2 vertex groups over the Sierpinski space {a, b}, b open.

    The window is every arrow; an a-arrow's neighbourhood holds both
    b-arrows, so two window germs at a pass through each a-arrow (their
    values at b differ).  No band model or fixture has such a pair.
    """
    C2 = one_object_groupoid(cyclic_group(2))
    G = disjoint_union(C2, C2, tags=("a", "b"))
    b_arrows = frozenset({"id:b.o", "b.g:1"})
    t_w = FiniteTopology(tuple(G.arrows), {
        "id:a.o": b_arrows | {"id:a.o"},
        "a.g:1": b_arrows | {"a.g:1"},
        "id:b.o": frozenset({"id:b.o"}),
        "b.g:1": frozenset({"b.g:1"}),
    })
    t_obj = FiniteTopology(("a.o", "b.o"), {"a.o": frozenset({"a.o", "b.o"}), "b.o": frozenset({"b.o"})})
    return local_data(G, G.arrows, t_w, t_obj)


def fixture_data(name):
    return lambda: local_data_from_dict(json.loads((FIXTURES / name).read_text()))


# every local-data fixture except broken-comp.json, which is not a groupoid
HOLONOMY_CORPUS = {
    **{f"{m.__name__.split('_')[0]}({n})": (lambda m=m, n=n: m(n))
       for m in (mobius_model, annulus_model) for n in (3, 4, 5, 8)},
    **{f"{name}.json": fixture_data(f"{name}.json") for name in ("mobius3", "annulus3", "c4-window", "full-window")},
    "bundle": bundle_data,
    "klein": klein_window,
    "cyclic6": lambda: cyclic_window(6, 1),
    "swap3-full": lambda: full_window(swap3_groupoid()),
}
# the Sierpinski pair has window arrows no bisection passes through: it has
# a germ groupoid and an extendibility verdict but no holonomy quotient
GERM_CORPUS = {**HOLONOMY_CORPUS, "sierpinski-pair": sierpinski_pair_data}
CLOSURE_CORPUS = {
    **GERM_CORPUS,
    **{f"{m.__name__.split('_')[0]}({n})": (lambda m=m, n=n: m(n))
       for m in (mobius_model, annulus_model) for n in (12, 16)},
}


def assert_same_germ_groupoid(J, R):
    assert J.germ_of_arrow == R.germ_of_arrow and J.arrow_of_germ == R.arrow_of_germ
    K, L = J.groupoid, R.groupoid
    assert (K.objects, K.arrows, K.src, K.tgt, K.id_of, K.inv) == (L.objects, L.arrows, L.src, L.tgt, L.id_of, L.inv)
    assert list(K.comp.items()) == list(L.comp.items())


class Spy:
    """Stands in for `topology_from_subbase` and records each family it is given."""

    def __init__(self, fn):
        self.fn, self.families = fn, []

    def __call__(self, points, sets):
        self.families.append(set(sets))
        return self.fn(points, sets)


@pytest.mark.parametrize("name", sorted(GERM_CORPUS))
def test_germ_products_match_reference(name):
    D = GERM_CORPUS[name]()
    gens, closure = germ_closure(D)
    assert_same_germ_groupoid(germ_groupoid(D), reference_germ_groupoid_from_closure(D, gens, closure))


@pytest.mark.parametrize("name", ["bundle", "klein", "cyclic6", "swap3-full", "sierpinski-pair", "full-window.json"])
def test_semigroup_route_matches_reference(name):
    D = GERM_CORPUS[name]()
    S = generate_semigroup(D.G, w_bisections(D), max_elements=5000)
    assert_same_germ_groupoid(germ_groupoid(D), semigroup_germ_groupoid(D, S))


@pytest.mark.parametrize("name", sorted(CLOSURE_CORPUS))
def test_germ_closure_matches_reference(name):
    D = CLOSURE_CORPUS[name]()
    gens, closure = germ_closure(D)
    assert (gens, closure) == reference_germ_closure(D)
    min_open = D.t_objects.min_open
    assert all(g.domain is min_open[g.base] for g in gens + closure)
    # a product equal to a generator is that generator
    generators = {id(g) for g in gens}
    assert sum(id(g) in generators for g in closure) == len(gens)


@pytest.mark.parametrize("name", sorted(CLOSURE_CORPUS))
def test_left_translations_match_left_translate(name):
    D = CLOSURE_CORPUS[name]()
    G = D.G
    _, closure = germ_closure(D)
    table = left_translations(D, closure, G.arrows)
    into = {y: [a for a in G.arrows if G.tgt[a] in D.t_objects.min_open[y]] for y in G.objects}
    for y in G.objects:
        at = [h for h in closure if h.base == y]
        assert sorted(table[y], key=repr) == sorted(into[y], key=repr)
        for a in into[y]:
            assert table[y][a] == tuple(bisections.left_translate(G, h, a) for h in at)
    # the columns of the arrows given, as the charts and extendibility ask for the window's
    window_columns = {y: {a: col[a] for a in col if a in D.window} for y, col in table.items()}
    assert left_translations(D, closure, D.window) == window_columns


@pytest.mark.parametrize("name", sorted(CLOSURE_CORPUS))
def test_every_identity_germ_is_in_the_closure(name):
    D = CLOSURE_CORPUS[name]()
    _, closure = germ_closure(D)
    identities = {germ(D, identity_bisection(D.G, D.G.objects), x) for x in D.G.objects}
    assert identities <= set(closure)


@pytest.mark.parametrize("name", sorted(HOLONOMY_CORPUS))
def test_charts_match_reference(name):
    hol = holonomy_pipeline(HOLONOMY_CORPUS[name]())
    for _ in range(2):  # cold rows, then warm
        for a in hol.J.groupoid.arrows:
            s_germ = hol.J.germ_of_arrow[a]
            assert list(chart(hol, s_germ).items()) == list(reference_chart(hol, s_germ).items())


@pytest.mark.parametrize("name", sorted(HOLONOMY_CORPUS))
def test_holonomy_topology_matches_reference(name, monkeypatch):
    hol = holonomy_pipeline(HOLONOMY_CORPUS[name]())
    spy = Spy(holonomy.topology_from_subbase)
    monkeypatch.setattr(holonomy, "topology_from_subbase", spy)
    T, report = holonomy_topology(hol)
    want_T, want_report = reference_holonomy_topology(hol)
    assert spy.families == [reference_holonomy_subbase(hol)]
    assert T.points == want_T.points and list(T.min_open.items()) == list(want_T.min_open.items())
    assert report == want_report


@pytest.mark.parametrize("name", sorted(GERM_CORPUS))
def test_extendibility_matches_reference(name, monkeypatch):
    D = GERM_CORPUS[name]()
    spy = Spy(bisections.topology_from_subbase)
    monkeypatch.setattr(bisections, "topology_from_subbase", spy)
    res = check_extendible(D)
    want_T, want_failures = reference_check_extendible(D)
    assert spy.families == [reference_extendible_subbase(D)]
    assert list(res.topology.min_open.items()) == list(want_T.min_open.items())
    assert res.failures == want_failures


@pytest.mark.parametrize("value_normalised", [True, False], ids=["normalised", "literal"])
@pytest.mark.parametrize("name", sorted(GERM_CORPUS))
def test_j0_members_are_the_window_bisection_loops(name, value_normalised):
    D = GERM_CORPUS[name]()
    J = germ_groupoid(D)
    K = J.groupoid
    want = {
        a for a, g in J.germ_of_arrow.items()
        if K.tgt[a] == g.base and (not value_normalised or g.value == D.G.id_of[g.base])
        and reference_is_window_bisection(D, g)
    }
    assert j0(J, value_normalised).arrows == want


def test_no_window_bisection_through_a_window_arrow_is_refused():
    with pytest.raises(NotSectionable) as got:
        holonomy_pipeline(sierpinski_pair_data())
    assert str(got.value) == "no window bisection through 'a>b'"


class TestChartErrors:
    def test_dependence_on_the_bisection_names_the_first_w(self):
        D = bundle_data()
        hol = holonomy_pipeline(D)
        J = hol.J
        # give one of the two window germs through id:a.o another class
        moved = next(J.arrow_of_germ[g] for g in J.generator_germs
                     if g.value == "id:a.o" and dict(g.values)["b.o"] == "b.g:1")
        other = next(h for h in hol.groupoid.arrows if h != hol.coset_of[moved])
        patched = dataclasses.replace(hol, coset_of={**hol.coset_of, moved: other})
        identity_at_a = germ(D, identity_bisection(D.G, D.G.objects), "a.o")
        with pytest.raises(WellDefinednessFailure) as want:
            reference_chart(patched, identity_at_a)
        with pytest.raises(WellDefinednessFailure) as got:
            chart(patched, identity_at_a)
        assert str(got.value) == str(want.value) == "chart value at 'id:a.o' depends on the bisection choice"
        # the unpatched quotient's chart is well defined
        assert chart(hol, identity_at_a) == reference_chart(hol, identity_at_a)

    @pytest.mark.parametrize("model", [mobius_model, annulus_model])
    def test_identity_chart_is_the_embedding_with_warm_rows(self, model):
        D = model(4)
        hol = holonomy_pipeline(D)
        holonomy_topology(hol)  # reads every J arrow's chart
        assert "chart_index" in vars(hol)  # the chart index is built and kept
        identity = identity_bisection(D.G, D.G.objects)
        covered = {}
        for x in D.G.objects:
            table = chart(hol, germ(D, identity, x))
            assert all(h == hol.embedding[w] for w, h in table.items())
            covered.update(table)
        assert covered == hol.embedding
