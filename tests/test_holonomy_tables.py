"""Germ products, charts and subbases read from tables, against the object-level loops."""

import dataclasses
import gc
import json
import pathlib
import weakref

import pytest

from corpus import cyclic_window, full_window, klein_window, sierpinski_pair_data, swap3_groupoid
from groupoidkit import bisections, germs, holonomy
from groupoidkit.bisections import check_extendible, generate_semigroup, identity_bisection, w_bisections
from groupoidkit.core import FiniteTopology, closure, cyclic_group, disjoint_union, one_object_groupoid
from groupoidkit.errors import NotSectionable, WellDefinednessFailure
from groupoidkit.germs import germ, germ_closure, left_translations
from groupoidkit.holonomy import (
    annulus_model,
    chart,
    germ_groupoid,
    holonomy_groupoid,
    holonomy_pipeline,
    holonomy_topology,
    j0,
    mobius_model,
)
from groupoidkit.io import canonical_dumps, local_data_from_dict, local_data_to_dict
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


# ---------------------------------------------------------------------------
# one window, one germ closure, one window translation table
# ---------------------------------------------------------------------------

# windows as documents: the band models at the sizes the foliation jobs start
# from, and every fixture that parses as local data
WINDOW_TEXTS = {
    **{f"{m.__name__.split('_')[0]}({n})": (lambda m=m, n=n: canonical_dumps(local_data_to_dict(m(n))))
       for m in (mobius_model, annulus_model) for n in (3, 5, 8)},
    **{f"{name}.json": (lambda name=name: (FIXTURES / f"{name}.json").read_text())
       for name in ("annulus3", "c4-window", "c6-window-2", "full-window", "mobius3", "sierpinski")},
}


def parse(text):
    return local_data_from_dict(json.loads(text))


def observed(J, make_hol, D_ext):
    """J's tables, every chart, the holonomy topology and the extendibility result.

    `make_hol` builds the quotient of J, and `D_ext` is the window that
    `check_extendible` reads.  A window with no holonomy quotient records the
    refusal in their place."""
    K = J.groupoid
    out = {
        "J": (K.objects, K.arrows, list(K.src.items()), list(K.tgt.items()), list(K.id_of.items()),
              list(K.inv.items()), list(K.comp.items()), list(J.germ_of_arrow.items()), J.generator_germs),
    }
    try:
        hol = make_hol(J)
    except NotSectionable as refused:
        out["holonomy"] = str(refused)
    else:
        T, report = holonomy_topology(hol)
        out["charts"] = [list(chart(hol, J.germ_of_arrow[a]).items()) for a in K.arrows]
        out["holonomy"] = (list(hol.coset_of.items()), T.points, list(T.min_open.items()), report)
    ext = check_extendible(D_ext)
    out["extendible"] = (ext.ok, list(ext.topology.min_open.items()), ext.failures,
                         ext.generator_germs, ext.closure_germs)
    return out


def quotient(J):
    return holonomy_groupoid(J, j0(J))


def test_one_window_closes_its_germs_once_and_builds_one_window_table(monkeypatch):
    closures, tables = [], []

    def closing(*args):
        closures.append(args)
        return closure(*args)

    def translating(D, germ_list, arrows):
        tables.append(arrows)
        return left_translations(D, germ_list, arrows)

    monkeypatch.setattr(germs, "closure", closing)
    monkeypatch.setattr(germs, "left_translations", translating)
    monkeypatch.setattr(holonomy, "left_translations", translating)
    D = mobius_model(4)
    J = germ_groupoid(D)
    hol = holonomy_groupoid(J, j0(J))
    holonomy_topology(hol)
    ext = check_extendible(D)
    assert not ext.ok and hol.J is J
    assert len(closures) == 1
    assert sum(arrows is D.window for arrows in tables) == 1
    assert (ext.generator_germs, ext.closure_germs) == (J.generator_germs, tuple(J.germ_of_arrow.values()))


@pytest.mark.parametrize("name", sorted(WINDOW_TEXTS))
def test_kept_tables_give_what_fresh_windows_give(name):
    text = WINDOW_TEXTS[name]()
    D = parse(text)
    shared = observed(germ_groupoid(D), quotient, D)
    # each stage on its own freshly parsed window, J built by the reference
    # loops, so the charts close the window's germs themselves
    fresh = parse(text)
    reference_J = reference_germ_groupoid_from_closure(fresh, *reference_germ_closure(fresh))
    assert observed(reference_J, quotient, parse(text)) == shared


def test_kept_tables_are_freed_with_the_window():
    D = mobius_model(3)
    gc.collect()
    gc.disable()
    try:
        J = germ_groupoid(D)
        hol = holonomy_groupoid(J, j0(J))
        holonomy_topology(hol)
        ext = check_extendible(D)
        assert D in germs._windows
        ref = weakref.ref(D)
        del D, J, hol
        assert ref() is None
    finally:
        gc.enable()
    assert ext.closure_germs == germ_closure(mobius_model(3))[1]  # the result outlives its window
