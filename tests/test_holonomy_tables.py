"""Germ products, charts and subbases read from tables, against the object-level loops."""

import dataclasses
import gc
import json
import os
import pathlib
import subprocess
import sys
import weakref

import pytest

from corpus import cyclic_window, full_window, klein_window, monodromy_corpus, sierpinski_pair_data, swap3_groupoid
import groupoidkit
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
    reference_holonomy_groupoid,
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
    # the columns of the arrows given, as extendibility asks for the window's
    window_columns = {y: {a: col[a] for a in col if a in D.window} for y, col in table.items()}
    assert left_translations(D, closure, D.window) == window_columns


@pytest.mark.parametrize("name", sorted(CLOSURE_CORPUS))
def test_every_identity_germ_is_in_the_closure(name):
    D = CLOSURE_CORPUS[name]()
    _, closure = germ_closure(D)
    identities = {germ(D, identity_bisection(D.G, D.G.objects), x) for x in D.G.objects}
    assert identities <= set(closure)


# where the literal J0 is not closed under composition, so that J/J0 is refused
LITERAL_J0_REFUSED = {"c4-window.json", "cyclic6", "klein"}


def corpus_quotient(name, value_normalised):
    """J/J0 of a HOLONOMY_CORPUS window, skipped exactly where the literal J0 refuses it."""
    J = germ_groupoid(HOLONOMY_CORPUS[name]())
    refused = not value_normalised and name in LITERAL_J0_REFUSED
    try:
        hol = holonomy_groupoid(J, j0(J, value_normalised))
    except WellDefinednessFailure:
        assert refused
        pytest.skip("the literal J0 is not closed, so there is no quotient")
    assert not refused
    return hol


def test_some_corpus_classes_hold_several_germs():
    # only in these quotients can a chart read a class through more than one J arrow
    several = set()
    for name in HOLONOMY_CORPUS:
        for value_normalised in (True, False):
            if value_normalised or name not in LITERAL_J0_REFUSED:
                hol = corpus_quotient(name, value_normalised)
                if any(len(cls) > 1 for cls in hol.members.values()):
                    several.add((name, value_normalised))
    assert several == {("bundle", True), ("bundle", False), ("full-window.json", False), ("swap3-full", False)}


@pytest.mark.parametrize("value_normalised", [True, False], ids=["normalised", "literal"])
@pytest.mark.parametrize("name", sorted(HOLONOMY_CORPUS))
def test_charts_match_reference(name, value_normalised):
    hol = corpus_quotient(name, value_normalised)
    for _ in range(2):  # the chart index built, then kept
        for a in hol.J.groupoid.arrows:
            s_germ = hol.J.germ_of_arrow[a]
            assert list(chart(hol, s_germ).items()) == list(reference_chart(hol, s_germ).items())


@pytest.mark.parametrize("value_normalised", [True, False], ids=["normalised", "literal"])
@pytest.mark.parametrize("name", sorted(HOLONOMY_CORPUS))
def test_holonomy_topology_matches_reference(name, value_normalised, monkeypatch):
    hol = corpus_quotient(name, value_normalised)
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
    for module in (germs, holonomy, bisections):
        monkeypatch.setattr(module, "left_translations", translating)
    D = mobius_model(4)
    J = germ_groupoid(D)
    hol = holonomy_groupoid(J, j0(J))
    built = len(tables)
    holonomy_topology(hol)
    assert len(tables) == built  # the charts read J's tables
    ext = check_extendible(D)
    assert not ext.ok and hol.J is J
    assert len(closures) == 1
    assert [arrows is D.window for arrows in tables[built:]] == [True]
    assert sum(arrows is D.window for arrows in tables) == 1
    kept = (J.generator_germs, tuple(J.germ_of_arrow.values()))
    assert germs._windows[D] == kept == (ext.generator_germs, ext.closure_germs)


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


# ---------------------------------------------------------------------------
# J/J0: J's tables pushed through the coset map
# ---------------------------------------------------------------------------

# the band models, every local-data fixture with a quotient, and the monodromy corpus (swap3-full among it)
QUOTIENT_CORPUS = {
    **{f"{m.__name__.split('_')[0]}({n})": (lambda m=m, n=n: m(n))
       for m in (mobius_model, annulus_model) for n in (3, 5, 8)},
    **{f"{name}.json": fixture_data(f"{name}.json")
       for name in ("annulus3", "c4-window", "c6-window-2", "full-window", "mobius3")},
    **{name: (lambda D=D: D) for name, D in monodromy_corpus()},
}
# where the literal J0 holds a loop d with d∘d, or a product of two loops, outside J0
LITERAL_J0_NOT_CLOSED = {
    "c4-window.json", "c6-window-2.json", "c4-window-1", "c6-window-1", "c6-window-2",
    "c8-window-1", "c8-window-2", "klein-window", "s3-transpositions",
}


def quotient_fields(hol):
    """What the quotient reads: class orders as lists, the five tables as dicts."""
    K = hol.groupoid
    return (list(hol.coset_of.items()), list(hol.members.items()), K.objects, K.arrows,
            K.src, K.tgt, K.id_of, K.inv, K.comp, list(hol.projection.items()), hol.projection_witness,
            list(hol.embedding.items()), hol.projection_constant, hol.embedding_well_defined, hol.embedding_injective)


@pytest.mark.parametrize("value_normalised", [True, False], ids=["normalised", "literal"])
@pytest.mark.parametrize("name", sorted(QUOTIENT_CORPUS))
def test_quotient_matches_reference(name, value_normalised):
    J = germ_groupoid(QUOTIENT_CORPUS[name]())
    N = j0(J, value_normalised)
    assert N.closed == (value_normalised or name not in LITERAL_J0_NOT_CLOSED)
    if not N.closed:
        d, e, de = N.closure_witnesses[0]
        with pytest.raises(WellDefinednessFailure) as refused:
            holonomy_groupoid(J, N)
        assert str(refused.value) == (
            f"J0 is not closed under composition: {d!r} after {e!r} is {de!r}; cannot form the quotient")
        return
    hol = holonomy_groupoid(J, N)
    assert quotient_fields(hol) == quotient_fields(reference_holonomy_groupoid(J, N))
    # each class is named in the order of its least member
    assert [min(cls) for cls in hol.members.values()] == sorted(min(cls) for cls in hol.members.values())


QUOTIENT_DIGEST = """
import hashlib, json, pathlib, sys
from groupoidkit.cli import _load_local_data
from groupoidkit.errors import GroupoidKitError
from groupoidkit.holonomy import germ_groupoid, holonomy_groupoid, j0

digest = hashlib.sha256()
for path in sorted(pathlib.Path(sys.argv[1]).glob("*.json")):
    try:
        doc = json.loads(path.read_text())
    except ValueError:
        continue
    if not isinstance(doc, dict) or "window" not in doc:
        continue
    for value_normalised in (True, False):
        try:
            J = germ_groupoid(_load_local_data(doc))
            hol = holonomy_groupoid(J, j0(J, value_normalised))
            K = hol.groupoid
            seen = [sorted(table.items()) for table in (hol.coset_of, K.src, K.tgt, K.id_of, K.inv, K.comp)]
        except GroupoidKitError as refused:
            seen = f"{type(refused).__name__}: {refused}"
        digest.update(repr((path.name, value_normalised, seen)).encode())
print(digest.hexdigest())
"""


def test_quotient_tables_independent_of_hash_seed():
    # a J0 that is not closed gives overlapping classes, whose tables would
    # follow the set order of whichever member stood for its class
    src = str(pathlib.Path(groupoidkit.__file__).resolve().parent.parent)
    digests = set()
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-c", QUOTIENT_DIGEST, str(FIXTURES)],
                              capture_output=True, text=True, env=env, check=True, timeout=120)
        digests.add(proc.stdout)
    assert len(digests) == 1
