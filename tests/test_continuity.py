"""`core.continuity_witnesses` against the all-pairs scan it replaced.

The kernel skips composable pairs of two open points and joins the pairs
near the rest by endpoint; `reference_continuity_witnesses` tests every
composable pair against all of U_h × U_g.  Both must name the same
witnesses on the topologies the package builds (band models and fixtures)
and on generated subbase topologies, with and without a planted
discontinuity.
"""

import json
import pathlib
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import monodromy_corpus, small_targets
from groupoidkit.bisections import check_extendible
from groupoidkit.core import FiniteGroupoid, continuity_witnesses, topology_from_subbase
from groupoidkit.errors import NotSectionable
from groupoidkit.holonomy import (
    annulus_model,
    germ_groupoid,
    holonomy_groupoid,
    holonomy_topology,
    j0,
    mobius_model,
)
from groupoidkit.io import local_data_from_dict
from reference_tables import reference_continuity_witnesses

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
LOCAL_DATA_FIXTURES = ["annulus3.json", "c4-window.json", "full-window.json", "mobius3.json", "sierpinski.json"]
BAND_MODELS = [pytest.param(m, n, id=f"{m.__name__.split('_')[0]}({n})")
               for m in (mobius_model, annulus_model) for n in (3, 5, 8, 12, 16)]


def checked_topologies(D):
    """Each (groupoid, topology) the package checks for continuity on D: the
    holonomy quotient's, for both J0 variants that have a quotient, then the
    ambient arrow topology of `check_extendible`."""
    J = germ_groupoid(D)
    out = []
    for value_normalised in (True, False):
        try:
            hol = holonomy_groupoid(J, j0(J, value_normalised))
        except NotSectionable:
            continue
        out.append((hol.groupoid, holonomy_topology(hol)[0]))
    out.append((D.G, check_extendible(D).topology))
    return out


def witnesses(G, T):
    got = continuity_witnesses(G, T)
    assert got == reference_continuity_witnesses(G, T)
    return got


@pytest.mark.parametrize("model, n", BAND_MODELS)
def test_band_models_match_reference(model, n):
    found = [witnesses(G, T) for G, T in checked_topologies(model(n))]
    assert len(found) == 3
    assert found[0] == (None, None)  # the holonomy groupoid is a topological groupoid


def test_fixtures_match_reference():
    found = {}
    for name in LOCAL_DATA_FIXTURES:
        D = local_data_from_dict(json.loads((FIXTURES / name).read_text()))
        found[name] = [witnesses(G, T) for G, T in checked_topologies(D)]
    # sierpinski.json has no holonomy quotient; its ambient witness is the one the CLI pins
    assert found["sierpinski.json"] == [(None, ("a>b", "b>a", "a>b", "id:a"))]
    assert all(len(f) == 3 for name, f in found.items() if name != "sierpinski.json")


CORPUS = [D.G for _, D in monodromy_corpus()] + [G for _, G in small_targets()]


@st.composite
def subbase_instances(draw):
    """A corpus groupoid, a topology on its arrows from a random subbase, and
    whether one composite was changed to plant a discontinuity at a pair of
    two points that are not open."""
    G = draw(st.sampled_from(CORPUS))
    arrows = st.sampled_from(G.arrows)
    T = topology_from_subbase(G.arrows, draw(st.lists(st.frozensets(arrows, min_size=1, max_size=4), max_size=8)))
    near = T.min_open
    # a replacement c for h∘g fails at (h, g) when some other pair near it composes outside U_c
    plants = [
        ((h, g), c)
        for (h, g) in G.composable_pairs()
        if len(near[h]) > 1 and len(near[g]) > 1
        for c in G.arrows
        if c != G.comp[h, g] and any(
            (h2, g2) != (h, g) and G.tgt[g2] == G.src[h2] and G.comp[h2, g2] not in near[c]
            for h2 in near[h] for g2 in near[g]
        )
    ]
    if not plants or not draw(st.booleans()):
        return G, T, False
    pair, c = draw(st.sampled_from(plants))
    planted = FiniteGroupoid(G.objects, G.arrows, G.src, G.tgt, G.id_of, G.inv, {**G.comp, pair: c})
    return planted, T, True


def test_generated_instances_match_reference():
    outcomes = Counter()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(subbase_instances())
    def check(case):
        G, T, planted = case
        _, composition = witnesses(G, T)
        if planted:
            assert composition is not None
        outcomes[planted, composition is not None] += 1

    check()
    # unchanged tables with and without a witness, and planted discontinuities
    assert outcomes[False, False] and outcomes[False, True] and outcomes[True, True]
