"""Germ groupoids, holonomy quotients, charts, and the band foliation models.

The germ groupoid J of a window has one arrow per germ of an iterated local
procedure; its subgroupoid J0 holds the germs that are still local: the
identity-valued loops among the window germs.  J0 is checked to be a wide,
normal subgroupoid, and the holonomy groupoid is the quotient J/J0: J's
tables pushed through the coset map.  The window embeds in it and charts
transport the window topology onto it.  J is built from the window germs'
closure alone, on its germ codes.  The literal J0 variant, behind a flag,
drops the identity-value condition: a J0 that is then not closed under
composition is refused, and a projection onto the ambient groupoid that is
not constant on quotient classes is reported, not raised.

The band models shadow the foliation of a band by circles: each of n cells
carries a three point transversal (an open point on each side of a closed
centre).  With the orientation-reversing gluing the side leaf closes only
after two circuits and the once-around germ at a centre is a non-local loop
with identity value, giving holonomy of order two; with the straight gluing
the two side leaves are disjoint circles and all holonomy is trivial.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter

from .core import (
    FiniteGroupoid,
    FiniteTopology,
    ValidationReport,
    continuity_witnesses,
    equivalence_groupoid,
    group_by,
    is_continuous,
    make_groupoid,
    opens_meeting,
    topology_from_subbase,
    validate_groupoid,
)
from .errors import (
    NotSectionable,
    TooSmall,
    WellDefinednessFailure,
)
from .germs import Germ, germ, germ_closure, germ_code, left_translations, point_orders
from .germs import window_germs  # noqa: F401  (perfbench traces holonomy.window_germs)
from .presentations import (
    LocalGroupoidData,
    local_data,
    monodromy,
    monodromy_groupoid,
)


# ---------------------------------------------------------------------------
# the germ groupoid J
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GermGroupoid:
    data: LocalGroupoidData
    groupoid: FiniteGroupoid
    germ_of_arrow: dict  # arrow id -> Germ
    arrow_of_germ: dict  # Germ -> arrow id
    generator_germs: tuple

    def validate(self) -> ValidationReport:
        return validate_groupoid(self.groupoid)


def germ_groupoid(D: LocalGroupoidData) -> GermGroupoid:
    """The groupoid of germs of generated bisections: arrow j<i> is the i-th germ of the closure.

    On codes, the identity at x holds the identities over min_open[x]; the
    inverse of a germ with target y holds the inverses of its arrows, each
    at its target, over min_open[y]; the products h * t with every h at
    the target of t zip t's columns of `left_translations`.
    """
    G = D.G
    gens, germs = germ_closure(D)
    arrows = [f"j{i}" for i in range(len(germs))]
    codes = dict(zip(arrows, map(germ_code, germs)))
    named = {c: a for a, c in codes.items()}
    points = point_orders(D)
    src = {a: x for a, (x, _) in codes.items()}
    tgt = {a: G.tgt[g.value] for a, g in zip(arrows, germs)}
    id_of = {x: named[(x, tuple([G.id_of[p] for p in points[x]]))] for x in G.objects}
    inv = {}
    for a, (_, arrs) in codes.items():
        inverse_at = {G.tgt[b]: G.inv[b] for b in arrs}
        inv[a] = named[(tgt[a], tuple([inverse_at[p] for p in points[tgt[a]]]))]
    columns, at = left_translations(D, germs, G.arrows), group_by(arrows, src.__getitem__)
    comp = {}
    for t, (x, arrs) in codes.items():  # the germs at y come in the order of the J arrows at y
        col = columns[tgt[t]]
        for h, c in zip(at.get(tgt[t], ()), zip(*map(col.__getitem__, arrs))):
            comp[(h, t)] = named[(x, c)]
    groupoid = make_groupoid(G.objects, arrows, src, tgt, id_of, inv, comp)
    return GermGroupoid(D, groupoid, dict(zip(arrows, germs)), dict(zip(germs, arrows)), gens)


# ---------------------------------------------------------------------------
# J0, checked to be a wide normal subgroupoid
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LocalitySubgroupoid:
    J: GermGroupoid
    arrows: frozenset  # arrow ids of J in J0
    wide: bool
    normal: bool
    witnesses: tuple  # (a, d, a d a^-1) outside J0
    closed: bool
    closure_witnesses: tuple  # (d, e, d e) outside J0

    @property
    def ok(self) -> bool:
        return self.wide and self.normal and self.closed


def j0(J: GermGroupoid, value_normalised: bool = True) -> LocalitySubgroupoid:
    """Germs that are still local procedures.

    Membership: a loop germ (target equals base) that is one of the window
    germs, the window-valued and window-continuous sections over the minimal
    open at its base; with ``value_normalised`` (the default) the value at
    the base must be the identity arrow.  The report checks wideness,
    closure under composition and stability under conjugation exhaustively,
    listing the failing triples in J arrow order.  Closure under inverses
    follows: in a finite groupoid some power of each loop is its inverse.
    Cost: one comp read per pair of J0 loops at a base, and two per J arrow
    and J0 loop at its source.
    """
    G, K, window = J.data.G, J.groupoid, set(J.generator_germs)
    loops = [
        a for a, g in J.germ_of_arrow.items()
        if K.tgt[a] == g.base and (not value_normalised or g.value == G.id_of[g.base]) and g in window
    ]
    members = frozenset(loops)
    wide = all(K.id_of[x] in members for x in K.objects)
    loops_at = group_by(loops, K.src.__getitem__)
    unclosed = [
        (d, e, de) for d in loops for e in loops_at[K.src[d]] for de in [K.comp[(d, e)]] if de not in members
    ]
    witnesses = [
        (a, d, conj) for a in K.arrows for d in loops_at.get(K.src[a], ())
        for conj in [K.comp[(K.comp[(a, d)], K.inv[a])]] if conj not in members
    ]
    return LocalitySubgroupoid(J, members, wide, not witnesses, tuple(witnesses), not unclosed, tuple(unclosed))


# ---------------------------------------------------------------------------
# the holonomy groupoid
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class HolonomyGroupoid:
    data: LocalGroupoidData
    J: GermGroupoid
    J0: LocalitySubgroupoid
    groupoid: FiniteGroupoid
    coset_of: dict  # J arrow id -> holonomy arrow id
    members: dict   # holonomy arrow id -> frozenset of J arrow ids
    projection: dict  # holonomy arrow id -> arrow of the ambient groupoid
    embedding: dict  # window arrow -> holonomy arrow id
    projection_constant: bool
    projection_witness: tuple | None  # first class, in name order, with its several projection values
    embedding_well_defined: bool
    embedding_injective: bool

    @cached_property
    def chart_index(self) -> tuple:
        """(x -> the window arrows into min_open[x] in repr order, w -> the J arrows
        of the window germs through w).  Built once from plain tables, so no quotient
        sits in a cycle.  Cost: one membership test per object and window arrow."""
        D, J = self.data, self.J
        window, tgt = sorted(D.window, key=repr), D.G.tgt
        covered = {x: [w for w in window if tgt[w] in U] for x, U in D.t_objects.min_open.items()}
        through = {w: [J.arrow_of_germ[g] for g in gs]
                   for w, gs in group_by(J.generator_germs, attrgetter("value")).items()}
        return covered, through

    def vertex_orders(self) -> dict:
        K = self.groupoid
        loops = Counter(K.src[a] for a in K.arrows if K.src[a] == K.tgt[a])
        return {x: loops[x] for x in K.objects}


def holonomy_groupoid(J: GermGroupoid, J0: LocalitySubgroupoid) -> HolonomyGroupoid:
    """Quotient of the germ groupoid by the locality subgroupoid.

    A J0 that is not a wide normal subgroupoid is refused with
    `WellDefinednessFailure`; one that is not closed is named by its first
    failing pair.  The cosets of such a J0 partition J, so they sort as their
    least members do: each is named h<i> in that order, and src, tgt,
    id_of, inv and comp are J's tables pushed through `coset_of`.  A
    projection that is not constant on a class (possible only for the
    literal J0 variant) is recorded in ``projection_constant`` and
    ``projection_witness``, not raised.  Cost: one comp read per J arrow
    and J0 loop at its source, then one pass over each of J's tables.
    """
    D = J.data
    K = J.groupoid
    if not (J0.wide and J0.normal):
        raise WellDefinednessFailure("J0 is not a wide normal subgroupoid; cannot form the quotient")
    if not J0.closed:
        d, e, de = J0.closure_witnesses[0]
        raise WellDefinednessFailure(
            f"J0 is not closed under composition: {d!r} after {e!r} is {de!r}; cannot form the quotient")
    loops_at = group_by(J0.arrows, K.src.__getitem__)
    least = {a: min([K.comp[(a, d)] for d in loops_at[K.src[a]]]) for a in K.arrows}
    name = {m: f"h{i}" for i, m in enumerate(sorted(set(least.values())))}
    coset_of = {a: name[least[a]] for a in K.arrows}
    # K.arrows is in repr order, which orders the j<i> names as min does, so members lists h0, h1, ... in turn
    members = {h: frozenset(cls) for h, cls in group_by(K.arrows, coset_of.__getitem__).items()}

    arrows = sorted(members)
    src = {coset_of[a]: x for a, x in K.src.items()}
    tgt = {coset_of[a]: y for a, y in K.tgt.items()}
    id_of = {x: coset_of[a] for x, a in K.id_of.items()}
    inv = {coset_of[a]: coset_of[b] for a, b in K.inv.items()}
    comp = {(coset_of[h], coset_of[g]): coset_of[hg] for (h, g), hg in K.comp.items()}
    groupoid = make_groupoid(K.objects, arrows, src, tgt, id_of, inv, comp)

    # the projection should be constant on classes; the first class where it is not is the witness
    values = {h: {J.germ_of_arrow[a].value for a in members[h]} for h in arrows}
    projection = {h: min(vs, key=repr) for h, vs in values.items()}
    witness = next(((h, frozenset(vs)) for h, vs in values.items() if len(vs) > 1), None)

    # the window embeds via any window bisection through each arrow
    gen_by_value = group_by(J.generator_germs, attrgetter("base", "value"))
    embedding = {}
    well_defined = True
    for w in sorted(D.window, key=repr):
        through = gen_by_value.get((D.G.src[w], w), [])
        if not through:
            raise NotSectionable(f"no window bisection through {w!r}")
        cosets = {coset_of[J.arrow_of_germ[g]] for g in through}
        if len(cosets) != 1:
            well_defined = False
        embedding[w] = sorted(cosets)[0]
    injective = len(set(embedding.values())) == len(embedding)

    return HolonomyGroupoid(D, J, J0, groupoid, coset_of, members, projection, embedding,
                            witness is None, witness, well_defined, injective)


def holonomy_pipeline(D: LocalGroupoidData) -> HolonomyGroupoid:
    J = germ_groupoid(D)
    return holonomy_groupoid(J, j0(J))


# ---------------------------------------------------------------------------
# charts and the holonomy topology
# ---------------------------------------------------------------------------


def chart(hol: HolonomyGroupoid, s_germ: Germ) -> dict:
    """The partial map sigma_s on window arrows whose target s covers.

    sigma_s(w) is the class of s * f for any window germ f through w: J's
    composite of the germ of s at beta w with f, read off J's `comp` and
    pushed through `coset_of`.  Independence from the choice of f is
    enforced in window repr order, raising at the repr-smallest failing w.
    Cost: one germ of s per point of its domain, and one comp read per
    covered w and window germ through it."""
    covered, through = hol.chart_index
    J, comp, coset_of, tgt = hol.J, hol.J.groupoid.comp, hol.coset_of, hol.data.G.tgt
    s_at = {y: J.arrow_of_germ[germ(hol.data, s_germ, y)] for y in s_germ.domain}
    out = {}
    for w in covered[s_germ.base]:
        s_w = s_at[tgt[w]]
        classes = {coset_of[comp[(s_w, f)]] for f in through[w]}
        if len(classes) > 1:
            raise WellDefinednessFailure(f"chart value at {w!r} depends on the bisection choice")
        out[w] = classes.pop()
    return out


def holonomy_topology(hol: HolonomyGroupoid) -> tuple[FiniteTopology, dict]:
    """Topology on the holonomy arrows generated by chart images of opens.

    One chart per J arrow, mapping only the window opens it meets.  Returns
    the topology and a verification dict: continuity of the quotient's
    composition and inversion, and of the projection whenever an ambient
    arrow topology is supplied later by the caller (see `projection_continuous`).
    """
    K = hol.groupoid
    meeting = opens_meeting(hol.data.t_window.base(), lambda w: w)
    subbase = set()
    for a in hol.J.groupoid.arrows:
        table = chart(hol, hol.J.germ_of_arrow[a])
        subbase.update(frozenset(table[w] for w in V if w in table) for V in meeting(table))
    T = topology_from_subbase(K.arrows, subbase)
    inversion, composition = continuity_witnesses(K, T)
    report = {
        "composition_continuous": composition is None,
        "inversion_continuous": inversion is None,
    }
    return T, report


def projection_continuous(hol: HolonomyGroupoid, T_hol: FiniteTopology, T_ambient: FiniteTopology) -> bool:
    return is_continuous(hol.projection, T_hol, T_ambient)


# ---------------------------------------------------------------------------
# monodromy pairs
# ---------------------------------------------------------------------------


def monodromy_pair(D: LocalGroupoidData) -> tuple[LocalGroupoidData, dict]:
    """Rebase the window inside the monodromy groupoid of (G, W).

    Returns local data on (M, W') with W' the image of the window and the
    topologies transported along the embedding, plus the embedding table.
    Raises NotFiniteOnInstance when M cannot be materialised.
    """
    M = monodromy(D)
    Mfin, name = monodromy_groupoid(M)
    embed = {w: name[M.iprime[w]] for w in D.window}
    if len(set(embed.values())) != len(embed):
        raise WellDefinednessFailure("window embedding into the monodromy groupoid not injective")
    w_prime = frozenset(embed.values())
    mins = {
        embed[w]: frozenset(embed[v] for v in D.t_window.min_open[w])
        for w in D.window
    }
    t_wprime = FiniteTopology(tuple(sorted(w_prime)), mins)
    return local_data(Mfin, w_prime, t_wprime), embed


# ---------------------------------------------------------------------------
# band foliation models
# ---------------------------------------------------------------------------


def _band_model(n: int, twist: bool) -> LocalGroupoidData:
    if n < 3:
        raise TooSmall("band models need at least 3 segments")
    centres = [f"c{i}" for i in range(n)]
    sides = [f"{i}{s}" for i in range(n) for s in "+-"]
    # leaves: with the twist, one side leaf runs through both sheets
    side_leaves = [sides] if twist else [[f"{i}+" for i in range(n)], [f"{i}-" for i in range(n)]]
    R = equivalence_groupoid(centres + sides, [centres] + side_leaves)

    # window: each cell's transversal (centre, + side, - side) over the identities,
    # the one-cell slides along the leaves and their inverses; the twist swaps
    # the sides on the slide that wraps around
    triples = [(f"id:c{i}", f"id:{i}+", f"id:{i}-") for i in range(n)]
    for i in range(n):
        j = (i + 1) % n
        ends = "-+" if twist and j == 0 else "+-"
        slide = (f"c{i}>c{j}", f"{i}+>{j}{ends[0]}", f"{i}->{j}{ends[1]}")
        triples += [slide, tuple(map(R.inv.__getitem__, slide))]

    # window topology: the centre arrow is inseparable from its side companions,
    # and each side arrow is an open point
    mins = {}
    for centre, plus, minus in triples:
        mins[centre] = frozenset((centre, plus, minus))
        mins[plus], mins[minus] = frozenset((plus,)), frozenset((minus,))
    return local_data(R, mins.keys(), FiniteTopology(tuple(sorted(mins)), mins))


def mobius_model(n: int) -> LocalGroupoidData:
    """Band with the orientation-reversing gluing: one double side leaf."""
    return _band_model(n, twist=True)


def annulus_model(n: int) -> LocalGroupoidData:
    """Band with the straight gluing: two disjoint side leaves."""
    return _band_model(n, twist=False)
