"""Germ groupoids, holonomy quotients, charts, and the band foliation models.

The germ groupoid J of a window has one arrow per germ of an iterated local
procedure; its subgroupoid J0 holds the germs that are still local: loops
whose value is the identity and whose germ is window-valued and window-
continuous.  (Without the identity-value condition the projection onto the
ambient groupoid would not be constant on quotient classes; the literal
variant is available behind a flag and its failures are reported, not
raised.)  The holonomy groupoid is the quotient J/J0; the window embeds in
it and charts transport the window topology onto it.

The band models shadow the foliation of a band by circles: each of n cells
carries a three point transversal (an open point on each side of a closed
centre).  With the orientation-reversing gluing the side leaf closes only
after two circuits and the once-around germ at a centre is a non-local loop
with identity value, giving holonomy of order two; with the straight gluing
the two side leaves are disjoint circles and all holonomy is trivial.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bisections import compose_bisections, identity_bisection, is_window_bisection, relative_inverse
from .core import (
    FiniteGroupoid,
    FiniteTopology,
    ValidationReport,
    composable,
    continuity_witnesses,
    equivalence_groupoid,
    make_groupoid,
    topology_from_subbase,
    validate_groupoid,
)
from .errors import (
    NotFiniteOnInstance,
    NotSectionable,
    TooSmall,
    WellDefinednessFailure,
)
from .germs import Germ, germ, germ_closure, germ_target, window_germs
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


def _germ_groupoid_from_closure(D: LocalGroupoidData, gens, closure) -> GermGroupoid:
    G, T0 = D.G, D.t_objects
    identity = {x: germ(D, identity_bisection(G, T0.min_open[x]), x) for x in G.objects}
    # identity germs are window germs, but be explicit
    germs = sorted(set(closure).union(identity.values()), key=lambda g: (repr(g.base), g.values))
    name = {g: f"j{i}" for i, g in enumerate(germs)}
    arrows = [name[g] for g in germs]
    src = {name[g]: g.base for g in germs}
    tgt = {name[g]: germ_target(D, g) for g in germs}
    id_of = {x: name[identity[x]] for x in G.objects}
    inv = {name[g]: name[germ(D, relative_inverse(G, g), germ_target(D, g))] for g in germs}
    germ_of = dict(zip(arrows, germs))
    comp = {(h, t): name[compose_bisections(G, germ_of[h], germ_of[t])] for h, t in composable(arrows, src, tgt)}
    groupoid = make_groupoid(G.objects, arrows, src, tgt, id_of, inv, comp)
    return GermGroupoid(D, groupoid, germ_of, dict(name), tuple(gens))


def germ_groupoid(D: LocalGroupoidData, semigroup=None) -> GermGroupoid:
    """The groupoid of germs of generated bisections.

    When an explicit semigroup of bisections is given its germs are used
    directly; otherwise the closure is computed at germ level, which agrees
    with the semigroup route and scales to the band models.
    """
    if semigroup is None:
        gens, closure = germ_closure(D)
        return _germ_groupoid_from_closure(D, gens, closure)
    germs = set()
    for s in semigroup.elements:
        for x in s.domain:
            germs.add(germ(D, s, x))
    return _germ_groupoid_from_closure(D, window_germs(D), germs)


# ---------------------------------------------------------------------------
# J0 and its normality
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LocalitySubgroupoid:
    J: GermGroupoid
    arrows: frozenset  # arrow ids of J in J0
    wide: bool
    normal: bool
    witnesses: tuple

    @property
    def ok(self) -> bool:
        return self.wide and self.normal


def j0(J: GermGroupoid, value_normalised: bool = True) -> LocalitySubgroupoid:
    """Germs that are still local procedures.

    Membership: a loop germ (target equals base) whose restriction to the
    minimal open is window-valued and window-continuous; with
    ``value_normalised`` (the default) the value at the base must be the
    identity arrow.  The report checks wideness and stability under
    conjugation exhaustively.
    """
    D = J.data
    G = D.G
    K = J.groupoid
    members = set()
    for a in K.arrows:
        g = J.germ_of_arrow[a]
        if germ_target(D, g) != g.base:
            continue
        if value_normalised and g.value != G.id_of[g.base]:
            continue
        if not is_window_bisection(D, g):
            continue
        members.add(a)
    wide = all(K.id_of[x] in members for x in K.objects)
    witnesses = []
    normal = True
    for a in K.arrows:
        x, y = K.src[a], K.tgt[a]
        for d in members:
            if K.src[d] != x or K.tgt[d] != x:
                continue
            conj = K.comp[(K.comp[(a, d)], K.inv[a])]
            if conj not in members:
                normal = False
                witnesses.append((a, d, conj))
    return LocalitySubgroupoid(J, frozenset(members), wide, normal, tuple(witnesses))


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

    def vertex_orders(self) -> dict:
        K = self.groupoid
        return {
            x: sum(1 for a in K.arrows if K.src[a] == x and K.tgt[a] == x)
            for x in K.objects
        }


def holonomy_groupoid(J: GermGroupoid, J0: LocalitySubgroupoid, strict: bool = True) -> HolonomyGroupoid:
    """Quotient of the germ groupoid by the locality subgroupoid.

    ``strict`` raises WellDefinednessFailure when the projection is not
    constant on a class (possible only for the literal J0 variant); with
    strict=False the failure is recorded on the result instead.
    """
    D = J.data
    K = J.groupoid
    if not J0.ok:
        raise WellDefinednessFailure("J0 is not a wide normal subgroupoid; cannot form the quotient")
    loops_at: dict = {}
    for d in J0.arrows:
        loops_at.setdefault(K.src[d], []).append(d)

    coset_key: dict = {}
    for a in K.arrows:
        members = frozenset(K.comp[(a, d)] for d in loops_at.get(K.src[a], ()))
        coset_key[a] = members
    classes = sorted({coset_key[a] for a in K.arrows}, key=lambda s: sorted(s))
    name = {cls: f"h{i}" for i, cls in enumerate(classes)}
    coset_of = {a: name[coset_key[a]] for a in K.arrows}
    members = {name[cls]: cls for cls in classes}

    arrows = sorted(members)
    rep = {h: next(iter(members[h])) for h in arrows}
    src = {h: K.src[rep[h]] for h in arrows}
    tgt = {h: K.tgt[rep[h]] for h in arrows}
    id_of = {x: coset_of[K.id_of[x]] for x in K.objects}
    inv = {h: coset_of[K.inv[rep[h]]] for h in arrows}
    comp = {(h, g): coset_of[K.comp[(rep[h], rep[g])]] for h, g in composable(arrows, src, tgt)}
    groupoid = make_groupoid(K.objects, arrows, src, tgt, id_of, inv, comp)

    # the projection must be constant on classes
    projection = {}
    witness = None
    for h in arrows:
        values = {J.germ_of_arrow[a].value for a in members[h]}
        if len(values) != 1:
            witness = witness or (h, frozenset(values))
            if strict:
                raise WellDefinednessFailure(
                    f"projection not constant on class {h}: values {sorted(map(repr, values))}"
                )
        projection[h] = sorted(values, key=repr)[0]

    # the window embeds via any window bisection through each arrow
    gen_by_value: dict = {}
    for g in J.generator_germs:
        gen_by_value.setdefault((g.base, g.value), []).append(g)
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

    return HolonomyGroupoid(
        D,
        J,
        J0,
        groupoid,
        coset_of,
        members,
        projection,
        embedding,
        witness is None,
        witness,
        well_defined,
        injective,
    )


def holonomy_pipeline(D: LocalGroupoidData, value_normalised: bool = True, strict: bool = True) -> HolonomyGroupoid:
    J = germ_groupoid(D)
    return holonomy_groupoid(J, j0(J, value_normalised=value_normalised), strict=strict)


# ---------------------------------------------------------------------------
# charts and the holonomy topology
# ---------------------------------------------------------------------------


def chart(hol: HolonomyGroupoid, s_germ: Germ) -> dict:
    """The partial map sigma_s on window arrows whose target s covers.

    sigma_s(w) is the class of (s at beta w) composed with any window germ f
    through w; independence from the choice of f is enforced (it is also
    checked exhaustively by the test suite).
    """
    D = hol.data
    J = hol.J
    G = D.G
    base_carrier = D.t_objects.min_open[s_germ.base]
    gen_by_value: dict = {}
    for g in J.generator_germs:
        gen_by_value.setdefault((g.base, g.value), []).append(g)
    out = {}
    for w in sorted(D.window, key=repr):
        y = G.tgt[w]
        if y not in base_carrier:
            continue
        through = gen_by_value.get((G.src[w], w), [])
        if not through:
            raise NotSectionable(f"no window bisection through {w!r}")
        s_at = germ(D, s_germ, y)
        values = {hol.coset_of[J.arrow_of_germ[compose_bisections(G, s_at, f)]] for f in through}
        if len(values) != 1:
            raise WellDefinednessFailure(f"chart value at {w!r} depends on the bisection choice")
        out[w] = values.pop()
    return out


def holonomy_topology(hol: HolonomyGroupoid) -> tuple[FiniteTopology, dict]:
    """Topology on the holonomy arrows generated by chart images of opens.

    Returns the topology and a verification dict: continuity of the
    quotient's composition and inversion, and of the projection whenever an
    ambient arrow topology is supplied later by the caller (see
    `projection_continuous`).
    """
    K = hol.groupoid
    window_base = hol.data.t_window.base()
    subbase = set()
    for a in hol.J.groupoid.arrows:
        s_germ = hol.J.germ_of_arrow[a]
        table = chart(hol, s_germ)
        for V in window_base:
            piece = frozenset(table[w] for w in V if w in table)
            if piece:
                subbase.add(piece)
    T = topology_from_subbase(K.arrows, subbase)
    inversion, composition = continuity_witnesses(K, T)
    report = {
        "composition_continuous": composition is None,
        "inversion_continuous": inversion is None,
    }
    return T, report


def projection_continuous(hol: HolonomyGroupoid, T_hol: FiniteTopology, T_ambient: FiniteTopology) -> bool:
    return all(
        {hol.projection[b] for b in T_hol.min_open[a]} <= T_ambient.min_open[hol.projection[a]]
        for a in hol.groupoid.arrows
    )


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
    try:
        Mfin, name = monodromy_groupoid(M)
    except NotFiniteOnInstance:
        raise
    embed = {}
    for w in D.window:
        im = M.iprime[w]
        embed[w] = name[(im.start, im.letters)]
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
    points = centres + sides

    def flip(sign: str) -> str:
        return "-" if sign == "+" else "+"

    # leaves
    if twist:
        side_leaves = [sides]  # one leaf through both sheets
    else:
        side_leaves = [[f"{i}+" for i in range(n)], [f"{i}-" for i in range(n)]]
    leaves = [centres] + side_leaves
    R = equivalence_groupoid(points, leaves)

    def pair(a, b):
        return f"id:{a}" if a == b else f"{a}>{b}"

    # window: identities plus one-cell slides along the leaves
    window = {f"id:{p}" for p in points}
    forward_blocks = []
    for i in range(n):
        j = (i + 1) % n
        centre_slide = pair(f"c{i}", f"c{j}")
        if i + 1 < n:
            plus, minus = pair(f"{i}+", f"{j}+"), pair(f"{i}-", f"{j}-")
        elif twist:
            plus, minus = pair(f"{i}+", f"{j}-"), pair(f"{i}-", f"{j}+")
        else:
            plus, minus = pair(f"{i}+", f"{j}+"), pair(f"{i}-", f"{j}-")
        window.update({centre_slide, plus, minus})
        forward_blocks.append((centre_slide, plus, minus))

    inv_arrow = {a: R.inv[a] for a in R.arrows}
    window.update({inv_arrow[w] for w in set(window)})

    # window topology: identity blocks over each cell, slide blocks over
    # each overlap (centre value inseparable from its side companions)
    mins = {}
    for i in range(n):
        block = frozenset({f"id:c{i}", f"id:{i}+", f"id:{i}-"})
        mins[f"id:c{i}"] = block
        mins[f"id:{i}+"] = frozenset({f"id:{i}+"})
        mins[f"id:{i}-"] = frozenset({f"id:{i}-"})
    for (centre_slide, plus, minus) in forward_blocks:
        mins[centre_slide] = frozenset({centre_slide, plus, minus})
        mins[plus] = frozenset({plus})
        mins[minus] = frozenset({minus})
        back = inv_arrow[centre_slide]
        mins[back] = frozenset({back, inv_arrow[plus], inv_arrow[minus]})
        mins[inv_arrow[plus]] = frozenset({inv_arrow[plus]})
        mins[inv_arrow[minus]] = frozenset({inv_arrow[minus]})
    t_window = FiniteTopology(tuple(sorted(window)), mins)
    return local_data(R, window, t_window)


def mobius_model(n: int) -> LocalGroupoidData:
    """Band with the orientation-reversing gluing: one double side leaf."""
    return _band_model(n, twist=True)


def annulus_model(n: int) -> LocalGroupoidData:
    """Band with the straight gluing: two disjoint side leaves."""
    return _band_model(n, twist=False)
