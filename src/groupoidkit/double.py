"""Edge-symmetric double groupoids with connections, crossed modules, cubes.

A square

        a
      x --> .
    c |     | b        reads: top a, right b, left c, bottom d,
      v     v          commuting when a-then-b equals c-then-d.
      . --> .
        d

Squares compose vertically (+1, matching bottom against top) and
horizontally (+2, matching right against left); both compositions are
groupoid structures over the same edge groupoid and satisfy the interchange
law.  The connections G-(e) = (e, 1, e, 1) and G+(e) = (1, e, 1, e) are the
canonical corner fillers; they obey the transport law: the connection of a
composite edge is a two-by-two composite of the connections of its factors
padded with degenerate squares.

Two models are built here: the double groupoid of a crossed module (P, M, d),
whose squares are boundary tuples together with a filler m in M subject to
d(m) = d^-1 c^-1 a b (the boundary loop read off the square in path order),
and the double groupoid of commuting squares of any finite groupoid, which
is the same algebra with the one-element filler group.
A cube is six square indices in `_FACES` order, the catalogue indices a
cube file holds, whose squares meet along the twelve edge identifications
of `_SHELL`.  Every cube function takes and returns cubes in this form.  A
cube is commutative when its top face equals the folded composite of the
other five with connection squares filling the four corners of the net;
the exact layout is fixed in `SquareTables.net`, which every cube verdict
and the closure sweep read.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import product as iproduct, repeat
from operator import attrgetter, itemgetter
from typing import NamedTuple

from .core import FiniteGroup, FiniteGroupoid, group_by, one_object_groupoid, validate_group, vertex_group
from .errors import (
    CapExceeded,
    NotACrossedModule,
    NotACube,
    NotComposable,
    NotSpecialDouble,
)


# ---------------------------------------------------------------------------
# squares and double groupoids
# ---------------------------------------------------------------------------


class Square(NamedTuple):
    """A square as a named 5-tuple: its four edges, then its filler."""

    top: object
    right: object
    left: object
    bottom: object
    filler: object = None


# The filler group of the commuting-squares double: its one filler is None.
NO_FILLERS = FiniteGroup((None,), {(None, None): None}, None, {None: None})


@dataclass(frozen=True, eq=False)
class DoubleGroupoid:
    """Square set over an edge groupoid, with its filler algebra.

    Fillers lie in the group ``fillers``, and ``act[(e, m)]`` is the action
    of the edge e on the filler m.  A crossed-module double has the module
    in `xmod`, its M as fillers and `elem_edge` naming the edge of each P
    element; a commuting-squares double has `NO_FILLERS`, acted on
    trivially.
    """

    edge: FiniteGroupoid
    squares: frozenset
    fillers: FiniteGroup
    act: dict
    xmod: object = None
    elem_edge: dict = None

    @property
    def kind(self) -> str:
        """The model: "xmod" for the double of a crossed module, else "commuting"."""
        return "commuting" if self.xmod is None else "xmod"

    def seq(self, x, y):
        """Edge x followed by edge y."""
        return self.edge.comp[(y, x)]

    def einv(self, x):
        return self.edge.inv[x]

    def has_square(self, u: Square) -> bool:
        """u is a `Square` of D; a plain tuple equal to one is not."""
        return isinstance(u, Square) and u in self.squares

    @cached_property
    def tables(self) -> SquareTables:
        """The square tables, built on first use by `square_tables` and kept."""
        return square_tables(self)


def _check_member(D: DoubleGroupoid, u: Square) -> Square:
    if not D.has_square(u):
        raise NotComposable(f"square {u!r} does not belong to this double groupoid")
    return u


def _thin(D: DoubleGroupoid, top, right, left, bottom) -> Square:
    """The square on this boundary with the trivial filler."""
    return Square(top, right, left, bottom, D.fillers.identity)


def eps1(D: DoubleGroupoid, e) -> Square:
    """Degenerate square for vertical composition: (e, 1, 1, e)."""
    G = D.edge
    return _thin(D, e, G.id_of[G.tgt[e]], G.id_of[G.src[e]], e)


def eps2(D: DoubleGroupoid, e) -> Square:
    """Degenerate square for horizontal composition: (1, e, e, 1)."""
    G = D.edge
    return _thin(D, G.id_of[G.src[e]], e, e, G.id_of[G.tgt[e]])


def gamma_minus(D: DoubleGroupoid, e) -> Square:
    """Connection with e on top and left: (e, 1, e, 1)."""
    G = D.edge
    return _thin(D, e, G.id_of[G.tgt[e]], e, G.id_of[G.tgt[e]])


def gamma_plus(D: DoubleGroupoid, e) -> Square:
    """Connection with e on right and bottom: (1, e, 1, e)."""
    G = D.edge
    return _thin(D, G.id_of[G.src[e]], e, G.id_of[G.src[e]], e)


def _filler_algebra(D: DoubleGroupoid) -> dict:
    """Each direction's (compose, inverse), one formula each, on squares as 5-tuples.

    compose(u, v) is u then v, downward in direction 1 and rightward in
    direction 2; both return the plain 5-tuple of the result, which a
    `Square` equals and hashes as.  Nothing is checked: the callers check
    membership and boundaries.  The formulas read D's edge, filler and
    action tables, not D, so whatever keeps them keeps no reference to D.
    """
    comp, einv, mul, inv, act = D.edge.comp, D.edge.inv, D.fillers.mul, D.fillers.inv, D.act

    def down(u, v):
        return u.top, comp[v.right, u.right], comp[v.left, u.left], v.bottom, mul[v.filler, act[einv[v.right], u.filler]]

    def across(u, v):
        return comp[v.top, u.top], v.right, u.left, comp[v.bottom, u.bottom], mul[act[einv[v.bottom], u.filler], v.filler]

    return {
        1: (down, lambda u: (u.bottom, einv[u.right], einv[u.left], u.top, inv[act[u.right, u.filler]])),
        2: (across, lambda u: (einv[u.top], u.left, u.right, einv[u.bottom], act[u.bottom, inv[u.filler]])),
    }


def _numbered(index: dict, squares: list) -> list:
    """The index of each of `squares`; NotComposable names the first that is not in `index`."""
    out = list(map(index.get, squares))
    if None in out:
        raise NotComposable(f"square {Square(*squares[out.index(None)])!r} does not belong to this double groupoid")
    return out


# Each direction's name, the side of v that meets u, and the side of u it meets.
_MEETS = {1: ("vertical", "top", "bottom"), 2: ("horizontal", "left", "right")}


def compose_squares(D: DoubleGroupoid, direction: int, u: Square, v: Square) -> Square:
    """u then v: downward for direction 1, rightward for direction 2."""
    _check_member(D, u)
    _check_member(D, v)
    if direction not in (1, 2):
        raise NotComposable(f"direction must be 1 or 2, got {direction!r}")
    name, meets, side = _MEETS[direction]
    if getattr(v, meets) != getattr(u, side):
        raise NotComposable(f"{name} composition needs v.{meets} == u.{side}")
    return _check_member(D, Square(*_filler_algebra(D)[direction][0](u, v)))


def inverse_square(D: DoubleGroupoid, direction: int, u: Square) -> Square:
    _check_member(D, u)
    if direction not in (1, 2):
        raise NotComposable(f"direction must be 1 or 2, got {direction!r}")
    return _check_member(D, Square(*_filler_algebra(D)[direction][1](u)))


def commuting_squares(G: FiniteGroupoid) -> DoubleGroupoid:
    """All boundary tuples with a-then-b equal to c-then-d.

    Such a square is a pair of factorisations of one arrow, so the
    composable pairs are grouped by composite and each group is squared.
    """
    factorisations = group_by(G.composable_pairs(), G.comp.__getitem__)
    squares = frozenset(
        Square(a, b, c, d) for paths in factorisations.values() for b, a in paths for d, c in paths
    )
    return DoubleGroupoid(G, squares, NO_FILLERS, {(e, None): None for e in G.arrows})


# ---------------------------------------------------------------------------
# crossed modules
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CrossedModule:
    """Groups P and M with boundary M -> P and a P-action on M.

    With products written in path order the axioms read
    d(p.m) = p d(m) p^-1 and (dm).m' = m m' m^-1.
    """

    P: FiniteGroup
    M: FiniteGroup
    boundary: dict
    action: dict  # (p, m) -> m


def validate_crossed_module(X: CrossedModule) -> list:
    """(kind, witness) for each failed axiom, stopping after the first stage that fails:
    P and M are groups; the boundary is total; it is a homomorphism and the
    action is total; the action and crossed module laws."""
    P, M, d, act = X.P, X.M, X.boundary, X.action
    Ps, Ms = P.elements, M.elements
    p_set, m_set = set(Ps), set(Ms)
    bad = [(f"{name}-{v.rule}", v.witness) for name, K in (("P", P), ("M", M)) for v in validate_group(K).violations]
    bad = bad or [("boundary-total", m) for m in Ms if d.get(m) not in p_set]
    if bad:
        return bad
    bad = [("boundary-homomorphism", (m, n)) for m, n in iproduct(Ms, Ms) if d[M.mul[(m, n)]] != P.mul[(d[m], d[n])]]
    bad += [("action-total", (p, m)) for p, m in iproduct(Ps, Ms) if (p, m) not in act or act[(p, m)] not in m_set]
    if bad:
        return bad
    bad = [("action-identity", m) for m in Ms if act[(P.identity, m)] != m]
    bad += [("action-compose", (p, q, m)) for p, q, m in iproduct(Ps, Ps, Ms)
            if act[(P.mul[(p, q)], m)] != act[(p, act[(q, m)])]]
    bad += [("action-homomorphism", (p, m, n)) for p, m, n in iproduct(Ps, Ms, Ms)
            if act[(p, M.mul[(m, n)])] != M.mul[(act[(p, m)], act[(p, n)])]]
    bad += [("equivariance", (p, m)) for p, m in iproduct(Ps, Ms) if d[act[(p, m)]] != P.mul[(P.mul[(p, d[m])], P.inv[p])]]
    bad += [("peiffer", (m, n)) for m, n in iproduct(Ms, Ms) if act[(d[m], n)] != M.mul[(M.mul[(m, n)], M.inv[m])]]
    return bad


def inner_crossed_module(K: FiniteGroup) -> CrossedModule:
    action = {
        (p, m): K.mul[(K.mul[(p, m)], K.inv[p])]
        for p in K.elements
        for m in K.elements
    }
    return CrossedModule(K, K, {m: m for m in K.elements}, action)


def trivial_boundary_crossed_module(P: FiniteGroup, M: FiniteGroup) -> CrossedModule:
    """Central-style data: trivial boundary, trivial action (M must be abelian)."""
    if not M.is_abelian():
        raise NotACrossedModule("trivial boundary and action need an abelian M")
    action = {(p, m): m for p in P.elements for m in M.elements}
    return CrossedModule(P, M, {m: P.identity for m in M.elements}, action)


def xmod_to_double(X: CrossedModule) -> DoubleGroupoid:
    """Squares are boundary tuples with fillers m satisfying dm = d^-1 c^-1 a b.

    M is grouped by boundary, so each boundary tuple reads the fillers of
    its defect d^-1 c^-1 a b off its group.
    """
    bad = validate_crossed_module(X)
    if bad:
        raise NotACrossedModule(f"axiom failures: {bad[:3]!r}")
    edge = one_object_groupoid(X.P)
    name = {k: "id:o" if k == X.P.identity else f"g:{k}" for k in X.P.elements}
    fibres = {name[p]: ms for p, ms in group_by(X.M.elements, X.boundary.__getitem__).items()}
    comp, inv = edge.comp, edge.inv
    squares = frozenset(
        Square(a, b, c, d, m)
        for a, b, c, d in iproduct(edge.arrows, repeat=4)
        for m in fibres.get(comp[(b, comp[(a, comp[(inv[c], inv[d])])])], ())
    )
    act = {(name[p], m): X.action[(p, m)] for p in X.P.elements for m in X.M.elements}
    return DoubleGroupoid(edge, squares, X.M, act, X, name)


def double_to_xmod(D: DoubleGroupoid) -> CrossedModule:
    """Extract the crossed module of a one-object double groupoid.

    P is the edge vertex group; M consists of the squares with all faces
    but the top degenerate, multiplied horizontally; the boundary reads the
    top edge and the action conjugates through connection squares.
    """
    G = D.edge
    if len(G.objects) != 1:
        raise NotSpecialDouble("crossed module extraction needs one edge object")
    for e in G.arrows:
        if not (D.has_square(gamma_minus(D, e)) and D.has_square(gamma_plus(D, e))):
            raise NotSpecialDouble(f"missing connection squares for edge {e!r}")
    P = vertex_group(G, G.objects[0])
    one = P.identity
    m_squares = tuple(
        sorted(
            (u for u in D.squares if u.right == one and u.left == one and u.bottom == one),
            key=repr,
        )
    )
    ident = _thin(D, one, one, one, one)
    mul = {(u, v): compose_squares(D, 2, u, v) for u, v in iproduct(m_squares, m_squares)}
    inv = {u: inverse_square(D, 2, u) for u in m_squares}
    M = FiniteGroup(m_squares, mul, ident, inv)
    boundary = {u: u.top for u in m_squares}

    def act(p_edge, u):
        left = compose_squares(D, 2, gamma_minus(D, p_edge), u)
        conj = compose_squares(D, 2, left, inverse_square(D, 2, gamma_minus(D, p_edge)))
        pinv = G.inv[p_edge]
        corner = compose_squares(D, 1, gamma_plus(D, pinv), gamma_minus(D, pinv))
        return compose_squares(D, 1, conj, corner)

    action = {(p, u): act(p, u) for p in P.elements for u in m_squares}
    X = CrossedModule(P, M, boundary, action)
    bad = validate_crossed_module(X)
    if bad:
        raise NotSpecialDouble(f"extracted data fails crossed module axioms: {bad[:3]!r}")
    return X


def roundtrip_isomorphism(D: DoubleGroupoid) -> dict:
    """Explicit isomorphism X -> double_to_xmod(D) for the double D of X = D.xmod; NotSpecialDouble if D has none."""
    X = D.xmod
    if X is None:
        raise NotSpecialDouble("the round trip needs the double of a crossed module")
    Y = double_to_xmod(D)
    phi_p = {p: D.elem_edge[p] for p in X.P.elements}
    phi_m = {
        m: Square(D.elem_edge[X.boundary[m]], "id:o", "id:o", "id:o", m)
        for m in X.M.elements
    }
    Ps, Ms = X.P.elements, X.M.elements
    ok = (
        sorted(map(repr, phi_p.values())) == sorted(map(repr, Y.P.elements))
        and sorted(map(repr, phi_m.values())) == sorted(map(repr, Y.M.elements))
        and all(phi_p[X.P.mul[(p, q)]] == Y.P.mul[(phi_p[p], phi_p[q])] for p, q in iproduct(Ps, Ps))
        and all(phi_m[X.M.mul[(m, n)]] == Y.M.mul[(phi_m[m], phi_m[n])] for m, n in iproduct(Ms, Ms))
        and all(phi_p[X.boundary[m]] == Y.boundary[phi_m[m]] for m in Ms)
        and all(phi_m[X.action[(p, m)]] == Y.action[(phi_p[p], phi_m[m])] for p, m in iproduct(Ps, Ms))
    )
    return {"double": D, "extracted": Y, "phi_p": phi_p, "phi_m": phi_m, "is_isomorphism": ok}


# ---------------------------------------------------------------------------
# law checks
# ---------------------------------------------------------------------------


def transport_check(D: DoubleGroupoid) -> list:
    """Both connections against all composable edge pairs; empty iff the law holds."""
    G = D.edge
    bad = []
    for f, e in G.composable_pairs():
        ef = D.seq(e, f)
        row1 = compose_squares(D, 2, gamma_minus(D, e), eps1(D, f))
        row2 = compose_squares(D, 2, eps2(D, f), gamma_minus(D, f))
        if compose_squares(D, 1, row1, row2) != gamma_minus(D, ef):
            bad.append(("transport-minus", (e, f)))
        row1 = compose_squares(D, 2, gamma_plus(D, e), eps2(D, e))
        row2 = compose_squares(D, 2, eps1(D, e), gamma_plus(D, f))
        if compose_squares(D, 1, row1, row2) != gamma_plus(D, ef):
            bad.append(("transport-plus", (e, f)))
    return bad


@dataclass(frozen=True)
class InterchangeReport:
    ok: bool
    method: str
    blocks_checked: int
    witnesses: tuple


def _interchange_direct(D: DoubleGroupoid) -> InterchangeReport:
    """Every block read off the square rows, in repr order of (u, v, w, z).

    A block is four squares, u and v over w and z, on a 3x3 grid of points.
    A commuting-squares double (``D.xmod is None``) has exactly
    sum_x s(x)^8 blocks, s(x) the number of arrows out of x: each square is
    fixed by its boundary (the double is thin; Brown & Higgins, "On the
    algebra of cubes", JPAA 21, 1981), and a commuting grid by its corner x
    and one arrow from x to each of the other eight points.  So such a
    double past MAX_INTERCHANGE_BLOCKS raises CapExceeded before any row is
    read.  A crossed-module double reaches here from `interchange_check`
    only with at most 40 squares, so with at most 40^4 blocks, under the
    cap.  The walk counts its blocks too, and raises the same CapExceeded
    once the count passes the cap: that keeps the cap binding on a double
    built by hand.

    A block's lower row (w, z) depends only on the bottom edges of u and v,
    so its columns w, z and w +2 z are built once per edge pair.  Cost: one
    pass over the edges to count, then four row reads per block.
    """
    refused = f"interchange check passed the cap of {MAX_INTERCHANGE_BLOCKS} blocks"
    stars = Counter(map(D.edge.src.__getitem__, D.edge.arrows))
    if D.xmod is None and sum(s ** 8 for s in stars.values()) > MAX_INTERCHANGE_BLOCKS:
        raise CapExceeded(refused)
    tab = D.tables
    sq, c1, c2 = tab.squares, tab.comp1, tab.comp2
    lower: dict = {}
    bad = []
    blocks = 0
    for u in range(len(sq)):
        for v, uv in c2[u].items():
            key = (sq[u].bottom, sq[v].bottom)
            if key not in lower:
                pairs = [(w, z, wz) for w in c1[u] for z, wz in c2[w].items() if sq[z].top == key[1]]
                lower[key] = tuple(zip(*pairs)) or ((), (), ())
            ws, zs, wzs = lower[key]
            blocks += len(ws)
            if blocks > MAX_INTERCHANGE_BLOCKS:
                raise CapExceeded(refused)
            uws = map(c1[u].__getitem__, ws)
            lhs = list(map(c1[uv].__getitem__, wzs))
            rhs = list(map(dict.__getitem__, map(c2.__getitem__, uws), map(c1[v].__getitem__, zs)))
            if lhs != rhs:
                bad.extend((u, v, w, z) for w, z, left, right in zip(ws, zs, lhs, rhs) if left != right)
    witnesses = tuple(tuple(map(sq.__getitem__, block)) for block in bad[:3])
    return InterchangeReport(not bad, "direct", blocks, witnesses)


def _interchange_factored(D: DoubleGroupoid) -> InterchangeReport:
    """Exhaustive check through the block equation's closed form.

    For fillered squares the two sides of the interchange law always share
    their boundary, and cancelling the common outer factors reduces the law
    for every block to m_z . (g^-1 . m_u) = ((d(m_z) g^-1) . m_u) . m_z with
    g ranging over P and m_u, m_z over M.  Checking that identity for all
    triples therefore covers every composable block exactly.
    """
    X = D.xmod
    P, M = X.P, X.M
    bad = []
    count = 0
    for mz in M.elements:
        for mu in M.elements:
            for g in P.elements:
                count += 1
                ginv = P.inv[g]
                lhs = M.mul[(mz, X.action[(ginv, mu)])]
                rhs = M.mul[(X.action[(P.mul[(X.boundary[mz], ginv)], mu)], mz)]
                if lhs != rhs:
                    bad.append((mz, mu, g))
    return InterchangeReport(not bad, "factored", count, tuple(bad[:3]))


def interchange_check(D: DoubleGroupoid) -> InterchangeReport:
    """(u +2 v) +1 (w +2 z) == (u +1 w) +2 (v +1 z) over all blocks.

    A crossed-module double with more than 40 squares is checked through
    the equivalent per-triple identity (`_interchange_factored`); any
    other double by enumerating the blocks (`_interchange_direct`).
    """
    if D.xmod is not None and len(D.squares) > 40:
        return _interchange_factored(D)
    return _interchange_direct(D)


def square_groupoid_axioms(D: DoubleGroupoid, direction: int) -> list:
    """Identity, inverse and associativity laws of one composition.

    Exhaustive over the square rows, witnesses in repr order.  Associativity
    is cubic, so the squares are counted first: past MAX_AXIOM_SQUARES of
    them it raises CapExceeded before any law is checked.  A degenerate
    square missing from D raises NotComposable naming it.
    """
    if len(D.squares) > MAX_AXIOM_SQUARES:
        raise CapExceeded(f"axiom sweep limited to {MAX_AXIOM_SQUARES} squares")
    if direction not in (1, 2):
        raise NotComposable(f"direction must be 1 or 2, got {direction!r}")
    tab = D.tables
    sq, idx = tab.squares, tab.index
    comp, inv, degenerate = (tab.comp1, tab.inv1, eps1) if direction == 1 else (tab.comp2, tab.inv2, eps2)
    bad = []
    for u, s in enumerate(sq):
        ends = (s.top, s.bottom) if direction == 1 else (s.left, s.right)
        lid, rid = (idx[_check_member(D, degenerate(D, e))] for e in ends)
        if comp[lid].get(u) != u:
            bad.append(("left-identity", s))
        if comp[u].get(rid) != u:
            bad.append(("right-identity", s))
        if comp[u].get(inv[u]) != lid:
            bad.append(("inverse", s))
    for u in range(len(sq)):
        for v, uv in comp[u].items():
            for w, vw in comp[v].items():
                if comp[uv].get(w) != comp[u].get(vw):
                    bad.append(("associativity", (sq[u], sq[v], sq[w])))
    return bad


# ---------------------------------------------------------------------------
# cubes
# ---------------------------------------------------------------------------


# A cube's six faces.  With F = (a, b, c, d) in front, K = (a', b', c', d') in
# back, and depth edges p, q, r, s at the four front corners, the faces sit as
# T = (a, q, p, a'), B = (d, s, r, d'), L = (c, r, p, c'), R = (b, s, q, b').
_FACES = ("top", "bottom", "left", "right", "front", "back")
# A shell's twelve edge identifications, (face, side) == (face, side) written as
# (face, side, face, side) with faces indexed as in _FACES, in the order `validate_cube` reports them.
_SHELL = (
    (0, "top", 4, "top"), (0, "bottom", 5, "top"), (1, "top", 4, "bottom"), (1, "bottom", 5, "bottom"),
    (2, "top", 4, "left"), (2, "bottom", 5, "left"), (2, "left", 0, "left"), (2, "right", 1, "left"),
    (3, "top", 4, "right"), (3, "bottom", 5, "right"), (3, "left", 0, "right"), (3, "right", 1, "right"),
)
# Composition of cubes, d -> (keep, composed), as indices into _FACES.  c2
# follows c1 in direction d when face `keep` of c2 is face `keep ^ 1` of c1
# (top/bottom, left/right, front/back).  The composite keeps c1's face
# `keep`, takes c2's face `keep ^ 1`, and composes each other face of c1
# with c2's in the square table named beside it.
_DIRECTIONS = {
    1: (0, ((2, "comp2"), (3, "comp2"), (4, "comp1"), (5, "comp1"))),
    2: (2, ((0, "comp2"), (1, "comp2"), (4, "comp2"), (5, "comp2"))),
    3: (4, ((0, "comp1"), (1, "comp1"), (2, "comp1"), (3, "comp1"))),
}


def validate_cube(D: DoubleGroupoid, cube) -> tuple:
    """`cube`, once it is a tuple of six square indices of D, in `_FACES` order, whose squares
    meet along every identification of `_SHELL`; otherwise NotACube names the first failure."""
    squares = D.tables.squares
    if type(cube) is not tuple or len(cube) != 6 or not all(type(i) is int and 0 <= i < len(squares) for i in cube):
        raise NotACube(f"a cube is six indices of the {len(squares)} squares, got {cube!r}")
    faces = tuple(map(squares.__getitem__, cube))
    for i, (f, side, g, other) in enumerate(_SHELL):
        x, y = getattr(faces[f], side), getattr(faces[g], other)
        if x != y:
            raise NotACube(f"edge identification {i} fails: {x!r} != {y!r}")
    return cube


def net_composite(D: DoubleGroupoid, cube) -> int:
    """The fold of the five non-top faces of a cube, `SquareTables.net`, as a square index."""
    return D.tables.net(*validate_cube(D, cube)[1:])


def is_commutative_cube(D: DoubleGroupoid, cube) -> bool:
    return D.tables.is_commutative(validate_cube(D, cube))


def _cube_of(D: DoubleGroupoid, *faces: Square) -> tuple:
    """Six squares, in `_FACES` order, as a cube; NotACube for a face that is not a square of D."""
    index = D.tables.index
    for face in faces:
        if face not in index:
            raise NotACube(f"face {face!r} is not a square here")
    return tuple(map(index.__getitem__, faces))


def prism_cube(D: DoubleGroupoid, u: Square) -> tuple:
    """u as front and back of a depth-degenerate cube."""
    return _cube_of(D, eps1(D, u.top), eps1(D, u.bottom), eps1(D, u.left), eps1(D, u.right), u, u)


def corner_square(D: DoubleGroupoid, e) -> Square:
    """(1, e, e, 1): the two-connection composite filling an inner corner."""
    return compose_squares(D, 1, gamma_plus(D, e), gamma_minus(D, e))


def square_as_cube(D: DoubleGroupoid, u: Square, bottom: Square | None = None) -> tuple:
    """u as the lid of a height-degenerate cube; `bottom` defaults to u."""
    corners = corner_square(D, u.left), corner_square(D, u.right)
    return _cube_of(D, u, u if bottom is None else bottom, *corners, eps1(D, u.top), eps1(D, u.bottom))


def compose_cubes(D: DoubleGroupoid, direction: int, c1, c2) -> tuple:
    """The composite of two cubes in direction 1 (down), 2 (right) or 3 (deep)."""
    c1, c2 = validate_cube(D, c1), validate_cube(D, c2)
    if direction not in _DIRECTIONS:
        raise NotComposable(f"direction must be 1, 2 or 3, got {direction!r}")
    keep = _DIRECTIONS[direction][0]
    if c1[keep ^ 1] != c2[keep]:
        raise NotComposable(f"direction {direction} needs {_FACES[keep ^ 1]} == {_FACES[keep]}")
    cols = tuple(zip(c2))
    (out,) = _composites(direction, c1, cols, _columns(D.tables, direction, cols))
    return validate_cube(D, out)


def cube_composition_closure(D: DoubleGroupoid, c1, c2, direction: int) -> dict:
    """Compose two commutative cubes and report the composite's verdict."""
    if not is_commutative_cube(D, c1) or not is_commutative_cube(D, c2):
        raise NotACube("closure check expects commutative inputs")
    composite = compose_cubes(D, direction, c1, c2)
    return {
        "direction": direction,
        "commutative": is_commutative_cube(D, composite),
        "composite": composite,
    }


# Size caps for the exhaustive sweeps.  The cube caps are at least 2.5x the
# tightest fixtures: annulus3's 19,683 shells (3.3x), c4-window's 12,582,912
# composites (2.7x).  The block cap is 3.3x mobius3's 10,097,379 blocks.  The
# axiom sweep is cubic in the squares and stays on small doubles.
MAX_CUBE_SHELLS = 1 << 16
MAX_CUBE_COMPOSITES = 1 << 25
MAX_INTERCHANGE_BLOCKS = 1 << 25
MAX_AXIOM_SQUARES = 40


class _Lazy(dict):
    """A dict that builds a missing entry on its first lookup and keeps it."""

    def __init__(self, build):
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


@dataclass(frozen=True, eq=False)
class SquareTables:
    """The composition tables of a double groupoid, over square indices.

    Squares are numbered in repr order.  ``comp1[u]`` and ``comp2[u]`` are
    rows mapping each square v composable after u to the index of the
    composite; ``inv1[u]`` and ``inv2[u]`` are inverse indices.  All four
    are memos over the `_filler_algebra` formulas that `compose_squares`
    and `inverse_square` also apply, filled one row or entry at a time on
    first lookup, so a caller pays only for the rows it reads.  ``einv``
    is the edge inverse map.  Nothing here refers back to the double that
    owns the tables: the row builders hold its edge, filler and action
    tables, so the double is freed by reference counting alone.
    """

    squares: tuple
    index: dict
    comp1: dict
    comp2: dict
    inv1: dict
    inv2: dict
    gplus: dict
    gminus: dict
    einv: dict

    def net(self, B: int, L: int, R: int, F: int, K: int) -> int:
        """Fold the five non-top faces flat and compose, corners filled by
        connections:

            [ G+(c)    front    -2 G+(b)   ]
            [ left     bottom   -2 right   ]
            [ -1 G+(c'), -1 back, G-(b'^-1)]
        """
        sq, c1, c2, inv1, inv2 = self.squares, self.comp1, self.comp2, self.inv1, self.inv2
        gplus = self.gplus
        front, back = sq[F], sq[K]
        row1 = c2[c2[gplus[front.left]][F]][inv2[gplus[front.right]]]
        row2 = c2[c2[L][B]][inv2[R]]
        row3 = c2[c2[inv1[gplus[back.left]]][inv1[K]]][self.gminus[self.einv[back.right]]]
        return c1[c1[row1][row2]][row3]

    def is_commutative(self, cube: tuple) -> bool:
        T, B, L, R, F, K = cube
        return T == self.net(B, L, R, F, K)


def square_tables(D: DoubleGroupoid) -> SquareTables:
    """D's `SquareTables`; a connection square missing from D raises NotComposable naming it.

    Each row entry and inverse is one `_filler_algebra` formula and one
    index lookup; a composite outside D raises NotComposable naming it
    when its row or inverse is read.
    """
    squares = tuple(sorted(D.squares, key=repr))
    index = {u: i for i, u in enumerate(squares)}
    (down, inverse1), (across, inverse2) = _filler_algebra(D).values()

    def row(compose, bucket: dict, side: str, u: int) -> dict:
        """Row u: each v in the bucket of u's `side` edge, mapped to the index of compose(u, v)."""
        s = squares[u]
        vs = bucket.get(getattr(s, side), ())
        return dict(zip(vs, _numbered(index, [compose(s, v) for v in map(squares.__getitem__, vs)])))

    n = range(len(squares))
    by_top, by_left = group_by(n, lambda v: squares[v].top), group_by(n, lambda v: squares[v].left)
    comp1, comp2 = _Lazy(partial(row, down, by_top, "bottom")), _Lazy(partial(row, across, by_left, "right"))
    inv1 = _Lazy(lambda u: _numbered(index, [inverse1(squares[u])])[0])
    inv2 = _Lazy(lambda u: _numbered(index, [inverse2(squares[u])])[0])
    gplus = {e: index[_check_member(D, gamma_plus(D, e))] for e in D.edge.arrows}
    gminus = {e: index[_check_member(D, gamma_minus(D, e))] for e in D.edge.arrows}
    return SquareTables(squares, index, comp1, comp2, inv1, inv2, gplus, gminus, D.edge.inv)


def _columns(tab: SquareTables, direction: int, cols: tuple) -> _Lazy:
    """A bucket's composed face columns, keyed (face, square of c1), each built on first use."""
    tables = dict(_DIRECTIONS[direction][1])
    return _Lazy(lambda key: tuple(map(getattr(tab, tables[key[0]])[key[1]].__getitem__, cols[key[0]])))


def _composites(direction: int, c1: tuple, cols: tuple, columns: _Lazy):
    """Composites of c1 with each cube of a bucket, from the bucket's face columns."""
    keep, composed = _DIRECTIONS[direction]
    out = list(cols)
    out[keep] = repeat(c1[keep], len(cols[keep]))
    for face, _ in composed:
        out[face] = columns[face, c1[face]]
    return zip(*out)


def cube_closure_sweep(D: DoubleGroupoid) -> dict:
    """Exhaustively compose all pairs of commutative cubes in each direction.

    Returns counts plus the (hopefully empty) list of violating pairs.
    ``composites_checked`` counts every composite tested, one per pair and
    direction.

    The commutative cubes are bucketed per direction by the face c2 meets
    c1 on.  Within a bucket a composite's face column depends only on the
    face and on c1's square there, and few distinct squares recur, so each
    composed column is built once per (face, square) and dropped with the
    bucket.  Every composite is then checked against the set of
    commutative shells.  The verdict `tab.is_commutative` is a pure
    function of the 6-tuple, and it has already been evaluated on every
    enumerated shell; a composite equal to a shell that passed is
    therefore commutative by that evaluation.  When some composite of a
    c1 lies outside the set, that c1's composites outside it are evaluated
    again in the same pass; each is a violation exactly when that
    evaluation fails.  The set changes how often the fold runs, never a
    verdict.  Violations are listed in the order of c1 among the
    commutative cubes, then of direction, then of c2 in its bucket.

    Raises CapExceeded when the shells pass MAX_CUBE_SHELLS, found during
    their enumeration, or when the composites, counted first, would pass
    MAX_CUBE_COMPOSITES: that cap is met before any composite is built.
    """
    tab = D.tables
    cubes = enumerate_cubes(D)
    commutative = [c for c in cubes if tab.is_commutative(c)]
    known = set(commutative)
    joins = [
        (direction, {k: (c2s, tuple(zip(*c2s))) for k, c2s in group_by(commutative, itemgetter(keep)).items()},
         group_by(commutative, itemgetter(keep ^ 1)))
        for direction, (keep, _) in _DIRECTIONS.items()
    ]
    checked = sum(
        len(c2s) * len(meeting.get(k, ())) for _, buckets, meeting in joins for k, (c2s, _) in buckets.items()
    )
    if checked > MAX_CUBE_COMPOSITES:
        raise CapExceeded(
            f"cube closure sweep would check {checked} composites, over the cap of {MAX_CUBE_COMPOSITES}"
        )
    violations = []
    for direction, buckets, meeting in joins:
        for k, (bucket, cols) in buckets.items():
            columns = _columns(tab, direction, cols)
            for c1 in meeting.get(k, ()):
                if not known.issuperset(_composites(direction, c1, cols, columns)):
                    violations += [
                        (direction, c1, c2) for c2, out in zip(bucket, _composites(direction, c1, cols, columns))
                        if out not in known and not tab.is_commutative(out)
                    ]
    if violations:
        at = {c: i for i, c in enumerate(commutative)}
        violations.sort(key=lambda v: (at[v[1]], v[0]))
    return {
        "cubes": len(cubes),
        "commutative": len(commutative),
        "composites_checked": checked,
        "violations": violations,
    }


def enumerate_cubes(D: DoubleGroupoid) -> list[tuple]:
    """All cube shells over D, as square indices in `_FACES` order.

    The shells come sorted by (front, top, left, right, bottom, back).  A
    join on shared edges: each face after the front is looked up by the
    edges it shares with the faces already placed.  The MAX_CUBE_SHELLS cap
    is found during the walk: CapExceeded is raised as soon as it is passed.
    """
    squares = D.tables.squares
    tops, lefts, rights, bottoms = (tuple(map(attrgetter(s), squares)) for s in ("top", "left", "right", "bottom"))
    n = range(len(squares))
    by_top = group_by(n, tops.__getitem__)
    by_top_left = group_by(n, list(zip(tops, lefts)).__getitem__)
    by_top_left_right = group_by(n, list(zip(tops, lefts, rights)).__getitem__)
    by_boundary = group_by(n, list(zip(tops, rights, lefts, bottoms)).__getitem__)
    out = []
    for F in n:
        for T in by_top.get(tops[F], ()):
            for L in by_top_left.get((lefts[F], lefts[T]), ()):
                for R in by_top_left.get((rights[F], rights[T]), ()):
                    for B in by_top_left_right.get((bottoms[F], rights[L], rights[R]), ()):
                        backs = by_boundary.get((bottoms[T], bottoms[R], bottoms[L], bottoms[B]), ())
                        out.extend((T, B, L, R, F, K) for K in backs)
                        if len(out) > MAX_CUBE_SHELLS:
                            raise CapExceeded(f"cube enumeration passed the cap of {MAX_CUBE_SHELLS} shells")
    return out
