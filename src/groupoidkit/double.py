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

Two models are built here: the double groupoid of commuting squares of any
finite groupoid, and the double groupoid of a crossed module (P, M, d),
whose squares are boundary tuples together with a filler m in M subject to
d(m) = d^-1 c^-1 a b (the boundary loop read off the square in path order).
A cube (six squares with matched edges) is commutative when its top face
equals the folded composite of the other five with connection squares
filling the four corners of the net; the exact layout is fixed in
`SquareTables.net`, which every cube verdict and the closure sweep read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import filterfalse, repeat

from .core import FiniteGroup, FiniteGroupoid, one_object_groupoid
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


@dataclass(frozen=True)
class Square:
    top: object
    right: object
    left: object
    bottom: object
    filler: object = None


@dataclass(frozen=True, eq=False)
class DoubleGroupoid:
    """Square set over an edge groupoid, with composition data.

    ``kind`` is "commuting" (squares carry no filler) or "xmod" (fillers in
    the crossed module's group M, with `xmod`, `edge_elem` and `elem_edge`
    populated).
    """

    edge: FiniteGroupoid
    squares: frozenset
    kind: str
    xmod: object = None
    edge_elem: dict = None
    elem_edge: dict = None

    def seq(self, x, y):
        """Edge x followed by edge y."""
        return self.edge.comp[(y, x)]

    def einv(self, x):
        return self.edge.inv[x]

    def has_square(self, u: Square) -> bool:
        return u in self.squares

    @cached_property
    def tables(self) -> SquareTables:
        """The square tables, built on first use by `square_tables` and kept."""
        return square_tables(self)


def _check_member(D: DoubleGroupoid, u: Square) -> Square:
    if not D.has_square(u):
        raise NotComposable(f"square {u!r} does not belong to this double groupoid")
    return u


def _act(D: DoubleGroupoid, edge, m):
    """Action of an edge (as a P element) on a filler."""
    return D.xmod.action[(D.edge_elem[edge], m)]


def _thin(D: DoubleGroupoid, top, right, left, bottom) -> Square:
    """The square on this boundary with the trivial filler."""
    filler = None if D.kind == "commuting" else D.xmod.M.identity
    return Square(top, right, left, bottom, filler)


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


def compose_squares(D: DoubleGroupoid, direction: int, u: Square, v: Square) -> Square:
    """u then v: downward for direction 1, rightward for direction 2."""
    _check_member(D, u)
    _check_member(D, v)
    if direction == 1:
        if v.top != u.bottom:
            raise NotComposable("vertical composition needs v.top == u.bottom")
        if D.kind == "commuting":
            filler = None
        else:
            M = D.xmod.M
            filler = M.mul[(v.filler, _act(D, D.einv(v.right), u.filler))]
        out = Square(u.top, D.seq(u.right, v.right), D.seq(u.left, v.left), v.bottom, filler)
    elif direction == 2:
        if v.left != u.right:
            raise NotComposable("horizontal composition needs v.left == u.right")
        if D.kind == "commuting":
            filler = None
        else:
            M = D.xmod.M
            filler = M.mul[(_act(D, D.einv(v.bottom), u.filler), v.filler)]
        out = Square(D.seq(u.top, v.top), v.right, u.left, D.seq(u.bottom, v.bottom), filler)
    else:
        raise NotComposable(f"direction must be 1 or 2, got {direction!r}")
    return _check_member(D, out)


def inverse_square(D: DoubleGroupoid, direction: int, u: Square) -> Square:
    _check_member(D, u)
    if direction == 1:
        if D.kind == "commuting":
            filler = None
        else:
            M = D.xmod.M
            filler = M.inv[_act(D, u.right, u.filler)]
        out = Square(u.bottom, D.einv(u.right), D.einv(u.left), u.top, filler)
    elif direction == 2:
        if D.kind == "commuting":
            filler = None
        else:
            M = D.xmod.M
            filler = _act(D, u.bottom, D.xmod.M.inv[u.filler])
        out = Square(D.einv(u.top), u.left, u.right, D.einv(u.bottom), filler)
    else:
        raise NotComposable(f"direction must be 1 or 2, got {direction!r}")
    return _check_member(D, out)


def commuting_squares(G: FiniteGroupoid) -> DoubleGroupoid:
    """All boundary tuples with a-then-b equal to c-then-d.

    Such a square is a pair of factorisations of one arrow, so the
    composable pairs are grouped by composite and each group is squared.
    """
    factorisations: dict = {}
    for h, g in G.composable_pairs():
        factorisations.setdefault(G.comp[(h, g)], []).append((g, h))
    squares = frozenset(
        Square(a, b, c, d) for paths in factorisations.values() for a, b in paths for c, d in paths
    )
    return DoubleGroupoid(G, squares, "commuting")


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
    bad = []
    P, M = X.P, X.M
    for m in M.elements:
        if X.boundary.get(m) not in set(P.elements):
            bad.append(("boundary-total", m))
    if bad:
        return bad
    for m in M.elements:
        for n in M.elements:
            if X.boundary[M.mul[(m, n)]] != P.mul[(X.boundary[m], X.boundary[n])]:
                bad.append(("boundary-homomorphism", (m, n)))
    for p in P.elements:
        for m in M.elements:
            if (p, m) not in X.action or X.action[(p, m)] not in set(M.elements):
                bad.append(("action-total", (p, m)))
    if bad:
        return bad
    for m in M.elements:
        if X.action[(P.identity, m)] != m:
            bad.append(("action-identity", m))
    for p in P.elements:
        for q in P.elements:
            for m in M.elements:
                if X.action[(P.mul[(p, q)], m)] != X.action[(p, X.action[(q, m)])]:
                    bad.append(("action-compose", (p, q, m)))
    for p in P.elements:
        for m in M.elements:
            for n in M.elements:
                if X.action[(p, M.mul[(m, n)])] != M.mul[(X.action[(p, m)], X.action[(p, n)])]:
                    bad.append(("action-homomorphism", (p, m, n)))
    for p in P.elements:
        for m in M.elements:
            lhs = X.boundary[X.action[(p, m)]]
            rhs = P.mul[(P.mul[(p, X.boundary[m])], P.inv[p])]
            if lhs != rhs:
                bad.append(("equivariance", (p, m)))
    for m in M.elements:
        for n in M.elements:
            lhs = X.action[(X.boundary[m], n)]
            rhs = M.mul[(M.mul[(m, n)], M.inv[m])]
            if lhs != rhs:
                bad.append(("peiffer", (m, n)))
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
    """Squares are boundary tuples with fillers m satisfying dm = d^-1 c^-1 a b."""
    bad = validate_crossed_module(X)
    if bad:
        raise NotACrossedModule(f"axiom failures: {bad[:3]!r}")
    edge = one_object_groupoid(X.P)
    name = {}
    for k in X.P.elements:
        name[k] = "id:o" if k == X.P.identity else f"g:{k}"
    elem = {v: k for k, v in name.items()}

    def seq(x, y):
        return edge.comp[(y, x)]

    squares = set()
    arrows = edge.arrows
    for a in arrows:
        for b in arrows:
            for c in arrows:
                for d in arrows:
                    loop = seq(seq(seq(edge.inv[d], edge.inv[c]), a), b)
                    defect = elem[loop]
                    for m in X.M.elements:
                        if X.boundary[m] == defect:
                            squares.add(Square(a, b, c, d, m))
    return DoubleGroupoid(edge, frozenset(squares), "xmod", X, elem, name)


def double_to_xmod(D: DoubleGroupoid) -> tuple[CrossedModule, dict]:
    """Extract the crossed module of a one-object double groupoid.

    P is the edge vertex group; M consists of the squares with all faces
    but the top degenerate, multiplied horizontally; the boundary reads the
    top edge and the action conjugates through connection squares.  Returns
    the crossed module and the extraction tables.
    """
    G = D.edge
    if len(G.objects) != 1:
        raise NotSpecialDouble("crossed module extraction needs one edge object")
    for e in G.arrows:
        if not (D.has_square(gamma_minus(D, e)) and D.has_square(gamma_plus(D, e))):
            raise NotSpecialDouble(f"missing connection squares for edge {e!r}")
    obj = G.objects[0]
    one = G.id_of[obj]

    edges = tuple(sorted(G.arrows, key=repr))
    P = FiniteGroup(
        edges,
        {(x, y): D.seq(x, y) for x in edges for y in edges},
        one,
        {x: G.inv[x] for x in edges},
    )
    m_squares = tuple(
        sorted(
            (u for u in D.squares if u.right == one and u.left == one and u.bottom == one),
            key=repr,
        )
    )
    ident = next(u for u in m_squares if u.top == one and _is_trivial_filler(D, u))
    mul = {}
    for u in m_squares:
        for v in m_squares:
            mul[(u, v)] = compose_squares(D, 2, u, v)
    inv = {u: inverse_square(D, 2, u) for u in m_squares}
    M = FiniteGroup(m_squares, mul, ident, inv)
    boundary = {u: u.top for u in m_squares}

    def act(p_edge, u):
        left = compose_squares(D, 2, gamma_minus(D, p_edge), u)
        conj = compose_squares(D, 2, left, inverse_square(D, 2, gamma_minus(D, p_edge)))
        pinv = G.inv[p_edge]
        corner = compose_squares(D, 1, gamma_plus(D, pinv), gamma_minus(D, pinv))
        return compose_squares(D, 1, conj, corner)

    action = {(p, u): act(p, u) for p in edges for u in m_squares}
    X = CrossedModule(P, M, boundary, action)
    bad = validate_crossed_module(X)
    if bad:
        raise NotSpecialDouble(f"extracted data fails crossed module axioms: {bad[:3]!r}")
    return X, {"edges": edges, "m_squares": m_squares}


def _is_trivial_filler(D: DoubleGroupoid, u: Square) -> bool:
    return u == _thin(D, u.top, u.right, u.left, u.bottom)


def roundtrip_isomorphism(X: CrossedModule) -> dict:
    """Explicit isomorphism X -> double_to_xmod(xmod_to_double(X))."""
    D = xmod_to_double(X)
    Y, _tables = double_to_xmod(D)
    phi_p = {p: D.elem_edge[p] for p in X.P.elements}
    phi_m = {
        m: Square(D.elem_edge[X.boundary[m]], "id:o", "id:o", "id:o", m)
        for m in X.M.elements
    }
    ok = (
        sorted(map(repr, phi_p.values())) == sorted(map(repr, Y.P.elements))
        and sorted(map(repr, phi_m.values())) == sorted(map(repr, Y.M.elements))
        and all(
            phi_p[X.P.mul[(p, q)]] == Y.P.mul[(phi_p[p], phi_p[q])]
            for p in X.P.elements
            for q in X.P.elements
        )
        and all(
            phi_m[X.M.mul[(m, n)]] == Y.M.mul[(phi_m[m], phi_m[n])]
            for m in X.M.elements
            for n in X.M.elements
        )
        and all(phi_p[X.boundary[m]] == Y.boundary[phi_m[m]] for m in X.M.elements)
        and all(
            phi_m[X.action[(p, m)]] == Y.action[(phi_p[p], phi_m[m])]
            for p in X.P.elements
            for m in X.M.elements
        )
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

    A block's lower row (w, z) depends only on the bottom edges of u and v,
    so its columns w, z and w +2 z are built once per edge pair.  Raises
    CapExceeded as soon as the blocks pass MAX_INTERCHANGE_BLOCKS.
    """
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
                raise CapExceeded(f"interchange check passed the cap of {MAX_INTERCHANGE_BLOCKS} blocks")
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


def interchange_check(D: DoubleGroupoid, method: str = "auto") -> InterchangeReport:
    """(u +2 v) +1 (w +2 z) == (u +1 w) +2 (v +1 z) over all blocks.

    ``direct`` enumerates blocks; ``factored`` (fillered squares only) uses
    the equivalent per-triple identity; ``auto`` picks direct when the block
    count stays small.
    """
    if method == "direct":
        return _interchange_direct(D)
    if method == "factored":
        if D.kind != "xmod":
            raise NotSpecialDouble("factored interchange needs filler structure")
        return _interchange_factored(D)
    n = len(D.squares)
    if D.kind == "xmod" and n > 40:
        return _interchange_factored(D)
    return _interchange_direct(D)


def square_groupoid_axioms(D: DoubleGroupoid, direction: int, max_squares: int = 40) -> list:
    """Identity, inverse and associativity laws of one composition.

    Exhaustive over the square rows, witnesses in repr order; guarded by a
    size limit since associativity is cubic.
    """
    if len(D.squares) > max_squares:
        raise OverflowError(f"axiom sweep limited to {max_squares} squares")
    if direction not in (1, 2):
        raise NotComposable(f"direction must be 1 or 2, got {direction!r}")
    tab = D.tables
    sq, idx = tab.squares, tab.index
    comp, inv = (tab.comp1, tab.inv1) if direction == 1 else (tab.comp2, tab.inv2)
    bad = []
    for u, s in enumerate(sq):
        if direction == 1:
            lid, rid = idx[eps1(D, s.top)], idx[eps1(D, s.bottom)]
        else:
            lid, rid = idx[eps2(D, s.left)], idx[eps2(D, s.right)]
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


@dataclass(frozen=True)
class Cube:
    """Six faces; the shell conventions are checked by `validate_cube`.

    With F = (a, b, c, d) in front, K = (a', b', c', d') in back, and depth
    edges p, q, r, s at the four front corners, the faces sit as
    T = (a, q, p, a'), B = (d, s, r, d'), L = (c, r, p, c'), R = (b, s, q, b').
    """

    top: Square
    bottom: Square
    left: Square
    right: Square
    front: Square
    back: Square


_FACES = ("top", "bottom", "left", "right", "front", "back")
# c2 follows c1 in direction d when face `key` of c2 is face `face` of c1:
# bottom/top, right/left, back/front.  d -> (face, key), as indices into _FACES.
_FOLLOWS = {1: (1, 0), 2: (3, 2), 3: (5, 4)}


def _indexed(tab: SquareTables, cube: Cube) -> tuple:
    """A cube's faces as square indices, in `_FACES` order."""
    return tuple(tab.index[getattr(cube, f)] for f in _FACES)


def validate_cube(D: DoubleGroupoid, cube: Cube) -> None:
    for face in (cube.top, cube.bottom, cube.left, cube.right, cube.front, cube.back):
        if not D.has_square(face):
            raise NotACube(f"face {face!r} is not a square here")
    F, K, T, B, L, R = cube.front, cube.back, cube.top, cube.bottom, cube.left, cube.right
    checks = [
        (T.top, F.top),
        (T.bottom, K.top),
        (B.top, F.bottom),
        (B.bottom, K.bottom),
        (L.top, F.left),
        (L.bottom, K.left),
        (L.left, T.left),
        (L.right, B.left),
        (R.top, F.right),
        (R.bottom, K.right),
        (R.left, T.right),
        (R.right, B.right),
    ]
    for i, (x, y) in enumerate(checks):
        if x != y:
            raise NotACube(f"edge identification {i} fails: {x!r} != {y!r}")


def net_composite(D: DoubleGroupoid, cube: Cube) -> Square:
    """The fold of the five non-top faces of a cube shell, `SquareTables.net`, as a square."""
    validate_cube(D, cube)
    tab = D.tables
    return tab.squares[tab.net(*_indexed(tab, cube)[1:])]


def is_commutative_cube(D: DoubleGroupoid, cube: Cube) -> bool:
    return cube.top == net_composite(D, cube)


def prism_cube(D: DoubleGroupoid, u: Square) -> Cube:
    """u as front and back of a depth-degenerate cube."""
    return Cube(
        top=eps1(D, u.top),
        bottom=eps1(D, u.bottom),
        left=eps1(D, u.left),
        right=eps1(D, u.right),
        front=u,
        back=u,
    )


def corner_square(D: DoubleGroupoid, e) -> Square:
    """(1, e, e, 1): the two-connection composite filling an inner corner."""
    return compose_squares(D, 1, gamma_plus(D, e), gamma_minus(D, e))


def square_as_cube(D: DoubleGroupoid, u: Square, bottom: Square | None = None) -> Cube:
    """u as the lid of a height-degenerate cube; `bottom` defaults to u."""
    return Cube(
        top=u,
        bottom=bottom if bottom is not None else u,
        left=corner_square(D, u.left),
        right=corner_square(D, u.right),
        front=eps1(D, u.top),
        back=eps1(D, u.bottom),
    )


def compose_cubes(D: DoubleGroupoid, direction: int, c1: Cube, c2: Cube) -> Cube:
    """Cube composition in direction 1 (down), 2 (right) or 3 (deep)."""
    validate_cube(D, c1)
    validate_cube(D, c2)
    if direction not in _FOLLOWS:
        raise NotComposable(f"direction must be 1, 2 or 3, got {direction!r}")
    face, key = _FOLLOWS[direction]
    tab = D.tables
    i1, i2 = _indexed(tab, c1), _indexed(tab, c2)
    if i1[face] != i2[key]:
        raise NotComposable(f"direction {direction} needs {_FACES[face]} == {_FACES[key]}")
    (out,) = _composites(tab, direction, i1, tuple(zip(i2)))
    cube = Cube(*map(tab.squares.__getitem__, out))
    validate_cube(D, cube)
    return cube


def cube_composition_closure(D: DoubleGroupoid, c1: Cube, c2: Cube, direction: int) -> dict:
    """Compose two commutative cubes and report the composite's verdict."""
    if not is_commutative_cube(D, c1) or not is_commutative_cube(D, c2):
        raise NotACube("closure check expects commutative inputs")
    composite = compose_cubes(D, direction, c1, c2)
    return {
        "direction": direction,
        "commutative": is_commutative_cube(D, composite),
        "composite": composite,
    }


# Size caps for the exhaustive sweeps.  The cube caps are at least 8x the
# largest instance in the corpus (xmod-c2c2: 8,192 shells, 3,145,728
# composites); the block cap is 3.3x mobius3's 10,097,379 blocks.
MAX_CUBE_SHELLS = 1 << 16
MAX_CUBE_COMPOSITES = 1 << 25
MAX_INTERCHANGE_BLOCKS = 1 << 25


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
    are memos over `compose_squares` and `inverse_square`, filled one row
    or entry at a time on first lookup, so every entry is an actual
    operation result and a caller pays only for the rows it reads.
    """

    D: DoubleGroupoid
    squares: tuple
    index: dict
    comp1: dict
    comp2: dict
    inv1: dict
    inv2: dict
    gplus: dict
    gminus: dict

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
        row3 = c2[c2[inv1[gplus[back.left]]][inv1[K]]][self.gminus[self.D.einv(back.right)]]
        return c1[c1[row1][row2]][row3]

    def is_commutative(self, cube: tuple) -> bool:
        T, B, L, R, F, K = cube
        return T == self.net(B, L, R, F, K)


def square_tables(D: DoubleGroupoid) -> SquareTables:
    squares = tuple(sorted(D.squares, key=repr))
    index = {u: i for i, u in enumerate(squares)}
    by_top: dict = {}
    by_left: dict = {}
    for v in squares:
        by_top.setdefault(v.top, []).append(v)
        by_left.setdefault(v.left, []).append(v)

    def row1(u: int) -> dict:
        s = squares[u]
        return {index[v]: index[compose_squares(D, 1, s, v)] for v in by_top.get(s.bottom, ())}

    def row2(u: int) -> dict:
        s = squares[u]
        return {index[v]: index[compose_squares(D, 2, s, v)] for v in by_left.get(s.right, ())}

    inv1 = _Lazy(lambda u: index[inverse_square(D, 1, squares[u])])
    inv2 = _Lazy(lambda u: index[inverse_square(D, 2, squares[u])])
    gplus = {e: index[gamma_plus(D, e)] for e in D.edge.arrows}
    gminus = {e: index[gamma_minus(D, e)] for e in D.edge.arrows}
    return SquareTables(D, squares, index, _Lazy(row1), _Lazy(row2), inv1, inv2, gplus, gminus)


def _bucket(cubes: list, key: int) -> dict:
    """Cubes grouped by one face, each group with its six face columns."""
    groups: dict = {}
    for c in cubes:
        groups.setdefault(c[key], []).append(c)
    return {k: (group, tuple(zip(*group))) for k, group in groups.items()}


def _composites(tab: SquareTables, direction: int, c1: tuple, cols: tuple):
    """Composites of c1 with each cube of a bucket, from the bucket's face columns."""
    T1, B1, L1, R1, F1, K1 = c1
    cT, cB, cL, cR, cF, cK = cols
    r1, r2 = tab.comp1, tab.comp2
    if direction == 1:
        return zip(
            repeat(T1, len(cB)), cB, map(r2[L1].__getitem__, cL), map(r2[R1].__getitem__, cR),
            map(r1[F1].__getitem__, cF), map(r1[K1].__getitem__, cK),
        )
    if direction == 2:
        return zip(
            map(r2[T1].__getitem__, cT), map(r2[B1].__getitem__, cB), repeat(L1, len(cR)), cR,
            map(r2[F1].__getitem__, cF), map(r2[K1].__getitem__, cK),
        )
    return zip(
        map(r1[T1].__getitem__, cT), map(r1[B1].__getitem__, cB), map(r1[L1].__getitem__, cL),
        map(r1[R1].__getitem__, cR), repeat(F1, len(cK)), cK,
    )


def cube_closure_sweep(D: DoubleGroupoid) -> dict:
    """Exhaustively compose all pairs of commutative cubes in each direction.

    Returns counts plus the (hopefully empty) list of violating pairs.
    Cube shells are handled as index 6-tuples (top, bottom, left, right,
    front, back) over the square tables.

    For each c1 and direction, the composites with every c2 in the matching
    bucket are built column by column from the table rows of c1's faces.
    Every composite is then checked through a verdict cache.  The verdict
    `tab.is_commutative` is a pure function of the 6-tuple, and it has
    already been evaluated on every enumerated shell; a composite equal to
    a shell that passed is therefore commutative by that evaluation.  When
    a bucket yields any other composite, its pairs are walked one by one
    and each composite outside the cache is evaluated again; it is a
    violation exactly when that evaluation fails.  The cache changes how
    often the fold runs, never a verdict.

    Raises CapExceeded when the shells pass MAX_CUBE_SHELLS or, before any
    composite is built, when their count would pass MAX_CUBE_COMPOSITES.
    """
    shells = enumerate_cubes(D)
    tab = D.tables
    cubes = [_indexed(tab, c) for c in shells]
    commutative = [c for c in cubes if tab.is_commutative(c)]
    known = set(commutative)
    empty = ((), ((),) * 6)
    joins = [(direction, _bucket(commutative, key), face) for direction, (face, key) in _FOLLOWS.items()]
    checked = sum(len(buckets.get(c[face], empty)[0]) for c in commutative for _, buckets, face in joins)
    if checked > MAX_CUBE_COMPOSITES:
        raise CapExceeded(
            f"cube closure sweep would check {checked} composites, over the cap of {MAX_CUBE_COMPOSITES}"
        )
    violations = []
    for c1 in commutative:
        for direction, buckets, face in joins:
            bucket, cols = buckets.get(c1[face], empty)
            if next(filterfalse(known.__contains__, _composites(tab, direction, c1, cols)), None) is None:
                continue
            for c2, out in zip(bucket, _composites(tab, direction, c1, cols)):
                if out not in known and not tab.is_commutative(out):
                    violations.append((direction, c1, c2))
    return {
        "cubes": len(cubes),
        "commutative": len(commutative),
        "composites_checked": checked,
        "violations": violations,
    }


def enumerate_cubes(D: DoubleGroupoid) -> list[Cube]:
    """All cube shells over D, in repr order of (front, top, left, right, bottom, back).

    A join on shared edges: each face after the front is looked up by the
    edges it shares with the faces already placed.  Raises CapExceeded as
    soon as the shells pass MAX_CUBE_SHELLS.
    """
    squares = sorted(D.squares, key=repr)
    by_top: dict = {}
    by_top_left: dict = {}
    by_top_left_right: dict = {}
    by_boundary: dict = {}
    for u in squares:
        by_top.setdefault(u.top, []).append(u)
        by_top_left.setdefault((u.top, u.left), []).append(u)
        by_top_left_right.setdefault((u.top, u.left, u.right), []).append(u)
        by_boundary.setdefault((u.top, u.right, u.left, u.bottom), []).append(u)
    out = []
    for F in squares:
        for T in by_top.get(F.top, ()):
            for L in by_top_left.get((F.left, T.left), ()):
                for R in by_top_left.get((F.right, T.right), ()):
                    for B in by_top_left_right.get((F.bottom, L.right, R.right), ()):
                        backs = by_boundary.get((T.bottom, R.bottom, L.bottom, B.bottom), ())
                        out.extend(Cube(T, B, L, R, F, K) for K in backs)
                        if len(out) > MAX_CUBE_SHELLS:
                            raise CapExceeded(f"cube enumeration passed the cap of {MAX_CUBE_SHELLS} shells")
    return out
