"""Finite groupoids as explicit tables, finite groups, and finite topologies.

A groupoid is stored by enumerating its arrows together with source/target,
identity, inverse and composition tables.  Composition follows the convention
that ``comp(h, g)`` is "h after g": it is defined exactly when
``tgt(g) == src(h)`` and the composite runs ``src(g) -> tgt(h)``.  The helper
``G.then(a, b)`` ("a followed by b") is provided for path-order formulas.

All values here are immutable after construction; every operation is a pure
function, so instances may be shared freely between workers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    EmptyNotAllowed,
    InvalidMorphism,
    NotComposable,
    UnknownObject,
    UnknownPoint,
)


# ---------------------------------------------------------------------------
# validation reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    """One failed axiom instance: the rule name plus a concrete witness."""

    rule: str
    witness: tuple
    message: str

    def __str__(self) -> str:
        return f"{self.rule}{self.witness!r}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def rules(self) -> set[str]:
        return {v.rule for v in self.violations}

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "\n".join(str(v) for v in self.violations)


# ---------------------------------------------------------------------------
# finite groups
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite group given by its multiplication table.

    ``mul[(a, b)]`` is read "a followed by b", so permutation groups built
    here compose left to right.
    """

    elements: tuple
    mul: dict
    identity: object
    inv: dict

    @property
    def order(self) -> int:
        return len(self.elements)

    def multiply(self, a, b):
        return self.mul[(a, b)]

    def inverse(self, a):
        return self.inv[a]

    def power(self, a, n: int):
        if n < 0:
            return self.power(self.inv[a], -n)
        out = self.identity
        for _ in range(n):
            out = self.mul[(out, a)]
        return out

    def element_order(self, a) -> int:
        n, x = 1, a
        while x != self.identity:
            x = self.mul[(x, a)]
            n += 1
        return n

    def is_abelian(self) -> bool:
        return all(
            self.mul[(a, b)] == self.mul[(b, a)]
            for a in self.elements
            for b in self.elements
        )


def validate_group(K: FiniteGroup) -> ValidationReport:
    """Exhaustively check the group axioms, reporting every violation."""
    bad: list[Violation] = []
    elems = K.elements
    eset = set(elems)
    if len(eset) != len(elems):
        bad.append(Violation("distinct-elements", (), "duplicate elements"))
    if K.identity not in eset:
        bad.append(Violation("identity-element", (K.identity,), "identity not an element"))
        return ValidationReport(tuple(bad))
    for a in elems:
        for b in elems:
            if (a, b) not in K.mul or K.mul[(a, b)] not in eset:
                bad.append(Violation("closure", (a, b), "product missing or outside group"))
    if bad:
        return ValidationReport(tuple(bad))
    for a in elems:
        if K.mul[(K.identity, a)] != a or K.mul[(a, K.identity)] != a:
            bad.append(Violation("identity-law", (a,), "identity law fails"))
        ai = K.inv.get(a)
        if ai not in eset or K.mul[(a, ai)] != K.identity or K.mul[(ai, a)] != K.identity:
            bad.append(Violation("inverse-law", (a,), "inverse law fails"))
    for a in elems:
        for b in elems:
            for c in elems:
                if K.mul[(K.mul[(a, b)], c)] != K.mul[(a, K.mul[(b, c)])]:
                    bad.append(Violation("associativity", (a, b, c), "associativity fails"))
    return ValidationReport(tuple(bad))


def trivial_group() -> FiniteGroup:
    return FiniteGroup(("e",), {("e", "e"): "e"}, "e", {"e": "e"})


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise EmptyNotAllowed("cyclic_group needs n >= 1")
    elems = tuple(range(n))
    mul = {(a, b): (a + b) % n for a in elems for b in elems}
    inv = {a: (-a) % n for a in elems}
    return FiniteGroup(elems, mul, 0, inv)


def symmetric_group(n: int) -> FiniteGroup:
    """S_n on tuples; products compose left to right ((p.q)(i) = q[p[i]])."""
    if n < 1:
        raise EmptyNotAllowed("symmetric_group needs n >= 1")
    elems = tuple(sorted(itertools.permutations(range(n))))
    mul = {}
    for p in elems:
        for q in elems:
            mul[(p, q)] = tuple(q[p[i]] for i in range(n))
    ident = tuple(range(n))
    inv = {}
    for p in elems:
        ip = [0] * n
        for i, pi in enumerate(p):
            ip[pi] = i
        inv[p] = tuple(ip)
    return FiniteGroup(elems, mul, ident, inv)


def direct_product_group(A: FiniteGroup, B: FiniteGroup) -> FiniteGroup:
    elems = tuple((a, b) for a in A.elements for b in B.elements)
    mul = {
        ((a1, b1), (a2, b2)): (A.mul[(a1, a2)], B.mul[(b1, b2)])
        for (a1, b1) in elems
        for (a2, b2) in elems
    }
    inv = {(a, b): (A.inv[a], B.inv[b]) for (a, b) in elems}
    return FiniteGroup(elems, mul, (A.identity, B.identity), inv)


def group_isomorphism(A: FiniteGroup, B: FiniteGroup) -> dict | None:
    """Search for an isomorphism A -> B; return a mapping dict or None.

    Backtracking over images of a generating sequence, pruned by element
    order.  Intended for the small groups used in this package.
    """
    if A.order != B.order:
        return None
    orders_a = sorted(A.element_order(a) for a in A.elements)
    orders_b = sorted(B.element_order(b) for b in B.elements)
    if orders_a != orders_b:
        return None

    # Greedy generating sequence for A.
    gens: list = []
    span = {A.identity}
    for a in A.elements:
        if a not in span:
            gens.append(a)
            span.add(a)
            queue = list(span)
            while queue:
                x = queue.pop()
                for y in list(span):
                    for z in (A.mul[(x, y)], A.mul[(y, x)]):
                        if z not in span:
                            span.add(z)
                            queue.append(z)
    by_order: dict[int, list] = {}
    for b in B.elements:
        by_order.setdefault(B.element_order(b), []).append(b)

    def close(partial: dict) -> dict | None:
        # Extend a map on generators to the subgroup they generate.
        table = dict(partial)
        table[A.identity] = B.identity
        frontier = list(table)
        while frontier:
            new = []
            for x in frontier:
                for y in list(table):
                    for (u, v) in ((x, y), (y, x)):
                        w = A.mul[(u, v)]
                        img = B.mul[(table[u], table[v])]
                        if w in table:
                            if table[w] != img:
                                return None
                        else:
                            table[w] = img
                            new.append(w)
            frontier = new
        return table

    def backtrack(i: int, partial: dict) -> dict | None:
        if i == len(gens):
            full = close(partial)
            if full is None or len(full) != A.order:
                return None
            if len(set(full.values())) != A.order:
                return None
            return full
        g = gens[i]
        for b in by_order[A.element_order(g)]:
            trial = dict(partial)
            trial[g] = b
            closed = close(trial)
            if closed is None:
                continue
            out = backtrack(i + 1, trial)
            if out is not None:
                return out
        return None

    return backtrack(0, {})


# ---------------------------------------------------------------------------
# finite groupoids
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FiniteGroupoid:
    """Explicit-table groupoid.  Treat all fields as read-only."""

    objects: tuple
    arrows: tuple
    src: dict
    tgt: dict
    id_of: dict
    inv: dict
    comp: dict  # (h, g) -> h∘g, defined exactly when tgt[g] == src[h]

    def compose(self, h, g):
        """h after g.  Raises NotComposable when tgt(g) != src(h)."""
        try:
            return self.comp[(h, g)]
        except KeyError:
            raise NotComposable(f"cannot compose {h!r} after {g!r}") from None

    def then(self, a, b):
        """a followed by b (path order)."""
        return self.compose(b, a)

    def identity(self, x):
        try:
            return self.id_of[x]
        except KeyError:
            raise UnknownObject(f"unknown object {x!r}") from None

    def inverse(self, a):
        return self.inv[a]

    def is_identity(self, a) -> bool:
        return a == self.id_of.get(self.src[a])

    def star(self, x) -> tuple:
        """Arrows with source x."""
        if x not in self.id_of:
            raise UnknownObject(f"unknown object {x!r}")
        return tuple(a for a in self.arrows if self.src[a] == x)

    def hom(self, x, y) -> tuple:
        return tuple(a for a in self.arrows if self.src[a] == x and self.tgt[a] == y)

    def composable_pairs(self):
        """(h, g) with tgt g == src h: g in arrow order, then h in arrow order."""
        return composable(self.arrows, self.src, self.tgt)


def out_stars(arrows, src) -> dict:
    """Each endpoint mapped to the arrows with that source, in the order given."""
    stars: dict = {}
    for a in arrows:
        stars.setdefault(src[a], []).append(a)
    return stars


def composable(arrows, src, tgt):
    """The pairs (h, g) with tgt g == src h: g in the order given, then h.

    The pairs are generated, not listed: a table built from them never
    holds the pairs and the table at once.
    """
    stars = out_stars(arrows, src)
    return ((h, g) for g in arrows for h in stars.get(tgt[g], ()))


def make_groupoid(objects, arrows, src, tgt, id_of, inv, comp) -> FiniteGroupoid:
    """Freeze constructor: sorts object/arrow listings for determinism."""
    return FiniteGroupoid(
        tuple(sorted(objects, key=repr)),
        tuple(sorted(arrows, key=repr)),
        dict(src),
        dict(tgt),
        dict(id_of),
        dict(inv),
        dict(comp),
    )


def validate_groupoid(G: FiniteGroupoid) -> ValidationReport:
    """Check every groupoid axiom on the tables; list all violations.

    The report is empty iff G is a groupoid.  Nothing raises here so that
    deliberately broken tables can be diagnosed.
    """
    bad: list[Violation] = []
    arrows = G.arrows
    aset = set(arrows)
    oset = set(G.objects)
    if len(aset) != len(arrows):
        bad.append(Violation("distinct-arrows", (), "duplicate arrow ids"))
    if len(oset) != len(G.objects):
        bad.append(Violation("distinct-objects", (), "duplicate object ids"))
    for a in arrows:
        if G.src.get(a) not in oset or G.tgt.get(a) not in oset:
            bad.append(Violation("endpoints", (a,), "src/tgt missing or unknown"))
    if bad:
        return ValidationReport(tuple(bad))
    for x in G.objects:
        e = G.id_of.get(x)
        if e not in aset:
            bad.append(Violation("identity-exists", (x,), "no identity arrow"))
            continue
        if G.src[e] != x or G.tgt[e] != x:
            bad.append(Violation("identity-endpoints", (x, e), "identity endpoints differ from its object"))
    for a in arrows:
        ai = G.inv.get(a)
        if ai not in aset:
            bad.append(Violation("inverse-exists", (a,), "no inverse arrow"))
    pairs = list(G.composable_pairs())
    pair_set = set(pairs)
    for key in G.comp:
        if key not in pair_set:
            bad.append(Violation("composition-domain", key, "comp defined on a non-composable pair"))
    for (h, g) in pairs:
        if (h, g) not in G.comp:
            bad.append(Violation("composition-total", (h, g), "composable pair missing from comp"))
            continue
        hg = G.comp[(h, g)]
        if hg not in aset:
            bad.append(Violation("composition-closure", (h, g), "composite is not an arrow"))
            continue
        if G.src[hg] != G.src[g] or G.tgt[hg] != G.tgt[h]:
            bad.append(Violation("composition-endpoints", (h, g, hg), "composite endpoints wrong"))
    if any(v.rule.startswith("composition") or v.rule == "inverse-exists" for v in bad):
        return ValidationReport(tuple(bad))
    for a in arrows:
        ex, ey = G.id_of[G.src[a]], G.id_of[G.tgt[a]]
        if G.comp[(a, ex)] != a:
            bad.append(Violation("right-identity", (a,), "a∘id != a"))
        if G.comp[(ey, a)] != a:
            bad.append(Violation("left-identity", (a,), "id∘a != a"))
        ai = G.inv[a]
        if G.src[ai] != G.tgt[a] or G.tgt[ai] != G.src[a]:
            bad.append(Violation("inverse-endpoints", (a, ai), "inverse endpoints wrong"))
            continue
        if G.comp[(ai, a)] != G.id_of[G.src[a]]:
            bad.append(Violation("inverse-law", (a,), "inv(a)∘a != id(src a)"))
        if G.comp[(a, ai)] != G.id_of[G.tgt[a]]:
            bad.append(Violation("inverse-law", (a,), "a∘inv(a) != id(tgt a)"))
    stars = out_stars(arrows, G.src)
    for (h, g) in pairs:
        hg = G.comp[(h, g)]
        for k in stars.get(G.tgt[h], ()):
            if G.comp[(k, hg)] != G.comp[(G.comp[(k, h)], g)]:
                bad.append(Violation("associativity", (k, h, g), "associativity fails"))
    return ValidationReport(tuple(bad))


def compose(G: FiniteGroupoid, h, g):
    return G.compose(h, g)


def vertex_group(G: FiniteGroupoid, x) -> FiniteGroup:
    """The group of arrows x -> x, multiplied in path order (a then b)."""
    if x not in G.id_of:
        raise UnknownObject(f"unknown object {x!r}")
    loops = tuple(sorted((a for a in G.arrows if G.src[a] == x and G.tgt[a] == x), key=repr))
    mul = {(a, b): G.comp[(b, a)] for a in loops for b in loops}
    inv = {a: G.inv[a] for a in loops}
    return FiniteGroup(loops, mul, G.id_of[x], inv)


def components(G: FiniteGroupoid) -> tuple[frozenset, ...]:
    """Partition of the objects: one block per connected component."""
    parent = {x: x for x in G.objects}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in G.arrows:
        rx, ry = find(G.src[a]), find(G.tgt[a])
        if rx != ry:
            parent[rx] = ry
    blocks: dict = {}
    for x in G.objects:
        blocks.setdefault(find(x), set()).add(x)
    return tuple(sorted((frozenset(b) for b in blocks.values()), key=lambda s: sorted(map(repr, s))))


# ---------------------------------------------------------------------------
# morphisms and coverings
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GroupoidMorphism:
    source: FiniteGroupoid
    target: FiniteGroupoid
    obj_map: dict
    arr_map: dict

    def __call__(self, arrow):
        return self.arr_map[arrow]


def validate_morphism(p: GroupoidMorphism) -> ValidationReport:
    bad: list[Violation] = []
    G, H = p.source, p.target
    for x in G.objects:
        if p.obj_map.get(x) not in set(H.objects):
            bad.append(Violation("object-map", (x,), "object image missing/unknown"))
    for a in G.arrows:
        fa = p.arr_map.get(a)
        if fa not in set(H.arrows):
            bad.append(Violation("arrow-map", (a,), "arrow image missing/unknown"))
    if bad:
        return ValidationReport(tuple(bad))
    for a in G.arrows:
        fa = p.arr_map[a]
        if H.src[fa] != p.obj_map[G.src[a]] or H.tgt[fa] != p.obj_map[G.tgt[a]]:
            bad.append(Violation("endpoint-preservation", (a,), "src/tgt not preserved"))
    for x in G.objects:
        if p.arr_map[G.id_of[x]] != H.id_of[p.obj_map[x]]:
            bad.append(Violation("identity-preservation", (x,), "identity not preserved"))
    for (h, g) in G.composable_pairs():
        if p.arr_map[G.comp[(h, g)]] != H.comp.get((p.arr_map[h], p.arr_map[g])):
            bad.append(Violation("composition-preservation", (h, g), "composition not preserved"))
    return ValidationReport(tuple(bad))


def is_covering(p: GroupoidMorphism) -> bool:
    """True iff p restricts to a bijection Star(x) -> Star(p x) at each object."""
    rep = validate_morphism(p)
    if not rep.ok:
        raise InvalidMorphism(str(rep))
    G, H = p.source, p.target
    for x in G.objects:
        images = [p.arr_map[a] for a in G.star(x)]
        target_star = H.star(p.obj_map[x])
        if len(images) != len(set(images)) or set(images) != set(target_star):
            return False
    return True


def unique_lifting_holds(p: GroupoidMorphism) -> bool:
    """For a covering: each arrow out of p(x~) has exactly one lift at x~."""
    G, H = p.source, p.target
    for x in G.objects:
        for g in H.star(p.obj_map[x]):
            lifts = [a for a in G.star(x) if p.arr_map[a] == g]
            if len(lifts) != 1:
                return False
    return True


# ---------------------------------------------------------------------------
# standard constructions
# ---------------------------------------------------------------------------


def indiscrete(n: int) -> FiniteGroupoid:
    """Exactly one arrow between each ordered pair of the objects 0..n-1."""
    if n < 1:
        raise EmptyNotAllowed("indiscrete needs n >= 1")
    objects = [str(i) for i in range(n)]
    arrows, src, tgt, id_of, inv, comp = [], {}, {}, {}, {}, {}

    def name(i, j):
        return f"id:{i}" if i == j else f"a:{i}->{j}"

    for i in objects:
        for j in objects:
            a = name(i, j)
            arrows.append(a)
            src[a], tgt[a] = i, j
            inv[a] = name(j, i)
        id_of[i] = name(i, i)
    for i in objects:
        for j in objects:
            for k in objects:
                comp[(name(j, k), name(i, j))] = name(i, k)
    return make_groupoid(objects, arrows, src, tgt, id_of, inv, comp)


def one_object_groupoid(K: FiniteGroup, obj: str = "o") -> FiniteGroupoid:
    """The group K as a groupoid on one object.

    Arrow ids are ``g:<element>`` apart from the identity ``id:<obj>``;
    ``G.then`` agrees with ``K.mul``.
    """

    def name(k):
        return f"id:{obj}" if k == K.identity else f"g:{k}"

    arrows = [name(k) for k in K.elements]
    elem_of = {name(k): k for k in K.elements}
    src = {a: obj for a in arrows}
    tgt = dict(src)
    id_of = {obj: f"id:{obj}"}
    inv = {a: name(K.inv[elem_of[a]]) for a in arrows}
    comp = {(h, g): name(K.mul[(elem_of[g], elem_of[h])]) for h, g in composable(arrows, src, tgt)}
    return make_groupoid([obj], arrows, src, tgt, id_of, inv, comp)


def action_groupoid(K: FiniteGroup, points, act: dict) -> FiniteGroupoid:
    """Action groupoid of K acting on the points.

    ``act[(g, x)]`` is the point reached from x by g, with
    ``act[(K.mul[(g, h)], x)] == act[(h, act[(g, x)])]``  (apply g, then h).
    Arrows are (g, x): x -> g.x, named ``id:x`` for the identity of K.
    """
    points = list(points)

    def name(g, x):
        return f"id:{x}" if g == K.identity else f"g:{g}@{x}"

    arrows, src, tgt, id_of, inv = [], {}, {}, {}, {}
    data = {}
    for g in K.elements:
        for x in points:
            a = name(g, x)
            arrows.append(a)
            data[a] = (g, x)
            src[a], tgt[a] = x, act[(g, x)]
            inv[a] = name(K.inv[g], act[(g, x)])
    for x in points:
        id_of[x] = name(K.identity, x)
    comp = {(a, b): name(K.mul[(data[b][0], data[a][0])], data[b][1]) for a, b in composable(arrows, src, tgt)}
    return make_groupoid(points, arrows, src, tgt, id_of, inv, comp)


def equivalence_groupoid(points, blocks) -> FiniteGroupoid:
    """Arrows are the ordered same-block pairs: the pair (x, y) is x -> y."""
    points = list(points)

    def name(x, y):
        return f"id:{x}" if x == y else f"{x}>{y}"

    block_of = {}
    for b in blocks:
        for x in b:
            block_of[x] = frozenset(b)
    arrows, src, tgt, id_of, inv = [], {}, {}, {}, {}
    for x in points:
        for y in block_of[x]:
            a = name(x, y)
            arrows.append(a)
            src[a], tgt[a] = x, y
            inv[a] = name(y, x)
        id_of[x] = name(x, x)
    comp = {(a, b): name(src[b], tgt[a]) for a, b in composable(arrows, src, tgt)}
    return make_groupoid(points, arrows, src, tgt, id_of, inv, comp)


def pair_groupoid(points) -> FiniteGroupoid:
    return equivalence_groupoid(points, [list(points)])


def product_groupoid(G: FiniteGroupoid, H: FiniteGroupoid) -> FiniteGroupoid:
    """Componentwise product; arrows are pairs written ``a|b``."""
    objects = [f"{x}|{y}" for x in G.objects for y in H.objects]
    arrows, src, tgt, id_of, inv = [], {}, {}, {}, {}

    def name(a, b):
        if a == G.id_of[G.src[a]] and b == H.id_of[H.src[b]]:
            return f"id:{G.src[a]}|{H.src[b]}"
        return f"{a}|{b}"

    pairs = {}
    for a in G.arrows:
        for b in H.arrows:
            n = name(a, b)
            arrows.append(n)
            pairs[n] = (a, b)
            src[n] = f"{G.src[a]}|{H.src[b]}"
            tgt[n] = f"{G.tgt[a]}|{H.tgt[b]}"
            inv[n] = name(G.inv[a], H.inv[b])
    for x in G.objects:
        for y in H.objects:
            id_of[f"{x}|{y}"] = name(G.id_of[x], H.id_of[y])
    comp = {
        (n1, n2): name(G.comp[(pairs[n1][0], pairs[n2][0])], H.comp[(pairs[n1][1], pairs[n2][1])])
        for n1, n2 in composable(arrows, src, tgt)
    }
    return make_groupoid(objects, arrows, src, tgt, id_of, inv, comp)


def disjoint_union(G: FiniteGroupoid, H: FiniteGroupoid, tags=("L", "R")) -> FiniteGroupoid:
    """Disjoint union with objects and arrows tagged to avoid collisions."""
    lt, rt = tags

    def tagid(t, a, G_):
        x = G_.src[a]
        if a == G_.id_of[x]:
            return f"id:{t}.{x}"
        return f"{t}.{a}"

    objects = [f"{lt}.{x}" for x in G.objects] + [f"{rt}.{x}" for x in H.objects]
    arrows, src, tgt, id_of, inv, comp = [], {}, {}, {}, {}, {}
    for t, K in ((lt, G), (rt, H)):
        ren = {a: tagid(t, a, K) for a in K.arrows}
        for a in K.arrows:
            ra = ren[a]
            arrows.append(ra)
            src[ra] = f"{t}.{K.src[a]}"
            tgt[ra] = f"{t}.{K.tgt[a]}"
            inv[ra] = ren[K.inv[a]]
        for x in K.objects:
            id_of[f"{t}.{x}"] = ren[K.id_of[x]]
        for (h, g), hg in K.comp.items():
            comp[(ren[h], ren[g])] = ren[hg]
    return make_groupoid(objects, arrows, src, tgt, id_of, inv, comp)


def groupoid_isomorphism(G: FiniteGroupoid, H: FiniteGroupoid) -> tuple[dict, dict] | None:
    """Search for an isomorphism (object map, arrow map); None if there is none.

    Backtracking on objects (pruned by star sizes and vertex group orders),
    then on arrows hom-set by hom-set with composition checks at the end.
    Intended for the small instances exercised in tests.
    """
    if len(G.objects) != len(H.objects) or len(G.arrows) != len(H.arrows):
        return None

    def obj_profile(K, x):
        return (len(K.star(x)), len(K.hom(x, x)))

    hx = {y: obj_profile(H, y) for y in H.objects}

    def arrows_ok(obj_map):
        # hom-set sizes must match under the object map
        for x in G.objects:
            for y in G.objects:
                if len(G.hom(x, y)) != len(H.hom(obj_map[x], obj_map[y])):
                    return False
        return True

    def extend_arrows(obj_map):
        homs = [(x, y, G.hom(x, y)) for x in G.objects for y in G.objects if G.hom(x, y)]
        arr_map: dict = {}

        def place(i):
            if i == len(homs):
                # verify composition fully
                for (h, g) in G.composable_pairs():
                    if arr_map[G.comp[(h, g)]] != H.comp[(arr_map[h], arr_map[g])]:
                        return False
                return True
            x, y, hom_g = homs[i]
            cands = H.hom(obj_map[x], obj_map[y])
            for perm in itertools.permutations(cands):
                for a, b in zip(hom_g, perm):
                    arr_map[a] = b
                good = all(
                    arr_map[G.id_of[x2]] == H.id_of[obj_map[x2]]
                    for x2 in G.objects
                    if G.id_of[x2] in arr_map
                ) and all(
                    H.inv[arr_map[a]] == arr_map[G.inv[a]]
                    for a in hom_g
                    if G.inv[a] in arr_map
                )
                if good and place(i + 1):
                    return True
                for a in hom_g:
                    del arr_map[a]
            return False

        if place(0):
            return arr_map
        return None

    gobjs = list(G.objects)

    def backtrack(i, obj_map, used):
        if i == len(gobjs):
            if not arrows_ok(obj_map):
                return None
            arr_map = extend_arrows(obj_map)
            if arr_map is not None:
                return dict(obj_map), arr_map
            return None
        x = gobjs[i]
        prof = obj_profile(G, x)
        for y in H.objects:
            if y in used or hx[y] != prof:
                continue
            obj_map[x] = y
            out = backtrack(i + 1, obj_map, used | {y})
            if out is not None:
                return out
            del obj_map[x]
        return None

    return backtrack(0, {}, set())


# ---------------------------------------------------------------------------
# finite topologies
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FiniteTopology:
    """A topology on a finite point set, stored via minimal open sets.

    A finite topology is determined by the map x -> minimal open around x
    (its open sets are exactly the unions of minimal opens).  ``opens()``
    materialises the full family; avoid it on large spaces.
    """

    points: tuple
    min_open: dict

    def minimal_open(self, x) -> frozenset:
        try:
            return self.min_open[x]
        except KeyError:
            raise UnknownPoint(f"unknown point {x!r}") from None

    def is_open(self, U) -> bool:
        U = frozenset(U)
        if not U <= set(self.points):
            return False
        return all(self.min_open[x] <= U for x in U)

    def base(self) -> tuple[frozenset, ...]:
        return tuple(sorted(set(self.min_open.values()), key=lambda s: (len(s), sorted(map(repr, s)))))

    def opens(self):
        """All open sets (exponential in general; use on small spaces only)."""
        seen = {frozenset()}
        frontier = [frozenset()]
        while frontier:
            U = frontier.pop()
            for b in set(self.min_open.values()):
                V = U | b
                if V not in seen:
                    seen.add(V)
                    frontier.append(V)
        return sorted(seen, key=lambda s: (len(s), sorted(map(repr, s))))

    def subspace(self, subset) -> "FiniteTopology":
        subset = [p for p in self.points if p in set(subset)]
        mins = {x: frozenset(self.min_open[x]) & frozenset(subset) for x in subset}
        return FiniteTopology(tuple(subset), mins)

    def product(self, other: "FiniteTopology") -> "FiniteTopology":
        pts = tuple((x, y) for x in self.points for y in other.points)
        mins = {
            (x, y): frozenset(
                (u, v) for u in self.min_open[x] for v in other.min_open[y]
            )
            for (x, y) in pts
        }
        return FiniteTopology(pts, mins)

    def same_as(self, other: "FiniteTopology") -> bool:
        return set(self.points) == set(other.points) and all(
            self.min_open[x] == other.min_open[x] for x in self.points
        )


def topology_from_opens(points, opens) -> FiniteTopology:
    """Build from an explicit family of opens, validating the closure axioms."""
    points = tuple(points)
    pset = frozenset(points)
    fam = {frozenset(U) for U in opens}
    if frozenset() not in fam or pset not in fam:
        raise UnknownPoint("open family must contain the empty set and the full point set")
    for U in fam:
        if not U <= pset:
            raise UnknownPoint(f"open set {sorted(map(repr, U))} has points outside the space")
    for U in fam:
        for V in fam:
            if U | V not in fam or U & V not in fam:
                raise UnknownPoint("open family is not closed under union/intersection")
    mins = {}
    for x in points:
        around = [U for U in fam if x in U]
        m = pset
        for U in around:
            m &= U
        mins[x] = m
    return FiniteTopology(points, mins)


def topology_from_subbase(points, sets) -> FiniteTopology:
    """Topology generated by an arbitrary family of subsets."""
    points = tuple(points)
    pset = frozenset(points)
    mins = {}
    for x in points:
        m = pset
        for S in sets:
            if x in S:
                m &= frozenset(S)
        mins[x] = m
    # y in mins[x] means every generating set through x also contains y, so
    # mins[y] <= mins[x] holds automatically: the map is a valid preorder.
    return FiniteTopology(points, mins)


def discrete_topology(points) -> FiniteTopology:
    points = tuple(points)
    return FiniteTopology(points, {x: frozenset([x]) for x in points})


def indiscrete_topology(points) -> FiniteTopology:
    points = tuple(points)
    full = frozenset(points)
    return FiniteTopology(points, {x: full for x in points})


def minimal_open(T: FiniteTopology, x) -> frozenset:
    """Intersection of all opens containing x (itself open)."""
    return T.minimal_open(x)


def is_continuous(fmap: dict, T_src: FiniteTopology, T_tgt: FiniteTopology) -> bool:
    """Continuity of a (total) point map between finite spaces."""
    for x in T_src.points:
        fx = fmap[x]
        if not {fmap[y] for y in T_src.min_open[x]} <= T_tgt.min_open[fx]:
            return False
    return True


def continuity_witnesses(G: FiniteGroupoid, T: FiniteTopology) -> tuple:
    """First witnesses that inversion and composition of G are discontinuous in T.

    Returns (g, (h, g, h2, g2)), with None for an operation that is
    continuous.  Arrows and composable pairs are scanned in table order.
    For the first failing pair (h, g) the witness names the repr-smallest
    (h2, g2) near it whose composite leaves the minimal open around h∘g, so
    it does not depend on set iteration order.
    """
    inversion = next(
        (g for g in G.arrows if not {G.inv[a] for a in T.min_open[g]} <= T.min_open[G.inv[g]]),
        None,
    )
    for (h, g) in G.composable_pairs():
        near = T.min_open[G.comp[(h, g)]]
        failing = (
            (h2, g2)
            for h2 in T.min_open[h]
            for g2 in T.min_open[g]
            if G.tgt[g2] == G.src[h2] and G.comp[(h2, g2)] not in near
        )
        first = next(failing, None)
        if first is not None:
            return inversion, (h, g) + min([first, *failing], key=repr)
    return inversion, None
