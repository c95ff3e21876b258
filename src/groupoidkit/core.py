"""Finite groupoids as explicit tables, finite groups, and finite topologies.

A groupoid is stored by enumerating its arrows together with source/target,
identity, inverse and composition tables.  Composition follows the convention
that ``comp(h, g)`` is "h after g": it is defined exactly when
``tgt(g) == src(h)`` and the composite runs ``src(g) -> tgt(h)``.

Operations never change their inputs' tables.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from dataclasses import dataclass

from .errors import (
    CapExceeded,
    EmptyNotAllowed,
    InvalidMorphism,
    NotAGroupoid,
    NotAPartition,
    NotComposable,
    UnknownObject,
    UnknownPoint,
)

_MISSING = object()  # the validators' marker for a product missing from its table


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
# generic algorithms
# ---------------------------------------------------------------------------


def closure(seeds, products, max_elements: int | None = None, adjoin=None) -> list:
    """Seeds, then every new element among products(t) of each element t, in order of discovery.

    The one closure loop of the package: semigroups of bisections, germs,
    open sets and subgroups differ only in their elements and products.
    With adjoin, seeds become generators greedily (the closure step of
    Froidure and Pin): a seed the closure holds is skipped; adjoin(g, fresh)
    adds a new one to those products(t) multiplies t by and returns the
    products g * t, where defined, of every element walked so far, fresh
    listing those walked since its previous call.  The set is the one all
    seeds generate.  Seeds count too: CapExceeded past max_elements elements.
    """
    if adjoin is None:
        seen, elements = set(seeds), list(seeds)
        batches = map(products, elements)  # map reads elements as they are appended
    else:
        seen, elements = set(), []
        batches = _greedy_batches(seeds, products, adjoin, seen, elements)
    is_seen = seen.__contains__
    for batch in batches:
        if max_elements is not None and len(seen) > max_elements:
            break
        fresh = dict.fromkeys(itertools.filterfalse(is_seen, batch))
        if fresh:
            seen.update(fresh)
            elements.extend(fresh)
    if max_elements is not None and len(seen) > max_elements:
        raise CapExceeded(f"semigroup closure exceeded {max_elements} elements")
    return elements


def _greedy_batches(seeds, products, adjoin, seen, elements):
    """`closure`'s batches with adjoin: each new generator with its products, then the walk of what they found."""
    walked = 0
    for g in seeds:
        if g not in seen:
            fresh, walked = elements[walked:], len(elements)
            yield itertools.chain((g,), adjoin(g, fresh))
            yield from map(products, itertools.islice(elements, walked, None))


def group_by(items, key) -> dict:
    """Each key mapped to the items with that key: keys in order of first appearance, items in the order given.

    The one group-by of the package: stars of a groupoid, the blocks of a
    partition, germs by base, squares and cubes by their edges and faces.
    """
    groups: dict = {}
    for a in items:
        groups.setdefault(key(a), []).append(a)
    return groups


def partition(items, pairs) -> list:
    """The blocks of the equivalence relation that pairs generate on items, by union-find.

    Each block lists its items in the order given, and the blocks come in
    the order of their first items.
    """
    parent = {i: i for i in items}

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for (a, b) in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return list(group_by(items, find).values())


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
    """Exhaustively check the group axioms, reporting every violation.

    As `validate_groupoid` on one object, a·b being b∘a: one walk over K.mul
    checks closure and numbers a·b into col[a], b in element order.  Cost:
    |K|² product reads and 4|K| for the laws, then `associativity_failures`.
    """
    bad: list[Violation] = []
    elems = K.elements
    num = {a: i for i, a in enumerate(elems)}
    if len(num) != len(elems):
        return ValidationReport((Violation("distinct-elements", (), "duplicate elements"),))
    if K.identity not in num:
        return ValidationReport((Violation("identity-element", (K.identity,), "identity not an element"),))
    for key in K.mul:  # a key that is not a pair of elements is reported, not unpacked
        if not (isinstance(key, tuple) and len(key) == 2 and key[0] in num and key[1] in num):
            bad.append(Violation("mul-domain", key, "mul defined outside elements × elements"))
    col = []
    for a in elems:
        try:
            col.append(tuple([num[K.mul.get((a, b), _MISSING)] for b in elems]))
        except KeyError:  # a product missing or outside the group: this column lists each
            bad.extend(Violation("closure", (a, b), "product missing or outside group")
                       for b in elems if K.mul.get((a, b), _MISSING) not in num)
    if bad:
        return ValidationReport(tuple(bad))
    for a in elems:
        if K.mul[(K.identity, a)] != a or K.mul[(a, K.identity)] != a:
            bad.append(Violation("identity-law", (a,), "identity law fails"))
        ai = K.inv.get(a)
        if ai not in num or K.mul[(a, ai)] != K.identity or K.mul[(ai, a)] != K.identity:
            bad.append(Violation("inverse-law", (a,), "inverse law fails"))
    one = dict.fromkeys(elems, K.identity)  # "a then b" composed as b∘a
    bad.extend(Violation("associativity", (a, b, c), "associativity fails")
               for c, b, a in associativity_failures(elems, one, one, {K.identity: elems}, col))
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
    order.  The images h_i of the first generators g_i extend to a
    homomorphism exactly when the subgroup of A x B that the pairs
    (g_i, h_i) generate is the graph of a map.  Intended for the small
    groups used in this package.
    """
    if A.order != B.order:
        return None
    orders_a = sorted(A.element_order(a) for a in A.elements)
    orders_b = sorted(B.element_order(b) for b in B.elements)
    if orders_a != orders_b:
        return None

    # Greedy generating sequence for A: each element outside the span so far.
    gens: list = []
    span = {A.identity}
    for a in A.elements:
        if a not in span:
            gens.append(a)
            span = set(closure([A.identity], lambda x: (A.mul[(x, g)] for g in gens)))
    by_order = group_by(B.elements, B.element_order)

    def backtrack(images: list) -> dict | None:
        pairs = list(zip(gens, images))
        graph = closure([(A.identity, B.identity)], lambda p: ((A.mul[(p[0], g)], B.mul[(p[1], h)]) for g, h in pairs))
        table = dict(graph)
        if len(table) != len(graph):
            return None
        if len(images) == len(gens):
            return table if len(set(table.values())) == A.order else None
        for b in by_order[A.element_order(gens[len(images)])]:
            out = backtrack(images + [b])
            if out is not None:
                return out
        return None

    return backtrack([])


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
        """Arrows x -> y.  Raises UnknownObject when x or y is not an object."""
        star = self.star(x)
        self.identity(y)
        return tuple(a for a in star if self.tgt[a] == y)

    def composable_pairs(self):
        """(h, g) with tgt g == src h: g in arrow order, then h in arrow order."""
        return composable(self.arrows, self.src, self.tgt)


def composable(arrows, src, tgt):
    """The pairs (h, g) with tgt g == src h: g in the order given, then h.

    The pairs are generated, not listed: a table built from them never
    holds the pairs and the table at once.
    """
    stars = group_by(arrows, src.__getitem__)
    return ((h, g) for g in arrows for h in stars.get(tgt[g], ()))


def make_groupoid(objects, arrows, src, tgt, id_of, inv, comp) -> FiniteGroupoid:
    """Freeze constructor: sorts object/arrow listings for determinism.  The groupoid
    owns the five tables it is handed, uncopied: callers pass fresh dicts and leave them."""
    return FiniteGroupoid(
        tuple(sorted(objects, key=repr)), tuple(sorted(arrows, key=repr)), src, tgt, id_of, inv, comp
    )


def validate_groupoid(G: FiniteGroupoid) -> ValidationReport:
    """Check every groupoid axiom on the tables; list all violations.

    The report is empty iff G is a groupoid.  Nothing raises here so that
    deliberately broken tables can be diagnosed.  One walk, g in arrow order
    and then h in the star of tgt g, reads each comp entry once: it checks
    totality, closure and endpoints, and numbers h∘g into the column col[g]
    of `associativity_failures`.  Cost: one read per composable pair and four
    per arrow for the identity and inverse laws, then `associativity_failures`.
    """
    bad: list[Violation] = []
    arrows, src, tgt, comp = G.arrows, G.src, G.tgt, G.comp
    num = {a: i for i, a in enumerate(arrows)}
    oset = set(G.objects)
    if len(num) != len(arrows):
        bad.append(Violation("distinct-arrows", (), "duplicate arrow ids"))
    if len(oset) != len(G.objects):
        bad.append(Violation("distinct-objects", (), "duplicate object ids"))
    for a in arrows:
        if src.get(a) not in oset or tgt.get(a) not in oset:
            bad.append(Violation("endpoints", (a,), "src/tgt missing or unknown"))
    if bad:
        return ValidationReport(tuple(bad))
    for x in G.objects:
        e = G.id_of.get(x)
        if e not in num:
            bad.append(Violation("identity-exists", (x,), "no identity arrow"))
            continue
        if src[e] != x or tgt[e] != x:
            bad.append(Violation("identity-endpoints", (x, e), "identity endpoints differ from its object"))
    for a in arrows:
        ai = G.inv.get(a)
        if ai not in num:
            bad.append(Violation("inverse-exists", (a,), "no inverse arrow"))
    for key in comp:
        # a key that is not a pair of arrows is reported, not unpacked
        if not (isinstance(key, tuple) and len(key) == 2 and key[0] in num and key[1] in num
                and tgt[key[1]] == src[key[0]]):
            bad.append(Violation("composition-domain", key, "comp defined on a non-composable pair"))
    stars, col = group_by(arrows, src.__getitem__), []
    for g in arrows:
        column, sg = [], src[g]
        for h in stars.get(tgt[g], ()):
            hg = comp.get((h, g), _MISSING)
            i = num.get(hg)
            if hg is _MISSING:
                bad.append(Violation("composition-total", (h, g), "composable pair missing from comp"))
            elif i is None:
                bad.append(Violation("composition-closure", (h, g), "composite is not an arrow"))
            elif src[hg] != sg or tgt[hg] != tgt[h]:
                bad.append(Violation("composition-endpoints", (h, g, hg), "composite endpoints wrong"))
            column.append(i)
        col.append(tuple(column))
    if any(v.rule.startswith(("identity", "composition")) or v.rule == "inverse-exists" for v in bad):
        return ValidationReport(tuple(bad))
    for a in arrows:
        ex, ey = G.id_of[src[a]], G.id_of[tgt[a]]
        if comp[(a, ex)] != a:
            bad.append(Violation("right-identity", (a,), "a∘id != a"))
        if comp[(ey, a)] != a:
            bad.append(Violation("left-identity", (a,), "id∘a != a"))
        ai = G.inv[a]
        if src[ai] != tgt[a] or tgt[ai] != src[a]:
            bad.append(Violation("inverse-endpoints", (a, ai), "inverse endpoints wrong"))
            continue
        if comp[(ai, a)] != G.id_of[src[a]]:
            bad.append(Violation("inverse-law", (a,), "inv(a)∘a != id(src a)"))
        if comp[(a, ai)] != G.id_of[tgt[a]]:
            bad.append(Violation("inverse-law", (a,), "a∘inv(a) != id(tgt a)"))
    bad.extend(Violation("associativity", kgh, "associativity fails")
               for kgh in associativity_failures(arrows, src, tgt, stars, col))
    return ValidationReport(tuple(bad))


def associativity_failures(arrows, src, tgt, stars, col):
    """Each (k, h, g) with k∘(h∘g) != (k∘h)∘g: g in the order given, then h
    and k in the order of stars[x], the arrows out of each x in that order.
    The arrows must be distinct; col[a] numbers k∘a for k in the star of tgt a.

    With at[a] placing a in the star of src a, k∘(h∘g) is col[h∘g]
    and (k∘h)∘g is col[g] read at the places of col[h].  Light's test comes
    first: the middle arrows h for which the two agree with every g are
    closed under composition (without identities or associativity), so the
    join of every composable (h, g) runs only when some h of a generating set
    A fails.  Cost: Σ_{h∈A} |into src h| products and as many comparisons
    when the table passes; the join's Σ_g |star tgt g| comparisons as well
    when it fails.
    """
    num = {a: i for i, a in enumerate(arrows)}
    at = {num[a]: i for star in stars.values() for i, a in enumerate(star)}
    # finding A walks every arrow: measured, the test loses up to four columns per arrow and wins from six
    if sum(map(len, col)) > 4 * len(col) and _light(arrows, src, tgt, col, at):
        return
    cpos = [tuple(map(at.__getitem__, column)) for column in col]
    for g, cg in zip(arrows, col):
        for h, hg in zip(stars[tgt[g]], cg):
            right = tuple(map(cg.__getitem__, cpos[num[h]]))
            if col[hg] != right:
                for k, x, y in zip(stars[tgt[h]], col[hg], right):
                    if x != y:
                        yield k, h, g


def _light(arrows, src, tgt, col, at) -> bool:
    """Light's test: col[h∘g] is col[g] read at the places of col[h], for each generator h and g into src h."""
    into = group_by(range(len(arrows)), lambda g: tgt[arrows[g]])
    for h in _generators(arrows, src, tgt, col, at):
        places = tuple(map(at.__getitem__, col[h]))  # itemgetter returns a lone entry bare
        read = operator.itemgetter(*places) if len(places) > 1 else lambda c: tuple(map(c.__getitem__, places))
        if not all(col[cg[at[h]]] == read(cg) for cg in map(col.__getitem__, into.get(src[arrows[h]], ()))):
            return False
    return True


def _generators(arrows, src, tgt, col, at) -> list:
    """A greedy generating set of the arrows under composition, as arrow numbers: `closure`
    with adjoin, t multiplied only by the generators h leaving tgt t, h∘t being col[t][at[h]]."""
    leaving, into, gens = {}, {}, []  # places of the generators out of x; walked arrows into x

    def adjoin(h, fresh):
        for t in fresh:
            into.setdefault(tgt[arrows[t]], []).append(t)
        leaving.setdefault(src[arrows[h]], []).append(at[h])
        gens.append(h)
        return [col[t][at[h]] for t in into.get(src[arrows[h]], ())]

    closure(range(len(arrows)), lambda t: map(col[t].__getitem__, leaving.get(tgt[arrows[t]], ())), adjoin=adjoin)
    return gens


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
    blocks = partition(G.objects, ((G.src[a], G.tgt[a]) for a in G.arrows))
    return tuple(sorted(map(frozenset, blocks), key=lambda s: sorted(map(repr, s))))


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
    h_objects, h_arrows = set(H.objects), set(H.arrows)
    for x in G.objects:
        if p.obj_map.get(x) not in h_objects:
            bad.append(Violation("object-map", (x,), "object image missing/unknown"))
    for a in G.arrows:
        fa = p.arr_map.get(a)
        if fa not in h_arrows:
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
    # the images of a morphism's star lie in the image's star
    return unique_lifting_holds(p)


def unique_lifting_holds(p: GroupoidMorphism) -> bool:
    """For a covering: each arrow out of p(x~) has exactly one lift at x~."""
    G, H = p.source, p.target
    g_stars, h_stars = group_by(G.arrows, G.src.__getitem__), group_by(H.arrows, H.src.__getitem__)
    for x in G.objects:
        lifts = Counter(p.arr_map[a] for a in g_stars.get(x, ()))
        if any(lifts[g] != 1 for g in h_stars.get(p.obj_map[x], ())):
            return False
    return True


# ---------------------------------------------------------------------------
# standard constructions
# ---------------------------------------------------------------------------


def _groupoid_of_cells(units: dict, cells, name, ends, inverse, compose) -> FiniteGroupoid:
    """The one table builder of the constructions: each arrow is a hashable cell, named name(c).

    ends(c) is its (source, target), inverse(c) and compose(h, g) (h after
    g) are listed cells, and units maps each object, in order, to its unit
    cell.  src, tgt and inv follow cell order, id_of object order and comp
    `composable`, so no insertion order follows the hash seed.  Two cells
    with one name raise NotAGroupoid naming the first.  Cost: one name call
    per cell and one compose call per composable pair.  The germ groupoid J
    fills its comp from whole columns of `germs.left_translations` (its fast
    path), and the holonomy quotient pushes J's tables through `coset_of`:
    neither composes pair by pair, so neither is built here.
    """
    cells = list(cells)
    arrows = list(map(name, cells))
    cell_of, named = dict(zip(arrows, cells)), dict(zip(cells, arrows))
    if len(cell_of) != len(cells):
        shared = next(a for a, n in Counter(arrows).items() if n > 1)
        raise NotAGroupoid(f"two arrows are named {shared!r}")
    src, tgt = {}, {}
    for a, c in zip(arrows, cells):
        src[a], tgt[a] = ends(c)
    inv = {a: named[inverse(c)] for a, c in zip(arrows, cells)}
    id_of = {x: named[u] for x, u in units.items()}
    comp = {(h, g): named[compose(cell_of[h], cell_of[g])] for h, g in composable(arrows, src, tgt)}
    return make_groupoid(units, arrows, src, tgt, id_of, inv, comp)


def indiscrete(n: int) -> FiniteGroupoid:
    """Exactly one arrow between each ordered pair of the objects 0..n-1."""
    if n < 1:
        raise EmptyNotAllowed("indiscrete needs n >= 1")
    objects = [str(i) for i in range(n)]
    return _pairs_groupoid(objects, [objects], lambda c: f"id:{c[0]}" if c[0] == c[1] else f"a:{c[0]}->{c[1]}")


def one_object_groupoid(K: FiniteGroup) -> FiniteGroupoid:
    """The group K as a groupoid on one object ``o``: K acting on one point.

    Arrow ids are ``g:<element>`` apart from the identity ``id:o``;
    ``K.mul[(a, b)]`` ("a followed by b") is ``G.compose(b, a)``.  Two
    elements whose ids coincide are refused with NotAGroupoid.
    """
    act = {(g, "o"): "o" for g in K.elements}
    return _action_groupoid(K, ["o"], act, lambda c: "id:o" if c[0] == K.identity else f"g:{c[0]}")


def action_groupoid(K: FiniteGroup, points, act: dict) -> FiniteGroupoid:
    """Action groupoid of K acting on the points.

    ``act[(g, x)]`` is the point reached from x by g, with
    ``act[(K.mul[(g, h)], x)] == act[(h, act[(g, x)])]``  (apply g, then h).
    Arrows are (g, x): x -> g.x, named ``id:x`` for the identity of K; two
    arrows whose ids coincide are refused with NotAGroupoid, and a pair
    (g, x) that ``act`` misses or sends outside the points with UnknownPoint.
    """
    return _action_groupoid(K, points, act, lambda c: f"id:{c[1]}" if c[0] == K.identity else f"g:{c[0]}@{c[1]}")


def _action_groupoid(K: FiniteGroup, points, act: dict, name) -> FiniteGroupoid:
    """`action_groupoid` with the arrow (g, x) named name((g, x))."""
    points = list(points)
    cells, known = [(g, x) for g in K.elements for x in points], set(points)
    for c in cells:
        if c not in act:
            raise UnknownPoint(f"act has no value at {c!r}")
        if act[c] not in known:
            raise UnknownPoint(f"act sends {c!r} to {act[c]!r}, which is not a point")
    return _groupoid_of_cells(
        {x: (K.identity, x) for x in points},
        cells,
        name,
        lambda c: (c[1], act[c]),
        lambda c: (K.inv[c[0]], act[c]),
        lambda h, g: (K.mul[(g[0], h[0])], g[1]),
    )


def equivalence_groupoid(points, blocks) -> FiniteGroupoid:
    """Arrows are the ordered same-block pairs: the pair (x, y) is x -> y.

    The blocks must partition the points: a point in no block or in two,
    or a block member that is not a point, is refused with NotAPartition.
    """
    return _pairs_groupoid(points, blocks, lambda c: f"id:{c[0]}" if c[0] == c[1] else f"{c[0]}>{c[1]}")


def _pairs_groupoid(points, blocks, name) -> FiniteGroupoid:
    """`equivalence_groupoid` with the pair (x, y) named name((x, y)).

    Each block is read in the order given, so the tables' insertion order
    does not follow the hash seed.
    """
    points, blocks = list(points), [tuple(dict.fromkeys(b)) for b in blocks]
    known, held = set(points), Counter(x for b in blocks for x in b)
    for x in (*points, *held):
        if x not in known or held[x] != 1:
            raise NotAPartition(f"point {x!r} is in {held[x]} blocks" if x in known else f"{x!r} is not a point")
    block_of = {x: b for b in blocks for x in b}
    return _groupoid_of_cells(
        {x: (x, x) for x in points},
        [(x, y) for x in points for y in block_of[x]],
        name,
        lambda c: c,
        lambda c: (c[1], c[0]),
        lambda h, g: (g[0], h[1]),
    )


def pair_groupoid(points) -> FiniteGroupoid:
    points = list(points)
    return equivalence_groupoid(points, [points])


def product_groupoid(G: FiniteGroupoid, H: FiniteGroupoid) -> FiniteGroupoid:
    """Componentwise product; arrows are pairs written ``a|b``, and two that coincide raise NotAGroupoid."""
    def name(c):
        a, b = c
        return f"id:{G.src[a]}|{H.src[b]}" if G.is_identity(a) and H.is_identity(b) else f"{a}|{b}"

    return _groupoid_of_cells(
        {f"{x}|{y}": (G.id_of[x], H.id_of[y]) for x in G.objects for y in H.objects},
        itertools.product(G.arrows, H.arrows),
        name,
        lambda c: (f"{G.src[c[0]]}|{H.src[c[1]]}", f"{G.tgt[c[0]]}|{H.tgt[c[1]]}"),
        lambda c: (G.inv[c[0]], H.inv[c[1]]),
        lambda h, g: (G.comp[(h[0], g[0])], H.comp[(h[1], g[1])]),
    )


def disjoint_union(G: FiniteGroupoid, H: FiniteGroupoid, tags=("L", "R")) -> FiniteGroupoid:
    """Disjoint union with objects and arrows tagged to avoid collisions.  Tags that
    let two arrow ids coincide (equal tags on parts sharing an id) raise NotAGroupoid."""
    def name(c):
        t, K, a = c
        return f"id:{t}.{K.src[a]}" if K.is_identity(a) else f"{t}.{a}"

    lt, rt = tags
    parts = ((lt, G), (rt, H))
    return _groupoid_of_cells(
        {f"{t}.{x}": (t, K, K.id_of[x]) for t, K in parts for x in K.objects},
        [(t, K, a) for t, K in parts for a in K.arrows],
        name,
        lambda c: (f"{c[0]}.{c[1].src[c[2]]}", f"{c[0]}.{c[1].tgt[c[2]]}"),
        lambda c: (c[0], c[1], c[1].inv[c[2]]),
        lambda h, g: (g[0], g[1], g[1].comp[(h[2], g[2])]),
    )


def groupoid_isomorphism(G: FiniteGroupoid, H: FiniteGroupoid) -> tuple[dict, dict] | None:
    """An isomorphism (object map, arrow map); None if there is none.

    A connected groupoid is its vertex group times the tree groupoid on its
    objects, so G and H are isomorphic exactly when their components match
    by object count and vertex group.  Components are matched greedily,
    comparing the vertex groups at their repr-least objects x and x'.  In a
    matched pair, with psi the group isomorphism, objects pair in repr
    order, t_z is the first arrow x -> z (the identity at x), and a: y -> z
    maps to t'_z' . psi(t_z^-1 . a . t_y) . t'_y'^-1.
    """
    if len(G.objects) != len(H.objects) or len(G.arrows) != len(H.arrows):
        return None
    g_stars, h_stars = group_by(G.arrows, G.src.__getitem__), group_by(H.arrows, H.src.__getitem__)

    def tree(K, stars, x) -> dict:
        t = {x: K.id_of[x]}
        for a in stars[x]:
            t.setdefault(K.tgt[a], a)
        return t

    unmatched = [sorted(C, key=repr) for C in components(H)]
    obj_map: dict = {}
    arr_map: dict = {}
    for C in components(G):
        xs = sorted(C, key=repr)
        K = vertex_group(G, xs[0])
        for ys in unmatched:
            psi = group_isomorphism(K, vertex_group(H, ys[0])) if len(ys) == len(xs) else None
            if psi is not None:
                break
        else:
            return None
        unmatched.remove(ys)
        obj_map.update(zip(xs, ys))
        t, u = tree(G, g_stars, xs[0]), tree(H, h_stars, ys[0])
        for y in xs:
            for a in g_stars[y]:
                z = G.tgt[a]
                loop = G.comp[(G.inv[t[z]], G.comp[(a, t[y])])]
                arr_map[a] = H.comp[(u[obj_map[z]], H.comp[(psi[loop], H.inv[u[obj_map[y]]])])]
    return obj_map, arr_map


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
        U, min_open = frozenset(U), self.min_open  # min_open's keys are the points
        return all(x in min_open and min_open[x] <= U for x in U)

    def base(self) -> tuple[frozenset, ...]:
        return tuple(sorted(set(self.min_open.values()), key=lambda s: (len(s), sorted(map(repr, s)))))

    def opens(self):
        """All open sets (exponential in general; use on small spaces only)."""
        base = set(self.min_open.values())
        found = closure([frozenset()], lambda U: (U | b for b in base))
        return sorted(found, key=lambda s: (len(s), sorted(map(repr, s))))

    def subspace(self, subset) -> "FiniteTopology":
        """The points of subset in the space's order, each minimal open cut to them; others are dropped."""
        kept = frozenset(subset).intersection(self.points)
        points = tuple(p for p in self.points if p in kept)
        return FiniteTopology(points, {x: kept & self.min_open[x] for x in points})

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
    return topology_from_subbase(points, fam)


def topology_from_subbase(points, sets) -> FiniteTopology:
    """Topology generated by a family of subsets: each set cuts down its members' minimal opens (sum of |S|)."""
    points = tuple(points)
    mins = dict.fromkeys(points, frozenset(points))
    for S in sets:
        S = frozenset(S)
        for x in S:
            if x in mins:
                mins[x] &= S
    # y in mins[x] means every generating set through x also contains y, so
    # mins[y] <= mins[x] holds automatically: the map is a valid preorder.
    return FiniteTopology(points, mins)


def opens_meeting(opens, key):
    """A map from keys to the opens holding a point v with key(v) among them, each once; indexes once."""
    index: dict = {}
    for V in opens:
        for k in {key(v) for v in V}:
            index.setdefault(k, []).append(V)
    return lambda keys: dict.fromkeys(V for k in keys for V in index.get(k, ()))


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


def discontinuities(f, points, near, near_image):
    """Each x of points, in the order given, where f sends near[x] outside near_image[f[x]].

    The one continuity test: with near and near_image the minimal-open maps
    of two finite spaces, f is continuous at x exactly when x is not yielded.
    """
    for x in points:
        around = near_image[f[x]]
        for y in near[x]:
            if f[y] not in around:
                yield x
                break


def is_continuous(fmap: dict, T_src: FiniteTopology, T_tgt: FiniteTopology) -> bool:
    """Continuity of a (total) point map between finite spaces."""
    return not any(True for _ in discontinuities(fmap, T_src.points, T_src.min_open, T_tgt.min_open))


def continuity_witnesses(G: FiniteGroupoid, T: FiniteTopology) -> tuple:
    """First witnesses that inversion and composition of G are discontinuous in T.

    Returns (g, (h, g, h2, g2)), with None for an operation that is
    continuous.  Arrows and composable pairs are scanned in table order.
    For the first failing pair (h, g) the witness names the repr-smallest
    (h2, g2) near it whose composite leaves the minimal open around h∘g, so
    it does not depend on set iteration order.

    Only the other composable pairs near (h, g) are tested, since h∘g lies
    in its own minimal open: (h2, g2) with h2 in U_h - {h} and g2 in U_g,
    joined by endpoint (U_g is grouped by target once per g), and (h, g2)
    with g2 in U_g - {g} and tgt g2 = tgt g.  A pair of two open points
    (U_h = {h}, U_g = {g}) has no other pair near it, so for an open g
    only the h of the star of tgt g that are not open are visited.
    """
    near, src, tgt, comp = T.min_open, G.src, G.tgt, G.comp
    inversion = next(discontinuities(G.inv, G.arrows, near, near), None)

    def witness(h, g, by_tgt, around):
        failing = [(h2, g2) for h2 in near[h] for g2 in by_tgt.get(src[h2], ()) if comp[h2, g2] not in around]
        return inversion, (h, g) + min(failing, key=repr)

    stars = group_by(G.arrows, src.__getitem__)
    others = {a: [b for b in near[a] if b != a] for a in G.arrows}  # empty exactly at the open points
    not_open = {x: [h for h in star if others[h]] for x, star in stars.items()}
    for g in G.arrows:
        hs = (stars if others[g] else not_open).get(tgt[g])
        if not hs:
            continue
        by_tgt = group_by(near[g], tgt.__getitem__)
        beside = [g2 for g2 in by_tgt[tgt[g]] if g2 != g]
        for h in hs:
            around = near[comp[h, g]]
            for h2 in others[h]:
                for g2 in by_tgt.get(src[h2], ()):
                    if comp[h2, g2] not in around:
                        return witness(h, g, by_tgt, around)
            for g2 in beside:
                if comp[h, g2] not in around:
                    return witness(h, g, by_tgt, around)
    return inversion, None
