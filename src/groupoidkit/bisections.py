"""Local bisections, their inverse semigroup, and window extendibility.

A local bisection is a section of the source map on an open set of objects
whose target shadow is a homeomorphism onto an open image.  The product
(s*t)(x) = s(beta t x) . t(x) shrinks domains and makes the set of local
bisections an inverse semigroup; window-valued continuous bisections
generate the sub-inverse-semigroup of iterated local procedures.

Extendibility asks whether the window topology spreads to the whole arrow
set: the candidate topology is generated by the window's opens together
with their images under left translation by generated bisections.  Success
requires the window to sit inside the result as an open subspace with its
own topology, and composition and inversion of the ambient groupoid to be
continuous.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from .core import (
    FiniteGroupoid,
    FiniteTopology,
    closure,
    continuity_witnesses,
    discontinuities,
    group_by,
    opens_meeting,
    topology_from_subbase,
)
from .errors import OutOfDomain
from .presentations import LocalGroupoidData


# ---------------------------------------------------------------------------
# local bisections
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalBisection:
    """Partial section of the source map; equality is extensional."""

    domain: frozenset
    values: tuple  # sorted ((point, arrow), ...)

    def as_dict(self) -> dict:
        return dict(self.values)

    def value_at(self, x):
        for (p, a) in self.values:
            if p == x:
                return a
        raise OutOfDomain(f"{x!r} not in the domain")


def make_bisection(mapping: dict) -> LocalBisection:
    return LocalBisection(
        frozenset(mapping),
        tuple(sorted(mapping.items(), key=lambda kv: repr(kv[0]))),
    )


EMPTY_BISECTION = make_bisection({})


def identity_bisection(G: FiniteGroupoid, domain) -> LocalBisection:
    return make_bisection({x: G.id_of[x] for x in domain})


def is_valid_bisection(G: FiniteGroupoid, T0: FiniteTopology, s: LocalBisection) -> bool:
    """Open domain, source section, target shadow an open homeomorphism."""
    if not T0.is_open(s.domain):
        return False
    for p, a in s.values:
        if G.src.get(a) != p:  # None for a non-arrow
            return False
    beta = {p: G.tgt[a] for (p, a) in s.values}
    return len(set(beta.values())) == len(beta) and _open_homeomorphism(T0, beta)


def is_window_bisection(D: LocalGroupoidData, s: LocalBisection) -> bool:
    """Member of the generating family: window values, window continuity."""
    m, valid = s.as_dict(), is_valid_bisection(D.G, D.t_objects, s)
    return valid and set(m.values()) <= D.window and _continuous(m, D.t_objects, D.t_window)


def _open_homeomorphism(T0: FiniteTopology, beta: dict) -> bool:
    """Whether beta, injective on an open set of T0, is a homeomorphism onto an open image.

    The one image test of the predicates and the search.
    """
    inv_beta = {v: k for k, v in beta.items()}
    return T0.is_open(inv_beta) and _continuous(beta, T0, T0) and _continuous(inv_beta, T0, T0)


def _continuous(f: dict, T: FiniteTopology, T_image: FiniteTopology) -> bool:
    """Whether f, a map on an open set of T, is continuous into T_image."""
    return next(discontinuities(f, f, T.min_open, T_image.min_open), None) is None


def compose_bisections(G: FiniteGroupoid, s: LocalBisection, t: LocalBisection) -> LocalBisection:
    """(s*t)(x) = s(beta t x) . t(x) on {x in dom t : beta t x in dom s}.

    The result's domain can be smaller than dom t and may be empty; the
    empty bisection is a legal value (the semigroup zero).  When all of
    dom t survives, the result is t with new values: it keeps t's domain
    set, and a germ stays a germ at the same base.
    """
    ms, tgt = s.as_dict(), G.tgt
    values = tuple((x, G.comp[(ms[tgt[a]], a)]) for x, a in t.values if tgt[a] in ms)
    if len(values) == len(t.values):
        return replace(t, values=values)
    return LocalBisection(frozenset(x for x, _ in values), values)


def relative_inverse(G: FiniteGroupoid, s: LocalBisection) -> LocalBisection:
    """s' with domain beta s (dom s) and s'(y) = inv(s(beta^-1 y))."""
    return make_bisection({G.tgt[a]: G.inv[a] for _, a in s.values})


def left_translate(G: FiniteGroupoid, s: LocalBisection, g):
    """L_s(g) = s(beta g) . g, defined when beta g lies in dom s."""
    m = s.as_dict()
    y = G.tgt[g]
    if y not in m:
        raise OutOfDomain(f"target {y!r} of {g!r} outside the bisection domain")
    return G.comp[(m[y], g)]


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def sections_over(G: FiniteGroupoid, T0: FiniteTopology, carriers, pool, t_window=None) -> list[LocalBisection]:
    """The local bisections of G over T0 on the carriers, which must be open,
    valued in pool and, given t_window, continuous into it.

    Only source sections valued in pool are built, one point at a time in
    repr point order, and a partial section is dropped at its first repeated
    target.  So a full section is tested only for an open image, a shadow
    homeomorphic onto it and, given t_window, window continuity.  Bisections
    come in `itertools.product` order over the points' arrows, each on its
    carrier set itself.  Cost: per carrier, one tuple per partial section
    with distinct targets, and per full section the image test and one walk
    of its minimal opens per continuity test.
    """
    tgt = G.tgt
    by_src = group_by(sorted(pool, key=repr), G.src.__getitem__)
    out = []
    for U in carriers:
        points = sorted(U, key=repr)
        partial = [((), ())]  # (values so far, their targets)
        for p in points:
            step = [(((p, a),), tgt[a]) for a in by_src.get(p, ())]
            partial = [(values + pa, hit + (t,)) for values, hit in partial for pa, t in step if t not in hit]
        for values, hit in partial:
            if _open_homeomorphism(T0, dict(zip(points, hit))):
                if t_window is None or _continuous(dict(values), T0, t_window):
                    out.append(LocalBisection(U, values))
    return out


def local_bisections(G: FiniteGroupoid, T0: FiniteTopology) -> list[LocalBisection]:
    """All local bisections of G over T0 (small instances only)."""
    out = sections_over(G, T0, T0.opens(), G.arrows)
    return sorted(out, key=lambda s: (len(s.domain), s.values))


def w_bisections(D: LocalGroupoidData) -> list[LocalBisection]:
    """All window-valued continuous local bisections (the local procedures)."""
    out = sections_over(D.G, D.t_objects, D.t_objects.opens(), D.window, D.t_window)
    return sorted(out, key=lambda s: (len(s.domain), s.values))


# ---------------------------------------------------------------------------
# the inverse semigroup of iterated local procedures
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class InverseSemigroup:
    """Closure of a bisection family under * and relative inverses."""

    groupoid: FiniteGroupoid
    elements: tuple  # sorted LocalBisections

    def multiply(self, s: LocalBisection, t: LocalBisection) -> LocalBisection:
        return compose_bisections(self.groupoid, s, t)

    def inverse(self, s: LocalBisection) -> LocalBisection:
        return relative_inverse(self.groupoid, s)

    def idempotents(self) -> tuple:
        return tuple(s for s in self.elements if self.multiply(s, s) == s)

    @cached_property
    def _numbering(self) -> _Numbering:
        """The numbering that `inverse_semigroup_laws` codes on; `generate_semigroup` keeps its closure's."""
        return _Numbering(self.groupoid)


class _Numbering:
    """Objects and arrows numbered in repr order, bisections coded on them, and their one product.

    A code c has c[x] the arrow index of s(x), or -1 off the domain.  `mul`
    gives (s * t)[x] = row[t[x]][s[beta t x]]: row[a] maps each arrow h out
    of beta a to the index of h . a and -1 to -1, and row[-1] is all -1.
    Memory: one row entry per composable pair, and 2 |arrows| + 1 more.
    """

    def __init__(self, G: FiniteGroupoid):
        self.objects = sorted(G.objects, key=repr)
        self.arrows = sorted(G.arrows, key=repr)
        self.obj_index = {x: i for i, x in enumerate(self.objects)}
        self.arr_index = arr_index = {a: i for i, a in enumerate(self.arrows)}
        self.tgt = [self.obj_index[G.tgt[a]] for a in self.arrows]
        self.inv = [arr_index[G.inv[a]] for a in self.arrows]
        row: list = [{-1: -1} for _ in self.arrows]
        for (h, a), c in G.comp.items():
            row[arr_index[a]][arr_index[h]] = arr_index[c]
        row.append(dict.fromkeys(range(-1, len(self.arrows)), -1))
        tgt = self.tgt + [0]  # any position serves -1, whose row is all -1

        def mul(s, t) -> tuple:
            return tuple([row[a][s[tgt[a]]] for a in t])

        self.mul = mul

    def encode(self, s: LocalBisection) -> tuple:
        code, obj_index, arr_index = [-1] * len(self.objects), self.obj_index, self.arr_index
        for x, a in s.values:
            code[obj_index[x]] = arr_index[a]
        return tuple(code)

    def decode(self, code) -> LocalBisection:
        pairs = [(self.objects[x], self.arrows[a]) for x, a in enumerate(code) if a >= 0]
        return LocalBisection(frozenset(p for p, _ in pairs), tuple(pairs))

    def relative_inverse(self, code) -> tuple:
        out, tgt, inv = [-1] * len(self.objects), self.tgt, self.inv
        for a in code:
            if a >= 0:
                out[tgt[a]] = inv[a]
        return tuple(out)


def generate_semigroup(G: FiniteGroupoid, gens, max_elements: int | None = None) -> InverseSemigroup:
    """Close gens and their relative inverses under the * product.

    Left multiplication by the inverse-closed seed reaches every finite
    product; `core.closure` takes the seeds as generators greedily, so a
    seed that the closure already holds is never multiplied.  Raises
    CapExceeded, an OverflowError, exactly when the closure exceeds
    max_elements.

    The closure runs on the codes of `_Numbering`, and (g * t)[x] =
    table[t[x]][i] for the i-th generator g: its column, the product of g
    with the code of every arrow, then -1 for -1.  Cost: |closure| *
    |generators| products, each element by each generator once: in the
    backfill of a new generator for the elements closed before it, in the
    walk for the rest.  Memory: (|arrows| + 1) * |generators| ints (columns
    for generators only) plus one tuple of |objects| ints per element.
    Codes are decoded at the end, a generator's code to it.
    """
    num = _Numbering(G)
    mul, every_arrow = num.mul, range(len(num.arrows))
    given: dict = {}  # code -> the caller's generator
    for s in gens:
        given.setdefault(num.encode(s), s)

    seeds = list(set(given).union(map(num.relative_inverse, given)))
    table = [[] for _ in range(len(num.arrows) + 1)]  # a column per generator, appended by adjoin
    walked = []

    def adjoin(g, fresh):
        col = [*mul(g, every_arrow), -1]  # a list: its __getitem__ is the faster to map
        for c, row in zip(col, table):
            row.append(c)
        walked.extend(fresh)
        return (tuple(map(col.__getitem__, t)) for t in walked)

    elements = closure(seeds, lambda t: zip(*map(table.__getitem__, t)), max_elements, adjoin)
    decoded = [given.get(code) or num.decode(code) for code in elements]  # bisections are truthy
    out = sorted(decoded, key=lambda s: (len(s.domain), s.values))
    S = InverseSemigroup(G, tuple(out))
    vars(S)["_numbering"] = num  # the laws code on the closure's numbering
    return S


def inverse_semigroup_laws(S: InverseSemigroup) -> list:
    """Violations of s s' s = s, s' s s' = s', and commuting idempotents.

    Each element is encoded once, and multiplied as a code by the product
    of `S._numbering`: the closure's own when `generate_semigroup` built S,
    so no numbering is built twice.  Elements compare as codes, that is
    extensionally.  The witnesses are the elements themselves: ("ss's=s",
    s) and ("s'ss'=s'", s) in element order, then ("idempotents-commute",
    (e, f)) over the pairs of idempotents in that order.  Cost: 5
    |elements| + 2 |idempotents|^2 products, each |objects| lookups.
    Memory: one code per element; the numbering lives as long as S.
    """
    num = S._numbering
    mul = num.mul
    coded = [(s, num.encode(s)) for s in S.elements]
    bad = []
    for s, c in coded:
        cp = num.relative_inverse(c)
        if mul(mul(c, cp), c) != c:
            bad.append(("ss's=s", s))
        if mul(mul(cp, c), cp) != cp:
            bad.append(("s'ss'=s'", s))
    idem = [(s, c) for s, c in coded if mul(c, c) == c]
    for e, ce in idem:
        for f, cf in idem:
            if mul(ce, cf) != mul(cf, ce):
                bad.append(("idempotents-commute", (e, f)))
    return bad


# germs build on the bisection operations above, so import them only here
from .germs import germ_closure, left_translations, window_germs  # noqa: E402


# ---------------------------------------------------------------------------
# sectionability and extendibility
# ---------------------------------------------------------------------------


def is_sectionable(D: LocalGroupoidData) -> bool:
    """Every window arrow lies on some window bisection through its source.

    Checked on germs: a window germ at alpha(w) with value w restricts a
    window bisection through w and conversely.
    """
    gens = window_germs(D)
    hit = {(g.base, g.value) for g in gens}
    return all((D.G.src[w], w) in hit for w in D.window)


@dataclass(frozen=True, eq=False)
class ExtendibilityResult:
    ok: bool
    topology: FiniteTopology
    failures: tuple  # (kind, witness) pairs
    generator_germs: tuple  # the window germs
    closure_germs: tuple  # their closure under composition

    def __bool__(self) -> bool:
        return self.ok


def check_extendible(D: LocalGroupoidData) -> ExtendibilityResult:
    """Try to extend the window topology to the whole arrow set.

    The candidate topology is generated by the window's basic opens plus
    left-translation images L_s(V) with s running over the generated
    bisections.  Each L_s(V) is a union of germ-level pieces, so the germs
    suffice as translation data: the pieces of V under every germ at x zip
    V's columns of `left_translations` over the window arrows, built once
    per call from the window's kept closure, for each V with an arrow into
    min_open[x] (indexed once, by target).  Failure kinds:

    - ``window-not-open``: W is not open in the result;
    - ``window-subspace``: the result does not restrict to the window
      topology on W (witness: an arrow whose neighbourhood filter changed);
    - ``composition-discontinuous`` / ``inversion-discontinuous``: witnessed
      by a composable pair or arrow.
    """
    G, TW = D.G, D.t_window
    gens, closure = germ_closure(D)

    window_base = TW.base()
    subbase: set = set(window_base)
    meeting = opens_meeting(window_base, G.tgt.__getitem__)
    for x, col in left_translations(D, closure, D.window).items():
        for V in meeting(D.t_objects.min_open[x]):
            subbase.update(map(frozenset, zip(*[col[v] for v in V if v in col])))
    T_arr = topology_from_subbase(G.arrows, subbase)

    failures = []
    if not T_arr.is_open(D.window):
        failures.append(("window-not-open", None))
    sub = T_arr.subspace(D.window)
    for w in sorted(D.window, key=repr):
        if sub.min_open[w] != TW.min_open[w]:
            failures.append(("window-subspace", w))
            break
    inversion, composition = continuity_witnesses(G, T_arr)
    if inversion is not None:
        failures.append(("inversion-discontinuous", inversion))
    if composition is not None:
        failures.append(("composition-discontinuous", composition))
    return ExtendibilityResult(not failures, T_arr, tuple(failures), gens, closure)
