"""Germs of local bisections over finite topologies.

In a finite space the germ of a section at x is exactly its restriction to
the minimal open set around x, so germs are finite data: a base point plus
the value map on that minimal open.  Window germs (values in W, continuous
into the window topology) generate, under germ composition, the germs of
every iterated product of window bisections; the closure computed here is
therefore the arrow set of the germ groupoid without ever materialising the
full inverse semigroup.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .presentations import LocalGroupoidData


@dataclass(frozen=True)
class Germ:
    """Germ at `base`: values on the minimal open around the base point."""

    base: object
    values: tuple  # sorted ((point, arrow), ...) over minimal_open(base)

    def value_at(self, point):
        for (p, a) in self.values:
            if p == point:
                return a
        raise KeyError(point)

    @property
    def value(self):
        return self.value_at(self.base)

    def as_dict(self) -> dict:
        return dict(self.values)


def make_germ(base, mapping: dict) -> Germ:
    return Germ(base, tuple(sorted(mapping.items(), key=lambda kv: repr(kv[0]))))


def germ_target(D: LocalGroupoidData, g: Germ):
    return D.G.tgt[g.value]


def _beta(D: LocalGroupoidData, mapping: dict) -> dict:
    return {p: D.G.tgt[a] for (p, a) in mapping.items()}


def is_valid_germ(D: LocalGroupoidData, g: Germ) -> bool:
    """Section of the source map whose target shadow is a local homeomorphism."""
    G, T0 = D.G, D.t_objects
    U = T0.min_open[g.base]
    m = g.as_dict()
    if set(m) != set(U):
        return False
    arrows = set(G.arrows)
    for p, a in m.items():
        if a not in arrows or G.src[a] != p:
            return False
    beta = _beta(D, m)
    if len(set(beta.values())) != len(beta):
        return False
    image = frozenset(beta.values())
    if not T0.is_open(image):
        return False  # bisection shadows carry opens to opens
    # forward continuity on each minimal open inside U
    for p in U:
        if not {beta[q] for q in T0.min_open[p]} <= T0.min_open[beta[p]]:
            return False
    # inverse continuity: preimages of minimal opens stay minimal
    inv_beta = {v: k for k, v in beta.items()}
    for w in image:
        for w2 in T0.min_open[w] & image:
            if inv_beta[w2] not in T0.min_open[inv_beta[w]]:
                return False
    return True


def is_window_germ(D: LocalGroupoidData, g: Germ) -> bool:
    """Values in the window and continuity into the window topology."""
    T0, TW = D.t_objects, D.t_window
    m = g.as_dict()
    if not set(m.values()) <= D.window:
        return False
    for p in m:
        if not {m[q] for q in T0.min_open[p]} <= TW.min_open[m[p]]:
            return False
    return True


def window_germs(D: LocalGroupoidData) -> tuple[Germ, ...]:
    """Every germ of a window-valued continuous local bisection.

    A window germ at x extends to the bisection defined on the minimal open
    itself, so enumerating maps on minimal opens is exhaustive.
    """
    G, T0 = D.G, D.t_objects
    out = []
    by_src: dict = {}
    for w in D.window:
        by_src.setdefault(G.src[w], []).append(w)
    for x in G.objects:
        U = sorted(T0.min_open[x], key=repr)
        cands = [sorted(by_src.get(p, []), key=repr) for p in U]
        for choice in product(*cands):
            germ = make_germ(x, dict(zip(U, choice)))
            if is_valid_germ(D, germ) and is_window_germ(D, germ):
                out.append(germ)
    return tuple(sorted(out, key=lambda g: (repr(g.base), g.values)))


def compose_germs(D: LocalGroupoidData, g1: Germ, g2: Germ) -> Germ:
    """g1 after g2; g1 must be based at the target of g2."""
    G, T0 = D.G, D.t_objects
    if g1.base != germ_target(D, g2):
        raise ValueError("germs not composable")
    m2 = g2.as_dict()
    m1 = g1.as_dict()
    out = {}
    for p, a in m2.items():
        out[p] = G.comp[(m1[G.tgt[a]], a)]
    return make_germ(g2.base, out)


def invert_germ(D: LocalGroupoidData, g: Germ) -> Germ:
    G, T0 = D.G, D.t_objects
    y = germ_target(D, g)
    m = g.as_dict()
    inv_beta = {G.tgt[a]: p for (p, a) in m.items()}
    out = {}
    for w in T0.min_open[y]:
        p = inv_beta[w]
        out[w] = G.inv[m[p]]
    return make_germ(y, out)


def restrict_germ(D: LocalGroupoidData, g: Germ, point) -> Germ:
    """The germ of the same section at a nearby point of its minimal open."""
    T0 = D.t_objects
    if point not in T0.min_open[g.base]:
        raise ValueError("point outside the germ's carrier")
    m = g.as_dict()
    return make_germ(point, {p: m[p] for p in T0.min_open[point]})


def identity_germ(D: LocalGroupoidData, x) -> Germ:
    return make_germ(x, {p: D.G.id_of[p] for p in D.t_objects.min_open[x]})


def germ_closure(D: LocalGroupoidData) -> tuple[tuple[Germ, ...], tuple[Germ, ...]]:
    """(generator germs, closure under composition with generators).

    The closure is exactly the set of germs of all products of window
    bisections: the germ of s_k * ... * s_1 at x is the composite of the
    factor germs along the orbit of x, and conversely.
    """
    gens = window_germs(D)
    by_base: dict = {}
    for g in gens:
        by_base.setdefault(g.base, []).append(g)
    seen = set(gens)
    queue = list(gens)
    while queue:
        t = queue.pop()
        y = germ_target(D, t)
        for g in by_base.get(y, ()):
            c = compose_germs(D, g, t)
            if c not in seen:
                seen.add(c)
                queue.append(c)
    closure = tuple(sorted(seen, key=lambda g: (repr(g.base), g.values)))
    return gens, closure
