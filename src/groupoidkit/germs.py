"""Germs of local bisections over finite topologies.

In a finite space the germ of a section at x is exactly its restriction to
the minimal open set around x.  So a germ is a local bisection whose domain
is that minimal open, plus its base point x, and every germ operation is the
bisection operation together with a base.  Window germs (values in W,
continuous into the window topology) generate, under composition, the germs
of every iterated product of window bisections; the closure computed here is
therefore the arrow set of the germ groupoid without ever materialising the
full inverse semigroup.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bisections import LocalBisection, compose_bisections, is_window_bisection, sections_over
from .errors import OutOfDomain
from .presentations import LocalGroupoidData


@dataclass(frozen=True)
class Germ(LocalBisection):
    """Local bisection on the minimal open around `base`."""

    base: object

    @property
    def value(self):
        return self.value_at(self.base)


def germ(D: LocalGroupoidData, s: LocalBisection, x) -> Germ:
    """The germ of a local bisection at a point of its domain.

    Its domain is the topology's own minimal-open set, shared by every germ
    at x.
    """
    if x not in s.domain:
        raise OutOfDomain(f"{x!r} outside the bisection's domain")
    U = D.t_objects.min_open[x]
    values = tuple(kv for kv in s.values if kv[0] in U)
    if len(values) != len(U):
        raise OutOfDomain(f"the bisection's domain is not open around {x!r}")
    return Germ(U, values, x)


def germ_target(D: LocalGroupoidData, g: Germ):
    return D.G.tgt[g.value]


def window_germs(D: LocalGroupoidData) -> tuple[Germ, ...]:
    """Every germ of a window-valued continuous local bisection.

    A window germ at x extends to the bisection defined on the minimal open
    itself, so enumerating window bisections on minimal opens is exhaustive.
    """
    T0 = D.t_objects
    bases: dict = {}  # minimal open -> the points it is minimal around
    for x in D.G.objects:
        bases.setdefault(T0.min_open[x], []).append(x)
    sections = sections_over(D.G, bases, D.window, lambda s: is_window_bisection(D, s))
    out = [Germ(T0.min_open[x], s.values, x) for s in sections for x in bases[s.domain]]
    return tuple(sorted(out, key=lambda g: (repr(g.base), g.values)))


def germ_closure(D: LocalGroupoidData) -> tuple[tuple[Germ, ...], tuple[Germ, ...]]:
    """(generator germs, closure under composition with generators).

    The closure is exactly the set of germs of all products of window
    bisections: the germ of s_k * ... * s_1 at x is the composite of the
    factor germs along the orbit of x, and conversely.
    """
    G = D.G
    gens = window_germs(D)
    by_base: dict = {}
    for g in gens:
        by_base.setdefault(g.base, []).append(g)
    seen = set(gens)
    queue = list(gens)
    while queue:
        t = queue.pop()
        for g in by_base.get(germ_target(D, t), ()):
            c = compose_bisections(G, g, t)
            if c not in seen:
                seen.add(c)
                queue.append(c)
    closure = tuple(sorted(seen, key=lambda g: (repr(g.base), g.values)))
    return gens, closure
