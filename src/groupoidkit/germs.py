"""Germs of local bisections over finite topologies.

In a finite space the germ of a section at x is exactly its restriction to
the minimal open set around x.  So a germ is a local bisection whose domain
is that minimal open, plus its base point x, and every germ operation is the
bisection operation together with a base.  Window germs (values in W,
continuous into the window topology) generate, under composition, the germs
of every iterated product of window bisections; the closure computed here is
therefore the arrow set of the germ groupoid without ever materialising the
full inverse semigroup.  The closure runs on codes through `core.closure`,
as the semigroup's does: a germ at x is coded (x, its arrows over min_open[x] in repr
point order), and every germ product h(beta a) . a is read from one table,
`left_translations`.  The generators and their closure are kept with the
window, in a weak-keyed table freed with it; no translation table is kept.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from .bisections import LocalBisection, sections_over
from .core import closure, group_by
from .errors import OutOfDomain
from .presentations import LocalGroupoidData

_windows = weakref.WeakKeyDictionary()  # window -> (generator germs, closure)


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
    bases = group_by(D.G.objects, T0.min_open.__getitem__)  # minimal open -> the points it is minimal around
    sections = sections_over(D.G, T0, bases, D.window, D.t_window)
    out = [Germ(T0.min_open[x], s.values, x) for s in sections for x in bases[s.domain]]
    return tuple(sorted(out, key=lambda g: (repr(g.base), g.values)))


def germ_code(g: Germ) -> tuple:
    """(base, arrows): the germ's values without their points, which its base fixes."""
    return g.base, tuple(a for _, a in g.values)


def point_orders(D: LocalGroupoidData) -> dict:
    """Each object mapped to the points of its minimal open in repr order, the order of a germ code."""
    return {x: tuple(sorted(U, key=repr)) for x, U in D.t_objects.min_open.items()}


def left_translations(D: LocalGroupoidData, germs, arrows) -> dict:
    """y -> each of the arrows a into min_open[y] -> the column of h(beta a) . a
    over the germs h at y, in the order given.

    The one place germ products are computed.  h * t keeps t's base and points
    (beta t maps min_open[x] into min_open[y]) and carries h(beta a) . a at each
    arrow a of t, so zipping the columns of t's arrows yields every h * t.  A
    caller passes the arrows it reads: all of them for products of germs, the
    window arrows to translate window opens.
    """
    G = D.G
    into = group_by(arrows, G.tgt.__getitem__)  # point -> the arrows into it
    at: dict = {y: [] for y in G.objects}  # y -> the value maps of the germs at y
    for h in germs:
        at[h.base].append(h.as_dict())
    return {
        y: {a: tuple([G.comp[(h[p], a)] for h in hs]) for p in D.t_objects.min_open[y] for a in into.get(p, ())}
        for y, hs in at.items()
    }


def germ_closure(D: LocalGroupoidData) -> tuple[tuple[Germ, ...], tuple[Germ, ...]]:
    """(generator germs, their closure under composition), closed once per window and kept.

    The closure is exactly the set of germs of all products of window
    bisections: the germ of s_k * ... * s_1 at x is the composite of the
    factor germs along the orbit of x, and conversely.  It is closed on
    codes by the generators' `left_translations` and decoded once, at the
    end, onto the topology's own minimal opens; a generator's code decodes
    to the generator.
    """
    if D not in _windows:
        G, points, min_open = D.G, point_orders(D), D.t_objects.min_open
        gens = window_germs(D)
        given = {germ_code(g): g for g in gens}
        columns = left_translations(D, gens, G.arrows)
        base_at = {x: pts.index(x) for x, pts in points.items()}

        def products(t):
            x, arrows = t
            col = columns[G.tgt[arrows[base_at[x]]]]
            return ((x, c) for c in zip(*map(col.__getitem__, arrows)))

        codes = closure(list(given), products)

        def decode(code):
            x, arrows = code
            return given.get(code) or Germ(min_open[x], tuple(zip(points[x], arrows)), x)

        _windows[D] = gens, tuple(sorted(map(decode, codes), key=lambda g: (repr(g.base), g.values)))
    return _windows[D]
