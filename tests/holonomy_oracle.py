"""Brute-force holonomy oracle for equivalence-relation instances.

Deliberately independent of the package pipeline: sections are represented
as partial point maps (an arrow of an equivalence-relation groupoid is just
its endpoint pair), germs as maps restricted to minimal opens, and the
quotient is computed by orbit partitioning.  Only used to cross-check the
band models.

The exception is `semigroup_germ_groupoid`, the germ groupoid read off an
explicit inverse semigroup of bisections: it takes the germs of every
element at every point of its domain.
"""

from itertools import product

from groupoidkit.germs import germ, window_germs
from reference_tables import reference_germ_groupoid_from_closure


def _pair(a, b):
    return f"id:{a}" if a == b else f"{a}>{b}"


def _min_opens(D):
    return D.t_objects.min_open


def generator_map_germs(D):
    """Window moves: point-map germs whose graph pairs lie in the window."""
    mins = _min_opens(D)
    window = D.window
    tw = D.t_window.min_open
    out = set()
    for x in D.G.objects:
        carrier = sorted(mins[x], key=repr)
        cands = []
        for y in carrier:
            cands.append([z for z in D.G.objects if _pair(y, z) in window])
        for images in product(*cands):
            f = dict(zip(carrier, images))
            if len(set(f.values())) != len(f):
                continue
            image = frozenset(f.values())
            if not D.t_objects.is_open(image):
                continue
            if any(not {f[q] for q in mins[p]} <= mins[f[p]] for p in carrier):
                continue
            finv = {v: k for k, v in f.items()}
            if any(
                finv[w2] not in mins[finv[w]]
                for w in image
                for w2 in mins[w] & image
            ):
                continue
            # window continuity through the pair encoding
            if any(
                _pair(q, f[q]) not in tw[_pair(p, f[p])]
                for p in carrier
                for q in mins[p]
            ):
                continue
            out.add((x, tuple(sorted(f.items()))))
    return out


def compose_map_germs(D, g1, g2):
    """g1 after g2 (g1 based at the image of g2's base)."""
    mins = _min_opens(D)
    x2, items2 = g2
    f2 = dict(items2)
    f1 = dict(g1[1])
    out = {p: f1[f2[p]] for p in f2}
    return (x2, tuple(sorted(out.items())))


def invert_map_germ(D, g):
    x, items = g
    f = dict(items)
    y = f[x]
    mins = _min_opens(D)
    finv = {v: k for k, v in f.items()}
    out = {w: finv[w] for w in mins[y]}
    return (y, tuple(sorted(out.items())))


def germ_closure_oracle(D):
    gens = generator_map_germs(D)
    by_base = {}
    for g in gens:
        by_base.setdefault(g[0], []).append(g)
    seen = set(gens)
    queue = list(gens)
    while queue:
        t = queue.pop()
        target = dict(t[1])[t[0]]
        for g in by_base.get(target, ()):  # germs based at the target
            c = compose_map_germs(D, g, t)
            if c not in seen:
                seen.add(c)
                queue.append(c)
    return gens, seen


def is_local_loop(D, g):
    """Loop germ at its base that is still a window procedure."""
    x, items = g
    f = dict(items)
    if f[x] != x:
        return False
    tw = D.t_window.min_open
    mins = _min_opens(D)
    if any(_pair(p, f[p]) not in D.window for p in f):
        return False
    return all(
        _pair(q, f[q]) in tw[_pair(p, f[p])]
        for p in f
        for q in mins[p]
    )


def holonomy_vertex_orders(D):
    """Vertex orders of the holonomy quotient, by direct orbit counting."""
    gens, closure = germ_closure_oracle(D)
    loops = {}
    for g in closure:
        x, items = g
        if dict(items)[x] == x:
            loops.setdefault(x, set()).add(g)
    orders = {}
    for x in D.G.objects:
        ls = loops.get(x, set())
        local = {g for g in ls if is_local_loop(D, g)}
        # cosets of the local loops inside all loops at x
        classes = set()
        for g in ls:
            orbit = frozenset(compose_map_germs(D, g, d) for d in local)
            classes.add(orbit)
        orders[x] = len(classes)
    return orders


def embedding_and_charts_consistent(D):
    """All window bisection choices through an arrow give one holonomy class."""
    gens, closure = germ_closure_oracle(D)
    local_at = {}
    for g in closure:
        x = g[0]
        if dict(g[1])[x] == x and is_local_loop(D, g):
            local_at.setdefault(x, set()).add(g)
    by_base_value = {}
    for g in gens:
        x = g[0]
        y = dict(g[1])[x]
        by_base_value.setdefault((x, y), []).append(g)
    for (x, _y), through in by_base_value.items():
        orbits = {
            frozenset(compose_map_germs(D, g, d) for d in local_at[x])
            for g in through
        }
        if len(orbits) != 1:
            return False
    return True


def semigroup_germ_groupoid(D, S):
    """J built from the germs of the semigroup S of bisections, by the reference composition."""
    germs = {germ(D, s, x) for s in S.elements for x in s.domain}
    return reference_germ_groupoid_from_closure(D, window_germs(D), germs)
