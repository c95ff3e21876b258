"""The straightforward loops that the package's table fast paths replaced.

Each function here is the straightforward version of a fast path in the
package, kept as a test oracle:

- `reference_topology_from_subbase` tests every point against every set;
- `reference_germ_closure` closes the window germs with a queue of germ
  objects, one `compose_bisections` per product;
- `reference_germ_groupoid_from_closure` composes every composable pair of
  germs with `compose_bisections` and names the product by its germ;
- `reference_chart` composes each restriction of s with every window germ
  through each window arrow;
- `reference_holonomy_groupoid` names each class of J/J0 by its sorted coset
  and builds the quotient's tables from one arbitrary representative per
  class, composing every composable pair of the quotient;
- `reference_holonomy_topology` and `reference_check_extendible` take the
  image of every basic window open under every chart or germ;
- `reference_continuity_witnesses` tests every composable pair, and for
  each one filters all of U_h × U_g for composable pairs;
- `reference_validate_groupoid` and `reference_validate_group` check
  totality, closure and endpoints in a loop of their own, test
  associativity one triple at a time, and report a `mul-domain` key the
  way the package does;
- `reference_generate_semigroup` closes the bisection codes with every
  element multiplied by every seed, through one left-translation column
  per seed, instead of from a greedy generating set;
- `reference_sections_over` tries every section over each carrier, repeated
  targets included, and leaves them all to accept; filtered by
  `reference_is_valid_bisection` or `reference_is_window_bisection`, it is
  the oracle of the section search, which tests only what it does not build
  in;
- `reference_inverse_semigroup_laws` composes bisection objects with
  `compose_bisections`, one call per product, instead of codes;
- `reference_local_data_validate`, `reference_is_valid_bisection` and
  `reference_is_window_bisection` write each continuity test as its own
  loop over the minimal opens instead of calling `core.discontinuities`;
- `reference_rewrite` rescans the word once per rule, in rule order, and
  `reference_knuth_bendix` completes with it over the all-pairs overlap
  and inclusion loops `reference_overlaps` and `reference_inclusions`;
- `reference_exhaust` and `reference_check_confluence` are the monodromy
  pair rewriting written on its own: signs normalised first, then the
  leftmost pair rewritten, restarting from the left;
- `reference_pair_rewriting` finds the monodromy critical pairs with
  `rewriting.overlaps` over the letter rules and reduces both sides of each
  with the rewriter, instead of joining the pair-rule table;
- `reference_pair_rules` builds the monodromy pair rules and the relations
  in one loop, each on its own, and `reference_monodromy_groupoid` names the
  normal forms by (start, letters) keys and normalises every composite;
- `reference_group_isomorphism` closes every partial map under all
  products, and `reference_groupoid_isomorphism` backtracks over object
  maps and then over permutations of each hom-set;
- `reference_opens` unions minimal opens from a frontier of its own;
- `reference_coset_table` is a bounded Todd-Coxeter coset enumeration
  (HLT strategy), independent of the rewriting that `knuth_bendix` does,
  and `reference_ball_sizes` reads word-length balls off its table, or off
  the free-group formula when there are no relators;
- `reference_words_up_to`, `reference_enumerate_monodromy_arrows` and
  `reference_spanning_tree` walk their own level-by-level frontiers instead
  of `core.closure`, and `reference_monodromy_is_finite` looks for a cycle
  with a recursive three-colour depth-first search instead of peeling;
- `reference_compose_squares` and `reference_inverse_square` write each
  filler formula once per model, branching on `D.kind`;
- `reference_indiscrete`, `reference_one_object_groupoid`,
  `reference_action_groupoid`, `reference_equivalence_groupoid`,
  `reference_product_groupoid` and `reference_disjoint_union` build their
  tables by their own loops instead of from cells, and
  `reference_topology_from_opens` intersects the opens around each point
  itself;
- `reference_band_model` writes out every minimal open of the band models'
  window, with one branch per gluing for the wrap-around slide, instead of
  filling them from the (centre, + side, - side) triples.

The column join of `core.associativity_failures`, which compares every
composable pair, is not an oracle here: it is the package's own failure
path, run only when Light's test on a generating set finds a failing
middle arrow, to list the witnesses in order.  Both read the columns that
the validators build in the one walk that checks totality, closure and
endpoints, reading each composite once (a group's straight from `mul`).
The triple loops above are the oracles for both paths and for the walk.
"""

import itertools
from operator import attrgetter

from groupoidkit.bisections import LocalBisection, compose_bisections, identity_bisection, relative_inverse
from groupoidkit.core import (
    FiniteTopology,
    ValidationReport,
    Violation,
    composable,
    discontinuities,
    equivalence_groupoid,
    group_by,
    make_groupoid,
)
from groupoidkit.double import Square
from groupoidkit.errors import (
    EmptyNotAllowed,
    NotComposable,
    NotConnected,
    NotFiniteOnInstance,
    NotFree,
    NotSectionable,
    TooSmall,
    UnknownPoint,
    WellDefinednessFailure,
)
from groupoidkit.germs import germ, germ_closure, germ_target, window_germs
from groupoidkit.holonomy import GermGroupoid, HolonomyGroupoid
from groupoidkit.presentations import (
    LocalGroupoidData,
    PairRewriting,
    Word,
    _next_letters,
    concat,
    empty_word,
    enumerate_monodromy_arrows,
    letter_src,
    local_data,
    letter_tgt,
    word_inverse,
    word_source,
    word_target,
)
from groupoidkit.rewriting import (
    NEG,
    POS,
    GroupRewriting,
    _orient,
    _shortlex_key,
    free_reduce,
    invert,
    overlaps,
    rewriter,
)


def reference_topology_from_subbase(points, sets) -> FiniteTopology:
    points = tuple(points)
    pset = frozenset(points)
    mins = {}
    for x in points:
        m = pset
        for S in sets:
            if x in S:
                m &= frozenset(S)
        mins[x] = m
    return FiniteTopology(points, mins)


def reference_germ_closure(D):
    """(window germs, their closure), as `germs.germ_closure` returns them."""
    gens = window_germs(D)
    by_base: dict = {}
    for g in gens:
        by_base.setdefault(g.base, []).append(g)
    seen = set(gens)
    queue = list(gens)
    while queue:
        t = queue.pop()
        for g in by_base.get(germ_target(D, t), ()):
            c = compose_bisections(D.G, g, t)
            if c not in seen:
                seen.add(c)
                queue.append(c)
    return gens, tuple(sorted(seen, key=lambda g: (repr(g.base), g.values)))


def reference_germ_groupoid_from_closure(D, gens, closure) -> GermGroupoid:
    G, T0 = D.G, D.t_objects
    identity = {x: germ(D, identity_bisection(G, T0.min_open[x]), x) for x in G.objects}
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


def reference_chart(hol, s_germ) -> dict:
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


def reference_holonomy_groupoid(J, J0) -> HolonomyGroupoid:
    """J/J0 with the cosets as frozensets and each table read at a representative."""
    D = J.data
    K = J.groupoid
    if not J0.ok:
        raise WellDefinednessFailure("J0 is not a wide normal subgroupoid; cannot form the quotient")
    loops_at = group_by(J0.arrows, K.src.__getitem__)
    coset_key = {a: frozenset([K.comp[(a, d)] for d in loops_at.get(K.src[a], ())]) for a in K.arrows}
    classes = sorted(set(coset_key.values()), key=sorted)
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

    values = {h: {J.germ_of_arrow[a].value for a in members[h]} for h in arrows}
    projection = {h: min(vs, key=repr) for h, vs in values.items()}
    witness = next(((h, frozenset(vs)) for h, vs in values.items() if len(vs) > 1), None)

    gen_by_value = group_by(J.generator_germs, attrgetter("base", "value"))
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
    return HolonomyGroupoid(D, J, J0, groupoid, coset_of, members, projection, embedding,
                            witness is None, witness, well_defined, injective)


def reference_holonomy_subbase(hol) -> set:
    window_base = hol.data.t_window.base()
    subbase = set()
    for a in hol.J.groupoid.arrows:
        table = reference_chart(hol, hol.J.germ_of_arrow[a])
        for V in window_base:
            piece = frozenset(table[w] for w in V if w in table)
            if piece:
                subbase.add(piece)
    return subbase


def reference_continuity_witnesses(G, T) -> tuple:
    """`continuity_witnesses` without skipping pairs of open points or joining by endpoint."""
    inversion = next(discontinuities(G.inv, G.arrows, T.min_open, T.min_open), None)
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


def reference_holonomy_topology(hol):
    K = hol.groupoid
    T = reference_topology_from_subbase(K.arrows, reference_holonomy_subbase(hol))
    inversion, composition = reference_continuity_witnesses(K, T)
    return T, {"composition_continuous": composition is None, "inversion_continuous": inversion is None}


def reference_extendible_subbase(D) -> set:
    G = D.G
    _, closure = germ_closure(D)
    window_base = D.t_window.base()
    subbase = set(window_base)
    for g in closure:
        m = g.as_dict()
        for V in window_base:
            piece = frozenset(G.comp[(m[G.tgt[v]], v)] for v in V if G.tgt[v] in m)
            if piece:
                subbase.add(piece)
    return subbase


def reference_check_extendible(D):
    """(arrow topology, failures), as `check_extendible` reports them."""
    G, TW = D.G, D.t_window
    T_arr = reference_topology_from_subbase(G.arrows, reference_extendible_subbase(D))
    failures = []
    if not T_arr.is_open(D.window):
        failures.append(("window-not-open", None))
    sub = T_arr.subspace(D.window)
    for w in sorted(D.window, key=repr):
        if sub.min_open[w] != TW.min_open[w]:
            failures.append(("window-subspace", w))
            break
    inversion, composition = reference_continuity_witnesses(G, T_arr)
    if inversion is not None:
        failures.append(("inversion-discontinuous", inversion))
    if composition is not None:
        failures.append(("composition-discontinuous", composition))
    return T_arr, tuple(failures)


def reference_validate_groupoid(G) -> ValidationReport:
    """`validate_groupoid` with associativity tested triple by triple: four
    table lookups for each k in the star of tgt h, for each composable (h, g)."""
    bad = []
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
    if any(v.rule.startswith(("identity", "composition")) or v.rule == "inverse-exists" for v in bad):
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
    stars = group_by(arrows, G.src.__getitem__)
    for (h, g) in pairs:
        hg = G.comp[(h, g)]
        for k in stars.get(G.tgt[h], ()):
            if G.comp[(k, hg)] != G.comp[(G.comp[(k, h)], g)]:
                bad.append(Violation("associativity", (k, h, g), "associativity fails"))
    return ValidationReport(tuple(bad))


def reference_validate_group(K) -> ValidationReport:
    """`validate_group` with associativity tested triple by triple, (a·b)·c
    against a·(b·c) for a, then b, then c in element order."""
    bad = []
    elems = K.elements
    eset = set(elems)
    if len(eset) != len(elems):
        return ValidationReport((Violation("distinct-elements", (), "duplicate elements"),))
    if K.identity not in eset:
        bad.append(Violation("identity-element", (K.identity,), "identity not an element"))
        return ValidationReport(tuple(bad))
    pairs = set(itertools.product(elems, elems))
    for key in K.mul:
        if key not in pairs:
            bad.append(Violation("mul-domain", key, "mul defined outside elements × elements"))
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


def reference_local_data_validate(D) -> ValidationReport:
    """`LocalGroupoidData.validate` with one loop per continuity rule, window arrows in repr order."""
    bad = []
    G = D.G
    W = D.window
    if not W <= set(G.arrows):
        bad.append(Violation("window-subset", (), "window has non-arrows"))
        return ValidationReport(tuple(bad))
    walk = sorted(W, key=repr)
    for x in G.objects:
        if G.id_of[x] not in W:
            bad.append(Violation("window-identities", (x,), "identity missing from window"))
    for w in walk:
        if G.inv[w] not in W:
            bad.append(Violation("window-inverse-closed", (w,), "inverse leaves the window"))
    if bad:
        return ValidationReport(tuple(bad))
    if set(D.t_window.points) != set(W):
        bad.append(Violation("window-topology-points", (), "window topology points differ from window"))
        return ValidationReport(tuple(bad))
    if set(D.t_objects.points) != set(G.objects):
        bad.append(Violation("object-topology-points", (), "object topology points differ from objects"))
        return ValidationReport(tuple(bad))
    for x in G.objects:
        derived = frozenset(y for y in G.objects if G.id_of[y] in D.t_window.min_open[G.id_of[x]])
        if derived != D.t_objects.min_open[x]:
            bad.append(
                Violation("object-topology-subspace", (x,), "object topology is not the subspace topology along identities")
            )
    for w in walk:
        for w2 in D.t_window.min_open[w]:
            if G.src[w2] not in D.t_objects.min_open[G.src[w]]:
                bad.append(Violation("window-src-continuous", (w,), "src discontinuous on window"))
                break
    for w in walk:
        for w2 in D.t_window.min_open[w]:
            if G.tgt[w2] not in D.t_objects.min_open[G.tgt[w]]:
                bad.append(Violation("window-tgt-continuous", (w,), "tgt discontinuous on window"))
                break
    for w in walk:
        for w2 in D.t_window.min_open[w]:
            if G.inv[w2] not in D.t_window.min_open[G.inv[w]]:
                bad.append(Violation("window-inv-continuous", (w,), "inv discontinuous on window"))
                break
    return ValidationReport(tuple(bad))


def reference_is_valid_bisection(G, T0, s) -> bool:
    """`is_valid_bisection` with beta and its inverse tested point by point, cut down to the domain and image."""
    m = s.as_dict()
    if not T0.is_open(s.domain):
        return False
    for p, a in m.items():
        if G.src.get(a) != p:
            return False
    beta = {p: G.tgt[a] for (p, a) in m.items()}
    if len(set(beta.values())) != len(beta):
        return False
    image = frozenset(beta.values())
    if not T0.is_open(image):
        return False
    for p in s.domain:
        if not {beta[q] for q in (T0.min_open[p] & s.domain)} <= T0.min_open[beta[p]]:
            return False
    inv_beta = {v: k for k, v in beta.items()}
    for w in image:
        for w2 in T0.min_open[w] & image:
            if inv_beta[w2] not in T0.min_open[inv_beta[w]]:
                return False
    return True


def reference_is_window_bisection(D, s) -> bool:
    if not reference_is_valid_bisection(D.G, D.t_objects, s):
        return False
    m = s.as_dict()
    if not set(m.values()) <= D.window:
        return False
    TW, T0 = D.t_window, D.t_objects
    for p in s.domain:
        if not {m[q] for q in (T0.min_open[p] & s.domain)} <= TW.min_open[m[p]]:
            return False
    return True


def reference_sections_over(G, carriers, pool, accept) -> list:
    """Every section of the source map over a carrier, valued in pool, that accept passes, targets repeated or not."""
    by_src = group_by(sorted(pool, key=repr), G.src.__getitem__)
    out = []
    for U in carriers:
        pts = sorted(U, key=repr)
        for choice in itertools.product(*[by_src.get(p, ()) for p in pts]):
            s = LocalBisection(U, tuple(zip(pts, choice)))
            if accept(s):
                out.append(s)
    return out


def reference_inverse_semigroup_laws(S) -> list:
    """`inverse_semigroup_laws` with every product a `compose_bisections` call on the elements themselves."""
    bad = []
    for s in S.elements:
        sp = S.inverse(s)
        if S.multiply(S.multiply(s, sp), s) != s:
            bad.append(("ss's=s", s))
        if S.multiply(S.multiply(sp, s), sp) != sp:
            bad.append(("s'ss'=s'", s))
    idem = S.idempotents()
    for e in idem:
        for f in idem:
            if S.multiply(e, f) != S.multiply(f, e):
                bad.append(("idempotents-commute", (e, f)))
    return bad


def reference_generate_semigroup(G, gens) -> tuple:
    """The elements of `generate_semigroup(G, gens)`, closed on codes by multiplying every element by every seed."""
    objects = sorted(G.objects, key=repr)
    arrows = sorted(G.arrows, key=repr)
    obj_index = {x: i for i, x in enumerate(objects)}
    arr_index = {a: i for i, a in enumerate(arrows)}
    tgt = [obj_index[G.tgt[a]] for a in arrows]
    given = {}
    for s in gens:
        code = [-1] * len(objects)
        for x, a in s.values:
            code[obj_index[x]] = arr_index[a]
        given.setdefault(tuple(code), s)
    seeds = set(given)
    for code in given:
        inverse = [-1] * len(objects)
        for a in code:
            if a >= 0:
                inverse[tgt[a]] = arr_index[G.inv[arrows[a]]]
        seeds.add(tuple(inverse))
    seeds = list(seeds)
    # columns[a][i]: the index of seeds[i](beta a) . a, or -1 off its domain; the last column is for -1
    columns = [
        [arr_index[G.comp[(arrows[g[tgt[a]]], arrows[a])]] if g[tgt[a]] >= 0 else -1 for g in seeds]
        for a in range(len(arrows))
    ]
    columns.append([-1] * len(seeds))
    seen = set(seeds)
    elements = list(seeds)
    for t in elements:
        for product in zip(*[columns[a] for a in t]):
            if product not in seen:
                seen.add(product)
                elements.append(product)

    def decode(code):
        if code in given:
            return given[code]
        pairs = [(objects[x], arrows[a]) for x, a in enumerate(code) if a >= 0]
        return LocalBisection(frozenset(p for p, _ in pairs), tuple(pairs))

    return tuple(sorted(map(decode, elements), key=lambda s: (len(s.domain), s.values)))


def reference_rewrite(rules, word):
    """Rewrite with the (lhs, rhs) rules, tried in the given order, until none applies."""
    word = free_reduce(word)
    changed = True
    while changed:
        changed = False
        for lhs, rhs in rules:
            n = len(lhs)
            i = 0
            while i + n <= len(word):
                if word[i : i + n] == lhs:
                    word = free_reduce(word[:i] + rhs + word[i + n :])
                    changed = True
                    i = 0
                else:
                    i += 1
    return word


def reference_overlaps(rules):
    """(l1, l2, k) for every pair of left-hand sides and every proper overlap length."""
    out = []
    for l1 in rules:
        for l2 in rules:
            for k in range(1, min(len(l1), len(l2))):
                if l1[len(l1) - k :] == l2[:k]:
                    out.append((l1, l2, k))
    return out


def reference_inclusions(rules) -> list:
    """Every (l1, l2, i) with l2 != l1 and l1[i : i + len(l2)] == l2, over all pairs of left-hand sides."""
    out = []
    lhss = list(rules)
    for l1 in lhss:
        for l2 in lhss:
            for i in range(len(l1) - len(l2) + 1):
                if l2 != l1 and l1[i : i + len(l2)] == l2:
                    out.append((l1, l2, i))
    return out


def reference_knuth_bendix(generators, relators, max_rules=300, max_len=16) -> GroupRewriting:
    cancellations = []
    for g in generators:
        for s in (POS, NEG):
            cancellations.append(((g, s), (g, -s)))
    rules: dict = {lhs: () for lhs in cancellations}

    def add_rule(a, b) -> bool:
        a, b = free_reduce(a), free_reduce(b)
        if a == b:
            return True
        lhs, rhs = _orient(a, b)
        if len(lhs) > max_len:
            return False
        rules[lhs] = rhs
        return True

    ok = True
    for r in relators:
        ok &= add_rule(tuple(r), ())
        ok &= add_rule(invert(tuple(r)), ())

    def reduce_with(word):
        return reference_rewrite(tuple(rules.items()), word)

    for _ in range(80):
        if len(rules) > max_rules:
            ok = False
            break
        new_pairs = []
        for l1, l2, k in reference_overlaps(rules):
            a = reduce_with(free_reduce(rules[l1] + l2[k:]))
            b = reduce_with(free_reduce(l1[: len(l1) - k] + rules[l2]))
            if a != b:
                new_pairs.append((a, b))
        for l1, l2, i in reference_inclusions(rules):
            a = reduce_with(rules[l1])
            b = reduce_with(free_reduce(l1[:i] + rules[l2] + l1[i + len(l2) :]))
            if a != b:
                new_pairs.append((a, b))
        if not new_pairs:
            break
        for a, b in new_pairs:
            if not add_rule(a, b):
                ok = False
        for lhs in list(rules):
            if lhs in cancellations:
                continue
            rhs = rules.pop(lhs)
            reduced_l, reduced_r = reduce_with(lhs), reduce_with(rhs)
            if reduced_l != reduced_r:
                a, b = _orient(reduced_l, reduced_r)
                rules[a] = b
    else:
        ok = False
    return GroupRewriting(
        tuple(generators), tuple(sorted(rules.items(), key=lambda kv: _shortlex_key(kv[0]))), ok
    )


def reference_rewrite_once(pair_rules, w):
    """The word with its leftmost positive pair [u][v] that has a rule rewritten; None if none has."""
    letters = w.letters
    for i in range(len(letters) - 1):
        left, right = letters[i], letters[i + 1]
        if left[1] != POS or right[1] != POS:
            continue
        key = (left[0], right[0])
        if key in pair_rules:
            out = pair_rules[key]
            mid = () if out is None else ((out, POS),)
            return Word(w.start, letters[:i] + mid + letters[i + 2 :])
    return None


def reference_exhaust(inv_gen, pair_rules, w):
    letters = tuple((inv_gen[e], POS) if s == NEG and e in inv_gen else (e, s) for (e, s) in w.letters)
    cur = Word(w.start, free_reduce(letters))
    while True:
        nxt = reference_rewrite_once(pair_rules, cur)
        if nxt is None:
            return cur
        cur = Word(nxt.start, free_reduce(nxt.letters))


def reference_check_confluence(graph, inv_gen, pair_rules):
    """Critical pair check for overlaps [u][v][w] with rules on both pairs: (confluent, failures)."""
    failures = []
    for (u, v) in pair_rules:
        for (v2, w) in pair_rules:
            if v2 != v:
                continue
            start = graph.src[w]
            full = Word(start, ((u, POS), (v, POS), (w, POS)))
            left_first = reference_rewrite_once(pair_rules, full)
            out = pair_rules[(v, w)]
            mid = () if out is None else ((out, POS),)
            right_first = Word(start, ((u, POS),) + mid)
            a = reference_exhaust(inv_gen, pair_rules, left_first)
            b = reference_exhaust(inv_gen, pair_rules, right_first)
            if a != b:
                failures.append(((u, v, w), a, b))
    return (not failures), tuple(failures)


def reference_pair_rewriting(graph, inv_gen, pair_rules) -> PairRewriting:
    """`presentations._pair_rewriting` with its critical pairs from `overlaps` over
    the letter rules, both sides of each reduced by the rewriter."""
    letter_rules = {((u, POS), (v, POS)): () if uv is None else ((uv, POS),) for (u, v), uv in pair_rules.items()}
    letter_rules.update({((e, NEG),): ((inv, POS),) for e, inv in inv_gen.items()})
    reduce = rewriter(letter_rules)
    failures = []
    for l1, l2, k in overlaps(letter_rules):
        a, b = reduce(letter_rules[l1] + l2[k:]), reduce(l1[:-k] + letter_rules[l2])
        if a != b:
            start = graph.src[l2[-1][0]]
            failures.append((tuple(e for (e, _) in l1 + l2[k:]), Word(start, a), Word(start, b)))
    return PairRewriting(graph, inv_gen, pair_rules, not failures, tuple(failures), reduce)


def reference_pair_rules(D):
    """The monodromy pair rules (u, v) -> uv, None when uv is an identity, and
    the relations [u][v] = [uv], built side by side in one loop."""
    G, W = D.G, D.window
    gens = sorted(w for w in W if not G.is_identity(w))
    rules = {}
    relations = []
    ending_at = group_by(gens, G.tgt.__getitem__)
    for u in gens:
        for v in ending_at.get(G.src[u], ()):
            uv = G.comp[(u, v)]
            if uv not in W:
                continue
            lhs = Word(G.src[v], ((u, POS), (v, POS)))
            if G.is_identity(uv):
                rules[(u, v)] = None
                relations.append((lhs, empty_word(G.src[v])))
            else:
                rules[(u, v)] = uv
                relations.append((lhs, Word(G.src[v], ((uv, POS),))))
    return rules, tuple(relations)


def reference_monodromy_groupoid(M):
    """`monodromy_groupoid` with each normal form named through a (start, letters) key."""
    words = enumerate_monodromy_arrows(M)
    graph = M.presentation.graph

    def key(w):
        return (w.start, w.letters)

    name = {}
    for w in sorted(words, key=lambda w: (len(w.letters), repr(key(w)))):
        if not w.letters:
            name[key(w)] = f"id:{w.start}"
        else:
            name[key(w)] = "w:" + ".".join(e for (e, _) in w.letters)
    arrows = list(name.values())
    src = {name[key(w)]: word_source(w) for w in words}
    tgt = {name[key(w)]: word_target(graph, w) for w in words}
    id_of = {x: f"id:{x}" for x in graph.objects}
    inv = {}
    for w in words:
        wi = M.rewriting.normal_form(word_inverse(graph, w))
        inv[name[key(w)]] = name[key(wi)]
    word_of = {name[key(w)]: w for w in words}
    comp = {
        (h, g): name[key(M.rewriting.normal_form(concat(graph, word_of[h], word_of[g])))]
        for h, g in composable(arrows, src, tgt)
    }
    return make_groupoid(graph.objects, arrows, src, tgt, id_of, inv, comp), name


def reference_group_isomorphism(A, B):
    """An isomorphism A -> B or None: backtracking over generator images, each partial map closed under all products."""
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
    by_order: dict = {}
    for b in B.elements:
        by_order.setdefault(B.element_order(b), []).append(b)

    def close(partial):
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

    def backtrack(i, partial):
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
            if close(trial) is None:
                continue
            out = backtrack(i + 1, trial)
            if out is not None:
                return out
        return None

    return backtrack(0, {})


def reference_groupoid_isomorphism(G, H):
    """(object map, arrow map) or None: backtracking on objects, then on permutations of each hom-set."""
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


def reference_opens(T):
    """Every open set of T, as `FiniteTopology.opens` sorts them: unions of minimal opens from a frontier."""
    seen = {frozenset()}
    frontier = [frozenset()]
    while frontier:
        U = frontier.pop()
        for b in set(T.min_open.values()):
            V = U | b
            if V not in seen:
                seen.add(V)
                frontier.append(V)
    return sorted(seen, key=lambda s: (len(s), sorted(map(repr, s))))


def reference_coset_table(generators, relators, max_cosets=4096):
    """The cosets of the trivial subgroup by Todd-Coxeter enumeration (HLT), or None past max_cosets.

    Each coset, a group element, is a row mapping every signed generator to
    a coset.  HLT scans every relator at each live coset in turn, defining
    new cosets to complete each scan, then fills the coset's row; a scan
    that closes on two different cosets makes them coincide.  The returned
    rows are the live cosets renumbered in order, coset 0 the identity.
    Holt, Eick & O'Brien, Handbook of Computational Group Theory, ch. 5.
    """
    letters = [(g, s) for g in generators for s in (POS, NEG)]

    def inv(x):
        return (x[0], -x[1])

    table = [dict.fromkeys(letters)]
    parent = [0]

    def define(c, x):
        if len(table) >= max_cosets:
            raise OverflowError
        table.append(dict.fromkeys(letters))
        parent.append(len(parent))
        table[c][x], table[-1][inv(x)] = len(table) - 1, c

    def rep(c):
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    def merge(a, b, queue):
        a, b = sorted((rep(a), rep(b)))
        if a != b:
            parent[b] = a
            queue.append(b)

    def coincidence(a, b):
        queue: list = []
        merge(a, b, queue)
        for dead in queue:  # grows as merges are found
            for x in letters:
                d = table[dead][x]
                if d is None:
                    continue
                table[d][inv(x)] = None
                mu, nu = rep(dead), rep(d)
                if table[mu][x] is not None:
                    merge(nu, table[mu][x], queue)
                elif table[nu][inv(x)] is not None:
                    merge(mu, table[nu][inv(x)], queue)
                else:
                    table[mu][x], table[nu][inv(x)] = nu, mu

    def scan_and_fill(c, word):
        f, b, i, j = c, c, 0, len(word) - 1
        while True:
            while i <= j and table[f][word[i]] is not None:
                f, i = table[f][word[i]], i + 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and table[b][inv(word[j])] is not None:
                b, j = table[b][inv(word[j])], j - 1
            if j < i:
                coincidence(f, b)
                return
            if i == j:  # a deduction closes the scan
                table[f][word[i]], table[b][inv(word[i])] = b, f
                return
            define(f, word[i])

    try:
        c = 0
        while c < len(table):
            for r in relators:
                if parent[c] != c:
                    break
                scan_and_fill(c, tuple(r))
            if parent[c] == c:
                for x in letters:
                    if table[c][x] is None:
                        define(c, x)
            c += 1
    except OverflowError:
        return None
    live = [c for c in range(len(table)) if parent[c] == c]
    number = {c: i for i, c in enumerate(live)}
    return [{x: number[rep(table[c][x])] for x in letters} for c in live]


def reference_trace(table, word) -> int:
    """The coset, that is the group element, that the word reaches from the identity."""
    c = 0
    for x in word:
        c = table[c][x]
    return c


def reference_ball_sizes(generators, relators, n, table=None):
    """The number of group elements of word length at most k, for k = 0..n.

    With no relators the group is free: 2k + 1 for rank 1, and
    1 + 2r((2r - 1)^k - 1)/(2r - 2) for rank r >= 2.  Otherwise breadth
    first over a coset table (enumerated here when none is given).
    """
    r = len(generators)
    if not relators:
        return [2 * k + 1 if r == 1 else 1 + 2 * r * ((2 * r - 1) ** k - 1) // (2 * r - 2) for k in range(n + 1)]
    table = table or reference_coset_table(generators, relators)
    seen, frontier, sizes = {0}, [0], [1]
    for _ in range(n):
        reached = []
        for c in frontier:
            for d in table[c].values():
                if d not in seen:
                    seen.add(d)
                    reached.append(d)
        frontier = reached
        sizes.append(len(seen))
    return sizes


def reference_words_up_to(P, x, y, length: int) -> list:
    """All reduced words x -> y of length <= `length` in a free presentation, level by level."""
    if not P.is_free():
        raise NotFree("words_up_to requires a presentation without relations")
    graph = P.graph
    signed = []
    for e in P.generators():
        signed.append((e, POS))
        signed.append((e, NEG))
    out = []
    frontier = [Word(x, ())]
    if x == y:
        out.append(Word(x, ()))
    for _ in range(length):
        nxt = []
        for w in frontier:
            cur = word_target(graph, w)
            for letter in signed:
                if letter_src(graph, letter) != cur:
                    continue
                if w.letters and w.letters[0] == (letter[0], -letter[1]):
                    continue  # would cancel: not reduced
                w2 = Word(x, (letter,) + w.letters)
                nxt.append(w2)
                if letter_tgt(graph, letter) == y:
                    out.append(w2)
        frontier = nxt
    return out


def reference_monodromy_is_finite(M) -> bool:
    """True iff the "u may follow v" digraph has no directed cycle, by recursive three-colour DFS."""
    gens = M.presentation.generators()
    allowed = _next_letters(M)
    color = {g: 0 for g in gens}

    def dfs(u) -> bool:
        color[u] = 1
        for v in allowed[u]:
            if color[v] == 1:
                return False
            if color[v] == 0 and not dfs(v):
                return False
        color[u] = 2
        return True

    for g in gens:
        if color[g] == 0 and not dfs(g):
            return False
    return True


def reference_enumerate_monodromy_arrows(M) -> list:
    """The normal-form words of a finite monodromy instance: empty words, then level by level."""
    if not reference_monodromy_is_finite(M):
        raise NotFiniteOnInstance("monodromy groupoid is infinite on this instance")
    graph = M.presentation.graph
    allowed = _next_letters(M)
    out = [empty_word(x) for x in graph.objects]
    frontier = [Word(graph.src[g], ((g, POS),)) for g in M.presentation.generators()]
    while frontier:
        out.extend(frontier)
        frontier = [Word(w.start, ((u, POS),) + w.letters) for w in frontier for u in allowed[w.letters[0][0]]]
    return out


def reference_spanning_tree(P, base) -> dict:
    """Breadth-first tree, object -> (edge, sign, parent), one frontier level at a time."""
    graph = P.graph
    if base not in set(graph.objects):
        raise NotConnected(f"unknown base object {base!r}")
    adj = {x: [] for x in graph.objects}
    for e in sorted(P.generators()):
        adj[graph.src[e]].append((e, POS, graph.tgt[e]))
        adj[graph.tgt[e]].append((e, NEG, graph.src[e]))
    tree = {base: None}
    frontier = [base]
    while frontier:
        nxt = []
        for x in frontier:
            for (e, s, y) in sorted(adj[x], key=lambda t: (t[0], -t[1])):
                if y not in tree:
                    tree[y] = (e, s, x)
                    nxt.append(y)
        frontier = nxt
    if set(tree) != set(graph.objects):
        missing = sorted(set(map(str, set(graph.objects) - set(tree))))
        raise NotConnected(f"objects unreachable from {base!r}: {missing}")
    return tree


def _reference_member(D, u):
    if not D.has_square(u):
        raise NotComposable(f"square {u!r} does not belong to this double groupoid")
    return u


def _reference_act(D, edge, m):
    """Action of an edge (as a P element) on a filler."""
    elem = {name: p for p, name in D.elem_edge.items()}
    return D.xmod.action[(elem[edge], m)]


def reference_compose_squares(D, direction, u, v):
    _reference_member(D, u)
    _reference_member(D, v)
    if direction == 1:
        if v.top != u.bottom:
            raise NotComposable("vertical composition needs v.top == u.bottom")
        if D.kind == "commuting":
            filler = None
        else:
            M = D.xmod.M
            filler = M.mul[(v.filler, _reference_act(D, D.einv(v.right), u.filler))]
        out = Square(u.top, D.seq(u.right, v.right), D.seq(u.left, v.left), v.bottom, filler)
    elif direction == 2:
        if v.left != u.right:
            raise NotComposable("horizontal composition needs v.left == u.right")
        if D.kind == "commuting":
            filler = None
        else:
            M = D.xmod.M
            filler = M.mul[(_reference_act(D, D.einv(v.bottom), u.filler), v.filler)]
        out = Square(D.seq(u.top, v.top), v.right, u.left, D.seq(u.bottom, v.bottom), filler)
    else:
        raise NotComposable(f"direction must be 1 or 2, got {direction!r}")
    return _reference_member(D, out)


def reference_inverse_square(D, direction, u):
    _reference_member(D, u)
    if direction == 1:
        if D.kind == "commuting":
            filler = None
        else:
            M = D.xmod.M
            filler = M.inv[_reference_act(D, u.right, u.filler)]
        out = Square(u.bottom, D.einv(u.right), D.einv(u.left), u.top, filler)
    elif direction == 2:
        if D.kind == "commuting":
            filler = None
        else:
            filler = _reference_act(D, u.bottom, D.xmod.M.inv[u.filler])
        out = Square(D.einv(u.top), u.left, u.right, D.einv(u.bottom), filler)
    else:
        raise NotComposable(f"direction must be 1 or 2, got {direction!r}")
    return _reference_member(D, out)


def reference_indiscrete(n):
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


def reference_one_object_groupoid(K, obj="o"):
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


def reference_action_groupoid(K, points, act):
    def name(g, x):
        return f"id:{x}" if g == K.identity else f"g:{g}@{x}"

    points = list(points)
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


def reference_equivalence_groupoid(points, blocks):
    def name(x, y):
        return f"id:{x}" if x == y else f"{x}>{y}"

    points = list(points)
    block_of = {}
    for b in blocks:
        b = tuple(dict.fromkeys(b))
        for x in b:
            block_of[x] = b
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


def reference_product_groupoid(G, H):
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


def reference_disjoint_union(G, H, tags=("L", "R")):
    """`disjoint_union` with each part's comp renamed in that part's own order."""
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


def reference_topology_from_opens(points, opens) -> FiniteTopology:
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


def reference_band_model(n: int, twist: bool) -> LocalGroupoidData:
    if n < 3:
        raise TooSmall("band models need at least 3 segments")
    centres = [f"c{i}" for i in range(n)]
    sides = [f"{i}{s}" for i in range(n) for s in "+-"]
    points = centres + sides

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
