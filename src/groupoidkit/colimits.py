"""Pushouts of presented groupoids, vertex group presentations, HNN shapes.

The pushout of presentations B <- A -> C glues objects with a union-find
over f(a) ~ g(a), keeps the generators of B and C, and adds one relation
f(e) = g(e) per generator e of A on top of the translated relations of B
and C.  The universal property holds by construction and is additionally
checked against finite targets by `mediating_morphism`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import closure, partition
from .errors import (
    InvalidPresentationMorphism,
    NotConnected,
    WrongShape,
)
from .presentations import (
    NEG,
    POS,
    FpGroupoid,
    PresentationToGroupoidMap,
    Word,
    check_word,
    empty_word,
    reduce_word,
    reflexive_graph,
    word_source,
    word_target,
)
from .rewriting import GroupRewriting, count_normal_forms, free_reduce, invert, knuth_bendix, substitute
from .rewriting import enumerate_elements  # noqa: F401  (perfbench traces colimits.enumerate_elements)


# ---------------------------------------------------------------------------
# presentation morphisms
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PresentationMorphism:
    """Objects to objects, generators to words of the target presentation."""

    source: FpGroupoid
    target: FpGroupoid
    obj_map: dict
    gen_map: dict  # generator -> Word in the target

    def apply_word(self, w: Word) -> Word:
        letters = substitute(w.letters, lambda e: self.gen_map[e].letters)
        return reduce_word(Word(self.obj_map[w.start], letters))


def validate_presentation_morphism(m: PresentationMorphism) -> tuple[bool, list, list]:
    """Returns (definitely_ok, violations, assumed).

    Endpoint conditions are exact.  Relation preservation is checked by
    reduction when the target is free; otherwise it is recorded as assumed.
    """
    violations, assumed = [], []
    A, B = m.source, m.target
    b_objects = set(B.objects)
    for x in A.objects:
        if m.obj_map.get(x) not in b_objects:
            violations.append(("object-image", x))
    for e in A.generators():
        im = m.gen_map.get(e)
        if im is None:
            violations.append(("generator-image-missing", e))
            continue
        try:
            check_word(B.graph, im)
        except Exception as exc:  # noqa: BLE001 - collected into the report
            violations.append(("generator-image-word", (e, str(exc))))
            continue
        if word_source(im) != m.obj_map.get(A.graph.src[e]) or word_target(B.graph, im) != m.obj_map.get(A.graph.tgt[e]):
            violations.append(("generator-image-endpoints", e))
    if violations:
        return False, violations, assumed
    for (w1, w2) in A.relations:
        im1, im2 = m.apply_word(w1), m.apply_word(w2)
        if B.is_free():
            if reduce_word(im1) != reduce_word(im2):
                violations.append(("relation-image", (w1, w2)))
        else:
            assumed.append((w1, w2))
    return not violations, violations, assumed


# ---------------------------------------------------------------------------
# pushout
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PushoutResult:
    apex: FpGroupoid
    inj_left: PresentationMorphism
    inj_right: PresentationMorphism
    transcript: dict


def pushout(f: PresentationMorphism, g: PresentationMorphism) -> PushoutResult:
    """Pushout of B <-f- A -g-> C in presented groupoids."""
    if f.source is not g.source:
        raise WrongShape("the two morphisms must share their source presentation")
    legs = (("B", f), ("C", g))
    checks = [validate_presentation_morphism(m) for _, m in legs]
    if not all(ok for ok, _, _ in checks):
        raise InvalidPresentationMorphism(f"leg violations: {[v for _, viol, _ in checks for v in viol]!r}")
    A = f.source

    tagged_objs = [(tag, x) for tag, m in legs for x in m.target.objects]
    glue = [(("B", f.obj_map[a]), ("C", g.obj_map[a])) for a in A.objects]
    rep = {}  # each object's class, named by its sorted tagged members
    for members in partition(tagged_objs, glue):
        rep.update(dict.fromkeys(members, "{" + ",".join(sorted(f"{t}.{m}" for (t, m) in members)) + "}"))

    def translate(w: Word, tag) -> Word:
        return Word(rep[(tag, w.start)], tuple((f"{tag}.{e}", s) for (e, s) in w.letters))

    gen_edges, relations = [], []
    for tag, m in legs:
        graph = m.target.graph
        gen_edges += [(f"{tag}.{e}", rep[(tag, graph.src[e])], rep[(tag, graph.tgt[e])]) for e in graph.generators()]
        relations += [(translate(w1, tag), translate(w2, tag)) for (w1, w2) in m.target.relations]
    glue_relations = [(translate(f.gen_map[e], "B"), translate(g.gen_map[e], "C")) for e in A.generators()]
    apex = FpGroupoid(reflexive_graph(sorted(set(rep.values())), gen_edges), tuple(relations + glue_relations))
    inj_left, inj_right = (
        PresentationMorphism(
            m.target,
            apex,
            {x: rep[(tag, x)] for x in m.target.objects},
            {e: translate(Word(m.target.graph.src[e], ((e, POS),)), tag) for e in m.target.generators()},
        )
        for tag, m in legs
    )
    glued = {(reduce_word(l).letters, reduce_word(r).letters) for (l, r) in glue_relations}
    square = {}
    for e in A.generators():
        lw = inj_left.apply_word(f.gen_map[e])
        rw = inj_right.apply_word(g.gen_map[e])
        square[e] = {
            "left_image": lw,
            "right_image": rw,
            "agree_syntactically": lw == rw,
            "glued_by_relation": (lw.letters, rw.letters) in glued or (rw.letters, lw.letters) in glued,
        }
    transcript = {
        "object_classes": rep,
        "square_on_generators": square,
        "assumed_relation_images": [a for _, _, assumed in checks for a in assumed],
    }
    return PushoutResult(apex, inj_left, inj_right, transcript)


def van_kampen(
    piW: FpGroupoid,
    piU: FpGroupoid,
    piV: FpGroupoid,
    i: PresentationMorphism,
    j: PresentationMorphism,
) -> PushoutResult:
    """Pushout of piU <- piW -> piV, labelled as a base-point cover computation.

    The inputs are user-supplied presentations of the three pieces on the
    shared base points; this wrapper never computes them from point-set data.
    """
    if i.source is not piW or j.source is not piW or i.target is not piU or j.target is not piV:
        raise WrongShape("morphism endpoints do not match the three presentations")
    out = pushout(i, j)
    out.transcript["provenance"] = {
        "pieces": {"intersection": "piW", "left": "piU", "right": "piV"},
        "result": "fundamental groupoid presentation of the union",
    }
    return out


def mediating_morphism(
    result: PushoutResult,
    qB: PresentationToGroupoidMap,
    qC: PresentationToGroupoidMap,
) -> PresentationToGroupoidMap:
    """The unique map out of the apex through both injections, for a cocone.

    Raises InvalidPresentationMorphism when the given maps do not form a
    cocone or the induced map breaks a relation (cannot happen for genuine
    cocones).
    """
    H = qB.target
    if qC.target is not H:
        raise InvalidPresentationMorphism("cocone legs land in different groupoids")
    obj_map, gen_map = {}, {}
    for inj, q in ((result.inj_left, qB), (result.inj_right, qC)):
        for x in inj.source.objects:
            if obj_map.setdefault(inj.obj_map[x], q.obj_map[x]) != q.obj_map[x]:
                raise InvalidPresentationMorphism("cocone objects disagree on a glued class")
        for e in inj.source.generators():
            # the apex generator that the injection sends e to
            gen_map[inj.gen_map[e].letters[0][0]] = q.gen_map[e]
    u = PresentationToGroupoidMap(result.apex, H, obj_map, gen_map)
    if not u.respects_relations():
        raise InvalidPresentationMorphism("cocone does not respect a pushout relation")
    return u


# ---------------------------------------------------------------------------
# vertex group presentations via spanning trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupPresentation:
    generators: tuple
    relators: tuple  # words ((gen, sign), ...) in path order

    def rewriting(self) -> GroupRewriting:
        return knuth_bendix(self.generators, self.relators)

    def element_count_up_to(self, length: int) -> int:
        """How many elements have a word of at most `length` letters: the normal forms of the completion.

        Refuses, with RewritingNotConfluent, a presentation whose completion
        gives up.  Cost: one `knuth_bendix`, then `count_normal_forms`, which
        lists no word: length * |trie states| * 2 |generators| additions.
        """
        return count_normal_forms(self.rewriting(), length)


def spanning_tree(P: FpGroupoid, base) -> dict:
    """Breadth-first tree from the base object: object -> (edge, sign, parent).

    Tie-breaking is lexicographic on generator ids so output is reproducible.
    The base maps to None.  Raises NotConnected when some object is missed.
    """
    graph = P.graph
    if base not in set(graph.objects):
        raise NotConnected(f"unknown base object {base!r}")
    adj: dict = {x: [] for x in graph.objects}  # by generator id, each forward step before its backward one
    for e in sorted(P.generators()):
        adj[graph.src[e]].append((e, POS, graph.tgt[e]))
        adj[graph.tgt[e]].append((e, NEG, graph.src[e]))
    tree = {base: None}
    for x in closure([base], lambda x: (y for (_, _, y) in adj[x])):
        for (e, s, y) in adj[x]:
            tree.setdefault(y, (e, s, x))
    if set(tree) != set(graph.objects):
        missing = sorted(set(map(str, set(graph.objects) - set(tree))))
        raise NotConnected(f"objects unreachable from {base!r}: {missing}")
    return tree


def vertex_group_presentation(P: FpGroupoid, base) -> GroupPresentation:
    """Present the vertex group of a connected presentation at the base.

    Each generator e becomes the loop (path to src e) . e . (path back from
    tgt e) along `spanning_tree(P, base)`; tree edges collapse to the
    trivial word and are dropped.
    """
    tree_edges = {t[0] for t in spanning_tree(P, base).values() if t is not None}

    def translate(w: Word):
        # path order, first-acting letter first; tree edges collapse
        return free_reduce(substitute(reversed(w.letters), lambda e: () if e in tree_edges else ((e, POS),)))

    gens = tuple(sorted(e for e in P.generators() if e not in tree_edges))
    relators = []
    for (w1, w2) in P.relations:
        r = free_reduce(translate(w1) + invert(translate(w2)))
        if r and r not in relators:
            relators.append(r)
    return GroupPresentation(gens, tuple(relators))


# ---------------------------------------------------------------------------
# HNN-shaped pushouts
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class HnnInput:
    """Span data for a stable-letter pushout.

    `vertex` presents the vertex group K, `edge` the edge group C, and
    phi/psi send each generator of C to a path-order word over K's
    generators, both group embeddings of C into K as far as the caller
    asserts (relator images are checked by bounded rewriting).
    """

    vertex: GroupPresentation
    edge: GroupPresentation
    phi: dict
    psi: dict


def hnn_from_pushout(data: HnnInput) -> tuple[GroupPresentation, PushoutResult]:
    """Stable-letter presentation from the two-object gluing pushout.

    Builds the span where the edge group sits at both ends of an interval
    with vertex group C, maps into C x interval on one side and into K on
    the other, computes the pushout, retracts to the single object, and
    eliminates the copied edge generators.  The result is
    <K-gens, u | K-relators, u phi(a) u^-1 psi(a)^-1>.
    """
    K, C = data.vertex, data.edge
    for a in C.generators:
        if a not in data.phi or a not in data.psi:
            raise WrongShape(f"missing image for edge generator {a!r}")
    # bounded sanity check: relators of C must die under phi and psi in K
    system = knuth_bendix(K.generators, K.relators)
    if system.complete:
        for r in C.relators:
            for name, images in (("phi", data.phi), ("psi", data.psi)):
                if system.reduce(substitute(r, images.__getitem__)) != ():
                    raise WrongShape(f"{name} does not kill the edge relator {r!r}")

    # presentations as one- and two-object groupoids
    def word_at(obj, prefix, path_word) -> Word:
        """A path-order word over `prefix`ed generators, in composition order at obj."""
        return Word(obj, tuple((f"{prefix}{g}", s) for (g, s) in reversed(path_word)))

    def relation(obj, prefix, relator) -> tuple:
        return word_at(obj, prefix, relator), empty_word(obj)

    A_graph = reflexive_graph(["0", "1"], [(f"a0.{g}", "0", "0") for g in C.generators] + [(f"a1.{g}", "1", "1") for g in C.generators])
    A_rels = [rel for r in C.relators for rel in (relation("0", "a0.", r), relation("1", "a1.", r))]
    A = FpGroupoid(A_graph, tuple(A_rels))

    # B = C x interval: loops c.<g> at 0 plus the interval edge u: 1 -> 0,
    # oriented so the loop at 1 reads u . c . u^-1 in path order
    B_graph = reflexive_graph(["0", "1"], [(f"c.{g}", "0", "0") for g in C.generators] + [("u", "1", "0")])
    B = FpGroupoid(B_graph, tuple(relation("0", "c.", r) for r in C.relators))

    K_graph = reflexive_graph(["k"], [(f"k.{g}", "k", "k") for g in K.generators])
    Kpres = FpGroupoid(K_graph, tuple(relation("k", "k.", r) for r in K.relators))

    f = PresentationMorphism(
        A,
        B,
        {"0": "0", "1": "1"},
        {
            **{f"a0.{g}": Word("0", ((f"c.{g}", POS),)) for g in C.generators},
            **{
                # path order u, c, u^-1; composition order reverses it
                f"a1.{g}": Word("1", (("u", NEG), (f"c.{g}", POS), ("u", POS)))
                for g in C.generators
            },
        },
    )
    g_map = {}
    for a in C.generators:
        for tag, images in (("a0", data.phi), ("a1", data.psi)):
            g_map[f"{tag}.{a}"] = word_at("k", "k.", images[a])
    g = PresentationMorphism(A, Kpres, {"0": "k", "1": "k"}, g_map)

    result = pushout(f, g)
    pres = vertex_group_presentation(result.apex, next(iter(result.apex.objects)))

    # Tietze: eliminate the copied edge generators c.<g> = phi(g)
    subs = {}
    for a in C.generators:
        letters = tuple((f"C.k.{x}", s) for (x, s) in data.phi[a])
        subs[f"B.c.{a}"] = letters

    gens = tuple(e for e in pres.generators if e not in subs)
    relators = []
    for r in pres.relators:
        r2 = free_reduce(substitute(r, lambda e: subs.get(e, ((e, POS),))))
        if r2 and r2 not in relators and invert(r2) not in relators:
            relators.append(r2)
    # drop defining relators that became trivial and rename to friendly ids
    rename = {"B.u": "u"}
    for x in K.generators:
        rename[f"C.k.{x}"] = str(x)

    def rn(word):
        return tuple((rename.get(e, e), s) for (e, s) in word)

    final = GroupPresentation(
        tuple(rename.get(e, e) for e in gens),
        tuple(rn(r) for r in relators),
    )
    return final, result
