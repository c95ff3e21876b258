"""Free groupoids on reflexive graphs, words, presentations, and monodromy.

Words are stored in composition order: the rightmost letter acts first, so a
word ``[(e,+1),(f,-1)]`` denotes e∘f⁻¹ with f⁻¹ applied first.  Identity
edges of the graph never appear as letters; the empty word at an object is
that object's identity.

The monodromy groupoid of a window W inside a groupoid G is the free
groupoid on W (as a reflexive graph) modulo [u][v] = [uv] whenever u, v and
uv all lie in W with uv defined in G.  Equality of elements is decided by a
length-reducing rewriting system whose confluence is verified per instance:
its critical pairs [u][v][w] join the pair-rule table with itself.
Non-confluent instances are reported, never silently accepted.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter

from .core import (
    FiniteGroupoid,
    FiniteTopology,
    ValidationReport,
    Violation,
    _groupoid_of_cells,
    closure,
    composable,
    discontinuities,
    group_by,
)
from .errors import (
    IllFormedWord,
    NotFiniteOnInstance,
    NotFree,
    NotLocalMorphism,
    PartialMap,
    RewritingNotConfluent,
)
from .rewriting import NEG, POS, free_reduce, invert, rewriter


# ---------------------------------------------------------------------------
# reflexive graphs and words
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ReflexiveGraph:
    """Directed graph with one distinguished identity edge per object."""

    objects: tuple
    edges: tuple
    src: dict
    tgt: dict
    id_edge: dict  # object -> its identity edge

    @cached_property
    def lookup(self) -> tuple:
        """The object, edge and identity-edge sets, built on first use: `validate` and every `check_word` read them."""
        return set(self.objects), set(self.edges), set(self.id_edge.values())

    def generators(self) -> tuple:
        """Non-identity edges, in listed order."""
        idset = set(self.id_edge.values())
        return tuple(e for e in self.edges if e not in idset)

    def validate(self) -> ValidationReport:
        bad = []
        objects, edges, idset = self.lookup
        for x in self.objects:
            e = self.id_edge.get(x)
            if e not in edges:
                bad.append(Violation("identity-edge", (x,), "missing identity edge"))
            elif self.src[e] != x or self.tgt[e] != x:
                bad.append(Violation("identity-edge", (x, e), "identity edge not a loop at its object"))
        if len(idset) != len(self.objects):
            bad.append(Violation("identity-edge", (), "identity edges not distinct"))
        if len(edges) != len(self.edges):
            bad.extend(Violation("distinct-edges", (e,), "edge id listed more than once")
                       for e, n in Counter(self.edges).items() if n > 1)
        for e in self.edges:
            if self.src.get(e) not in objects or self.tgt.get(e) not in objects:
                bad.append(Violation("edge-endpoints", (e,), "unknown endpoint"))
        return ValidationReport(tuple(bad))


def reflexive_graph(objects, gen_edges) -> ReflexiveGraph:
    """Graph from (edge id, src, tgt) triples; identity edges are added."""
    objects = tuple(objects)
    edges, src, tgt, id_edge = [], {}, {}, {}
    for x in objects:
        e = f"id:{x}"
        edges.append(e)
        src[e], tgt[e] = x, x
        id_edge[x] = e
    for (e, s, t) in gen_edges:
        edges.append(e)
        src[e], tgt[e] = s, t
    return ReflexiveGraph(objects, tuple(edges), src, tgt, id_edge)


@dataclass(frozen=True)
class Word:
    """A composable word of signed generators, rightmost letter first."""

    start: object
    letters: tuple  # ((generator, +1|-1), ...)

    def __len__(self) -> int:
        return len(self.letters)


def letter_src(graph: ReflexiveGraph, letter):
    e, s = letter
    return graph.src[e] if s == POS else graph.tgt[e]


def letter_tgt(graph: ReflexiveGraph, letter):
    e, s = letter
    return graph.tgt[e] if s == POS else graph.src[e]


def word_source(w: Word) -> object:
    return w.start


def word_target(graph: ReflexiveGraph, w: Word):
    if not w.letters:
        return w.start
    return letter_tgt(graph, w.letters[0])


def check_word(graph: ReflexiveGraph, w: Word) -> None:
    """Raise IllFormedWord unless w is composable and names no identities."""
    objects, edges, idset = graph.lookup
    if w.start not in objects:
        raise IllFormedWord(f"unknown start object {w.start!r}")
    for (e, s) in w.letters:
        if e not in edges:
            raise IllFormedWord(f"unknown generator {e!r}")
        if e in idset:
            raise IllFormedWord(f"letter names identity edge {e!r}")
        if s not in (POS, NEG):
            raise IllFormedWord(f"bad sign {s!r}")
    if w.letters and letter_src(graph, w.letters[-1]) != w.start:
        raise IllFormedWord("start object does not match the first-acting letter")
    for right, left in zip(w.letters[1:], w.letters[:-1]):
        if letter_tgt(graph, right) != letter_src(graph, left):
            raise IllFormedWord(f"letters {left!r} after {right!r} not composable")


def word(graph: ReflexiveGraph, start, letters) -> Word:
    w = Word(start, tuple((e, int(s)) for (e, s) in letters))
    check_word(graph, w)
    return w


def empty_word(x) -> Word:
    return Word(x, ())


def concat(graph: ReflexiveGraph, w1: Word, w2: Word) -> Word:
    """w1 after w2 (w2 acts first)."""
    if word_target(graph, w2) != word_source(w1):
        raise IllFormedWord("words not composable")
    return Word(w2.start, w1.letters + w2.letters)


def word_inverse(graph: ReflexiveGraph, w: Word) -> Word:
    return Word(word_target(graph, w), invert(w.letters))


def reduce_word(w: Word) -> Word:
    """Cancel adjacent (e,+)(e,-) / (e,-)(e,+) pairs to the unique fixpoint."""
    return Word(w.start, free_reduce(w.letters))


# ---------------------------------------------------------------------------
# finitely presented groupoids
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FpGroupoid:
    """A reflexive generating graph plus word relations (pairs of equal words)."""

    graph: ReflexiveGraph
    relations: tuple  # ((Word, Word), ...)

    @property
    def objects(self) -> tuple:
        return self.graph.objects

    def generators(self) -> tuple:
        return self.graph.generators()

    def is_free(self) -> bool:
        return not self.relations

    def validate(self) -> ValidationReport:
        bad = list(self.graph.validate().violations)
        for (w1, w2) in self.relations:
            try:
                check_word(self.graph, w1)
                check_word(self.graph, w2)
            except IllFormedWord as exc:
                bad.append(Violation("relation-word", (w1, w2), str(exc)))
                continue
            if word_source(w1) != word_source(w2) or word_target(self.graph, w1) != word_target(self.graph, w2):
                bad.append(Violation("relation-endpoints", (w1, w2), "relation words have different endpoints"))
        return ValidationReport(tuple(bad))


def free_groupoid(graph: ReflexiveGraph) -> FpGroupoid:
    """The free groupoid on a reflexive graph (identity edges become identities)."""
    rep = graph.validate()
    if not rep.ok:
        raise IllFormedWord(str(rep))
    return FpGroupoid(graph, ())


def words_up_to(P: FpGroupoid, x, y, length: int) -> list[Word]:
    """All reduced words x -> y of length <= `length` in a free presentation, shortest first."""
    if not P.is_free():
        raise NotFree("words_up_to requires a presentation without relations")
    graph = P.graph
    signed = [(e, s) for e in P.generators() for s in (POS, NEG)]

    def extensions(w: Word):
        if len(w) >= length:
            return ()
        cur, undo = word_target(graph, w), invert(w.letters[:1])  # undo would leave the word unreduced
        return (Word(x, (l,) + w.letters) for l in signed if letter_src(graph, l) == cur and (l,) != undo)

    return [w for w in closure([Word(x, ())], extensions) if word_target(graph, w) == y]


# ---------------------------------------------------------------------------
# local groupoid data
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LocalGroupoidData:
    """A groupoid G with a topologised window W around its identities.

    The window must contain every identity and be closed under inversion;
    the object topology is the subspace topology of the window topology
    along x -> id_x.
    """

    G: FiniteGroupoid
    window: frozenset
    t_window: FiniteTopology
    t_objects: FiniteTopology

    def validate(self) -> ValidationReport:
        """Violations in a fixed order: window arrows are walked in repr order."""
        bad = []
        G = self.G
        if not self.window <= set(G.arrows):
            bad.append(Violation("window-subset", (), "window has non-arrows"))
            return ValidationReport(tuple(bad))
        W = sorted(self.window, key=repr)
        for x in G.objects:
            if G.id_of[x] not in self.window:
                bad.append(Violation("window-identities", (x,), "identity missing from window"))
        for w in W:
            if w not in G.inv:
                bad.append(Violation("inverse-exists", (w,), "no inverse arrow"))
            elif G.inv[w] not in self.window:
                bad.append(Violation("window-inverse-closed", (w,), "inverse leaves the window"))
        if bad:
            return ValidationReport(tuple(bad))
        if set(self.t_window.points) != set(W):
            bad.append(Violation("window-topology-points", (), "window topology points differ from window"))
            return ValidationReport(tuple(bad))
        if set(self.t_objects.points) != set(G.objects):
            bad.append(Violation("object-topology-points", (), "object topology points differ from objects"))
            return ValidationReport(tuple(bad))
        # T0 must be the subspace topology along id_of
        derived = derived_object_topology(G, self.t_window).min_open
        for x in G.objects:
            if derived[x] != self.t_objects.min_open[x]:
                bad.append(
                    Violation(
                        "object-topology-subspace",
                        (x,),
                        "object topology is not the subspace topology along identities",
                    )
                )
        # source, target and inversion must be continuous on the window
        TW, T0 = self.t_window.min_open, self.t_objects.min_open
        for rule, f, near_image in (("src", G.src, T0), ("tgt", G.tgt, T0), ("inv", G.inv, TW)):
            bad.extend(
                Violation(f"window-{rule}-continuous", (w,), f"{rule} discontinuous on window")
                for w in discontinuities(f, W, TW, near_image)
            )
        return ValidationReport(tuple(bad))


def derived_object_topology(G: FiniteGroupoid, t_window: FiniteTopology) -> FiniteTopology:
    mins = {}
    for x in G.objects:
        ident = G.id_of[x]
        if ident not in t_window.min_open:
            mins[x] = frozenset({x})  # placeholder; validation reports the gap
        else:
            mins[x] = frozenset(
                y for y in G.objects if G.id_of[y] in t_window.min_open[ident]
            )
    return FiniteTopology(tuple(G.objects), mins)


def local_data(G: FiniteGroupoid, window, t_window: FiniteTopology, t_objects=None) -> LocalGroupoidData:
    window = frozenset(window)
    if t_objects is None:
        t_objects = derived_object_topology(G, t_window)
    D = LocalGroupoidData(G, window, t_window, t_objects)
    rep = D.validate()
    if not rep.ok:
        raise PartialMap(f"invalid local groupoid data: {rep.violations[0]}")
    return D


# ---------------------------------------------------------------------------
# local morphisms
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class WindowMap:
    """A map from a window into a finite groupoid: object map plus values on W."""

    obj_map: dict
    arrow_map: dict  # window arrow -> arrow of the target


def is_local_morphism(D: LocalGroupoidData, H: FiniteGroupoid, f: WindowMap) -> bool:
    """True iff f preserves the partial structure the window inherits from G.

    Preservation of products is demanded only for u, v in W with uv defined
    in G and lying in W again.
    """
    G, W = D.G, D.window
    for w in W:
        if w not in f.arrow_map:
            raise PartialMap(f"no value for window arrow {w!r}")
    for x in G.objects:
        if x not in f.obj_map:
            raise PartialMap(f"no value for object {x!r}")
    h_arrows = set(H.arrows)
    for w in W:
        fw = f.arrow_map[w]
        if fw not in h_arrows:
            return False
        if H.src[fw] != f.obj_map[G.src[w]] or H.tgt[fw] != f.obj_map[G.tgt[w]]:
            return False
    for x in G.objects:
        if f.arrow_map[G.id_of[x]] != H.id_of[f.obj_map[x]]:
            return False
    return broken_product(D, H, f) is None


def broken_product(D: LocalGroupoidData, H: FiniteGroupoid, f: WindowMap) -> tuple | None:
    """The first window pair (u, v), u then v in sorted order, with uv in W
    and f(u)f(v) != f(uv); None when f preserves every such product."""
    G, W = D.G, D.window
    # with src and tgt swapped the join yields (v, u): u in sorted order, then v
    for v, u in composable(sorted(W), G.tgt, G.src):
        uv = G.comp[(u, v)]
        if uv in W and H.comp.get((f.arrow_map[u], f.arrow_map[v])) != f.arrow_map[uv]:
            return (u, v)
    return None


# ---------------------------------------------------------------------------
# the monodromy groupoid M(G, W)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PairRewriting:
    """Length-reducing rules [u][v] -> [uv] on positive window words.

    `reduce` rewrites letters with the pair rules plus (e,-1) -> (inv e,+1),
    which the window's closedness under inversion allows.  `confluent`
    records the critical pair check, a join of `pair_rules` on the middle letter.
    """

    graph: ReflexiveGraph
    inv_gen: dict  # generator -> generator naming its inverse
    pair_rules: dict  # (u, v) -> composite generator, or None when uv is an identity
    confluent: bool
    critical_failures: tuple
    reduce: object = field(repr=False)  # rewriting.rewriter over the letter rules

    def normal_form(self, w: Word) -> Word:
        if not self.confluent:
            raise RewritingNotConfluent(
                f"instance rewriting system failed critical pairs: {self.critical_failures[:3]!r}"
            )
        return Word(w.start, self.reduce(w.letters))


def _pair_rewriting(graph: ReflexiveGraph, inv_gen: dict, pair_rules: dict) -> PairRewriting:
    """The pair rules [u][v] -> [uv] as letter rules, checked on every overlap [u][v][w].

    The only overlaps are [u][v][w], rules on (u, v) then (v, w), each in rule
    order; both sides, [uv][w] and [u][vw], reduce with one more lookup.
    """
    letter_rules = {((u, POS), (v, POS)): () if uv is None else ((uv, POS),) for (u, v), uv in pair_rules.items()}
    letter_rules.update({((e, NEG),): ((inv, POS),) for e, inv in inv_gen.items()})
    one = {None: (), **{e: ((e, POS),) for e in inv_gen}}  # generator (None: identity) -> its word

    def side(x, y):
        """The normal form of [x][y]; None stands for an identity."""
        if x is None or y is None:
            return one[x if y is None else y]
        if (x, y) in pair_rules:
            return one[pair_rules[(x, y)]]
        return ((x, POS), (y, POS))

    starting = group_by(pair_rules, itemgetter(0))
    failures = []
    for (u, v), uv in pair_rules.items():
        for _, w in starting.get(v, ()):
            a, b = side(uv, w), side(u, pair_rules[(v, w)])
            if a != b:
                failures.append(((u, v, w), Word(graph.src[w], a), Word(graph.src[w], b)))
    return PairRewriting(graph, inv_gen, pair_rules, not failures, tuple(failures), rewriter(letter_rules))


def _evaluate_word(H: FiniteGroupoid, obj_map: dict, gen_map: dict, w: Word):
    """The arrow of H that w names when objects and generators map by the tables."""
    cur = H.id_of[obj_map[w.start]]
    for (e, s) in reversed(w.letters):
        a = gen_map[e]
        if s == NEG:
            a = H.inv[a]
        cur = H.comp[(a, cur)]
    return cur


@dataclass(frozen=True, eq=False)
class MonodromyResult:
    """Monodromy groupoid of a window, with projection and window embedding.

    ``presentation`` is F(W) modulo [u][v] = [uv]; ``p_obj``/``p_gen`` give
    the projection back to G on objects and generators; ``iprime`` sends each
    window arrow to its class, as a word.
    """

    data: LocalGroupoidData
    presentation: FpGroupoid
    rewriting: PairRewriting
    p_obj: dict
    p_gen: dict
    iprime: dict

    def project_word(self, w: Word):
        """Evaluate the projection on any word of the presentation."""
        return _evaluate_word(self.data.G, self.p_obj, self.p_gen, w)

    def normal_form(self, w: Word) -> Word:
        return self.rewriting.normal_form(w)

    def iprime_injective(self) -> bool:
        """The images are normal forms, so i' is injective iff they are distinct words."""
        return len(set(self.iprime.values())) == len(self.iprime)


def monodromy(D: LocalGroupoidData) -> MonodromyResult:
    """The monodromy groupoid M(G, W) with projection p and embedding i'.

    The relations and the letter rules are both read off one table of pair
    rules.  i' sends w to [w], and id_x to the empty word at x: normal forms,
    since no letter rule has one positive letter as its left-hand side.
    Raises IllFormedWord, naming every graph violation, when a window
    arrow is named like the identity edge `id:x` of an object.
    """
    G, W = D.G, D.window
    gens = sorted(w for w in W if not G.is_identity(w))
    graph = reflexive_graph(G.objects, [(w, G.src[w], G.tgt[w]) for w in gens])
    rep = graph.validate()
    if not rep.ok:
        raise IllFormedWord("invalid monodromy graph: " + "; ".join(map(str, rep.violations)))
    rules = {}
    # with src and tgt swapped the join yields (v, u): u in generator order, then v
    for v, u in composable(gens, G.tgt, G.src):
        uv = G.comp[(u, v)]
        if uv in W:
            rules[(u, v)] = None if G.is_identity(uv) else uv
    rewriting = _pair_rewriting(graph, {w: G.inv[w] for w in gens}, rules)
    relations = tuple(
        (Word(G.src[v], ((u, POS), (v, POS))), Word(G.src[v], () if uv is None else ((uv, POS),)))
        for (u, v), uv in rules.items()
    )
    p_obj = {x: x for x in G.objects}
    p_gen = {e: e for e in graph.generators()}
    iprime = {w: Word(G.src[w], () if G.is_identity(w) else ((w, POS),)) for w in W}
    return MonodromyResult(D, FpGroupoid(graph, relations), rewriting, p_obj, p_gen, iprime)


@dataclass(frozen=True, eq=False)
class PresentationToGroupoidMap:
    """A morphism from a presented groupoid into a finite groupoid."""

    presentation: FpGroupoid
    target: FiniteGroupoid
    obj_map: dict
    gen_map: dict  # generator -> arrow of the target

    def evaluate(self, w: Word):
        return _evaluate_word(self.target, self.obj_map, self.gen_map, w)

    def respects_relations(self) -> bool:
        return all(
            self.evaluate(w1) == self.evaluate(w2)
            for (w1, w2) in self.presentation.relations
        )


def extend_local_morphism(M: MonodromyResult, H: FiniteGroupoid, f: WindowMap) -> PresentationToGroupoidMap:
    """The unique morphism f' on M(G, W) with f'∘i' = f, for local f."""
    if not is_local_morphism(M.data, H, f):
        raise NotLocalMorphism("the window map does not preserve the local structure")
    gen_map = {e: f.arrow_map[e] for e in M.presentation.generators()}
    fprime = PresentationToGroupoidMap(M.presentation, H, dict(f.obj_map), gen_map)
    if not fprime.respects_relations():
        # cannot happen for local f: each relation [u][v]=[uv] maps to
        # f(u)f(v)=f(uv), which locality guarantees
        raise NotLocalMorphism("relation image fails in the target")
    return fprime


# ---------------------------------------------------------------------------
# finiteness and explicit monodromy groupoids
# ---------------------------------------------------------------------------


def monodromy_is_finite(M: MonodromyResult) -> bool:
    """Decide finiteness of M via the normal-form adjacency graph.

    Normal forms are positive words avoiding rule left-hand sides; they are
    walks in the digraph "u may follow v", and M is finite exactly when that
    digraph has no directed cycle.  Generators that may follow none of the
    generators left are peeled off one at a time (Kahn's topological sort);
    a cycle is what is left when the peeling stops.  Requires a confluent
    instance.
    """
    if not M.rewriting.confluent:
        raise RewritingNotConfluent("finiteness needs an instance-confluent system")
    gens = M.presentation.generators()
    allowed = _next_letters(M)
    waiting = Counter(u for v in gens for u in allowed[v])  # generator -> how many generators it may still follow

    def peel(v):
        for u in allowed[v]:
            waiting[u] -= 1
            if not waiting[u]:
                yield u

    return len(closure([g for g in gens if not waiting[g]], peel)) == len(gens)


def _next_letters(M: MonodromyResult) -> dict:
    """Each generator v mapped to the generators u that may stand just left
    of it in a normal form: src u == tgt v and no rule rewrites [u][v]."""
    graph, rules = M.presentation.graph, M.rewriting.pair_rules
    gens = M.presentation.generators()
    starting_at = group_by(gens, graph.src.__getitem__)
    return {v: [u for u in starting_at.get(graph.tgt[v], ()) if (u, v) not in rules] for v in gens}


def enumerate_monodromy_arrows(M: MonodromyResult) -> list[Word]:
    """All normal-form words of a finite, confluent monodromy instance, shortest first."""
    if not monodromy_is_finite(M):
        raise NotFiniteOnInstance("monodromy groupoid is infinite on this instance")
    graph = M.presentation.graph
    allowed = _next_letters(M)

    def longer(w: Word):
        return (Word(w.start, ((u, POS),) + w.letters) for u in allowed[w.letters[0][0]]) if w.letters else ()

    one_letter = [Word(graph.src[g], ((g, POS),)) for g in M.presentation.generators()]
    return closure([empty_word(x) for x in graph.objects] + one_letter, longer)


def monodromy_groupoid(M: MonodromyResult) -> tuple[FiniteGroupoid, dict]:
    """Materialise a finite monodromy instance as explicit tables.

    The normal forms are the cells, in (length, repr) order: composites and
    inverses are normal forms of concatenations and formal inverses.
    Returns the groupoid together with the translation from each normal-form
    `Word` to its arrow id.
    """
    graph, normal_form = M.presentation.graph, M.rewriting.normal_form
    words = sorted(enumerate_monodromy_arrows(M), key=lambda w: (len(w), repr(w)))
    name = {w: "w:" + ".".join(e for (e, _) in w.letters) if w.letters else f"id:{w.start}" for w in words}
    return _groupoid_of_cells(
        {x: empty_word(x) for x in graph.objects},
        words,
        name.__getitem__,
        lambda w: (word_source(w), word_target(graph, w)),
        lambda w: normal_form(word_inverse(graph, w)),
        lambda h, g: normal_form(concat(graph, h, g)),
    ), name
