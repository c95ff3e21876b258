"""Free groupoids on reflexive graphs, words, presentations, and monodromy.

Words are stored in composition order: the rightmost letter acts first, so a
word ``[(e,+1),(f,-1)]`` denotes e∘f⁻¹ with f⁻¹ applied first.  Identity
edges of the graph never appear as letters; the empty word at an object is
that object's identity.

The monodromy groupoid of a window W inside a groupoid G is the free
groupoid on W (as a reflexive graph) modulo [u][v] = [uv] whenever u, v and
uv all lie in W with uv defined in G.  Equality of elements is decided by a
length-reducing rewriting system whose confluence is verified per instance
with a critical pair check; non-confluent instances are reported, never
silently accepted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    FiniteGroupoid,
    FiniteTopology,
    ValidationReport,
    Violation,
    composable,
    make_groupoid,
    out_stars,
)
from .errors import (
    IllFormedWord,
    NotFiniteOnInstance,
    NotFree,
    NotLocalMorphism,
    PartialMap,
    RewritingNotConfluent,
)
from .rewriting import NEG, POS, free_reduce


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

    def generators(self) -> tuple:
        """Non-identity edges, in listed order."""
        idset = set(self.id_edge.values())
        return tuple(e for e in self.edges if e not in idset)

    def validate(self) -> ValidationReport:
        bad = []
        for x in self.objects:
            e = self.id_edge.get(x)
            if e not in set(self.edges):
                bad.append(Violation("identity-edge", (x,), "missing identity edge"))
            elif self.src[e] != x or self.tgt[e] != x:
                bad.append(Violation("identity-edge", (x, e), "identity edge not a loop at its object"))
        idset = set(self.id_edge.values())
        if len(idset) != len(self.objects):
            bad.append(Violation("identity-edge", (), "identity edges not distinct"))
        for e in self.edges:
            if self.src.get(e) not in set(self.objects) or self.tgt.get(e) not in set(self.objects):
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
    idset = set(graph.id_edge.values())
    if w.start not in set(graph.objects):
        raise IllFormedWord(f"unknown start object {w.start!r}")
    for (e, s) in w.letters:
        if e not in set(graph.edges):
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
    letters = tuple((e, -s) for (e, s) in reversed(w.letters))
    return Word(word_target(graph, w), letters)


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
    """All reduced words x -> y of length <= `length` in a free presentation."""
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
        bad = []
        G = self.G
        W = self.window
        if not W <= set(G.arrows):
            bad.append(Violation("window-subset", (), "window has non-arrows"))
            return ValidationReport(tuple(bad))
        for x in G.objects:
            if G.id_of[x] not in W:
                bad.append(Violation("window-identities", (x,), "identity missing from window"))
        for w in W:
            if G.inv[w] not in W:
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
        for x in G.objects:
            derived = frozenset(
                y for y in G.objects if G.id_of[y] in self.t_window.min_open[G.id_of[x]]
            )
            if derived != self.t_objects.min_open[x]:
                bad.append(
                    Violation(
                        "object-topology-subspace",
                        (x,),
                        "object topology is not the subspace topology along identities",
                    )
                )
        # source, target and inversion must be continuous on the window
        for w in W:
            for w2 in self.t_window.min_open[w]:
                if G.src[w2] not in self.t_objects.min_open[G.src[w]]:
                    bad.append(Violation("window-src-continuous", (w,), "src discontinuous on window"))
                    break
        for w in W:
            for w2 in self.t_window.min_open[w]:
                if G.tgt[w2] not in self.t_objects.min_open[G.tgt[w]]:
                    bad.append(Violation("window-tgt-continuous", (w,), "tgt discontinuous on window"))
                    break
        for w in W:
            for w2 in self.t_window.min_open[w]:
                if G.inv[w2] not in self.t_window.min_open[G.inv[w]]:
                    bad.append(Violation("window-inv-continuous", (w,), "inv discontinuous on window"))
                    break
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
        raise PartialMap(f"invalid local groupoid data: {rep}")
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
    for w in W:
        fw = f.arrow_map[w]
        if fw not in set(H.arrows):
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

    Negative letters are first normalised to positive ones via the window's
    closedness under inversion ((e,-1) becomes (inv e, +1)).  `confluent`
    records the instance critical pair check.
    """

    graph: ReflexiveGraph
    inv_gen: dict  # generator -> generator naming its inverse
    pair_rules: dict  # (u, v) -> composite generator, or None when uv is an identity
    confluent: bool
    critical_failures: tuple

    def normalise_signs(self, w: Word) -> Word:
        letters = []
        for (e, s) in w.letters:
            if s == NEG and e in self.inv_gen:
                letters.append((self.inv_gen[e], POS))
            else:
                letters.append((e, s))
        return Word(w.start, tuple(letters))

    def rewrite_once(self, w: Word) -> Word | None:
        letters = w.letters
        for i in range(len(letters) - 1):
            left, right = letters[i], letters[i + 1]
            if left[1] != POS or right[1] != POS:
                continue
            key = (left[0], right[0])
            if key in self.pair_rules:
                out = self.pair_rules[key]
                mid = () if out is None else ((out, POS),)
                return Word(w.start, letters[:i] + mid + letters[i + 1 + 1:])
        return None

    def normal_form(self, w: Word) -> Word:
        if not self.confluent:
            raise RewritingNotConfluent(
                f"instance rewriting system failed critical pairs: {self.critical_failures[:3]!r}"
            )
        return _exhaust(self, w)


def _build_pair_rules(D: LocalGroupoidData):
    """Rules and presentation data for the monodromy quotient."""
    G, W = D.G, D.window
    gens = sorted(w for w in W if not G.is_identity(w))
    graph = reflexive_graph(G.objects, [(w, G.src[w], G.tgt[w]) for w in gens])
    inv_gen = {w: G.inv[w] for w in gens}
    rules = {}
    relations = []
    ending_at = out_stars(gens, G.tgt)
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
    return graph, inv_gen, rules, tuple(relations)


def _check_confluence(graph, inv_gen, rules):
    """Critical pair check for overlaps [u][v][w] with rules on both pairs."""
    failures = []
    tmp = PairRewriting(graph, inv_gen, rules, True, ())
    for (u, v) in rules:
        for (v2, w) in rules:
            if v2 != v:
                continue
            start = graph.src[w]
            full = Word(start, ((u, POS), (v, POS), (w, POS)))
            left_first = tmp.rewrite_once(full)
            # rewrite the right pair by hand
            out = rules[(v, w)]
            mid = () if out is None else ((out, POS),)
            right_first = Word(start, ((u, POS),) + mid)
            a = _exhaust(tmp, left_first)
            b = _exhaust(tmp, right_first)
            if a != b:
                failures.append(((u, v, w), a, b))
    return (not failures), tuple(failures)


def _exhaust(system: PairRewriting, w: Word) -> Word:
    cur = reduce_word(system.normalise_signs(w))
    while True:
        nxt = system.rewrite_once(cur)
        if nxt is None:
            return cur
        cur = reduce_word(nxt)


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
        nfs = {}
        for w, im in self.iprime.items():
            key = (
                word_source(im),
                word_target(self.presentation.graph, im),
                self.rewriting.normal_form(im).letters if self.rewriting.confluent else im.letters,
            )
            if key in nfs and nfs[key] != w:
                return False
            nfs[key] = w
        return True


def monodromy(D: LocalGroupoidData) -> MonodromyResult:
    """The monodromy groupoid M(G, W) with projection p and embedding i'."""
    G = D.G
    graph, inv_gen, rules, relations = _build_pair_rules(D)
    confluent, failures = _check_confluence(graph, inv_gen, rules)
    rewriting = PairRewriting(graph, inv_gen, rules, confluent, failures)
    pres = FpGroupoid(graph, relations)
    p_obj = {x: x for x in G.objects}
    p_gen = {e: e for e in graph.generators()}
    iprime = {}
    for w in D.window:
        if G.is_identity(w):
            iprime[w] = empty_word(G.src[w])
        else:
            im = Word(G.src[w], ((w, POS),))
            iprime[w] = rewriting.normal_form(im) if confluent else im
    return MonodromyResult(D, pres, rewriting, p_obj, p_gen, iprime)


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
    walks in the digraph "u may follow v".  With no directed cycle every walk
    is simple, so enumeration up to the generator count is exhaustive.
    Requires a confluent instance.
    """
    if not M.rewriting.confluent:
        raise RewritingNotConfluent("finiteness needs an instance-confluent system")
    gens = M.presentation.generators()
    allowed = _next_letters(M)
    # cycle detection over the "next letter" digraph
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


def _next_letters(M: MonodromyResult) -> dict:
    """Each generator v mapped to the generators u that may stand just left
    of it in a normal form: src u == tgt v and no rule rewrites [u][v]."""
    graph, rules = M.presentation.graph, M.rewriting.pair_rules
    gens = M.presentation.generators()
    starting_at = out_stars(gens, graph.src)
    return {v: [u for u in starting_at.get(graph.tgt[v], ()) if (u, v) not in rules] for v in gens}


def enumerate_monodromy_arrows(M: MonodromyResult) -> list[Word]:
    """All normal-form words of a finite, confluent monodromy instance."""
    if not monodromy_is_finite(M):
        raise NotFiniteOnInstance("monodromy groupoid is infinite on this instance")
    graph = M.presentation.graph
    allowed = _next_letters(M)
    out = [empty_word(x) for x in graph.objects]
    frontier = [Word(graph.src[g], ((g, POS),)) for g in M.presentation.generators()]
    while frontier:
        out.extend(frontier)
        frontier = [Word(w.start, ((u, POS),) + w.letters) for w in frontier for u in allowed[w.letters[0][0]]]
    return out


def monodromy_groupoid(M: MonodromyResult) -> tuple[FiniteGroupoid, dict]:
    """Materialise a finite monodromy instance as explicit tables.

    Returns the groupoid together with the word -> arrow id translation.
    """
    words = enumerate_monodromy_arrows(M)
    graph = M.presentation.graph

    def key(w: Word):
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
