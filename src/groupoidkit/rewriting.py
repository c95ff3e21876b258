"""String rewriting on words of signed generators: one reducer, one overlap scan.

Words are tuples of signed generators ((gen, +1|-1), ...) in path order.
`rewriter` is the one word reducer of the package: the monodromy pair rules
(`presentations.monodromy`) and the bounded shortlex Knuth-Bendix completion
that counts vertex group elements for the colimit machinery both reduce
with it.  `overlaps` (with `inclusions` on its index) finds completion's
critical pairs; the monodromy check joins its pair table instead.
Completion builds free cancellation in as explicit rules; an instance that
does not complete within the bound reports that instead of silently
mis-deciding equality.  `count_normal_forms` counts a complete system's
normal forms on the automaton of its left-hand sides; `enumerate_elements`
lists them, and is the counter's oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .core import group_by
from .errors import RewritingNotConfluent

POS, NEG = 1, -1
MAX_RULES, MAX_LEN = 300, 16  # found during completion, which gives up past these
# Critical pairs formed over all rounds of one completion, counted before a
# round joins them.  A system can stay under MAX_RULES and MAX_LEN and still
# join thousands of pairs a round for 80 rounds (ten minutes on one
# three-generator instance).  The largest completion in the tests forms 432,
# and in the benchmark's pushouts 33.
MAX_PAIRS = 5000


def invert(word):
    """The inverse word: letters reversed, each sign flipped."""
    return tuple((g, -s) for (g, s) in reversed(word))


def substitute(word, image):
    """The word with each letter (g, s) replaced by the word image(g), inverted when s is NEG; not reduced."""
    out: list = []
    for g, s in word:
        im = image(g)
        out.extend(im if s == POS else invert(im))
    return tuple(out)


def free_reduce(word):
    out = []
    for let in word:
        if out and out[-1][0] == let[0] and out[-1][1] == -let[1]:
            out.pop()
        else:
            out.append(let)
    return tuple(out)


def rewriter(rules: dict):
    """The reducer of the rewriting system `rules` (lhs -> rhs), built once per dict.

    The reducer freely reduces a word, then replaces the leftmost left-hand
    side in it (at one position the shorter first) until none is left.
    It reads `rules` live: a rule removed later stops applying, and a rule
    added later applies if its lhs is no longer than the longest at build time.
    """
    longest = max(map(len, rules), default=0)
    lengths = range(1, longest + 1)
    get = rules.get

    def reduce(word):
        word, i = free_reduce(word), 0
        while i < len(word):
            for n in lengths:
                rhs = get(word[i : i + n])
                if rhs is not None:
                    word = word[:i] + rhs + word[i + n :]
                    # a new match must overlap the replaced stretch
                    i = max(0, i - longest + 1)
                    break
            else:
                i += 1
        return word

    return reduce


def _by_first_letter(rules):
    """The left-hand sides, and each letter mapped to the positions of those that start with it."""
    lhss = list(rules)
    return lhss, group_by(range(len(lhss)), lambda j: lhss[j][0])


def overlaps(rules):
    """Every proper overlap (l1, l2, k) of two left-hand sides: l1[-k:] == l2[:k], 0 < k < both lengths.

    Ordered by l1, then l2 (both in the order of `rules`), then k.  Only the
    rules that start with a letter of l1 are visited as l2.
    """
    lhss, starting = _by_first_letter(rules)
    for l1 in lhss:
        for j in sorted({j for a in set(l1[1:]) for j in starting.get(a, ())}):
            l2 = lhss[j]
            for k in range(1, min(len(l1), len(l2))):
                if l1[-k:] == l2[:k]:
                    yield l1, l2, k


def inclusions(rules):
    """Every inclusion (l1, l2, i) of one left-hand side in another, l1[i : i + len(l2)] == l2 != l1, ordered as `overlaps`."""
    lhss, starting = _by_first_letter(rules)
    for l1 in lhss:
        for j in sorted({j for a in set(l1) for j in starting.get(a, ())}):
            l2, n = lhss[j], len(lhss[j])
            yield from ((l1, l2, i) for i in range(len(l1) - n + 1) if l2 != l1 and l1[i : i + n] == l2)


def _shortlex_key(word):
    return (len(word), tuple((repr(g), s) for (g, s) in word))


def _orient(a, b):
    return (a, b) if _shortlex_key(a) > _shortlex_key(b) else (b, a)


@dataclass(frozen=True, eq=False)
class GroupRewriting:
    generators: tuple
    rules: tuple  # ((lhs, rhs), ...) shortlex decreasing
    complete: bool

    @cached_property
    def reduce(self):
        """The reducer of `rules`, built on first use; it refers to the rules, not to the system."""
        return rewriter(dict(self.rules))

    def equal(self, w1, w2) -> bool:
        if not self.complete:
            raise RewritingNotConfluent("rewriting system did not complete")
        return self.reduce(w1) == self.reduce(w2)


def knuth_bendix(generators, relators) -> GroupRewriting:
    """Bounded shortlex completion of a group presentation.

    Relators are words equal to the identity.  Free cancellation is part of
    the rule set (x x^-1 -> 1 per signed generator, in generator order) so
    that completion can relate inverse letters to positive words.  Each
    round joins every overlap and every inclusion of two left-hand sides;
    inter-reduction leaves the core alone.  Returns a system flagged
    `complete=False` when a bound is hit: more than MAX_RULES rules, a lhs
    longer than MAX_LEN, more than MAX_PAIRS critical pairs over all rounds,
    or 80 rounds.
    """
    rules: dict = {((g, s), (g, -s)): () for g in generators for s in (POS, NEG)}
    core = set(rules)

    def add_rule(a, b) -> bool:
        a, b = free_reduce(a), free_reduce(b)
        if a == b:
            return True
        lhs, rhs = _orient(a, b)
        if len(lhs) > MAX_LEN:
            return False
        rules[lhs] = rhs
        return True

    ok = True
    formed = 0
    for r in relators:
        ok &= add_rule(tuple(r), ())
        ok &= add_rule(invert(tuple(r)), ())

    # completion loop: critical pairs of rule left-hand sides, overlaps then inclusions
    for _ in range(80):
        if len(rules) > MAX_RULES:
            ok = False
            break
        reduce = rewriter(rules)
        pairs = [(rules[l1] + l2[k:], l1[:-k] + rules[l2]) for l1, l2, k in overlaps(rules)]
        pairs += [(rules[l1], l1[:i] + rules[l2] + l1[i + len(l2) :]) for l1, l2, i in inclusions(rules)]
        formed += len(pairs)
        if formed > MAX_PAIRS:
            ok = False
            break
        new_pairs = [(a, b) for a, b in (map(reduce, pair) for pair in pairs) if a != b]
        if not new_pairs:
            break
        for a, b in new_pairs:
            if not add_rule(a, b):
                ok = False
        # inter-reduce everything except the cancellation core; no lhs grows,
        # so the reducer sees each rule this pass adds
        reduce = rewriter(rules)
        for lhs in list(rules):
            if lhs in core:
                continue
            rhs = rules.pop(lhs)
            reduced_l, reduced_r = reduce(lhs), reduce(rhs)
            if reduced_l != reduced_r:
                a, b = _orient(reduced_l, reduced_r)
                rules[a] = b
    else:
        ok = False

    return GroupRewriting(
        tuple(generators), tuple(sorted(rules.items(), key=lambda kv: _shortlex_key(kv[0]))), ok
    )


def _freely_reduced_letters(system: GroupRewriting) -> list:
    """The signed letters of a complete system that cancels each x x^-1, in generator order.

    Refuses, with RewritingNotConfluent, an incomplete system, and then the
    first letter x whose cancellation rule x x^-1 -> 1 is missing (completion
    keeps them all): without it a normal form need not be freely reduced."""
    if not system.complete:
        raise RewritingNotConfluent("rewriting system did not complete")
    letters = [(g, s) for g in system.generators for s in (POS, NEG)]
    rules = set(system.rules)
    for lhs in ((x, (x[0], -x[1])) for x in letters):
        if (lhs, ()) not in rules:
            raise RewritingNotConfluent(f"rewriting system lacks the cancellation rule {lhs!r} -> ()")
    return letters


def enumerate_elements(system: GroupRewriting, max_len: int):
    """Distinct normal forms of all words up to the length bound; needs a complete system.

    Each is a shorter one extended by one letter and reduced from scratch.
    `_freely_reduced_letters` refuses the systems that `count_normal_forms`
    refuses, so the two answer the same inputs.  A negative bound lists the
    empty word alone.  `count_normal_forms` counts the same set without
    building it.  Cost: 2 |generators| reductions per normal form of
    length < max_len; memory: every normal form."""
    letters = _freely_reduced_letters(system)
    seen = {()}
    frontier = [()]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for let in letters:
                nf = system.reduce(w + (let,))
                if nf not in seen:
                    seen.add(nf)
                    nxt.append(nf)
        frontier = nxt
    return seen


def count_normal_forms(system: GroupRewriting, max_len: int) -> int:
    """len(enumerate_elements(system, max_len)), counted without listing a word.

    Every rule is length-nonincreasing (`_orient` puts the shortlex-larger
    word on the left), so the normal form of a word of length <= max_len is
    an irreducible word of length <= max_len; and an irreducible word is its
    own normal form.  So the count is the number of words of length <=
    max_len with no left-hand side as a factor (Sims, *Computation with
    Finitely Presented Groups*, 1994).  Those are the walks from the root of
    the Aho-Corasick automaton of the left-hand sides (CACM 18, 1975) that
    never enter a state ending one; a count per live state is carried level
    by level.  Refuses what `enumerate_elements` refuses, through the same
    `_freely_reduced_letters`: an irreducible word is freely reduced only if
    every cancellation rule is there.  A negative bound counts the empty
    word alone.  Cost: |letters| steps per trie state to build, then at most
    max_len * |states| * |letters| additions, with |states| <= 1 + the
    total length of the left-hand sides.
    """
    letters = _freely_reduced_letters(system)
    goto: list = [{}]  # the trie of the left-hand sides; state 0 is the empty prefix
    dead = [False]  # the state's prefix ends with a left-hand side
    for lhs, _ in system.rules:
        state = 0
        for x in lhs:
            if x not in goto[state]:
                goto[state][x] = len(goto)
                goto.append({})
                dead.append(False)
            state = goto[state][x]
        dead[state] = True
    # breadth first, so that a failure link (the longest proper suffix that
    # is a prefix) is complete before its state is read; a letter outside
    # the generators is never followed
    fail, delta, order = [0] * len(goto), [None] * len(goto), [0]
    for u in order:
        row = delta[u] = []
        for i, x in enumerate(letters):
            via_fail = delta[fail[u]][i] if u else 0  # where x leads from the longest proper suffix
            v = goto[u].get(x)
            if v is None:
                row.append(via_fail)
                continue
            fail[v] = via_fail
            dead[v] = dead[v] or dead[via_fail]
            order.append(v)
            row.append(v)
    live = {u: [v for v in delta[u] if not dead[v]] for u in order}
    counts, total = {0: 1}, 1
    for _ in range(max_len):
        nxt: dict = {}
        for u, c in counts.items():
            for v in live[u]:
                nxt[v] = nxt.get(v, 0) + c
        counts = nxt
        total += sum(counts.values())
    return total
