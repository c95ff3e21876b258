"""Shortlex string rewriting for group presentations.

Used by the colimit machinery (and its tests) for bounded element counts in
finitely presented groups.  Words are tuples of signed generators
((gen, +1|-1), ...) in path order; free cancellation is built in by encoding
inverse pairs as explicit rules.  Completion is a bounded Knuth-Bendix loop
over shortlex; instances that do not complete within the bound report that
instead of silently mis-deciding equality.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import RewritingNotConfluent

POS, NEG = 1, -1


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


def _rewrite(rules, word):
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


def _shortlex_key(word):
    return (len(word), tuple((repr(g), s) for (g, s) in word))


def _orient(a, b):
    return (a, b) if _shortlex_key(a) > _shortlex_key(b) else (b, a)


@dataclass(frozen=True, eq=False)
class GroupRewriting:
    generators: tuple
    rules: tuple  # ((lhs, rhs), ...) shortlex decreasing
    complete: bool

    def reduce(self, word):
        return _rewrite(self.rules, word)

    def equal(self, w1, w2) -> bool:
        if not self.complete:
            raise RewritingNotConfluent("rewriting system did not complete")
        return self.reduce(w1) == self.reduce(w2)


def knuth_bendix(generators, relators, max_rules: int = 300, max_len: int = 16) -> GroupRewriting:
    """Bounded shortlex completion of a group presentation.

    Relators are words equal to the identity.  Free cancellation is part of
    the rule set (x x^-1 -> 1 per signed generator) so that completion can
    relate inverse letters to positive words.  Returns a system flagged
    `complete=False` when a bound is hit.
    """
    cancellations = set()
    for g in generators:
        for s in (POS, NEG):
            cancellations.add(((g, s), (g, -s)))
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
        return _rewrite(tuple(rules.items()), word)

    # completion loop: overlaps between rule left-hand sides
    for _ in range(80):
        if len(rules) > max_rules:
            ok = False
            break
        new_pairs = []
        items = list(rules.items())
        for l1, r1 in items:
            for l2, r2 in items:
                for k in range(1, min(len(l1), len(l2))):
                    if l1[len(l1) - k :] == l2[:k]:
                        a = reduce_with(free_reduce(r1 + l2[k:]))
                        b = reduce_with(free_reduce(l1[: len(l1) - k] + r2))
                        if a != b:
                            new_pairs.append((a, b))
        if not new_pairs:
            break
        for a, b in new_pairs:
            if not add_rule(a, b):
                ok = False
        # inter-reduce everything except the cancellation core
        for lhs in list(rules):
            if lhs in cancellations:
                continue
            rhs = rules.pop(lhs)
            others_reduced_l = reduce_with(lhs)
            others_reduced_r = reduce_with(rhs)
            if others_reduced_l != others_reduced_r:
                a, b = _orient(others_reduced_l, others_reduced_r)
                rules[a] = b
    else:
        ok = False

    system = GroupRewriting(
        tuple(generators),
        tuple(sorted(rules.items(), key=lambda kv: _shortlex_key(kv[0]))),
        ok,
    )
    return system


def enumerate_elements(system: GroupRewriting, max_len: int):
    """Distinct normal forms of all words up to the length bound."""
    seen = {()}
    frontier = [()]
    letters = [(g, s) for g in system.generators for s in (POS, NEG)]
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
