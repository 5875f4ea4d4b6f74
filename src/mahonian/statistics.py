"""Word statistics driven by a directed relation.

Replacing the comparison x > y by membership (x, y) in a relation U turns
the classical permutation statistics into statistics on arbitrary words:

* inversions: pairs of positions i < j with (w_i, w_j) in U;
* descents: positions i with (w_i, w_{i+1}) in U, and their position sum,
  the major index;
* sorting index: run a straight selection sort (for i = m down to 1, move
  the largest letter of the prefix w_1..w_i to position i) and, at every
  step, add the number of positions h in (j, i] whose pre-swap letter y has
  (x, y) in U, where x is the letter being moved from position j.

With U the strict integer order these all collapse to the classical inv,
maj and sor.

The selection sort needs a tie rule when the largest prefix letter occurs
several times.  Three deterministic rules are provided:

* copy-label-max (the default): copies carry their position in the original
  input word as a label; the copy with the largest label is moved.
* leftmost / rightmost: the copy at the smallest / largest current position.

The rules genuinely differ on words with repeated letters - they can visit
different intermediate words and produce different index values - so every
sorting-based result records which rule it used.

All three statistics are linear in the relation's indicator: each word has
a profile P with one entry per ordered pair, and stat_U(w) is the sum of
P[x, y] over the pairs (x, y) of U.  inversion_profile, major_profile and
sorting_profile build these; the relation sweeps in oracle.py score every
relation from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import AlphabetMismatch, InvalidArguments, SizeCapExceeded
from .relations import Relation, _check_same_alphabet
from .words import MultiplicityVector, Word

TIE_COPY_LABEL_MAX = "copy-label-max"
TIE_LEFTMOST = "leftmost"
TIE_RIGHTMOST = "rightmost"
TIE_RULES = (TIE_COPY_LABEL_MAX, TIE_LEFTMOST, TIE_RIGHTMOST)
DEFAULT_TIE_RULE = TIE_COPY_LABEL_MAX

DEFAULT_MAX_CHAIN_TOTAL = 12


def _letters_of(word) -> tuple[int, ...]:
    if isinstance(word, Word):
        return word.letters
    return tuple(word)


def _checked_letters(n: int, word) -> tuple[int, ...]:
    letters = _letters_of(word)
    for x in letters:
        if not 1 <= x <= n:
            raise AlphabetMismatch(
                f"letter {x} outside the relation's alphabet 1..{n}"
            )
    return letters


def graphical_inversions(relation: Relation, word) -> int:
    """Number of pairs i < j with (w_i, w_j) in the relation."""
    letters = _checked_letters(relation.n, word)
    edges = relation.edges
    total = 0
    for i in range(len(letters)):
        x = letters[i]
        for j in range(i + 1, len(letters)):
            if (x, letters[j]) in edges:
                total += 1
    return total


def graphical_descent_set(relation: Relation, word) -> frozenset[int]:
    """Positions i (1-based, i < m) with (w_i, w_{i+1}) in the relation."""
    letters = _checked_letters(relation.n, word)
    edges = relation.edges
    return frozenset(
        i + 1
        for i in range(len(letters) - 1)
        if (letters[i], letters[i + 1]) in edges
    )


def graphical_descent_count(relation: Relation, word) -> int:
    return len(graphical_descent_set(relation, word))


def graphical_major_index(relation: Relation, word) -> int:
    """Sum of the descent positions."""
    letters = _checked_letters(relation.n, word)
    edges = relation.edges
    total = 0
    for i in range(len(letters) - 1):
        if (letters[i], letters[i + 1]) in edges:
            total += i + 1
    return total


@dataclass(frozen=True)
class SortStep:
    """One selection-sort step: the letter moved from mover_position to
    target_position (1-based), and what it added to the index."""

    mover_position: int
    target_position: int
    letter: int
    contribution: int


@dataclass(frozen=True)
class SortTrace:
    tie_rule: str
    steps: tuple[SortStep, ...]
    final_letters: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(step.contribution for step in self.steps)


def _check_rule(tie_rule: str) -> None:
    if tie_rule not in TIE_RULES:
        raise InvalidArguments(
            f"unknown tie rule {tie_rule!r}, expected one of {TIE_RULES}"
        )


def _selection_sort(relation, letters, tie_rule, want_steps):
    edges = relation.edges
    work = list(letters)
    labels = list(range(len(work)))  # positions in the original word
    total = 0
    steps = [] if want_steps else None
    for i in range(len(work) - 1, -1, -1):
        largest = work[0]
        for h in range(1, i + 1):
            if work[h] > largest:
                largest = work[h]
        if tie_rule == TIE_RIGHTMOST:
            j = i
            while work[j] != largest:
                j -= 1
        elif tie_rule == TIE_LEFTMOST:
            j = 0
            while work[j] != largest:
                j += 1
        else:
            j = -1
            best = -1
            for h in range(i + 1):
                if work[h] == largest and labels[h] > best:
                    best = labels[h]
                    j = h
        contribution = 0
        for h in range(j + 1, i + 1):
            if (largest, work[h]) in edges:
                contribution += 1
        total += contribution
        if want_steps:
            steps.append(SortStep(j + 1, i + 1, largest, contribution))
        work[j], work[i] = work[i], work[j]
        labels[j], labels[i] = labels[i], labels[j]
    return total, steps, tuple(work)


def graphical_sorting_index(
    relation: Relation, word, tie_rule: str = DEFAULT_TIE_RULE
) -> int:
    _check_rule(tie_rule)
    letters = _checked_letters(relation.n, word)
    total, _, _ = _selection_sort(relation, letters, tie_rule, False)
    return total


def graphical_sorting_trace(
    relation: Relation, word, tie_rule: str = DEFAULT_TIE_RULE
) -> SortTrace:
    """Full step record of the sort; the steps' target positions run from
    m down to 1 and the final letters are the ascending rearrangement."""
    _check_rule(tie_rule)
    letters = _checked_letters(relation.n, word)
    total, steps, final = _selection_sort(relation, letters, tie_rule, True)
    return SortTrace(tie_rule, tuple(steps), final)


def replay_trace(letters: Sequence[int], trace: SortTrace) -> list[tuple[int, ...]]:
    """Word states after each step of a trace, starting from the given word."""
    work = list(letters)
    states = []
    for step in trace.steps:
        j, i = step.mover_position - 1, step.target_position - 1
        work[j], work[i] = work[i], work[j]
        states.append(tuple(work))
    return states


def inversion_profile(n: int, word) -> tuple[int, ...]:
    """Pair counts of the word: entry (x-1)*n + (y-1) is the number of
    positions i < j with (w_i, w_j) = (x, y).

    The entries follow the bit order of relation_from_mask, and
    graphical_inversions(U, w) is the sum of the entries over the pairs of U.
    """
    letters = _checked_letters(n, word)
    profile = [0] * (n * n)
    seen = [0] * n  # copies of each letter left of the current position
    for y in letters:
        for x in range(n):
            profile[x * n + y - 1] += seen[x]
        seen[y - 1] += 1
    return tuple(profile)


def major_profile(n: int, word) -> tuple[int, ...]:
    """Summed descent positions: entry (x-1)*n + (y-1) adds up the positions
    i with (w_i, w_{i+1}) = (x, y), so graphical_major_index(U, w) is the sum
    of the entries over the pairs of U."""
    letters = _checked_letters(n, word)
    profile = [0] * (n * n)
    for i in range(len(letters) - 1):
        profile[(letters[i] - 1) * n + letters[i + 1] - 1] += i + 1
    return tuple(profile)


def sorting_profile(
    n: int, word, tie_rule: str = DEFAULT_TIE_RULE
) -> tuple[int, ...]:
    """Letters jumped over by the sort's moves: entry (x-1)*n + (y-1) counts
    the times a moved x passes a y, so graphical_sorting_index(U, w, tie_rule)
    is the sum of the entries over the pairs of U.

    The mover of each step never depends on the relation, so the moves are
    read off one trace under the empty relation.
    """
    letters = _letters_of(word)
    trace = graphical_sorting_trace(Relation(n, frozenset()), letters, tie_rule)
    profile = [0] * (n * n)
    work = list(letters)
    for step in trace.steps:
        j, i = step.mover_position - 1, step.target_position - 1
        row = (step.letter - 1) * n - 1
        for h in range(j + 1, i + 1):
            profile[row + work[h]] += 1
        work[j], work[i] = work[i], work[j]
    return tuple(profile)


def maximal_chain_word(
    relation: Relation,
    alpha: MultiplicityVector,
    max_total: int = DEFAULT_MAX_CHAIN_TOTAL,
) -> Word:
    """Greedy concatenation of longest relation chains through the class.

    View the class as a pool of letter copies; a chain is a sequence of
    available copies x_1, x_2, ... with every consecutive pair (x_t, x_{t+1})
    in the relation (repeating a letter needs its loop).  Longest chains are
    peeled off one at a time (ties broken toward the lexicographically
    largest chain) and the word is their concatenation in right-to-left
    order: the first chain peeled ends up rightmost.

    The search is exact and memoized over residual multiplicity vectors,
    hence the size cap.
    """
    _check_same_alphabet(relation, alpha)
    if alpha.total > max_total:
        raise SizeCapExceeded(
            f"class mass {alpha.total} exceeds the chain-search cap {max_total}"
        )
    edges = relation.edges
    n = alpha.n
    memo: dict[tuple[tuple[int, ...], int], int] = {}

    def longest(counts: tuple[int, ...], last: int) -> int:
        # last == 0 means the chain is empty
        key = (counts, last)
        if key not in memo:
            best = 0
            for x in range(1, n + 1):
                if counts[x - 1] and (last == 0 or (last, x) in edges):
                    shrunk = counts[: x - 1] + (counts[x - 1] - 1,) + counts[x:]
                    best = max(best, 1 + longest(shrunk, x))
            memo[key] = best
        return memo[key]

    counts = alpha.counts
    chains: list[list[int]] = []
    while sum(counts) > 0:
        length = longest(counts, 0)
        chain = []
        last = 0
        for remaining in range(length, 0, -1):
            # lexicographically largest chain: try large letters first
            for x in range(n, 0, -1):
                if counts[x - 1] and (last == 0 or (last, x) in edges):
                    shrunk = counts[: x - 1] + (counts[x - 1] - 1,) + counts[x:]
                    if 1 + longest(shrunk, x) == remaining:
                        chain.append(x)
                        counts = shrunk
                        last = x
                        break
        chains.append(chain)
    letters = []
    for chain in reversed(chains):
        letters.extend(chain)
    return Word(tuple(letters), alpha)
