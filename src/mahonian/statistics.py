"""Word statistics driven by a directed relation.

Replacing the comparison x > y by membership (x, y) in a relation U turns
the classical permutation statistics into statistics on arbitrary words:

* inversions: pairs of positions i < j with (w_i, w_j) in U;
* descents: positions i with (w_i, w_{i+1}) in U, and their position sum,
  the major index;
* sorting index: run a straight selection sort (for i = m down to 1, move
  the largest letter of the prefix w_1..w_i to position i) and, at every
  step, add the number of positions h in (j, i] whose pre-swap letter y has
  (x, y) in U, where x is the letter being moved from position j.  The
  prefix w_1..w_i always holds the i smallest letters of w, so the letter
  moved at step i is the i-th smallest.

With U the strict integer order these all collapse to the classical inv,
maj and sor.

The selection sort needs a tie rule when the largest prefix letter occurs
several times.  Three deterministic rules are provided:

* copy-label-max (the default): copies carry their position in the original
  input word as a label; the copy with the largest label is moved.  The
  copies of a letter therefore leave in decreasing original position, and
  step i moves the copy whose original position comes i-th when the
  positions are stably sorted by letter.
* leftmost / rightmost: the copy at the smallest / largest current position.

The rules genuinely differ on words with repeated letters - they can visit
different intermediate words and produce different index values - so every
sorting-based result records which rule it used.

All three statistics are linear in the relation's indicator: each word has
a profile P with one entry per ordered pair, and stat_U(w) is the sum of
P[x, y] over the pairs (x, y) of U.  _inversion_profile, _major_profile
and _sorting_profile build these as the private kernels of the relation
sweeps in oracle.py, which score every relation from them; they check
nothing per word, so their callers check the letters and the tie rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import AlphabetMismatch, InvalidArguments, SizeCapExceeded
from .relations import Relation, _check_same_alphabet
from .words import MultiplicityVector, Word, _check_int, _packed_residual

TIE_COPY_LABEL_MAX = "copy-label-max"
TIE_LEFTMOST = "leftmost"
TIE_RIGHTMOST = "rightmost"
TIE_RULES = (TIE_COPY_LABEL_MAX, TIE_LEFTMOST, TIE_RIGHTMOST)
DEFAULT_TIE_RULE = TIE_COPY_LABEL_MAX

DEFAULT_MAX_CHAIN_TOTAL = 12


def _checked_letters(n: int, word) -> tuple[int, ...]:
    letters = word.letters if isinstance(word, Word) else tuple(word)
    for x in letters:
        if type(x) is not int or not 1 <= x <= n:
            raise AlphabetMismatch(
                f"letter {x!r} outside the relation's alphabet 1..{n}"
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
    return sum(graphical_descent_set(relation, word))


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


def _sort_moves(letters, tie_rule):
    """Moves of the selection sort, last position first: (j, i, work) with
    work the word just before positions j and i (0-based) swap.  The mover
    is a copy of ordered[i], and under copy-label-max the copy labelled
    movers[i] (see the module docstring).  The rule and the letters are the
    caller's to check."""
    work = list(letters)
    ordered = sorted(work)
    labels = list(range(len(work)))  # positions in the original word
    movers = sorted(labels, key=work.__getitem__)
    for i in range(len(work) - 1, -1, -1):
        if tie_rule == TIE_RIGHTMOST:
            j = i
            while work[j] != ordered[i]:
                j -= 1
        elif tie_rule == TIE_LEFTMOST:
            j = work.index(ordered[i])
        else:
            j = labels.index(movers[i])
            labels[j], labels[i] = labels[i], labels[j]
        yield j, i, work
        work[j], work[i] = work[i], work[j]


def _contribution(edges, j, i, work) -> int:
    """Letters the step passes that the mover relates to."""
    x = work[j]
    total = 0
    for y in work[j + 1 : i + 1]:
        if (x, y) in edges:
            total += 1
    return total


def graphical_sorting_index(
    relation: Relation, word, tie_rule: str = DEFAULT_TIE_RULE
) -> int:
    _check_rule(tie_rule)
    letters = _checked_letters(relation.n, word)
    return sum(
        _contribution(relation.edges, j, i, work)
        for j, i, work in _sort_moves(letters, tie_rule)
    )


def graphical_sorting_trace(
    relation: Relation, word, tie_rule: str = DEFAULT_TIE_RULE
) -> SortTrace:
    """Full step record of the sort; the steps' target positions run from
    m down to 1 and the final letters are the ascending rearrangement."""
    _check_rule(tie_rule)
    letters = _checked_letters(relation.n, word)
    steps = tuple(
        SortStep(j + 1, i + 1, work[j], _contribution(relation.edges, j, i, work))
        for j, i, work in _sort_moves(letters, tie_rule)
    )
    return SortTrace(tie_rule, steps, tuple(sorted(letters)))


def replay_trace(letters: Sequence[int], trace: SortTrace) -> list[tuple[int, ...]]:
    """Word states after each step of a trace, starting from the given word."""
    work = list(letters)
    states = []
    for step in trace.steps:
        j, i = step.mover_position - 1, step.target_position - 1
        work[j], work[i] = work[i], work[j]
        states.append(tuple(work))
    return states


def _inversion_profile(n: int, letters) -> tuple[int, ...]:
    """Pair counts of the word: entry (x-1)*n + (y-1) is the number of
    positions i < j with (w_i, w_j) = (x, y).

    The entries follow the bit order of relation_from_mask, and
    graphical_inversions(U, w) is the sum of the entries over the pairs of U.
    """
    profile = [0] * (n * n)
    seen = [0] * n  # copies of each letter left of the current position
    for y in letters:
        for x in range(n):
            profile[x * n + y - 1] += seen[x]
        seen[y - 1] += 1
    return tuple(profile)


def _major_profile(n: int, letters) -> tuple[int, ...]:
    """Summed descent positions: entry (x-1)*n + (y-1) adds up the positions
    i with (w_i, w_{i+1}) = (x, y), so graphical_major_index(U, w) is the sum
    of the entries over the pairs of U."""
    profile = [0] * (n * n)
    for i in range(len(letters) - 1):
        profile[(letters[i] - 1) * n + letters[i + 1] - 1] += i + 1
    return tuple(profile)


def _sorting_profile(n: int, letters, tie_rule: str) -> tuple[int, ...]:
    """Letters jumped over by the sort's moves: entry (x-1)*n + (y-1) counts
    the times a moved x passes a y, so graphical_sorting_index(U, w, tie_rule)
    is the sum of the entries over the pairs of U."""
    profile = [0] * (n * n)
    for j, i, work in _sort_moves(letters, tie_rule):
        row = (work[j] - 1) * n - 1
        for y in work[j + 1 : i + 1]:
            profile[row + y] += 1
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

    The search is exact and memoized over the states the peeling reaches,
    hence the size cap.  A state is one int: the residual multiplicity
    vector laid out by words._packed_residual, with the last letter's label
    (0 before the first) in the free low field.  It keeps its own stack,
    since a chain may be longer than the interpreter's recursion limit.
    """
    _check_same_alphabet(relation, alpha)
    _check_int("max_total", max_total)
    if alpha.total > max_total:
        raise SizeCapExceeded(
            f"class mass {alpha.total} exceeds the chain-search cap {max_total}"
        )
    edges = relation.edges
    present, f, state = _packed_residual(alpha.counts)
    mask, labels = (1 << f) - 1, [0, *present]
    # after[last]: (field, step) per letter x that may follow last, largest
    # first, so the first longest move gives the lexicographically largest
    # chain; placing x takes the residual to residual - step, last x
    after = [
        [(mask << f * x, (1 << f * x) - x) for x in range(len(present), 0, -1)
         if not last or (labels[last], labels[x]) in edges]
        for last in range(len(labels))
    ]
    memo: dict[int, int] = {}
    moves: dict[int, list[int]] = {}

    def settle(start) -> None:
        # a state is settled when it is back on top of the stack: every
        # state it moves to was stacked above it and settled first
        stack = [start]
        while stack:
            state = stack[-1]
            if state in memo:
                stack.pop()
            elif state in moves:
                memo[state] = 1 + max([memo[move] for move in moves[state]], default=-1)
            else:
                last = state & mask
                moves[state] = [
                    state - last - step for field, step in after[last] if state & field
                ]
                stack += moves[state]

    chains: list[list[int]] = []
    while state:
        settle(state)
        chain = []
        while memo[state]:
            length = memo[state] - 1
            state = next(move for move in moves[state] if memo[move] == length)
            chain.append(labels[state & mask])
        state -= state & mask
        chains.append(chain)
    letters = [x for chain in reversed(chains) for x in chain]
    return Word(tuple(letters), alpha)
