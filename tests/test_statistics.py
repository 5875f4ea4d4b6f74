"""Relation-driven statistics and the selection-sort index."""

import itertools
import random
from collections import Counter

import pytest

from mahonian import (
    AlphabetMismatch,
    InvalidArguments,
    MultiplicityVector,
    Relation,
    SizeCapExceeded,
    TIE_COPY_LABEL_MAX,
    TIE_LEFTMOST,
    TIE_RIGHTMOST,
    TIE_RULES,
    graphical_descent_count,
    graphical_descent_set,
    graphical_inversions,
    graphical_major_index,
    graphical_sorting_index,
    graphical_sorting_trace,
    infer_alpha,
    make_word,
    maximal_chain_word,
    natural_order,
    parse_letters,
    rearrangement_class,
    relation_from_mask,
    replay_trace,
)


def classical_inv(word):
    return sum(
        1
        for i, j in itertools.combinations(range(len(word)), 2)
        if word[i] > word[j]
    )


def classical_maj(word):
    return sum(i + 1 for i in range(len(word) - 1) if word[i] > word[i + 1])


def test_inversions_count_related_pairs():
    u = Relation.from_pairs(2, [(1, 2)])
    assert graphical_inversions(u, (1, 2, 1)) == 1
    assert graphical_inversions(Relation.from_pairs(2, [(2, 1)]), (2, 1, 1)) == 2
    assert graphical_inversions(u, (2, 2)) == 0


def test_descents_and_major_index():
    u = Relation.from_pairs(2, [(2, 1)])
    assert graphical_descent_set(u, (1, 2, 1, 2)) == frozenset({2})
    assert graphical_descent_count(u, (1, 2, 1, 2)) == 1
    assert graphical_major_index(u, (1, 2, 1, 2)) == 2
    # loops make equal neighbours descents
    loops = Relation.from_pairs(2, [(1, 1)])
    assert graphical_descent_set(loops, (1, 1, 2)) == frozenset({1})


def test_statistics_specialize_to_the_classical_ones():
    alpha = MultiplicityVector((1, 1, 1, 1))
    u = natural_order(4)
    for word in rearrangement_class(alpha):
        assert graphical_inversions(u, word) == classical_inv(word.letters)
        assert graphical_major_index(u, word) == classical_maj(word.letters)


def test_sorting_index_on_distinct_letters():
    word = parse_letters("2413576")
    u = natural_order(7)
    for rule in TIE_RULES:
        assert graphical_sorting_index(u, word, tie_rule=rule) == 5


def test_tie_rules_agree_when_letters_are_distinct():
    alpha = MultiplicityVector((1, 1, 1, 1))
    u = natural_order(4)
    for word in rearrangement_class(alpha):
        values = {
            graphical_sorting_index(u, word, tie_rule=rule) for rule in TIE_RULES
        }
        assert len(values) == 1


def test_sorting_index_equidistributed_with_inversions_on_permutations():
    alpha = MultiplicityVector((1, 1, 1, 1))
    u = natural_order(4)
    by_inv = Counter(graphical_inversions(u, w) for w in rearrangement_class(alpha))
    by_sor = Counter(
        graphical_sorting_index(u, w) for w in rearrangement_class(alpha)
    )
    assert by_inv == by_sor


WORD_143123123 = parse_letters("143123123")
EXAMPLE_U = Relation.from_pairs(4, [(4, 3), (3, 3), (3, 1), (2, 3), (1, 1)])


def test_default_rule_walks_the_expected_chain():
    """The copy moved on a tie is the one carrying the largest original
    position; under the natural order this yields a specific word chain."""
    u = natural_order(4)
    trace = graphical_sorting_trace(u, make_word(WORD_143123123, infer_alpha(WORD_143123123)))
    assert trace.tie_rule == TIE_COPY_LABEL_MAX
    states = replay_trace(WORD_143123123, trace)
    distinct = []
    previous = WORD_143123123
    for state in states:
        if state != previous:
            distinct.append(state)
            previous = state
    assert distinct == [
        parse_letters("133123124"),
        parse_letters("123123134"),
        parse_letters("123121334"),
        parse_letters("121123334"),
        parse_letters("111223334"),
    ]
    assert trace.total == 19
    assert [s.contribution for s in trace.steps] == [7, 4, 1, 3, 2, 2, 0, 0, 0]


# Frozen per-rule totals for 143123123; the rules genuinely differ here.
RECONCILED = {
    ("natural", TIE_COPY_LABEL_MAX): (19, [7, 4, 1, 3, 2, 2, 0, 0, 0]),
    ("natural", TIE_LEFTMOST): (18, [7, 4, 3, 0, 2, 2, 0, 0, 0]),
    ("natural", TIE_RIGHTMOST): (19, [7, 2, 4, 4, 0, 2, 0, 0, 0]),
    ("example", TIE_COPY_LABEL_MAX): (10, [3, 4, 1, 2, 0, 0, 0, 0, 0]),
    ("example", TIE_LEFTMOST): (13, [3, 4, 3, 0, 0, 0, 2, 1, 0]),
    ("example", TIE_RIGHTMOST): (8, [3, 1, 2, 2, 0, 0, 0, 0, 0]),
}


@pytest.mark.parametrize("key", sorted(RECONCILED))
def test_sorting_totals_per_rule(key):
    relation_name, rule = key
    u = natural_order(4) if relation_name == "natural" else EXAMPLE_U
    total, contributions = RECONCILED[key]
    trace = graphical_sorting_trace(u, WORD_143123123, tie_rule=rule)
    assert trace.total == total
    assert [s.contribution for s in trace.steps] == contributions
    assert graphical_sorting_index(u, WORD_143123123, tie_rule=rule) == total


def test_trace_postconditions():
    u = EXAMPLE_U
    for rule in TIE_RULES:
        trace = graphical_sorting_trace(u, WORD_143123123, tie_rule=rule)
        m = len(WORD_143123123)
        assert [s.target_position for s in trace.steps] == list(range(m, 0, -1))
        for step in trace.steps:
            assert 1 <= step.mover_position <= step.target_position
        assert trace.final_letters == tuple(sorted(WORD_143123123))
        states = replay_trace(WORD_143123123, trace)
        assert states[-1] == trace.final_letters
        for state in states:
            assert sorted(state) == sorted(WORD_143123123)


def test_moves_between_equal_letters_still_cost():
    # swapping two equal letters changes nothing visibly but the move is real
    u = natural_order(4)
    trace = graphical_sorting_trace(u, WORD_143123123)
    states = replay_trace(WORD_143123123, trace)
    step = trace.steps[4]
    assert step.contribution == 2
    assert states[4] == states[3]
    assert step.mover_position != step.target_position


def test_bad_tie_rule_is_rejected():
    with pytest.raises(InvalidArguments):
        graphical_sorting_index(natural_order(2), (1, 2), tie_rule="nearest")


def test_word_must_fit_the_relation_alphabet():
    with pytest.raises(AlphabetMismatch):
        graphical_inversions(natural_order(2), (1, 3))
    with pytest.raises(AlphabetMismatch):
        graphical_sorting_index(
            natural_order(2), make_word((1, 2, 3), MultiplicityVector((1, 1, 1)))
        )


@pytest.mark.parametrize("letters", [(2.0, 1), (True, 2)], ids=["float", "bool"])
def test_letters_must_be_integers(letters):
    """As in make_word, 2.0 is no letter and True is not read as 1."""
    u = natural_order(2)
    for kernel in (graphical_inversions, graphical_major_index, graphical_sorting_index):
        with pytest.raises(AlphabetMismatch):
            kernel(u, letters)


def test_empty_and_singleton_words():
    u = natural_order(2)
    assert graphical_inversions(u, ()) == 0
    assert graphical_major_index(u, ()) == 0
    assert graphical_sorting_index(u, ()) == 0
    assert graphical_sorting_index(u, (2,)) == 0


def test_maximal_chain_word_examples():
    assert maximal_chain_word(
        natural_order(3), MultiplicityVector((1, 1, 1))
    ).letters == (3, 2, 1)
    assert maximal_chain_word(
        Relation.from_pairs(2, [(2, 1)]), MultiplicityVector((2, 1))
    ).letters == (1, 2, 1)
    assert maximal_chain_word(
        Relation(2, frozenset()), MultiplicityVector((2, 2))
    ).letters == (1, 1, 2, 2)


def test_maximal_chain_word_dominates_inversions():
    # its major index bounds every word's inversion count in the class
    alpha = MultiplicityVector((2, 1))
    for mask in range(1 << 4):
        u = relation_from_mask(2, mask)
        chain_word = maximal_chain_word(u, alpha)
        peak = max(
            graphical_inversions(u, w) for w in rearrangement_class(alpha)
        )
        assert graphical_major_index(u, chain_word) >= peak


def test_maximal_chain_word_outgrows_the_recursion_limit():
    """The search keeps its own stack, so a chain longer than the default
    recursion limit of 1,000 frames is found whole."""
    word = maximal_chain_word(
        Relation(1, {(1, 1)}), MultiplicityVector((1100,)), max_total=1100
    )
    assert word.letters == (1,) * 1100


def test_maximal_chain_word_size_cap():
    alpha = MultiplicityVector((7, 6))
    with pytest.raises(SizeCapExceeded):
        maximal_chain_word(natural_order(2), alpha)
    word = maximal_chain_word(natural_order(2), alpha, max_total=13)
    assert len(word) == 13


@pytest.mark.parametrize("cap", [2.5, True], ids=["float", "bool"])
def test_maximal_chain_word_cap_must_be_an_integer(cap):
    with pytest.raises(InvalidArguments, match="max_total must be an integer"):
        maximal_chain_word(natural_order(2), MultiplicityVector((1, 1)), max_total=cap)


def reference_chain_word(relation, alpha):
    """The chain search over (residual multiplicity vector, last letter)
    tuple states, with the same move order and explicit stack, as a slow
    reference for the packed search."""
    edges, n = relation.edges, alpha.n
    memo, moves = {}, {}

    def settle(start):
        stack = [start]
        while stack:
            state = stack[-1]
            if state in memo:
                stack.pop()
            elif state in moves:
                memo[state] = 1 + max([memo[move] for move in moves[state]], default=-1)
            else:
                counts, last = state
                moves[state] = [
                    (counts[: x - 1] + (counts[x - 1] - 1,) + counts[x:], x)
                    for x in range(n, 0, -1)
                    if counts[x - 1] and (last == 0 or (last, x) in edges)
                ]
                stack += moves[state]

    counts = alpha.counts
    chains = []
    while sum(counts) > 0:
        state = (counts, 0)
        settle(state)
        chain = []
        while memo[state]:
            length = memo[state] - 1
            state = next(move for move in moves[state] if memo[move] == length)
            chain.append(state[1])
        counts = state[0]
        chains.append(chain)
    return tuple(x for chain in reversed(chains) for x in chain)


def test_maximal_chain_word_matches_the_tuple_state_search():
    """The packed-state search gives the reference's word under all 512
    relations on (2,1,2), and under 150 seeded relations on each of
    (3,2,3,2), (2,2,1,1) and (2,0,1,2), whose absent letter is relabelled."""
    cases = [((2, 1, 2), mask) for mask in range(1 << 9)]
    rng = random.Random(17)
    for counts in ((3, 2, 3, 2), (2, 2, 1, 1), (2, 0, 1, 2)):
        cases += [(counts, rng.randrange(1 << 16)) for _ in range(150)]
    for counts, mask in cases:
        alpha = MultiplicityVector(counts)
        relation = relation_from_mask(alpha.n, mask)
        got = maximal_chain_word(relation, alpha).letters
        assert got == reference_chain_word(relation, alpha), (counts, mask)
