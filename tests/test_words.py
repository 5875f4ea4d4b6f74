"""Rearrangement classes: enumeration order, sizes, ranking, parsing."""

import itertools
import math

import pytest

from mahonian import (
    ClassTooLarge,
    InvalidArguments,
    LetterOutOfRange,
    MultiplicityMismatch,
    MultiplicityVector,
    Word,
    class_size,
    infer_alpha,
    make_word,
    parse_letters,
    rearrangement_class,
    rearrangement_class_range,
    render_letters,
    unrank_word,
)


def brute_class(alpha):
    """Every rearrangement, lexicographic, by brute force over permutations."""
    pool = [x for x in range(1, alpha.n + 1) for _ in range(alpha.count_of(x))]
    return sorted(set(itertools.permutations(pool)))


ALPHAS = [
    (1, 1, 1),
    (2, 2),
    (1, 2, 1),
    (3, 1),
    (0, 2, 1),
    (4,),
    (1, 1, 1, 1),
]


@pytest.mark.parametrize("counts", ALPHAS)
def test_enumeration_is_lexicographic_and_complete(counts):
    alpha = MultiplicityVector(counts)
    got = [w.letters for w in rearrangement_class(alpha)]
    assert got == brute_class(alpha)


@pytest.mark.parametrize("counts", ALPHAS)
def test_class_size_matches_enumeration(counts):
    alpha = MultiplicityVector(counts)
    assert class_size(alpha) == len(brute_class(alpha))


def test_class_size_formula():
    alpha = MultiplicityVector((2, 1, 1, 3, 1))
    expected = math.factorial(8) // (2 * 1 * 1 * 6 * 1)
    assert class_size(alpha) == expected == 3360


def test_words_carry_their_class():
    alpha = MultiplicityVector((1, 2))
    for word in rearrangement_class(alpha):
        assert word.alpha == alpha
        assert len(word) == 3


@pytest.mark.parametrize("counts", [(1, 2, 1), (2, 2), (0, 3, 1)])
def test_unrank_agrees_with_enumeration(counts):
    alpha = MultiplicityVector(counts)
    words = list(rearrangement_class(alpha))
    for index, word in enumerate(words):
        assert unrank_word(alpha, index).letters == word.letters


def test_unrank_rejects_out_of_range():
    alpha = MultiplicityVector((1, 1))
    with pytest.raises(InvalidArguments):
        unrank_word(alpha, 2)
    with pytest.raises(InvalidArguments):
        unrank_word(alpha, -1)


def test_range_is_a_slice_of_the_enumeration():
    alpha = MultiplicityVector((1, 2, 1))
    full = [w.letters for w in rearrangement_class(alpha)]
    assert [w.letters for w in rearrangement_class_range(alpha, 3, 7)] == full[3:7]
    assert [w.letters for w in rearrangement_class_range(alpha, 0, 12)] == full
    assert list(rearrangement_class_range(alpha, 5, 5)) == []


def test_class_cap_is_enforced_up_front():
    alpha = MultiplicityVector((2, 2))  # 6 words
    with pytest.raises(ClassTooLarge):
        next(rearrangement_class(alpha, max_class=5))
    assert len(list(rearrangement_class(alpha, max_class=6))) == 6
    assert len(list(rearrangement_class(alpha, max_class=None))) == 6


def test_make_word_validates_letters_and_counts():
    alpha = MultiplicityVector((2, 1))
    word = make_word([1, 2, 1], alpha)
    assert isinstance(word, Word)
    assert word.letters == (1, 2, 1)
    with pytest.raises(LetterOutOfRange):
        make_word([1, 3, 1], alpha)
    with pytest.raises(LetterOutOfRange):
        make_word([0, 1, 2], alpha)
    with pytest.raises(LetterOutOfRange):
        make_word([True, 2, 1], alpha)
    with pytest.raises(MultiplicityMismatch):
        make_word([1, 1, 1], alpha)
    with pytest.raises(MultiplicityMismatch):
        make_word([1, 2], alpha)


def test_multiplicity_vector_basics():
    alpha = MultiplicityVector.parse("2,1,1,3,1")
    assert alpha.counts == (2, 1, 1, 3, 1)
    assert alpha.n == 5
    assert alpha.total == 8
    assert alpha.count_of(4) == 3
    assert alpha.render() == "2,1,1,3,1"
    assert MultiplicityVector.parse(alpha.render()) == alpha


def test_multiplicity_vector_rejects_bad_input():
    with pytest.raises(InvalidArguments):
        MultiplicityVector(())
    with pytest.raises(InvalidArguments):
        MultiplicityVector((1, -1))
    with pytest.raises(InvalidArguments):
        MultiplicityVector((True, 2))
    with pytest.raises(InvalidArguments):
        MultiplicityVector.parse("1,x")
    with pytest.raises(LetterOutOfRange):
        MultiplicityVector((1, 1)).count_of(3)


def test_parse_letters_contiguous_and_spaced():
    assert parse_letters("143123123") == (1, 4, 3, 1, 2, 3, 1, 2, 3)
    assert parse_letters("10 4 10", n=10) == (10, 4, 10)
    assert parse_letters("  2 1 2 ") == (2, 1, 2)
    assert parse_letters("") == ()


def test_parse_letters_rejects_ambiguous_or_junk():
    # one digit per letter cannot express letters past 9
    with pytest.raises(InvalidArguments):
        parse_letters("1234", n=10)
    with pytest.raises(InvalidArguments):
        parse_letters("12a3")
    with pytest.raises(InvalidArguments):
        parse_letters("1 2 x")


def test_render_letters_round_trips():
    assert render_letters((1, 4, 3), 4) == "143"
    assert render_letters((10, 4, 10), 10) == "10 4 10"
    for letters, n in [((1, 4, 3), 4), ((10, 4, 10), 10)]:
        assert parse_letters(render_letters(letters, n), n) == letters


def test_infer_alpha():
    assert infer_alpha((1, 4, 3, 1, 2, 3, 1, 2, 3)).counts == (3, 2, 3, 1)
    assert infer_alpha((1, 1), n=3).counts == (2, 0, 0)
    assert infer_alpha(()).counts == (0,)
    with pytest.raises(LetterOutOfRange):
        infer_alpha((1, 4), n=3)
