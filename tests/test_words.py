"""Rearrangement classes: enumeration order, sizes and their estimate,
ranking, parsing."""

import itertools
import math

import pytest

from mahonian import (
    ClassTooLarge,
    InvalidArguments,
    LetterOutOfRange,
    MultiplicityMismatch,
    MultiplicityVector,
    OrderedBipartition,
    SizeCapExceeded,
    Word,
    class_size,
    gf_bipartitional,
    infer_alpha,
    make_word,
    parse_letters,
    rearrangement_class,
    rearrangement_class_range,
    render_letters,
    unrank_word,
)
from mahonian.words import _digits_past


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


@pytest.mark.parametrize("index", [0.5, True], ids=["float", "bool"])
def test_unrank_needs_an_integer_index(index):
    """0.5 is not read as the word 12, nor True as index 1."""
    with pytest.raises(InvalidArguments, match="is not an integer in"):
        unrank_word(MultiplicityVector((1, 1)), index)


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


@pytest.mark.parametrize("cap", [2.5, True], ids=["float", "bool"])
def test_class_cap_is_an_integer_or_none(cap):
    with pytest.raises(InvalidArguments, match="max_class must be an integer"):
        next(rearrangement_class(MultiplicityVector((2, 2)), max_class=cap))


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


@pytest.mark.parametrize("letter", [1.0, True], ids=["float", "bool"])
def test_infer_alpha_needs_integer_letters(letter):
    """As in make_word, a float is no letter and True is not read as 1."""
    for n in (None, 2):
        with pytest.raises(LetterOutOfRange, match="is not an integer"):
            infer_alpha([letter], n)


def test_infer_alpha_caps_the_alphabet():
    """Neither one large letter nor an explicit n sizes an alphabet above
    1,000 letters, so no count list is allocated for it; 1,000 is allowed."""
    for letters, n in [([1001], None), ([10**6], None), ([1], 1001)]:
        with pytest.raises(InvalidArguments, match="alphabet size must be an integer"):
            infer_alpha(letters, n)
    assert infer_alpha([1000]).n == 1000


@pytest.mark.parametrize("counts", [(9000, 9000), (5000, 4000, 3000), (40000, 3000), (3000,) * 5])
def test_size_estimate_gives_the_exact_digit_count(counts):
    """Past its bound, the class size's digit count comes from the lgamma
    estimate without the product, or from the product next to the bound."""
    size = class_size(MultiplicityVector(counts))
    digits, exact = _digits_past(counts)
    assert exact and 10 ** (digits - 1) <= size < 10**digits
    assert _digits_past(counts, size - 1) == (digits, True)
    assert _digits_past(counts, size) is None
    assert _digits_past((2, 2), 5) is None  # past the cap, but printable


def test_size_estimate_near_a_power_of_ten_gives_a_lower_bound():
    """log10 of C(200014, 3280) is within the estimate's error of 7266, so
    the estimate proves at least 7266 digits without pinning the count (it
    has 7267), and both refusals say so."""
    counts = (196_734, 3_280)
    assert _digits_past(counts) == (7266, False)
    assert 10**7266 <= math.comb(sum(counts), counts[1])
    with pytest.raises(ClassTooLarge, match="at least a 7266-digit number of words"):
        list(rearrangement_class(MultiplicityVector(counts)))
    with pytest.raises(SizeCapExceeded, match="at least 7266 digits"):
        gf_bipartitional(MultiplicityVector(counts), OrderedBipartition(({1, 2},), (0,)))
