"""q-polynomials, q-analogues, and the class generating functions."""

import itertools
import math
from collections import Counter

import pytest

from mahonian import (
    ConditionsNotSatisfied,
    InvalidArguments,
    InvalidBipartition,
    MultiplicityVector,
    OrderedBipartition,
    QPolynomial,
    Relation,
    box_partition_counts,
    from_ordered_bipartition,
    gf_bipartitional,
    gf_sorting,
    graphical_inversions,
    multinomial,
    q_binomial,
    q_multinomial,
    rearrangement_class,
)


def brute_inv_distribution(counts):
    """Histogram of the classical inversion number over the class."""
    pool = [x for x in range(1, len(counts) + 1) for _ in range(counts[x - 1])]
    histogram = Counter()
    for word in set(itertools.permutations(pool)):
        histogram[
            sum(
                1
                for i, j in itertools.combinations(range(len(word)), 2)
                if word[i] > word[j]
            )
        ] += 1
    return histogram


def brute_box_partitions(j, k):
    """Histogram by size of partitions with at most k parts, each at most j."""
    histogram = Counter()
    for parts in itertools.product(range(j + 1), repeat=k):
        if all(parts[i] >= parts[i + 1] for i in range(k - 1)):
            histogram[sum(parts)] += 1
    return histogram


def poly_of(histogram):
    coeffs = [0] * (max(histogram, default=0) + 1)
    for value, count in histogram.items():
        coeffs[value] = count
    return QPolynomial(coeffs)


def test_polynomial_normalization_and_equality():
    assert QPolynomial((1, 0, 0)) == QPolynomial((1,))
    assert QPolynomial(()) == QPolynomial.zero() == 0
    assert QPolynomial((5,)) == 5
    assert QPolynomial((1, 1)) != 2
    assert QPolynomial.one() == 1
    assert QPolynomial.monomial(3, 2) == QPolynomial((0, 0, 0, 2))
    with pytest.raises(InvalidArguments):
        QPolynomial((1, -1))
    for coeffs in ([True], [1, 0.0]):
        with pytest.raises(InvalidArguments):
            QPolynomial(coeffs)
    for power in (1.0, True, -1):
        with pytest.raises(InvalidArguments):
            QPolynomial.monomial(power)


def test_polynomial_arithmetic():
    p = QPolynomial((1, 2))
    q = QPolynomial((0, 1, 3))
    assert p + q == QPolynomial((1, 3, 3))
    assert p * q == QPolynomial((0, 1, 5, 6))
    assert p * 3 == 3 * p == QPolynomial((3, 6))
    assert p * QPolynomial.zero() == 0
    assert p(1) == 3 and p(2) == 5 and QPolynomial.zero()(7) == 0
    assert p.degree == 1 and QPolynomial.zero().degree == -1


def test_polynomial_render():
    assert QPolynomial((1, 2, 2, 1)).render() == "1 + 2*q + 2*q^2 + q^3"
    assert QPolynomial((0, 1, 0, 4)).render() == "q + 4*q^3"
    assert QPolynomial.zero().render() == "0"
    assert QPolynomial((7,)).render() == "7"


def test_polynomial_json_round_trip():
    p = QPolynomial((1, 0, 3))
    assert p.to_json_dict() == {"coeffs": [1, 0, 3]}
    assert QPolynomial.from_json_dict(p.to_json_dict()) == p
    with pytest.raises(InvalidArguments):
        QPolynomial.from_json_dict({"coeffs": "nope"})
    with pytest.raises(InvalidArguments):
        QPolynomial.from_json_dict({"coeffs": [1.9]})


def test_q_binomial_small_values():
    assert q_binomial(4, 2) == QPolynomial((1, 1, 2, 1, 1))
    assert q_binomial(3, 1) == QPolynomial((1, 1, 1))
    assert q_binomial(5, 0) == 1
    assert q_binomial(5, 5) == 1
    for n, k in ((2, 3), (2.0, 1), (2, 1.0), (True, 1)):
        with pytest.raises(InvalidArguments):
            q_binomial(n, k)


def test_q_binomial_counts_box_partitions():
    for j in range(7):
        for k in range(7):
            expected = poly_of(brute_box_partitions(j, k))
            assert q_binomial(j + k, k) == expected
            assert box_partition_counts(j, k) == expected


def test_q_binomial_symmetry_and_counting():
    for n in range(9):
        for k in range(n + 1):
            p = q_binomial(n, k)
            assert p == q_binomial(n, n - k)
            assert p(1) == math.comb(n, k)
            assert p.coeffs == p.coeffs[::-1]  # palindromic


@pytest.mark.parametrize("counts", [(1, 1, 1), (2, 2), (1, 2, 1), (3, 2)])
def test_q_multinomial_is_the_inversion_generating_function(counts):
    assert q_multinomial(counts) == poly_of(brute_inv_distribution(counts))


def test_q_multinomial_degree_and_total():
    counts = (2, 1, 3)
    p = q_multinomial(counts)
    pairs = sum(a * b for a, b in itertools.combinations(counts, 2))
    assert p.degree == pairs
    assert p(1) == multinomial(counts) == math.factorial(6) // (2 * 6)


def test_multinomial_rejects_negative_parts():
    # and non-integer ones: True would be read as 1
    for parts in ((2, -1), (1.5,), (True, 1)):
        with pytest.raises(InvalidArguments):
            multinomial(parts)
        with pytest.raises(InvalidArguments):
            q_multinomial(parts)
    # 1.5 never reaches 0, so an unchecked recursion would not end
    for j, k in ((-1, 2), (1.5, 1), (1, 1.5), (True, 1)):
        with pytest.raises(InvalidArguments):
            box_partition_counts(j, k)


def enumerated_gf(relation, alpha):
    histogram = Counter(
        graphical_inversions(relation, w) for w in rearrangement_class(alpha)
    )
    return poly_of(histogram)


def test_gf_bipartitional_matches_enumeration():
    alpha = MultiplicityVector((2, 1, 1))
    cases = [
        OrderedBipartition((frozenset({3}), frozenset({2}), frozenset({1})), (0, 0, 0)),
        OrderedBipartition((frozenset({2, 3}), frozenset({1})), (0, 0)),
        OrderedBipartition((frozenset({1, 2, 3}),), (1,)),
        OrderedBipartition((frozenset({2}), frozenset({1, 3})), (1, 1)),
    ]
    for bp in cases:
        u = from_ordered_bipartition(bp)
        assert gf_bipartitional(alpha, bp) == enumerated_gf(u, alpha)


def test_gf_bipartitional_flag_shifts_degree():
    # flagging a block multiplies by q^(internal pairs of its copies)
    alpha = MultiplicityVector((3,))
    plain = OrderedBipartition((frozenset({1}),), (0,))
    flagged = OrderedBipartition((frozenset({1}),), (1,))
    assert gf_bipartitional(alpha, plain) == 1
    assert gf_bipartitional(alpha, flagged) == QPolynomial.monomial(3)


def test_gf_sorting_matches_enumeration_and_counts():
    alpha = MultiplicityVector((2, 1, 1, 3, 1))
    bp = OrderedBipartition(
        (frozenset({4, 5}), frozenset({3}), frozenset({1, 2})), (0, 0, 0)
    )
    p = gf_sorting(alpha, bp)
    masses = (4, 1, 3)
    expected = q_multinomial(masses) * multinomial((1, 3)) * multinomial((2, 1))
    assert p == expected
    assert p(1) == 3360
    assert p == enumerated_gf(from_ordered_bipartition(bp), alpha)


def test_gf_sorting_rejects_failing_blocks():
    alpha = MultiplicityVector((1, 2, 2))
    bp = OrderedBipartition((frozenset({2, 3}), frozenset({1})), (0, 0))
    with pytest.raises(ConditionsNotSatisfied) as err:
        gf_sorting(alpha, bp)
    assert any("condition 4" in reason for reason in err.value.reasons)


def test_gf_sorting_on_singletons_is_the_q_multinomial():
    alpha = MultiplicityVector((2, 1, 2))
    bp = OrderedBipartition(
        (frozenset({3}), frozenset({2}), frozenset({1})), (0, 0, 0)
    )
    assert gf_sorting(alpha, bp) == q_multinomial(alpha.counts)


def test_gf_blocks_must_partition_the_alphabet():
    alpha = MultiplicityVector((1, 1, 1))
    bp = OrderedBipartition((frozenset({1, 2}),), (0,))
    with pytest.raises(InvalidBipartition):
        gf_bipartitional(alpha, bp)
