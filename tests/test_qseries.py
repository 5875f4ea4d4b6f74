"""q-polynomials, q-analogues, and the class generating functions."""

import itertools
import math
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mahonian.qseries as qseries
from mahonian import (
    ConditionsNotSatisfied,
    InvalidArguments,
    InvalidBipartition,
    MultiplicityVector,
    OrderedBipartition,
    QPolynomial,
    Relation,
    SizeCapExceeded,
    TIE_RIGHTMOST,
    box_partition_counts,
    distribution,
    effective_core,
    from_ordered_bipartition,
    gf_bipartitional,
    gf_sorting,
    graphical_inversions,
    is_essentially_bipartitional,
    multinomial,
    q_binomial,
    q_multinomial,
    rearrangement_class,
    relation_from_mask,
    satisfies_sorting_conditions,
    to_ordered_bipartition,
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
    # a bool is not an integer scalar
    assert QPolynomial((1,)).__eq__(True) is NotImplemented
    assert QPolynomial((1,)) != True  # noqa: E712
    for scale in (lambda p: p * True, lambda p: False * p):
        with pytest.raises(InvalidArguments):
            scale(QPolynomial((1, 2)))


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


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 30).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))))
def test_q_binomial_is_symmetric_and_follows_q_pascal(case):
    """The product formula runs over the shorter side only; the q-Pascal
    step from row n - 1 and the box-partition recurrence check it from
    outside."""
    n, k = case
    p = q_binomial(n, k)
    assert p == q_binomial(n, n - k) == box_partition_counts(n - k, k)
    if 0 < k < n:
        assert p == q_binomial(n - 1, k - 1) + QPolynomial.monomial(k) * q_binomial(
            n - 1, k
        )


def test_q_multinomial_of_one_long_block():
    """A single block of mass 600 is the Gaussian binomial [600, 600] = 1,
    which the product formula gives with no factor at all."""
    start = time.perf_counter()
    assert q_multinomial((600,)) == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1, f"took {elapsed:.2f}s of its 1s budget"


def test_box_partition_counts_of_long_thin_boxes():
    """The partition recurrence is filled iteratively, so a box 1,200 long
    on either side needs no deep recursion."""
    line = QPolynomial([1] * 1201)
    assert box_partition_counts(1200, 1) == line == q_binomial(1201, 1)
    assert box_partition_counts(1, 1200) == line


def test_box_partition_counts_area_cap():
    """The area j*k, which the table grows with, is checked before any work:
    one past the cap raises at once on either side, as does (20000, 2),
    whose degree 40,000 the q-series cap admits; a box at the cap is
    computed, and conjugation makes either orientation the same."""
    cap = qseries.MAX_BOX_AREA
    start = time.perf_counter()
    for j, k in ((cap + 1, 1), (1, cap + 1), (20_000, 2)):
        with pytest.raises(SizeCapExceeded, match=str(cap)):
            box_partition_counts(j, k)
    assert time.perf_counter() - start < 0.5
    assert box_partition_counts(cap, 1) == QPolynomial([1] * (cap + 1))
    assert box_partition_counts(3, 5) == box_partition_counts(5, 3) == q_binomial(8, 3)


def test_q_multinomial_degree_cap(monkeypatch):
    """The degree sum_{i<j} p_i p_j is checked before any work: a degree at
    the cap is computed, one above it raises."""
    cap = qseries.MAX_QSERIES_DEGREE
    start = time.perf_counter()
    for call in (
        lambda: q_multinomial((201, 200)),
        lambda: q_multinomial((5000, 5000)),
        lambda: q_binomial(10000, 5000),
        lambda: gf_bipartitional(
            MultiplicityVector((5000, 5000)),
            OrderedBipartition((frozenset({2}), frozenset({1})), (0, 0)),
        ),
        # the underline's shift C(400, 2) alone passes the cap
        lambda: gf_bipartitional(
            MultiplicityVector((400,)), OrderedBipartition((frozenset({1}),), (1,))
        ),
    ):
        with pytest.raises(SizeCapExceeded, match=str(cap)):
            call()
    assert time.perf_counter() - start < 0.5
    monkeypatch.setattr(qseries, "MAX_QSERIES_DEGREE", 6)
    assert q_multinomial((2, 3)) == q_binomial(5, 2)
    assert q_multinomial((1, 1, 1, 1))(1) == 24
    assert q_multinomial((50,)) == 1
    for parts in ((1, 7), (2, 2, 1)):
        with pytest.raises(SizeCapExceeded):
            q_multinomial(parts)


def test_closed_forms_multiply_no_polynomials(monkeypatch):
    """gf_bipartitional and gf_sorting scale by integers and shift by
    leading zeros; no polynomial product runs."""
    products = []
    multiply = QPolynomial.__mul__

    def counting(self, other):
        if isinstance(other, QPolynomial):
            products.append((self, other))
        return multiply(self, other)

    monkeypatch.setattr(QPolynomial, "__mul__", counting)
    monkeypatch.setattr(QPolynomial, "__rmul__", counting)
    alpha = MultiplicityVector((2, 1, 1, 3, 1))
    plain = OrderedBipartition(
        (frozenset({4, 5}), frozenset({3}), frozenset({1, 2})), (0, 0, 0)
    )
    flagged = OrderedBipartition(plain.blocks, (1, 0, 1))
    assert gf_sorting(alpha, plain)(1) == 3360
    assert gf_bipartitional(alpha, flagged) == enumerated_gf(
        from_ordered_bipartition(flagged), alpha
    )
    assert products == []


def test_gaussian_multinomials_within_budget():
    """Four blocks of 50 (degree 15,000) and a flagged two-block class of
    mass 200 each take under a second."""
    start = time.perf_counter()
    p = q_multinomial((50,) * 4)
    elapsed = time.perf_counter() - start
    assert elapsed < 1, f"took {elapsed:.2f}s of its 1s budget"
    assert p.degree == 15_000 and p(1) == multinomial((50,) * 4)
    alpha = MultiplicityVector((40, 60, 100))
    bp = OrderedBipartition((frozenset({1, 2}), frozenset({3})), (1, 1))
    start = time.perf_counter()
    p = gf_bipartitional(alpha, bp)
    elapsed = time.perf_counter() - start
    assert elapsed < 1, f"took {elapsed:.2f}s of its 1s budget"
    shift = 2 * math.comb(100, 2)
    assert p.coeffs[:shift] == (0,) * shift
    assert p.degree == shift + 100 * 100
    assert p(1) == multinomial((100, 100)) * multinomial((40, 60))


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


def test_closed_forms_match_the_distributions_on_every_small_relation():
    """Every relation on each class with n <= 3 and counts 0..2: with an
    essential witness, gf_bipartitional of its bipartition is the inv' and
    maj' distribution; under the sorting conditions, gf_sorting of the
    effective core's bipartition is the sor' distribution (rightmost) and
    the inv' one."""
    witnessed = sorting = 0
    for n in (1, 2, 3):
        for counts in itertools.product(range(3), repeat=n):
            alpha = MultiplicityVector(counts)
            for mask in range(1 << (n * n)):
                relation = relation_from_mask(n, mask)
                witness = is_essentially_bipartitional(relation, alpha)
                sorts = satisfies_sorting_conditions(relation, alpha)[0]
                if witness is None and not sorts:
                    continue
                inv = distribution("inv-graphical", alpha, relation)
                if witness is not None:
                    witnessed += 1
                    gf = gf_bipartitional(alpha, witness.bipartition)
                    maj = distribution("maj-graphical", alpha, relation)
                    assert gf == inv == maj, (counts, mask)
                if sorts:
                    sorting += 1
                    bp = to_ordered_bipartition(effective_core(relation, alpha))
                    sor = distribution(
                        "sor-graphical", alpha, relation, tie_rule=TIE_RIGHTMOST
                    )
                    assert gf_sorting(alpha, bp) == inv == sor, (counts, mask)
    assert (witnessed, sorting) == (2686, 480)


def test_gf_blocks_must_partition_the_alphabet():
    alpha = MultiplicityVector((1, 1, 1))
    bp = OrderedBipartition((frozenset({1, 2}),), (0,))
    with pytest.raises(InvalidBipartition):
        gf_bipartitional(alpha, bp)
