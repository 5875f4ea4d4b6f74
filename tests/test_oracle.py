"""Brute-force distributions and the exhaustive relation sweeps."""

import concurrent.futures
import itertools
import math
import struct
import sys
import time
import tracemalloc
from collections import Counter
from functools import partial

import pytest

import mahonian.oracle as oracle
from mahonian.statistics import _inversion_profile, _major_profile, _sorting_profile

from mahonian import (
    AlphabetMismatch,
    ClassTooLarge,
    InvalidArguments,
    MultiplicityVector,
    OrderedBipartition,
    QPolynomial,
    Relation,
    STAT_IDS,
    TIE_COPY_LABEL_MAX,
    TIE_LEFTMOST,
    TIE_RIGHTMOST,
    TIE_RULES,
    UniverseTooLarge,
    class_size,
    complement,
    distribution,
    equidistributed,
    from_ordered_bipartition,
    gf_bipartitional,
    gf_sorting,
    graphical_inversions,
    graphical_major_index,
    graphical_sorting_index,
    is_bipartitional,
    is_essentially_bipartitional,
    natural_order,
    q_multinomial,
    rearrangement_class,
    relation_from_mask,
    relation_to_mask,
    relation_universe,
    satisfies_sorting_conditions,
    to_ordered_bipartition,
    verify_theorem1,
    verify_theorem2,
)


def test_distribution_of_classical_inversions():
    assert distribution("inv", MultiplicityVector((1, 1, 1))) == QPolynomial(
        (1, 2, 2, 1)
    )


def test_distribution_of_graphical_major_index():
    u = Relation.from_pairs(2, [(2, 1), (2, 2)])
    assert distribution(
        "maj-graphical", MultiplicityVector((1, 2)), u
    ) == QPolynomial((0, 1, 1, 1))


def test_distribution_on_a_singleton_class():
    assert distribution("inv", MultiplicityVector((0, 3))) == 1


def test_classical_ids_always_use_the_natural_order():
    alpha = MultiplicityVector((1, 1, 1))
    assert distribution("inv", alpha) == q_multinomial(alpha.counts)
    assert distribution("maj", alpha) == q_multinomial(alpha.counts)
    assert distribution("sor", alpha) == q_multinomial(alpha.counts)
    # a relation argument changes nothing for the classical ids
    scrambled = Relation.from_pairs(3, [(1, 2), (2, 3)])
    assert distribution("inv", alpha, scrambled) == q_multinomial(alpha.counts)


def test_graphical_ids_require_a_matching_relation():
    alpha = MultiplicityVector((1, 1))
    with pytest.raises(InvalidArguments):
        distribution("inv-graphical", alpha)
    with pytest.raises(AlphabetMismatch):
        distribution("inv-graphical", alpha, natural_order(3))
    with pytest.raises(InvalidArguments):
        distribution("descents", alpha)


def test_classical_ids_reject_a_relation_on_another_alphabet():
    """The relation a classical id is given goes unused, but one on another
    alphabet is an input error, as for the graphical ids."""
    with pytest.raises(AlphabetMismatch):
        distribution("maj", MultiplicityVector((1, 1, 1)), Relation.from_pairs(2, [(2, 1)]))


def test_sorting_distribution_checks_the_tie_rule():
    # the tie rule is checked once per call, before any word is sorted
    with pytest.raises(InvalidArguments):
        distribution("sor", MultiplicityVector((1, 1)), tie_rule="nearest")


def test_tie_rule_is_checked_before_any_work(pool_starts):
    """Every distribution checks the rule, whatever the statistic, and the
    Theorem 2 sweep checks it before it builds a profile or starts a pool."""
    alpha = MultiplicityVector((1, 1, 2))
    for stat in ("inv", "maj"):
        with pytest.raises(InvalidArguments):
            distribution(stat, alpha, tie_rule="bogus")
    with pytest.raises(InvalidArguments):
        verify_theorem2(3, alpha, tie_rule="bogus", jobs=2)
    assert pool_starts == []


def test_distribution_respects_the_class_cap():
    with pytest.raises(ClassTooLarge):
        distribution("inv", MultiplicityVector((2, 2)), max_class=5)


@pytest.mark.parametrize("cap", [2.5, True], ids=["float", "bool"])
def test_class_cap_must_be_an_integer(cap):
    """A float or bool cap is neither compared with the class size nor
    reported as "cap is True"; None still lifts the cap."""
    alpha = MultiplicityVector((1, 1))
    with pytest.raises(InvalidArguments, match="max_class must be an integer"):
        distribution("inv", alpha, max_class=cap)
    with pytest.raises(InvalidArguments, match="max_class must be an integer"):
        verify_theorem1(2, alpha, max_class=cap)
    assert distribution("inv", alpha, max_class=None)(1) == 2


@pytest.fixture
def pool_starts(monkeypatch):
    """A serial stand-in for the process pool on a 4-CPU machine; the list
    records the worker count of every pool started."""
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, batches):
            return map(fn, batches)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: 4)
    return started


@pytest.fixture
def counted_calls(monkeypatch):
    """Names of the per-word kernels, sorts and class enumerators called,
    in call order, wherever oracle.py could reach them."""
    import mahonian.statistics as statistics_module
    import mahonian.words as words_module

    calls = []

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module, names in (
        (words_module, ["rearrangement_class_range", "unrank_word", "_next_permutation"]),
        (oracle, ["rearrangement_class"]),
        (statistics_module, [
            "graphical_inversions", "graphical_major_index",
            "graphical_sorting_index", "_sort_moves",
        ]),
    ):
        for name in names:
            counted(module, name)
    return calls


@pytest.mark.parametrize("stat", ["inv", "maj", "inv-graphical", "maj-graphical"])
def test_inv_maj_distributions_visit_no_word(counted_calls, pool_starts, stat):
    """The DP calls no per-word kernel, enumerates no word and starts no
    pool, however many jobs are asked for; the class cap still applies."""
    alpha = MultiplicityVector((2, 1, 2))
    u = Relation.from_pairs(3, [(2, 1), (3, 1), (1, 3), (2, 2)])
    got = distribution(stat, alpha, u, jobs=10**9)
    assert counted_calls == [] and pool_starts == []
    assert got(1) == 30
    with pytest.raises(ClassTooLarge):
        distribution(stat, MultiplicityVector((2, 2)), u, max_class=5)


@pytest.mark.parametrize(
    "rule, counts",
    [(TIE_RIGHTMOST, (2, 1, 2)), (TIE_LEFTMOST, (2, 1, 2)), (TIE_COPY_LABEL_MAX, (1, 1, 1, 1))],
    ids=["rightmost", "leftmost", "copy-label-max-permutations"],
)
def test_sor_distributions_visit_no_word(counted_calls, pool_starts, rule, counts):
    """Undoing the sort sorts no word, enumerates none and starts no pool,
    however many jobs are asked for; the class cap still applies."""
    alpha = MultiplicityVector(counts)
    n = alpha.n
    u = Relation.from_pairs(n, [(2, 1), (n, 1), (1, n), (2, 2)])
    got = distribution("sor-graphical", alpha, u, tie_rule=rule, jobs=10**9)
    assert counted_calls == [] and pool_starts == []
    assert got(1) == class_size(alpha)
    with pytest.raises(ClassTooLarge):
        distribution("sor", MultiplicityVector((2, 2)), tie_rule=rule, max_class=5)


def test_inv_maj_distributions_of_a_large_class():
    """(3,3,3,3,3) has 168,168,000 words, far past the default cap; without
    the cap the DP still gives the closed form within a second."""
    alpha = MultiplicityVector((3,) * 5)
    bp = OrderedBipartition(({5, 2}, {3}, {1, 4}), (1, 0, 1))
    u = from_ordered_bipartition(bp)
    closed = gf_bipartitional(alpha, bp)
    assert closed(1) == 168_168_000
    for stat in ("inv-graphical", "maj-graphical"):
        start = time.perf_counter()
        got = distribution(stat, alpha, u, max_class=None)
        elapsed = time.perf_counter() - start
        assert got == closed, stat
        assert elapsed < 1, f"{stat} took {elapsed:.2f}s of its 1s budget"


def test_inv_maj_distributions_of_a_long_word():
    """The one word of (600) under the loop has an inversion at each of its
    179,700 pairs of positions and a descent at each position.  Its class
    has one word, so the packed polynomial has 1-bit lanes, and reading its
    179,701 lanes off the bit string in one pass stays within a second."""
    alpha = MultiplicityVector((600,))
    u = Relation.from_pairs(1, [(1, 1)])
    for stat in ("inv-graphical", "maj-graphical"):
        start = time.perf_counter()
        got = distribution(stat, alpha, u)
        elapsed = time.perf_counter() - start
        assert got == QPolynomial.monomial(179_700), stat
        assert elapsed < 1, f"{stat} took {elapsed:.2f}s of its 1s budget"


def test_sor_distribution_of_a_large_class():
    """(3,3,3,3) has 369,600 words, past the default cap; undoing the sort
    gives the closed form of the natural order within two seconds.
    (5,5,5,5) has about 1.17e10 words, out of reach of any route that
    visits a word; the merged prefixes give the closed form, the
    q-multinomial, within a second under each of rightmost and leftmost."""
    alpha = MultiplicityVector((3,) * 4)
    closed = gf_sorting(alpha, to_ordered_bipartition(natural_order(4)))
    start = time.perf_counter()
    got = distribution("sor", alpha, tie_rule=TIE_RIGHTMOST, max_class=None)
    elapsed = time.perf_counter() - start
    assert got == closed and closed(1) == 369_600
    assert elapsed < 2, f"took {elapsed:.2f}s of its 2s budget"
    alpha = MultiplicityVector((5,) * 4)
    closed = gf_sorting(alpha, to_ordered_bipartition(natural_order(4)))
    assert closed == q_multinomial(alpha.counts) and closed(1) == class_size(alpha)
    for rule in (TIE_RIGHTMOST, TIE_LEFTMOST):
        start = time.perf_counter()
        got = distribution("sor", alpha, tie_rule=rule, max_class=None)
        elapsed = time.perf_counter() - start
        assert got == closed, rule
        assert elapsed < 1, f"{rule} took {elapsed:.2f}s of its 1s budget"


def test_copy_label_max_runs_keep_memory_flat():
    """(3,3,2,2) has 25,200 words, seven runs of the prefix DP: the
    copy-label-max distribution equals the class sorted word by word, and
    its traced peak stays below 2 MB, which one run over the whole class
    would pass."""
    alpha = MultiplicityVector((3, 3, 2, 2))
    u = natural_order(4)
    values = Counter(
        graphical_sorting_index(u, w, TIE_COPY_LABEL_MAX) for w in rearrangement_class(alpha)
    )
    expected = QPolynomial([values[k] for k in range(max(values) + 1)])
    tracemalloc.start()
    try:
        got = distribution("sor", alpha, tie_rule=TIE_COPY_LABEL_MAX)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == expected
    assert peak < 2 * 2**20, f"traced peak {peak / 2**20:.2f} MB of its 2 MB budget"


def test_copy_label_max_blocks_and_runs_cut_anywhere(monkeypatch):
    """With runs of three joins, the placements of the top letter's copies
    come in blocks of three, each walking the lower words in chunks of one,
    and the polynomial is still the class sorted word by word."""
    monkeypatch.setattr(oracle, "_SORT_RUN", 3)
    u = Relation.from_pairs(3, [(3, 1), (3, 3), (2, 1), (1, 2), (2, 3)])
    for counts in [(2, 2, 2), (1, 0, 3), (2, 1, 2)]:
        alpha = MultiplicityVector(counts)
        values = Counter(
            graphical_sorting_index(u, w, TIE_COPY_LABEL_MAX) for w in rearrangement_class(alpha)
        )
        expected = QPolynomial([values[k] for k in range(max(values) + 1)])
        got = distribution("sor-graphical", alpha, u, tie_rule=TIE_COPY_LABEL_MAX)
        assert got == expected, counts


@pytest.mark.parametrize("jobs", [1, 2])
def test_copy_label_max_walk_builds_one_word_per_shard(monkeypatch, pool_starts, jobs):
    """The copy-label-max worker walks standardized permutations, not Words:
    each shard of the 28 placements of the top letter's copies walks the 90
    words of (2,2,2) from the sorted one and builds no Word, where the class
    has 2,520, and the polynomial is the public kernel summed over it."""
    import mahonian.words as words_module

    alpha = MultiplicityVector((2, 2, 2, 2))
    values = Counter(
        graphical_sorting_index(natural_order(4), w, TIE_COPY_LABEL_MAX)
        for w in rearrangement_class(alpha)
    )
    built = []

    class CountedWord(words_module.Word):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(words_module, "Word", CountedWord)
    got = distribution("sor", alpha, tie_rule=TIE_COPY_LABEL_MAX, jobs=jobs)
    assert got == QPolynomial([values[k] for k in range(max(values) + 1)])
    assert built == [] and pool_starts == ([] if jobs == 1 else [jobs])


def test_copy_label_max_sor_distribution_within_budget():
    """(2,2,2,2,2) has 113,400 words; the prefix DP sorts them within two
    seconds, and two shards give the same polynomial."""
    alpha = MultiplicityVector((2,) * 5)
    start = time.perf_counter()
    got = distribution("sor", alpha, tie_rule=TIE_COPY_LABEL_MAX)
    elapsed = time.perf_counter() - start
    assert got(1) == class_size(alpha) == 113_400
    assert got == distribution("sor", alpha, tie_rule=TIE_COPY_LABEL_MAX, jobs=2)
    assert elapsed < 2, f"took {elapsed:.2f}s of its 2s budget"


def test_sor_distributions_of_a_long_word():
    """The one word of (600) is already sorted.  Under rightmost every step
    moves the last copy onto itself; under leftmost step t moves the first
    copy past the t others, each a loop pair, so the index is 0 + ... + 599.
    Each rule runs within a second, building prefixes up to 599 letters long."""
    alpha = MultiplicityVector((600,))
    u = Relation.from_pairs(1, [(1, 1)])
    expected = {
        TIE_RIGHTMOST: QPolynomial.one(),
        TIE_LEFTMOST: QPolynomial.monomial(179_700),
    }
    for rule, polynomial in expected.items():
        start = time.perf_counter()
        got = distribution("sor-graphical", alpha, u, tie_rule=rule)
        elapsed = time.perf_counter() - start
        assert got == polynomial, rule
        assert elapsed < 1, f"{rule} took {elapsed:.2f}s of its 1s budget"


def test_unsorting_matches_the_sorted_class_under_every_small_relation():
    """The sor distribution equals the class sorted word by word under
    every relation on n <= 2 with counts 0..3, and under all 512 relations
    on five classes of three letters, (1,0,2) with an absent letter, which
    no signature reads, and (2,2,1) and (1,2,2) with two repeated letters:
    under every rule, whether it comes from the merged prefixes or, under
    copy-label-max with a repeated letter, from the placed top copies."""
    classes = [counts for n in (1, 2) for counts in itertools.product(range(4), repeat=n)]
    classes += [(1, 1, 1), (2, 1, 1), (1, 0, 2), (2, 2, 1), (1, 2, 2)]
    for counts in classes:
        alpha = MultiplicityVector(counts)
        words = list(rearrangement_class(alpha))
        for relation, rule in itertools.product(relation_universe(alpha.n), TIE_RULES):
            values = Counter(graphical_sorting_index(relation, w, rule) for w in words)
            expected = QPolynomial([values[k] for k in range(max(values) + 1)])
            got = distribution("sor-graphical", alpha, relation, tie_rule=rule)
            assert got == expected, (counts, relation_to_mask(relation), rule)


def test_transfer_dp_matches_the_scored_class_under_every_small_relation():
    """The inv and maj distributions from the packed-residual DP equal the
    class scored word by word under every relation on n <= 2 with counts
    0..2 (the empty classes (0,) and (0, 0) among them), under all 512
    relations on three classes with n = 3, (2,0,1) relabelling the letter
    after an absent one, and under three relations on (0,)*40 + (2,2,1), one
    with pairs on absent letters."""
    cases = [
        (counts, relation)
        for n in (1, 2)
        for counts in itertools.product(range(3), repeat=n)
        for relation in relation_universe(n)
    ]
    cases += [
        (counts, relation)
        for counts in ((1, 1, 1), (1, 2, 1), (2, 0, 1))
        for relation in relation_universe(3)
    ]
    natural = natural_order(43)
    pairs = [(41, 41), (42, 41), (41, 43), (43, 42), (42, 42), (1, 41), (42, 5)]
    for relation in (natural, complement(natural), Relation.from_pairs(43, pairs)):
        cases.append(((0,) * 40 + (2, 2, 1), relation))
    for counts, relation in cases:
        alpha = MultiplicityVector(counts)
        words = list(rearrangement_class(alpha))
        for stat, kernel in (
            ("inv-graphical", graphical_inversions),
            ("maj-graphical", graphical_major_index),
        ):
            values = Counter(kernel(relation, w) for w in words)
            expected = QPolynomial([values[k] for k in range(max(values) + 1)])
            got = distribution(stat, alpha, relation)
            assert got == expected, (counts, relation_to_mask(relation), stat)


def test_classical_sorting_index_is_mahonian_only_under_rightmost_and_leftmost():
    """Under the natural order the classical sor on a class with repeated
    letters is Mahonian for rightmost and leftmost, but not for the default
    copy-label-max rule; the README says so."""
    alpha = MultiplicityVector((2, 2, 2))
    mahonian = q_multinomial(alpha.counts)
    for rule in (TIE_RIGHTMOST, TIE_LEFTMOST):
        assert distribution("sor", alpha, tie_rule=rule) == mahonian, rule
    assert distribution("sor", alpha, tie_rule=TIE_COPY_LABEL_MAX) != mahonian


def test_sharded_distribution_matches_serial():
    # reference: score every word of the class with the public kernels
    alpha = MultiplicityVector((2, 2, 1))
    u = Relation.from_pairs(3, [(2, 1), (3, 1), (3, 2), (1, 1)])
    for stat in STAT_IDS:
        base = stat.split("-")[0]
        relation = u if stat.endswith("-graphical") else natural_order(3)
        for rule in TIE_RULES if base == "sor" else (TIE_RIGHTMOST,):
            kernel = {
                "inv": graphical_inversions,
                "maj": graphical_major_index,
                "sor": partial(graphical_sorting_index, tie_rule=rule),
            }[base]
            values = Counter(kernel(relation, w) for w in rearrangement_class(alpha))
            expected = QPolynomial([values[k] for k in range(max(values) + 1)])
            for jobs in (1, 2):
                got = distribution(stat, alpha, u, tie_rule=rule, jobs=jobs)
                assert got == expected, (stat, rule, jobs)


@pytest.mark.parametrize("counts", [(1, 1), (2, 1), (3, 1), (6, 1), (7, 1)], ids=str)
def test_lanes_hold_a_whole_class(pool_starts, counts):
    """Classes of 2, 3, 4, 7 and 8 words: a lane of size.bit_length() bits
    holds the class size, which overflows a lane one bit narrower.  Under
    the empty relation every word scores 0, and under the full one every
    word has inv = maj = C(m, 2), so one lane holds the whole class on each
    route: the DP, the undone sort under rightmost and leftmost, and the
    copy-label-max placements in one shard and in two."""
    alpha = MultiplicityVector(counts)
    size = class_size(alpha)
    empty, full = relation_from_mask(2, 0), relation_from_mask(2, 15)
    constant = QPolynomial.monomial(0, size)
    for stat in ("inv-graphical", "maj-graphical"):
        assert distribution(stat, alpha, empty) == constant, stat
        top = QPolynomial.monomial(math.comb(alpha.total, 2), size)
        assert distribution(stat, alpha, full) == top, stat
    for rule in (TIE_RIGHTMOST, TIE_LEFTMOST):
        assert distribution("sor-graphical", alpha, empty, tie_rule=rule) == constant
    for jobs in (1, 2):
        pool_starts.clear()
        got = distribution(
            "sor-graphical", alpha, empty, tie_rule=TIE_COPY_LABEL_MAX, jobs=jobs
        )
        assert got == constant, jobs
        assert pool_starts == ([2] if jobs == 2 and max(counts) > 1 else [])


def test_equidistribution_examples():
    assert equidistributed(["inv", "maj"], MultiplicityVector((1, 2, 1)))
    symmetric = Relation.from_pairs(2, [(1, 2), (2, 1)])
    assert not equidistributed(
        ["inv-graphical", "maj-graphical"], MultiplicityVector((2, 2)), symmetric
    )
    with pytest.raises(InvalidArguments):
        equidistributed([], MultiplicityVector((1, 1)))


def test_equidistribution_refuses_a_bare_string():
    """A string is a sequence of characters, so "inv" would name the
    statistics "i", "n" and "v"; it is refused as a whole."""
    with pytest.raises(InvalidArguments, match="sequence of statistic ids, got 'inv'"):
        equidistributed("inv", MultiplicityVector((1, 1)))
    assert equidistributed(("inv",), MultiplicityVector((1, 1)))


def test_relation_mask_round_trip():
    for n in (1, 2, 3):
        for mask in range(1 << (n * n)):
            assert relation_to_mask(relation_from_mask(n, mask)) == mask
    # bit layout: bit (x-1)*n + (y-1) carries the pair (x, y)
    assert relation_from_mask(2, 0b0100).edges == frozenset({(2, 1)})


@pytest.mark.parametrize(
    "mask",
    [16, -1, 1.5, True],
    ids=["past-the-top", "negative", "float", "bool"],
)
def test_relation_from_mask_rejects_bad_masks(mask):
    """Two letters have masks 0..15 only: a mask past the top is not read as
    the empty relation, nor -1 as the full one, and neither a float nor a
    bool is taken for an integer mask."""
    with pytest.raises(InvalidArguments, match="is not an integer in"):
        relation_from_mask(2, mask)


def test_relation_universe_size_and_cap():
    assert len(list(relation_universe(2))) == 16
    with pytest.raises(UniverseTooLarge):
        list(relation_universe(4))
    # the cap and the alphabet size fail at the call, not at the first next()
    with pytest.raises(UniverseTooLarge):
        relation_universe(9)
    with pytest.raises(InvalidArguments):
        relation_universe(0)
    assert len(list(relation_universe(4, max_alphabet=4))) == 65536


def test_verify_equidistribution_pair_sweep():
    report = verify_theorem1(2, MultiplicityVector((2, 2)))
    assert report.ok
    assert report.relation_count == 16
    assert report.agreement_count == 16
    assert report.disagreements == ()
    assert report.tie_rule is None


def test_verify_triple_sweep_default_rule():
    report = verify_theorem2(2, MultiplicityVector((2, 1)))
    assert report.ok
    assert report.relation_count == 16
    assert report.tie_rule == TIE_COPY_LABEL_MAX


def test_verify_triple_sweep_rightmost_rule():
    report = verify_theorem2(2, MultiplicityVector((2, 1)), tie_rule=TIE_RIGHTMOST)
    assert report.ok


def test_verify_triple_sweep_fails_under_leftmost():
    """The equivalence is rule-sensitive: with the leftmost rule two of the
    16 relations become equidistributed without passing the conditions."""
    report = verify_theorem2(2, MultiplicityVector((2, 1)), tie_rule=TIE_LEFTMOST)
    assert not report.ok
    assert report.agreement_count == 14
    assert len(report.disagreements) == 2
    for d in report.disagreements:
        assert not d.predicate_holds
        assert d.equidistributed_holds
    witnesses = {d.relation.edges for d in report.disagreements}
    assert frozenset({(1, 1), (2, 1)}) in witnesses


@pytest.mark.parametrize("verify", [verify_theorem1, verify_theorem2])
def test_sweeps_build_no_relation_per_swept_mask(monkeypatch, verify):
    """Of the 512 relations swept, only the reported disagreements get a
    Relation: the predicate sets are generated as masks, so nothing is
    reconstructed as a bipartition, and no word builds a relation for its
    profiles."""
    import mahonian.relations as relations_module

    builds, reconstructions = [], []
    real_init = Relation.__post_init__
    real_reconstruct = relations_module.to_ordered_bipartition

    def counted_init(self):
        builds.append(self)
        real_init(self)

    def counted_reconstruct(relation):
        reconstructions.append(relation)
        return real_reconstruct(relation)

    monkeypatch.setattr(Relation, "__post_init__", counted_init)
    monkeypatch.setattr(relations_module, "to_ordered_bipartition", counted_reconstruct)
    report = verify(3, MultiplicityVector((1, 1, 2)))
    assert report.relation_count == 512
    assert reconstructions == []
    assert len(builds) == len(report.disagreements)


def test_verify_sharded_matches_serial():
    serial = verify_theorem2(2, MultiplicityVector((2, 1)), tie_rule=TIE_LEFTMOST)
    sharded = verify_theorem2(
        2, MultiplicityVector((2, 1)), tie_rule=TIE_LEFTMOST, jobs=2
    )
    assert sharded.ok == serial.ok
    assert sharded.disagreements == serial.disagreements


def test_verify_guards():
    with pytest.raises(UniverseTooLarge):
        verify_theorem1(4, MultiplicityVector((1, 1, 1, 1)))
    # True equals alpha.n == 1, but is no alphabet size
    with pytest.raises(InvalidArguments):
        verify_theorem1(True, MultiplicityVector((1,)))
    # the size is checked before it is compared with the class's alphabet
    for n in ("3", True):
        with pytest.raises(InvalidArguments, match="alphabet size must be an integer"):
            verify_theorem1(n, MultiplicityVector((1, 1, 1)))
    with pytest.raises(AlphabetMismatch):
        verify_theorem1(2, MultiplicityVector((1, 1, 1)))
    with pytest.raises(ClassTooLarge):
        verify_theorem1(2, MultiplicityVector((2, 2)), max_class=5)


def test_report_render_and_json():
    report = verify_theorem2(2, MultiplicityVector((2, 1)), tie_rule=TIE_LEFTMOST)
    text = report.render()
    assert "sweep: inv-maj-sor vs sorting-conditions" in text
    assert "alphabet: n=2, class: alpha=(2,1) with 3 words" in text
    assert "tie rule: leftmost" in text
    assert "relations: 16, agreements: 14, disagreements: 2" in text
    assert "disagree: edges=[1 1;2 1] predicate=no equidistributed=yes" in text
    assert text.endswith("result: FAIL")

    data = report.to_json_dict()
    assert data["ok"] is False
    assert data["agreements"] == 14
    assert len(data["disagreements"]) == 2
    assert data["disagreements"][0]["relation"]["n"] == 2

    passing = verify_theorem1(2, MultiplicityVector((2, 2)))
    assert passing.render().endswith("result: PASS")
    assert passing.to_json_dict()["tie_rule"] is None


def slow_sweeps(n, alpha):
    """Disagreements of both theorems by a per-relation route: distribution
    over the class for every statistic, and the public predicates; thm2 is
    keyed by tie rule."""
    found = {"thm1": []} | {rule: [] for rule in TIE_RULES}
    for mask in range(1 << (n * n)):
        relation = relation_from_mask(n, mask)
        inv, maj = (
            distribution(f"{base}-graphical", alpha, relation)
            for base in ("inv", "maj")
        )
        essential = is_essentially_bipartitional(relation, alpha) is not None
        if essential != (inv == maj):
            found["thm1"].append((mask, essential, inv == maj))
        conditions = satisfies_sorting_conditions(relation, alpha)[0]
        for rule in TIE_RULES:
            sor = distribution("sor-graphical", alpha, relation, tie_rule=rule)
            equal = inv == maj == sor
            if conditions != equal:
                found[rule].append((mask, conditions, equal))
    return found


def as_rows(report):
    return [
        (relation_to_mask(d.relation), d.predicate_holds, d.equidistributed_holds)
        for d in report.disagreements
    ]


SWEPT_CLASSES = list(itertools.product(range(3), repeat=2)) + [(1, 1, 2), (2, 2, 2)]


@pytest.mark.parametrize("counts", SWEPT_CLASSES, ids=str)
def test_sweeps_match_the_per_relation_route(counts):
    n, alpha = len(counts), MultiplicityVector(counts)
    expected = slow_sweeps(n, alpha)
    for jobs in (1, 2):
        assert as_rows(verify_theorem1(n, alpha, jobs=jobs)) == expected["thm1"]
        for rule in TIE_RULES:
            report = verify_theorem2(n, alpha, tie_rule=rule, jobs=jobs)
            assert as_rows(report) == expected[rule]


def full_walks(n, alpha):
    """Disagreements of both theorems from every one of the 2^(n*n) masks:
    each word's public profiles summed over the mask's bits, with no moment
    filter and no live/dead split, and the public predicates; thm2 is keyed
    by tie rule."""
    words = [word.letters for word in rearrangement_class(alpha)]
    builders = {"inv": _inversion_profile, "maj": _major_profile} | {
        rule: partial(_sorting_profile, tie_rule=rule) for rule in TIE_RULES
    }
    profiles = {key: [build(n, w) for w in words] for key, build in builders.items()}
    found = {"thm1": []} | {rule: [] for rule in TIE_RULES}
    for mask in range(1 << (n * n)):
        bits = [b for b in range(n * n) if mask >> b & 1]
        histograms = {
            key: Counter(sum(p[b] for b in bits) for p in rows)
            for key, rows in profiles.items()
        }
        relation = relation_from_mask(n, mask)
        inv_maj = histograms["inv"] == histograms["maj"]
        essential = is_essentially_bipartitional(relation, alpha) is not None
        if essential != inv_maj:
            found["thm1"].append((mask, essential, inv_maj))
        conditions = satisfies_sorting_conditions(relation, alpha)[0]
        for rule in TIE_RULES:
            equal = inv_maj and histograms[rule] == histograms["inv"]
            if conditions != equal:
                found[rule].append((mask, conditions, equal))
    return found


ALL_SMALL_CLASSES = [
    counts for n in (1, 2, 3) for counts in itertools.product(range(3), repeat=n)
]


@pytest.mark.parametrize("counts", ALL_SMALL_CLASSES, ids=str)
def test_live_bit_sweeps_match_a_full_walk(counts):
    """Walking only the live bits and expanding each verdict over the dead
    completions gives the full walk's disagreements, zero counts and classes
    with no live bit at all ((1, 0), (0, 0)) included."""
    n, alpha = len(counts), MultiplicityVector(counts)
    expected = full_walks(n, alpha)
    for jobs in (1, 2):
        assert as_rows(verify_theorem1(n, alpha, jobs=jobs)) == expected["thm1"]
        for rule in TIE_RULES:
            report = verify_theorem2(n, alpha, tie_rule=rule, jobs=jobs)
            assert report.relation_count == 1 << (n * n)
            assert as_rows(report) == expected[rule], (rule, jobs)


@pytest.mark.parametrize("counts", [(2, 1), (1, 1, 2)], ids=str)
def test_exact_check_alone_matches_the_per_relation_route(monkeypatch, counts):
    """With a moment form that vanishes everywhere, every mask goes to the
    exact histogram check, and the sweeps still match the per-relation
    route."""
    monkeypatch.setattr(
        oracle,
        "_moment_form",
        lambda stats: [[0] * len(stats[0]) for _ in stats[0]],
    )
    n, alpha = len(counts), MultiplicityVector(counts)
    expected = slow_sweeps(n, alpha)
    assert as_rows(verify_theorem1(n, alpha)) == expected["thm1"]
    for rule in TIE_RULES:
        assert as_rows(verify_theorem2(n, alpha, tie_rule=rule)) == expected[rule]


def captured_sweep(monkeypatch, counts, rule):
    """The job and the rank count that the sweep of the class hands to
    _run_sharded: Theorem 1 when rule is None, else Theorem 2 under it."""
    calls = []
    real = oracle._run_sharded

    def capture(worker, job, count, jobs):
        calls.append((worker, job, count))
        return real(worker, job, count, jobs)

    n, alpha = len(counts), MultiplicityVector(counts)
    with monkeypatch.context() as patched:
        patched.setattr(oracle, "_run_sharded", capture)
        if rule is None:
            verify_theorem1(n, alpha)
        else:
            verify_theorem2(n, alpha, tie_rule=rule)
    [(worker, job, count)] = calls
    assert worker is oracle._sweep_worker
    return job, count


SWEEP_CASES = [
    (counts, rule)
    for counts in [(1, 0), (2, 1), (1, 1, 2), (2, 2, 2)]
    for rule in (None, *TIE_RULES)
]


def live_bits(counts, rule):
    """The class's per-word profiles of each statistic of the sweep
    (Theorem 1 when rule is None), and the bits some profile reads."""
    n, alpha = len(counts), MultiplicityVector(counts)
    builders = [_inversion_profile, _major_profile]
    if rule is not None:
        builders.append(partial(_sorting_profile, tie_rule=rule))
    profiles = [
        [build(n, word.letters) for word in rearrangement_class(alpha)]
        for build in builders
    ]
    live = [b for b in range(n * n) if any(p[b] for rows in profiles for p in rows)]
    return profiles, live


@pytest.mark.parametrize("counts, rule", SWEEP_CASES, ids=str)
def test_sweep_worker_returns_the_equidistributed_live_masks(monkeypatch, counts, rule):
    """Over all Gray ranks of the high walked bits, or over two ranges
    joined, the worker returns exactly the masks of the live bits (those
    some word's profile reads) under which the profile-summed histograms
    agree, each once, whether the low part covers no walked bit, two, or
    all of them.  A Theorem 1 sweep with a live bit is paired: it walks all
    but the last live bit, and the worker's masks with their complements
    within the live bits are the equidistributed ones."""
    profiles, live = live_bits(counts, rule)
    paired = rule is None and bool(live)
    walked = live[:-1] if paired else live
    full = sum(1 << b for b in live)

    def closed(masks):
        return sorted(masks + [mask ^ full for mask in masks] if paired else masks)

    expected = []
    for chosen in itertools.product((0, 1), repeat=len(live)):
        bits = [b for b, bit in zip(live, chosen) if bit]
        first, *rest = (
            Counter(sum(p[b] for b in bits) for p in rows) for rows in profiles
        )
        if all(histogram == first for histogram in rest):
            expected.append(sum(1 << b for b in bits))

    for low in (0, 2, oracle._LOW_BITS):
        monkeypatch.setattr(oracle, "_LOW_BITS", low)
        job, count = captured_sweep(monkeypatch, counts, rule)
        assert job[1] == walked and job[2] == min(low, len(walked))
        assert count == 1 << (len(walked) - job[2])
        whole = oracle._sweep_worker(job + (0, count))
        assert closed(whole) == sorted(expected)
        for cut in (count // 3, count // 2):
            split = oracle._sweep_worker(job + (0, cut)) + oracle._sweep_worker(
                job + (cut, count)
            )
            assert closed(split) == sorted(expected)


def test_only_agreeing_word_totals_pair_the_sweep(monkeypatch):
    """The pairing is read off the profiles: every word's inv and maj
    profiles sum to C(m, 2) over the live bits, so Theorem 1 walks one bit
    fewer than it has live on every class with a live bit; the sorting
    index's totals vary by word, so Theorem 2 walks every live bit."""
    for counts in SWEPT_CLASSES:
        _, live = live_bits(counts, None)
        if live:
            job, _ = captured_sweep(monkeypatch, counts, None)
            assert job[1] == live[:-1], counts
    for counts in [(2, 1), (1, 1, 2)]:
        for rule in TIE_RULES:
            _, live = live_bits(counts, rule)
            job, _ = captured_sweep(monkeypatch, counts, rule)
            assert job[1] == live, (counts, rule)


def test_paired_ranks_split_over_two_workers(monkeypatch, pool_starts):
    """A paired Theorem 1 sweep cut into two shards of its Gray ranks
    reports what the serial sweep reports."""
    monkeypatch.setattr(oracle, "_LOW_BITS", 2)
    for counts in [(1, 1, 2), (2, 2, 2)]:
        n, alpha = len(counts), MultiplicityVector(counts)
        serial = verify_theorem1(n, alpha)
        assert pool_starts == []
        split = verify_theorem1(n, alpha, jobs=2)
        assert pool_starts == [2]
        pool_starts.clear()
        assert split.disagreements == serial.disagreements
        assert split.relation_count == serial.relation_count


def test_sweeps_ship_their_shards_to_worker_processes(monkeypatch):
    """With two low bits, every Theorem 1 and Theorem 2 sweep of (1,1,2)
    and (2,2,2) hands _run_sharded more than one rank, so at jobs=2 a real
    process pool runs the pickled jobs, and the reports are the serial
    ones."""
    monkeypatch.setattr(oracle, "_LOW_BITS", 2)
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: 2)
    ranks, real = [], oracle._run_sharded

    def recorded(worker, job, count, jobs):
        ranks.append(count)
        return real(worker, job, count, jobs)

    monkeypatch.setattr(oracle, "_run_sharded", recorded)

    def report(sweep, n, alpha, jobs):
        payload = sweep(n, alpha, jobs=jobs).to_json_dict()
        del payload["elapsed_seconds"]
        return payload

    for counts in [(1, 1, 2), (2, 2, 2)]:
        n, alpha = len(counts), MultiplicityVector(counts)
        for sweep in (verify_theorem1, verify_theorem2):
            ranks.clear()
            assert report(sweep, n, alpha, 2) == report(sweep, n, alpha, 1)
            assert len(ranks) == 2 and ranks[0] > 1, (counts, sweep.__name__, ranks)


@pytest.mark.parametrize("counts, rule", SWEEP_CASES, ids=str)
def test_exact_check_histograms_match_the_public_kernels(monkeypatch, counts, rule):
    """Under every live mask, each statistic's exact-check values from the
    job's packed columns have the histogram of its public per-word kernel
    over the class under that relation, and count every word once."""
    n, alpha = len(counts), MultiplicityVector(counts)
    kernels = [graphical_inversions, graphical_major_index]
    if rule is not None:
        kernels.append(partial(graphical_sorting_index, tie_rule=rule))
    words = list(rearrangement_class(alpha))
    job, _ = captured_sweep(monkeypatch, counts, rule)
    _, live, _, code, packed, size = job
    assert size == class_size(alpha) and len(packed) == len(kernels)
    for chosen in itertools.product((0, 1), repeat=len(live)):
        bits = [i for i, bit in enumerate(chosen) if bit]
        relation = relation_from_mask(n, sum(1 << live[i] for i in bits))
        for columns, kernel in zip(packed, kernels):
            histogram = Counter(read_lanes(code, sum(columns[i] for i in bits), size))
            assert histogram == Counter(kernel(relation, word) for word in words)
            assert sum(histogram.values()) == class_size(alpha)


def read_lanes(code, total, size):
    """The size lanes of a packed sum, as _sweep_worker reads them back."""
    length = size * struct.calcsize(code)
    return list(memoryview(total.to_bytes(length, sys.byteorder)).cast(code))


LANE_CASES = [
    ([(255, 0, 0), (0, 255, 0)], "B"),
    ([(255, 1, 0), (1, 0, 0)], "H"),
    ([(300, 0, 5), (1, 255, 7)], "H"),
    ([(65535, 0, 2), (1, 7, 0)], "I"),
    ([(2**32 - 1, 3, 0), (0, 2**31, 9)], "I"),
    ([(2**32 - 1, 0, 0), (1, 2**20, 4)], "Q"),
    ([(2**63, 5, 1), (2**63 - 1, 2**40, 0)], "Q"),
]


def test_column_sums_widen_their_lanes_past_a_byte():
    """The packed lanes are the narrowest of 1, 2, 4 and 8 bytes that hold
    the largest word sum of a statistic's columns, one width for every
    statistic, and every mask's sum reads back as the per-word sums."""
    narrow = [(1, 0, 2), (0, 3, 0)]
    for columns, code in LANE_CASES:
        for stats in ([columns], [narrow, columns]):
            top = max(sum(entries) for columns_of in stats for entries in zip(*columns_of))
            got, packed = oracle._packed_columns(stats, 3, top)
            assert got == code
            for columns_of, packed_of in zip(stats, packed):
                for chosen in itertools.product((0, 1), repeat=len(columns_of)):
                    bits = [i for i, bit in enumerate(chosen) if bit]
                    total = sum(packed_of[i] for i in bits)
                    expected = [sum(columns_of[i][w] for i in bits) for w in range(3)]
                    assert read_lanes(code, total, 3) == expected, (columns, bits)
    assert oracle._packed_columns([[], []], 3, 0) == ("B", [[], []])


@pytest.mark.parametrize("rule", [None, TIE_RIGHTMOST], ids=str)
def test_sweep_job_carries_no_predicate_set(monkeypatch, rule):
    """The job each worker receives holds the moment form, the live bits,
    the number of low bits, the lane code, the packed live columns and the
    class size only: no set or dict, so no predicate set or grouping of it
    is pickled into the workers, and no sequence with an entry per word, so
    no column goes to the workers unpacked."""
    counts = (2, 1, 2)
    size = class_size(MultiplicityVector(counts))

    def containers(value):
        if isinstance(value, (set, frozenset, dict)):
            yield type(value)
        elif isinstance(value, (tuple, list)):
            if len(value) == size:
                yield "per-word", type(value)
            for item in value:
                yield from containers(item)

    job, _ = captured_sweep(monkeypatch, counts, rule)
    assert list(containers(job)) == []
    _, live, _, code, packed, job_size = job
    assert (code, job_size) == ("B", size)
    assert all(type(column) is int for columns in packed for column in columns)
    assert [len(columns) for columns in packed] == [len(live)] * len(packed)


def test_jobs_below_one_are_rejected():
    alpha = MultiplicityVector((1, 1))
    for jobs in (0, -3):
        with pytest.raises(InvalidArguments):
            verify_theorem1(2, alpha, jobs=jobs)
        with pytest.raises(InvalidArguments):
            verify_theorem2(2, alpha, jobs=jobs)
        with pytest.raises(InvalidArguments):
            distribution("inv", alpha, jobs=jobs)


@pytest.mark.parametrize("jobs", [1.5, True], ids=["float", "bool"])
def test_jobs_must_be_an_integer(jobs):
    """A float or bool worker count fails at the call, on the sweeps and on
    each distribution route, before any sharding."""
    alpha = MultiplicityVector((2, 1))
    calls = [
        partial(verify_theorem1, 2, alpha),
        partial(verify_theorem2, 2, alpha),
        partial(distribution, "sor", alpha, tie_rule=TIE_COPY_LABEL_MAX),
        partial(distribution, "inv", alpha),
    ]
    for call in calls:
        with pytest.raises(InvalidArguments, match="jobs must be an integer"):
            call(jobs=jobs)


@pytest.mark.parametrize("cap", [2.5, True], ids=["float", "bool"])
def test_alphabet_cap_must_be_an_integer(cap):
    """max_alphabet=True would allow one letter and 2.5 two; both fail."""
    alpha = MultiplicityVector((1,))
    with pytest.raises(InvalidArguments, match="max_alphabet must be an integer"):
        verify_theorem1(1, alpha, max_alphabet=cap)
    with pytest.raises(InvalidArguments, match="max_alphabet must be an integer"):
        relation_universe(1, max_alphabet=cap)


def test_worker_count_is_clamped(monkeypatch, pool_starts):
    """Workers never outnumber the CPUs or the shards.  The sweep shards
    over the Gray ranks of the high live bits, so with the low part forced
    empty the three live bits of (2, 1) give eight ranks."""
    started = pool_starts
    monkeypatch.setattr(oracle, "_LOW_BITS", 0)
    alpha = MultiplicityVector((2, 1))
    serial = verify_theorem2(2, alpha, tie_rule=TIE_LEFTMOST)
    assert started == []
    for jobs, workers in ((10**9, 4), (3, 3)):
        started.clear()
        report = verify_theorem2(2, alpha, tie_rule=TIE_LEFTMOST, jobs=jobs)
        assert started == [workers]
        assert report.disagreements == serial.disagreements
    # three placements of the top letter make at most three shards
    u = Relation.from_pairs(2, [(2, 1), (1, 1)])
    started.clear()
    assert distribution("sor-graphical", alpha, u, jobs=10**9) == distribution(
        "sor-graphical", alpha, u
    )
    assert started == [3]
    # with the CPU count unknown, the work stays in this process
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: None)
    started.clear()
    assert verify_theorem1(2, alpha, jobs=8).ok
    assert started == []


@pytest.mark.parametrize("counts", [(2, 1, 1, 1), (2, 2, 1, 1)], ids=str)
def test_n4_sweeps_pass_with_repeated_letters(counts):
    """Both theorems (the sorting index under the rightmost rule) hold on all
    65,536 relations on four letters for classes mixing free and repeated
    letters."""
    alpha = MultiplicityVector(counts)
    assert verify_theorem1(4, alpha, max_alphabet=4).ok
    assert verify_theorem2(4, alpha, tie_rule=TIE_RIGHTMOST, max_alphabet=4).ok


GENERATED_SET_CLASSES = [
    counts for n in (1, 2, 3) for counts in itertools.product(range(3), repeat=n)
] + [(2, 2, 1, 1)]


@pytest.mark.parametrize("counts", GENERATED_SET_CLASSES, ids=str)
def test_generated_predicate_sets_match_the_predicates(counts):
    """The sweep's generated essential and sorting-condition sets equal the
    public predicates run on every relation."""
    n, alpha = len(counts), MultiplicityVector(counts)
    essential, sorting = set(), set()
    for mask in range(1 << (n * n)):
        relation = relation_from_mask(n, mask)
        if is_essentially_bipartitional(relation, alpha) is not None:
            essential.add(mask)
        if satisfies_sorting_conditions(relation, alpha)[0]:
            sorting.add(mask)
    assert oracle._essential_masks(alpha) == essential
    assert oracle._sorting_masks(alpha) == sorting


def test_bipartitional_masks_are_the_closed_relations():
    """The generator yields each bipartitional relation on n letters once
    (OEIS A004123), and each passes the closure check, which shares no code
    with the generator or with to_ordered_bipartition."""
    for n, count in zip(range(1, 6), (2, 10, 74, 730, 9002)):
        masks = oracle._bipartitional_masks(n)
        assert len(masks) == len(set(masks)) == count
        assert all(is_bipartitional(relation_from_mask(n, m)) for m in masks)


def test_generated_predicate_sets_are_sound_on_five_letters():
    """On five letters, where the full check of every relation is too slow,
    every generated mask passes the public predicate."""
    for counts, size in (((1,) * 5, 384), ((2, 2, 2, 1, 1), 40)):
        alpha = MultiplicityVector(counts)
        masks = oracle._sorting_masks(alpha)
        assert len(masks) == size
        assert all(
            satisfies_sorting_conditions(relation_from_mask(5, m), alpha)[0]
            for m in masks
        )
    alpha = MultiplicityVector((2, 2, 2, 1, 1))
    masks = oracle._essential_masks(alpha)
    assert len(masks) == 15096
    assert all(
        is_essentially_bipartitional(relation_from_mask(5, m), alpha) is not None
        for m in masks
    )


def test_full_n4_sweeps_within_budget():
    """Both theorems over all 65,536 relations on four letters; each sweep
    has a budget of 30s."""
    alpha = MultiplicityVector((1, 1, 1, 1))
    for verify in (verify_theorem1, verify_theorem2):
        start = time.perf_counter()
        report = verify(4, alpha, max_alphabet=4)
        elapsed = time.perf_counter() - start
        assert report.ok
        assert report.relation_count == 65536
        assert elapsed < 30, f"{verify.__name__} took {elapsed:.1f}s of its 30s budget"


def test_full_n5_sweeps_within_budget():
    """Both theorems (the sorting index under the rightmost rule) over all
    2^25 relations on five letters; each sweep has a budget of 30s."""
    alpha = MultiplicityVector((1,) * 5)
    sweeps = (verify_theorem1, partial(verify_theorem2, tie_rule=TIE_RIGHTMOST))
    for verify in sweeps:
        start = time.perf_counter()
        report = verify(5, alpha, max_alphabet=5)
        elapsed = time.perf_counter() - start
        assert report.ok
        assert report.relation_count == 1 << 25
        assert elapsed < 30, f"{verify} took {elapsed:.1f}s of its 30s budget"
