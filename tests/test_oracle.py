"""Brute-force distributions and the exhaustive relation sweeps."""

import itertools
import time
from collections import Counter
from functools import partial

import pytest

import mahonian.oracle as oracle

from mahonian import (
    AlphabetMismatch,
    ClassTooLarge,
    InvalidArguments,
    MultiplicityVector,
    QPolynomial,
    Relation,
    STAT_IDS,
    TIE_COPY_LABEL_MAX,
    TIE_LEFTMOST,
    TIE_RIGHTMOST,
    TIE_RULES,
    UniverseTooLarge,
    distribution,
    equidistributed,
    graphical_inversions,
    graphical_major_index,
    graphical_sorting_index,
    is_essentially_bipartitional,
    natural_order,
    q_multinomial,
    rearrangement_class,
    relation_from_mask,
    relation_to_mask,
    relation_universe,
    satisfies_sorting_conditions,
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


def test_distribution_respects_the_class_cap():
    with pytest.raises(ClassTooLarge):
        distribution("inv", MultiplicityVector((2, 2)), max_class=5)


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


def test_equidistribution_examples():
    assert equidistributed(["inv", "maj"], MultiplicityVector((1, 2, 1)))
    symmetric = Relation.from_pairs(2, [(1, 2), (2, 1)])
    assert not equidistributed(
        ["inv-graphical", "maj-graphical"], MultiplicityVector((2, 2)), symmetric
    )
    with pytest.raises(InvalidArguments):
        equidistributed([], MultiplicityVector((1, 1)))


def test_relation_mask_round_trip():
    for n in (1, 2, 3):
        for mask in range(1 << (n * n)):
            assert relation_to_mask(relation_from_mask(n, mask)) == mask
    # bit layout: bit (x-1)*n + (y-1) carries the pair (x, y)
    assert relation_from_mask(2, 0b0100).edges == frozenset({(2, 1)})


def test_relation_universe_size_and_cap():
    assert len(list(relation_universe(2))) == 16
    with pytest.raises(UniverseTooLarge):
        list(relation_universe(4))
    # the cap fails at the call, not at the first next()
    with pytest.raises(UniverseTooLarge):
        relation_universe(9)
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
def test_sweeps_make_one_reconstruction_per_relation(monkeypatch, verify):
    import mahonian.relations as relations_module

    calls = []
    real = relations_module.to_ordered_bipartition

    def counted(relation):
        calls.append(relation)
        return real(relation)

    monkeypatch.setattr(relations_module, "to_ordered_bipartition", counted)
    assert verify(2, MultiplicityVector((2, 1))).relation_count == 16
    assert len(calls) == 16


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


def test_jobs_below_one_are_rejected():
    alpha = MultiplicityVector((1, 1))
    for jobs in (0, -3):
        with pytest.raises(InvalidArguments):
            verify_theorem1(2, alpha, jobs=jobs)
        with pytest.raises(InvalidArguments):
            verify_theorem2(2, alpha, jobs=jobs)
        with pytest.raises(InvalidArguments):
            distribution("inv", alpha, jobs=jobs)


def test_worker_count_is_clamped(monkeypatch):
    """Workers never outnumber the CPUs or the shards; a serial stand-in for
    the process pool records what was asked of it."""
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

    monkeypatch.setattr(oracle, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: 4)
    alpha = MultiplicityVector((2, 1))
    serial = verify_theorem2(2, alpha, tie_rule=TIE_LEFTMOST)
    assert started == []
    for jobs, workers in ((10**9, 4), (3, 3)):
        started.clear()
        report = verify_theorem2(2, alpha, tie_rule=TIE_LEFTMOST, jobs=jobs)
        assert started == [workers]
        assert report.disagreements == serial.disagreements
    # three words make at most three shards
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
