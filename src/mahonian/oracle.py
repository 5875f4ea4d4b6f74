"""Brute-force distributions and exhaustive equidistribution sweeps.

Distributions walk a whole rearrangement class and score every word with
the per-word statistic functions.  The verifiers walk every relation on the
alphabet (all 2^(n*n) bitmasks) and compare two routes: the structural
predicates in relations.py, and whether the statistics are equidistributed
over the class.  These are the ground-truth checks the predicates are
tested against.

verify_theorem1 sweeps the equivalence "inv and maj variants are
equidistributed over the class iff the relation is essentially
bipartitional"; verify_theorem2 adds the sorting index on one side and the
sorting conditions on the other.  Both return a VerificationReport listing
any relation where predicate and enumeration disagree.

A sweep never reruns the per-word statistics per relation.  Every statistic
is a sum over the relation's pairs of a per-word profile (see
statistics.inversion_profile), so the sweep streams the class once, keeps
each distinct profile with its multiplicity, and visits the masks in
Gray-code order: each step flips one pair and moves every value by that
pair's profile entry.

Distributions and sweeps share one sharded path, _run_sharded: the work is
cut into contiguous ranges (of class ranks for a distribution, of Gray-code
ranks for a sweep), one per worker process and at most one per CPU, and a
single range runs in the calling process.  Arguments are validated in the
caller, and a job carries the validated relation and class themselves, not
a description for each worker to rebuild.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import chain
from operator import add, sub
from typing import Iterator, Sequence

from .errors import AlphabetMismatch, InvalidArguments, UniverseTooLarge
from .qseries import QPolynomial
from .relations import (
    Relation,
    _check_same_alphabet,
    is_essentially_bipartitional,
    natural_order,
    relation_to_json_dict,
    satisfies_sorting_conditions,
)
from .statistics import (
    DEFAULT_TIE_RULE,
    graphical_inversions,
    graphical_major_index,
    graphical_sorting_index,
    inversion_profile,
    major_profile,
    sorting_profile,
)
from .words import (
    DEFAULT_MAX_CLASS,
    MultiplicityVector,
    _check_class,
    class_size,
    rearrangement_class,
    rearrangement_class_range,
)

STAT_IDS = ("inv", "maj", "sor", "inv-graphical", "maj-graphical", "sor-graphical")

DEFAULT_MAX_ALPHABET = 3

CHECK_INV_MAJ = "inv-maj vs essentially-bipartitional"
CHECK_INV_MAJ_SOR = "inv-maj-sor vs sorting-conditions"


def _evaluator(stat: str, alpha: MultiplicityVector, relation, tie_rule: str):
    """Map a statistic id to a picklable letters -> value function.

    Classical ids always use the strict natural order on the class's own
    alphabet; the graphical ids require an explicit relation.
    """
    if stat not in STAT_IDS:
        raise InvalidArguments(
            f"unknown statistic {stat!r}, expected one of {STAT_IDS}"
        )
    if stat.endswith("-graphical"):
        if relation is None:
            raise InvalidArguments(f"statistic {stat} needs a relation")
        _check_same_alphabet(relation, alpha)
        base = stat[: -len("-graphical")]
    else:
        base = stat
        relation = natural_order(alpha.n)
    if base == "inv":
        return partial(graphical_inversions, relation)
    if base == "maj":
        return partial(graphical_major_index, relation)
    return partial(graphical_sorting_index, relation, tie_rule=tie_rule)


def _check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise InvalidArguments(f"jobs must be at least 1, got {jobs}")


def _run_sharded(worker, job: tuple, count: int, jobs: int) -> list:
    """worker(job + (start, stop)) over contiguous shards of range(count),
    results in shard order.

    One shard per worker process, and min(jobs, cpu count, count) of them,
    so a large jobs value never starts more processes than the machine has
    CPUs; with a single shard the worker runs in this process.
    """
    workers = min(jobs, os.cpu_count() or 1, count)
    batches = [
        job + (count * t // workers, count * (t + 1) // workers)
        for t in range(workers)
    ]
    if workers == 1:
        return [worker(batches[0])]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, batches))


def _histogram_to_polynomial(histogram: dict[int, int]) -> QPolynomial:
    if not histogram:
        return QPolynomial.zero()
    coeffs = [0] * (max(histogram) + 1)
    for value, count in histogram.items():
        coeffs[value] = count
    return QPolynomial(coeffs)


def _histogram_worker(job) -> dict[int, int]:
    evaluate, alpha, start, stop = job
    histogram: dict[int, int] = {}
    for word in rearrangement_class_range(alpha, start, stop):
        value = evaluate(word.letters)
        histogram[value] = histogram.get(value, 0) + 1
    return histogram


def distribution(
    stat: str,
    alpha: MultiplicityVector,
    relation: Relation | None = None,
    *,
    tie_rule: str = DEFAULT_TIE_RULE,
    max_class: int = DEFAULT_MAX_CLASS,
    jobs: int = 1,
) -> QPolynomial:
    """Distribution polynomial of the statistic over the class: the
    coefficient of q^k counts the words with value k."""
    _check_jobs(jobs)
    size = _check_class(alpha, max_class)
    job = (_evaluator(stat, alpha, relation, tie_rule), alpha)
    histogram: dict[int, int] = {}
    for part in _run_sharded(_histogram_worker, job, size, jobs):
        for value, count in part.items():
            histogram[value] = histogram.get(value, 0) + count
    return _histogram_to_polynomial(histogram)


def equidistributed(
    stats: Sequence[str],
    alpha: MultiplicityVector,
    relation: Relation | None = None,
    *,
    tie_rule: str = DEFAULT_TIE_RULE,
    max_class: int = DEFAULT_MAX_CLASS,
    jobs: int = 1,
) -> bool:
    """True iff all named statistics have the same distribution over the class."""
    if not stats:
        raise InvalidArguments("need at least one statistic")
    polynomials = [
        distribution(
            stat, alpha, relation, tie_rule=tie_rule, max_class=max_class, jobs=jobs
        )
        for stat in stats
    ]
    return all(p == polynomials[0] for p in polynomials[1:])


def relation_from_mask(n: int, mask: int) -> Relation:
    """Relation for a bitmask over the n*n ordered pairs, row-major: bit
    (x-1)*n + (y-1) holds the pair (x, y)."""
    edges = frozenset(
        (x, y)
        for x in range(1, n + 1)
        for y in range(1, n + 1)
        if mask >> ((x - 1) * n + (y - 1)) & 1
    )
    return Relation(n, edges)


def relation_to_mask(relation: Relation) -> int:
    mask = 0
    for x, y in relation.edges:
        mask |= 1 << ((x - 1) * relation.n + (y - 1))
    return mask


def _check_alphabet(n: int, max_alphabet: int) -> None:
    if n > max_alphabet:
        raise UniverseTooLarge(
            f"alphabet {n} sweeps 2^{n * n} relations; "
            f"raise max_alphabet (currently {max_alphabet}) to allow this"
        )


def relation_universe(
    n: int, max_alphabet: int = DEFAULT_MAX_ALPHABET
) -> Iterator[Relation]:
    """All 2^(n*n) relations on 1..n in mask order; the alphabet cap is
    checked at the call, before anything is iterated."""
    _check_alphabet(n, max_alphabet)
    return (relation_from_mask(n, mask) for mask in range(1 << (n * n)))


@dataclass(frozen=True)
class Disagreement:
    relation: Relation
    predicate_holds: bool
    equidistributed_holds: bool


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of an exhaustive relation sweep."""

    check: str
    n: int
    alpha: MultiplicityVector
    tie_rule: str | None
    relation_count: int
    disagreements: tuple[Disagreement, ...]
    elapsed_seconds: float

    @property
    def agreement_count(self) -> int:
        return self.relation_count - len(self.disagreements)

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def render(self) -> str:
        lines = [
            f"sweep: {self.check}",
            f"alphabet: n={self.n}, class: alpha=({self.alpha.render()})"
            f" with {class_size(self.alpha)} words",
        ]
        if self.tie_rule is not None:
            lines.append(f"tie rule: {self.tie_rule}")
        lines.append(
            f"relations: {self.relation_count}, agreements: {self.agreement_count},"
            f" disagreements: {len(self.disagreements)}"
        )
        for d in self.disagreements:
            edges = ";".join(f"{x} {y}" for x, y in d.relation.sorted_edges())
            lines.append(
                f"  disagree: edges=[{edges}]"
                f" predicate={'yes' if d.predicate_holds else 'no'}"
                f" equidistributed={'yes' if d.equidistributed_holds else 'no'}"
            )
        lines.append(f"elapsed: {self.elapsed_seconds:.3f}s")
        lines.append(f"result: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "n": self.n,
            "alpha": list(self.alpha.counts),
            "tie_rule": self.tie_rule,
            "relation_count": self.relation_count,
            "agreements": self.agreement_count,
            "disagreements": [
                {
                    "relation": relation_to_json_dict(d.relation),
                    "predicate": d.predicate_holds,
                    "equidistributed": d.equidistributed_holds,
                }
                for d in self.disagreements
            ],
            "elapsed_seconds": self.elapsed_seconds,
            "ok": self.ok,
        }


def _tally(values: list[int], multiplicities: list[int]) -> dict[int, int]:
    histogram: dict[int, int] = {}
    for value, count in zip(values, multiplicities):
        histogram[value] = histogram.get(value, 0) + count
    return histogram


def _sweep_worker(job) -> list[tuple[int, bool, bool]]:
    """Disagreements among the masks at Gray-code ranks [start, stop).

    Each class word contributes one profile per statistic (see
    statistics.inversion_profile), identical profiles merged with their
    multiplicities; a statistic's value under a relation is its profile
    summed over the relation's bits.  Rank k visits mask k ^ (k >> 1), which
    differs from the previous mask in one bit b, so every value moves by
    +-P[b] per step.
    """
    check, n, alpha, tie_rule, start, stop = job
    builders = [inversion_profile, major_profile]
    if check == CHECK_INV_MAJ_SOR:
        builders.append(partial(sorting_profile, tie_rule=tie_rule))
    tallies: list[dict[tuple[int, ...], int]] = [{} for _ in builders]
    for word in rearrangement_class(alpha, None):
        for build, tally in zip(builders, tallies):
            profile = build(n, word.letters)
            tally[profile] = tally.get(profile, 0) + 1
    multiplicities = [list(tally.values()) for tally in tallies]
    # columns[s][b]: entry b of every distinct profile of statistic s
    columns = [list(zip(*tally)) for tally in tallies]

    mask = start ^ (start >> 1)
    bits = [b for b in range(n * n) if mask >> b & 1]
    values = [
        [sum(profile[b] for b in bits) for profile in tally] for tally in tallies
    ]
    found = []
    for rank in range(start, stop):
        if rank > start:
            bit = (rank & -rank).bit_length() - 1
            mask ^= 1 << bit
            step = add if mask >> bit & 1 else sub
            values = [
                list(map(step, stat_values, stat_columns[bit]))
                for stat_values, stat_columns in zip(values, columns)
            ]
        first = _tally(values[0], multiplicities[0])
        equal = all(
            _tally(stat_values, stat_counts) == first
            for stat_values, stat_counts in zip(values[1:], multiplicities[1:])
        )
        relation = relation_from_mask(n, mask)
        if check == CHECK_INV_MAJ:
            predicate = is_essentially_bipartitional(relation, alpha) is not None
        else:
            predicate = satisfies_sorting_conditions(relation, alpha)[0]
        if predicate != equal:
            found.append((mask, predicate, equal))
    return found


def _verify(
    check: str,
    n: int,
    alpha: MultiplicityVector,
    tie_rule: str | None,
    max_alphabet: int,
    max_class: int,
    jobs: int,
) -> VerificationReport:
    if alpha.n != n:
        raise AlphabetMismatch(f"alpha has n={alpha.n}, sweep asked for n={n}")
    _check_alphabet(n, max_alphabet)
    _check_jobs(jobs)
    _check_class(alpha, max_class)
    count = 1 << (n * n)
    started = time.perf_counter()
    worker_rule = tie_rule if tie_rule is not None else DEFAULT_TIE_RULE
    job = (check, n, alpha, worker_rule)
    found = sorted(chain.from_iterable(_run_sharded(_sweep_worker, job, count, jobs)))
    elapsed = time.perf_counter() - started
    disagreements = tuple(
        Disagreement(relation_from_mask(n, mask), predicate, equal)
        for mask, predicate, equal in found
    )
    return VerificationReport(
        check, n, alpha, tie_rule, count, disagreements, elapsed
    )


def verify_theorem1(
    n: int,
    alpha: MultiplicityVector,
    *,
    max_alphabet: int = DEFAULT_MAX_ALPHABET,
    max_class: int = DEFAULT_MAX_CLASS,
    jobs: int = 1,
) -> VerificationReport:
    """Check, over every relation on 1..n, that the inversion and major-index
    variants are equidistributed over the class exactly when the relation is
    essentially bipartitional relative to it."""
    return _verify(CHECK_INV_MAJ, n, alpha, None, max_alphabet, max_class, jobs)


def verify_theorem2(
    n: int,
    alpha: MultiplicityVector,
    *,
    tie_rule: str = DEFAULT_TIE_RULE,
    max_alphabet: int = DEFAULT_MAX_ALPHABET,
    max_class: int = DEFAULT_MAX_CLASS,
    jobs: int = 1,
) -> VerificationReport:
    """Check, over every relation on 1..n, that inversion, major-index and
    sorting-index variants are all equidistributed over the class exactly
    when the relation satisfies the sorting conditions."""
    return _verify(CHECK_INV_MAJ_SOR, n, alpha, tie_rule, max_alphabet, max_class, jobs)
