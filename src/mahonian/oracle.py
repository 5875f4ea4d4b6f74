"""Exact distributions and exhaustive equidistribution sweeps.

The inv and maj distributions come from a transfer-matrix DP over residual
multiplicity vectors, each packed into one int with a field per letter
present (for maj, a list per residual indexed by the last letter), which
visits no word of the class.  The sorting index comes from undoing the selection sort
from the sorted word in layers too, merging the prefixes whose placed
letters every later step reads alike, so it visits no word either.  Under
copy-label-max with a repeated letter the mover depends on the copies'
original positions, which a partly undone word does not record, so that
one case sorts forward as a DP over shared prefixes; the top letter's
copies move first, so each placement of them is simulated once and joined
with every standardized word of the lower letters.  All three routes pack
a distribution into one integer, a lane of size.bit_length() bits per
power of q for a class of size words: no count they add up exceeds the
class size, so no lane overflows.

The verifiers cover every relation on the alphabet (all 2^(n*n) bitmasks)
and compare two routes, the structural predicate and equidistribution over
the class; they are the ground truth the predicates are tested against.
verify_theorem1 sweeps "inv and maj variants are equidistributed over the
class iff the relation is essentially bipartitional"; verify_theorem2 adds
the sorting index on one side and the sorting conditions on the other.
Both return a VerificationReport listing any relation where the two routes
disagree.

A sweep never reruns the per-word statistics per relation.  Every statistic
is a sum over the relation's pairs of a per-word profile (built by the
private kernels of statistics.py), so the sweep streams the class once, in
the calling process, and keeps each statistic as its columns: one column
per pair, holding that pair's entry of each word's profile in class order.
A bit (pair) is dead when every statistic's column is zero there, and live
otherwise: a dead pair changes no statistic on any word, so relations that
differ only in dead bits get the same verdict.  Which bits are dead is read
off the profiles, not assumed; on the classes tried they are the loops on
letters of multiplicity at most 1 and every pair touching an absent letter.
The sweep keeps only the live columns, from the moment form to the exact
check, and walks the 2^live masks.  With u the relation's bit vector, a
statistic's second moment over the class (the sum of its squared values) is
u^T G u for the Gram matrix G of its profiles, so one quadratic form
u^T D u, built from the differences of the Gram matrices on the live bits,
vanishes whenever the statistics are equidistributed.  The walk is
bit-sliced (see _zero_forms): one integer holds the form under every low
part of the live bits, a lane each, and a Gray-code walk over the high bits
moves all the lanes at once and flags those where the form vanishes.  A
nonzero form proves that the distributions differ; only the masks where it
vanishes get the exact check, which sums the mask's columns, each packed
once, in the caller before sharding, into one integer with a byte-aligned
lane per word, and compares the sorted values (see _packed_columns).  Equal
second moments have matched equidistribution on every class tried, but
that is an observation, so the exact check stays.
The walk returns only the live masks under which the statistics are
equidistributed.

A sweep is paired when every statistic gives every word one and the same
total K over the live bits.  The complement within the live bits then takes
each word's value v to K - v under every statistic, so the distributions
reflect together and a mask and its complement get one verdict: the sweep
moment-forms, packs and walks all live bits but the last, and the caller
adds the complement of each returned mask.  inv and maj always pair, with K
= C(m, 2) for words of length m (each pair of positions for inv, and for
maj each adjacent pair at i, weighing i, counts under U or else under its
complement), so a Theorem 1 sweep walks half the masks; the sorting index's total varies by word, so a
Theorem 2 sweep walks them all.  Like the dead bits, the pairing is read off
the profiles, not assumed per theorem.

The predicate side is generated once per sweep by bit arithmetic, so no
swept relation is built or tested and a mask's predicate is a set lookup.
A block S followed by the letters L writes the row L, or L | S when S is
underlined, into the row of each letter of S as one product with a spread
of S (see _bipartitional_masks); toggling any loops on letters of
multiplicity 1 gives the essentially bipartitional relations.  The sorting
conditions force runs of consecutive letters, largest first, each before
the last of one letter or of two whose larger has multiplicity 1 (see
_sorting_masks), plus any loops on letters of multiplicity at most 1.  The
two routes meet once, in the caller, over all 2^(n*n) relations: an
accepted mask whose live part the walk did not return disagrees, and so
does each completion (with any dead bits) of a returned mask not accepted.

The copy-label-max prefix DP and the sweeps share one sharded path,
_run_sharded: the work is cut into contiguous ranges (of the combination
ranks of the top letter's placements for a distribution, of the Gray-code
ranks of the high live bits for a sweep), one per worker process and at
most one per CPU, and a single range runs in the calling process.
Arguments are validated in the caller, and a job carries the validated
relation's pairs, the class and the lane width, or for a sweep the moment
form, the walked live bits, the number of low bits, the lane code, their
packed columns and the class size (never the predicate set), not a
description for each worker to rebuild, so no worker checks an argument
and no sweep worker streams the class or packs a column.
"""

from __future__ import annotations

import os
import struct
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from itertools import chain, combinations, islice, zip_longest
from math import comb
from operator import add, itemgetter, mul, sub
from typing import Iterator, Sequence

from .errors import AlphabetMismatch, InvalidArguments, UniverseTooLarge
from .qseries import QPolynomial
from .relations import (
    Relation,
    _check_same_alphabet,
    natural_order,
    relation_to_json_dict,
)
from .statistics import (
    DEFAULT_TIE_RULE,
    TIE_COPY_LABEL_MAX,
    TIE_LEFTMOST,
    _check_rule,
    _inversion_profile,
    _major_profile,
    _sorting_profile,
)
from .words import (
    DEFAULT_MAX_CLASS,
    MultiplicityVector,
    _check_alphabet_size,
    _check_class,
    _check_int,
    _packed_residual,
    _standardized_range,
    class_size,
    rearrangement_class,
)

STAT_IDS = ("inv", "maj", "sor", "inv-graphical", "maj-graphical", "sor-graphical")

DEFAULT_MAX_ALPHABET = 3

CHECK_INV_MAJ = "inv-maj vs essentially-bipartitional"
CHECK_INV_MAJ_SOR = "inv-maj-sor vs sorting-conditions"


def _resolve(stat: str, alpha: MultiplicityVector, relation) -> tuple[str, Relation]:
    """The base statistic (inv, maj or sor) of a statistic id and the
    relation it is scored under.

    Classical ids always use the strict natural order on the class's own
    alphabet; the graphical ids require an explicit relation.
    """
    if stat not in STAT_IDS:
        raise InvalidArguments(
            f"unknown statistic {stat!r}, expected one of {STAT_IDS}"
        )
    if not stat.endswith("-graphical"):
        return stat, natural_order(alpha.n)
    if relation is None:
        raise InvalidArguments(f"statistic {stat} needs a relation")
    _check_same_alphabet(relation, alpha)
    return stat[: -len("-graphical")], relation


def _check_jobs(jobs: int) -> None:
    _check_int("jobs", jobs)
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
    # imported here: the pool's module is a fifth of the package's import
    # time, and serial runs never need it
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, batches))


def _transfer_polynomial(base: str, edges, counts: tuple[int, ...], width: int) -> int:
    """Distribution of inv or maj over the class, packed (see distribution),
    by a transfer-matrix DP that places letters without visiting a word.

    Layer k maps each state to the packed polynomial of the statistic over
    the prefixes of length k that lead to it; distinct prefixes of one
    length extend to disjoint sets of words, so no lane overflows.  The
    residual multiplicity vector is one int laid out by _packed_residual,
    the relation read on the labels 1..m of the m letters present: absent
    letters add to neither statistic.  Placing x adds to inv the y with
    (x, y) in U still to come, field m + 1 of rest * spread[x], which holds
    a 1 at field m + 1 - y per such y; a field of the product sums counts at
    most total < 2^f, so no carry crosses fields.  Placing x adds to maj the
    k letters placed when (last, x) is in U, so a maj state maps to a list
    indexed by the last letter (0 before the first).  Its child (rest, x)
    pulls from the one residual rest + 1 << f*x, shifting by k lanes the
    lasts l with (l, x) in U, so no child is written twice.
    """
    present, f, start = _packed_residual(counts)
    letters, top = range(1, len(present) + 1), f * (len(present) + 1)
    mask, units = (1 << f) - 1, [1 << f * x for x in letters]
    fields = [unit * mask for unit in units]
    if base == "inv":
        ends = units[::-1]
        spread = [sum(w for w, v in zip(ends, present) if (u, v) in edges) for u in present]
        layer = {start: 1}
        for _ in range(sum(counts)):
            following = defaultdict(int)
            for residual, poly in layer.items():
                for field, unit, row in zip(fields, units, spread):
                    if residual & field:
                        rest = residual - unit
                        following[rest] += poly << (rest * row >> top & mask) * width
            layer = following
        return layer[0]
    into = [[l for l, u in zip(letters, present) if (u, v) in edges] for v in present]
    zeros = [0] * (len(present) + 1)
    layer = {start: [1, *zeros[1:]]}
    for placed in range(sum(counts)):
        following, shift = defaultdict(zeros.copy), placed * width
        for residual, polys in layer.items():
            whole = sum(polys)
            for x, field, unit, lasts in zip(letters, fields, units, into):
                if residual & field:
                    hit = sum(map(polys.__getitem__, lasts))
                    following[residual - unit][x] = whole - hit + (hit << shift)
        layer = following
    return sum(layer[0])


def _unsort_histogram(edges, tie_rule: str, counts: tuple[int, ...], width: int) -> int:
    """Sorting-index distribution over the class, packed (see distribution),
    by undoing the selection sort from the sorted word, sorting no word.

    Step t puts back v, the t-th smallest letter (counting from 0), into a
    prefix p of length t that holds the t letters below it: appended
    (j = t), or put at j < t with p[j] moved to the end.  That undoes the
    sort step moving v from j to t, which added #{h in [j, t) : (v, p[h])
    in U}.  Under rightmost p[j..t-1] holds no v; under leftmost p[0..j-1]
    holds none and appending needs p to hold none.  Without repeated
    letters every j is allowed, so any other rule reads as rightmost.

    Layer t maps each prefix to the packed polynomial of the prefixes that
    reach it; the sort is deterministic, so distinct prefixes reach disjoint
    sets of words and no lane counts past the class size.  Later steps read
    a placed letter y only through its signature, the x >= v still to come
    with (x, y) in U, so before the copies of v go back each y becomes the
    least letter (or 0) with its signature and equal prefixes merge.  Gains
    count bits, a pair of U weighing a lane's width, and the last step adds
    the shifted polynomials, building no word.
    """
    letters = range(len(counts) + 1)
    related = [[width * ((x, y) in edges) for y in letters] for x in letters]
    leftmost, left, layer = tie_rule == TIE_LEFTMOST, sum(counts), {(): 1}
    packed = 0 if left else 1  # the empty word
    for v, copies in enumerate(counts, 1):
        later, least, merged = [x for x in letters[v:] if counts[x - 1]], {}, {}
        label = [
            least.setdefault(tuple(related[x][y] for x in later), y) for y in range(v)
        ]
        for p, poly in layer.items():
            p = tuple(map(label.__getitem__, p))
            merged[p] = merged.get(p, 0) + poly
        layer, row = merged, related[v]
        for _ in range(copies):
            left, following = left - 1, {}
            for p, poly in layer.items():
                # moves (j, what the step added), from the last j allowed down
                j = p.index(v) if leftmost and v in p else len(p)
                gain = sum(map(row.__getitem__, p[j:]))
                moves = [(j, gain)]
                while j and (leftmost or p[j - 1] != v):
                    j -= 1
                    gain += row[p[j]]
                    moves.append((j, gain))
                for j, gain in moves:
                    if not left:
                        packed += poly << gain
                        continue
                    child = p[:j] + (v,) + p[j + 1 :] + p[j : j + 1]
                    following[child] = following.get(child, 0) + (poly << gain)
            layer = following
    return packed


_SORT_RUN = 4096  # joined words per run of _sorting_worker's prefix DP


def _top_runs(lower: MultiplicityVector, a: int, f: int, start: int, stop: int):
    """Blocks of at most _SORT_RUN placements of the top letter's a copies,
    at combination ranks [start, stop), each yielded with chunks of a walk
    of the lower class, about _SORT_RUN joins a run.  A placement is (take,
    passes): take reads off a lower word the prefix its steps leave, and
    field rest - 1 - r of passes counts the copies left of lower letter r."""
    rest, size = lower.total, class_size(lower)
    after = [sum(1 << f * (rest - 1 - r) for r in range(g, rest)) for g in range(rest + 1)]
    places = islice(combinations(range(rest + a), a), start, stop)
    for _ in range(start, stop, _SORT_RUN):
        plan = []
        for positions in islice(places, _SORT_RUN):
            slots = list(range(rest))
            for h in positions:  # what a copy's place holds is never read
                slots.insert(h, -1)
            for i, j in zip(range(rest + a - 1, rest - 1, -1), reversed(positions)):
                slots[j] = slots[i]  # the copy at j goes to i, the letter at i to j
            # copy t has h - t lower letters on its left
            passes = sum(map(after.__getitem__, map(sub, positions, range(a))))
            plan.append((itemgetter(*slots[:rest]), passes))
        walk, run = _standardized_range(lower, 0, size), max(1, _SORT_RUN // len(plan))
        for _ in range(0, size, run):
            yield plan, [tuple(v) for v in islice(walk, run)]


def _sorting_worker(job) -> int:
    """Copy-label-max sorting-index distribution over the placements of
    the top letter's a copies at combination ranks [start, stop), packed
    (see distribution), by a DP over sort prefixes.

    Word w stands for p, p[h] the letters below w_h plus the copies of w_h
    before h: its sort is the selection sort of p, whose step i moves the
    value i (a copy of ordered[i]) from j and adds its related values in
    p[j+1..i].  The rest depends only on the prefix of length i left, so a
    layer maps each prefix to the packed polynomial of the words reaching
    it.  The first a steps move the top copies right to left, each past
    the lower letters on its right, so joined with a standardized lower
    word v a placement (see _top_runs) leaves take(v) and gains field
    rest - 1 of weight * passes, weight holding v's related values.
    """
    edges, alpha, width, start, stop = job
    present = [x for x, c in enumerate(alpha.counts, 1) if c]
    if len(present) <= 1:  # one word, whose sort moves each copy onto itself
        return stop - start
    ordered = [x for x, a in enumerate(alpha.counts, 1) for _ in range(a)]
    related = [[width * ((x, y) in edges) for y in ordered] for x in ordered]
    a = alpha.counts[present[-1] - 1]
    rest, lower = len(ordered) - a, MultiplicityVector(alpha.counts[: present[-1] - 1])
    f = (width * a * rest).bit_length()  # a field of weight * passes holds its sum
    shift, mask, packed = f * (rest - 1), (1 << f) - 1, 0
    for plan, words in _top_runs(lower, a, f, start, stop):
        first = {}
        weights = [sum(related[-1][y] << f * r for r, y in enumerate(v)) for v in words]
        for take, passes in plan:
            for state, weight in zip(map(take, words), weights):
                first[state] = first.get(state, 0) + (1 << (weight * passes >> shift & mask))
        layer = first.items()
        for i in range(rest - 1, 0, -1):
            row, following = related[i], {}
            for prefix, poly in layer:
                j = prefix.index(i)
                gain = sum(map(row.__getitem__, prefix[j + 1 :]))
                state = prefix[:j] + prefix[i:] + prefix[j + 1 : i] if j < i else prefix[:i]
                following[state] = following.get(state, 0) + (poly << gain)
            layer = following.items()
        packed += sum(poly for _, poly in layer)
    return packed


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
    coefficient of q^k counts the words with value k.

    inv and maj come from the transfer-matrix DP and sor from undoing the
    sort in layers of merged prefixes.  Only sor under copy-label-max on a
    class with a repeated letter walks words, those of the letters below
    the top one, joined with the top letter's placements in up to jobs
    worker processes and sorted on merging shared sort prefixes.  The class
    cap applies to all three.

    Every route returns the polynomial packed into one integer, lane k of
    size.bit_length() bits holding the coefficient of q^k, so adding a
    shifted polynomial or a shard is one integer add.  No coefficient, nor
    any partial count a route adds up, exceeds the class size, so no lane
    overflows.  The lanes are read off the bit string once, here: a shift
    per lane would copy the whole integer each time.
    """
    _check_jobs(jobs)
    size = _check_class(alpha, max_class)
    width = size.bit_length()
    base, relation = _resolve(stat, alpha, relation)
    _check_rule(tie_rule)
    if base != "sor":
        packed = _transfer_polynomial(base, relation.edges, alpha.counts, width)
    elif tie_rule != TIE_COPY_LABEL_MAX or max(alpha.counts) <= 1:
        packed = _unsort_histogram(relation.edges, tie_rule, alpha.counts, width)
    else:
        placements = comb(alpha.total, next(a for a in reversed(alpha.counts) if a))
        job = (relation.edges, alpha, width)
        packed = sum(_run_sharded(_sorting_worker, job, placements, jobs))
    bits = bin(packed)[2:].zfill(-(-packed.bit_length() // width) * width)
    return QPolynomial([int(bits[i - width : i], 2) for i in range(len(bits), 0, -width)])


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
    # a bare string is a sequence of characters, not of statistic ids
    if isinstance(stats, str) or not stats:
        raise InvalidArguments(
            f"stats must be a nonempty sequence of statistic ids, got {stats!r}"
        )
    polynomials = [
        distribution(
            stat, alpha, relation, tie_rule=tie_rule, max_class=max_class, jobs=jobs
        )
        for stat in stats
    ]
    return all(p == polynomials[0] for p in polynomials[1:])


def relation_from_mask(n: int, mask: int) -> Relation:
    """Relation for a bitmask in [0, 2^(n*n)) over the n*n ordered pairs,
    row-major: bit (x-1)*n + (y-1) holds the pair (x, y)."""
    _check_alphabet_size(n)
    if type(mask) is not int or not 0 <= mask < 1 << n * n:
        raise InvalidArguments(f"mask {mask!r} is not an integer in [0, 2^{n * n})")
    edges = [(b // n + 1, b % n + 1) for b in range(n * n) if mask >> b & 1]
    return Relation(n, frozenset(edges))


def relation_to_mask(relation: Relation) -> int:
    n = relation.n
    return sum(1 << ((x - 1) * n + (y - 1)) for x, y in relation.edges)


def _check_alphabet(n: int, max_alphabet: int) -> None:
    _check_alphabet_size(n)
    _check_int("max_alphabet", max_alphabet)
    if n > max_alphabet:
        raise UniverseTooLarge(
            f"alphabet {n} sweeps 2^{n * n} relations; "
            f"raise max_alphabet (currently {max_alphabet}) to allow this"
        )


def relation_universe(
    n: int, max_alphabet: int = DEFAULT_MAX_ALPHABET
) -> Iterator[Relation]:
    """All 2^(n*n) relations on 1..n in mask order; the alphabet size and
    cap are checked at the call, before anything is iterated."""
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


def _submasks(bits) -> list[int]:
    """Masks of every subset of the given bit positions."""
    masks = [0]
    for b in bits:
        masks += [mask | 1 << b for mask in masks]
    return masks


def _loop_masks(n: int, letters) -> list[int]:
    """Masks of every subset of the loops on the given letters."""
    return _submasks((x - 1) * (n + 1) for x in letters)


def _bipartitional_masks(n: int) -> list[int]:
    """Masks of the bipartitional relations on 1..n, each once.

    spread[S] holds bit (x-1)*n for each letter x of the letter set S (bit
    x-1 of S).  A block S followed by the letter set L gives each letter of
    S the row L, or L | S when S is underlined: it adds (L | flag*S) *
    spread[S] to the mask, with no carries since a row is n bits.  A
    depth-first walk takes all the letters left as the last block, or each
    proper nonempty subset, block = (block-1) & rest, as the next one.
    """
    spread = [0] * (1 << n)
    for letters in range(1, 1 << n):
        low = (letters & -letters).bit_length() - 1
        spread[letters] = spread[letters & (letters - 1)] | 1 << low * n
    found, stack = [], [((1 << n) - 1, 0)]
    while stack:
        rest, mask = stack.pop()
        found += (mask, mask | rest * spread[rest])  # rest as the last block
        block = (rest - 1) & rest
        while block:
            later, s = rest ^ block, spread[block]
            stack += ((later, mask | later * s), (later, mask | (later | block) * s))
            block = (block - 1) & rest
    return found


def _essential_masks(alpha: MultiplicityVector) -> set[int]:
    """Masks of the relations essentially bipartitional relative to the
    class: every bipartitional relation (see _bipartitional_masks) with any
    subset of the loops on letters of multiplicity 1 toggled."""
    n = alpha.n
    toggles = _loop_masks(n, [x for x in range(1, n + 1) if alpha.count_of(x) == 1])
    return {mask ^ toggle for mask in _bipartitional_masks(n) for toggle in toggles}


def _sorting_masks(alpha: MultiplicityVector) -> set[int]:
    """Masks of the relations meeting the sorting conditions.

    The conditions make the effective core an unflagged bipartition whose
    pairs all descend, so its blocks are runs of consecutive letters,
    largest first.  Walking down from letter n, a run before the last is one
    letter, or two when the larger has multiplicity 1, and gives its letters
    the row of every letter below it; the last run is the letters left.  A
    core stands for itself with any loops on letters of multiplicity <= 1.
    """
    n = alpha.n
    loops = _loop_masks(n, [x for x in range(1, n + 1) if alpha.count_of(x) <= 1])
    cores, stack = [], [(n, 0)]
    while stack:
        top, mask = stack.pop()
        cores.append(mask)
        widths = (1, 2) if alpha.count_of(top) == 1 else (1,)
        for rest in (top - width for width in widths if width < top):
            run = sum(1 << (x - 1) * n for x in range(rest + 1, top + 1))
            stack.append((rest, mask | ((1 << rest) - 1) * run))
    return {mask | loop for mask in cores for loop in loops}


def _gram(columns) -> list[list[int]]:
    """The sum of P P^T over the words' profiles P, with columns[a] holding
    entry a of each profile, so u^T G u is the statistic's second moment
    over the class under the relation with bit vector u.  G is symmetric:
    its lower half is summed and mirrored by transposition."""
    low = [[sum(map(mul, a, b)) for b in columns[: i + 1]] for i, a in enumerate(columns)]
    return [r + list(c[i + 1 :]) for i, (r, c) in enumerate(zip(low, zip_longest(*low)))]


def _moment_form(stats) -> list[list[int]]:
    """A symmetric D with u^T D u = 0 exactly when every statistic after the
    first has the first one's second moment under the relation u; stats
    holds each statistic's columns as _gram reads them.

    For two statistics D is the difference of their Gram matrices.  Each
    further gap E is added to the form so far scaled past it: |u^T E u| is at
    most the sum of |E|'s entries, below the scale, so the terms cannot
    cancel.
    """
    first, *others = map(_gram, stats)
    form = [[0] * len(first) for _ in first]
    for gram in others:
        gap = [list(map(sub, a, b)) for a, b in zip(first, gram)]
        scale = 1 + sum(abs(v) for row in gap for v in row)
        form = [
            [scale * f + g for f, g in zip(form_row, gap_row)]
            for form_row, gap_row in zip(form, gap)
        ]
    return form


# Most low bits of the sweep's packed integer (2^14 lanes): on the n=6
# sweeps the walk's time per mask stops falling from 14 on.
_LOW_BITS = 14


def _zero_forms(form: list[list[int]], low: int, start: int, stop: int) -> Iterator[int]:
    """The masks u with u^T D u = 0 whose high part u >> low sits at
    Gray-code ranks [start, stop) of the len(D) - low high positions, bit i
    of u standing for position i of D.

    One integer holds a lane of width bits per low part m < 2^low, lane m
    holding bias + u^T D u for u = m | h << low under the current high part
    h.  That value is q(m) + 2 m^T D h + h^T D h with q(m) = m^T D m, so the
    integer starts from the packed q, bias and h^T D h in every lane, and
    P_j for each high bit j of h, lane m of P_j holding 2 sum_{i in m} D_ij.
    q and each P_j are built by doubling: the lanes of the masks with bit l
    set are those of the masks below 2^l, each moved up 2^l lanes with
    bit l's share added.  Rank k's high part holds bit j for each bit j of
    k ^ (k >> 1), and a step to the next rank flips one high bit j: the
    integer moves by +-P_j plus, in every lane, D_jj + 2 r_j or D_jj - 2 r_j
    with r = D h (D is symmetric), and r moves by +-D[j].  The bias is the
    power of two above the sum of |D|'s entries, so each lane stays in
    (0, 2 bias) and no carry crosses a lane; a lane there equals the bias
    exactly when its bits below the bias's are all zero, which adding those
    bits' full mask to them shows as no carry into the bias's bit.  bin()
    lays the flags of the lanes without that carry out to be found.
    """
    bias = 1 << sum(abs(v) for row in form for v in row).bit_length()
    width = bias.bit_length()
    ones = [1]  # ones[l]: a 1 in each of the first 2^l lanes
    for l in range(low):
        ones.append(ones[l] | ones[l] << (width << l))

    def spread(row: list[int], top: int) -> int:
        """Lane m < 2^top holding the sum of row[i] over the bits i of m."""
        packed = 0
        for i in range(top):
            packed += (packed + row[i] * ones[i]) << (width << i)
        return packed

    quad = 0
    for l in range(low):
        quad += (quad + 2 * spread(form[l], l) + form[l][l] * ones[l]) << (width << l)
    steps = [2 * spread(row, low) for row in form[low:]]
    high = [row[low:] for row in form[low:]]
    every = ones[low]
    mark = bias * every
    below = mark - every
    gray = start ^ (start >> 1)
    bits = [j for j in range(len(high)) if gray >> j & 1]
    r = [sum(row[j] for j in bits) for row in high]
    packed = quad + sum(steps[j] for j in bits) + (bias + sum(r[j] for j in bits)) * every
    for rank in range(start, stop):
        if rank > start:
            j = (rank & -rank).bit_length() - 1
            gray ^= 1 << j
            if gray >> j & 1:
                packed += steps[j] + (high[j][j] + 2 * r[j]) * every
                r = list(map(add, r, high[j]))
            else:
                packed += (high[j][j] - 2 * r[j]) * every - steps[j]
                r = list(map(sub, r, high[j]))
        carried = ((packed & below) + below) & mark
        if carried != mark:
            flags = bin(carried ^ mark)
            at = flags.find("1")
            while at >= 0:
                yield (len(flags) - 1 - at) // width | gray << low
                at = flags.find("1", at + 1)


def _packed_columns(stats, size: int, top: int) -> tuple[str, list[list[int]]]:
    """The struct code of a lane and every statistic's columns, each packed
    into one int with a lane per word in class order, stats[s][i] holding
    entry i of each word's profile for statistic s.

    A lane is 1, 2, 4 or 8 bytes in native byte order, one width for every
    statistic: the narrowest that holds top, at least the largest sum a mask
    can give.  Profiles are nonnegative, so the largest word sum of a
    statistic's columns will do.  A mask's values are then one integer sum,
    with no carry crossing a lane, read back as lanes (see _sweep_worker).
    """
    code = next(c for c in "BHIQ" if top >> 8 * struct.calcsize(c) == 0)
    layout = f"{size}{code}"
    return code, [
        [int.from_bytes(struct.pack(layout, *column), sys.byteorder) for column in columns]
        for columns in stats
    ]


def _sweep_worker(job) -> list[int]:
    """The live masks with high parts at Gray-code ranks [start, stop) (see
    _zero_forms) under which the statistics are equidistributed over the
    class.

    A nonzero second-moment form (see _moment_form) settles that they are
    not; where it vanishes, the exact check sums the mask's columns of each
    statistic, packed once by the caller (see _packed_columns), reads the
    sums back as lanes and compares the sorted values.
    """
    form, live, low, code, packed, size, start, stop = job
    length, equal = size * struct.calcsize(code), []
    for u in _zero_forms(form, low, start, stop):
        bits = [i for i in range(len(live)) if u >> i & 1]
        totals = (sum(map(columns.__getitem__, bits)) for columns in packed)
        first, *rest = (
            sorted(memoryview(t.to_bytes(length, sys.byteorder)).cast(code)) for t in totals
        )
        if all(other == first for other in rest):
            equal.append(sum(1 << live[i] for i in bits))
    return equal


def _verify(
    check: str,
    n: int,
    alpha: MultiplicityVector,
    tie_rule: str | None,
    max_alphabet: int,
    max_class: int,
    jobs: int,
) -> VerificationReport:
    _check_alphabet_size(n)
    if alpha.n != n:
        raise AlphabetMismatch(f"alpha has n={alpha.n}, sweep asked for n={n}")
    _check_alphabet(n, max_alphabet)
    _check_jobs(jobs)
    size = _check_class(alpha, max_class)
    started = time.perf_counter()
    if check == CHECK_INV_MAJ:
        builders = (_inversion_profile, _major_profile)
        accepted = _essential_masks(alpha)
    else:
        _check_rule(tie_rule)
        sor = partial(_sorting_profile, tie_rule=tie_rule)
        builders = (_inversion_profile, _major_profile, sor)
        accepted = _sorting_masks(alpha)
    words = [word.letters for word in rearrangement_class(alpha, None)]
    tables = [list(zip(*map(partial(build, n), words))) for build in builders]
    live = [b for b in range(n * n) if any(any(columns[b]) for columns in tables)]
    live_mask = sum(1 << b for b in live)
    stats = [[columns[b] for b in live] for columns in tables]
    totals = {sum(entries) for columns in stats for entries in zip(*columns)}
    # one total K for every word and statistic: the complement within the
    # live bits takes each value v to K - v, so it keeps the verdict, and
    # the walk fixes the last live bit at 0
    paired = len(totals) == 1
    if paired:
        live, stats = live[:-1], [columns[:-1] for columns in stats]
    low = min(len(live), _LOW_BITS)
    code, packed = _packed_columns(stats, size, max(totals, default=0))
    job = (_moment_form(stats), live, low, code, packed, size)
    parts = _run_sharded(_sweep_worker, job, 1 << (len(live) - low), jobs)
    equal = set(chain.from_iterable(parts))
    if paired:
        equal |= {mask ^ live_mask for mask in equal}
    # a dead bit changes no statistic, so a live mask's verdict holds for
    # each of its completions: the mask with any subset of the dead bits
    completions = _submasks(b for b in range(n * n) if not live_mask >> b & 1)
    found = sorted(
        [(mask, True, False) for mask in accepted if (mask & live_mask) not in equal]
        + [
            (mask | dead, False, True)
            for mask in equal
            for dead in completions
            if mask | dead not in accepted
        ]
    )
    elapsed = time.perf_counter() - started
    disagreements = tuple(
        Disagreement(relation_from_mask(n, mask), predicate, holds)
        for mask, predicate, holds in found
    )
    return VerificationReport(
        check, n, alpha, tie_rule, 1 << (n * n), disagreements, elapsed
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
