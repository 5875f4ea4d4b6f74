"""An invertible code for words, built from the sorting procedure.

For relations passing the sorting conditions (with mild extra thinness
requirements, below), running the relation-driven selection sort on a word
and bookkeeping its swap contributions block by block yields a code that
determines the word completely:

* one integer partition per block, the sorted step contributions of that
  block's letters, bounded by the total multiplicity of the later blocks;
* one marker per block: 0 for one-letter blocks, and for a two-letter block
  the position of its larger letter among the block's copies at the moment
  the sort starts working on that block.

The sort here always uses the rightmost tie rule.  Under it a moved copy
never jumps over a copy of the same letter, so recorded contributions equal
leftward displacements and the decode can replay them; the other tie rules
break this (their codes are not invertible), which is why the rule is fixed
rather than an argument.

Under the conditions the relation is a bipartition into runs of consecutive
letters, largest first, plus perhaps loops on letters occurring once.  So a
step's relation-driven count is its move distance, less the block-mate copies
passed when the top letter of a two-letter block moves.  Encode reads it so:
neither encode nor decode reads the edges or runs the sort of ``statistics``.

Extra requirements beyond the sorting conditions: every letter of the
alphabet must occur, and the last block must also be thin (at most two
distinct letters, the larger one unique).  A fat block has more internal
arrangements than marker values, so no code of this shape can distinguish
its words.

The class's block structure is derived and checked once per (relation,
multiplicity vector), and the last 32 are kept.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .errors import ConditionsNotSatisfied, InvalidCode
from .relations import Relation, _sorting_bipartition
from .statistics import TIE_RIGHTMOST
from .words import MultiplicityVector, Word, infer_alpha

BCODE_TIE_RULE = TIE_RIGHTMOST
_PLAN_CACHE_SIZE = 32


@dataclass(frozen=True)
class BCode:
    """One bounded partition and one marker per block, first block first."""

    partitions: tuple[tuple[int, ...], ...]
    markers: tuple[int, ...]

    def __post_init__(self):
        try:
            partitions = tuple(tuple(part) for part in self.partitions)
            markers = tuple(self.markers)
        except TypeError as exc:
            raise InvalidCode(
                f"a code needs a sequence of partitions and a sequence of markers ({exc})"
            ) from None
        object.__setattr__(self, "partitions", partitions)
        object.__setattr__(self, "markers", markers)
        if len(self.partitions) != len(self.markers):
            raise InvalidCode("one marker per partition required")
        for value in itertools.chain(*self.partitions, self.markers):
            # type() rather than isinstance(): bool is an int subclass
            if type(value) is not int:
                raise InvalidCode(f"code entries must be integers, got {value!r}")

    def total(self) -> int:
        """Sum of all parts; equals the word's sorting index."""
        return sum(sum(part) for part in self.partitions)

    def to_json_dict(self) -> dict:
        return {
            "partitions": [list(part) for part in self.partitions],
            "markers": list(self.markers),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "BCode":
        try:
            return cls(data["partitions"], data["markers"])
        except (KeyError, TypeError, ValueError, InvalidCode) as exc:
            raise InvalidCode(f"malformed code object: {data!r} ({exc})")


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _block_structure(
    relation: Relation, alpha: MultiplicityVector
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...], tuple[tuple[int, int], ...]]:
    """The class's code plan: each block's letters, ascending (so it has two
    letters when the ends differ, and its top letter is the last), the block
    of each letter (indexed by letter), and each block's mass with the total
    mass after it.  Masses come from the counts, so no plan holds a copy:
    a code's shape is checked before any per-copy work.  Only successes are
    cached, so a failing class raises, with fresh reasons, on every call."""
    bp, reasons = _sorting_bipartition(relation, alpha)
    ok = not reasons
    for x in range(1, alpha.n + 1):
        if alpha.count_of(x) == 0:
            reasons.append(
                f"code construction: letter {x} has multiplicity 0 (every letter must occur)"
            )
    if ok:
        last = bp.blocks[-1]
        if len(last) > 2:
            reasons.append(
                f"code construction: last block has {len(last)} letters (at most 2 supported)"
            )
        elif len(last) == 2 and alpha.count_of(max(last)) != 1:
            reasons.append(
                f"code construction: letter {max(last)} of two-letter last block "
                f"has multiplicity {alpha.count_of(max(last))} (must be 1)"
            )
    if reasons:
        raise ConditionsNotSatisfied(reasons)
    blocks = tuple(tuple(sorted(block)) for block in bp.blocks)
    block_of = [0] * (alpha.n + 1)  # slot 0 unused
    for j, block in enumerate(blocks):
        for x in block:
            block_of[x] = j
    masses = [sum(map(alpha.count_of, block)) for block in blocks]
    # every letter occurs, so the blocks' copies make up the whole word
    bounds = (alpha.total - done for done in itertools.accumulate(masses))
    return blocks, tuple(block_of), tuple(zip(masses, bounds))


def bcode_encode(relation: Relation, word) -> BCode:
    """Code of a word: sorted per-block step contributions, each read off
    its move distance (see the module docstring), plus markers.  The word is
    walked reversed, so the rightmost copy left of the sorted tail is one
    list.index away."""
    if isinstance(word, Word):
        letters, alpha = word.letters, word.alpha
    else:
        letters = tuple(word)
        alpha = infer_alpha(letters, relation.n)
    blocks, _, _ = _block_structure(relation, alpha)
    counts = alpha.counts
    work = list(reversed(letters))
    i = 0  # work[:i] is the sorted tail, reversed; it is never read again
    partitions, markers = [], []
    for block in blocks:
        low = block[0]
        parts, marker = [], 0
        if len(block) == 2:  # the top letter occurs once and moves first
            j = work.index(block[1], i)
            passed = work[i:j].count(low)
            parts.append(j - i - passed)
            marker = counts[low - 1] - passed + 1
            work[j] = work[i]
            i += 1
        for _ in range(counts[low - 1]):
            j = work.index(low, i)
            parts.append(j - i)
            work[j] = work[i]
            i += 1
        parts.sort(reverse=True)
        partitions.append(tuple(parts))
        markers.append(marker)
    return BCode(tuple(partitions), tuple(markers))


def validate_code(relation: Relation, alpha: MultiplicityVector, code: BCode) -> None:
    """Raise InvalidCode unless the code has the exact shape and bounds for
    the class: partition j has one part per copy in block j, nonincreasing,
    parts at most the later blocks' total multiplicity; markers are 0 for
    one-letter blocks and a copy position for two-letter blocks."""
    blocks, _, sizes = _block_structure(relation, alpha)
    _check_code(blocks, sizes, code)


def _check_code(
    blocks: tuple[tuple[int, ...], ...], sizes: tuple[tuple[int, int], ...], code: BCode
) -> None:
    if not isinstance(code, BCode):
        raise InvalidCode(f"a code must be a BCode, got {type(code).__name__}")
    if len(code.partitions) != len(blocks):
        raise InvalidCode(
            f"expected {len(blocks)} partitions, got {len(code.partitions)}"
        )
    checked = zip(code.partitions, code.markers, blocks, sizes)
    for label, (part, marker, letters, (mass, bound)) in enumerate(checked, 1):
        # every letter occurs, so a part of the right length is nonempty
        if len(part) != mass:
            raise InvalidCode(
                f"partition {label} must have {mass} parts, got {len(part)}"
            )
        if min(part) < 0:
            raise InvalidCode(f"partition {label} has a negative part")
        if list(part) != sorted(part, reverse=True):
            raise InvalidCode(f"partition {label} is not nonincreasing: {part}")
        if part[0] > bound:
            raise InvalidCode(
                f"partition {label} has part {part[0]} exceeding the bound {bound}"
            )
        if len(letters) == 2:
            if not 1 <= marker <= mass:
                raise InvalidCode(
                    f"marker {label} must be between 1 and {mass}, got {marker}"
                )
        elif marker != 0:
            raise InvalidCode(
                f"marker {label} must be 0 for a one-letter block, got {marker}"
            )


def bcode_decode(relation: Relation, alpha: MultiplicityVector, code: BCode) -> Word:
    """Rebuild the word a code encodes.

    Blocks are replayed last to first: the block's copies are appended in
    ascending order, then swapped left by their parts (largest part to the
    leftmost appended copy).  For a two-letter block the part at the marker
    position belongs to the top letter; it is set aside, the remaining parts
    move the small copies, and the top letter finally moves left by its part
    plus the number of copies that sat right of it, undoing its head start.
    """
    blocks, _, sizes = _block_structure(relation, alpha)
    _check_code(blocks, sizes, code)
    word: list[int] = []
    for j in range(len(blocks) - 1, -1, -1):
        parts = code.partitions[j]  # one per copy of the block, once checked
        base = len(word)
        for x in blocks[j]:
            word += [x] * alpha.counts[x - 1]
        p = code.markers[j]  # 0 exactly for a one-letter block, once checked
        for pos, distance in enumerate(parts[: p - 1] + parts[p:] if p else parts, base):
            word[pos - distance], word[pos] = word[pos], word[pos - distance]
        if p:
            pos, distance = len(word) - 1, parts[p - 1] + len(parts) - p
            word[pos - distance], word[pos] = word[pos], word[pos - distance]
    # the replay only swaps the blocks' copies, which hold alpha's multiset
    return Word(tuple(word), alpha)


def _bounded_partitions(length: int, bound: int):
    if length == 0:
        yield ()
        return
    for first in range(bound + 1):
        for rest in _bounded_partitions(length - 1, first):
            yield (first,) + rest


def enumerate_codes(relation: Relation, alpha: MultiplicityVector):
    """All valid codes for the class, in a fixed deterministic order."""
    blocks, _, sizes = _block_structure(relation, alpha)
    part_choices = [tuple(_bounded_partitions(mass, bound)) for mass, bound in sizes]
    marker_choices = [
        tuple(range(1, mass + 1)) if len(letters) == 2 else (0,)
        for letters, (mass, _) in zip(blocks, sizes)
    ]
    for partitions in itertools.product(*part_choices):
        for markers in itertools.product(*marker_choices):
            yield BCode(partitions, markers)


def code_count(relation: Relation, alpha: MultiplicityVector) -> int:
    """Number of valid codes; matches the size of the rearrangement class."""
    blocks, _, sizes = _block_structure(relation, alpha)
    total = 1
    for letters, (mass, bound) in zip(blocks, sizes):
        total *= math.comb(bound + mass, mass)
        if len(letters) == 2:
            total *= mass
    return total
