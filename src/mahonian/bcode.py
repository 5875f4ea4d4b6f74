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
from .relations import OrderedBipartition, Relation, _sorting_bipartition
from .statistics import TIE_RIGHTMOST, _contribution, _sort_moves
from .words import MultiplicityVector, Word, infer_alpha, make_word

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


@dataclass(frozen=True)
class _BlockInfo:
    letters: tuple[int, ...]  # distinct letters, ascending
    mass: int
    two_letter: bool
    copies: tuple[int, ...]  # all copies, ascending


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _block_structure(
    relation: Relation, alpha: MultiplicityVector
) -> tuple[OrderedBipartition, tuple[_BlockInfo, ...], tuple[int, ...], tuple[int, ...]]:
    """The class's code plan: its bipartition, one _BlockInfo per block, the
    block of each letter (indexed by letter) and the suffix masses.  Only
    successes are cached, so a failing class raises, with fresh reasons, on
    every call."""
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
    info = []
    block_of = [0] * (alpha.n + 1)  # slot 0 unused
    for j, block in enumerate(bp.blocks):
        letters = tuple(sorted(block))
        copies = tuple(
            x for x in letters for _ in range(alpha.count_of(x))
        )
        info.append(_BlockInfo(letters, len(copies), len(letters) == 2, copies))
        for x in letters:
            block_of[x] = j
    return bp, tuple(info), tuple(block_of), _suffix_masses(info)


def _suffix_masses(info: list[_BlockInfo]) -> tuple[int, ...]:
    # suffix[j] = total multiplicity of blocks after j
    suffix = [0] * len(info)
    for j in range(len(info) - 2, -1, -1):
        suffix[j] = suffix[j + 1] + info[j + 1].mass
    return tuple(suffix)


def bcode_encode(relation: Relation, word) -> BCode:
    """Code of a word: sorted per-block step contributions plus markers."""
    return _encode_with_rule(relation, word, BCODE_TIE_RULE)


def _encode_with_rule(relation: Relation, word, tie_rule: str) -> BCode:
    # tie_rule exists only so tests can demonstrate that the other rules
    # break invertibility; bcode_encode always passes BCODE_TIE_RULE
    if isinstance(word, Word):
        letters, alpha = word.letters, word.alpha
    else:
        letters = tuple(word)
        alpha = infer_alpha(letters, relation.n)
    _, info, block_of, _ = _block_structure(relation, alpha)

    contributions: list[list[int]] = [[] for _ in info]
    markers = [0] * len(info)
    for j, i, work in _sort_moves(letters, tie_rule):
        b = block_of[work[j]]
        if not contributions[b] and info[b].two_letter:
            # top letter's position among the block's copies, read just
            # before the block's first step
            top = info[b].letters[-1]
            subword = [x for x in work if block_of[x] == b]
            markers[b] = subword.index(top) + 1
        contributions[b].append(_contribution(relation.edges, j, i, work))
    partitions = tuple(
        tuple(sorted(block_contribs, reverse=True)) for block_contribs in contributions
    )
    return BCode(partitions, tuple(markers))


def validate_code(relation: Relation, alpha: MultiplicityVector, code: BCode) -> None:
    """Raise InvalidCode unless the code has the exact shape and bounds for
    the class: partition j has one part per copy in block j, nonincreasing,
    parts at most the later blocks' total multiplicity; markers are 0 for
    one-letter blocks and a copy position for two-letter blocks."""
    _, info, _, suffix = _block_structure(relation, alpha)
    _check_code(info, suffix, code)


def _check_code(
    info: tuple[_BlockInfo, ...], suffix: tuple[int, ...], code: BCode
) -> None:
    if len(code.partitions) != len(info):
        raise InvalidCode(
            f"expected {len(info)} partitions, got {len(code.partitions)}"
        )
    for j, (part, block) in enumerate(zip(code.partitions, info)):
        label = j + 1
        if len(part) != block.mass:
            raise InvalidCode(
                f"partition {label} must have {block.mass} parts, got {len(part)}"
            )
        if any(p < 0 for p in part):
            raise InvalidCode(f"partition {label} has a negative part")
        if any(part[t] < part[t + 1] for t in range(len(part) - 1)):
            raise InvalidCode(f"partition {label} is not nonincreasing: {part}")
        if part and part[0] > suffix[j]:
            raise InvalidCode(
                f"partition {label} has part {part[0]} exceeding the bound {suffix[j]}"
            )
        marker = code.markers[j]
        if block.two_letter:
            if not 1 <= marker <= block.mass:
                raise InvalidCode(
                    f"marker {label} must be between 1 and {block.mass}, got {marker}"
                )
        elif marker != 0:
            raise InvalidCode(
                f"marker {label} must be 0 for a one-letter block, got {marker}"
            )


def _swap_left(word: list[int], pos: int, distance: int) -> None:
    if distance:
        word[pos - distance], word[pos] = word[pos], word[pos - distance]


def bcode_decode(relation: Relation, alpha: MultiplicityVector, code: BCode) -> Word:
    """Rebuild the word a code encodes.

    Blocks are replayed last to first: the block's copies are appended in
    ascending order, then swapped left by their parts (largest part to the
    leftmost appended copy).  For a two-letter block the part at the marker
    position belongs to the top letter; it is set aside, the remaining parts
    move the small copies, and the top letter finally moves left by its part
    plus the number of copies that sat right of it, undoing its head start.
    """
    _, info, _, suffix = _block_structure(relation, alpha)
    _check_code(info, suffix, code)
    word: list[int] = []
    for j in range(len(info) - 1, -1, -1):
        block = info[j]
        parts = code.partitions[j]
        base = len(word)
        word.extend(block.copies)
        if block.two_letter:
            p = code.markers[j]
            top_part = parts[p - 1]
            reduced = parts[: p - 1] + parts[p:]
            for t, distance in enumerate(reduced):
                _swap_left(word, base + t, distance)
            _swap_left(word, base + block.mass - 1, top_part + block.mass - p)
        else:
            for t, distance in enumerate(parts):
                _swap_left(word, base + t, distance)
    return make_word(word, alpha)


def _bounded_partitions(length: int, bound: int):
    if length == 0:
        yield ()
        return
    for first in range(bound + 1):
        for rest in _bounded_partitions(length - 1, first):
            yield (first,) + rest


def enumerate_codes(relation: Relation, alpha: MultiplicityVector):
    """All valid codes for the class, in a fixed deterministic order."""
    _, info, _, suffix = _block_structure(relation, alpha)
    part_choices = [
        tuple(_bounded_partitions(block.mass, bound))
        for block, bound in zip(info, suffix)
    ]
    marker_choices = [
        tuple(range(1, block.mass + 1)) if block.two_letter else (0,)
        for block in info
    ]
    for partitions in itertools.product(*part_choices):
        for markers in itertools.product(*marker_choices):
            yield BCode(partitions, markers)


def code_count(relation: Relation, alpha: MultiplicityVector) -> int:
    """Number of valid codes; matches the size of the rearrangement class."""
    _, info, _, suffix = _block_structure(relation, alpha)
    total = 1
    for block, bound in zip(info, suffix):
        total *= math.comb(bound + block.mass, block.mass)
        if block.two_letter:
            total *= block.mass
    return total
