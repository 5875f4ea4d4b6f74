"""Directed relations on the alphabet and ordered bipartitions.

A relation U on {1, ..., n} is any set of ordered pairs, loops allowed.  The
bipartitional relations are those induced by an ordered set partition
(B_1, ..., B_k) of the alphabet with a 0/1 flag per block: (x, y) is in U
exactly when x's block comes strictly before y's, or when both letters share
a flagged ("underlined") block.  Flagged blocks therefore contribute all of
their internal pairs including loops; unflagged blocks contribute none.

Two independent characterizations are implemented and tested against each
other: to_ordered_bipartition groups letters by out-row and loop and accepts
the one candidate only when the pairs it induces are exactly U's edges, and
is_bipartitional checks the closure property that both U and its complement
are transitive.  The tests pin the two together on every relation on three
letters and on random relations on up to six.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from dataclasses import dataclass

from .errors import AlphabetMismatch, InvalidArguments, InvalidBipartition
from .words import MultiplicityVector, _check_alphabet_size

Pair = tuple[int, int]


@dataclass(frozen=True)
class Relation:
    """A set of directed edges over the alphabet 1..n (loops allowed)."""

    n: int
    edges: frozenset[Pair]

    def __post_init__(self):
        _check_alphabet_size(self.n)
        if not isinstance(self.edges, frozenset):
            try:
                object.__setattr__(self, "edges", frozenset(self.edges))
            except TypeError as exc:
                raise InvalidArguments(f"edges must be pairs of integers ({exc})")
        n = self.n
        for pair in self.edges:
            if not (
                isinstance(pair, tuple)
                and len(pair) == 2
                and type(pair[0]) is int
                and type(pair[1]) is int
                and 1 <= pair[0] <= n
                and 1 <= pair[1] <= n
            ):
                kind = type(pair).__name__
                if isinstance(pair, tuple):
                    kind += f"[{', '.join(type(v).__name__ for v in pair)}]"
                if kind == "tuple[int, int]":
                    raise InvalidArguments(f"edge {pair!r} outside 1..{n} x 1..{n}")
                raise InvalidArguments(f"edge {pair!r} must be a pair of integers, got {kind}")

    def __contains__(self, pair: Pair) -> bool:
        return pair in self.edges

    def sorted_edges(self) -> list[Pair]:
        return sorted(self.edges)

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[Iterable[int]]) -> "Relation":
        return cls(n, [tuple(p) if isinstance(p, Iterable) else p for p in pairs])


def natural_order(n: int) -> Relation:
    """The strict integer order: (x, y) present exactly when x > y."""
    _check_alphabet_size(n)
    return Relation(n, frozenset((x, y) for x in range(1, n + 1) for y in range(1, x)))


def full_relation(n: int) -> Relation:
    _check_alphabet_size(n)
    return Relation(
        n, frozenset(itertools.product(range(1, n + 1), range(1, n + 1)))
    )


def complement(relation: Relation) -> Relation:
    all_pairs = itertools.product(range(1, relation.n + 1), repeat=2)
    return Relation(
        relation.n, frozenset(p for p in all_pairs if p not in relation.edges)
    )


def is_transitive(relation: Relation) -> bool:
    edges = relation.edges
    for x, y in edges:
        for z in range(1, relation.n + 1):
            if (y, z) in edges and (x, z) not in edges:
                return False
    return True


def is_bipartitional(relation: Relation) -> bool:
    """Closure characterization: U and its complement are both transitive."""
    return is_transitive(relation) and is_transitive(complement(relation))


@dataclass(frozen=True)
class OrderedBipartition:
    """An ordered set partition of 1..n with a 0/1 underline flag per block."""

    blocks: tuple[frozenset[int], ...]
    flags: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(frozenset(b) for b in self.blocks))
        object.__setattr__(self, "flags", tuple(self.flags))
        if len(self.blocks) != len(self.flags):
            raise InvalidBipartition("one flag per block required")
        for flag in self.flags:
            if type(flag) is not int or flag not in (0, 1):
                raise InvalidBipartition(f"flags must be 0 or 1, got {flag!r}")
        for block in self.blocks:
            if not block:
                raise InvalidBipartition("blocks must be nonempty")
            for x in block:
                if type(x) is not int:
                    raise InvalidBipartition(f"block letters must be integers, got {x!r}")

    @property
    def letters(self) -> frozenset[int]:
        return frozenset().union(*self.blocks) if self.blocks else frozenset()

    def render(self) -> str:
        """Text form, letters descending within a block, e.g. "{5,4} > {3} > _{2,1}_"."""
        parts = []
        for block, flag in zip(self.blocks, self.flags):
            body = "{" + ",".join(str(x) for x in sorted(block, reverse=True)) + "}"
            parts.append(f"_{body}_" if flag else body)
        return " > ".join(parts)

    def to_json_dict(self) -> dict:
        return {
            "blocks": [sorted(block, reverse=True) for block in self.blocks],
            "flags": list(self.flags),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "OrderedBipartition":
        try:
            return cls(data["blocks"], data["flags"])
        except (KeyError, TypeError, ValueError, InvalidBipartition) as exc:
            raise InvalidBipartition(f"malformed bipartition object: {data!r} ({exc})")


def _induced_edges(
    blocks: tuple[frozenset[int], ...], flags: tuple[int, ...]
) -> frozenset[Pair]:
    """Each block's pairs into every later block, and an underlined block's
    pairs within itself."""
    edges = set()
    for i, (block, flag) in enumerate(zip(blocks, flags)):
        for later in blocks[i + 1 :]:
            edges.update(itertools.product(block, later))
        if flag:
            edges.update(itertools.product(block, block))
    return frozenset(edges)


def from_ordered_bipartition(bp: OrderedBipartition) -> Relation:
    """Build the relation a bipartition induces.

    The blocks must partition 1..n exactly, where n is the largest letter
    mentioned.
    """
    letters = sorted(x for block in bp.blocks for x in block)
    if not letters:
        raise InvalidBipartition("empty bipartition")
    n = letters[-1]
    if letters != list(range(1, n + 1)):
        raise InvalidBipartition(
            f"blocks must partition 1..{n} exactly, got letters {letters}"
        )
    return Relation(n, _induced_edges(bp.blocks, bp.flags))


def to_ordered_bipartition(relation: Relation) -> OrderedBipartition | None:
    """Recover the inducing bipartition, or None when there is none.

    Under a bipartition a letter's out-row is every later block, plus its own
    block when that block is underlined, so rows shrink block by block.  Two
    blocks share a row only when an unflagged block comes right before an
    underlined one, and then only the second carries loops.  Grouping the
    letters by (out-row, loop) thus gives the blocks, and ordering the groups
    by decreasing row, loopless first, gives their order.  The one candidate
    is accepted exactly when the pairs it induces are the relation's edges.
    """
    n = relation.n
    edges = relation.edges
    groups: dict[tuple[frozenset[int], bool], list[int]] = {}
    for x in range(1, n + 1):
        row = frozenset(y for y in range(1, n + 1) if (x, y) in edges)
        groups.setdefault((row, (x, x) in edges), []).append(x)
    keys = sorted(groups, key=lambda key: (-len(key[0]), key[1]))
    blocks = tuple(frozenset(groups[key]) for key in keys)
    flags = tuple(int(loop) for _, loop in keys)
    if _induced_edges(blocks, flags) != edges:
        return None
    return OrderedBipartition(blocks, flags)


def _check_same_alphabet(relation: Relation, alpha: MultiplicityVector) -> None:
    if alpha.n != relation.n:
        raise AlphabetMismatch(
            f"relation is on 1..{relation.n} but alpha has n={alpha.n}"
        )


def decompose(relation: Relation) -> tuple[Relation, Relation, frozenset[int]]:
    """Split U into its symmetric part, asymmetric part, and the symmetric
    part's support letters."""
    symmetric = frozenset(
        (x, y) for (x, y) in relation.edges if (y, x) in relation.edges
    )
    asymmetric = relation.edges - symmetric
    support = frozenset(x for (x, y) in symmetric)
    return (
        Relation(relation.n, symmetric),
        Relation(relation.n, asymmetric),
        support,
    )


@dataclass(frozen=True)
class EssentialWitness:
    """A loop adjustment making a relation bipartitional.

    removed_loops / added_loops name letters (all of multiplicity 1) whose
    loop was deleted from / inserted into the relation; bipartition is the
    ordered bipartition of the adjusted relation.
    """

    removed_loops: frozenset[int]
    added_loops: frozenset[int]
    bipartition: OrderedBipartition


def is_essentially_bipartitional(
    relation: Relation, alpha: MultiplicityVector
) -> EssentialWitness | None:
    """Find a loop adjustment on multiplicity-1 letters that makes the
    relation bipartitional.

    Only the loops of the free letters F = {x : alpha_x = 1} may change
    (letters outside F keep their loops as given).  The witness is the
    variant a scan of every loop assignment to F would meet first, scanning
    in binary-counter order with bit b for the b-th smallest letter of F
    (bit set meaning loop present, so all-loops-absent comes first), and it
    is found without the scan:

    * the variants agree on every pair of distinct letters, and those pairs
      fix a bipartitional relation's blocks and their order: two letters
      share a block exactly when both or neither of their pairs are present,
      and pairs across blocks run from the earlier block to the later.  So
      every bipartitional variant has the same blocks in the same order;
    * a free letter in a block of two or more letters must carry the
      block's flag, which its internal pairs fix: loop present exactly when
      some other letter has edges to and from it;
    * a free letter alone in its block is valid either way, since flipping a
      one-letter block's flag toggles only its loop, and it has no such
      partner, since pairs across blocks run one way only.

    The valid assignments thus form a product, and the first one scanned
    gives each free letter a loop exactly when it has such a partner; if
    that variant is not bipartitional, none is.  The answer takes one
    to_ordered_bipartition call, so |F| needs no cap.
    """
    _check_same_alphabet(relation, alpha)
    free = [x for x in range(1, relation.n + 1) if alpha.count_of(x) == 1]
    edges = relation.edges
    present = {
        x
        for x in free
        if any(
            (x, y) in edges and (y, x) in edges
            for y in range(1, relation.n + 1)
            if y != x
        )
    }
    variant = (edges - {(x, x) for x in free}) | {(x, x) for x in present}
    bp = to_ordered_bipartition(Relation(relation.n, variant))
    if bp is None:
        return None
    removed = frozenset(x for x in free if (x, x) in edges and x not in present)
    added = frozenset(x for x in present if (x, x) not in edges)
    return EssentialWitness(removed, added, bp)


def effective_core(relation: Relation, alpha: MultiplicityVector) -> Relation:
    """Drop loops on letters occurring at most once in the class.

    Such a loop can never pair two copies of its letter, so no statistic on
    the class can see it; predicates about statistics should look at the
    core, not the raw edge set.
    """
    _check_same_alphabet(relation, alpha)
    ineffective = {
        (x, x)
        for x in range(1, relation.n + 1)
        if alpha.count_of(x) <= 1 and (x, x) in relation.edges
    }
    return Relation(relation.n, relation.edges - ineffective)


def satisfies_sorting_conditions(
    relation: Relation, alpha: MultiplicityVector
) -> tuple[bool, list[str]]:
    """Decide the block conditions under which the sorting index joins the
    inversion/major-index equidistribution.

    Loops on letters of multiplicity <= 1 are discarded first (see
    effective_core).  The remaining relation must then (1) be bipartitional
    with no underlined block, (2) contain only descending pairs x > y,
    (3) have every block before the last of size at most 2, and (4) give the
    larger letter of any two-letter block before the last multiplicity
    exactly 1.

    Returns (ok, reasons) with one message per violated condition.
    """
    reasons = _sorting_bipartition(relation, alpha)[1]
    return (not reasons, reasons)


def _sorting_bipartition(
    relation: Relation, alpha: MultiplicityVector
) -> tuple[OrderedBipartition | None, list[str]]:
    """The effective core's bipartition (None when it has none) and the
    violated sorting conditions, so a caller needing both computes the
    bipartition once."""
    core = effective_core(relation, alpha)

    reasons = []
    bp = to_ordered_bipartition(core)
    if bp is None:
        reasons.append("condition 1: not bipartitional (ignoring loops on letters of multiplicity <= 1)")
    elif any(bp.flags):
        reasons.append("condition 1: has an underlined block")
    bad_edges = sorted((x, y) for (x, y) in core.edges if x <= y)
    if bad_edges:
        reasons.append(
            f"condition 2: non-descending pairs {bad_edges} (x > y required)"
        )
    if bp is not None and not any(bp.flags):
        for i, block in enumerate(bp.blocks[:-1]):
            if len(block) > 2:
                reasons.append(
                    f"condition 3: block {i + 1} has {len(block)} letters (at most 2 allowed before the last)"
                )
            elif len(block) == 2 and alpha.count_of(max(block)) != 1:
                reasons.append(
                    f"condition 4: letter {max(block)} of two-letter block {i + 1} "
                    f"has multiplicity {alpha.count_of(max(block))} (must be 1)"
                )
    return bp, reasons


def relation_to_json_dict(relation: Relation) -> dict:
    return {"n": relation.n, "edges": [list(p) for p in relation.sorted_edges()]}


def relation_from_json_dict(data: dict) -> Relation:
    try:
        return Relation.from_pairs(data["n"], data["edges"])
    except (KeyError, TypeError, ValueError, InvalidArguments) as exc:
        raise InvalidArguments(f"malformed relation object: {data!r} ({exc})")


def relation_to_text(relation: Relation) -> str:
    """One "x y" pair per line."""
    return "\n".join(f"{x} {y}" for x, y in relation.sorted_edges())


def relation_from_text(text: str, n: int | None = None) -> Relation:
    """Parse "x y" pairs separated by ';' or line breaks, e.g. "5 3;5 2";
    n defaults to the largest letter mentioned."""
    pairs = []
    for chunk in text.replace(";", "\n").splitlines():
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            x, y = (int(part) for part in chunk.split())
        except ValueError:
            raise InvalidArguments(
                f"cannot parse relation pair {chunk!r} (expected 'x y' integers)"
            )
        pairs.append((x, y))
    if n is None:
        if not pairs:
            raise InvalidArguments("empty relation text needs an explicit alphabet size")
        n = max(max(x, y) for x, y in pairs)
    return Relation(n, frozenset(pairs))
