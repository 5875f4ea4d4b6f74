"""Exact q-series: polynomials with nonnegative integer coefficients.

Polynomials in q are represented as dense coefficient tuples, constant term
first, with no trailing zeros; the zero polynomial is the empty tuple.  All
arithmetic is exact (Python integers).  The classical q-analogues live here
together with the product formulas for the statistics generating functions
over a rearrangement class.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import ConditionsNotSatisfied, InvalidArguments, InvalidBipartition
from .relations import (
    OrderedBipartition,
    from_ordered_bipartition,
    satisfies_sorting_conditions,
)
from .words import MultiplicityVector


class QPolynomial:
    """A polynomial in q with coefficients in the nonnegative integers."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[int] = ()):
        coeffs = list(coeffs)
        for c in coeffs:
            # type() rather than isinstance(): bool is an int subclass
            if type(c) is not int or c < 0:
                raise InvalidArguments(f"coefficients must be integers >= 0, got {c!r}")
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("QPolynomial is immutable")

    @classmethod
    def zero(cls) -> "QPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "QPolynomial":
        return cls((1,))

    @classmethod
    def monomial(cls, power: int, coefficient: int = 1) -> "QPolynomial":
        if type(power) is not int or power < 0:
            raise InvalidArguments(f"monomial power must be an integer >= 0, got {power!r}")
        return cls((0,) * power + (coefficient,))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial conventionally at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if isinstance(other, QPolynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == ((other,) if other else ())
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "QPolynomial") -> "QPolynomial":
        if not isinstance(other, QPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPolynomial(out)

    def __mul__(self, other) -> "QPolynomial":
        if isinstance(other, int):
            if other < 0:
                raise InvalidArguments("scalar must be >= 0")
            return QPolynomial(tuple(c * other for c in self.coeffs))
        if not isinstance(other, QPolynomial):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return QPolynomial.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return QPolynomial(out)

    __rmul__ = __mul__

    def __call__(self, value: int) -> int:
        result = 0
        for c in reversed(self.coeffs):
            result = result * value + c
        return result

    def __repr__(self) -> str:
        return f"QPolynomial({list(self.coeffs)!r})"

    def render(self) -> str:
        """Human form, e.g. "1 + 2*q + 3*q^2"; the zero polynomial is "0"."""
        if self.is_zero():
            return "0"
        terms = []
        for power, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if power == 0:
                terms.append(str(c))
            else:
                q = "q" if power == 1 else f"q^{power}"
                terms.append(q if c == 1 else f"{c}*{q}")
        return " + ".join(terms)

    def to_json_dict(self) -> dict:
        return {"coeffs": list(self.coeffs)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "QPolynomial":
        try:
            return cls(data["coeffs"])
        except (KeyError, TypeError, ValueError, InvalidArguments) as exc:
            raise InvalidArguments(f"malformed polynomial object: {data!r} ({exc})")


def q_binomial(n: int, k: int) -> QPolynomial:
    """Gaussian binomial coefficient, by the q-Pascal recurrence."""
    if type(n) is not int or type(k) is not int:
        raise InvalidArguments(f"n and k must be integers, got n={n!r}, k={k!r}")
    if n < 0 or k < 0 or k > n:
        raise InvalidArguments(f"need 0 <= k <= n, got n={n}, k={k}")
    # row[j] along Pascal rows; entry (i, j) = (i-1, j-1) + q^j * (i-1, j)
    row = [QPolynomial.one()]
    for i in range(1, n + 1):
        new = [QPolynomial.one()]
        for j in range(1, min(i, k) + 1):
            prev_left = row[j - 1]
            prev_right = row[j] if j < len(row) else None
            entry = prev_left
            if prev_right is not None:
                entry = entry + QPolynomial.monomial(j) * prev_right
            new.append(entry)
        row = new
    return row[k]


def q_multinomial(parts: Sequence[int]) -> QPolynomial:
    """Gaussian multinomial, as a telescoping product of q-binomials."""
    parts = list(parts)
    if any(type(p) is not int or p < 0 for p in parts):
        raise InvalidArguments(f"parts must be integers >= 0, got {parts!r}")
    result = QPolynomial.one()
    partial = 0
    for p in parts:
        partial += p
        result = result * q_binomial(partial, p)
    return result


def box_partition_counts(j: int, k: int) -> QPolynomial:
    """Size generating function of integer partitions with at most k parts,
    each at most j.

    Computed by a direct partition recurrence (separate a partition by
    whether it has fewer than k parts, or all k parts positive and each can
    be lowered by one), independently of the q-Pascal route.
    """
    if type(j) is not int or type(k) is not int or j < 0 or k < 0:
        raise InvalidArguments(f"box sides must be integers >= 0, got j={j!r}, k={k!r}")
    memo: dict[tuple[int, int], list[int]] = {}

    def counts(j: int, k: int) -> list[int]:
        if j == 0 or k == 0:
            return [1]
        key = (j, k)
        if key not in memo:
            fewer = counts(j, k - 1)
            lowered = counts(j - 1, k)
            out = [0] * (j * k + 1)
            for size, c in enumerate(fewer):
                out[size] += c
            for size, c in enumerate(lowered):
                out[size + k] += c
            memo[key] = out
        return memo[key]

    return QPolynomial(counts(j, k))


def multinomial(parts: Sequence[int]) -> int:
    """Ordinary multinomial coefficient, exactly."""
    result = 1
    partial = 0
    for p in parts:
        if type(p) is not int or p < 0:
            raise InvalidArguments(f"parts must be integers >= 0, got {parts!r}")
        partial += p
        result *= math.comb(partial, p)
    return result


def _block_data(alpha: MultiplicityVector, bp: OrderedBipartition):
    letters = sorted(x for block in bp.blocks for x in block)
    if letters != list(range(1, alpha.n + 1)):
        raise InvalidBipartition(
            f"blocks must partition 1..{alpha.n}, got letters {letters}"
        )
    masses = []
    scalar = 1
    for block in bp.blocks:
        block_counts = [alpha.count_of(x) for x in sorted(block)]
        masses.append(sum(block_counts))
        scalar *= multinomial(block_counts)
    return masses, scalar


def gf_bipartitional(alpha: MultiplicityVector, bp: OrderedBipartition) -> QPolynomial:
    """Common generating function of the inversion and major-index statistics
    over the class, for the relation the bipartition induces.

    The product runs over block masses m_j (total multiplicity inside the
    block): the Gaussian multinomial of the masses, times the plain
    multinomial count of arrangements within each block, shifted by q to the
    number of internal pairs of each underlined block.
    """
    masses, scalar = _block_data(alpha, bp)
    shift = sum(
        math.comb(m, 2) for m, flag in zip(masses, bp.flags) if flag
    )
    return q_multinomial(masses) * scalar * QPolynomial.monomial(shift)


def gf_sorting(alpha: MultiplicityVector, bp: OrderedBipartition) -> QPolynomial:
    """Generating function of the sorting index over the class, for relations
    passing the sorting conditions (no underlined blocks, so no q-shift)."""
    relation = from_ordered_bipartition(bp)
    ok, reasons = satisfies_sorting_conditions(relation, alpha)
    if not ok:
        raise ConditionsNotSatisfied(reasons)
    masses, scalar = _block_data(alpha, bp)
    return q_multinomial(masses) * scalar
