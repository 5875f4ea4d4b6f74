"""Exact q-series: polynomials with nonnegative integer coefficients.

Polynomials in q are represented as dense coefficient tuples, constant term
first, with no trailing zeros; the zero polynomial is the empty tuple.  All
arithmetic is exact (Python integers).  The classical q-analogues live here
together with the product formulas for the statistics generating functions
over a rearrangement class.

Gaussian coefficients use the product formula [n; k]_q = prod_{i=1..k}
(1 - q^(n-k+i)) / (1 - q^i) (Andrews, *The Theory of Partitions*), one
factor at a time: the first i factors make the polynomial [n-k+i; i]_q, so
every division by 1 - q^i is exact.
"""

from __future__ import annotations

import math
from itertools import accumulate
from operator import sub
from typing import Sequence

from .errors import (
    ConditionsNotSatisfied,
    InvalidArguments,
    InvalidBipartition,
    SizeCapExceeded,
)
from .relations import (
    OrderedBipartition,
    from_ordered_bipartition,
    satisfies_sorting_conditions,
)
from .words import MultiplicityVector, _digits_past, _multinomial


# Largest degree q_multinomial computes: at the cap, equal parts such as
# (5,)*57 or (10,)*29 take about 2 s on 2 CPUs, and (200, 200) takes 1 s.
MAX_QSERIES_DEGREE = 40_000

# Largest box area j*k box_partition_counts fills: its table holds about
# min(j,k)^2 max(j,k) / 2 coefficients, and the square (100, 100) at the cap
# takes about 2 s on 2 CPUs.
MAX_BOX_AREA = 10_000


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
        if type(other) is int:
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
            if type(other) is not int or other < 0:
                raise InvalidArguments(f"scalar must be an integer >= 0, got {other!r}")
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
    """Gaussian binomial [n; k]_q = prod_{i=1..k} (1 - q^(n-k+i)) / (1 - q^i),
    whose partial products [n-k+i; i]_q are polynomials: the two-part
    ``q_multinomial``, which runs over the shorter side."""
    if type(n) is not int or type(k) is not int:
        raise InvalidArguments(f"n and k must be integers, got n={n!r}, k={k!r}")
    if n < 0 or k < 0 or k > n:
        raise InvalidArguments(f"need 0 <= k <= n, got n={n}, k={k}")
    return q_multinomial((n - k, k))


def _check_degree(parts: Sequence[int], shift: int = 0) -> None:
    """Raise when q^shift times the Gaussian multinomial of the parts, of
    degree shift + sum_{i<j} p_i p_j, is past ``MAX_QSERIES_DEGREE``."""
    degree = shift + (sum(parts) ** 2 - sum(p * p for p in parts)) // 2
    if degree > MAX_QSERIES_DEGREE:
        raise SizeCapExceeded(
            f"q-series degree {degree} exceeds the cap {MAX_QSERIES_DEGREE}"
        )


def _check_size(parts: Sequence[int]) -> None:
    """Raise when the multinomial of the parts (for a class's counts its size,
    bounding every coefficient) has more than PRINTABLE_DIGITS digits."""
    past = _digits_past(parts)
    if past:
        digits = f"{'' if past[1] else 'at least '}{past[0]}"
        raise SizeCapExceeded(f"class size has {digits} digits, too many to print")


def q_multinomial(parts: Sequence[int]) -> QPolynomial:
    """Gaussian multinomial, as a telescoping product of q-binomials.

    Parts join largest first.  A part p joining mass s applies the
    k = min(p, s) factors (1 - q^(s+p-k+i)) / (1 - q^i) of [s+p; k]_q: a
    shift and subtract, then a division by prefix sums along each residue
    mod i, exact because the list becomes the prefix multinomial times the
    polynomial [s+p-k+i; i]_q.  A degree sum_{i<j} p_i p_j above
    ``MAX_QSERIES_DEGREE`` raises before any work.
    """
    parts = list(parts)
    if any(type(p) is not int or p < 0 for p in parts):
        raise InvalidArguments(f"parts must be integers >= 0, got {parts!r}")
    _check_degree(parts)
    _check_size(parts)
    coeffs = [1]
    mass = 0
    for p in sorted(parts, reverse=True):
        k = min(p, mass)
        base = mass + p - k
        for i in range(1, k + 1):
            shift = base + i
            coeffs += [0] * shift
            coeffs[shift:] = map(sub, coeffs[shift:], coeffs[:-shift])
            for r in range(i):
                coeffs[r::i] = accumulate(coeffs[r::i])
            del coeffs[-i:]
        mass += p
    return QPolynomial(coeffs)


def box_partition_counts(j: int, k: int) -> QPolynomial:
    """Size generating function of integer partitions with at most k parts,
    each at most j.

    Computed by a direct partition recurrence (separate a partition by
    whether it has fewer than k parts, or all k parts positive and each can
    be lowered by one), filled row by row over the number of parts,
    independently of the product formula.  Conjugation swaps the sides, so
    the table runs over the shorter one.  An area j*k above
    ``MAX_BOX_AREA`` raises before any work.
    """
    if type(j) is not int or type(k) is not int or j < 0 or k < 0:
        raise InvalidArguments(f"box sides must be integers >= 0, got j={j!r}, k={k!r}")
    if j * k > MAX_BOX_AREA:
        raise SizeCapExceeded(f"box area {j}*{k} exceeds the cap {MAX_BOX_AREA}")
    j, k = min(j, k), max(j, k)
    # row[b] counts partitions into at most `parts` parts, each at most b
    row = [[1] for _ in range(j + 1)]
    for parts in range(1, k + 1):
        for b in range(1, j + 1):
            out = row[b] + [0] * b
            for size, c in enumerate(row[b - 1]):
                out[size + parts] += c
            row[b] = out
    return QPolynomial(row[j])


def multinomial(parts: Sequence[int]) -> int:
    """Ordinary multinomial coefficient, exactly."""
    if any(type(p) is not int or p < 0 for p in parts):
        raise InvalidArguments(f"parts must be integers >= 0, got {parts!r}")
    return _multinomial(parts)


def _block_data(alpha: MultiplicityVector, bp: OrderedBipartition):
    letters = sorted(x for block in bp.blocks for x in block)
    if letters != list(range(1, alpha.n + 1)):
        raise InvalidBipartition(
            f"blocks must partition 1..{alpha.n}, got letters {letters}"
        )
    counts = [[alpha.count_of(x) for x in sorted(block)] for block in bp.blocks]
    masses = [sum(block_counts) for block_counts in counts]
    shift = sum(math.comb(m, 2) for m, flag in zip(masses, bp.flags) if flag)
    _check_degree(masses, shift)
    _check_size(alpha.counts)  # the multinomial of the masses times scalar
    scalar = math.prod(map(multinomial, counts))
    return masses, scalar, shift


def gf_bipartitional(alpha: MultiplicityVector, bp: OrderedBipartition) -> QPolynomial:
    """Common generating function of the inversion and major-index statistics
    over the class, for the relation the bipartition induces.

    The product runs over block masses m_j (total multiplicity inside the
    block): the Gaussian multinomial of the masses, times the plain
    multinomial count of arrangements within each block, shifted by q to the
    number of internal pairs of each underlined block.  A degree, shift
    included, above ``MAX_QSERIES_DEGREE`` raises before any work.
    """
    masses, scalar, shift = _block_data(alpha, bp)
    return QPolynomial((0,) * shift + (q_multinomial(masses) * scalar).coeffs)


def gf_sorting(alpha: MultiplicityVector, bp: OrderedBipartition) -> QPolynomial:
    """Generating function of the sorting index over the class, for relations
    passing the sorting conditions (no underlined blocks, so no q-shift)."""
    relation = from_ordered_bipartition(bp)
    ok, reasons = satisfies_sorting_conditions(relation, alpha)
    if not ok:
        raise ConditionsNotSatisfied(reasons)
    masses, scalar, _ = _block_data(alpha, bp)
    return q_multinomial(masses) * scalar
