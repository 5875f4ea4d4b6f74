"""Words with prescribed letter multiplicities.

A multiplicity vector alpha = (a_1, ..., a_n) fixes the rearrangement class
of all words over the alphabet {1, ..., n} that use the letter i exactly a_i
times.  The class has |alpha|! / (a_1! ... a_n!) members and is enumerated in
lexicographic order.  Letters with a_i = 0 are legal and simply never occur.

Everything here is exact integer arithmetic; enumeration is streaming, so the
only guard is an explicit cap on the class size (ClassTooLarge), not memory.
A size far past a cap is refused from its math.lgamma estimate alone.  Every
module sizes alphabets through _check_alphabet_size, capped here.  The
sorting worker walks the class of the letters below the top one as
standardized permutations, in place, from the sorted word on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, Sequence

from .errors import (
    ClassTooLarge,
    InvalidArguments,
    LetterOutOfRange,
    MultiplicityMismatch,
)

# Streams larger than this are refused unless the caller raises the cap.
DEFAULT_MAX_CLASS = 10**7

# No alphabet is larger: a relation on n letters can hold n^2 pairs.
MAX_ALPHABET_SIZE = 1000

PRINTABLE_DIGITS = 4300  # str() refuses an integer of more digits


@dataclass(frozen=True)
class MultiplicityVector:
    """Letter multiplicities (a_1, ..., a_n), indexed by letters 1..n."""

    counts: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.counts, tuple):
            object.__setattr__(self, "counts", tuple(self.counts))
        if len(self.counts) < 1:
            raise InvalidArguments("multiplicity vector needs at least one letter")
        for a in self.counts:
            # type() rather than isinstance(): bool is an int subclass
            if type(a) is not int or a < 0:
                raise InvalidArguments(f"multiplicities must be integers >= 0, got {a!r}")

    @property
    def n(self) -> int:
        return len(self.counts)

    @property
    def total(self) -> int:
        return sum(self.counts)

    def count_of(self, letter: int) -> int:
        if not 1 <= letter <= self.n:
            raise LetterOutOfRange(f"letter {letter} outside 1..{self.n}")
        return self.counts[letter - 1]

    @classmethod
    def parse(cls, text: str) -> "MultiplicityVector":
        """Parse the comma-separated form, e.g. "2,1,1,3,1"."""
        try:
            counts = tuple(int(part.strip()) for part in text.split(","))
        except ValueError:
            raise InvalidArguments(f"cannot parse multiplicity vector from {text!r}")
        return cls(counts)

    def render(self) -> str:
        return ",".join(str(a) for a in self.counts)


@dataclass(frozen=True)
class Word:
    """A word together with the rearrangement class it belongs to.

    Instances are assumed consistent; build them through make_word, which
    validates, or take them from rearrangement_class, which constructs only
    valid members.
    """

    letters: tuple[int, ...]
    alpha: MultiplicityVector

    def __len__(self) -> int:
        return len(self.letters)

    def render(self) -> str:
        return render_letters(self.letters, self.alpha.n)


def make_word(letters: Sequence[int], alpha: MultiplicityVector) -> Word:
    """Validate letters against alpha and wrap them in a Word."""
    letters = tuple(letters)
    seen = [0] * alpha.n
    for x in letters:
        if type(x) is not int or not 1 <= x <= alpha.n:
            raise LetterOutOfRange(f"letter {x!r} outside 1..{alpha.n}")
        seen[x - 1] += 1
    if tuple(seen) != alpha.counts:
        raise MultiplicityMismatch(
            f"letter counts {tuple(seen)} do not match multiplicities {alpha.counts}"
        )
    return Word(letters, alpha)


def class_size(alpha: MultiplicityVector) -> int:
    """Number of words in the rearrangement class, exactly."""
    return _multinomial(alpha.counts)


def _multinomial(parts: Sequence[int]) -> int:
    return math.prod(map(math.comb, accumulate(parts), parts))


def _packed_residual(counts: Sequence[int]) -> tuple[list[int], int, int]:
    """(present, f, packed): the letters with a nonzero count, in order, and
    their counts packed one field of f = total.bit_length() bits each, that
    of letter i = 1..len(present) (present[i - 1]) at bit f*i, so placing it
    subtracts 1 << f*i.  Field 0 is free for a label, which f bits hold: no
    more letters are present than copies."""
    present = [x for x, a in enumerate(counts, 1) if a]
    f = sum(counts).bit_length()
    return present, f, sum(counts[x - 1] << f * i for i, x in enumerate(present, 1))


def _check_int(name: str, value) -> None:
    # type() rather than isinstance(): bool is an int subclass
    if type(value) is not int:
        raise InvalidArguments(f"{name} must be an integer, got {value!r}")


def _check_alphabet_size(n) -> None:
    # type() rather than isinstance(): bool is an int subclass
    if type(n) is not int or not 1 <= n <= MAX_ALPHABET_SIZE:
        raise InvalidArguments(
            f"alphabet size must be an integer in 1..{MAX_ALPHABET_SIZE}, got {n!r}"
        )


def _check_class(alpha: MultiplicityVector, max_class: int | None) -> int:
    """The class size, after raising ClassTooLarge when it exceeds max_class
    (None disables the cap)."""
    if max_class is not None:
        _check_int("max_class", max_class)
        past = _digits_past(alpha.counts, max_class)
        if past:
            shown = f"{'a' if past[1] else 'at least a'} {past[0]}-digit number of"
            raise ClassTooLarge(f"class has {shown} words, cap is {max_class}")
    size = class_size(alpha)
    if max_class is not None and size > max_class:
        raise ClassTooLarge(f"class has {size} words, cap is {max_class}")
    return size


def _digits_past(parts: Sequence[int], cap: int = 0) -> tuple[int, bool] | None:
    """(digits, exact) of the multinomial of the parts if past cap and not
    printable, else None.  Its math.lgamma estimate, trusted to 2**-40 of
    the terms, settles all but sizes next to the bound with no product."""
    bound = max(math.log10(max(cap, 1)), PRINTABLE_DIGITS)
    if sum(parts) <= 1e300:  # within float range
        whole, terms = math.lgamma(sum(parts) + 1), sum(math.lgamma(a + 1) for a in parts)
        size, error = (whole - terms) / math.log(10), 1e-9 + (whole + terms) * 2**-40
        if abs(size - bound) > error:  # settled; the digits are exact if pinned
            low = math.floor(size - error)
            return (low + 1, low == math.floor(size + error)) if size > bound else None
    size = _multinomial(parts)
    if size <= max(cap, 10**PRINTABLE_DIGITS - 1):
        return None
    digits = int((size.bit_length() - 1) * math.log10(2)) + 1  # of the top 2^k, or one more
    return digits + (size >= 10**digits), True


def _next_permutation(a: list[int]) -> int:
    # In-place lexicographic successor; the first position changed, -1 at the end.
    i = len(a) - 2
    while i >= 0 and a[i] >= a[i + 1]:
        i -= 1
    if i < 0:
        return -1
    j = len(a) - 1
    while a[j] <= a[i]:
        j -= 1
    a[i], a[j] = a[j], a[i]
    a[i + 1 :] = a[: i : -1]
    return i


def rearrangement_class(
    alpha: MultiplicityVector, max_class: int | None = DEFAULT_MAX_CLASS
) -> Iterator[Word]:
    """Yield every word of the class in lexicographic order.

    Raises ClassTooLarge up front when the class size exceeds max_class
    (pass None to disable the cap).
    """
    # stays a generator function: bench/tracer.py counts the words of a
    # class per next() only on generator functions
    yield from rearrangement_class_range(alpha, 0, _check_class(alpha, max_class))


def unrank_word(alpha: MultiplicityVector, index: int) -> Word:
    """Return the index-th word (0-based) of the lexicographic enumeration."""
    total = class_size(alpha)
    if type(index) is not int or not 0 <= index < total:
        raise InvalidArguments(f"index {index!r} is not an integer in 0..{total - 1}")
    remaining = list(alpha.counts)
    length = alpha.total
    letters = []
    size = total
    for pos in range(length):
        # size == number of completions of the current prefix
        for letter in range(1, alpha.n + 1):
            if remaining[letter - 1] == 0:
                continue
            # completions starting with this letter
            count = size * remaining[letter - 1] // (length - pos)
            if index < count:
                letters.append(letter)
                remaining[letter - 1] -= 1
                size = count
                break
            index -= count
    return Word(tuple(letters), alpha)


def rearrangement_class_range(
    alpha: MultiplicityVector, start: int, stop: int
) -> Iterator[Word]:
    """Yield words with lexicographic ranks in [start, stop)."""
    if start >= stop:
        return
    word = unrank_word(alpha, start)
    current = list(word.letters)
    yield word
    for _ in range(stop - start - 1):
        if _next_permutation(current) < 0:
            break
        yield Word(tuple(current), alpha)


def _standardized_class(alpha: MultiplicityVector) -> Iterator[list]:
    """Yield p for each word w of the class in lexicographic order, one list
    updated in place from the sorted word on: p[h] is the letters below w_h
    plus the copies of w_h before h.  A step relabels from its pivot on, the
    copies of x taking x's top labels."""
    word = [x for x, a in enumerate(alpha.counts, 1) for _ in range(a)]
    ends, p, pivot = [0, *accumulate(alpha.counts)], word[:], 0
    while pivot >= 0:
        top = ends[:]
        for h in range(len(word) - 1, pivot - 1, -1):
            x = word[h]
            top[x] -= 1
            p[h] = top[x]
        yield p
        pivot = _next_permutation(word)


def parse_letters(text: str, n: int | None = None) -> tuple[int, ...]:
    """Parse a word from text.

    Contiguous digits ("143123123") when every letter is a single digit;
    space-separated integers otherwise.  The contiguous form is only legal
    when the alphabet fits in one digit (n <= 9, or n unknown).
    """
    text = text.strip()
    if text == "":
        return ()
    if " " in text:
        try:
            return tuple(int(part) for part in text.split())
        except ValueError:
            raise InvalidArguments(f"cannot parse word from {text!r}")
    if text.isdigit():
        if n is not None and n > 9:
            raise InvalidArguments(
                "contiguous digit form is ambiguous for alphabets larger than 9; "
                "separate letters with spaces"
            )
        return tuple(int(ch) for ch in text)
    raise InvalidArguments(f"cannot parse word from {text!r}")


def render_letters(letters: Sequence[int], n: int) -> str:
    if n <= 9:
        return "".join(str(x) for x in letters)
    return " ".join(str(x) for x in letters)


def infer_alpha(letters: Sequence[int], n: int | None = None) -> MultiplicityVector:
    """Multiplicity vector of a letter sequence, over alphabet 1..n.

    With n omitted, the alphabet is 1..max(letters), and at least 1.
    """
    for x in letters:
        if type(x) is not int:
            raise LetterOutOfRange(f"letter {x!r} is not an integer")
    if n is None:
        n = max([1, *letters])
    _check_alphabet_size(n)
    counts = [0] * n
    for x in letters:
        if not 1 <= x <= n:
            raise LetterOutOfRange(f"letter {x!r} outside 1..{n}")
        counts[x - 1] += 1
    return MultiplicityVector(tuple(counts))
