"""Exception types shared across the package."""


class MahonianError(Exception):
    """Base class for all errors raised by this package."""


class LetterOutOfRange(MahonianError):
    """A word uses a letter outside the alphabet 1..n."""


class MultiplicityMismatch(MahonianError):
    """A word's letter counts do not match the declared multiplicity vector."""


class ClassTooLarge(MahonianError):
    """A rearrangement class exceeds the configured class-size cap."""


class AlphabetMismatch(MahonianError):
    """Two arguments disagree about the alphabet size n."""


class InvalidBipartition(MahonianError):
    """Blocks overlap, miss letters, or flags are malformed."""


class SizeCapExceeded(MahonianError):
    """Input is larger than the cap of an exact exponential search."""


class InvalidArguments(MahonianError):
    """Arguments are structurally invalid (bad ranges, bad parse, ...)."""


class ConditionsNotSatisfied(MahonianError):
    """A relation/bipartition fails the preconditions of the requested
    construction.  ``reasons`` lists one message per violated condition."""

    def __init__(self, reasons):
        self.reasons = list(reasons)
        super().__init__("; ".join(self.reasons))


class InvalidCode(MahonianError):
    """A code violates the shape or bound constraints for its class."""


class UniverseTooLarge(MahonianError):
    """A relation-universe sweep exceeds the configured alphabet cap."""
