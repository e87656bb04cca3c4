"""Exception hierarchy shared by all surfaut modules."""


class SurfautError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(SurfautError, ValueError):
    """Malformed textual input (letters, words, automorphisms, generator words)."""


class SignatureMismatch(SurfautError, ValueError):
    """Operands live over different (g, p) signatures."""


class IndexOutOfRange(SurfautError, ValueError):
    """A generator name is invalid for the ambient signature."""


class NotACandidate(SurfautError, ValueError):
    """Word fails the length/letter-multiset preconditions of the extended graph."""


class NotZieschang(SurfautError, ValueError):
    """Word is not a Zieschang element."""


class TargetTooLong(SurfautError, ValueError):
    """Image of the source word exceeds the chain length bound."""


class NotInStabilizer(SurfautError, ValueError):
    """Automorphism does not fix the distinguished element required here."""


class ImageEscapes(SurfautError, RuntimeError):
    """A basis image leaves the free factor it provably must lie in (caller bug)."""


class HypothesisViolated(SurfautError, ValueError):
    """Certification preconditions (relator fixed, classes permuted) fail."""


class NotInA(SurfautError, ValueError):
    """Automorphism is not a member of the relator-stabilizing group."""


class ReductionStuck(SurfautError, RuntimeError):
    """Peak reduction cannot make progress; signals a non-automorphism input.

    ``not_injective`` marks the stop at measured images that coincide: every
    Nielsen move is an automorphism, so the map reduced is not injective, a
    verdict on the input of ``nielsen_reduce`` and an engine fault where the
    engine built the map."""

    def __init__(self, message, *, k=None, triple=None, not_injective=False):
        super().__init__(message)
        self.k = k
        self.triple = triple
        self.not_injective = not_injective


class CosetViolation(SurfautError, RuntimeError):
    """A concrete verification of a constructive step failed, for example a
    telescoped base loop landed outside the coset its case table promises."""
