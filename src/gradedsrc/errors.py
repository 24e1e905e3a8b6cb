"""Exception hierarchy shared by all modules."""


class GradedSrcError(Exception):
    pass


class MixedRings(GradedSrcError):
    """Operands belong to different coefficient rings or ring descriptors."""


class DivisionByZero(GradedSrcError):
    pass


class NotPrime(GradedSrcError, ValueError):
    """A field characteristic that is not prime: bad input, not a fault."""


class InexactDivision(GradedSrcError):
    """Quotient does not exist in the ring (invariant violation upstream)."""


class FolnerNotFound(GradedSrcError):
    """Budget exhausted without finding a set meeting the ratio bound."""


class InfiniteIndex(GradedSrcError):
    """Subgroup has infinite index; no finite coset classification exists."""


class SetSystemNotFound(GradedSrcError):
    """No admissible set system within the size cap."""


class ConstantPolynomial(GradedSrcError):
    pass


class RetryExhausted(GradedSrcError):
    """Random sampling failed to hit a nonvanishing point."""


class UnexpectedEmptyKernel(GradedSrcError):
    """Lifted system had no kernel despite the row/column count guarantee."""
