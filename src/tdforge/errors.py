"""Exception types shared across the package."""

from __future__ import annotations


class TdforgeError(Exception):
    """Base class for errors raised by this package."""


def count_text(n: int) -> str:
    """n for a one-line message: its digits up to 2^200, past that a power
    of two it is at least (str() refuses past 4300 digits)."""
    if n.bit_length() <= 200:
        return str(n)
    return f"at least 2^{n.bit_length() - 1}"


class SizeExceeded(TdforgeError):
    """A requested construction would materialize more vertices than the cap allows.

    Carries the exact total so callers can report it even when it is huge.
    """

    def __init__(self, total: int, cap: int, what: str = "construction"):
        self.total = total
        self.cap = cap
        super().__init__(f"{what} needs {count_text(total)} vertices, cap is {cap}")


class ScheduleTooLarge(TdforgeError):
    """A schedule value or construction size is too large to materialize.

    The doubly exponential height recursion leaves the representable range
    after a few levels (at k=1 the fourth height already has ~10^78 digits),
    and sizes grow exponentially in a level or height, so values past the
    guard cannot be held in memory at all.
    """


class StructureViolation(TdforgeError):
    """A structural invariant of the reflected-tree recursion failed.

    Raised by the matching construction when a spanning tree does not split
    the way every spanning tree provably must (for example when neither or
    both copy restrictions are connected).
    """


class HypothesisViolated(TdforgeError):
    """A lower-bound check was invoked on inputs outside its hypotheses."""


class CertificateRejected(HypothesisViolated):
    """A certificate failed verification; carries the failed CertificateCheck."""

    def __init__(self, check):
        self.check = check
        super().__init__(f"certificate does not verify: {check.reasons}")


class CertificateContradiction(TdforgeError):
    """A verified certificate and a valid anchored decomposition disagree.

    This means a matching edge has neither endpoint in the hub bag, which the
    certificate construction rules out; reaching it indicates a bug, not bad
    input.
    """


class ReductionInvalid(TdforgeError):
    """The anchoring reduction produced an invalid decomposition.

    Only possible for toy schedules. Carries the validation report describing
    which condition broke and where.
    """

    def __init__(self, report):
        self.report = report
        super().__init__(f"reduction output is not a valid decomposition: {report}")


class HostNotSpanning(TdforgeError):
    """The induced host of the anchoring reduction is not a spanning tree.

    Cannot happen for instances built by this package; treated as an internal
    error rather than a user-facing failure mode.
    """


class CapExceeded(TdforgeError):
    """An exact-search routine was asked to exceed its instance-size cap."""

    def __init__(self, size: int, cap: int, what: str = "instance"):
        self.size = size
        self.cap = cap
        super().__init__(f"{what} has size {count_text(size)}, "
                         f"exact search is capped at {cap}")
