"""R/3 layer exception hierarchy."""

from repro.errors import ReproError


class R3Error(ReproError):
    """Base class for R/3 simulator errors."""


class DDicError(R3Error):
    """Data-dictionary problem (unknown table, bad definition)."""


class OpenSqlError(R3Error):
    """Open SQL statement rejected (syntax or version feature gate)."""


class NativeSqlError(R3Error):
    """EXEC SQL rejected (e.g. touches an encapsulated table)."""


class BatchInputError(R3Error):
    """A batch-input transaction failed its consistency checks."""


class DispatcherOverload(R3Error):
    """The dispatcher refused a request at admission time.

    Raised when the bounded dispatcher queue is full, or when a
    low-priority request (the update stream) arrives while queue
    occupancy is past the shed high-water mark.  ``shed`` distinguishes
    the two: ``False`` means the queue was simply full (rejection),
    ``True`` means admission control chose to shed the request to
    protect dialog traffic.
    """

    def __init__(self, message: str, *, shed: bool = False) -> None:
        super().__init__(message)
        self.shed = shed


class WorkProcessCrash(R3Error):
    """An injected app-server work-process crash.

    Raised at transaction boundaries by the fault injector; everything
    the crashed process did since its last checkpoint is rolled back
    before the exception propagates, so a caller that catches it can
    resume from the journal.
    """

