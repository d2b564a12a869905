"""Engine exception hierarchy.

Two branches matter for robustness handling:

* :class:`TransientError` — the operation failed for a reason that a
  retry (possibly after a backoff) can plausibly fix: a dropped
  app-server/DB connection, a transient disk I/O error, a statement
  killed by a timeout.  The DBIF and the disk model retry these.
* :class:`PermanentError` — retrying is pointless: malformed SQL,
  unknown catalog objects, constraint violations.  These propagate.

Everything still derives from :class:`EngineError`, so existing
``except EngineError`` sites keep working unchanged; ``EngineError``
itself derives from :class:`repro.errors.ReproError`, the one type the
command line maps to exit status 2.

Durability adds two WAL-specific members with deliberate placement:

* :class:`TornWriteError` is *transient* — a torn (truncated) frame on
  the log **tail** is the expected signature of a crash mid-flush, and
  recovery handles it by dropping the tail record.
* :class:`WalCorruptionError` is *permanent* — a CRC mismatch in the
  middle of the log means durable history is damaged; no retry or
  recovery pass can reconstruct it.
* :class:`SimulatedCrash` derives from :class:`EngineError` directly,
  on purpose outside both branches: a crash kills the whole engine
  process, so neither the disk retry loop nor the DBIF backoff ladder
  may swallow it.
"""

from repro.errors import ReproError


class EngineError(ReproError):
    """Base class for all engine errors."""


class TransientError(EngineError):
    """An error a retry can plausibly fix (fault-injection class)."""


class PermanentError(EngineError):
    """An error retrying cannot fix; must propagate to the caller."""


class SimulatedCrash(EngineError):
    """The simulated engine process died (crash-point fuzzing).

    Deliberately neither transient nor permanent: no in-process retry
    handler is allowed to catch-and-continue past a dead engine.  The
    harness discards the instance and reopens from the durable store.
    """


# -- transient branch -------------------------------------------------------

class DiskIOError(TransientError):
    """A page transfer failed (simulated media/controller hiccup)."""


class ConnectionLostError(TransientError):
    """The app-server <-> RDBMS connection dropped mid-round-trip."""


class StatementTimeout(TransientError):
    """A statement/query exceeded its simulated-time deadline."""


class CircuitOpenError(TransientError):
    """The DBIF circuit breaker is open: the call failed fast.

    Raised instead of attempting a round trip while the breaker cools
    down after a fault storm, so a dead backend sheds load immediately
    rather than dragging every caller through the full retry/backoff
    ladder.  Transient by definition — the breaker half-opens once its
    cooldown elapses."""


class TornWriteError(TransientError):
    """A WAL frame on the log tail is truncated (torn write).

    The classic crash-mid-flush signature: the length prefix promises
    more bytes than the device persisted, or the CRC of the final frame
    does not match.  Transient because recovery resolves it without
    data loss — the torn record was never acknowledged as committed."""


# -- permanent branch -------------------------------------------------------

class SqlSyntaxError(PermanentError):
    """Raised by the lexer/parser on malformed SQL text."""


class CatalogError(PermanentError):
    """Unknown or duplicate table/view/index/column."""


class PlanError(PermanentError):
    """The planner could not produce a plan (unsupported construct)."""


class ExecutionError(PermanentError):
    """Runtime failure while executing a plan."""


class TypeError_(PermanentError):
    """Value incompatible with a column's declared SQL type."""


class ConstraintError(PermanentError):
    """Primary-key or not-null violation."""


class WalCorruptionError(PermanentError):
    """A WAL frame *before* the log tail fails CRC validation.

    Unlike a torn tail, mid-log corruption means acknowledged history
    is gone; replaying past the hole would silently diverge, so the
    error is permanent and recovery refuses to proceed."""
