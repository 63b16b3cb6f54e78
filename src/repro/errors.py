"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still distinguishing configuration mistakes from protocol failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A parameter is out of its valid domain (e.g. k < 1, delta <= 0)."""


class GraphError(ReproError):
    """A graph operation received an inconsistent or unknown vertex/edge."""


class ClusteringError(ReproError):
    """A k-clustering request cannot be satisfied.

    Raised, for example, when the host vertex's connected component holds
    fewer than k users, so no valid cluster exists at any connectivity.
    """


class BoundingError(ReproError):
    """A secure-bounding protocol failed to converge or was misconfigured."""


class ProtocolError(ReproError):
    """A message-level protocol violated its state machine.

    This covers malformed replies, deadlocks detected by the concurrency
    controller, and exhausted retry budgets under failure injection.
    """


class DatasetError(ReproError):
    """A dataset could not be generated, parsed, or normalised."""


class PersistError(ReproError):
    """Durable state could not be written, read, or restored.

    Raised by :mod:`repro.persist` for corrupt snapshots, unsupported
    format versions, engines whose configuration is not restorable
    (custom policy callables, reliability-mode snapshots of older
    engines), and
    stores with no snapshot to restore from.  A *torn journal tail* is
    NOT an error — the write-ahead log is truncated at the first
    incomplete record by design.
    """


class ServiceError(ReproError):
    """The sharded cloaking service failed outside any single request.

    Raised by :mod:`repro.service` for unsupported configurations (a
    clustering flavor whose global state cannot be served shard-locally),
    dead or unresponsive shard workers, and requests routed to a worker
    that does not own the host.
    """


class ServiceOverload(ServiceError):
    """The service's bounded admission queue is full.

    Explicit backpressure: a request arriving while the configured
    number of requests is already in flight is *rejected* with this
    typed error — never silently dropped, never left to queue unboundedly.
    Clients are expected to retry after backoff.
    """


class WireFormatError(ServiceError):
    """A wire frame violated the length-prefixed JSON protocol.

    Covers frames whose declared length exceeds the hard cap
    (:class:`FrameTooLarge`), connections that end mid-frame
    (:class:`TruncatedFrame`), payloads that are not valid JSON objects,
    and frames missing required fields.  A connection ending *between*
    frames is a clean close, not an error.
    """


class FrameTooLarge(WireFormatError):
    """A frame declared a length beyond the protocol's hard cap."""


class TruncatedFrame(WireFormatError):
    """The peer vanished in the middle of a length-prefixed frame."""


class VerificationError(ReproError):
    """An exact oracle or transcript audit found an inconsistency.

    Raised by :mod:`repro.verify` when an oracle is asked something
    outside its exact regime (e.g. brute-force enumeration beyond its
    vertex cap) or when a replayed transcript contradicts itself.  An
    *invariant violation* over a fuzzed world is reported as data, not an
    exception — see :mod:`repro.verify.invariants`.
    """
