"""The fault-tolerant protocol runtime (paper Section VII, future work).

"Communication failures during the clustering or bounding process should
also be concerned, and a balance must be struck between robustness and
efficiency."  This module is that balance, made explicit:

* :class:`ReliabilityPolicy` — the knob.  Off by default: wherever a
  policy is accepted, ``None`` runs the failure-oblivious code path.
* :class:`ReliableTransport` — per-message timeouts with capped
  exponential backoff and deterministic jitter, sequence-numbered
  retransmissions (the network replays cached answers instead of
  re-invoking handlers — see
  :meth:`~repro.network.simulator.PeerNetwork.attempt`), and a failure
  detector that declares a peer crashed after enough consecutive
  exhausted retry budgets.
* :class:`ProtocolAbort` — the one clean exit.  When graceful
  degradation cannot preserve the k-anonymity guarantee (too many peers
  evicted, the host itself unreachable, no convergence), protocols raise
  this typed abort instead of hanging or returning an undersized
  cluster.  The reason codes below are the complete vocabulary.

Timeouts are *simulated*: the synchronous network either delivers or
loses a message immediately, so "a timeout" is the event of a lost leg
and the backoff delay is accumulated into :attr:`ReliableTransport
.simulated_delay` rather than slept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.errors import ConfigurationError, ProtocolError
from repro.network.simulator import MessageDropped, PeerCrashed, PeerNetwork
from repro.obs import names as metric
from repro.obs import trace as _trace

# -- abort reason codes (the complete vocabulary) ---------------------------------

#: Fewer than k reachable users remain after evictions.
ABORT_BELOW_K = "below_k"
#: The requesting host itself is unreachable or failed mid-protocol.
ABORT_HOST_FAILED = "host_failed"
#: Transient message loss persisted beyond every retry and re-formation.
ABORT_MESSAGE_LOSS = "message_loss"
#: The eviction/re-formation budget ran out before the cluster settled.
ABORT_REFORM_BUDGET = "reform_budget_exhausted"
#: A bounding run failed to converge within its iteration ceiling.
ABORT_NO_CONVERGENCE = "no_convergence"

#: Every reason a :class:`ProtocolAbort` may carry.
ABORT_REASONS = frozenset(
    {
        ABORT_BELOW_K,
        ABORT_HOST_FAILED,
        ABORT_MESSAGE_LOSS,
        ABORT_REFORM_BUDGET,
        ABORT_NO_CONVERGENCE,
    }
)


class ProtocolAbort(ProtocolError):
    """A protocol gave up *cleanly*: typed reason, no partial state.

    Raised only by the fault-tolerant runtime, and only after graceful
    degradation failed — the registry holds nothing from the aborted
    request, and the caller can inspect ``reason`` (one of
    :data:`ABORT_REASONS`), the requesting ``host``, and the peers that
    were ``evicted`` along the way.
    """

    def __init__(
        self,
        reason: str,
        detail: str,
        host: int | None = None,
        evicted: frozenset[int] | set[int] = frozenset(),
    ) -> None:
        if reason not in ABORT_REASONS:
            raise ConfigurationError(f"unknown abort reason {reason!r}")
        super().__init__(f"[{reason}] {detail}")
        self.reason = reason
        self.detail = detail
        self.host = host
        self.evicted = frozenset(evicted)


def abort(
    reason: str,
    detail: str,
    host: int | None = None,
    evicted: frozenset[int] | set[int] = frozenset(),
) -> ProtocolAbort:
    """Build a :class:`ProtocolAbort`, counting it through obs.

    Every raise site routes through here so ``protocol.aborts`` counts
    exactly the typed clean exits, never stray exceptions — and so each
    abort lands in the flight recorder attributed to its request.
    """
    if obs.enabled():
        obs.inc(metric.PROTOCOL_ABORTS)
    recorder = _trace._recorder
    if recorder is not None:
        recorder.record(
            _trace.EVT_ABORT, reason=reason, detail=detail, host=host,
            evicted=sorted(evicted),
        )
    return ProtocolAbort(reason, detail, host=host, evicted=evicted)


@dataclass(frozen=True, slots=True)
class ReliabilityPolicy:
    """How hard the runtime fights failures before degrading.

    Parameters
    ----------
    max_attempts:
        Transmissions per logical call (1 original + retries).
    base_delay / backoff_factor / max_delay:
        Capped exponential backoff: retry ``i`` waits
        ``min(base_delay * backoff_factor**i, max_delay)`` simulated
        seconds before resending.
    jitter:
        Uniform jitter fraction applied to each delay (``0.1`` spreads a
        delay over ±10%), decorrelating retry storms.  Deterministic per
        ``seed``.
    crash_after:
        Consecutive exhausted retry budgets against one peer before the
        failure detector declares it crashed.
    max_reforms:
        Cluster re-formations (after an eviction or persistent loss) and
        bounding restarts allowed per request before a clean abort.
    seed:
        Seed of the jitter RNG; the same policy replays identically.
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    backoff_factor: float = 2.0
    max_delay: float = 1.0
    jitter: float = 0.1
    crash_after: int = 3
    max_reforms: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay <= 0.0 or self.max_delay < self.base_delay:
            raise ConfigurationError(
                f"need 0 < base_delay <= max_delay, got "
                f"{self.base_delay}/{self.max_delay}"
            )
        if self.backoff_factor < 1.0:
            raise ConfigurationError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigurationError(f"jitter must be in [0, 1), got {self.jitter}")
        if self.crash_after < 1:
            raise ConfigurationError(
                f"crash_after must be >= 1, got {self.crash_after}"
            )
        if self.max_reforms < 0:
            raise ConfigurationError(
                f"max_reforms must be >= 0, got {self.max_reforms}"
            )

    def delay(self, attempt: int, rng: np.random.Generator) -> float:
        """Backoff before re-sending attempt ``attempt + 1`` (jittered)."""
        raw = min(self.base_delay * self.backoff_factor**attempt, self.max_delay)
        if self.jitter == 0.0:
            return raw
        spread = self.jitter * raw
        return float(raw + rng.uniform(-spread, spread))


class ReliableTransport:
    """Retrying, deduplicating, crash-detecting call layer.

    Duck-types the calling surface of :class:`PeerNetwork` (``call`` /
    ``knows`` / ``stats``), so every protocol written against the plain
    network runs unmodified over the reliable transport.  Each logical
    call gets a fresh sequence number shared by all its retransmissions,
    which is what lets the recipient deduplicate redelivered requests.

    The failure detector is per-transport state: a peer that exhausts
    ``crash_after`` consecutive retry budgets is *suspected* and every
    later call to it fails fast with :class:`PeerCrashed` — feeding the
    protocol layer's eviction logic without wasting further messages.
    """

    def __init__(self, network: PeerNetwork, policy: ReliabilityPolicy) -> None:
        self._network = network
        self._policy = policy
        self._rng = np.random.default_rng(policy.seed)
        self._suspected: set[int] = set()
        self._consecutive_failures: dict[int, int] = {}
        self._seq = 0
        self.retries = 0
        self.simulated_delay = 0.0

    @property
    def stats(self):  # noqa: ANN201 - MessageStats, mirrors PeerNetwork
        """The wrapped network's traffic counters."""
        return self._network.stats

    @property
    def policy(self) -> ReliabilityPolicy:
        """The policy this transport enforces."""
        return self._policy

    @property
    def suspected(self) -> frozenset[int]:
        """Peers the failure detector has declared crashed."""
        return frozenset(self._suspected)

    def knows(self, peer: int) -> bool:
        """True if ``peer`` is registered on the wrapped network."""
        return self._network.knows(peer)

    def call(
        self,
        sender: int,
        recipient: int,
        kind: str,
        payload: object = None,
        response_size: float = 1.0,
        retries: "int | None" = None,
    ) -> object:
        """One logical call under the reliability policy.

        ``retries`` is accepted for surface compatibility but ignored:
        the policy's ``max_attempts`` governs.  Raises
        :class:`PeerCrashed` for dead or suspected peers and
        :class:`MessageDropped` when the budget runs out below the
        suspicion threshold.
        """
        if recipient in self._suspected:
            raise PeerCrashed(
                f"peer {recipient} is suspected crashed", peer=recipient
            )
        recording = obs.enabled()
        if recording:
            obs.inc(metric.NETWORK_CALLS)
        self._seq += 1
        seq = self._seq
        policy = self._policy
        for attempt in range(policy.max_attempts):
            try:
                result = self._network.attempt(
                    sender, recipient, kind, payload, response_size, seq=seq
                )
            except PeerCrashed:
                self._suspect(recipient, recording)
                raise
            except MessageDropped:
                if attempt + 1 < policy.max_attempts:
                    delay = policy.delay(attempt, self._rng)
                    self.simulated_delay += delay
                    self.retries += 1
                    if recording:
                        obs.inc(metric.NETWORK_RETRIES)
                        obs.inc(metric.NETWORK_BACKOFF_SECONDS, delay)
                    recorder = _trace._recorder
                    if recorder is not None:
                        recorder.record(
                            _trace.EVT_RETRY, peer=recipient, kind=kind,
                            attempt=attempt + 1, backoff=delay,
                        )
                continue
            self._consecutive_failures.pop(recipient, None)
            return result
        failures = self._consecutive_failures.get(recipient, 0) + 1
        self._consecutive_failures[recipient] = failures
        if failures >= policy.crash_after:
            self._suspect(recipient, recording)
            raise PeerCrashed(
                f"peer {recipient} declared crashed after {failures} "
                f"consecutive calls of {policy.max_attempts} lost attempts each",
                peer=recipient,
            )
        raise MessageDropped(
            f"call {kind!r} from {sender} to {recipient} lost after "
            f"{policy.max_attempts} attempt(s) with backoff",
            peer=recipient,
        )

    def _suspect(self, peer: int, recording: bool) -> None:
        if peer not in self._suspected:
            self._suspected.add(peer)
            if recording:
                obs.inc(metric.NETWORK_PEERS_SUSPECTED)
            recorder = _trace._recorder
            if recorder is not None:
                recorder.record(_trace.EVT_PEER_SUSPECTED, peer=peer)
