"""The gossip peer-to-peer network (paper Sections II-B2 and III-C).

Messages travel the overlay of :func:`repro.sim.network.build_random_overlay`.
A message injected at a node is processed locally and then relayed hop by
hop: every node that sees a message for the first time processes it and —
if its behaviour relays gossip — forwards it to its own neighbours after a
sampled per-hop delay.  Duplicate deliveries are suppressed by message id.

Two knobs model network synchrony (paper Definitions 2 and 3):

* ``delay_scale`` multiplies every hop delay; raising it simulates the
  asynchronous periods of the weak-synchrony assumption, and
* ``drop_probability`` loses individual hops.

The overlay also implements Algorand's priority-based relay filtering: once
a node has seen a credential or proposal with a better (lower) priority for
the current round, it stops relaying worse proposals, which is how Algorand
bounds proposal floods (paper Section II-B2, Credential messages).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Protocol, Set

from repro.errors import NetworkError

from des.engine import EventEngine
from des.messages import BlockProposalMessage, CredentialMessage, Message


class GossipParticipant(Protocol):
    """What the network needs from a node object."""

    node_id: int

    def on_receive(self, message: Message, now: float) -> bool:
        """Process a first-time delivery; return True to relay the message."""

    @property
    def relays_gossip(self) -> bool:
        """Whether this node forwards gossip at all (behaviour-dependent)."""

    @property
    def is_online(self) -> bool:
        """Offline nodes neither receive nor send."""


@dataclass
class NetworkStats:
    """Counters for traffic accounting (used by cost metrics and tests)."""

    messages_injected: int = 0
    deliveries: int = 0
    duplicates_suppressed: int = 0
    drops: int = 0
    relay_filtered: int = 0
    per_kind_deliveries: Dict[str, int] = field(default_factory=dict)

    def record_delivery(self, kind: str) -> None:
        """Count one delivered message of ``kind``."""
        self.deliveries += 1
        self.per_kind_deliveries[kind] = self.per_kind_deliveries.get(kind, 0) + 1


class GossipNetwork:
    """Event-driven gossip dissemination over a fixed random overlay."""

    def __init__(
        self,
        engine: EventEngine,
        neighbors: Dict[int, List[int]],
        delay_sampler: Callable[[], float],
        drop_probability: float = 0.0,
        drop_rng=None,
    ) -> None:
        if drop_probability and drop_rng is None:
            raise NetworkError("drop_probability > 0 requires a drop_rng")
        self._engine = engine
        self._neighbors = neighbors
        self._delay_sampler = delay_sampler
        self._drop_probability = drop_probability
        self._drop_rng = drop_rng
        self._participants: Dict[int, GossipParticipant] = {}
        self._seen: Dict[int, Set[int]] = {node_id: set() for node_id in neighbors}
        #: Best (lowest) proposal priority seen per node for the current
        #: round; used for credential-based relay filtering.
        self._best_priority: Dict[int, float] = {}
        self.stats = NetworkStats()
        self.delay_scale = 1.0

    # -- registration ------------------------------------------------------

    def register(self, participant: GossipParticipant) -> None:
        """Attach a participant to the overlay (id must be a topology node)."""
        node_id = participant.node_id
        if node_id not in self._neighbors:
            raise NetworkError(f"node {node_id} is not part of the overlay")
        self._participants[node_id] = participant

    def neighbors_of(self, node_id: int) -> List[int]:
        """The overlay neighbors of one node."""
        try:
            return list(self._neighbors[node_id])
        except KeyError:
            raise NetworkError(f"unknown node {node_id}") from None

    def participant(self, node_id: int) -> GossipParticipant:
        """The registered participant behind ``node_id``."""
        try:
            return self._participants[node_id]
        except KeyError:
            raise NetworkError(f"node {node_id} is not registered") from None

    # -- round lifecycle ----------------------------------------------------

    def begin_round(self) -> None:
        """Reset per-round relay-filter state (priorities are per round)."""
        self._best_priority.clear()

    def reset_seen(self) -> None:
        """Forget seen-message ids (between independent simulations)."""
        for seen in self._seen.values():
            seen.clear()

    # -- dissemination -------------------------------------------------------

    def broadcast(self, origin_id: int, message: Message) -> None:
        """Inject ``message`` at ``origin_id``: process locally, then gossip.

        The origin always processes its own message (a node knows what it
        sent); forwarding to peers only happens when the origin is online.
        """
        origin = self.participant(origin_id)
        if not origin.is_online:
            return
        self.stats.messages_injected += 1
        self._mark_seen(origin_id, message)
        origin.on_receive(message, self._engine.now)
        self._note_priority(origin_id, message)
        self._forward(origin_id, message)

    def _deliver(self, target_id: int, message: Message) -> None:
        # Hot path: runs once per gossip delivery (millions per run), so
        # the seen-set/stats/priority bookkeeping of the cold helpers is
        # inlined and message classes are matched exactly (all concrete
        # message types are final in practice).
        target = self._participants.get(target_id)
        if target is None or not target.is_online:
            return
        stats = self.stats
        seen = self._seen[target_id]
        if message.message_id in seen:
            stats.duplicates_suppressed += 1
            return
        seen.add(message.message_id)
        stats.deliveries += 1
        per_kind = stats.per_kind_deliveries
        kind = message.kind
        per_kind[kind] = per_kind.get(kind, 0) + 1
        relay_wanted = target.on_receive(message, self._engine.now)
        cls = message.__class__
        carries_priority = cls is BlockProposalMessage or cls is CredentialMessage
        if carries_priority:
            priority = message.priority
            best = self._best_priority.get(target_id)
            if best is None or priority < best:
                self._best_priority[target_id] = priority
        if not relay_wanted or not target.relays_gossip:
            return
        if cls is BlockProposalMessage:
            best = self._best_priority.get(target_id)
            if best is not None and message.priority > best:
                stats.relay_filtered += 1
                return
        self._forward(target_id, message)

    def _forward(self, from_id: int, message: Message) -> None:
        # Hot path: one closure + one heap push per gossip hop, millions per
        # run.  The constant label (rather than a per-hop f-string), the
        # locally bound engine/sampler, and the validation-free
        # ``post_after`` keep per-hop overhead minimal.
        post_after = self._engine.post_after
        sampler = self._delay_sampler
        scale = self.delay_scale
        deliver = self._deliver
        if self._drop_probability:
            drop_random = self._drop_rng.random
            for neighbor_id in self._neighbors[from_id]:
                if drop_random() < self._drop_probability:
                    self.stats.drops += 1
                    continue
                post_after(
                    sampler() * scale, partial(deliver, neighbor_id, message)
                )
            return
        for neighbor_id in self._neighbors[from_id]:
            post_after(sampler() * scale, partial(deliver, neighbor_id, message))

    def _mark_seen(self, node_id: int, message: Message) -> None:
        self._seen[node_id].add(message.message_id)

    # -- priority-based relay filtering --------------------------------------

    def _note_priority(self, node_id: int, message: Message) -> None:
        priority = self._message_priority(message)
        if priority is None:
            return
        best = self._best_priority.get(node_id)
        if best is None or priority < best:
            self._best_priority[node_id] = priority

    @staticmethod
    def _message_priority(message: Message) -> Optional[float]:
        if isinstance(message, (BlockProposalMessage, CredentialMessage)):
            return message.priority
        return None
