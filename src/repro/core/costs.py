"""The Algorand cost model (paper Section III-A, Tables I and II).

Every protocol task carries a cost, quantified in Algos.  Each node incurs

* a **fixed cost** ``c_fix = c_ve + c_se + c_so + c_go + c_vs + c_vc``
  (paper Eq. 1) regardless of role, and
* a **role-based cost** on top (paper Eq. 2):

  ====================  =======================
  role                  per-round cost
  ====================  =======================
  leader ``l_j``        ``c_fix + c_bl``
  committee ``m_j``     ``c_fix + c_bs + c_vo``
  other online ``k_j``  ``c_fix``
  ====================  =======================

The paper's evaluation (Section V-A) uses the aggregates
``c_L = 16``, ``c_M = 12``, ``c_K = 6`` and ``c_so = 5`` micro-Algos;
:func:`TaskCosts.paper_defaults` provides a granular breakdown consistent
with those aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

#: One micro-Algo, the unit the paper quotes costs in.
MICRO_ALGO = 1e-6


@dataclass(frozen=True)
class TaskCosts:
    """Per-task costs in Algos (paper Table II).

    Attributes map one-to-one to the paper's cost symbols:
    ``verification`` = c_ve, ``seed_generation`` = c_se,
    ``sortition`` = c_so, ``proof_verification`` = c_vs,
    ``block_proposal`` = c_bl, ``gossip`` = c_go,
    ``block_selection`` = c_bs, ``vote`` = c_vo,
    ``vote_counting`` = c_vc.
    """

    verification: float
    seed_generation: float
    sortition: float
    proof_verification: float
    block_proposal: float
    gossip: float
    block_selection: float
    vote: float
    vote_counting: float

    def __post_init__(self) -> None:
        for name, value in self.__dict__.items():
            if value < 0:
                raise ConfigurationError(f"task cost {name} must be >= 0, got {value}")

    @staticmethod
    def paper_defaults() -> "TaskCosts":
        """A granular breakdown consistent with the paper's aggregates.

        Sums to ``c_fix = 6``, ``c_L = 16``, ``c_M = 12``, ``c_K = 6`` and
        ``c_so = 5`` micro-Algos (paper Section V-A).
        """
        return TaskCosts(
            verification=0.2 * MICRO_ALGO,
            seed_generation=0.2 * MICRO_ALGO,
            sortition=5.0 * MICRO_ALGO,
            proof_verification=0.2 * MICRO_ALGO,
            block_proposal=10.0 * MICRO_ALGO,
            gossip=0.2 * MICRO_ALGO,
            block_selection=2.0 * MICRO_ALGO,
            vote=4.0 * MICRO_ALGO,
            vote_counting=0.2 * MICRO_ALGO,
        )

    @property
    def fixed(self) -> float:
        """c_fix = c_ve + c_se + c_so + c_go + c_vs + c_vc (paper Eq. 1)."""
        return (
            self.verification
            + self.seed_generation
            + self.sortition
            + self.gossip
            + self.proof_verification
            + self.vote_counting
        )

    @property
    def leader(self) -> float:
        """c_L = c_fix + c_bl (paper Eq. 2)."""
        return self.fixed + self.block_proposal

    @property
    def committee(self) -> float:
        """c_M = c_fix + c_bs + c_vo (paper Eq. 2)."""
        return self.fixed + self.block_selection + self.vote

    @property
    def online(self) -> float:
        """c_K = c_fix (paper Eq. 2)."""
        return self.fixed


@dataclass(frozen=True)
class RoleCosts:
    """The aggregate per-role costs the game analysis works with.

    Attributes
    ----------
    leader / committee / online:
        c_L, c_M, c_K — per-round cost of full cooperation in each role.
    sortition:
        c_so — the cost even a defecting node pays to stay eligible
        (paper Section III-C).
    """

    leader: float
    committee: float
    online: float
    sortition: float

    def __post_init__(self) -> None:
        if min(self.leader, self.committee, self.online, self.sortition) < 0:
            raise ConfigurationError("role costs must be non-negative")
        if self.sortition > self.online:
            raise ConfigurationError(
                f"c_so ({self.sortition}) cannot exceed c_K ({self.online}): "
                "sortition is part of every online node's fixed cost"
            )
        if self.online > self.committee or self.committee > self.leader:
            raise ConfigurationError(
                "expected cost ordering c_K <= c_M <= c_L, got "
                f"c_K={self.online}, c_M={self.committee}, c_L={self.leader}"
            )

    @staticmethod
    def from_tasks(tasks: TaskCosts) -> "RoleCosts":
        """Aggregate per-task costs into per-role totals (Eqs. 1-2)."""
        return RoleCosts(
            leader=tasks.leader,
            committee=tasks.committee,
            online=tasks.online,
            sortition=tasks.sortition,
        )

    @staticmethod
    def paper_defaults() -> "RoleCosts":
        """c_L=16, c_M=12, c_K=6, c_so=5 micro-Algos (paper Section V-A)."""
        return RoleCosts(
            leader=16.0 * MICRO_ALGO,
            committee=12.0 * MICRO_ALGO,
            online=6.0 * MICRO_ALGO,
            sortition=5.0 * MICRO_ALGO,
        )

    def of_role(self, role: str) -> float:
        """Cooperation cost of a role named ``'leader'|'committee'|'online'``."""
        try:
            return {"leader": self.leader, "committee": self.committee, "online": self.online}[
                role
            ]
        except KeyError:
            raise ConfigurationError(f"unknown role {role!r}") from None
