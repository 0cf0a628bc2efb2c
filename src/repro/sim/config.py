"""Simulation configuration and validation.

All tunables of the Algorand protocol simulator live here.  Defaults
follow the paper where it states values (5 gossip neighbours, 20-second vote
timeout scaled down, committee thresholds from Gilad et al.) and are scaled
to simulator-sized networks elsewhere; the analytic modules in
:mod:`repro.core` use the paper's full-scale constants independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.errors import ConfigurationError

#: Vote-count thresholds as a fraction of the expected committee size
#: (Gilad et al., SOSP'17, Section 5).
DEFAULT_T_STEP = 0.685
DEFAULT_T_FINAL = 0.74

#: Expected committee sizes, in sub-users, used by the *full-scale* analytic
#: model (paper Section V-B: S_M = S_STEP * (2 + 1) + S_FINAL * 1).
PAPER_TAU_PROPOSER = 26
PAPER_TAU_STEP = 1_000
PAPER_TAU_FINAL = 10_000

#: The simulation engines a job or shard key may name.  Only the
#: vectorized round kernel runs in the library; keys keep the field so
#: existing cache and memo keys stay valid.
SIMULATION_BACKENDS = ("fast",)


def check_backend(label: str, value: object) -> str:
    """``value`` if it names a simulation engine, else a ConfigurationError.

    Every surface that carries a backend (the fig3, scenario and
    tournament configs, scenario specs, and the CLI / service field)
    checks it here, so a retired ``"des"`` gets one answer everywhere.
    """
    if value not in SIMULATION_BACKENDS:
        raise ConfigurationError(
            f"{label} must be 'fast', got {value!r}: the vectorized round "
            "kernel is the only simulation engine; the per-message "
            "discrete-event simulator is its test oracle (tests/des), not a "
            "backend"
        )
    return value


@dataclass
class SimulationConfig:
    """Parameters of one Algorand simulation run.

    Attributes
    ----------
    n_nodes:
        Network size.  The paper's Figure 3 simulations are run on networks
        whose exact size is unstated; the defection cascade is scale-free.
    seed:
        Root seed for every random substream; equal configs reproduce runs
        bit-for-bit.
    gossip_fanout:
        Out-degree of the gossip overlay.  Paper Section III-C: "each node
        sends the messages to 5 other nodes that are randomly selected".
    delay_min / delay_max:
        Uniform per-hop message latency bounds (simulated seconds).
    drop_probability:
        Probability that any single gossip hop is lost; models degraded
        synchrony.
    delay_scale:
        Multiplier applied to all hop delays; > 1 simulates asynchronous
        network periods (paper Definitions 2 and 3).
    proposal_wait:
        Time nodes wait collecting block proposals before Reduction starts.
    step_timeout:
        Per-voting-step window; the scaled-down analogue of Algorand's
        20-second vote timeout (paper Section III-A, c_vo discussion).
    tau_proposer / tau_step / tau_final:
        Expected sortition committee sizes in sub-users for the proposer,
        step and final roles.
    t_step / t_final:
        Vote-count thresholds as fractions of tau.
    max_binary_steps:
        BinaryBA* step budget; the paper quotes an 11-step average bound.
    seed_refresh_interval:
        Rounds between security refreshes of the sortition seed (R).
    stakes:
        Optional explicit stake vector (length ``n_nodes``).  When ``None``
        the simulation samples U(1, 50) as in paper Section III-C.
    stake_low / stake_high:
        Bounds of the default uniform stake distribution.
    defection_rate:
        Fraction of nodes behaving as defective honest-but-selfish nodes
        (online, sortition only, no tasks).
    malicious_rate / offline_rate:
        Fractions of byzantine and faulty nodes for robustness experiments.
    """

    n_nodes: int = 100
    seed: int = 0
    gossip_fanout: int = 5
    delay_min: float = 0.05
    delay_max: float = 0.30
    drop_probability: float = 0.0
    delay_scale: float = 1.0
    proposal_wait: float = 2.0
    step_timeout: float = 1.5
    tau_proposer: float = 10.0
    tau_step: float = 40.0
    tau_final: float = 60.0
    t_step: float = DEFAULT_T_STEP
    t_final: float = DEFAULT_T_FINAL
    max_binary_steps: int = 11
    seed_refresh_interval: int = 100
    stakes: Optional[Sequence[float]] = None
    stake_low: float = 1.0
    stake_high: float = 50.0
    defection_rate: float = 0.0
    malicious_rate: float = 0.0
    offline_rate: float = 0.0
    short_circuit_rounds: bool = True

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on any inconsistent setting."""
        if self.n_nodes < 2:
            raise ConfigurationError(f"need at least 2 nodes, got {self.n_nodes}")
        if self.gossip_fanout < 1:
            raise ConfigurationError(f"gossip fanout must be >= 1, got {self.gossip_fanout}")
        if self.gossip_fanout >= self.n_nodes:
            raise ConfigurationError(
                f"gossip fanout {self.gossip_fanout} must be smaller than "
                f"n_nodes {self.n_nodes}"
            )
        if not 0 <= self.delay_min <= self.delay_max:
            raise ConfigurationError(
                f"need 0 <= delay_min <= delay_max, got [{self.delay_min}, {self.delay_max}]"
            )
        if not 0.0 <= self.drop_probability < 1.0:
            raise ConfigurationError(
                f"drop probability must be in [0, 1), got {self.drop_probability}"
            )
        if self.delay_scale <= 0:
            raise ConfigurationError(f"delay scale must be positive, got {self.delay_scale}")
        if self.proposal_wait <= 0 or self.step_timeout <= 0:
            raise ConfigurationError("proposal_wait and step_timeout must be positive")
        for name in ("tau_proposer", "tau_step", "tau_final"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        for name in ("t_step", "t_final"):
            value = getattr(self, name)
            if not 0.5 < value < 1.0:
                raise ConfigurationError(
                    f"{name} must lie in (0.5, 1.0) for vote-count safety, got {value}"
                )
        if self.max_binary_steps < 3:
            raise ConfigurationError(
                f"max_binary_steps must be >= 3 (one full BinaryBA* iteration), "
                f"got {self.max_binary_steps}"
            )
        if self.seed_refresh_interval <= 0:
            raise ConfigurationError("seed_refresh_interval must be positive")
        if self.stakes is not None and len(self.stakes) != self.n_nodes:
            raise ConfigurationError(
                f"stakes vector has length {len(self.stakes)}, expected {self.n_nodes}"
            )
        if self.stakes is not None and any(s <= 0 for s in self.stakes):
            raise ConfigurationError("all stakes must be positive")
        if not 0 < self.stake_low <= self.stake_high:
            raise ConfigurationError(
                f"need 0 < stake_low <= stake_high, got [{self.stake_low}, {self.stake_high}]"
            )
        rates = {
            "defection_rate": self.defection_rate,
            "malicious_rate": self.malicious_rate,
            "offline_rate": self.offline_rate,
        }
        for name, rate in rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {rate}")
        # Tolerate float dust: three rates of ~1/3 each legitimately sum to
        # 1.0000000000000002 (mirrors behavior.RATE_TOLERANCE).
        if sum(rates.values()) > 1.0 + 1e-9:
            raise ConfigurationError(
                f"behaviour rates sum to {sum(rates.values()):.3f} > 1"
            )

    def total_step_count(self) -> int:
        """Total number of voting-step windows in one round (reduction + binary)."""
        return 2 + self.max_binary_steps

    def round_duration(self) -> float:
        """Worst-case simulated duration of one round."""
        return self.proposal_wait + self.total_step_count() * self.step_timeout

    def with_overrides(self, **overrides: object) -> "SimulationConfig":
        """Return a copy of this config with the given fields replaced."""
        from dataclasses import replace

        return replace(self, **overrides)
