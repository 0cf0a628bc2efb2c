"""The built-in scenario families, registered on the registry's first use.

* ``uniform-baseline`` — the paper's own setup: U(1, 50) stakes, best
  response with inertia, defection seeded in the online pool.  Also runs
  the vectorized round kernel (:mod:`repro.sim.fastpath`) each epoch for
  realized finalization.
* ``whale-dominated`` — a small fraction of players hold N(2000, 25)
  whale stakes; sortition concentrates roles on whales and the analytic
  optimizer must recalibrate the split.
* ``stake-churn`` — stakes take lognormal steps and a fraction resample
  each epoch, stressing a reward budget calibrated once at epoch 0.
* ``adaptive-adversary`` — an adversary controls a fraction of players
  and each epoch plays the coalition move that hurts the honest-but-
  selfish population most.
* ``defection-wave`` — a large initial wave of defectors seeded anywhere
  (synchrony set included): probes the cooperative profile's basin of
  attraction, where *both* schemes may collapse.
* ``heavytail-zipf`` — exchange-scale Zipf stakes referenced from the
  :mod:`repro.populations` registry (family + params by name, resolved
  at run time): a whale-dominated heavy tail stressing the minimum-stake
  bound.
* ``replicator-mix`` — replicator dynamics instead of best response:
  strategies spread by relative average payoff, with a small trembling
  term keeping extinct strategies reachable.
"""

from __future__ import annotations

from repro.scenarios.registry import register_scenario
from repro.scenarios.spec import (
    AdversaryPolicy,
    DefectionSeeding,
    ScenarioSpec,
    UpdateRule,
)

register_scenario(
    ScenarioSpec(
        name="uniform-baseline",
        description=(
            "U(1,50) stakes, inertial best response, defection seeded in the "
            "online pool; realized rewards measured in the simulator"
        ),
        simulate_rounds=2,
    )
)

register_scenario(
    ScenarioSpec(
        name="whale-dominated",
        description=(
            "10% of players hold N(2000,25) whale stakes; roles concentrate "
            "on whales and the split is recalibrated by Algorithm 1"
        ),
        stake_kind="whale_mix",
        whale_fraction=0.10,
    )
)

register_scenario(
    ScenarioSpec(
        name="stake-churn",
        description=(
            "per-epoch lognormal stake drift plus 10% resampling against a "
            "reward budget calibrated once at epoch 0"
        ),
        churn_rate=0.10,
        stake_drift=0.05,
        reward_headroom=3.0,
    )
)

register_scenario(
    ScenarioSpec(
        name="adaptive-adversary",
        description=(
            "an adversary controls 12.5% of players and plays the coalition "
            "move minimizing the strategic population's welfare each epoch"
        ),
        adversary_fraction=0.125,
        adversary_policy=AdversaryPolicy.GREEDY_HARM,
        expect_separation=False,
    )
)

register_scenario(
    ScenarioSpec(
        name="defection-wave",
        description=(
            "45% initial defection seeded anywhere, synchrony set included: "
            "outside the cooperative basin both schemes may collapse"
        ),
        initial_cooperation=0.55,
        seed_defection_in=DefectionSeeding.ANYWHERE,
        expect_separation=False,
    )
)

register_scenario(
    ScenarioSpec(
        name="heavytail-zipf",
        description=(
            "exchange-scale Zipf stakes referenced from the populations "
            "registry: a whale-dominated heavy tail with many minimum-stake "
            "minnows stresses the Theorem 3 minimum-stake bound"
        ),
        population="zipf",
        population_params={"exponent": 1.8, "scale": 4.0},
        # The heavy tail concentrates sortition on whales and pushes the
        # calibrated budget far above the uniform case; the paper's clean
        # separation is not guaranteed here, which is the point.
        expect_separation=False,
    )
)

register_scenario(
    ScenarioSpec(
        name="replicator-mix",
        description=(
            "replicator dynamics: strategies spread by relative average "
            "payoff with a 2% trembling term"
        ),
        update_rule=UpdateRule.REPLICATOR,
        steps_per_epoch=1,
        replicator_mutation=0.02,
    )
)
