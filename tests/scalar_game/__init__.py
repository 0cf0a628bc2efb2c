"""The scalar round game G_Al / G_Al+ (paper Section IV): the test oracle.

The runtime reads the round game from a scheme's pool tables over int8
action arrays (:class:`repro.scenarios.dynamics.RoundGame`), and the
audits and streamed dynamics read the same tables through the deviation
kernel (:mod:`repro.schemes.deviation`).  This package keeps the game's
literal reading, player by player over dictionaries, for the suite to
check those against: ``tests/properties/test_round_game_differential.py``
holds ``RoundGame`` to it bit for bit, and ``tests/oracles.py`` builds
its population oracles on it.

Modules
-------
game
    :class:`~scalar_game.game.AlgorandGame`, its players, the block
    success model and the Foundation / role-based reward rules.
equilibrium
    The exact Nash check, best responses, Lemma 1 and Theorems 1-3 as
    executable checks.

It imports ``repro`` only.  Tests import it as ``scalar_game`` (the
suite's root directory is on ``sys.path`` through its ``conftest.py``);
the benchmark scripts add ``tests/`` to ``sys.path``.
"""
