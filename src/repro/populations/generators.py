"""Heavy-tailed population generator families and the empirical loader.

The paper's evaluation draws stakes from uniform and truncated-normal
distributions (Section V-B); real exchange-scale populations are heavy
tailed — IRS (Liao, Golab & Zahedi 2023) and the axiomatic block-reward
framework (Chen, Papadimitriou & Roughgarden 2019) both analyze mechanisms
under Zipf/Pareto-like stake concentration.  This module is the generator
catalog behind :class:`~repro.populations.spec.PopulationSpec`:

* ``zipf`` — discrete Zipf draws, the classic heavy-tailed "many
  minnows, few whales" profile (see below),
* ``pareto`` — continuous Pareto with a hard minimum stake,
* ``lognormal`` — a median/sigma-parameterized lognormal,
* ``uniform`` / ``normal`` — bridges over the paper's own
  :mod:`repro.stakes.distributions` catalog (normal truncation by
  resampling, exactly as in Figure 6), and
* ``exchange_snapshot`` — an empirical loader: bootstrap-resamples stakes
  from a snapshot file, e.g. one written by :func:`snapshot_from_exchange`
  after running the Section V-B exchange churn simulator.

Every family is a *builder*: ``params -> sampler(rng, size)``.  Samplers
are i.i.d. across agents, which is what lets
:class:`~repro.populations.spec.PopulationSpec` synthesize agents
per seed block and guarantee chunk-size-independent output.

The zipf draws are exactly numpy's ``Generator.zipf``, computed with
array operations instead of its one-draw-at-a-time C loop
(:func:`zipf_draws`).  That loop is a rejection sampler: each trial reads
two doubles from the generator (``U01``, then ``V``), sets ``U = U01 *
Umin + (1 - U01)``, ``X = floor(pow(U, -1 / am1))`` and ``T = pow(1 +
1 / X, am1)``, rejects ``X`` outside ``[1, 2**63]`` and accepts when
``V * X * (T - 1) / (b - 1) <= T / b``.  So draw *i* is the ``X`` of the
*i*-th accepted pair of consecutive doubles, and ``rng.random`` yields
those doubles in the same order.  The replay evaluates a batch of pairs
with the same IEEE operations in the same operand order; only ``pow``
can differ, because numpy's vectorized ``power`` may round the last ulp
differently from the libm ``pow`` the C loop calls.  A trial whose
``floor`` or acceptance test lies within a relative 2**-40 of its
decision boundary (far more than an ulp) is therefore re-run with
``math.pow``, libm's ``pow``, applied element by element; every other
trial's decisions cannot depend on that ulp.  Afterwards the generator
stands where ``Generator.zipf`` leaves it: exactly two doubles per trial
consumed, any buffered ``uint32`` kept.  numpy's shortcut for exponents
of 1025 and more (every draw is 1, nothing is read) is kept too.  The
tests in ``tests/populations/test_zipf_replay.py`` hold the values and
the stream state to the installed numpy's ``Generator.zipf``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.stakes import distributions
from repro.stakes.distributions import _require_finite as _require_finite_params

#: A bound sampler: ``(rng, size) -> float64 stake vector``.
PopulationSampler = Callable[[np.random.Generator, int], np.ndarray]

#: A family builder: validates parameters, returns a bound sampler.
FamilyBuilder = Callable[..., PopulationSampler]


@dataclass(frozen=True)
class PopulationFamily:
    """One registered generator family.

    Attributes
    ----------
    name / description:
        Registry identity and a one-line story for docs and tables.
    builder:
        Parameter-validating factory producing a bound sampler.
    defaults:
        The complete parameter schema with default values; a request may
        override any subset, and unknown keys are a configuration error.
    """

    name: str
    description: str
    builder: FamilyBuilder
    defaults: Mapping[str, Any]

    def sampler(self, params: Optional[Mapping[str, Any]] = None) -> PopulationSampler:
        """Bind ``params`` (validated against the schema) into a sampler."""
        merged = dict(self.defaults)
        if params:
            unknown = sorted(set(params) - set(self.defaults))
            if unknown:
                raise ConfigurationError(
                    f"family {self.name!r} does not accept parameters {unknown}; "
                    f"valid parameters: {sorted(self.defaults)}"
                )
            merged.update(params)
        return self.builder(**merged)


_FAMILIES: Dict[str, PopulationFamily] = {}


def population_family(
    name: str, description: str, defaults: Optional[Mapping[str, Any]] = None
) -> Callable[[FamilyBuilder], FamilyBuilder]:
    """Class-less registration decorator for generator family builders."""

    def register(builder: FamilyBuilder) -> FamilyBuilder:
        if name in _FAMILIES:
            raise ConfigurationError(f"population family {name!r} already registered")
        _FAMILIES[name] = PopulationFamily(
            name=name,
            description=description,
            builder=builder,
            defaults=dict(defaults or {}),
        )
        return builder

    return register


def get_family(name: str) -> PopulationFamily:
    """Look a generator family up by name."""
    try:
        return _FAMILIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown population family {name!r}; choose from {family_names()}"
        ) from None


def family_names() -> List[str]:
    """All registered family names, in registration order."""
    return list(_FAMILIES)


def resolve_sampler(
    family: str, params: Optional[Mapping[str, Any]] = None
) -> PopulationSampler:
    """Resolve ``(family, params)`` into a bound, validated sampler."""
    return get_family(family).sampler(params)


def _require_finite(family: str, **values: float) -> None:
    """Reject non-finite (nan/inf) family parameters with a clear error.

    Thin context wrapper over the shared validator in
    :mod:`repro.stakes.distributions` — one invariant, one implementation.
    """
    _require_finite_params(f"family {family!r}", **values)


# -- synthetic families -------------------------------------------------------


@population_family(
    "zipf",
    "discrete Zipf stakes: many minnows, few whales (exchange-scale tail)",
    defaults={"exponent": 2.0, "scale": 1.0},
)
def _zipf_family(exponent: float, scale: float) -> PopulationSampler:
    """Build a Zipf sampler: ``stake = scale * Zipf(exponent)``."""
    _require_finite("zipf", exponent=exponent, scale=scale)
    if exponent <= 1.0:
        raise ConfigurationError(
            f"zipf exponent must exceed 1 (finite mean region starts at 2), "
            f"got {exponent}"
        )
    if scale <= 0.0:
        raise ConfigurationError(f"zipf scale must be positive, got {scale}")

    def sampler(rng: np.random.Generator, size: int) -> np.ndarray:
        draws = zipf_draws(rng, exponent, size)
        draws *= scale  # in place: no second stake-sized array per block
        return draws

    return sampler


#: ``(double) INT64_MAX`` (that is, 2**63): numpy's loop rejects larger draws.
_INT64_MAX = float(np.iinfo(np.int64).max)

#: Relative distance from a decision boundary (a ``floor`` step, or the
#: acceptance threshold) inside which a trial is re-run with libm ``pow``.
#: numpy's vectorized ``power`` may differ from libm in the last ulp;
#: 2**-40 is thousands of ulps wide.
_ZIPF_GUARD = 2.0**-40

_LIBM_POW = np.frompyfunc(math.pow, 2, 1)


def _libm_power(base: np.ndarray, exponent: float) -> np.ndarray:
    """``pow`` element by element through ``math.pow``: libm, as the C loop calls it."""
    return _LIBM_POW(base, exponent).astype(np.float64)


class _ZipfLoop:
    """The constants and the vectorized trials of numpy's ``random_zipf`` loop.

    Each trial reads two doubles, ``U01`` then ``V``, and accepts or
    rejects a candidate ``X``; the operations below are the C loop's, in
    its operand order.
    """

    def __init__(self, exponent: float) -> None:
        self.am1 = exponent - 1.0
        self.b = math.pow(2.0, self.am1)
        self.umin = math.pow(_INT64_MAX, -self.am1)
        self.power = -1.0 / self.am1

    def evaluate(
        self, u01: np.ndarray, v: np.ndarray, power: Callable = np.power
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Candidates, accept flags, and the trials next to a decision boundary."""
        y = u01 * self.umin
        y += 1 - u01
        y = power(y, self.power)
        x = np.floor(y)
        # floor(y) may move if y's last ulp does: y near an integer.
        frac = y - x
        y *= _ZIPF_GUARD
        near = np.minimum(frac, 1.0 - frac, out=frac) <= y
        # Freed early: a block's peak of live temporaries stays mapped in
        # the synthesizing thread's malloc arena, so it shows in peak RSS.
        del y, frac
        valid = (x <= _INT64_MAX) & (x >= 1.0)
        t = 1.0 / x
        t += 1.0
        t = power(t, self.am1)
        vx = v * x
        lhs = t - 1.0
        lhs *= vx
        lhs /= self.b - 1.0
        rhs = t / self.b
        accepted = valid & (lhs <= rhs)
        # An ulp of t moves lhs by about vx * t * ulp / (b - 1): T - 1 cancels.
        lhs -= rhs
        np.abs(lhs, out=lhs)
        vx *= t
        vx /= self.b - 1.0
        vx += rhs
        vx *= _ZIPF_GUARD
        near |= valid & (lhs <= vx)
        return x, accepted, near

    def trials(self, doubles: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Candidates and accept flags of the trials in consecutive double pairs."""
        u01, v = doubles[0::2], doubles[1::2]
        x, accepted, near = self.evaluate(u01, v)
        rerun = np.flatnonzero(near)
        if rerun.size:
            x[rerun], accepted[rerun], _ = self.evaluate(
                u01[rerun], v[rerun], _libm_power
            )
        return x, accepted


def zipf_draws(rng: np.random.Generator, exponent: float, size: int) -> np.ndarray:
    """``rng.zipf(exponent, size)`` as float64, by an array replay of its loop.

    The values and the generator's state afterwards equal
    ``rng.zipf``'s; the module docstring gives the argument.
    """
    # Allocated before the loop's temporaries, so freeing those leaves no
    # hole under the array the caller keeps.
    draws = np.ones(size)
    if exponent >= 1025.0:
        # numpy's shortcut: every draw is 1 and no random number is read.
        return draws
    loop = _ZipfLoop(exponent)
    # `size` trials accept at most `size` values, so all of them are used.
    x, accepted = loop.trials(rng.random(2 * size))
    filled = int(np.count_nonzero(accepted))
    np.compress(accepted, x, out=draws[:filled])
    if filled == size:
        return draws
    # The tail draws past its last accepted trial, then rewinds the stream
    # and re-reads exactly the doubles the used trials took.
    bit_generator = rng.bit_generator
    start = bit_generator.state
    used = 0
    while filled < size:
        missing = size - filled
        batch = missing * size // max(filled, 1) + missing // 4 + 16
        x, accepted = loop.trials(rng.random(2 * batch))
        hits = np.flatnonzero(accepted)[:missing]
        used += int(hits[-1]) + 1 if hits.size == missing else batch
        draws[filled : filled + hits.size] = x[hits]
        filled += hits.size
    bit_generator.state = start
    rng.random(2 * used)
    return draws


@population_family(
    "pareto",
    "continuous Pareto stakes with a hard minimum (Lomax + minimum)",
    defaults={"alpha": 1.5, "minimum": 1.0},
)
def _pareto_family(alpha: float, minimum: float) -> PopulationSampler:
    """Build a Pareto sampler: ``stake = minimum * (1 + Lomax(alpha))``."""
    _require_finite("pareto", alpha=alpha, minimum=minimum)
    if alpha <= 0.0:
        raise ConfigurationError(f"pareto alpha must be positive, got {alpha}")
    if minimum <= 0.0:
        raise ConfigurationError(f"pareto minimum must be positive, got {minimum}")

    def sampler(rng: np.random.Generator, size: int) -> np.ndarray:
        return (rng.pareto(alpha, size) + 1.0) * minimum

    return sampler


@population_family(
    "lognormal",
    "lognormal stakes parameterized by median and log-space sigma",
    defaults={"median": 50.0, "sigma": 1.0},
)
def _lognormal_family(median: float, sigma: float) -> PopulationSampler:
    """Build a lognormal sampler with the given median and shape."""
    _require_finite("lognormal", median=median, sigma=sigma)
    if median <= 0.0:
        raise ConfigurationError(f"lognormal median must be positive, got {median}")
    if sigma <= 0.0:
        raise ConfigurationError(f"lognormal sigma must be positive, got {sigma}")
    mu = math.log(median)

    def sampler(rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.lognormal(mu, sigma, size)

    return sampler


@population_family(
    "uniform",
    "the paper's U(low, high) stakes (Section V-B)",
    defaults={"low": 1.0, "high": 200.0},
)
def _uniform_family(low: float, high: float) -> PopulationSampler:
    """Bridge to :func:`repro.stakes.distributions.uniform`."""
    _require_finite("uniform", low=low, high=high)
    return distributions.uniform(low, high).sampler


@population_family(
    "normal",
    "the paper's truncated-normal stakes (resampled below the minimum)",
    defaults={"mean": 100.0, "std": 10.0, "minimum": 1.0},
)
def _normal_family(mean: float, std: float, minimum: float) -> PopulationSampler:
    """Bridge to :func:`repro.stakes.distributions.truncated_normal`."""
    _require_finite("normal", mean=mean, std=std, minimum=minimum)
    return distributions.truncated_normal(mean, std, minimum).sampler


# -- the empirical exchange-snapshot loader -----------------------------------

#: Loaded snapshot vectors, keyed by ``(absolute path, mtime_ns, size)`` so
#: an overwritten snapshot file is never served stale.
_SNAPSHOT_CACHE: Dict[Tuple[str, int, int], np.ndarray] = {}


def load_snapshot(path: Union[str, Path]) -> np.ndarray:
    """Load an empirical stake snapshot from disk (cached).

    Accepts a JSON array of numbers (``.json``) or a text file with one
    stake per line; values must be positive and finite.  Returns a
    float64 vector.
    """
    target = Path(path)
    if not target.is_file():
        raise ConfigurationError(f"snapshot file {target} does not exist")
    stat = target.stat()
    key = (str(target.resolve()), stat.st_mtime_ns, stat.st_size)
    cached = _SNAPSHOT_CACHE.get(key)
    if cached is not None:
        return cached
    try:
        if target.suffix == ".json":
            values = np.asarray(json.loads(target.read_text()), dtype=np.float64)
        else:
            values = np.loadtxt(target, dtype=np.float64, ndmin=1)
    except (ValueError, TypeError) as exc:
        raise ConfigurationError(f"snapshot file {target} is not numeric: {exc}") from exc
    if values.ndim != 1 or values.size == 0:
        raise ConfigurationError(f"snapshot file {target} must hold a non-empty vector")
    if not np.all(np.isfinite(values)) or float(values.min()) <= 0.0:
        raise ConfigurationError(
            f"snapshot file {target} contains non-positive or non-finite stakes"
        )
    _SNAPSHOT_CACHE[key] = values
    return values


def write_snapshot(path: Union[str, Path], stakes: np.ndarray) -> Path:
    """Write a stake vector as a one-value-per-line snapshot file."""
    values = np.asarray(stakes, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise ConfigurationError("snapshot must be a non-empty 1-D stake vector")
    if not np.all(np.isfinite(values)) or float(values.min()) <= 0.0:
        raise ConfigurationError("snapshot stakes must be positive and finite")
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", encoding="utf-8") as handle:
        for value in values:
            handle.write(f"{float(value)!r}\n")
    return target


def snapshot_from_exchange(
    path: Union[str, Path],
    n_nodes: int = 1000,
    n_rounds: int = 50,
    seed: int = 0,
    initial: Optional[np.ndarray] = None,
) -> Path:
    """Synthesize an "exchange snapshot" by running the Section V-B churn.

    Starts from ``initial`` stakes (default: the paper's U(1, 200)), runs
    ``n_rounds`` of the :class:`~repro.stakes.exchange.ExchangeSimulator`
    transaction churn, and writes the resulting stake vector as a snapshot
    file consumable by the ``exchange_snapshot`` family.
    """
    from repro.stakes.exchange import ExchangeSimulator

    if initial is None:
        initial = distributions.uniform(1.0, 200.0).sample(n_nodes, seed=seed)
    simulator = ExchangeSimulator(initial, seed=seed)
    simulator.run(n_rounds)
    return write_snapshot(path, simulator.stakes)


@population_family(
    "exchange_snapshot",
    "bootstrap resampling from an empirical stake snapshot file",
    defaults={"path": ""},
)
def _snapshot_family(path: str) -> PopulationSampler:
    """Build a bootstrap sampler over the snapshot's empirical distribution."""
    if not path:
        raise ConfigurationError(
            "exchange_snapshot requires a 'path' parameter pointing at a "
            "snapshot file (see snapshot_from_exchange)"
        )
    values = load_snapshot(path)

    def sampler(rng: np.random.Generator, size: int) -> np.ndarray:
        return values[rng.integers(0, values.size, size)]

    return sampler
