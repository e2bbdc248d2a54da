"""Ensemble simulation: populations of belief-state agents evolve under
per-period news, sample a price-expectation observable, and their aggregate
up/down fractions drive a multiplicative price path.

Determinism contract: every random draw is a pure function of
``(scenario seed, agent index, period)``. In period ``t`` agent ``i`` keeps
word ``i`` of the Philox stream keyed by ``(seed, t)`` (word ``i mod 4`` of
block ``i // 4``; :func:`agent_stream`), so results are bit-identical across
runs and do not depend on how agents are grouped.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .classical import classical_agent_step
from .hilbert import Hamiltonian, Observable, SpectralLayout, StateVector, propagator
from .measurement import (
    ZERO_BRANCH_TOL,
    ImpossibleOutcomeError,
    JointTable,
    OutcomeDistribution,
    born_distribution,
    born_weights,
    collapse,
)


class SimulationHalt(RuntimeError):
    """Price left the representable positive range; carries the partial path."""

    def __init__(self, message: str, partial_path: "PricePath"):
        super().__init__(message)
        self.partial_path = partial_path


@dataclass(frozen=True)
class AgentPopulation:
    """A homogeneous group of agents sharing one initial belief state."""

    count: int
    initial_state: StateVector
    kind: str = "quantum"

    def __post_init__(self) -> None:
        if not 1 <= self.count < 2**64 or int(self.count) != self.count:
            raise ValueError(f"population count must be an integer in [1, 2^64), got {self.count}")
        object.__setattr__(self, "count", int(self.count))
        if self.kind not in ("quantum", "classical"):
            raise ValueError(f"population kind must be 'quantum' or 'classical', got {self.kind!r}")


@dataclass(frozen=True)
class NewsEvent:
    """One period's information environment: a Hamiltonian acting for
    ``duration``, plus an optional measurement-basis override."""

    hamiltonian: Hamiltonian
    duration: float
    observable: Observable | None = None

    def __post_init__(self) -> None:
        if not (self.duration >= 0 and math.isfinite(self.duration)):
            raise ValueError(f"news duration must be finite and >= 0, got {self.duration}")


@dataclass(frozen=True)
class NewsSchedule:
    """Per-period news events; shorter schedules cycle, an empty schedule
    means no evolution between measurements."""

    events: tuple[NewsEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))

    def event_for(self, period: int) -> NewsEvent | None:
        if not self.events:
            return None
        return self.events[period % len(self.events)]

    def __len__(self) -> int:
        return len(self.events)


@dataclass(frozen=True)
class PeriodRecord:
    price: float
    up_fraction: float
    down_fraction: float

    def __post_init__(self) -> None:
        if not abs(self.up_fraction + self.down_fraction - 1.0) <= 1e-12:
            raise ValueError("up and down fractions must sum to 1")
        if not (-1e-12 <= self.up_fraction <= 1.0 + 1e-12 and -1e-12 <= self.down_fraction <= 1.0 + 1e-12):
            raise ValueError(f"up and down fractions {self.up_fraction}, {self.down_fraction} must lie in [0, 1]")
        if not (self.price > 0 and math.isfinite(self.price)):
            raise ValueError(f"price must be positive and finite, got {self.price}")


@dataclass(frozen=True)
class PricePath:
    """Price series produced by a market run; ``periods[t]`` holds the price
    after period ``t+1``'s update together with that period's fractions."""

    initial_price: float
    periods: tuple[PeriodRecord, ...]

    def prices(self) -> list[float]:
        return [self.initial_price] + [p.price for p in self.periods]


@dataclass(frozen=True)
class Scenario:
    """Complete, seedable market-run configuration."""

    seed: int
    populations: tuple[AgentPopulation, ...]
    news: NewsSchedule
    price_observable: Observable
    impact: float
    initial_price: float
    periods: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", _checked_u64(self.seed, "seed"))
        object.__setattr__(self, "populations", tuple(self.populations))
        if not self.populations:
            raise ValueError("scenario needs at least one population")
        if self.total_agents > 2**64:  # agent indices run from 0 to total - 1
            raise ValueError(f"total agent count must be at most 2^64, got {self.total_agents}")
        if not (self.impact >= 0 and math.isfinite(self.impact)):
            raise ValueError(f"impact coefficient must be finite and >= 0, got {self.impact}")
        if not (self.initial_price > 0 and math.isfinite(self.initial_price)):
            raise ValueError(f"initial price must be finite and > 0, got {self.initial_price}")
        if not 1 <= self.periods <= 2**64 or int(self.periods) != self.periods:
            # the last period index, periods - 1, keys a Philox stream
            raise ValueError(f"period count must be an integer in [1, 2^64], got {self.periods}")
        object.__setattr__(self, "periods", int(self.periods))
        d = self.price_observable.dim
        for pop in self.populations:
            if pop.initial_state.dim != d:
                raise ValueError(
                    f"population state dimension {pop.initial_state.dim} does not match "
                    f"price observable dimension {d}"
                )
        for obs in [self.price_observable, *(e.observable for e in self.news.events if e.observable is not None)]:
            if set(obs.outcomes) - {1.0, -1.0}:
                raise ValueError(
                    "price observables must use outcomes +1 (up) and -1 (down), "
                    f"got {obs.outcomes}"
                )
            if obs.dim != d:
                raise ValueError("observable override dimension does not match scenario")
        classical = any(pop.kind == "classical" for pop in self.populations)
        for i, obs in enumerate(e.observable for e in self.news.events):
            if classical and obs is not None and obs.outcomes != self.price_observable.outcomes:
                raise ValueError(
                    f"news[{i}].observable: outcomes {obs.outcomes} differ from the price "
                    f"observable's {self.price_observable.outcomes}, which classical beliefs are over"
                )

    @property
    def total_agents(self) -> int:
        return sum(p.count for p in self.populations)


# ---------------------------------------------------------------------------
# Seeded stream derivation


def _checked_u64(value, name: str) -> int:
    if not 0 <= value < 2**64 or int(value) != value:
        raise ValueError(f"{name} must be an unsigned 64-bit integer, got {value}")
    return int(value)


def _period_key(seed: int, period: int) -> np.ndarray:
    return SeedSequence([_checked_u64(seed, "seed"), int(period)]).generate_state(2, np.uint64)


def agent_stream(seed: int, agent_index: int, period: int) -> Generator:
    """The random stream of one agent in one period.

    Its first variate is word ``agent_index`` of the Philox stream keyed by
    ``(seed, period)`` (word ``agent_index % 4`` of block ``agent_index // 4``):
    the draw that :func:`run_market`, :func:`run_ensemble` and
    :func:`run_sequential_ensemble` read for that agent.
    """
    agent_index = _checked_u64(agent_index, "agent index")
    bits = Philox(key=_period_key(seed, _checked_u64(period, "period")))
    bits.advance(agent_index // 4)
    bits.random_raw(agent_index % 4)
    return Generator(bits)


# Agents drawn per read of a Philox stream: 1 word each, 128 KiB a chunk.
_CHUNK = 16384


def _thresholds(cumulative) -> np.ndarray:
    """Cumulative weights as 53-bit integers: a draw ``u = k * 2**-53`` has
    ``u >= c`` exactly when ``k >= ceil(c * 2**53)`` for ``c`` in [0, 1]; ``c > 1``
    and NaN map to ``2**53``, which no draw reaches (``fmin`` drops the NaN)."""
    return np.fmin(np.ceil(np.maximum(cumulative, 0.0) * 2.0**53), 2.0**53).astype(np.uint64)


def _inverse_cdf(thresholds: np.ndarray, draws: np.ndarray, membership: np.ndarray | None = None) -> np.ndarray:
    """Outcome index per 53-bit draw: the count of cumulative thresholds it
    reaches, capped at the last outcome. ``thresholds`` is one row for every
    draw, or one row per group with ``membership`` naming each draw's row; it
    is read a column at a time, so no (draws x outcomes) array is built."""
    idx = np.zeros(np.shape(draws), dtype=np.intp)
    for column in np.asarray(thresholds).T[:-1]:
        idx += draws >= (column if membership is None else column[membership])
    return idx


def _draw_outcomes(bits: Philox, cumulative: np.ndarray, count: int, membership: np.ndarray | None = None) -> np.ndarray:
    """Outcome index of each of the next ``count`` agents on ``bits``: each
    agent reads the next word ``w`` and keeps it as ``k = w >> 11``. Words are
    read ``_CHUNK`` agents at a time and decided while they are still in cache."""
    thresholds = _thresholds(cumulative)
    idx = np.empty(count, dtype=np.intp)
    for lo in range(0, count, _CHUNK):
        chunk = slice(lo, lo + _CHUNK)
        draws = bits.random_raw(min(_CHUNK, count - lo)) >> 11
        idx[chunk] = _inverse_cdf(thresholds, draws, None if membership is None else membership[chunk])
    return idx


def _cumulative(dist: OutcomeDistribution) -> np.ndarray:
    return np.cumsum([p for _, p in dist.entries])


# ---------------------------------------------------------------------------
# Measurement sampling


def sample_measurement(
    psi: StateVector, obs: Observable, rng: Generator
) -> tuple[float, StateVector]:
    """Draw one outcome by inverse CDF over outcomes in descending eigenvalue
    order, and collapse the state onto it.

    Outcomes of zero probability are never drawn.
    """
    dist = born_distribution(psi, obs)
    k = int(_inverse_cdf(_thresholds(_cumulative(dist)), np.uint64(rng.random() * 2.0**53)))
    return dist.outcomes[k], collapse(psi, obs.layout.projectors[k])


def run_ensemble(population: AgentPopulation, obs: Observable, seed: int) -> OutcomeDistribution:
    """Empirical outcome frequencies over independent agents, agent ``i`` on
    word ``i`` of the stream keyed by ``(seed, 0)`` (:func:`agent_stream`);
    converges to the Born distribution as the population grows."""
    if population.kind != "quantum":
        raise ValueError(
            "run_ensemble expects a quantum population; classical agents use "
            "the classical_agent_step pipeline"
        )
    dist = born_distribution(population.initial_state, obs)
    idx = _draw_outcomes(Philox(key=_period_key(seed, 0)), _cumulative(dist), population.count)
    counts = np.bincount(idx, minlength=len(dist.entries))
    return OutcomeDistribution(tuple(zip(dist.outcomes, counts / population.count)))


def run_sequential_ensemble(
    population: AgentPopulation,
    obs_i: Observable,
    obs_j: Observable,
    order: str = "ij",
    seed: int = 0,
) -> JointTable:
    """Empirical joint table: every agent measures one observable, collapses,
    then measures the other; ``order`` picks which comes first ("ij" or "ji").
    The two measurements draw from the streams keyed by ``(seed, 0)`` and
    ``(seed, 1)``, agent ``i`` on word ``i`` of each (:func:`agent_stream`).

    Converges to :func:`qexpect.measurement.sequential_joint` of the first
    and second observables.
    """
    if population.kind != "quantum":
        raise ValueError("run_sequential_ensemble expects a quantum population")
    if order not in ("ij", "ji"):
        raise ValueError(f"order must be 'ij' or 'ji', got {order!r}")
    first, second = (obs_i, obs_j) if order == "ij" else (obs_j, obs_i)
    psi = population.initial_state
    if psi.dim != first.dim or psi.dim != second.dim:
        raise ValueError(f"dimension mismatch: state {psi.dim} vs observables {first.dim} and {second.dim}")
    cohort = _QuantumCohort(population)
    idx1 = cohort.measure(first.layout, Philox(key=_period_key(seed, 0)))
    idx2 = cohort.measure(second.layout, Philox(key=_period_key(seed, 1)))
    k2 = len(second.outcomes)
    counts = np.bincount(idx1 * k2 + idx2, minlength=len(first.outcomes) * k2)  # row-major (alpha, beta)
    pairs = itertools.product(first.outcomes, second.outcomes)
    return JointTable("first", "second", tuple((a, b, n / population.count) for (a, b), n in zip(pairs, counts)))


# ---------------------------------------------------------------------------
# Market loop


class _News:
    """One period's news, prepared once per news event: the propagator
    ``exp(-iHt)`` and classical likelihoods (None without news), and the
    spectral layout of the observable measured after it."""

    def __init__(self, event: NewsEvent | None, price_obs: Observable):
        obs = price_obs if event is None or event.observable is None else event.observable
        self.layout = layout = obs.layout
        self.ups = sum(o > 0 for o in layout.outcomes)  # outcomes descend: indices below this are up
        self.unitary = self.likelihoods = None
        if event is not None:
            self.unitary = propagator(event.hamiltonian, event.duration)
            # classical signal per outcome: the stay probability |<e|U|e>|^2
            # of its eigenvectors, averaged over degenerate directions
            stay = np.abs(np.sum(layout.columns.conj() * (self.unitary @ layout.columns), axis=0)) ** 2
            self.likelihoods = np.add.reduceat(stay, layout.starts) / layout.ranks


class _QuantumCohort:
    """One quantum population as rows of belief states: every agent whose
    ``membership`` is ``g`` holds state ``states[g]``."""

    def __init__(self, population: AgentPopulation):
        self.states = population.initial_state.amplitudes[None, :]
        self.membership = np.zeros(population.count, dtype=np.intp)

    def step(self, news: _News, bits: Philox) -> np.ndarray:
        """Evolve every agent under the news, then :meth:`measure` it."""
        if news.unitary is not None:
            self.states = self.states @ news.unitary.T
        return self.measure(news.layout, bits)

    def measure(self, layout: SpectralLayout, bits: Philox) -> np.ndarray:
        """Sample and collapse every agent, drawing the cohort's agents in
        order from ``bits``; returns each agent's outcome index."""
        amplitudes = self.states @ layout.columns.conj()
        weights = np.add.reduceat(np.abs(amplitudes) ** 2, layout.starts, axis=1)
        idx = _draw_outcomes(bits, np.cumsum(weights, axis=1), len(self.membership), self.membership)
        self._collapse(amplitudes, weights, idx, layout)
        return idx

    def _collapse(self, amplitudes: np.ndarray, weights: np.ndarray, idx: np.ndarray, layout: SpectralLayout) -> None:
        """Project every agent onto its outcome's eigenspace. All agents of a
        rank-1 outcome share its eigenvector's row (a global phase changes no
        later Born weight); a rank > 1 outcome keeps a row per (group, outcome)."""
        if (layout.ranks == 1).all():
            self.states = layout.columns.T
            self.membership = idx
            return
        n_outcomes = len(layout.ranks)
        branch = self.membership * n_outcomes + idx
        drawn = np.bincount(branch, minlength=len(self.states) * n_outcomes).reshape(-1, n_outcomes) > 0
        new_row = np.empty(drawn.shape, dtype=np.intp)  # (group, outcome) -> row of the new states
        blocks, count = [], 0
        for k, (lo, rank) in enumerate(zip(layout.starts, layout.ranks)):
            if rank == 1:
                block = layout.columns[None, :, lo]
                new_row[:, k] = count
            else:
                groups = np.flatnonzero(drawn[:, k])
                if (weights[groups, k] < ZERO_BRANCH_TOL).any():
                    raise ImpossibleOutcomeError(
                        f"cannot collapse onto an outcome of probability {weights[groups, k].min():.3e}"
                    )
                projected = amplitudes[groups, lo : lo + rank] @ layout.columns[:, lo : lo + rank].T
                block = projected / np.linalg.norm(projected, axis=1, keepdims=True)
                new_row[groups, k] = count + np.arange(len(groups))
            blocks.append(block)
            count += len(block)
        self.states = np.concatenate(blocks)
        self.membership = new_row.ravel()[branch]


class _ClassicalCohort:
    """Tracks one classical population; all agents share one belief over the
    price observable's outcomes (which every period of its Scenario measures),
    updated deterministically from the period's news."""

    def __init__(self, population: AgentPopulation, price_obs: Observable):
        self.count = population.count
        self.belief = born_weights(population.initial_state.amplitudes, price_obs)

    def step(self, news: _News, bits: Philox) -> np.ndarray:
        """Bayes-update on the news likelihoods, if any, then sample from
        ``bits``; returns each agent's outcome index."""
        if news.likelihoods is not None:
            self.belief, _ = classical_agent_step(self.belief, news.likelihoods, news.layout.outcomes)
        return _draw_outcomes(bits, np.cumsum(self.belief), self.count)


def run_market(scenario: Scenario) -> PricePath:
    """Run the full ensemble market loop.

    Each period: quantum agents evolve under the period's news and sample the
    price observable (collapsing onto their outcome); classical agents
    Bayes-update on news-derived likelihoods and sample from their belief.
    The up/down fractions over all agents move the price multiplicatively:
    ``price *= 1 + impact * (f_up - f_down)``.

    Bit-identical output for a fixed scenario. Raises SimulationHalt
    (carrying the partial path) if the price leaves the positive
    representable range, which cannot happen while ``impact < 1``.
    """
    price_obs = scenario.price_observable
    schedule = [_News(event, price_obs) for event in scenario.news.events] or [_News(None, price_obs)]
    cohorts = [
        _QuantumCohort(pop) if pop.kind == "quantum" else _ClassicalCohort(pop, price_obs)
        for pop in scenario.populations
    ]
    total = scenario.total_agents

    price = float(scenario.initial_price)
    records: list[PeriodRecord] = []
    for period in range(scenario.periods):
        news = schedule[period % len(schedule)]
        # cohorts hold contiguous agent ranges, so they read one stream in turn
        bits = Philox(key=_period_key(scenario.seed, period))
        ups = sum(int(np.count_nonzero(cohort.step(news, bits) < news.ups)) for cohort in cohorts)
        f_up = ups / total
        f_down = 1.0 - f_up
        price = price * (1.0 + scenario.impact * (f_up - f_down))
        if not (math.isfinite(price) and price > 0):
            raise SimulationHalt(
                f"price became {price} in period {period + 1}",
                PricePath(scenario.initial_price, tuple(records)),
            )
        records.append(PeriodRecord(price, f_up, f_down))
    return PricePath(scenario.initial_price, tuple(records))
