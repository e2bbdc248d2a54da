"""Ensemble simulation: populations of belief-state agents evolve under
per-period news, sample a price-expectation observable, and their aggregate
up/down fractions drive a multiplicative price path.

Each period every cohort of agents takes one step: the period's law (a row of
outcome weights per group of agents), one draw per agent from its row, then
settle (each agent moves to its new row). A classical population is a one-row
cohort, and :func:`run_sequential_ensemble` measures through the same step.

Determinism contract: every random draw is a pure function of
``(scenario seed, agent index, period)``. In period ``t`` agent ``i`` keeps
word ``i`` of the Philox stream keyed by ``(seed, t)`` (word ``i mod 4`` of
block ``i // 4``; :func:`agent_stream`), so results are bit-identical across
runs and do not depend on how agents are grouped.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .classical import bayes_update
from .hilbert import Hamiltonian, Observable, SpectralLayout, StateVector, propagator
from .hilbert import check_dims, check_integer, check_probabilities, check_real
from .measurement import JointTable, OutcomeDistribution, _lueders, born_weights, collapse


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
        object.__setattr__(self, "count", check_integer("population count", self.count, 1, 2**64 - 1))
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
        object.__setattr__(self, "duration", check_real("news duration", self.duration, 0.0, closed=True))


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
        check_probabilities("up and down fractions", (self.up_fraction, self.down_fraction), 1e-12)
        object.__setattr__(self, "price", check_real("price", self.price, 0.0))


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
        object.__setattr__(self, "seed", check_integer("seed", self.seed, 0, 2**64 - 1))
        object.__setattr__(self, "populations", tuple(self.populations))
        if not self.populations:
            raise ValueError("scenario needs at least one population")
        check_integer("total agent count", self.total_agents, 1, 2**64)  # agent indices run from 0 to total - 1
        object.__setattr__(self, "impact", check_real("impact", self.impact, 0.0, closed=True))
        object.__setattr__(self, "initial_price", check_real("initial price", self.initial_price, 0.0))
        object.__setattr__(self, "periods", check_integer("period count", self.periods, 1, 2**64))  # last index keys a stream
        overrides = {f"news[{i}].observable": e.observable for i, e in enumerate(self.news.events) if e.observable is not None}
        check_dims(
            price_observable=self.price_observable,
            **{f"populations[{i}]": pop.initial_state for i, pop in enumerate(self.populations)},
            **overrides,
        )
        for obs in [self.price_observable, *overrides.values()]:
            if set(obs.outcomes) - {1.0, -1.0}:
                raise ValueError(
                    "price observables must use outcomes +1 (up) and -1 (down), "
                    f"got {obs.outcomes}"
                )
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


def _period_key(seed: int, period: int) -> np.ndarray:
    """``SeedSequence([seed, period])``'s key, given the uint32 words it coerces
    that list to: each integer's little-endian 32-bit words, at least one."""
    words = [w for n in (seed, period) for w in ((n & 0xFFFFFFFF, n >> 32) if n >> 32 else (n,))]
    return SeedSequence(np.array(words, np.uint32)).generate_state(2, np.uint64)


def agent_stream(seed: int, agent_index: int, period: int) -> Generator:
    """The random stream of one agent in one period.

    Its first variate is word ``agent_index`` of the Philox stream keyed by
    ``(seed, period)`` (word ``agent_index % 4`` of block ``agent_index // 4``):
    the draw that :func:`run_market`, :func:`run_ensemble` and
    :func:`run_sequential_ensemble` read for that agent.
    """
    seed, agent_index = check_integer("seed", seed, 0, 2**64 - 1), check_integer("agent index", agent_index, 0, 2**64 - 1)
    bits = Philox(key=_period_key(seed, check_integer("period", period, 0, 2**64 - 1)))
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


def _inverse_cdf(thresholds: np.ndarray, draws: np.ndarray, membership: np.ndarray | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """Outcome index per 53-bit draw, into ``out`` if given: the count of cumulative
    thresholds it reaches, capped at the last outcome (a lone outcome meets 2**53,
    which no draw reaches). ``thresholds`` is one row for every draw, or one row per
    group with ``membership`` naming each draw's row, read a column at a time."""
    columns = (c if membership is None else c.take(membership) for c in np.asarray(thresholds).T[:-1])
    out = np.greater_equal(draws, next(columns, 2**53), out=np.empty(np.shape(draws), np.intp) if out is None else out)
    for column in columns:
        out += draws >= column
    return out


def _agents(count: int) -> int:
    """``count``; past the longest array numpy can shape, the MemoryError of a request too large."""
    if count >= 2**63:
        raise MemoryError(f"cannot hold {count} agents: numpy arrays stop below 2**63 bytes")
    return count


def _draw_outcomes(bits: Philox, cumulative: np.ndarray, count: int, membership: np.ndarray | None = None) -> np.ndarray:
    """Outcome index of each of the next ``count`` agents on ``bits``, in the
    narrowest unsigned type that holds them (one byte for up to 256 outcomes):
    each agent reads the next word ``w`` and keeps it as ``k = w >> 11``. Words
    are read ``_CHUNK`` agents at a time and decided while they are still in cache."""
    thresholds = _thresholds(cumulative)
    idx = np.empty(count, dtype=np.min_scalar_type(thresholds.shape[-1] - 1))
    for lo in range(0, count, _CHUNK):
        draws = bits.random_raw(min(_CHUNK, count - lo))
        draws >>= 11
        _inverse_cdf(thresholds, draws, None if membership is None else membership[lo : lo + _CHUNK], idx[lo : lo + _CHUNK])
    return idx


# ---------------------------------------------------------------------------
# Measurement sampling


def sample_measurement(
    psi: StateVector, obs: Observable, rng: Generator
) -> tuple[float, StateVector]:
    """Draw one outcome by inverse CDF over outcomes in descending eigenvalue
    order, and collapse the state onto it.

    Outcomes of zero probability are never drawn.
    """
    check_dims(state=psi, observable=obs)
    k = int(_inverse_cdf(_thresholds(np.cumsum(born_weights(psi.amplitudes, obs))), np.uint64(rng.random() * 2.0**53)))
    return obs.outcomes[k], collapse(psi, obs.layout.projectors[k])


def run_ensemble(population: AgentPopulation, obs: Observable, seed: int) -> OutcomeDistribution:
    """Empirical outcome frequencies over independent agents, agent ``i`` on
    word ``i`` of the stream keyed by ``(seed, 0)`` (:func:`agent_stream`);
    converges to the Born distribution as the population grows."""
    if population.kind != "quantum":
        raise ValueError(
            "run_ensemble expects a quantum population; classical agents use "
            "the classical_agent_step pipeline"
        )
    check_dims(state=population.initial_state, observable=obs)
    weights = born_weights(population.initial_state.amplitudes, obs)
    idx = _draw_outcomes(Philox(key=_period_key(check_integer("seed", seed, 0, 2**64 - 1), 0)), np.cumsum(weights), _agents(population.count))
    counts = np.bincount(idx, minlength=len(weights))
    return OutcomeDistribution(tuple(zip(obs.outcomes, counts / population.count)))


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
    check_dims(state=population.initial_state, first=first, second=second)
    seed = check_integer("seed", seed, 0, 2**64 - 1)
    cohort = _QuantumCohort([population])
    idx1 = cohort.step(_News(None, first), Philox(key=_period_key(seed, 0)))
    idx2 = cohort.step(_News(None, second), Philox(key=_period_key(seed, 1)))
    k2 = len(second.outcomes)
    counts = np.bincount(idx1.astype(np.intp) * k2 + idx2, minlength=len(first.outcomes) * k2)  # row-major (alpha, beta)
    pairs = itertools.product(first.outcomes, second.outcomes)
    return JointTable("first", "second", tuple((a, b, n / population.count) for (a, b), n in zip(pairs, counts)))


# ---------------------------------------------------------------------------
# Market loop


class _News:
    """One period's news, prepared once per news event: the propagator
    ``exp(-iHt)`` and classical likelihoods (None without news), and the
    observable measured after it."""

    def __init__(self, event: NewsEvent | None, price_obs: Observable):
        self.obs = price_obs if event is None or event.observable is None else event.observable
        layout = self.obs.layout
        self.ups = sum(o > 0 for o in layout.outcomes)  # outcomes descend: indices below this are up
        self.unitary = self.likelihoods = None
        if event is not None:
            self.unitary = propagator(event.hamiltonian, event.duration)
            # classical signal per outcome: the stay probability |<e|U|e>|^2
            # of its eigenvectors, averaged over degenerate directions
            stay = np.abs(np.sum(layout.columns.conj() * (self.unitary @ layout.columns), axis=0)) ** 2
            self.likelihoods = np.add.reduceat(stay, layout.starts) / layout.ranks


class _Cohort:
    """``count`` agents in order, each on a row of the cohort's per-period law:
    agent ``i`` on row ``membership[i]``, or all on the one row if it is None."""

    membership: np.ndarray | None = None

    def step(self, news: _News, bits: Philox) -> np.ndarray:
        """One period: the law :meth:`weights` gives, one outcome per agent drawn
        from its row (agents in order on ``bits``), then :meth:`settle`; returns
        each agent's outcome index."""
        weights = self.weights(news)
        idx = _draw_outcomes(bits, np.cumsum(weights, axis=-1), self.count, self.membership)
        self.settle(idx, news.obs.layout)
        return idx


class _QuantumCohort(_Cohort):
    """A run of adjacent quantum populations as rows of belief states, agents in
    order: agent ``i`` holds ``states[membership[i]]``, at first its population's.
    ``membership`` is in the narrowest unsigned type for the row count, one byte
    an agent for up to 256 rows."""

    step = _Cohort.step  # also in this class's own dict, where perfbench/layertrace.py wraps it

    def __init__(self, populations: list[AgentPopulation]):
        self.count = _agents(sum(pop.count for pop in populations))
        self.states = np.array([pop.initial_state.amplitudes for pop in populations])
        rows = np.arange(len(populations), dtype=np.min_scalar_type(len(populations) - 1))
        self.membership = np.repeat(rows, [pop.count for pop in populations])

    def weights(self, news: _News) -> np.ndarray:
        """Evolve every row under the news; their Born weights, one row a group."""
        if news.unitary is not None:
            self.states = self.states @ news.unitary.T
        return born_weights(self.states, news.obs)

    def settle(self, idx: np.ndarray, layout: SpectralLayout) -> None:
        """Collapse every agent by the Lüders rule of :func:`qexpect.measurement.collapse`.
        All agents of a rank-1 outcome share its eigenvector's row (a global phase
        changes no later Born weight); a rank > 1 outcome keeps a row per (group, outcome)."""
        if (layout.ranks == 1).all():
            self.states = layout.columns.T
            self.membership = idx
            return
        n_outcomes = len(layout.ranks)
        branch = np.multiply(self.membership, n_outcomes, dtype=np.min_scalar_type(len(self.states) * n_outcomes - 1))
        np.add(branch, idx, out=branch, casting="unsafe")  # group * n_outcomes + outcome fits, whatever idx's type
        drawn = np.zeros((len(self.states), n_outcomes), dtype=bool)
        drawn.reshape(-1)[branch] = True
        new_row = np.empty(drawn.shape, dtype=np.intp)  # (group, outcome) -> row of the new states
        blocks, count = [], 0
        for k, (lo, rank) in enumerate(zip(layout.starts, layout.ranks)):
            if rank == 1:
                block = layout.columns[None, :, lo]
                new_row[:, k] = count
            else:
                groups = np.flatnonzero(drawn[:, k])
                projected, weight = _lueders(self.states[groups], layout.stack[k])
                block = projected / np.sqrt(weight)
                new_row[groups, k] = count + np.arange(len(groups))
            blocks.append(block)
            count += len(block)
        self.states = np.concatenate(blocks)
        self.membership = new_row.ravel().astype(np.min_scalar_type(count - 1))[branch]


class _ClassicalCohort(_Cohort):
    """One classical population as a one-row cohort: all agents share one belief
    over the price observable's outcomes (which every period of its Scenario
    measures), updated deterministically from the period's news."""

    def __init__(self, population: AgentPopulation, price_obs: Observable):
        self.count = _agents(population.count)
        self.belief = born_weights(population.initial_state.amplitudes, price_obs)

    def weights(self, news: _News) -> np.ndarray:
        """The belief, Bayes-updated on the news likelihoods if there are any."""
        if news.likelihoods is not None:
            self.belief = bayes_update(self.belief, news.likelihoods)
        return self.belief

    def settle(self, idx: np.ndarray, layout: SpectralLayout) -> None:
        """The one row stays."""


def run_market(scenario: Scenario) -> PricePath:
    """Run the full ensemble market loop.

    Each period every cohort takes one step: its law, then one draw per agent,
    then settle. Quantum agents evolve under the period's news, sample the price
    observable and collapse onto their outcome; a classical population is a
    one-row cohort whose belief Bayes-updates on news-derived likelihoods. The
    up/down fractions over all agents move the price multiplicatively:
    ``price *= 1 + impact * (f_up - f_down)``.

    One cohort holds each run of adjacent quantum populations, and one Philox
    generator, re-keyed to ``(seed, period)`` each period, serves them all;
    neither changes a draw. Bit-identical output for a fixed scenario. Raises
    SimulationHalt (carrying the partial path) if the price leaves the positive
    representable range, which cannot happen while ``impact < 1``.
    """
    price_obs = scenario.price_observable
    schedule = [_News(event, price_obs) for event in scenario.news.events] or [_News(None, price_obs)]
    cohorts = []
    for kind, run in itertools.groupby(scenario.populations, key=lambda pop: pop.kind):
        cohorts += [_QuantumCohort(list(run))] if kind == "quantum" else [_ClassicalCohort(pop, price_obs) for pop in run]
    bits = Philox(key=_period_key(scenario.seed, 0))
    fresh = bits.state  # counter 0 and an empty word buffer: the start of a stream

    price = float(scenario.initial_price)
    records: list[PeriodRecord] = []
    for period in range(scenario.periods):
        news = schedule[period % len(schedule)]
        fresh["state"]["key"] = _period_key(scenario.seed, period)
        bits.state = fresh  # a new stream; cohorts hold contiguous agent ranges and read it in turn
        ups = sum(int(np.count_nonzero(cohort.step(news, bits) < news.ups)) for cohort in cohorts)
        f_up = ups / scenario.total_agents
        f_down = 1.0 - f_up
        price = price * (1.0 + scenario.impact * (f_up - f_down))
        try:
            records.append(PeriodRecord(price, f_up, f_down))
        except ValueError:  # the price left (0, inf)
            partial = PricePath(scenario.initial_price, tuple(records))
            raise SimulationHalt(f"price became {price} in period {period + 1}", partial) from None
    return PricePath(scenario.initial_price, tuple(records))
