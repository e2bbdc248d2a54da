import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.random import Philox, SeedSequence

from oracles import mean_field_moments, reference_market
from qexpect import market
from qexpect.config import load_document, scenario_from_document
from qexpect.hilbert import Hamiltonian, StateVector, evolve, make_observable
from qexpect.market import (
    AgentPopulation,
    NewsEvent,
    NewsSchedule,
    Scenario,
    SimulationHalt,
    agent_stream,
    run_ensemble,
    run_market,
    run_sequential_ensemble,
    sample_measurement,
)
from qexpect.measurement import ImpossibleOutcomeError, born_distribution, sequential_joint

PLUS = StateVector([1, 0])
BALANCED = StateVector([1 / np.sqrt(2), 1 / np.sqrt(2)])
PRICE = make_observable([[1, 0], [0, 1]], [1.0, -1.0])
TILTED = make_observable(
    [[np.cos(np.pi / 3), np.sin(np.pi / 3)], [-np.sin(np.pi / 3), np.cos(np.pi / 3)]],
    [1.0, -1.0],
)
RABI = Hamiltonian([[0, 1], [1, 0]])


def scenario(**overrides) -> Scenario:
    base = dict(
        seed=5,
        populations=(AgentPopulation(200, PLUS, "quantum"),),
        news=NewsSchedule(()),
        price_observable=PRICE,
        impact=0.1,
        initial_price=100.0,
        periods=3,
    )
    base.update(overrides)
    return Scenario(**base)


# ---------------------------------------------------------------------------
# sample_measurement


def test_eigenstate_measures_its_outcome_for_any_seed():
    for seed in (0, 1, 99):
        outcome, post = sample_measurement(PLUS, PRICE, np.random.default_rng(seed))
        assert outcome == 1.0
        assert post.same_state(PLUS)


def test_sampled_fraction_concentrates_near_half():
    rng = np.random.default_rng(42)
    ups = sum(1 for _ in range(100_000) if sample_measurement(BALANCED, PRICE, rng)[0] > 0)
    assert abs(ups / 100_000 - 0.5) < 0.01
    # frozen count for the pinned generator; changing the draw path is a break
    assert ups == 49743


def test_same_seed_reproduces_the_outcome_sequence():
    seq1 = [
        sample_measurement(BALANCED, TILTED, np.random.default_rng(7))[0] for _ in range(20)
    ]
    rng = np.random.default_rng(7)
    seq2 = [sample_measurement(BALANCED, TILTED, rng)[0] for _ in range(1)]
    assert seq1[0] == seq2[0]
    rng_a, rng_b = np.random.default_rng(123), np.random.default_rng(123)
    a = [sample_measurement(BALANCED, TILTED, rng_a)[0] for _ in range(50)]
    b = [sample_measurement(BALANCED, TILTED, rng_b)[0] for _ in range(50)]
    assert a == b


def test_zero_probability_outcome_never_drawn():
    rng = np.random.default_rng(0)
    outcomes = {sample_measurement(PLUS, PRICE, rng)[0] for _ in range(500)}
    assert outcomes == {1.0}


def test_post_state_is_collapsed():
    outcome, post = sample_measurement(BALANCED, PRICE, np.random.default_rng(3))
    expected = PLUS if outcome == 1.0 else StateVector([0, 1])
    assert post.same_state(expected)


# ---------------------------------------------------------------------------
# run_ensemble


def test_single_agent_gets_full_frequency():
    emp = run_ensemble(AgentPopulation(1, BALANCED, "quantum"), PRICE, 11)
    assert sorted(p for _, p in emp.entries) == [0.0, 1.0]


def test_eigenstate_population_is_degenerate():
    emp = run_ensemble(AgentPopulation(5000, PLUS, "quantum"), PRICE, 13)
    assert emp.probability(1.0) == 1.0


def test_frequencies_converge_to_born():
    psi = StateVector([np.cos(np.pi / 8), np.sin(np.pi / 8)])
    emp = run_ensemble(AgentPopulation(100_000, psi, "quantum"), PRICE, 42)
    assert abs(emp.probability(1.0) - np.cos(np.pi / 8) ** 2) < 0.01


def test_run_ensemble_frozen_frequency():
    emp = run_ensemble(AgentPopulation(100_000, BALANCED, "quantum"), PRICE, 42)
    assert emp.probability(1.0) == 0.49936


def test_five_sigma_binomial_bound():
    for seed in range(5):
        psi = StateVector([0.6, 0.8])
        n = 20_000
        emp = run_ensemble(AgentPopulation(n, psi, "quantum"), PRICE, seed)
        for outcome, p in born_distribution(psi, PRICE).entries:
            bound = 5 * np.sqrt(p * (1 - p) / n)
            assert abs(emp.probability(outcome) - p) < bound


def test_classical_population_rejected():
    with pytest.raises(ValueError, match="classical"):
        run_ensemble(AgentPopulation(10, PLUS, "classical"), PRICE, 1)
    with pytest.raises(ValueError, match="^run_sequential_ensemble expects a quantum population$"):
        run_sequential_ensemble(AgentPopulation(10, PLUS, "classical"), PRICE, TILTED)


def test_ensemble_matches_per_agent_streams():
    n = 400
    per_agent = [
        sample_measurement(BALANCED, TILTED, agent_stream(7, i, 0))[0] for i in range(n)
    ]
    emp = run_ensemble(AgentPopulation(n, BALANCED, "quantum"), TILTED, 7)
    assert emp.probability(1.0) == sum(1 for o in per_agent if o > 0) / n


# ---------------------------------------------------------------------------
# run_sequential_ensemble


def test_repeated_observable_gives_diagonal_table():
    pop = AgentPopulation(5000, BALANCED, "quantum")
    table = run_sequential_ensemble(pop, TILTED, TILTED, "ij", 3)
    for alpha, beta, p in table.rows:
        if alpha != beta:
            assert p == 0.0


def test_sequential_frequencies_converge_to_joint():
    pop = AgentPopulation(100_000, PLUS, "quantum")
    table = run_sequential_ensemble(pop, PRICE, TILTED, "ij", 17)
    analytic = sequential_joint(PLUS, PRICE, TILTED)
    for alpha, beta, p in analytic.rows:
        assert abs(table.probability(alpha, beta) - p) < 0.01


def test_empirical_order_effect_at_pi_thirds():
    pop = AgentPopulation(100_000, PLUS, "quantum")
    t_ij = run_sequential_ensemble(pop, PRICE, TILTED, "ij", 29)
    t_ji = run_sequential_ensemble(pop, PRICE, TILTED, "ji", 29)
    stat = max(abs(p - t_ji.probability(b, a)) for a, b, p in t_ij.rows)
    assert abs(stat - 0.1875) < 0.01
    assert stat > 0.15


def test_commuting_observables_show_no_order_effect():
    relabeled = make_observable([[1, 0], [0, 1]], [-1.0, 1.0])
    pop = AgentPopulation(50_000, BALANCED, "quantum")
    t_ij = run_sequential_ensemble(pop, PRICE, relabeled, "ij", 31)
    t_ji = run_sequential_ensemble(pop, PRICE, relabeled, "ji", 31)
    stat = max(abs(p - t_ji.probability(b, a)) for a, b, p in t_ij.rows)
    assert stat < 0.01


def test_classical_limit_agreement_on_commuting_observables():
    # with a shared eigenbasis the quantum joint must match the classical
    # prior-times-conditional table within two sampling standard errors
    theta = 0.9
    basis = [[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]]
    first = make_observable(basis, [1.0, -1.0])
    second = make_observable(basis, [-1.0, 1.0])
    psi = StateVector([0.3, np.sqrt(1 - 0.09)])
    n = 50_000
    pop = AgentPopulation(n, psi, "quantum")
    empirical = run_sequential_ensemble(pop, first, second, "ij", 37)

    prior = born_distribution(psi, first)
    for alpha, p_alpha in prior.entries:
        for beta in second.outcomes:
            # shared basis: the second outcome is fully determined by the first
            conditional = 1.0 if beta == -alpha else 0.0
            expected = p_alpha * conditional
            stderr = np.sqrt(max(expected * (1 - expected), 1e-12) / n)
            assert abs(empirical.probability(alpha, beta) - expected) <= 2 * stderr


def test_bad_order_string_rejected():
    with pytest.raises(ValueError, match="order"):
        run_sequential_ensemble(AgentPopulation(5, PLUS, "quantum"), PRICE, TILTED, "xy", 0)


# d = 3 observables, each with a rank-2 outcome: agents measuring one first
# collapse onto a plane rather than onto an eigenvector
_c4, _s4, _h = np.cos(0.4), np.sin(0.4), 1 / np.sqrt(2)
RANK_2_UP = make_observable([[_c4, _s4, 0], [-_s4, _c4, 0], [0, 0, 1]], [1.0, 1.0, -1.0])
RANK_2_DOWN = make_observable([[_h, 0, _h], [0, 1, 0], [_h, 0, -_h]], [1.0, -1.0, -1.0])
PSI_3 = StateVector([0.6, 0.48j, 0.64])
UP_DOWN_PAIRS = [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)]


def test_sequential_ensemble_frozen_table_through_a_rank_2_collapse():
    """Pins the draws of both measurements across commits. Each order's
    first observable has a rank-2 outcome."""
    pop = AgentPopulation(3000, PSI_3, "quantum")
    frozen = {"ij": (558, 1225, 594, 623), "ji": (1161, 1161, 676, 2)}
    for order, counts in frozen.items():
        table = run_sequential_ensemble(pop, RANK_2_UP, RANK_2_DOWN, order, 23)
        assert table.rows == tuple((a, b, n / 3000) for (a, b), n in zip(UP_DOWN_PAIRS, counts))


def test_sequential_ensemble_matches_per_agent_streams():
    """Each agent alone measures the first observable on its stream of
    period 0, collapses, then measures the second on its stream of period 1;
    this cross-checks the frozen table above."""
    n, seed = 301, 23
    for order in ("ij", "ji"):
        first, second = (RANK_2_UP, RANK_2_DOWN) if order == "ij" else (RANK_2_DOWN, RANK_2_UP)
        counts = dict.fromkeys(UP_DOWN_PAIRS, 0)
        for i in range(n):
            a, post = sample_measurement(PSI_3, first, agent_stream(seed, i, 0))
            b, _ = sample_measurement(post, second, agent_stream(seed, i, 1))
            counts[a, b] += 1
        table = run_sequential_ensemble(AgentPopulation(n, PSI_3, "quantum"), RANK_2_UP, RANK_2_DOWN, order, seed)
        assert table.rows == tuple((a, b, k / n) for (a, b), k in counts.items())


def test_sequential_ensemble_of_17_outcomes_matches_per_agent_streams():
    """With 17 outcomes each, the (first, second) cell index runs to 288:
    past what the one-byte outcome indices hold."""
    rng = np.random.default_rng(17)
    bases = [np.linalg.qr(rng.normal(size=(17, 17)) + 1j * rng.normal(size=(17, 17)))[0] for _ in range(2)]
    first, second = (make_observable(b, np.linspace(1.0, -1.0, 17)) for b in bases)
    psi = StateVector(rng.normal(size=17) + 1j * rng.normal(size=17))
    n, seed = 400, 3
    counts = np.zeros((17, 17), dtype=int)
    for i in range(n):
        a, post = sample_measurement(psi, first, agent_stream(seed, i, 0))
        b, _ = sample_measurement(post, second, agent_stream(seed, i, 1))
        counts[first.outcomes.index(a), second.outcomes.index(b)] += 1
    assert counts.ravel()[256:].sum() > 0  # some agents land past cell 255
    table = run_sequential_ensemble(AgentPopulation(n, psi, "quantum"), first, second, "ij", seed)
    assert [p for _, _, p in table.rows] == list(counts.ravel() / n)


def test_ensemble_and_sequential_ensemble_share_one_draw_layout():
    """Both samplers give agent ``i`` word ``i`` of the stream keyed by
    ``(seed, 0)``, so the ensemble's counts are the sequential table's
    first-outcome counts, across chunk edges and a rank-2 outcome."""
    n, seed = 2 * market._CHUNK + 3, 11
    pop = AgentPopulation(n, PSI_3, "quantum")
    ensemble = {a: round(p * n) for a, p in run_ensemble(pop, RANK_2_UP, seed).entries}
    first = dict.fromkeys(ensemble, 0)
    for a, _, p in run_sequential_ensemble(pop, RANK_2_UP, RANK_2_DOWN, "ij", seed).rows:
        first[a] += round(p * n)
    assert ensemble == first


def test_sequential_ensemble_names_a_dimension_mismatch():
    three = make_observable(np.eye(3), [1.0, -1.0, -1.0])
    pop = AgentPopulation(5, PLUS, "quantum")
    for obs_i, obs_j in ((three, PRICE), (PRICE, three)):
        with pytest.raises(ValueError, match="dimension mismatch: state 2"):
            run_sequential_ensemble(pop, obs_i, obs_j, "ij", 0)


@pytest.mark.parametrize("sampler", [lambda pop: run_ensemble(pop, PRICE, 0), lambda pop: run_sequential_ensemble(pop, PRICE, PRICE)])
def test_ensembles_of_2_63_agents_are_too_large_to_allocate(sampler):
    with pytest.raises(MemoryError, match=f"^cannot hold {2**63} agents: numpy arrays stop below 2\\*\\*63 bytes$"):
        sampler(AgentPopulation(2**63, PLUS, "quantum"))


# ---------------------------------------------------------------------------
# run_market


def test_zero_impact_freezes_the_price():
    path = run_market(scenario(impact=0.0, populations=(AgentPopulation(300, BALANCED, "quantum"),)))
    assert all(record.price == 100.0 for record in path.periods)


def test_unanimous_optimists_compound_geometrically():
    path = run_market(scenario(periods=3))
    assert [round(p, 9) for p in path.prices()] == [100.0, 110.0, 121.0, 133.1]
    assert all(record.up_fraction == 1.0 for record in path.periods)


def test_rabi_news_alternates_the_ensemble():
    sched = NewsSchedule((NewsEvent(RABI, np.pi / 2),))
    path = run_market(scenario(news=sched, periods=4, impact=0.1))
    fractions = [record.up_fraction for record in path.periods]
    assert fractions == [0.0, 1.0, 0.0, 1.0]
    # hand-stepped price oracle: down, up, down, up
    expected = [100.0]
    for f_up in fractions:
        expected.append(expected[-1] * (1.0 + 0.1 * (2 * f_up - 1.0)))
    assert path.prices() == pytest.approx(expected, abs=1e-9)


def test_collapse_persistence_with_no_news():
    path = run_market(
        scenario(populations=(AgentPopulation(999, BALANCED, "quantum"),), periods=6)
    )
    first = path.periods[0].up_fraction
    assert all(record.up_fraction == first for record in path.periods)


def test_deterministic_across_thread_counts(monkeypatch):
    sc = scenario(
        populations=(
            AgentPopulation(4000, BALANCED, "quantum"),
            AgentPopulation(2000, StateVector([0.6, 0.8]), "classical"),
        ),
        news=NewsSchedule((NewsEvent(RABI, 0.4),)),
        periods=5,
    )
    monkeypatch.setenv("QEXPECT_THREADS", "1")
    single = run_market(sc)
    monkeypatch.setenv("QEXPECT_THREADS", "4")
    quad = run_market(sc)
    assert single == quad


SPLITTING = Hamiltonian([[1, 0], [0, -1]])
DEGENERATE = make_observable(np.eye(3), [1.0, 1.0, -1.0])
_c, _s = np.cos(0.7), np.sin(0.7)
DEGENERATE_TILTED = make_observable([[_c, _s, 0], [-_s, _c, 0], [0, 0, 1]], [1.0, -1.0, -1.0])
COUPLING_3 = Hamiltonian([[0.0, 1.0, 0.5], [1.0, 0.3, 0.2j], [0.5, -0.2j, -0.4]])


def _small_d3_populations(n: int, seed: int) -> tuple[AgentPopulation, ...]:
    """``n`` adjacent quantum populations of 2-3 agents, each its own random d = 3 state."""
    rng = np.random.default_rng(seed)
    return tuple(
        AgentPopulation(int(rng.integers(2, 4)), StateVector(rng.normal(size=3) + 1j * rng.normal(size=3)), "quantum")
        for _ in range(n)
    )


_MARKET_JSON = scenario_from_document(load_document(str(Path(__file__).parent.parent / "configs" / "market.json")))

ORACLE_SCENARIOS = {
    "rabi_tilted_override": dict(
        populations=(AgentPopulation(300, StateVector([0.6, 0.8]), "quantum"),),
        news=NewsSchedule((NewsEvent(RABI, 0.7), NewsEvent(RABI, 0.4, TILTED))),
    ),
    "two_quantum_populations": dict(
        populations=(
            AgentPopulation(180, StateVector([0.6, 0.8j]), "quantum"),
            AgentPopulation(120, BALANCED, "quantum"),
        ),
        news=NewsSchedule((NewsEvent(RABI, 0.5), NewsEvent(SPLITTING, 0.9, TILTED))),
    ),
    # the cohort boundary falls inside a Philox block: agents 180 and 181
    # share one, across cohorts
    "mid_block_181_119": dict(
        populations=(
            AgentPopulation(181, StateVector([0.6, 0.8j]), "quantum"),
            AgentPopulation(119, BALANCED, "quantum"),
        ),
        news=NewsSchedule((NewsEvent(RABI, 0.5), NewsEvent(SPLITTING, 0.9, TILTED))),
    ),
    "degenerate_rank_2": dict(
        populations=(AgentPopulation(300, StateVector([0.5, 0.5, np.sqrt(0.5)]), "quantum"),),
        price_observable=DEGENERATE,
        news=NewsSchedule((NewsEvent(COUPLING_3, 0.6), NewsEvent(COUPLING_3, 0.3, DEGENERATE_TILTED))),
    ),
    # one cohort of three populations; the total, 301, ends each period
    # inside a Philox block
    "three_adjacent_quantum_301": dict(
        populations=(
            AgentPopulation(97, StateVector([0.6, 0.8j]), "quantum"),
            AgentPopulation(101, BALANCED, "quantum"),
            AgentPopulation(103, StateVector([0.8, -0.6]), "quantum"),
        ),
        news=NewsSchedule((NewsEvent(RABI, 0.5), NewsEvent(SPLITTING, 0.9, TILTED))),
    ),
    # one d = 3 cohort of two populations that keeps a row per drawn
    # (group, rank-2 outcome)
    "two_adjacent_degenerate_299": dict(
        populations=(
            AgentPopulation(150, StateVector([0.5, 0.5, np.sqrt(0.5)]), "quantum"),
            AgentPopulation(149, StateVector([0.6, 0.0, 0.8j]), "quantum"),
        ),
        price_observable=DEGENERATE,
        news=NewsSchedule((NewsEvent(COUPLING_3, 0.6), NewsEvent(COUPLING_3, 0.3, DEGENERATE_TILTED))),
    ),
    # one-byte membership (200 rows), but the Lüders collapse's (row, outcome)
    # index passes 255
    "degenerate_200_small_populations": dict(
        populations=_small_d3_populations(200, 200),
        price_observable=DEGENERATE,
        news=NewsSchedule((NewsEvent(COUPLING_3, 0.6), NewsEvent(COUPLING_3, 0.3, DEGENERATE_TILTED))),
    ),
    # 300 rows: membership starts two bytes wide, and the first collapse
    # keeps it so (260 groups draw the rank-2 outcome)
    "degenerate_300_small_populations": dict(
        populations=_small_d3_populations(300, 300),
        price_observable=DEGENERATE,
        news=NewsSchedule((NewsEvent(COUPLING_3, 0.6), NewsEvent(COUPLING_3, 0.3, DEGENERATE_TILTED))),
    ),
    # the shipped scenario at a tenth of its counts, quantum and classical
    "market_json_tenth": dict(
        seed=_MARKET_JSON.seed,
        populations=tuple(dataclasses.replace(pop, count=pop.count // 10) for pop in _MARKET_JSON.populations),
        news=_MARKET_JSON.news,
        price_observable=_MARKET_JSON.price_observable,
    ),
    # a classical population between two quantum runs; every count ends
    # inside a Philox block
    "classical_between_quantum_997_601_898": dict(
        populations=(
            AgentPopulation(997, BALANCED, "quantum"),
            AgentPopulation(601, StateVector([0.6, 0.8]), "classical"),
            AgentPopulation(898, StateVector([0.6, 0.8]), "quantum"),
        ),
        news=NewsSchedule((NewsEvent(RABI, 0.4), NewsEvent(Hamiltonian(0.7 * SPLITTING.matrix), 0.9, TILTED))),
    ),
    # d = 3 with a rank-2 outcome: the news likelihoods differ between
    # outcomes, so the classical belief moves
    "degenerate_mixed_classical": dict(
        populations=(
            AgentPopulation(151, StateVector([0.6, 0.0, 0.8j]), "quantum"),
            AgentPopulation(150, StateVector([0.5, 0.5, np.sqrt(0.5)]), "classical"),
            AgentPopulation(99, StateVector([0.0, 0.6, 0.8]), "quantum"),
        ),
        price_observable=DEGENERATE,
        news=NewsSchedule((NewsEvent(COUPLING_3, 0.6), NewsEvent(COUPLING_3, 0.3, DEGENERATE_TILTED))),
    ),
}


@pytest.mark.parametrize("name", sorted(ORACLE_SCENARIOS))
def test_market_matches_per_agent_reference(name):
    sc = scenario(impact=0.05, periods=8, **ORACLE_SCENARIOS[name])
    path = run_market(sc)
    assert [(r.price, r.up_fraction, r.down_fraction) for r in path.periods] == reference_market(sc)


_SX, _SZ, _I2 = np.array([[0, 1], [1, 0]]), np.diag([1, -1]), np.eye(2)
_A_I = make_observable(np.eye(4), [1.0, 1.0, -1.0, -1.0])  # A = sigma_z on the first asset
_I_B = make_observable(np.kron(_I2, TILTED.basis).T, [1.0, -1.0, 1.0, -1.0])  # B = TILTED on the second
TWO_ASSET = scenario(
    populations=(AgentPopulation(20_000, StateVector(np.kron([1.0, 0.0], [np.cos(0.3), np.sin(0.3)]))),),
    news=NewsSchedule(tuple(
        NewsEvent(Hamiltonian(0.8 * np.kron(_SX, _I2) + 0.5 * np.kron(_I2, _SX) + 0.6 * np.kron(_SZ, _SX)), 0.7, obs)
        for obs in (_A_I, _I_B)
    )),
    price_observable=_A_I,
    impact=0.05,
    periods=12,
)

# Per-period up counts of every market above that collapses onto a rank-2
# outcome, and of a two-asset market whose rows grow each period. The per-agent
# reference collapses by the market's own Lüders rule, so these recorded counts
# pin that rule's bits independently of it.
RANK_2_UP_COUNTS = {
    "degenerate_rank_2": [201, 198, 209, 189, 220, 174, 224, 161],
    "two_adjacent_degenerate_299": [187, 124, 191, 122, 199, 120, 202, 118],
    "degenerate_200_small_populations": [318, 160, 329, 167, 334, 168, 327, 164],
    "degenerate_300_small_populations": [492, 240, 479, 244, 487, 247, 483, 245],
    "degenerate_mixed_classical": [207, 129, 203, 136, 194, 116, 179, 114],
    "two_asset": [14711, 16935, 8668, 15711, 10452, 13964, 9922, 12934, 10042, 12221, 9939, 11611],
}


@pytest.mark.parametrize("name", sorted(RANK_2_UP_COUNTS))
def test_rank_2_markets_keep_their_recorded_up_counts(name):
    sc = TWO_ASSET if name == "two_asset" else scenario(impact=0.05, periods=8, **ORACLE_SCENARIOS[name])
    assert [round(r.up_fraction * sc.total_agents) for r in run_market(sc).periods] == RANK_2_UP_COUNTS[name]


@pytest.mark.parametrize("name", sorted(ORACLE_SCENARIOS))
def test_period_1_law_table_gives_the_mean_field_up_fraction(name, monkeypatch):
    """Each cohort's law, weighted by the agents on each row, sums to the
    independent mean field's expected up count in period 1."""
    sc = scenario(impact=0.05, periods=1, **ORACLE_SCENARIOS[name])
    laws = []  # (cohort, its membership before the draw, its law, up outcomes)
    for cls in (market._QuantumCohort, market._ClassicalCohort):
        def recording_weights(self, news, weights=cls.weights):
            law = weights(self, news)
            laws.append((self, self.membership, law, news.ups))
            return law

        monkeypatch.setattr(cls, "weights", recording_weights)
    run_market(sc)
    expected_up = 0.0
    for cohort, membership, law, ups in laws:
        if membership is None:  # one row for every agent
            expected_up += cohort.count * law[:ups].sum()
        else:
            expected_up += np.bincount(membership, minlength=len(law)) @ law[:, :ups].sum(1)
    n = sc.total_agents
    assert sum(cohort.count for cohort, *_ in laws) == n  # every agent is on some law once
    assert abs(expected_up / n - mean_field_moments(sc)[0][0] / n) <= 1e-12


def test_each_period_starts_a_fresh_stream(monkeypatch):
    # 301 agents read 75 blocks and one word of the 76th, so period 0 ends
    # with three unread words; the re-keyed generator must not hand them on
    n, calls = 301, []
    draw = market._draw_outcomes

    def recording_draw(bits, *args):
        before = bits.state
        result = draw(bits, *args)
        calls.append((bits, before, bits.state))
        return result

    monkeypatch.setattr(market, "_draw_outcomes", recording_draw)
    run_market(scenario(seed=11, populations=(AgentPopulation(n, BALANCED, "quantum"),), periods=2))
    (bits_0, _, after_0), (bits_1, before_1, _) = calls
    assert bits_1 is bits_0  # one generator per run
    assert after_0["buffer_pos"] == 1
    replay = Philox(key=market._period_key(11, 0))
    replay.state = before_1
    assert (replay.random_raw(n + 3) == Philox(key=market._period_key(11, 1)).random_raw(n + 3)).all()


def test_period_key_is_the_seed_sequence_key_of_seed_and_period():
    """The key is built from the uint32 words SeedSequence coerces
    ``[seed, period]`` to, one or two per integer."""
    edges = (0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1)
    rng = np.random.default_rng(45)
    pairs = [(s, t) for s in edges for t in edges]
    words, shifts = rng.integers(0, 2**64, (500, 2), np.uint64), rng.integers(0, 64, (500, 2))
    pairs += [(int(s) >> int(a), int(t) >> int(b)) for (s, t), (a, b) in zip(words, shifts)]
    for seed, period in pairs:
        expected = SeedSequence([seed, period]).generate_state(2, np.uint64)
        assert (market._period_key(seed, period) == expected).all(), (seed, period)


def test_classical_cohort_matches_its_bayes_reference():
    """A classical agent is up in a period exactly when its own draw falls
    below the cohort's Bayes-updated up probability, taken from the mean-field
    oracle. In d = 3 with a rank-2 outcome the news likelihoods differ between
    outcomes, so the belief moves; in d = 2 they are always equal."""
    sc = scenario(
        populations=(AgentPopulation(300, StateVector([0.5, 0.5, np.sqrt(0.5)]), "classical"),),
        price_observable=DEGENERATE,
        news=NewsSchedule((NewsEvent(COUPLING_3, 0.6),)),
        periods=8,
    )
    n = sc.total_agents
    beliefs = [mean / n for mean, _ in mean_field_moments(sc)]
    assert max(beliefs) - min(beliefs) > 0.05
    for period, (record, p_up) in enumerate(zip(run_market(sc).periods, beliefs)):
        ups = sum(agent_stream(sc.seed, i, period).random() < p_up for i in range(n))
        assert record.up_fraction == ups / n


def test_words_within_a_philox_block_are_independent(monkeypatch):
    # agents 4j .. 4j + 3 read the four words of one block; for each offset r
    # the pairs (4j, 4j + r) must both go up as often as independent agents
    n = 400_000
    drawn = []
    step = market._QuantumCohort.step

    def recording_step(self, news, bits):
        result = step(self, news, bits)
        drawn.append(result < news.ups)
        return result

    monkeypatch.setattr(market._QuantumCohort, "step", recording_step)
    run_market(scenario(seed=17, populations=(AgentPopulation(n, BALANCED, "quantum"),), periods=1))
    (up,) = drawn
    pairs, p = n // 4, 0.25
    for r in (1, 2, 3):
        both = np.count_nonzero(up[0::4] & up[r::4])
        assert abs(both - pairs * p) < 5 * np.sqrt(pairs * p * (1 - p))


def test_market_up_counts_match_the_mean_field_law():
    """Pooled over seeds 0-199 of configs/market.json, each period's up count
    standardised by the independent density-matrix mean field is close to
    N(0, 1)."""
    base = scenario_from_document(load_document(str(Path(__file__).parent.parent / "configs" / "market.json")))
    moments = mean_field_moments(base)
    z = []
    for seed in range(200):
        path = run_market(dataclasses.replace(base, seed=seed))
        for record, (mean, var) in zip(path.periods, moments):
            z.append((round(record.up_fraction * base.total_agents) - mean) / np.sqrt(var))
    z = np.array(z)
    assert len(z) == 1200
    assert abs(z.mean()) <= 0.2
    assert 0.8 <= z.var() <= 1.2
    assert np.abs(z).max() <= 6


# ---------------------------------------------------------------------------
# chunked draws and integer thresholds

EDGE_CUTS = [
    0.0, -0.0, 5e-324,
    2.0**-53, np.nextafter(2.0**-53, 0), np.nextafter(2.0**-53, 1),
    0.5, np.nextafter(0.5, 0), np.nextafter(0.5, 1),
    1 - 2.0**-53, 1.0, 1 + 2.0**-52,
    np.inf, -np.inf, np.nan,
]


def test_integer_thresholds_match_the_float_comparison():
    top = 2**53 - 1
    on_draws = np.array([k * 2.0**-53 for k in (1, 3, 2**52 - 1, 2**52 + 1, top)])
    cuts = np.concatenate([EDGE_CUTS, on_draws, np.nextafter(on_draws, 0), np.nextafter(on_draws, 2)])
    # draws at and next to every cut, and at both ends of the range
    scaled = np.nan_to_num(cuts * 2.0**53, nan=0.0, posinf=top, neginf=0.0)
    centres = np.floor(scaled).astype(np.int64)
    nearby = np.concatenate([centres + step for step in (-1, 0, 1, 2)] + [[0, 1, 2**52, top]])
    draws = np.unique(np.clip(nearby, 0, top)).astype(np.uint64)
    by_integer = draws[:, None] >= market._thresholds(cuts)[None, :]
    by_float = (draws * 2.0**-53)[:, None] >= cuts[None, :]
    assert (by_integer == by_float).all()


def test_inverse_cdf_matches_the_float_rule():
    rng = np.random.default_rng(3)
    weights = rng.dirichlet(np.ones(4), size=50)
    weights[::7, 1] = 0.0  # outcomes that can never be drawn
    cumulative = np.cumsum(weights, axis=1)
    draws = rng.integers(0, 2**53, size=20_000, dtype=np.uint64)
    membership = rng.integers(0, 50, size=20_000)
    expected = ((draws * 2.0**-53)[:, None] >= cumulative[membership, :-1]).sum(axis=1)
    idx = market._inverse_cdf(market._thresholds(cumulative), draws, membership)
    assert (idx == expected).all()
    assert not (idx[membership % 7 == 0] == 1).any()
    # written into the caller's array; with a single outcome every draw takes index 0
    out = np.full(len(draws), -1, dtype=np.intp)
    assert market._inverse_cdf(market._thresholds(cumulative), draws, membership, out) is out
    assert (out == expected).all()
    market._inverse_cdf(market._thresholds(np.full((50, 1), 0.5)), draws, membership, out)  # the last column is never read
    assert not out.any()


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_chunk_size_does_not_change_results(chunk, monkeypatch):
    # population sizes are not multiples of the chunk, so cohorts start and
    # end mid-chunk
    sc = scenario(
        populations=(
            AgentPopulation(150, StateVector([0.6, 0.8j]), "quantum"),
            AgentPopulation(91, StateVector([0.8, 0.6]), "classical"),
            AgentPopulation(77, BALANCED, "quantum"),
        ),
        news=NewsSchedule((NewsEvent(RABI, 0.5), NewsEvent(SPLITTING, 0.9, TILTED))),
        periods=5,
    )
    pop = AgentPopulation(150, StateVector([0.6, 0.8j]), "quantum")

    def results():
        return run_market(sc), run_ensemble(pop, TILTED, 9), run_sequential_ensemble(pop, PRICE, TILTED, "ij", 9)

    expected = results()
    monkeypatch.setattr(market, "_CHUNK", chunk)
    assert results() == expected


def test_agents_at_chunk_edges_draw_from_their_own_stream(monkeypatch):
    # a classical population of 5 comes first, so the quantum cohort starts
    # mid-block and its agents' Philox words are offset from their index
    n = 2 * market._CHUNK + 3
    psi = StateVector([0.6, 0.8j])
    sc = scenario(
        populations=(AgentPopulation(5, BALANCED, "classical"), AgentPopulation(n, psi, "quantum")),
        news=NewsSchedule((NewsEvent(RABI, 0.5), NewsEvent(SPLITTING, 0.9, TILTED))),
        periods=3,
    )
    drawn = []
    step = market._QuantumCohort.step

    def recording_step(self, news, bits):
        result = step(self, news, bits)
        # rank-1 collapse leaves agent i on row membership[i], its outcome index
        drawn.append(np.where(self.membership < news.ups, 1.0, -1.0))
        return result

    monkeypatch.setattr(market._QuantumCohort, "step", recording_step)
    run_market(sc)
    for j in (market._CHUNK - 1, market._CHUNK, market._CHUNK + 1, n - 1):
        state = psi
        for period in range(sc.periods):
            event = sc.news.event_for(period)
            state = evolve(state, event.hamiltonian, event.duration)
            outcome, state = sample_measurement(state, event.observable or PRICE, agent_stream(sc.seed, 5 + j, period))
            assert drawn[period][j] == outcome


def test_quantum_cohorts_stay_bounded(monkeypatch):
    # market_deep's shape: every period branches every belief state, yet
    # rank-1 collapse leaves at most d distinct states per cohort; the two
    # adjacent quantum populations form one cohort, so one step a period
    def lean(theta):
        return StateVector([np.cos(theta), np.sin(theta) * np.exp(0.5j)])

    theta, phi = np.radians(50.0), np.radians(20.0)
    tilt = make_observable(
        [
            [np.cos(theta), np.sin(theta) * np.exp(1j * phi)],
            [-np.sin(theta) * np.exp(-1j * phi), np.cos(theta)],
        ],
        [1.0, -1.0],
    )
    sc = scenario(
        populations=(AgentPopulation(2000, lean(0.4), "quantum"), AgentPopulation(600, lean(0.8), "quantum")),
        news=NewsSchedule((NewsEvent(RABI, 0.7), NewsEvent(Hamiltonian(0.7 * SPLITTING.matrix), 0.9, tilt))),
        impact=0.01,
        periods=11,
    )
    rows = []
    step = market._QuantumCohort.step

    def recording_step(self, *args):
        result = step(self, *args)
        rows.append(len(self.states))
        return result

    monkeypatch.setattr(market._QuantumCohort, "step", recording_step)
    run_market(sc)
    assert len(rows) == 11
    assert max(rows) <= 2


def test_market_memory_grows_by_at_most_3_bytes_an_agent():
    """Outcome indices, cohort membership and the up comparison take one byte
    an agent each: the traced peak of run_market on configs/market.json scaled
    20 and 100 times (110k and 550k agents) grows by at most 3 bytes per added
    agent."""
    base = scenario_from_document(load_document(str(Path(__file__).parent.parent / "configs" / "market.json")))
    peaks = []
    for scale in (20, 100):
        pops = tuple(dataclasses.replace(pop, count=pop.count * scale) for pop in base.populations)
        sc = dataclasses.replace(base, populations=pops)
        tracemalloc.start()
        try:
            run_market(sc)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / (80 * base.total_agents) <= 3


def test_luders_market_memory_grows_by_at_most_5_bytes_an_agent():
    """A market whose price observable has a rank-2 outcome keeps a row per
    (group, outcome), found from each agent's (group, outcome) index: held in
    the narrowest unsigned type, with no 8-byte array per agent, the traced
    peak of run_market grows by at most 5 bytes per added agent from 110k to
    550k agents."""
    base = ORACLE_SCENARIOS["degenerate_rank_2"]
    peaks = []
    for count in (110_000, 550_000):
        sc = scenario(periods=6, **dict(base, populations=(dataclasses.replace(base["populations"][0], count=count),)))
        tracemalloc.start()
        try:
            run_market(sc)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / 440_000 <= 5


def test_identical_scenarios_reproduce_bitwise():
    sc = scenario(populations=(AgentPopulation(1000, BALANCED, "quantum"),), periods=4)
    assert run_market(sc) == run_market(sc)


def test_different_seeds_differ():
    sc1 = scenario(populations=(AgentPopulation(1000, BALANCED, "quantum"),))
    sc2 = dataclasses.replace(sc1, seed=6)
    assert run_market(sc1) != run_market(sc2)


def test_prices_stay_positive_below_unit_impact():
    sc = scenario(
        populations=(AgentPopulation(50, BALANCED, "quantum"),),
        impact=0.999,
        periods=40,
        news=NewsSchedule((NewsEvent(RABI, 0.9),)),
    )
    path = run_market(sc)
    assert all(record.price > 0 for record in path.periods)


def test_price_hitting_zero_halts_with_partial_path():
    # all agents pessimistic with impact 1 zeroes the price in period one
    sc = scenario(
        populations=(AgentPopulation(10, StateVector([0, 1]), "quantum"),),
        impact=1.0,
        periods=5,
    )
    with pytest.raises(SimulationHalt) as excinfo:
        run_market(sc)
    assert str(excinfo.value) == "price became 0.0 in period 1"
    assert excinfo.value.partial_path.periods == ()
    assert excinfo.value.partial_path.initial_price == 100.0


def test_classical_population_runs_alone():
    sc = scenario(
        populations=(AgentPopulation(3000, StateVector([0.6, 0.8]), "classical"),),
        news=NewsSchedule((NewsEvent(RABI, 0.3),)),
        periods=3,
    )
    path = run_market(sc)
    # belief stays at the born weights (two-level stay-likelihoods are equal),
    # so sampled fractions hover near 0.36
    for record in path.periods:
        assert abs(record.up_fraction - 0.36) < 0.05


def test_mixed_population_fractions_average_sensibly():
    sc = scenario(
        populations=(
            AgentPopulation(5000, PLUS, "quantum"),
            AgentPopulation(5000, StateVector([0, 1]), "classical"),
        ),
        periods=1,
    )
    path = run_market(sc)
    assert abs(path.periods[0].up_fraction - 0.5) < 0.02


def test_observable_override_changes_period_measurement():
    sched = NewsSchedule((NewsEvent(Hamiltonian(np.zeros((2, 2))), 0.0, TILTED),))
    sc = scenario(populations=(AgentPopulation(20_000, PLUS, "quantum"),), news=sched, periods=1)
    path = run_market(sc)
    assert abs(path.periods[0].up_fraction - 0.25) < 0.02


def test_degenerate_price_observable_in_market():
    obs = make_observable(np.eye(3), [1.0, 1.0, -1.0])
    psi = StateVector([0.5, 0.5, np.sqrt(0.5)])
    sc = scenario(
        populations=(AgentPopulation(20_000, psi, "quantum"),),
        price_observable=obs,
        periods=2,
    )
    path = run_market(sc)
    assert abs(path.periods[0].up_fraction - 0.5) < 0.02
    # rank-2 collapse keeps each agent inside its eigenspace afterwards
    assert path.periods[1].up_fraction == path.periods[0].up_fraction


def test_a_drawn_rank_2_outcome_of_zero_weight_cannot_collapse(monkeypatch):
    # every agent sits on the -1 eigenvector; force the draw of the rank-2 outcome +1
    obs = make_observable(np.eye(3), [1.0, 1.0, -1.0])
    sc = scenario(populations=(AgentPopulation(4, StateVector([0, 0, 1]), "quantum"),), price_observable=obs, periods=1)
    monkeypatch.setattr(market, "_draw_outcomes", lambda bits, cumulative, count, membership=None: np.zeros(count, dtype=np.intp))
    with pytest.raises(ImpossibleOutcomeError) as info:
        run_market(sc)
    assert str(info.value) == "cannot collapse onto an outcome of probability 0.000e+00"


# ---------------------------------------------------------------------------
# validation


def test_an_int_past_the_digit_limit_is_named_by_its_size():
    # repr of 10**5000 raises Python's own 4300-digit error, which names no argument
    with pytest.raises(ValueError) as info:
        AgentPopulation(10**5000, PLUS, "quantum")
    bits = (10**5000).bit_length()
    assert str(info.value) == f"population count must be an integer in [1, {2**64 - 1}], got an int of {bits} bits"
    with pytest.raises(ValueError) as info:
        NewsEvent(RABI, -(10**5000))
    assert str(info.value) == f"news duration must be a finite number in [0, inf), got an int of {bits} bits"


def test_population_validation():
    with pytest.raises(ValueError):
        AgentPopulation(0, PLUS, "quantum")
    with pytest.raises(ValueError):
        AgentPopulation(5, PLUS, "hybrid")


@pytest.mark.parametrize(
    "count",
    [0, 2**64, 10**400, 1.5, float("nan"), float("inf"), True, "1", None, 5.0],
    ids=["0", "2^64", "10^400", "1.5", "nan", "inf", "true", "string", "none", "integral_float"],
)
def test_population_count_lies_below_2_to_the_64(count):
    with pytest.raises(ValueError) as info:
        AgentPopulation(count, PLUS, "quantum")
    assert str(info.value) == f"population count must be an integer in [1, {2**64 - 1}], got {count!r}"
    assert AgentPopulation(2**64 - 1, PLUS, "quantum").count == 2**64 - 1
    for value in (np.uint64(2**64 - 1), np.int64(5)):
        stored = AgentPopulation(value, PLUS, "quantum").count
        assert type(stored) is int and stored == value


@pytest.mark.parametrize(
    "periods",
    [0, 2**64 + 1, 10**400, 1.5, float("nan"), float("inf"), True, "1", None, 3.0],
    ids=["0", "2^64+1", "10^400", "1.5", "nan", "inf", "true", "string", "none", "integral_float"],
)
def test_period_count_keeps_the_last_period_within_64_bits(periods):
    with pytest.raises(ValueError) as info:
        scenario(periods=periods)
    assert str(info.value) == f"period count must be an integer in [1, {2**64}], got {periods!r}"
    assert scenario(periods=2**64).periods == 2**64  # built, never run
    stored = scenario(periods=np.int64(3)).periods
    assert type(stored) is int and stored == 3


def test_total_agent_count_keeps_agent_indices_within_64_bits():
    half = AgentPopulation(2**63, PLUS, "quantum")
    assert scenario(populations=(half, half)).total_agents == 2**64  # built, never run
    with pytest.raises(ValueError) as info:
        scenario(populations=(half, half, AgentPopulation(1, PLUS, "quantum")))
    assert str(info.value) == f"total agent count must be an integer in [1, {2**64}], got {2**64 + 1}"


def test_news_duration_must_be_nonnegative():
    for duration in (-0.5, float("nan"), float("inf"), True, "1", None):
        with pytest.raises(ValueError) as info:
            NewsEvent(RABI, duration)
        assert str(info.value) == f"news duration must be a finite number in [0, inf), got {duration!r}"
    for duration in (0, np.float32(0.5), np.int64(2)):
        stored = NewsEvent(RABI, duration).duration
        assert type(stored) is float and stored == duration


def test_news_schedule_cycles():
    sched = NewsSchedule((NewsEvent(RABI, 1.0), NewsEvent(RABI, 2.0)))
    assert sched.event_for(0).duration == 1.0
    assert sched.event_for(3).duration == 2.0
    assert NewsSchedule(()).event_for(5) is None


def test_scenario_seed_range():
    with pytest.raises(ValueError):
        scenario(seed=-1)
    with pytest.raises(ValueError):
        scenario(seed=2**64)


@pytest.mark.parametrize("seed", [-1, 2**64, True, "1", None, 1.0])
def test_every_stream_rejects_a_seed_outside_64_bits(seed):
    pop = AgentPopulation(10, BALANCED, "quantum")
    calls = [
        lambda: run_ensemble(pop, PRICE, seed),
        lambda: run_sequential_ensemble(pop, PRICE, TILTED, "ij", seed),
        lambda: agent_stream(seed, 0, 0),
        lambda: scenario(seed=seed),
    ]
    for call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == f"seed must be an integer in [0, {2**64 - 1}], got {seed!r}"
    # a numpy seed draws what its int draws, and is kept as that int
    top = np.uint64(2**64 - 1)
    assert run_ensemble(pop, PRICE, top) == run_ensemble(pop, PRICE, 2**64 - 1)
    assert run_sequential_ensemble(pop, PRICE, TILTED, "ij", top) == run_sequential_ensemble(pop, PRICE, TILTED, "ij", 2**64 - 1)
    assert agent_stream(top, 0, 0).random() == agent_stream(2**64 - 1, 0, 0).random()
    stored = scenario(seed=top).seed
    assert type(stored) is int and stored == 2**64 - 1


@pytest.mark.parametrize("value", [-1, 2**64, 0.5, 1.5, float("nan"), float("inf"), True, "1", None, 1.0])
@pytest.mark.parametrize("position, name", [(1, "agent index"), (2, "period")])
def test_agent_stream_rejects_an_agent_index_or_period_outside_64_bits(position, name, value):
    args = [0, 0, 0]
    args[position] = value
    with pytest.raises(ValueError) as info:
        agent_stream(*args)
    assert str(info.value) == f"{name} must be an integer in [0, {2**64 - 1}], got {value!r}"
    args[position] = 2**64 - 1
    first = agent_stream(*args).random()
    args[position] = np.uint64(2**64 - 1)
    assert agent_stream(*args).random() == first


@pytest.mark.parametrize(
    "field, value",
    [
        ("impact", float("nan")), ("impact", float("inf")), ("initial_price", float("nan")), ("initial_price", float("inf")),
        ("impact", -0.5), ("impact", True), ("impact", "1"), ("impact", None),
        ("initial_price", 0.0), ("initial_price", True), ("initial_price", "1"), ("initial_price", None),
    ],
)
def test_scenario_rejects_non_finite_impact_and_price(field, value):
    with pytest.raises(ValueError) as info:
        scenario(**{field: value})
    interval = "[0, inf)" if field == "impact" else "(0, inf)"
    assert str(info.value) == f"{field.replace('_', ' ')} must be a finite number in {interval}, got {value!r}"
    stored = getattr(scenario(**{field: np.float32(0.5)}), field)
    assert type(stored) is float and stored == 0.5


def test_scenario_rejects_non_updown_outcomes():
    weird = make_observable([[1, 0], [0, 1]], [2.0, -1.0])
    with pytest.raises(ValueError, match="outcomes"):
        scenario(price_observable=weird)


def test_classical_population_rejects_an_override_of_other_outcomes():
    flat = make_observable(np.eye(2), [1.0, 1.0])
    news = NewsSchedule((NewsEvent(RABI, 0.4), NewsEvent(RABI, 0.4, flat)))
    with pytest.raises(ValueError, match=r"news\[1\]\.observable"):
        scenario(populations=(AgentPopulation(5, PLUS, "classical"),), news=news)
    # a quantum population measures whatever basis the news names
    assert len(run_market(scenario(news=news)).periods) == 3


def test_scenario_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match=r"^dimension mismatch: price_observable 2 vs populations\[0\] 3$"):
        scenario(populations=(AgentPopulation(5, StateVector([1, 0, 0]), "quantum"),))
    three = make_observable(np.eye(3), [1.0, -1.0, -1.0])
    with pytest.raises(ValueError, match=r"^dimension mismatch: price_observable 2 vs populations\[0\] 2 vs news\[0\]\.observable 3$"):
        scenario(news=NewsSchedule((NewsEvent(RABI, 0.4, three),)))


def test_scenario_requires_populations():
    with pytest.raises(ValueError):
        scenario(populations=())
