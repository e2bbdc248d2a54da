import dataclasses
from pathlib import Path

import numpy as np
import pytest

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
from qexpect.measurement import born_distribution, sequential_joint

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
}


@pytest.mark.parametrize("name", sorted(ORACLE_SCENARIOS))
def test_market_matches_per_agent_reference(name):
    sc = scenario(impact=0.05, periods=8, **ORACLE_SCENARIOS[name])
    path = run_market(sc)
    assert [(r.price, r.up_fraction, r.down_fraction) for r in path.periods] == reference_market(sc)


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
    # rank-1 collapse leaves at most d distinct states per cohort
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
    assert len(rows) == 2 * 11
    assert max(rows) <= 2


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


# ---------------------------------------------------------------------------
# validation


def test_population_validation():
    with pytest.raises(ValueError):
        AgentPopulation(0, PLUS, "quantum")
    with pytest.raises(ValueError):
        AgentPopulation(5, PLUS, "hybrid")


@pytest.mark.parametrize(
    "count", [0, 2**64, 10**400, 1.5, float("nan"), float("inf")], ids=["0", "2^64", "10^400", "1.5", "nan", "inf"]
)
def test_population_count_lies_below_2_to_the_64(count):
    with pytest.raises(ValueError, match=r"^population count must be an integer in \[1, 2\^64\)"):
        AgentPopulation(count, PLUS, "quantum")
    assert AgentPopulation(2**64 - 1, PLUS, "quantum").count == 2**64 - 1


@pytest.mark.parametrize(
    "periods",
    [0, 2**64 + 1, 10**400, 1.5, float("nan"), float("inf")],
    ids=["0", "2^64+1", "10^400", "1.5", "nan", "inf"],
)
def test_period_count_keeps_the_last_period_within_64_bits(periods):
    with pytest.raises(ValueError, match=r"^period count must be an integer in \[1, 2\^64\]"):
        scenario(periods=periods)
    assert scenario(periods=2**64).periods == 2**64  # built, never run


def test_total_agent_count_keeps_agent_indices_within_64_bits():
    half = AgentPopulation(2**63, PLUS, "quantum")
    assert scenario(populations=(half, half)).total_agents == 2**64  # built, never run
    with pytest.raises(ValueError, match=r"^total agent count must be at most 2\^64"):
        scenario(populations=(half, half, AgentPopulation(1, PLUS, "quantum")))


def test_news_duration_must_be_nonnegative():
    with pytest.raises(ValueError):
        NewsEvent(RABI, -0.5)
    for duration in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            NewsEvent(RABI, duration)


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


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_every_stream_rejects_a_seed_outside_64_bits(seed):
    pop = AgentPopulation(10, BALANCED, "quantum")
    calls = [
        lambda: run_ensemble(pop, PRICE, seed),
        lambda: run_sequential_ensemble(pop, PRICE, TILTED, "ij", seed),
        lambda: agent_stream(seed, 0, 0),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"seed must be an unsigned 64-bit integer, got {seed}$"):
            call()


@pytest.mark.parametrize("value", [-1, 2**64, 0.5, 1.5, float("nan"), float("inf")])
@pytest.mark.parametrize("position, name", [(1, "agent index"), (2, "period")])
def test_agent_stream_rejects_an_agent_index_or_period_outside_64_bits(position, name, value):
    args = [0, 0, 0]
    args[position] = value
    with pytest.raises(ValueError, match=f"{name} must be an unsigned 64-bit integer, got {value}$"):
        agent_stream(*args)
    args[position] = 2**64 - 1
    agent_stream(*args)


@pytest.mark.parametrize(
    "field, value",
    [("impact", float("nan")), ("impact", float("inf")), ("initial_price", float("nan")), ("initial_price", float("inf"))],
)
def test_scenario_rejects_non_finite_impact_and_price(field, value):
    with pytest.raises(ValueError, match="finite"):
        scenario(**{field: value})


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
    with pytest.raises(ValueError, match="dimension"):
        scenario(populations=(AgentPopulation(5, StateVector([1, 0, 0]), "quantum"),))


def test_scenario_requires_populations():
    with pytest.raises(ValueError):
        scenario(populations=())
