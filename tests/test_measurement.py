import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qexpect.hilbert import Hamiltonian, StateVector, commutator_norm, evolve, make_observable, projector_for
from qexpect.classical import ClassicalConditionalModel, bayes_update, classical_agent_step
from qexpect.market import PeriodRecord
from qexpect.measurement import (
    ImpossibleOutcomeError,
    InterferenceReport,
    JointTable,
    OutcomeDistribution,
    born_distribution,
    born_probability,
    born_weights,
    collapse,
    evolved_born,
    evolved_born_grid,
    interference_term,
    order_effect,
    sequential_joint,
    transition_probability,
    uncertainty_product,
)

import oracles

TOL = 1e-10

PLUS = StateVector([1, 0])
MINUS = StateVector([0, 1])
BALANCED = StateVector([1 / np.sqrt(2), 1 / np.sqrt(2)])


def two_level(theta: float):
    return make_observable(
        [[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]], [1.0, -1.0]
    )


PRICE = two_level(0.0)
TILTED = two_level(np.pi / 3)


def random_observable(rng, d):
    basis = oracles.random_unitary(rng, d)
    return make_observable(basis.T, rng.normal(size=d)), basis


# ---------------------------------------------------------------------------
# born_probability / born_distribution


def test_born_on_eigenstate():
    assert born_probability(PLUS, projector_for(PRICE, 1.0)) == pytest.approx(1.0, abs=1e-12)


def test_born_on_balanced_superposition():
    assert born_probability(BALANCED, projector_for(PRICE, 1.0)) == pytest.approx(0.5, abs=1e-12)


def test_born_at_pi_thirds():
    psi = StateVector([np.cos(np.pi / 3), np.sin(np.pi / 3)])
    assert born_probability(psi, projector_for(PRICE, 1.0)) == pytest.approx(0.25, abs=1e-12)


def test_born_matches_rank1_inner_product_form():
    rng = np.random.default_rng(21)
    for _ in range(25):
        psi_arr = oracles.random_state_array(rng, 2)
        obs, basis = random_observable(rng, 2)
        for vec, lam in zip(obs.eigenvectors, obs.eigenvalues):
            direct = abs(np.vdot(vec.amplitudes, psi_arr)) ** 2
            via_proj = born_probability(
                StateVector(psi_arr), projector_for(obs, lam)
            )
            assert via_proj == pytest.approx(direct, abs=1e-12)


def test_born_dimension_mismatch():
    with pytest.raises(ValueError):
        born_probability(StateVector([1, 0, 0]), projector_for(PRICE, 1.0))


def test_distribution_on_down_eigenstate():
    dist = born_distribution(MINUS, PRICE)
    assert dist.probability(1.0) == pytest.approx(0.0, abs=1e-12)
    assert dist.probability(-1.0) == pytest.approx(1.0, abs=1e-12)


def test_distribution_on_balanced_state():
    dist = born_distribution(BALANCED, PRICE)
    assert dist.probability(1.0) == pytest.approx(0.5, abs=1e-12)


def test_distribution_at_pi_eighths():
    psi = StateVector([np.cos(np.pi / 8), np.sin(np.pi / 8)])
    dist = born_distribution(psi, PRICE)
    assert dist.probability(1.0) == pytest.approx(np.cos(np.pi / 8) ** 2, abs=1e-12)
    assert dist.probability(-1.0) == pytest.approx(np.sin(np.pi / 8) ** 2, abs=1e-12)
    assert dist.probability(1.0) == pytest.approx(0.853553390593, abs=1e-9)


def test_distribution_groups_degenerate_eigenvalues():
    obs = make_observable(np.eye(3), [1.0, 1.0, -1.0])
    psi = StateVector([0.5, 0.5, np.sqrt(0.5)])
    dist = born_distribution(psi, obs)
    assert dist.outcomes == (1.0, -1.0)
    assert dist.probability(1.0) == pytest.approx(0.5, abs=1e-12)


def test_distributions_normalize_over_random_draws():
    rng = np.random.default_rng(23)
    for _ in range(500):
        d = int(rng.integers(2, 5))
        psi = StateVector(oracles.random_state_array(rng, d))
        obs, _ = random_observable(rng, d)
        total = sum(p for _, p in born_distribution(psi, obs).entries)
        assert abs(total - 1.0) < TOL


# ---------------------------------------------------------------------------
# evolved_born


def test_evolved_born_at_zero_matches_static():
    psi = StateVector([0.6, 0.8])
    ham = Hamiltonian([[0.3, 0.4], [0.4, -0.1]])
    static = born_distribution(psi, PRICE)
    moved = evolved_born(psi, ham, 0.0, PRICE)
    for (oa, pa), (ob, pb) in zip(moved.entries, static.entries):
        assert oa == ob
        assert pa == pytest.approx(pb, abs=1e-12)


def test_evolved_born_rabi_closed_form():
    ham = Hamiltonian([[0, 1], [1, 0]])
    for t in np.linspace(0.0, 3.0, 31):
        dist = evolved_born(PLUS, ham, float(t), PRICE)
        assert dist.probability(1.0) == pytest.approx(np.cos(t) ** 2, abs=1e-9)


def test_evolved_born_stationary_for_diagonal_hamiltonian():
    psi = StateVector([0.6, 0.8])
    ham = Hamiltonian(np.diag([2.0, -1.0]))
    for t in (0.3, 1.7, 9.2):
        dist = evolved_born(psi, ham, t, PRICE)
        assert dist.probability(1.0) == pytest.approx(0.36, abs=1e-12)


def test_evolved_born_grid_matches_per_point_evaluation():
    rng = np.random.default_rng(29)
    for d, values in ((2, [1.0, -1.0]), (3, [1.0, -1.0, 1.0]), (4, [-1.0, 1.0, 1.0, -1.0])):
        psi = StateVector(oracles.random_state_array(rng, d))
        ham = Hamiltonian(oracles.random_hermitian(rng, d))
        obs = make_observable(oracles.random_unitary(rng, d).T, values)
        times = np.linspace(0.0, -4.0, 41)
        grid = evolved_born_grid(psi, ham, times, obs)
        assert grid.shape == (len(times), 2)
        for row, t in zip(grid, times):
            expected = born_distribution(evolve(psi, ham, float(t)), obs)
            assert np.abs(row - [p for _, p in expected.entries]).max() < 1e-14


def test_evolved_born_grid_rejects_non_finite_times_and_mismatches():
    ham = Hamiltonian([[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="finite"):
        evolved_born_grid(PLUS, ham, [0.0, np.nan], PRICE)
    with pytest.raises(ValueError, match="mismatch"):
        evolved_born_grid(StateVector([1, 0, 0]), ham, [0.0], PRICE)


def test_born_weights_of_a_batch_match_each_row():
    rng = np.random.default_rng(31)
    obs = make_observable(oracles.random_unitary(rng, 4).T, [0.5, -1.0, 0.5, 2.0])
    rows = np.array([oracles.random_state_array(rng, 4) for _ in range(6)]).reshape(2, 3, 4)
    weights = born_weights(rows, obs)
    assert weights.shape == (2, 3, 3)
    for index in np.ndindex(2, 3):
        dist = born_distribution(StateVector(rows[index]), obs)
        assert np.abs(weights[index] - [p for _, p in dist.entries]).max() < 1e-15


# ---------------------------------------------------------------------------
# collapse


def test_collapse_balanced_onto_up():
    assert collapse(BALANCED, projector_for(PRICE, 1.0)).same_state(PLUS)


def test_collapse_is_idempotent():
    proj = projector_for(TILTED, 1.0)
    once = collapse(BALANCED, proj)
    twice = collapse(once, proj)
    assert once.same_state(twice)


def test_collapse_onto_orthogonal_outcome_fails():
    with pytest.raises(ImpossibleOutcomeError):
        collapse(PLUS, projector_for(PRICE, -1.0))


def test_collapse_returns_normalized_state():
    rng = np.random.default_rng(31)
    for _ in range(50):
        psi = StateVector(oracles.random_state_array(rng, 3))
        obs, _ = random_observable(rng, 3)
        outcome = obs.outcomes[0]
        post = collapse(psi, projector_for(obs, outcome))
        assert abs(np.linalg.norm(post.amplitudes) - 1.0) < TOL


# ---------------------------------------------------------------------------
# transition_probability


def test_transition_identical_vectors():
    assert transition_probability(PLUS, PLUS) == pytest.approx(1.0, abs=1e-12)


def test_transition_orthogonal_vectors():
    assert transition_probability(PLUS, MINUS) == pytest.approx(0.0, abs=1e-12)


def test_transition_between_tilted_bases():
    up_j = TILTED.eigenvectors[0]
    assert transition_probability(PLUS, up_j) == pytest.approx(0.25, abs=1e-12)


@settings(max_examples=30)
@given(theta=st.floats(min_value=0.0, max_value=np.pi), phi=st.floats(min_value=0.0, max_value=np.pi))
def test_transition_is_symmetric(theta, phi):
    a = StateVector([np.cos(theta), np.sin(theta)])
    b = StateVector([np.cos(phi), np.sin(phi) * np.exp(0.4j)])
    assert abs(transition_probability(a, b) - transition_probability(b, a)) < 1e-12


def test_transition_matrix_is_doubly_stochastic():
    rng = np.random.default_rng(37)
    for d in (2, 3, 4):
        first = oracles.random_unitary(rng, d)
        second = oracles.random_unitary(rng, d)
        table = np.array(
            [
                [
                    transition_probability(StateVector(first[:, i]), StateVector(second[:, j]))
                    for j in range(d)
                ]
                for i in range(d)
            ]
        )
        assert np.abs(table.sum(axis=0) - 1.0).max() < TOL
        assert np.abs(table.sum(axis=1) - 1.0).max() < TOL


# ---------------------------------------------------------------------------
# sequential_joint


def test_repeated_measurement_is_diagonal():
    table = sequential_joint(BALANCED, TILTED, TILTED)
    for alpha, beta, p in table.rows:
        if alpha != beta:
            assert p < 1e-12
    marginal = table.marginal_first()
    direct = born_distribution(BALANCED, TILTED)
    for (oa, pa), (ob, pb) in zip(marginal.entries, direct.entries):
        assert oa == ob
        assert pa == pytest.approx(pb, abs=TOL)


def test_sequential_joint_tilted_cell():
    table = sequential_joint(PLUS, PRICE, TILTED)
    assert table.probability(1.0, 1.0) == pytest.approx(0.25, abs=1e-12)


def test_commuting_observables_give_classical_joint():
    relabeled = make_observable([[1, 0], [0, 1]], [-1.0, 1.0])
    psi = StateVector([0.6, 0.8])
    table = sequential_joint(psi, PRICE, relabeled)
    # sharp correlation: up on the first observable forces down-label on the second
    assert table.probability(1.0, -1.0) == pytest.approx(0.36, abs=1e-12)
    assert table.probability(1.0, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert table.probability(-1.0, 1.0) == pytest.approx(0.64, abs=1e-12)


def test_zero_probability_first_outcome_contributes_zero_rows():
    table = sequential_joint(PLUS, PRICE, TILTED)
    assert table.probability(-1.0, 1.0) == 0.0
    assert table.probability(-1.0, -1.0) == 0.0


def test_marginal_consistency_random():
    rng = np.random.default_rng(41)
    for _ in range(100):
        d = int(rng.integers(2, 5))
        psi = StateVector(oracles.random_state_array(rng, d))
        first, _ = random_observable(rng, d)
        second, _ = random_observable(rng, d)
        table = sequential_joint(psi, first, second)
        first_dist = born_distribution(psi, first)
        for outcome, p in first_dist.entries:
            assert table.marginal_first().probability(outcome) == pytest.approx(p, abs=TOL)


def test_sequential_joint_matches_chained_projector_oracle():
    rng = np.random.default_rng(43)
    for _ in range(200):
        psi_arr = oracles.random_state_array(rng, 2)
        first, fb = random_observable(rng, 2)
        second, sb = random_observable(rng, 2)
        table = sequential_joint(StateVector(psi_arr), first, second)
        first_projs = [oracles.rank1_projector(fb[:, i]) for i in range(2)]
        second_projs = [oracles.rank1_projector(sb[:, i]) for i in range(2)]
        expected = oracles.sequential_table(psi_arr, first_projs, second_projs)
        for i, alpha in enumerate(first.eigenvalues):
            for j, beta in enumerate(second.eigenvalues):
                assert table.probability(alpha, beta) == pytest.approx(
                    expected[i, j], abs=1e-12
                )
    for d in (3, 4) * 50:
        psi_arr = oracles.random_state_array(rng, d)
        first, first_projs = _degenerate_observable(rng, d)
        second, second_projs = _degenerate_observable(rng, d)
        table = sequential_joint(StateVector(psi_arr), first, second)
        expected = oracles.sequential_table(psi_arr, list(first_projs.values()), list(second_projs.values()))
        for i, alpha in enumerate(first_projs):
            for j, beta in enumerate(second_projs):
                assert table.probability(alpha, beta) == pytest.approx(expected[i, j], abs=1e-12)


def _degenerate_observable(rng, d):
    """Random basis with a repeated eigenvalue, and the oracle's projector for
    each distinct outcome: the sum of its eigenvectors' rank-1 projectors."""
    basis = oracles.random_unitary(rng, d)
    repeats = int(rng.integers(2, d + 1))
    values = rng.permutation([0.5] * repeats + list(rng.normal(size=d - repeats)))
    projs = {
        float(v): sum(oracles.rank1_projector(basis[:, k]) for k in range(d) if values[k] == v)
        for v in sorted(set(values), reverse=True)
    }
    return make_observable(basis.T, values), projs


def _binary_observable(rng, d, ups):
    """Random basis, outcome +1 on ``ups`` of its directions and -1 on the rest."""
    values = [1.0] * ups + [-1.0] * (d - ups)
    return make_observable(oracles.random_unitary(rng, d).T, rng.permutation(values))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 4), data=st.data())
def test_qq_equality(seed, d, data):
    """Wang & Busemeyer (2013): for any state and any two binary projective
    observables, p(A+,B-) + p(A-,B+) = p(B+,A-) + p(B-,A+), however large the
    order effect."""
    rng = np.random.default_rng(seed)
    a = _binary_observable(rng, d, data.draw(st.integers(1, d - 1)))
    b = _binary_observable(rng, d, data.draw(st.integers(1, d - 1)))
    psi = StateVector(oracles.random_state_array(rng, d))
    for obs in (a, b):
        layout = obs.layout
        assert np.abs(sum(p.matrix for p in layout.projectors) - np.eye(d)).max() < TOL
        assert [p.rank for p in layout.projectors] == [obs.eigenvalues.count(o) for o in layout.outcomes]
    ab, ba = sequential_joint(psi, a, b), sequential_joint(psi, b, a)
    lhs = ab.probability(1.0, -1.0) + ab.probability(-1.0, 1.0)
    rhs = ba.probability(1.0, -1.0) + ba.probability(-1.0, 1.0)
    assert lhs == pytest.approx(rhs, abs=1e-12)


# ---------------------------------------------------------------------------
# order_effect


def test_order_effect_of_observable_with_itself():
    assert order_effect(BALANCED, TILTED, TILTED) == pytest.approx(0.0, abs=TOL)


def test_order_effect_at_pi_thirds():
    table_ij = sequential_joint(PLUS, PRICE, TILTED)
    table_ji = sequential_joint(PLUS, TILTED, PRICE)
    assert table_ij.probability(1.0, 1.0) == pytest.approx(0.25, abs=1e-12)
    assert table_ji.probability(1.0, 1.0) == pytest.approx(0.0625, abs=1e-12)
    assert order_effect(PLUS, PRICE, TILTED) == pytest.approx(0.1875, abs=1e-12)


def test_order_effect_vanishes_for_commuting_observables():
    rng = np.random.default_rng(47)
    for _ in range(50):
        d = int(rng.integers(2, 5))
        basis = oracles.random_unitary(rng, d)
        a = make_observable(basis.T, rng.normal(size=d))
        b = make_observable(basis.T, rng.normal(size=d))
        psi = StateVector(oracles.random_state_array(rng, d))
        assert commutator_norm(a, b) < TOL
        assert order_effect(psi, a, b) < TOL


def test_order_effect_vanishes_for_commuting_degenerate_observables():
    # commuting operators with different eigenvector lists: the second basis
    # is rotated inside the first observable's degenerate eigenspace
    block = make_observable(np.eye(3), [1.0, 1.0, 0.0])
    s = 1 / np.sqrt(2)
    rotated = make_observable(
        [[s, s, 0.0], [s, -s, 0.0], [0.0, 0.0, 1.0]], [3.0, 4.0, 5.0]
    )
    assert commutator_norm(block, rotated) < TOL
    psi = StateVector([0.5, 0.5j, np.sqrt(0.5)])
    assert order_effect(psi, block, rotated) < TOL


# ---------------------------------------------------------------------------
# interference_term


def test_interference_vanishes_when_target_commutes_with_partition():
    psi = StateVector([0.6, 0.8])
    report = interference_term(psi, projector_for(PRICE, 1.0), PRICE)
    assert abs(report.interference) < TOL


def test_interference_at_pi_thirds():
    report = interference_term(PLUS, projector_for(PRICE, 1.0), TILTED)
    assert report.p_direct == pytest.approx(1.0, abs=1e-12)
    assert report.p_classical_sum == pytest.approx(0.625, abs=1e-12)
    assert report.interference == pytest.approx(0.375, abs=1e-12)


def test_interference_at_pi_quarters():
    report = interference_term(PLUS, projector_for(PRICE, 1.0), two_level(np.pi / 4))
    assert report.p_classical_sum == pytest.approx(0.5, abs=1e-12)
    assert report.interference == pytest.approx(0.5, abs=1e-12)


def test_interference_can_be_negative():
    psi = StateVector([np.cos(np.pi / 3), np.sin(np.pi / 3)])
    report = interference_term(psi, projector_for(PRICE, 1.0), two_level(np.pi / 4))
    assert report.interference < 0


def test_interference_closure_identity_random():
    rng = np.random.default_rng(53)
    for _ in range(300):
        d = int(rng.integers(2, 5))
        psi = StateVector(oracles.random_state_array(rng, d))
        target_obs, _ = random_observable(rng, d)
        partition, _ = random_observable(rng, d)
        target = projector_for(target_obs, target_obs.outcomes[0])
        report = interference_term(psi, target, partition)
        assert abs(report.p_direct - (report.p_classical_sum + report.interference)) < 1e-14


def test_interference_matches_chained_projector_oracle():
    rng = np.random.default_rng(59)
    for _ in range(100):
        psi_arr = oracles.random_state_array(rng, 2)
        target_obs, tb = random_observable(rng, 2)
        partition, pb = random_observable(rng, 2)
        report = interference_term(
            StateVector(psi_arr), projector_for(target_obs, target_obs.eigenvalues[0]), partition
        )
        direct, classical, diff = oracles.interference(
            psi_arr,
            oracles.rank1_projector(tb[:, 0]),
            [oracles.rank1_projector(pb[:, i]) for i in range(2)],
        )
        assert report.p_direct == pytest.approx(direct, abs=1e-12)
        assert report.p_classical_sum == pytest.approx(classical, abs=1e-12)
        assert report.interference == pytest.approx(diff, abs=1e-12)
    for d in (3, 4) * 50:
        psi_arr = oracles.random_state_array(rng, d)
        target_obs, target_projs = _degenerate_observable(rng, d)
        partition, partition_projs = _degenerate_observable(rng, d)
        outcome = target_obs.outcomes[int(rng.integers(len(target_projs)))]
        report = interference_term(StateVector(psi_arr), projector_for(target_obs, outcome), partition)
        direct, classical, diff = oracles.interference(psi_arr, target_projs[outcome], list(partition_projs.values()))
        assert report.p_direct == pytest.approx(direct, abs=1e-12)
        assert report.p_classical_sum == pytest.approx(classical, abs=1e-12)
        assert report.interference == pytest.approx(diff, abs=1e-12)


def test_interference_report_rejects_broken_identity():
    with pytest.raises(ValueError):
        InterferenceReport(0.9, 0.3, 0.2)


NAN = float("nan")


@pytest.mark.parametrize(
    "build",
    [
        lambda: OutcomeDistribution(((1, NAN), (-1, NAN))),
        lambda: OutcomeDistribution(((1, 1.0), (-1, NAN))),
        lambda: JointTable("a", "b", ((1, 1, NAN),)),
        lambda: InterferenceReport(NAN, NAN, 0.0),
        lambda: PeriodRecord(100, NAN, NAN),
        lambda: PeriodRecord(100, 0.5, NAN),
        lambda: ClassicalConditionalModel((NAN,), (0.5,)),
        lambda: ClassicalConditionalModel((0.5, 0.5), (NAN, 0.5)),
        lambda: bayes_update([NAN, NAN], [0.5, 0.5]),
        lambda: bayes_update([0.5, 0.5], [NAN, 0.5]),
        lambda: classical_agent_step([NAN, NAN], [0.5, 0.5]),
        lambda: classical_agent_step([0.5, 0.5], [0.5, NAN]),
        lambda: classical_agent_step([0.5, 0.5], [0.5, 0.5], [1.0, NAN]),
    ],
    ids=[
        "distribution", "distribution_one_entry", "joint_table", "interference_report",
        "period_record", "period_record_down", "partition", "conditional",
        "bayes_prior", "bayes_likelihood", "agent_belief", "agent_likelihood", "agent_outcome",
    ],
)
def test_public_constructors_fail_closed_on_nan(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: OutcomeDistribution(((NAN, 1.0),)),
        lambda: OutcomeDistribution(((float("inf"), 1.0),)),
        lambda: OutcomeDistribution(((1, 1.5), (-1, -0.5))),
        lambda: JointTable("a", "b", ((1, 1, 2.0), (1, -1, -1.0))),
        lambda: JointTable("a", "b", ((NAN, 1, 1.0),)),
        lambda: PeriodRecord(100, 2.0, -1.0),
        lambda: PeriodRecord(100, -1.0, 2.0),
        lambda: bayes_update([1.5, -0.5], [0.5, 0.5]),
        lambda: classical_agent_step([1.5, -0.5], [0.5, 0.5]),
    ],
    ids=[
        "nan_outcome", "inf_outcome", "distribution", "joint_table", "joint_nan_outcome",
        "period_record_up", "period_record_down", "bayes_prior", "agent_belief",
    ],
)
def test_public_constructors_fail_closed_out_of_range(build):
    """Each probability lies in [0, 1] and each outcome label is finite,
    even when the entries sum to 1."""
    with pytest.raises(ValueError):
        build()


# ---------------------------------------------------------------------------
# uncertainty_product


def test_uncertainty_vanishes_on_eigenstate():
    product, bound = uncertainty_product(PLUS, PRICE, TILTED)
    assert product == pytest.approx(0.0, abs=TOL)
    assert bound == pytest.approx(0.0, abs=TOL)


def test_uncertainty_of_observable_with_itself():
    psi = StateVector([np.cos(np.pi / 8), np.sin(np.pi / 8)])
    product, bound = uncertainty_product(psi, PRICE, PRICE)
    spread_sq = 1.0 - (np.cos(np.pi / 8) ** 2 - np.sin(np.pi / 8) ** 2) ** 2
    assert product == pytest.approx(spread_sq, abs=1e-12)
    assert bound == pytest.approx(0.0, abs=TOL)


def test_uncertainty_matches_dense_oracle():
    psi = StateVector([np.cos(np.pi / 8), np.sin(np.pi / 8)])
    tilted = two_level(np.pi / 4)
    product, bound = uncertainty_product(psi, PRICE, tilted)
    oracle_product, oracle_bound = oracles.uncertainty_sides(
        psi.amplitudes, PRICE.matrix, tilted.matrix
    )
    assert product == pytest.approx(oracle_product, abs=1e-12)
    assert bound == pytest.approx(oracle_bound, abs=1e-12)
    assert product >= bound - TOL


def test_robertson_inequality_random_draws():
    rng = np.random.default_rng(61)
    for _ in range(500):
        d = int(rng.integers(2, 5))
        psi = StateVector(oracles.random_state_array(rng, d))
        a, _ = random_observable(rng, d)
        b, _ = random_observable(rng, d)
        product, bound = uncertainty_product(psi, a, b)
        assert product + TOL >= bound
