import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qexpect.classical import (
    ClassicalConditionalModel,
    ImpossibleEvidenceError,
    bayes_update,
    classical_agent_step,
    total_probability,
)
from qexpect.hilbert import StateVector, make_observable, projector_for
from qexpect.measurement import born_probability, collapse, interference_term

import oracles


# ---------------------------------------------------------------------------
# model validation


def test_partition_must_sum_to_one():
    with pytest.raises(ValueError, match="sum"):
        ClassicalConditionalModel((0.5, 0.4), (0.1, 0.2))


def test_partition_events_need_positive_mass():
    with pytest.raises(ValueError, match="positive"):
        ClassicalConditionalModel((1.0, 0.0), (0.1, 0.2))


def test_conditionals_must_be_probabilities():
    with pytest.raises(ValueError):
        ClassicalConditionalModel((0.5, 0.5), (1.3, 0.2))


def test_mismatched_lengths_rejected():
    with pytest.raises(ValueError):
        ClassicalConditionalModel((0.5, 0.5), (0.1,))


# Each rejected input of the classical constructors and updates, with its exact message.
_REJECTS = {
    "empty partition": (lambda: ClassicalConditionalModel((), ()), "partition must contain at least one event"),
    "partition off by 2^-20": (
        lambda: ClassicalConditionalModel((0.5, 0.5 + 2**-20), (0.1, 0.2)),
        "partition probabilities sum to 1.0000009536743164, not 1",
    ),
    "partition entry above 1": (
        lambda: ClassicalConditionalModel((1.2, -0.2), (0.1, 0.2)),
        "partition probabilities must lie in [0, 1], got 1.2",
    ),
    "conditional above 1": (
        lambda: ClassicalConditionalModel((0.5, 0.5), (1.3, 0.2)),
        "conditional probabilities must lie in [0, 1], got 1.3",
    ),
    "prior of another shape": (lambda: bayes_update([0.5, 0.5], [0.5, 0.5, 0.5]), "prior shape (2,) vs likelihoods (3,)"),
    "prior off by 2^-20": (lambda: bayes_update([0.5, 0.5 + 2**-20], [0.5, 0.5]), "prior entries sum to 1.0000009536743164, not 1"),
    "negative likelihood": (lambda: bayes_update([0.5, 0.5], [0.5, -0.1]), "likelihoods must lie in [0, 1], got -0.1"),
    "belief of another length": (
        lambda: classical_agent_step([0.5, 0.5], [0.5, 0.5], [1.0, 0.0, -1.0]),
        "2 belief entries but 3 outcomes",
    ),
}


@pytest.mark.parametrize("name", list(_REJECTS))
def test_classical_rejects_with_its_message(name):
    build, message = _REJECTS[name]
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# total_probability


def test_constant_conditional():
    model = ClassicalConditionalModel((0.5, 0.5), (0.3, 0.3))
    assert total_probability(model) == pytest.approx(0.3, abs=1e-12)


def test_singleton_partition():
    model = ClassicalConditionalModel((1.0,), (0.7,))
    assert total_probability(model) == pytest.approx(0.7, abs=1e-12)


def test_asymmetric_partition():
    model = ClassicalConditionalModel((0.625, 0.375), (0.4, 0.0))
    assert total_probability(model) == pytest.approx(0.25, abs=1e-12)


def test_refining_the_partition_changes_nothing():
    coarse = ClassicalConditionalModel((0.6, 0.4), (0.2, 0.9))
    # split each event in two with the same conditional
    fine = ClassicalConditionalModel((0.3, 0.3, 0.25, 0.15), (0.2, 0.2, 0.9, 0.9))
    assert abs(total_probability(coarse) - total_probability(fine)) < 1e-12


# ---------------------------------------------------------------------------
# bayes_update


def test_uniform_prior_equal_likelihoods():
    posterior = bayes_update((0.5, 0.5), (0.4, 0.4))
    assert np.allclose(posterior, [0.5, 0.5], atol=1e-12)


def test_certain_evidence():
    posterior = bayes_update((0.5, 0.5), (1.0, 0.0))
    assert np.allclose(posterior, [1.0, 0.0], atol=1e-12)


def test_worked_posterior():
    posterior = bayes_update((0.25, 0.75), (0.8, 0.4))
    assert np.allclose(posterior, [0.4, 0.6], atol=1e-12)


def test_zero_evidence_raises():
    with pytest.raises(ImpossibleEvidenceError):
        bayes_update((1.0, 0.0), (0.0, 0.7))


def test_posterior_sums_to_one_random():
    rng = np.random.default_rng(71)
    for _ in range(200):
        k = int(rng.integers(2, 6))
        prior = rng.dirichlet(np.ones(k))
        likelihoods = rng.uniform(0.05, 1.0, size=k)
        posterior = bayes_update(prior, likelihoods)
        assert abs(posterior.sum() - 1.0) < 1e-12


@settings(max_examples=50)
@given(
    weights=st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=5),
    level=st.floats(min_value=0.05, max_value=1.0),
)
def test_uniform_likelihoods_are_the_identity(weights, level):
    prior = np.asarray(weights) / np.sum(weights)
    posterior = bayes_update(prior, [level] * len(weights))
    assert np.allclose(posterior, prior, atol=1e-12)


# ---------------------------------------------------------------------------
# classical_agent_step


def test_certain_belief_gives_certain_direction():
    _, direction = classical_agent_step((1.0, 0.0), (0.6, 0.3))
    assert direction == pytest.approx(1.0, abs=1e-12)


def test_symmetric_belief_gives_zero_direction():
    _, direction = classical_agent_step((0.5, 0.5), (0.4, 0.4))
    assert direction == pytest.approx(0.0, abs=1e-12)


def test_worked_agent_step():
    belief, direction = classical_agent_step((0.25, 0.75), (0.8, 0.4))
    assert np.allclose(belief, [0.4, 0.6], atol=1e-12)
    assert direction == pytest.approx(-0.2, abs=1e-12)


# ---------------------------------------------------------------------------
# agreement with the quantum module on commuting observables


def test_classical_sum_equals_total_probability_when_commuting():
    rng = np.random.default_rng(73)
    for _ in range(50):
        d = int(rng.integers(2, 5))
        basis = oracles.random_unitary(rng, d)
        partition = make_observable(basis.T, np.arange(d, dtype=float))
        target_obs = make_observable(basis.T, rng.normal(size=d))
        psi = StateVector(oracles.random_state_array(rng, d))
        target = projector_for(target_obs, target_obs.outcomes[0])

        report = interference_term(psi, target, partition)

        probs, conds = [], []
        for outcome in partition.outcomes:
            branch = projector_for(partition, outcome)
            p = born_probability(psi, branch)
            if p < 1e-12:
                continue
            probs.append(p)
            conds.append(born_probability(collapse(psi, branch), target))
        # allow the tiny renormalization slack the quantum side skips
        model = ClassicalConditionalModel(tuple(x / sum(probs) for x in probs), tuple(conds))
        assert abs(report.interference) < 1e-10
        assert report.p_classical_sum == pytest.approx(
            total_probability(model) * sum(probs), abs=1e-10
        )
