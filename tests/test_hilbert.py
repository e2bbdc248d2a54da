import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qexpect.hilbert import (
    Hamiltonian,
    Observable,
    Projector,
    StateVector,
    check_dims,
    commutator_norm,
    evolve,
    inner_product,
    make_observable,
    projector_for,
    propagator,
)
from qexpect.market import AgentPopulation, NewsEvent, NewsSchedule, Scenario, run_ensemble, run_sequential_ensemble, sample_measurement
from qexpect.measurement import (
    born_distribution,
    born_probability,
    born_weights,
    collapse,
    evolved_born_grid,
    interference_term,
    sequential_joint,
    uncertainty_product,
)

import oracles
from oracles import random_hermitian, random_state_array, taylor_expm

INVARIANT_TOL = 1e-10


def rotated_basis(theta: float) -> list[list[float]]:
    return [
        [np.cos(theta), np.sin(theta)],
        [-np.sin(theta), np.cos(theta)],
    ]


@pytest.fixture
def price():
    return make_observable([[1, 0], [0, 1]], [1.0, -1.0])


# ---------------------------------------------------------------------------
# StateVector


def test_construction_normalizes():
    psi = StateVector([3.0, 4.0])
    assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < INVARIANT_TOL
    assert psi.amplitudes[0] == pytest.approx(0.6)


def test_rejects_dimension_below_two():
    with pytest.raises(ValueError):
        StateVector([1.0])


def test_rejects_zero_vector():
    with pytest.raises(ValueError):
        StateVector([0.0, 0.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_constructors_reject_non_finite_entries(bad):
    with pytest.raises(ValueError, match="finite"):
        StateVector([bad, 1.0])
    with pytest.raises(ValueError, match="finite"):
        Hamiltonian([[bad, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="finite"):
        Projector([[bad, 0.0], [0.0, 0.0]])
    if np.isreal(bad):
        with pytest.raises(ValueError, match="finite"):
            make_observable(np.eye(2), [1.0, bad])


def test_rejects_vector_whose_norm_overflows():
    with pytest.raises(ValueError, match="overflows"):
        StateVector([1e308, 1e308])


def test_amplitudes_are_immutable():
    psi = StateVector([1, 0])
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 0.5


def test_normalization_over_many_random_states():
    rng = np.random.default_rng(2024)
    for _ in range(10_000):
        d = int(rng.integers(2, 7))
        raw = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi = StateVector(raw * rng.uniform(0.1, 50.0))
        assert abs(np.vdot(psi.amplitudes, psi.amplitudes).real - 1.0) < INVARIANT_TOL


@given(phase=st.floats(min_value=-np.pi, max_value=np.pi))
def test_same_state_ignores_global_phase(phase):
    psi = StateVector([0.6, 0.8j])
    rotated = StateVector(psi.amplitudes * np.exp(1j * phase))
    assert psi.same_state(rotated)


def test_same_state_distinguishes_orthogonal():
    assert not StateVector([1, 0]).same_state(StateVector([0, 1]))


def test_same_state_is_false_across_dimensions():
    assert not StateVector([1, 0]).same_state(StateVector([1, 0, 0]))


# ---------------------------------------------------------------------------
# inner_product


def test_inner_product_orthogonal_basis_vectors():
    assert inner_product(StateVector([1, 0]), StateVector([0, 1])) == 0


def test_inner_product_of_state_with_itself():
    psi = StateVector([1 / np.sqrt(2), 1 / np.sqrt(2)])
    assert inner_product(psi, psi) == pytest.approx(1.0, abs=1e-12)


def test_inner_product_against_rotated_state():
    value = inner_product(
        StateVector([1, 0]), StateVector([np.cos(np.pi / 3), np.sin(np.pi / 3)])
    )
    assert value == pytest.approx(0.5, abs=1e-12)


def test_inner_product_conjugates_first_argument():
    a = StateVector([1, 1j])
    b = StateVector([1, 0])
    assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)), abs=1e-12)


def test_inner_product_dimension_mismatch():
    with pytest.raises(ValueError):
        inner_product(StateVector([1, 0]), StateVector([1, 0, 0]))


# ---------------------------------------------------------------------------
# Observable construction


def test_price_observable_matrix(price):
    assert np.allclose(price.matrix, np.diag([1.0, -1.0]))


def test_non_orthonormal_basis_rejected():
    with pytest.raises(ValueError, match="orthonormal"):
        make_observable([[1, 0], [0.9, 0.1]], [1.0, -1.0])


def test_rotated_basis_is_valid():
    obs = make_observable(rotated_basis(np.pi / 3), [1.0, -1.0])
    assert np.allclose(obs.basis.conj().T @ obs.basis, np.eye(2), atol=INVARIANT_TOL)


def test_observable_matrix_is_hermitian_for_random_bases():
    rng = np.random.default_rng(9)
    for d in (2, 3, 4):
        gauss = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        basis, _ = np.linalg.qr(gauss)
        obs = make_observable(basis.T, rng.normal(size=d))
        assert np.abs(obs.matrix - obs.matrix.conj().T).max() < INVARIANT_TOL


def test_wrong_vector_count_rejected():
    with pytest.raises(ValueError):
        make_observable([[1, 0]], [1.0])


# The inputs make_observable accepts, and the exact message of each rejection.
_UP_DOWN = [1.0, -1.0]
_MAKE_OBSERVABLE_REJECTS = {
    "zero column": ([[1, 0], [0, 0]], _UP_DOWN, "cannot normalize a (near-)zero amplitude vector"),
    "near-zero column": ([[1e-13, 0], [0, 1]], _UP_DOWN, "cannot normalize a (near-)zero amplitude vector"),
    "nan column": ([[1, 0], [np.nan, 1]], _UP_DOWN, "state amplitudes must be finite"),
    "inf column": ([[1, 0], [0, np.inf]], _UP_DOWN, "state amplitudes must be finite"),
    "complex nan column": ([[1, 0], [complex(0, np.nan), 1]], _UP_DOWN, "state amplitudes must be finite"),
    "overflowing column": ([[1, 0], [1e308, 1e308]], _UP_DOWN, "cannot normalize an amplitude vector whose norm overflows"),
    "first bad column named": ([[0, 0], [np.nan, 1]], _UP_DOWN, "cannot normalize a (near-)zero amplitude vector"),
    "gram just over 1e-8": ([[1, 0], [1.01e-8, 1]], _UP_DOWN, "eigenvectors are not orthonormal (Gram deviation 1.010e-08)"),
    "too few vectors": ([[1, 0, 0], [0, 1, 0]], _UP_DOWN, "need 3 eigenvectors for dimension 3, got 2"),
    "too many vectors": ([[1, 0], [0, 1], [1, 1]], [1.0, -1.0, 0.0], "need 2 eigenvectors for dimension 2, got 3"),
    "non-square basis": ([[1, 0, 0], [0, 1, 0]], [1.0, -1.0, 0.0], "need 3 eigenvectors for dimension 3, got 2"),
    "no vectors": ([], [], "observable needs at least one eigenvector"),
    "dimension one": ([[1]], [1.0], "state dimension must be >= 2, got 1"),
    "ragged vectors": ([[1, 0], [0, 1, 0]], _UP_DOWN, "eigenvectors have differing lengths [2, 3]"),
    "vector not 1-d": ([np.eye(2), np.eye(2)], _UP_DOWN, "state amplitudes must be a 1-d sequence, got shape (2, 2)"),
    "too few eigenvalues": (np.eye(2), [1.0], "need 2 eigenvalues for dimension 2, got 1"),
    "nan eigenvalue": (np.eye(2), [1.0, np.nan], "observable eigenvalue must be a finite number in (-inf, inf), got nan"),
    "inf eigenvalue": (np.eye(2), [np.inf, 1.0], "observable eigenvalue must be a finite number in (-inf, inf), got inf"),
    "huge int eigenvalue": (np.eye(2), [-(10**400), 1.0], f"observable eigenvalue must be a finite number in (-inf, inf), got {-(10**400)}"),
    "bool eigenvalue": (np.eye(2), [True, -1.0], "observable eigenvalue must be a finite number in (-inf, inf), got True"),
    "string eigenvalue": (np.eye(2), ["1", "-1"], "observable eigenvalue must be a finite number in (-inf, inf), got '1'"),
    "none eigenvalue": (np.eye(2), [1.0, None], "observable eigenvalue must be a finite number in (-inf, inf), got None"),
    "eigenvalues none": (np.eye(2), None, "observable eigenvalue must be a finite number in (-inf, inf), got None"),
    "eigenvalues true": (np.eye(2), True, "observable eigenvalue must be a finite number in (-inf, inf), got True"),
    "eigenvalues a scalar": (np.eye(2), 5, "need 2 eigenvalues for dimension 2, got 1"),
}


@pytest.mark.parametrize("name", list(_MAKE_OBSERVABLE_REJECTS))
def test_make_observable_rejects_with_its_message(name):
    vectors, values, message = _MAKE_OBSERVABLE_REJECTS[name]
    with pytest.raises(ValueError) as info:
        make_observable(vectors, values)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "vectors, atol",
    [
        ([[3, 4], [-4, 3]], 1e-15),
        ([[2j, 0], [0, -0.5]], 1e-15),
        # a Gram deviation past 1e-12: stored as the nearest orthonormal basis
        ([[1, 0], [0.99e-8, 1]], 1e-8),
        ([[1, 1, 0], [1, -1, 0], [0, 0, 7]], 1e-15),
    ],
    ids=["unnormalised", "unnormalised complex", "gram just under 1e-8", "unnormalised d=3"],
)
def test_make_observable_accepts_and_normalizes_each_column(vectors, atol):
    obs = make_observable(vectors, np.arange(len(vectors), dtype=float))
    expected = np.array(vectors, dtype=complex).T
    assert np.allclose(obs.basis, expected / np.linalg.norm(expected, axis=0), rtol=0, atol=atol)
    assert np.abs(obs.basis.conj().T @ obs.basis - np.eye(len(vectors))).max() <= 1e-15
    for dtype in (np.float32, np.int64):  # numpy outcome labels are kept as plain floats
        values = make_observable(vectors, np.arange(len(vectors), dtype=dtype)).eigenvalues
        assert values == obs.eigenvalues and all(type(v) is float for v in values)


@pytest.mark.parametrize(
    "basis, message",
    [
        (np.full((2, 2), np.nan), "not orthonormal"),
        (np.array([[np.inf, 0], [0, 1]]), "not orthonormal"),
        (np.array([[3.0, 0], [0, 1]]), "not orthonormal"),
        (np.ones(3), "matrix of eigenvector columns"),
        (np.eye(2)[:, :1], "need 2 eigenvectors"),
        (np.eye(1), "observable dimension must be >= 2, got 1"),
    ],
    ids=["nan", "inf", "unnormalised", "not_a_matrix", "non_square", "dimension_one"],
)
def test_observable_takes_an_orthonormal_column_matrix(basis, message):
    with pytest.raises(ValueError, match=message):
        Observable(basis, [1.0, -1.0])


def test_observable_owns_a_frozen_copy_of_its_basis():
    basis = np.eye(2)
    obs = Observable(basis, [1.0, -1.0])
    basis[0, 0] = 5.0
    assert np.array_equal(obs.basis, np.eye(2))
    with pytest.raises(ValueError):
        obs.basis[0, 0] = 5.0


# ---------------------------------------------------------------------------
# Projectors


def test_projector_for_up_outcome(price):
    proj = projector_for(price, 1.0)
    assert proj.rank == 1
    assert np.allclose(proj.matrix, [[1, 0], [0, 0]])


def test_projector_completeness(price):
    total = sum(projector_for(price, o).matrix for o in price.outcomes)
    assert np.allclose(total, np.eye(2), atol=INVARIANT_TOL)


def test_projector_completeness_random():
    rng = np.random.default_rng(11)
    for d in (2, 3, 5):
        gauss = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        basis, _ = np.linalg.qr(gauss)
        obs = make_observable(basis.T, rng.integers(-2, 3, size=d).astype(float))
        total = sum(projector_for(obs, o).matrix for o in obs.outcomes)
        assert np.abs(total - np.eye(d)).max() < INVARIANT_TOL


def test_degenerate_eigenvalue_projector_has_rank_two():
    obs = make_observable(np.eye(3), [1.0, 1.0, -1.0])
    proj = projector_for(obs, 1.0)
    assert proj.rank == 2
    assert np.allclose(proj.matrix @ proj.matrix, proj.matrix, atol=INVARIANT_TOL)
    assert np.trace(proj.matrix).real == pytest.approx(2.0, abs=INVARIANT_TOL)


def _reference_born_weights(amplitudes, obs):
    """Born weights summed through a dict, degenerate columns in eigenvector order."""
    per_vector = np.abs(amplitudes @ obs.basis.conj()) ** 2
    column = {outcome: k for k, outcome in enumerate(sorted(set(obs.eigenvalues), reverse=True))}
    weights = np.zeros(per_vector.shape[:-1] + (len(column),))
    for j, lam in enumerate(obs.eigenvalues):
        weights[..., column[lam]] += per_vector[..., j]
    return weights


def _reference_projector(obs, outcome):
    """Projector from the eigenvectors that a mask on the eigenvalues selects."""
    basis = obs.basis[:, np.asarray(obs.eigenvalues) == outcome]
    return basis @ basis.conj().T


@pytest.mark.parametrize("values", [[1.0, 1.0, -1.0], [1.0, -1.0, 1.0]], ids=["adjacent", "split"])
def test_layout_is_bitwise_equal_to_the_mask_and_dict_sum_formulas(values):
    rng = np.random.default_rng(29)
    for _ in range(20):
        obs = make_observable(oracles.random_unitary(rng, 3).T, values)
        assert obs.outcomes == (1.0, -1.0)
        for outcome in obs.outcomes:
            assert np.array_equal(projector_for(obs, outcome).matrix, _reference_projector(obs, outcome))
        batch = rng.normal(size=(7, 3)) + 1j * rng.normal(size=(7, 3))
        for amplitudes in (batch, batch[0]):
            assert np.array_equal(born_weights(amplitudes, obs), _reference_born_weights(amplitudes, obs))


def test_projector_for_returns_the_layout_projector():
    obs = make_observable(np.eye(3), [1.0, -1.0, 1.0])
    assert projector_for(obs, 1.0) is projector_for(obs, 1.0)
    assert projector_for(obs, -1.0) is obs.layout.projectors[1]


def test_layout_is_built_only_when_measured():
    a = make_observable(np.eye(2), [1.0, -1.0])
    b = make_observable(rotated_basis(0.3), [1.0, -1.0])
    uncertainty_product(StateVector([0.6, 0.8]), a, b)
    assert "layout" not in a.__dict__ and "layout" not in b.__dict__
    assert a.outcomes == (1.0, -1.0) and "layout" in a.__dict__


def test_unknown_outcome_rejected(price):
    with pytest.raises(ValueError, match="outcome"):
        projector_for(price, 0.5)


@pytest.mark.parametrize("outcome", ["1", True, None, float("nan")], ids=["string", "bool", "none", "nan"])
def test_projector_for_names_an_outcome_that_is_not_a_number(price, outcome):
    with pytest.raises(ValueError) as info:
        projector_for(price, outcome)
    assert str(info.value) == f"outcome must be a finite number in (-inf, inf), got {outcome!r}"
    assert projector_for(price, np.float32(1.0)) is projector_for(price, 1)


@pytest.mark.parametrize("t", ["0.5", True, None, float("inf")], ids=["string", "bool", "none", "inf"])
def test_evolve_names_a_time_that_is_not_a_number(t):
    ham = Hamiltonian([[0, 1], [1, 0]])
    with pytest.raises(ValueError) as info:
        evolve(StateVector([1, 0]), ham, t)
    assert str(info.value) == f"evolution time must be a finite number in (-inf, inf), got {t!r}"
    assert np.array_equal(evolve(StateVector([1, 0]), ham, np.float32(0.5)).amplitudes, evolve(StateVector([1, 0]), ham, 0.5).amplitudes)


def test_projector_type_rejects_non_idempotent():
    with pytest.raises(ValueError, match="idempotent"):
        Projector(np.array([[0.5, 0.0], [0.0, 2.0]]))


# ---------------------------------------------------------------------------
# evolve


def test_zero_time_is_identity(price):
    psi = StateVector([0.6, 0.8])
    assert evolve(psi, Hamiltonian(np.diag([1.0, 2.0])), 0.0).same_state(psi)


def test_rabi_half_period_empties_up_amplitude():
    ham = Hamiltonian([[0, 1], [1, 0]])
    moved = evolve(StateVector([1, 0]), ham, np.pi / 2)
    assert abs(inner_product(StateVector([1, 0]), moved)) ** 2 < 1e-20


def test_rabi_closed_form():
    ham = Hamiltonian([[0, 1], [1, 0]])
    psi = StateVector([1, 0])
    for t in np.linspace(0.1, 2 * np.pi, 16):
        expect = StateVector([np.cos(t), -1j * np.sin(t)])
        assert evolve(psi, ham, t).same_state(expect)


def test_diagonal_hamiltonian_preserves_eigenbasis_probabilities(price):
    psi = StateVector([0.6, 0.8])
    ham = Hamiltonian(np.diag([0.7, -1.3]))
    base = born_distribution(psi, price)
    for t in (0.1, 1.0, 10.0):
        moved = born_distribution(evolve(psi, ham, t), price)
        for (oa, pa), (ob, pb) in zip(moved.entries, base.entries):
            assert oa == ob
            assert pa == pytest.approx(pb, abs=1e-12)


def test_group_action_composition():
    rng = np.random.default_rng(5)
    for d in (2, 3, 4):
        ham = Hamiltonian(random_hermitian(rng, d))
        psi = StateVector(random_state_array(rng, d))
        s, t = 0.37, 1.58
        once = evolve(evolve(psi, ham, s), ham, t)
        direct = evolve(psi, ham, s + t)
        assert once.same_state(direct, tol=1e-9)


def test_unitarity_for_random_hamiltonians():
    rng = np.random.default_rng(7)
    for d in (2, 4, 6):
        ham = Hamiltonian(random_hermitian(rng, d))
        psi = StateVector(random_state_array(rng, d))
        for t in (0.1, 1.0, 10.0):
            moved = evolve(psi, ham, t)
            assert abs(np.linalg.norm(moved.amplitudes) - 1.0) < INVARIANT_TOL


def test_spectral_evolution_matches_taylor_oracle():
    rng = np.random.default_rng(13)
    for d in (2, 3, 4, 5, 6):
        for _ in range(5):
            herm = random_hermitian(rng, d)
            psi_arr = random_state_array(rng, d)
            t = float(rng.uniform(-2.0, 2.0))
            via_series = taylor_expm(-1j * herm * t) @ psi_arr
            via_spectral = evolve(StateVector(psi_arr), Hamiltonian(herm), t).amplitudes
            assert np.abs(via_series - via_spectral).max() < 1e-8


def test_negative_time_reverses_evolution():
    rng = np.random.default_rng(3)
    ham = Hamiltonian(random_hermitian(rng, 3))
    psi = StateVector(random_state_array(rng, 3))
    assert evolve(evolve(psi, ham, 1.3), ham, -1.3).same_state(psi, tol=1e-9)


def test_propagator_over_a_time_grid_stacks_the_scalar_calls():
    rng = np.random.default_rng(17)
    for d in (2, 3, 4):
        ham = Hamiltonian(random_hermitian(rng, d))
        times = np.linspace(-3.0, 2.0, 11)
        stack = propagator(ham, times)
        assert stack.shape == (len(times), d, d)
        assert propagator(ham, 0.7).shape == (d, d)
        for u, t in zip(stack, times):
            assert np.abs(u - propagator(ham, float(t))).max() < 1e-14


def test_propagator_rejects_a_phase_that_overflows():
    ham = Hamiltonian([[1e308, 0.0], [0.0, -1e308]])
    with pytest.raises(ValueError, match="propagator phase"):
        propagator(ham, 2.0)
    with pytest.raises(ValueError, match="propagator phase"):
        evolve(StateVector([1, 0]), Hamiltonian(np.diag([1e300, 0.0])), 1e10)


def test_non_hermitian_hamiltonian_rejected():
    with pytest.raises(ValueError, match="Hermitian"):
        Hamiltonian([[0, 1], [0, 0]])


# Hamiltonian and Projector share one rule for a finite Hermitian matrix;
# each input with the exact message of its rejection.
_ASYMMETRIC = [[0.5, 0.5 + 1e-6], [0.5, 0.5]]  # within np.allclose's rtol, 1e-6 off Hermitian
_HERMITIAN_REJECTS = {
    "projector off hermitian by 1e-6": (Projector, _ASYMMETRIC, "projector is not Hermitian: entry (0,1) deviates by 1.000e-06"),
    "hamiltonian off hermitian by 1e-6": (Hamiltonian, _ASYMMETRIC, "Hamiltonian is not Hermitian: entry (0,1) deviates by 1.000e-06"),
    "hamiltonian off hermitian by 1.01e-8": (Hamiltonian, [[0, 1.01e-8], [0, 0]], "Hamiltonian is not Hermitian: entry (0,1) deviates by 1.010e-08"),
    "empty projector": (Projector, np.zeros((0, 0)), "projector must have at least one entry"),
    "empty hamiltonian": (Hamiltonian, np.zeros((0, 0)), "Hamiltonian must have at least one entry"),
    "non-square projector": (Projector, np.zeros((2, 3)), "projector must be a square matrix, got shape (2, 3)"),
    "hamiltonian not a matrix": (Hamiltonian, np.zeros(2), "Hamiltonian must be a square matrix, got shape (2,)"),
    "nan projector": (Projector, [[np.nan, 0], [0, 0]], "projector entries must be finite"),
    "projector off idempotent by 1.01e-8": (Projector, np.diag([1 + 1.01e-8, 0.0]), "projector is not idempotent"),
    # the check's own arithmetic overflows: a named error and no RuntimeWarning
    "projector whose square overflows": (Projector, np.full((2, 2), 1e200), "projector is not idempotent"),
    "hamiltonian whose deviation overflows": (Hamiltonian, [[1e308, -1e308], [1e308, 1e308]], "Hamiltonian is not Hermitian: entry (0,1) deviates by inf"),
}


@pytest.mark.parametrize("name", list(_HERMITIAN_REJECTS))
def test_hermitian_matrices_reject_with_their_message(name):
    build, matrix, message = _HERMITIAN_REJECTS[name]
    with pytest.raises(ValueError) as info:
        build(matrix)
    assert str(info.value) == message


def test_hermitian_matrices_accept_a_deviation_of_1e_8():
    Hamiltonian([[0, 0.99e-8], [0, 0]])
    Projector(np.diag([1 + 0.99e-8, 0.0]))
    Projector([[0.5, 0.5 + 0.99e-8], [0.5, 0.5]])


def test_evolve_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        evolve(StateVector([1, 0, 0]), Hamiltonian(np.eye(2)), 1.0)


# ---------------------------------------------------------------------------
# Phase gauge invariance


@settings(max_examples=40)
@given(phase=st.floats(min_value=-np.pi, max_value=np.pi))
def test_born_distribution_is_phase_invariant(phase):
    psi = StateVector([np.cos(0.4), np.sin(0.4) * np.exp(0.3j)])
    shifted = StateVector(psi.amplitudes * np.exp(1j * phase))
    obs = make_observable(rotated_basis(np.pi / 5), [1.0, -1.0])
    a = born_distribution(psi, obs).entries
    b = born_distribution(shifted, obs).entries
    assert all(abs(pa - pb) < 1e-12 for (_, pa), (_, pb) in zip(a, b))


# ---------------------------------------------------------------------------
# commutator_norm


def test_commutator_with_self_is_zero(price):
    assert commutator_norm(price, price) == pytest.approx(0.0, abs=INVARIANT_TOL)


def test_commutator_with_relabeled_eigenvalues_is_zero(price):
    relabeled = make_observable([[1, 0], [0, 1]], [-1.0, 1.0])
    assert commutator_norm(price, relabeled) == pytest.approx(0.0, abs=INVARIANT_TOL)


def test_commutator_scaled_frobenius_convention(price):
    tilted = make_observable(rotated_basis(np.pi / 4), [1.0, -1.0])
    # raw Frobenius norm of the up/down vs 45-degree commutator is 2*sqrt(2);
    # the library reports it scaled by 1/sqrt(d)
    assert commutator_norm(price, tilted) == pytest.approx(2.0, abs=1e-12)


def test_commutator_brute_force_agreement(price):
    rng = np.random.default_rng(17)
    for d in (2, 3):
        for _ in range(10):
            g1, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
            g2, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
            v1 = rng.normal(size=d)
            v2 = rng.normal(size=d)
            a = make_observable(g1.T, v1)
            b = make_observable(g2.T, v2)
            mat_a = sum(v * np.outer(c, c.conj()) for v, c in zip(v1, g1.T))
            mat_b = sum(v * np.outer(c, c.conj()) for v, c in zip(v2, g2.T))
            raw = np.linalg.norm(mat_a @ mat_b - mat_b @ mat_a)
            assert commutator_norm(a, b) == pytest.approx(raw / np.sqrt(d), abs=1e-10)


@pytest.mark.parametrize("e", [1e150, 1e160, 1e200, 1e300])
def test_commutator_norm_that_overflows_is_a_named_error(e):
    # AB - BA is 2e^2 off the diagonal: its norm is inf from e = 1e150, and NaN from 1e160
    a = make_observable([[1, 0], [0, 1]], [e, -e])
    b = make_observable([[1, 1], [1, -1]], [e, -e])
    with pytest.raises(ValueError) as info:
        commutator_norm(a, b)
    assert str(info.value) == "commutator norm overflows: observable eigenvalues are too large"


def test_commutator_dimension_mismatch(price):
    other = make_observable(np.eye(3), [1.0, 0.0, -1.0])
    with pytest.raises(ValueError):
        commutator_norm(price, other)


# ---------------------------------------------------------------------------
# check_dims: the one dimension rule


def test_check_dims_passes_operands_of_one_dimension(price):
    check_dims(state=StateVector([1, 0]))
    check_dims(state=StateVector([1, 0]), observable=price, Hamiltonian=Hamiltonian(np.eye(2)))


def test_check_dims_names_every_operand_in_the_order_given(price):
    with pytest.raises(ValueError) as info:
        check_dims(target=price, state=StateVector([1, 0, 0]), partition=price)
    assert str(info.value) == "dimension mismatch: target 2 vs state 3 vs partition 2"


_S2, _S3 = StateVector([1, 0]), StateVector([1, 0, 0])
_P2 = make_observable(np.eye(2), [1.0, -1.0])
_P3 = make_observable(np.eye(3), [1.0, -1.0, -1.0])
_UP2 = projector_for(_P2, 1.0)
_H2 = Hamiltonian(np.eye(2))


def _scenario(populations, news=()):
    return Scenario(0, tuple(AgentPopulation(5, psi) for psi in populations), NewsSchedule(news), _P2, 0.1, 100.0, 1)


# Every public function that combines operands of one space, and the whole message it raises.
_DIMENSION_MISMATCHES = {
    "inner_product": (lambda: inner_product(_S2, _S3), "a 2 vs b 3"),
    "evolve": (lambda: evolve(_S3, _H2, 1.0), "state 3 vs Hamiltonian 2"),
    "commutator_norm": (lambda: commutator_norm(_P2, _P3), "a 2 vs b 3"),
    "born_probability": (lambda: born_probability(_S3, _UP2), "state 3 vs projector 2"),
    "born_distribution": (lambda: born_distribution(_S3, _P2), "state 3 vs observable 2"),
    "evolved_born_grid": (lambda: evolved_born_grid(_S2, _H2, [0.0, 1.0], _P3), "state 2 vs Hamiltonian 2 vs observable 3"),
    "collapse": (lambda: collapse(_S3, _UP2), "state 3 vs projector 2"),
    "sequential_joint": (lambda: sequential_joint(_S2, _P2, _P3), "state 2 vs first 2 vs second 3"),
    "interference_term": (lambda: interference_term(_S3, _UP2, _P2), "state 3 vs target 2 vs partition 2"),
    "uncertainty_product": (lambda: uncertainty_product(_S2, _P3, _P2), "state 2 vs a 3 vs b 2"),
    "run_sequential_ensemble": (
        lambda: run_sequential_ensemble(AgentPopulation(5, _S2), _P3, _P2, "ji"), "state 2 vs first 2 vs second 3",
    ),
    "scenario_population": (
        lambda: _scenario([_S2, _S3]), "price_observable 2 vs populations[0] 2 vs populations[1] 3",
    ),
    "scenario_news_override": (
        lambda: _scenario([_S2], [NewsEvent(_H2, 1.0), NewsEvent(_H2, 1.0, _P3)]),
        "price_observable 2 vs populations[0] 2 vs news[1].observable 3",
    ),
    "sample_measurement": (lambda: sample_measurement(_S3, _P2, np.random.default_rng(0)), "state 3 vs observable 2"),
    "run_ensemble": (lambda: run_ensemble(AgentPopulation(5, _S3), _P2, 0), "state 3 vs observable 2"),
}


@pytest.mark.parametrize("call, operands", list(_DIMENSION_MISMATCHES.values()), ids=list(_DIMENSION_MISMATCHES))
def test_each_dimension_mismatch_names_every_operand(call, operands):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == f"dimension mismatch: {operands}"
