"""Born-rule probabilities, projective collapse, sequential joint
distributions, order effects, interference terms, and uncertainty products.

Pure functions over the immutable types from :mod:`qexpect.hilbert`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .hilbert import (
    INVARIANT_TOL,
    Hamiltonian,
    Observable,
    Projector,
    StateVector,
    check_dims,
    check_probabilities,
    inner_product,
    propagator,
)

# Outcomes with Born weight below this are treated as impossible: nothing
# collapses onto them.
ZERO_BRANCH_TOL = 1e-12


class ImpossibleOutcomeError(ValueError):
    """Raised when collapsing onto an outcome of (near-)zero probability."""


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probabilities over measurement outcomes, one entry per distinct
    eigenvalue, in descending outcome order."""

    entries: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        entries = tuple((float(o), float(p)) for o, p in self.entries)
        for outcome, _ in entries:
            if not math.isfinite(outcome):
                raise ValueError(f"outcome label {outcome} is not finite")
        check_probabilities("probabilities", [p for _, p in entries], INVARIANT_TOL)
        object.__setattr__(self, "entries", entries)

    @property
    def outcomes(self) -> tuple[float, ...]:
        return tuple(o for o, _ in self.entries)

    def probability(self, outcome: float) -> float:
        for o, p in self.entries:
            if o == outcome:
                return p
        raise ValueError(f"outcome {outcome} not in distribution")


@dataclass(frozen=True)
class JointTable:
    """Ordered-pair probabilities for two sequential measurements.

    ``rows`` holds the full (alpha, beta) grid; alpha is the first-measured
    outcome. Zero-probability first outcomes keep their rows with weight 0.
    """

    first_observable: str
    second_observable: str
    rows: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        rows = tuple((float(a), float(b), float(p)) for a, b, p in self.rows)
        for a, b, _ in rows:
            if not (math.isfinite(a) and math.isfinite(b)):
                raise ValueError(f"outcome labels ({a}, {b}) are not finite")
        check_probabilities("joint probabilities", [p for _, _, p in rows], INVARIANT_TOL)
        object.__setattr__(self, "rows", rows)

    def probability(self, alpha: float, beta: float) -> float:
        for a, b, p in self.rows:
            if a == alpha and b == beta:
                return p
        raise ValueError(f"pair ({alpha}, {beta}) not in table")

    def marginal_first(self) -> OutcomeDistribution:
        """Sum over the second outcome; recovers the first measurement's
        distribution."""
        acc: dict[float, float] = {}
        for a, _, p in self.rows:
            acc[a] = acc.get(a, 0.0) + p
        entries = tuple(sorted(acc.items(), key=lambda kv: -kv[0]))
        return OutcomeDistribution(entries)


@dataclass(frozen=True)
class InterferenceReport:
    """Direct probability vs. the classical total-probability sum over a
    measured partition; ``interference`` is their difference."""

    p_direct: float
    p_classical_sum: float
    interference: float

    def __post_init__(self) -> None:
        if not -1.0 - 1e-12 <= self.interference <= 1.0 + 1e-12:
            raise ValueError(f"interference {self.interference} outside [-1, 1]")
        if not abs(self.p_direct - (self.p_classical_sum + self.interference)) <= 1e-14:
            raise ValueError("interference report violates its defining identity")


def born_probability(psi: StateVector, proj: Projector) -> float:
    """Probability ``||P psi||^2`` of the outcome selected by the projector."""
    check_dims(state=psi, projector=proj)
    projected = proj.matrix @ psi.amplitudes
    return float(np.real(np.vdot(projected, projected)))


def born_weights(amplitudes: np.ndarray, obs: Observable) -> np.ndarray:
    """Born weights of ``obs``'s outcomes, in descending outcome order, for
    every state in ``amplitudes``: ``(..., d)`` rows give ``(..., K)`` weights.

    The rows are taken as they are: no dimension check, no renormalization.
    Degenerate eigenvectors are summed in eigenvector order.
    """
    layout = obs.layout
    return np.add.reduceat(np.abs(amplitudes @ layout.columns.conj()) ** 2, layout.starts, axis=-1)


def born_distribution(psi: StateVector, obs: Observable) -> OutcomeDistribution:
    """Full outcome distribution of measuring ``obs`` on ``psi``."""
    check_dims(state=psi, observable=obs)
    return OutcomeDistribution(tuple(zip(obs.outcomes, born_weights(psi.amplitudes, obs))))


def evolved_born_grid(
    psi: StateVector, hamiltonian: Hamiltonian, times, obs: Observable
) -> np.ndarray:
    """Outcome weights after evolving the state to each of ``times``: row
    ``g`` holds the Born weights of ``obs``'s outcomes, in descending order,
    at ``times[g]``.

    One ``eigh`` serves the whole grid. Each evolved state is renormalized
    as :func:`qexpect.hilbert.evolve` does, so row ``g`` equals
    ``born_distribution(evolve(psi, H, times[g]), obs)`` up to roundoff.
    """
    check_dims(state=psi, Hamiltonian=hamiltonian, observable=obs)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
    states = propagator(hamiltonian, times) @ psi.amplitudes
    states /= np.linalg.norm(states, axis=-1, keepdims=True)
    return born_weights(states, obs)


def evolved_born(
    psi: StateVector, hamiltonian: Hamiltonian, t: float, obs: Observable
) -> OutcomeDistribution:
    """Outcome distribution after evolving the state for time ``t``: the
    one-time case of :func:`evolved_born_grid`, equal to
    ``born_distribution(evolve(psi, H, t), obs)`` up to roundoff.
    """
    weights = evolved_born_grid(psi, hamiltonian, [t], obs)[0]
    return OutcomeDistribution(tuple(zip(obs.outcomes, weights)))


def _lueders(rows: np.ndarray, proj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one Lüders rule: the branch ``P psi`` of every state in ``rows`` (last axis),
    unnormalized, and its weight ``||P psi||^2``, for one state or a cohort's rows.
    Raises ImpossibleOutcomeError when any weight is below ZERO_BRANCH_TOL."""
    projected = (proj @ rows.T).T
    weight = np.sum(projected.real**2 + projected.imag**2, axis=-1, keepdims=True)
    if (weight < ZERO_BRANCH_TOL).any():
        raise ImpossibleOutcomeError(f"cannot collapse onto an outcome of probability {weight.min():.3e}")
    return projected, weight


def collapse(psi: StateVector, proj: Projector) -> StateVector:
    """Post-measurement state ``P psi / ||P psi||`` by the Lüders rule every market cohort collapses by.

    Raises ImpossibleOutcomeError when the outcome has probability below
    1e-12; a state is never returned unnormalized.
    """
    check_dims(state=psi, projector=proj)
    return StateVector(_lueders(psi.amplitudes, proj.matrix)[0])


def transition_probability(from_eigvec: StateVector, to_eigvec: StateVector) -> float:
    """``|<a|b>|^2``: the chance a belief pinned to one eigenstate is found in
    another; symmetric in its arguments."""
    return abs(inner_product(from_eigvec, to_eigvec)) ** 2


def _branches(psi: StateVector, obs: Observable) -> np.ndarray:
    """The unnormalized branches ``P_k psi`` as the rows of a ``(K, d)`` array,
    one per outcome of ``obs`` in descending order."""
    return obs.layout.stack @ psi.amplitudes


def sequential_joint(
    psi: StateVector,
    first: Observable,
    second: Observable,
    first_id: str = "first",
    second_id: str = "second",
) -> JointTable:
    """Joint distribution of measuring ``first`` then ``second`` with collapse
    between, by the Lüders rule ``p(alpha, beta) = ||P_beta P_alpha psi||^2``.

    No branch is skipped: a first outcome of weight ``w`` contributes at most
    ``w`` to its row, and a row of weight 0 is all zeros.
    """
    check_dims(state=psi, first=first, second=second)
    table = born_weights(_branches(psi, first), second)  # (K1, K2), row-major (alpha, beta)
    pairs = itertools.product(first.outcomes, second.outcomes)
    return JointTable(first_id, second_id, tuple((a, b, p) for (a, b), p in zip(pairs, table.ravel())))


def order_effect_from_tables(table_ij: JointTable, table_ji: JointTable) -> float:
    """Largest cell-wise discrepancy ``max |p_ij(a, b) - p_ji(b, a)|`` between
    the two measurement orders."""
    return max(abs(p - table_ji.probability(b, a)) for a, b, p in table_ij.rows)


def order_effect(psi: StateVector, obs_i: Observable, obs_j: Observable) -> float:
    """How much the joint distribution depends on measurement order.

    Zero (within 1e-10) whenever the observables commute.
    """
    table_ij = sequential_joint(psi, obs_i, obs_j)
    table_ji = sequential_joint(psi, obs_j, obs_i)
    return order_effect_from_tables(table_ij, table_ji)


def interference_term(
    psi: StateVector, target: Projector, partition: Observable
) -> InterferenceReport:
    """Deviation of the direct outcome probability ``||T psi||^2`` from the
    classical total-probability sum over a measured partition, which by the
    Lüders rule is ``sum_k ||T P_k psi||^2``; the interference can be negative
    or positive.
    """
    check_dims(state=psi, target=target, partition=partition)
    p_direct = born_probability(psi, target)
    classical_sum = float(np.sum(np.abs(_branches(psi, partition) @ target.matrix.T) ** 2))
    return InterferenceReport(p_direct, classical_sum, p_direct - classical_sum)


def uncertainty_product(
    psi: StateVector, a: Observable, b: Observable
) -> tuple[float, float]:
    """Uncertainty product and its Robertson lower bound.

    Returns ``(dA * dB, 0.5 * |<psi|[A,B]|psi>|)`` with
    ``dX = sqrt(<X^2> - <X>^2)``; the product always dominates the bound up
    to 1e-10 roundoff. Raises ValueError when either value overflows, as
    it can for eigenvalues near the float range.
    """
    check_dims(state=psi, a=a, b=b)
    vec = psi.amplitudes

    def spread(op: np.ndarray) -> float:
        mean = np.real(np.vdot(vec, op @ vec))
        mean_sq = np.real(np.vdot(vec, op @ (op @ vec)))
        return float(np.sqrt(max(mean_sq - mean**2, 0.0)))

    with np.errstate(over="ignore", invalid="ignore"):  # overflow is caught below
        comm = a.matrix @ b.matrix - b.matrix @ a.matrix
        bound = 0.5 * abs(complex(np.vdot(vec, comm @ vec)))
        product = spread(a.matrix) * spread(b.matrix)
    if not (math.isfinite(product) and math.isfinite(bound)):
        raise ValueError("uncertainty product overflows: observable eigenvalues are too large")
    return product, float(bound)
