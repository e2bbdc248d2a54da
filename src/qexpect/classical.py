"""Classical probability baseline: total probability over a partition,
Bayesian updating, and a deterministic belief-updating agent.

Quantum deviations (interference, order effects) are measured against this
module's predictions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

PARTITION_TOL = 1e-9


class ImpossibleEvidenceError(ValueError):
    """Raised when conditioning on evidence of zero probability."""


@dataclass(frozen=True)
class ClassicalConditionalModel:
    """A disjoint partition with per-event conditional probabilities of a
    target event: ``partition_probs[k] = p(B_k)``, ``conditionals[k] = p(A|B_k)``."""

    partition_probs: tuple[float, ...]
    conditionals: tuple[float, ...]

    def __post_init__(self) -> None:
        probs = tuple(float(p) for p in self.partition_probs)
        conds = tuple(float(c) for c in self.conditionals)
        if len(probs) != len(conds):
            raise ValueError(
                f"{len(probs)} partition events but {len(conds)} conditionals"
            )
        if not probs:
            raise ValueError("partition must contain at least one event")
        total = sum(probs)
        if not abs(total - 1.0) <= PARTITION_TOL:
            raise ValueError(f"partition probabilities sum to {total}, not 1")
        if not all(p > 0.0 for p in probs):
            raise ValueError("every partition event needs strictly positive probability")
        if not all(-1e-12 <= c <= 1.0 + 1e-12 for c in conds):
            raise ValueError("conditional probabilities must lie in [0, 1]")
        object.__setattr__(self, "partition_probs", probs)
        object.__setattr__(self, "conditionals", conds)


def total_probability(model: ClassicalConditionalModel) -> float:
    """Law of total probability: ``p(A) = sum_k p(A|B_k) p(B_k)``."""
    return float(
        sum(c * p for c, p in zip(model.conditionals, model.partition_probs))
    )


def bayes_update(prior: Sequence[float], likelihoods: Sequence[float]) -> np.ndarray:
    """Posterior ``prior_k * L_k / sum_m prior_m * L_m``.

    Raises ImpossibleEvidenceError when the evidence probability is zero,
    mirroring the quantum impossible-outcome error.
    """
    prior_arr = np.asarray(prior, dtype=float)
    like_arr = np.asarray(likelihoods, dtype=float)
    if prior_arr.shape != like_arr.shape:
        raise ValueError(f"prior shape {prior_arr.shape} vs likelihoods {like_arr.shape}")
    if not abs(prior_arr.sum() - 1.0) <= PARTITION_TOL:
        raise ValueError(f"prior sums to {prior_arr.sum()}, not 1")
    if not np.all((prior_arr >= -1e-12) & (prior_arr <= 1.0 + 1e-12)):
        raise ValueError("prior entries must lie in [0, 1]")
    if not np.all((like_arr >= -1e-12) & (like_arr <= 1.0 + 1e-12)):
        raise ValueError("likelihoods must lie in [0, 1]")
    joint = prior_arr * like_arr
    evidence = joint.sum()
    if not evidence > 0.0:
        raise ImpossibleEvidenceError("evidence has zero probability under the prior")
    return joint / evidence


def classical_agent_step(
    belief: Sequence[float],
    likelihoods: Sequence[float],
    outcomes: Sequence[float] = (1.0, -1.0),
) -> tuple[np.ndarray, float]:
    """One deterministic agent step: Bayes-update the belief, then report the
    belief-weighted expected outcome value."""
    posterior = bayes_update(belief, likelihoods)
    values = np.asarray(outcomes, dtype=float)
    if values.shape != posterior.shape:
        raise ValueError(f"{posterior.shape[0]} belief entries but {values.shape[0]} outcomes")
    if not np.isfinite(values).all():
        raise ValueError(f"outcome values must be finite, got {values}")
    return posterior, float(posterior @ values)
