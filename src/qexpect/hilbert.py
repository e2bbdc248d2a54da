"""Finite-dimensional complex state space: states, Hermitian observables,
projectors, and unitary time evolution.

All values are immutable and all operations are pure functions, so everything
in this module is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

# Invariants of library-constructed values hold to INVARIANT_TOL; user-supplied
# bases and matrices are accepted up to the looser INPUT_TOL.
INVARIANT_TOL = 1e-10
INPUT_TOL = 1e-8


def _as_complex_vector(amplitudes) -> np.ndarray:
    arr = np.asarray(amplitudes, dtype=complex)
    if arr.ndim != 1:
        raise ValueError(f"state amplitudes must be a 1-d sequence, got shape {arr.shape}")
    return arr


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class StateVector:
    """Normalized complex amplitude vector; the belief state of one agent.

    Amplitudes are renormalized on construction, so ``sum |a_k|^2 == 1``
    within 1e-10 always holds afterwards. Two states that differ only by a
    global phase describe the same physical state; compare with
    :meth:`same_state`, not by amplitudes.
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        arr = _as_complex_vector(self.amplitudes)
        if arr.shape[0] < 2:
            raise ValueError(f"state dimension must be >= 2, got {arr.shape[0]}")
        if not np.isfinite(arr).all():
            raise ValueError("state amplitudes must be finite")
        with np.errstate(over="ignore"):  # an overflowing norm is rejected below
            norm = np.linalg.norm(arr)
        if norm < 1e-12:
            raise ValueError("cannot normalize a (near-)zero amplitude vector")
        if norm == np.inf:
            raise ValueError("cannot normalize an amplitude vector whose norm overflows")
        object.__setattr__(self, "amplitudes", _frozen(arr / norm))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def same_state(self, other: "StateVector", tol: float = INVARIANT_TOL) -> bool:
        """Phase-invariant equality: ``|<a|b>|^2 > 1 - tol``."""
        if self.dim != other.dim:
            return False
        return abs(inner_product(self, other)) ** 2 > 1.0 - tol

    def __repr__(self) -> str:
        return f"StateVector({np.array2string(self.amplitudes, precision=6)})"


@dataclass(frozen=True)
class Projector:
    """Idempotent Hermitian matrix projecting onto an outcome eigenspace."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"projector must be a square matrix, got shape {mat.shape}")
        if not np.isfinite(mat).all():
            raise ValueError("projector entries must be finite")
        if not np.allclose(mat, mat.conj().T, atol=INPUT_TOL):
            raise ValueError("projector is not Hermitian")
        if not np.allclose(mat @ mat, mat, atol=INPUT_TOL):
            raise ValueError("projector is not idempotent")
        object.__setattr__(self, "matrix", _frozen(mat))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def rank(self) -> int:
        return int(round(np.trace(self.matrix).real))


@dataclass(frozen=True)
class Observable:
    """Hermitian operator given as an orthonormal eigenbasis plus real
    eigenvalues (the outcome labels, e.g. +1/-1 for price up/down).

    Repeated eigenvalues are allowed; outcomes then label eigenspaces and
    :func:`projector_for` returns the rank-``multiplicity`` projector.
    ``basis`` holds the eigenvectors as columns, in eigenvector order.
    """

    eigenvectors: tuple[StateVector, ...]
    eigenvalues: tuple[float, ...]
    matrix: np.ndarray = field(init=False, repr=False, compare=False)
    basis: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        vectors = tuple(self.eigenvectors)
        values = tuple(float(v) for v in self.eigenvalues)
        if not vectors:
            raise ValueError("observable needs at least one eigenvector")
        d = vectors[0].dim
        if len(vectors) != d:
            raise ValueError(f"need {d} eigenvectors for dimension {d}, got {len(vectors)}")
        if len(values) != d:
            raise ValueError(f"need {d} eigenvalues for dimension {d}, got {len(values)}")
        if not np.isfinite(values).all():
            raise ValueError(f"observable eigenvalues must be finite, got {values}")
        basis = np.column_stack([v.amplitudes for v in vectors])
        gram = basis.conj().T @ basis
        dev = np.max(np.abs(gram - np.eye(d)))
        if dev > INPUT_TOL:
            raise ValueError(f"eigenvectors are not orthonormal (Gram deviation {dev:.3e})")
        mat = (basis * np.asarray(values)) @ basis.conj().T
        object.__setattr__(self, "eigenvectors", vectors)
        object.__setattr__(self, "eigenvalues", values)
        object.__setattr__(self, "matrix", _frozen(mat))
        object.__setattr__(self, "basis", _frozen(basis))

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    @property
    def outcomes(self) -> tuple[float, ...]:
        """Distinct eigenvalues in descending order."""
        return tuple(sorted(set(self.eigenvalues), reverse=True))


@dataclass(frozen=True)
class Hamiltonian:
    """Hermitian generator of belief dynamics, in units of inverse time
    (hbar = 1)."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"Hamiltonian must be a square matrix, got shape {mat.shape}")
        if not np.isfinite(mat).all():
            raise ValueError("Hamiltonian entries must be finite")
        dev = np.abs(mat - mat.conj().T)
        if dev.max() > INPUT_TOL:
            i, j = np.unravel_index(int(dev.argmax()), dev.shape)
            raise ValueError(
                f"Hamiltonian is not Hermitian: entry ({i},{j}) deviates by {dev[i, j]:.3e}"
            )
        object.__setattr__(self, "matrix", _frozen(mat))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def inner_product(a: StateVector, b: StateVector) -> complex:
    """Hermitian inner product ``<a|b>``, conjugating the first argument."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def make_observable(eigenvectors: Iterable, eigenvalues: Sequence[float]) -> Observable:
    """Build an Observable from an orthonormal basis and outcome labels.

    Accepts StateVectors or raw amplitude sequences. Rejects non-orthonormal
    bases (Gram deviation above 1e-8).
    """
    vectors = tuple(
        v if isinstance(v, StateVector) else StateVector(np.asarray(v, dtype=complex))
        for v in eigenvectors
    )
    return Observable(vectors, tuple(float(v) for v in eigenvalues))


def projector_for(obs: Observable, outcome: float) -> Projector:
    """Projector onto the eigenspace of ``outcome``; rank = multiplicity."""
    outcome = float(outcome)
    basis = obs.basis[:, np.asarray(obs.eigenvalues) == outcome]
    if not basis.size:
        raise ValueError(f"outcome {outcome} is not an eigenvalue of the observable")
    return Projector(basis @ basis.conj().T)


def propagator(hamiltonian: Hamiltonian, t) -> np.ndarray:
    """The unitary ``exp(-i H t)``, by spectral decomposition of the Hermitian
    generator: exact up to roundoff at these dimensions. Negative ``t``
    evolves backwards.

    ``t`` is a scalar, giving a ``(d, d)`` matrix, or an array of times,
    such as ``G`` grid points giving a ``(G, d, d)`` stack, all from the same
    single ``eigh``.
    """
    times = np.asarray(t, dtype=float)
    energies, modes = np.linalg.eigh(hamiltonian.matrix)
    phases = np.exp(-1j * energies * times[..., None])
    return (modes * phases[..., None, :]) @ modes.conj().T


def evolve(psi: StateVector, hamiltonian: Hamiltonian, t: float) -> StateVector:
    """Apply :func:`propagator` ``exp(-i H t)`` to the state; the result is
    renormalized so its norm is 1 within 1e-10."""
    if psi.dim != hamiltonian.dim:
        raise ValueError(f"dimension mismatch: state {psi.dim} vs Hamiltonian {hamiltonian.dim}")
    return StateVector(propagator(hamiltonian, float(t)) @ psi.amplitudes)


def commutator_norm(a: Observable, b: Observable) -> float:
    """Size of ``[A, B] = AB - BA``: Frobenius norm scaled by 1/sqrt(d).

    Convention: the raw Frobenius norm is divided by sqrt(d) (the norm of the
    identity), so for the two-level up/down observable against its 45-degree
    rotation the value is 2.0. Zero within 1e-10 exactly when the operators
    commute.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    comm = a.matrix @ b.matrix - b.matrix @ a.matrix
    return float(np.linalg.norm(comm) / np.sqrt(a.dim))
