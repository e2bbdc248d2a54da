"""Finite-dimensional complex state space: states, Hermitian observables,
projectors, and unitary time evolution.

All values are immutable and all operations are pure functions, so everything
in this module is safe to share across threads (two threads that race to
build an observable's lazy matrix or layout compute equal values).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

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


def check_probabilities(name: str, values: Sequence[float], sum_tol: float | None = None) -> None:
    """The one rule of a probability table: every value lies in [0, 1] up to
    1e-12 and, given ``sum_tol``, they sum to 1 within it; NaN fails both.
    Plain floats, since it runs once per market period."""
    for p in values:
        if not -1e-12 <= p <= 1.0 + 1e-12:
            raise ValueError(f"{name} must lie in [0, 1], got {p}")
    if sum_tol is not None and not abs(sum(values) - 1.0) <= sum_tol:
        raise ValueError(f"{name} sum to {sum(values)}, not 1")


def check_dims(**operands) -> None:
    """The one dimension rule: every named operand (a state, observable,
    projector or Hamiltonian) acts on one space, else the error names each
    operand and its ``dim`` in the order given, as in
    ``dimension mismatch: state 3 vs projector 2``."""
    dims = [op.dim for op in operands.values()]
    if dims.count(dims[0]) != len(dims):
        raise ValueError("dimension mismatch: " + " vs ".join(f"{name} {dim}" for name, dim in zip(operands, dims)))


def _shown(value) -> str:
    try:
        return repr(value)
    except ValueError:  # an int too long for Python's digit limit, sys.get_int_max_str_digits()
        return f"an int of {value.bit_length()} bits"


def check_integer(name: str, value, lo: int, hi: int) -> int:
    """The one integer rule: an int or numpy integer, not a bool, in [lo, hi], as a plain int."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) and lo <= int(value) <= hi:
        return int(value)
    raise ValueError(f"{name} must be an integer in [{lo}, {hi}], got {_shown(value)}")


def check_real(name: str, value, lo: float = -math.inf, closed: bool = False) -> float:
    """The one real rule: a finite int, float or numpy number, not a bool, > lo (>= lo if ``closed``), as a plain float."""
    # compared as a Python number: exactly, and without numpy's scalar overhead
    x = float(value) if isinstance(value, (float, np.floating)) else int(value) if isinstance(value, np.integer) else value
    if isinstance(x, (float, int)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max and (x > lo or closed and x == lo):
        return float(x)
    raise ValueError(f"{name} must be a finite number in {'[' if closed else '('}{lo:g}, inf), got {_shown(value)}")


def _hermitian(matrix, kind: str) -> np.ndarray:
    """``matrix`` as a frozen complex array, once it is checked to be square,
    non-empty, finite and within INPUT_TOL of its conjugate transpose."""
    mat = np.asarray(matrix, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{kind} must be a square matrix, got shape {mat.shape}")
    if not mat.size:
        raise ValueError(f"{kind} must have at least one entry")
    if not np.isfinite(mat).all():
        raise ValueError(f"{kind} entries must be finite")
    with np.errstate(over="ignore", invalid="ignore"):  # a deviation of inf or NaN fails the check below
        dev = np.abs(mat - mat.conj().T)
    if not dev.max() <= INPUT_TOL:
        i, j = np.unravel_index(int(dev.argmax()), dev.shape)
        raise ValueError(f"{kind} is not Hermitian: entry ({i},{j}) deviates by {dev[i, j]:.3e}")
    return _frozen(mat)


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    """Each row of an ``(n, d)`` amplitude array over its norm; the first row that is
    not a state raises. The one rule of :class:`StateVector` and :func:`make_observable`."""
    with np.errstate(over="ignore", invalid="ignore"):  # np.linalg.norm's two dots, to the bit; a bad row is rejected below
        norms = [math.sqrt(float(row.real.dot(row.real)) + float(row.imag.dot(row.imag))) for row in rows]
    for row, norm in zip(rows, norms):
        if rows.shape[1] < 2:
            raise ValueError(f"state dimension must be >= 2, got {rows.shape[1]}")
        if not norm < math.inf:  # a non-finite amplitude, or a norm that overflows
            if not np.isfinite(row).all():
                raise ValueError("state amplitudes must be finite")
            raise ValueError("cannot normalize an amplitude vector whose norm overflows")
        if norm < 1e-12:
            raise ValueError("cannot normalize a (near-)zero amplitude vector")
    return rows / np.array(norms)[:, None]


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
        object.__setattr__(self, "amplitudes", _frozen(_unit_rows(arr[None])[0]))

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
        mat = _hermitian(self.matrix, "projector")
        with np.errstate(over="ignore", invalid="ignore"):  # a gap of inf or NaN fails the check below
            gap = np.abs(mat @ mat - mat).max()
        if not gap <= INPUT_TOL:
            raise ValueError("projector is not idempotent")
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def _trusted(cls, matrix: np.ndarray) -> "Projector":
        """``B Bᴴ`` of columns already checked to be orthonormal, unchecked."""
        proj = object.__new__(cls)
        object.__setattr__(proj, "matrix", _frozen(matrix))
        return proj

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def rank(self) -> int:
        return int(round(np.trace(self.matrix).real))


class SpectralLayout(NamedTuple):
    """An observable's eigenbasis grouped by descending outcome: ``outcomes[k]``
    owns ``ranks[k]`` columns of ``columns`` from ``starts[k]`` on, in
    eigenvector order; ``stack[k]`` projects onto their span, as ``projectors[k]`` does."""

    outcomes: tuple[float, ...]
    columns: np.ndarray
    starts: np.ndarray
    ranks: np.ndarray
    stack: np.ndarray
    projectors: tuple[Projector, ...]


@dataclass(frozen=True)
class Observable:
    """Hermitian operator given as an orthonormal eigenbasis plus real
    eigenvalues (the outcome labels, e.g. +1/-1 for price up/down).

    Repeated eigenvalues are allowed; outcomes then label eigenspaces and
    :func:`projector_for` returns the rank-``multiplicity`` projector.
    ``basis`` (``d x d``, ``d >= 2``) holds the eigenvectors as columns, in eigenvector order,
    with a Gram matrix within 1e-8 of the identity; one that deviates by more than 1e-12 is
    stored as its nearest orthonormal basis. :attr:`layout` groups them by outcome.
    """

    basis: np.ndarray
    eigenvalues: tuple[float, ...]

    def __post_init__(self) -> None:
        basis = np.array(self.basis, dtype=complex, order="C")
        labels = self.eigenvalues.tolist() if isinstance(self.eigenvalues, np.ndarray) else self.eigenvalues  # Python numbers check fastest
        values = tuple(check_real("observable eigenvalue", v) for v in (labels if hasattr(labels, "__iter__") else [labels]))
        if not basis.size:
            raise ValueError("observable needs at least one eigenvector")
        if basis.ndim != 2:
            raise ValueError(f"observable basis must be a matrix of eigenvector columns, got shape {basis.shape}")
        d, n = basis.shape
        if d < 2:
            raise ValueError(f"observable dimension must be >= 2, got {d}")
        if n != d:
            raise ValueError(f"need {d} eigenvectors for dimension {d}, got {n}")
        if len(values) != d:
            raise ValueError(f"need {d} eigenvalues for dimension {d}, got {len(values)}")
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite Gram fails the check below
            dev = np.abs(basis.conj().T @ basis - np.eye(d)).max()
        if not dev <= INPUT_TOL:
            raise ValueError(f"eigenvectors are not orthonormal (Gram deviation {dev:.3e})")
        if dev > 1e-12:  # the nearest orthonormal basis, U Vᴴ of the SVD U S Vᴴ, passes every later check
            u, _, vh = np.linalg.svd(basis)
            basis = u @ vh
        object.__setattr__(self, "basis", _frozen(basis))
        object.__setattr__(self, "eigenvalues", values)

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    @cached_property
    def matrix(self) -> np.ndarray:
        """The operator ``B diag(eigenvalues) Bᴴ``, built on first use."""
        return _frozen((self.basis * np.asarray(self.eigenvalues)) @ self.basis.conj().T)

    @cached_property
    def layout(self) -> SpectralLayout:
        """The eigenbasis grouped by outcome, built on first use, so that
        an observable that is never measured costs only its Gram check."""
        # a stable sort: degenerate columns keep eigenvector order
        order = sorted(range(self.dim), key=lambda j: -self.eigenvalues[j])
        values = [self.eigenvalues[j] for j in order]
        starts = [k for k in range(self.dim) if k == 0 or values[k] != values[k - 1]]
        ends = starts[1:] + [self.dim]
        columns = _frozen(self.basis[:, order])
        stack = _frozen(np.stack([b @ b.conj().T for b in (columns[:, lo:hi] for lo, hi in zip(starts, ends))]))
        ranks = _frozen(np.subtract(ends, starts))
        projectors = tuple(Projector._trusted(p) for p in stack)
        return SpectralLayout(tuple(values[k] for k in starts), columns, _frozen(np.array(starts)), ranks, stack, projectors)

    @property
    def outcomes(self) -> tuple[float, ...]:
        """Distinct eigenvalues in descending order."""
        return self.layout.outcomes


@dataclass(frozen=True)
class Hamiltonian:
    """Hermitian generator of belief dynamics, in units of inverse time
    (hbar = 1)."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _hermitian(self.matrix, "Hamiltonian"))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def inner_product(a: StateVector, b: StateVector) -> complex:
    """Hermitian inner product ``<a|b>``, conjugating the first argument."""
    check_dims(a=a, b=b)
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def make_observable(eigenvectors: Iterable, eigenvalues: Sequence[float]) -> Observable:
    """Build an Observable from one StateVector or amplitude sequence per
    eigenvector, all normalized in one pass by :class:`StateVector`'s rule
    (the first vector it rejects raises its message); :class:`Observable`
    checks orthonormality."""
    vectors = [v.amplitudes if isinstance(v, StateVector) else _as_complex_vector(v) for v in eigenvectors]
    if len({len(v) for v in vectors}) > 1:
        raise ValueError(f"eigenvectors have differing lengths {[len(v) for v in vectors]}")
    rows = np.array(vectors) if vectors else np.empty((0, 0), dtype=complex)
    return Observable(_unit_rows(rows).T, eigenvalues)


def projector_for(obs: Observable, outcome: float) -> Projector:
    """Projector onto the eigenspace of ``outcome``; rank = multiplicity."""
    outcome = check_real("outcome", outcome)
    layout = obs.layout
    if outcome not in layout.outcomes:
        raise ValueError(f"outcome {outcome} is not an eigenvalue of the observable")
    return layout.projectors[layout.outcomes.index(outcome)]


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
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite phase is rejected below
        phases = np.exp(-1j * energies * times[..., None])
    if not np.isfinite(phases).all():
        raise ValueError("propagator phase energy * t is not finite: Hamiltonian or time too large")
    return (modes * phases[..., None, :]) @ modes.conj().T


def evolve(psi: StateVector, hamiltonian: Hamiltonian, t: float) -> StateVector:
    """Apply :func:`propagator` ``exp(-i H t)`` to the state; the result is
    renormalized so its norm is 1 within 1e-10."""
    check_dims(state=psi, Hamiltonian=hamiltonian)
    return StateVector(propagator(hamiltonian, check_real("evolution time", t)) @ psi.amplitudes)


def commutator_norm(a: Observable, b: Observable) -> float:
    """Size of ``[A, B] = AB - BA``: Frobenius norm scaled by 1/sqrt(d).

    Convention: the raw Frobenius norm is divided by sqrt(d) (the norm of the
    identity), so for the two-level up/down observable against its 45-degree
    rotation the value is 2.0. Zero within 1e-10 exactly when the operators
    commute. Raises ValueError when the norm overflows, as it does for
    eigenvalues from about 1e150 on.
    """
    check_dims(a=a, b=b)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is caught below
        norm = float(np.linalg.norm(a.matrix @ b.matrix - b.matrix @ a.matrix) / np.sqrt(a.dim))
    if not math.isfinite(norm):
        raise ValueError("commutator norm overflows: observable eigenvalues are too large")
    return norm
