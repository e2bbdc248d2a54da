"""Brute-force reference implementations, independent of the library's code
paths: everything here works on raw numpy arrays via explicit dense matrix
arithmetic (chained projector products, Taylor-series exponentials), except
the reference market, which steps each quantum agent alone through the
library's single-state operations (its classical agents use only this
module's arithmetic). The mean-field market reads a Scenario's raw arrays
and uses nothing of ``qexpect.market`` but that data."""

import numpy as np

from qexpect.hilbert import evolve
from qexpect.market import agent_stream, sample_measurement


def taylor_expm(matrix: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaled Taylor series with repeated squaring."""
    m = np.asarray(matrix, dtype=complex)
    norm = np.linalg.norm(m, 1)
    squarings = max(0, int(np.ceil(np.log2(norm))) + 1) if norm > 0 else 0
    scaled = m / (2**squarings)
    d = m.shape[0]
    term = np.eye(d, dtype=complex)
    total = np.eye(d, dtype=complex)
    for k in range(1, 60):
        term = term @ scaled / k
        total = total + term
        if np.abs(term).max() < 1e-20:
            break
    for _ in range(squarings):
        total = total @ total
    return total


def rank1_projector(column: np.ndarray) -> np.ndarray:
    v = np.asarray(column, dtype=complex).reshape(-1, 1)
    return v @ v.conj().T


def span_projector(columns: np.ndarray) -> np.ndarray:
    """The projector onto the span of orthonormal columns, as a sum of rank-1 projectors."""
    return sum(rank1_projector(e) for e in columns.T)


def chained_probability(psi: np.ndarray, *projectors: np.ndarray) -> float:
    """``|| P_n ... P_1 psi ||^2`` by explicit matrix products."""
    vec = np.asarray(psi, dtype=complex)
    for proj in projectors:
        vec = np.asarray(proj, dtype=complex) @ vec
    return float(np.real(np.vdot(vec, vec)))


def sequential_table(psi, first_projs, second_projs) -> np.ndarray:
    """Joint probabilities p(a, b) = ||P_b P_a psi||^2 for all ordered pairs."""
    return np.array(
        [
            [chained_probability(psi, pa, pb) for pb in second_projs]
            for pa in first_projs
        ]
    )


def interference(psi, target_proj, partition_projs) -> tuple[float, float, float]:
    """(direct, classical sum, difference) via chained projector products:
    the classical branch weight p(B_k) p(A|B_k) collapses to ||T P_k psi||^2."""
    direct = chained_probability(psi, target_proj)
    classical = sum(chained_probability(psi, pk, target_proj) for pk in partition_projs)
    return direct, classical, direct - classical


def expectation(psi, operator) -> float:
    vec = np.asarray(psi, dtype=complex)
    return float(np.real(np.vdot(vec, np.asarray(operator, dtype=complex) @ vec)))


def uncertainty_sides(psi, op_a, op_b) -> tuple[float, float]:
    """(dA*dB, 0.5|<[A,B]>|) via dense expectation values."""
    a = np.asarray(op_a, dtype=complex)
    b = np.asarray(op_b, dtype=complex)

    def spread(op):
        return np.sqrt(max(expectation(psi, op @ op) - expectation(psi, op) ** 2, 0.0))

    vec = np.asarray(psi, dtype=complex)
    comm_mean = np.vdot(vec, (a @ b - b @ a) @ vec)
    return spread(a) * spread(b), 0.5 * abs(complex(comm_mean))


# ---------------------------------------------------------------------------
# Random instance generation (seeded by callers)


def random_state_array(rng: np.random.Generator, dim: int) -> np.ndarray:
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    gauss = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(gauss)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    gauss = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (gauss + gauss.conj().T) / 2.0


# ---------------------------------------------------------------------------
# Reference market


def reference_market(scenario) -> list[tuple[float, float, float]]:
    """``(price, up_fraction, down_fraction)`` per period, every agent stepped
    alone on its own ``agent_stream(seed, i, period)``. A quantum agent
    ``evolve``s its own state, then ``sample_measurement`` draws and collapses
    it. A classical agent holds a belief over the price observable's outcomes,
    at first the Born weights of its state by chained projector products; a
    period's news multiplies it by each outcome's stay probability
    ``|<e|U|e>|^2``, averaged over its eigenvectors as in
    :func:`mean_field_moments`, and renormalises it, and the agent draws the
    first outcome whose cumulative belief exceeds its stream's first uniform.
    No state is shared between agents, so nothing depends on how a market
    groups them."""
    agents = []
    for pop in scenario.populations:
        if pop.kind == "quantum":
            agents += [("quantum", pop.initial_state) for _ in range(pop.count)]
        else:
            psi = pop.initial_state.amplitudes
            prior = [chained_probability(psi, span_projector(cols)) for _, cols in eigenspaces(scenario.price_observable)]
            agents += [("classical", np.array(prior)) for _ in range(pop.count)]
    price = float(scenario.initial_price)
    rows = []
    for period in range(scenario.periods):
        event = scenario.news.event_for(period)
        obs = scenario.price_observable
        if event is not None and event.observable is not None:
            obs = event.observable
        spaces = eigenspaces(obs)
        stay = None
        if event is not None:
            unitary = taylor_expm(-1j * event.hamiltonian.matrix * event.duration)
            stay = np.array([np.mean([chained_probability(unitary @ e, rank1_projector(e)) for e in cols.T]) for _, cols in spaces])
        ups = 0
        for i, (kind, state) in enumerate(agents):
            rng = agent_stream(scenario.seed, i, period)
            if kind == "quantum":
                if event is not None:
                    state = evolve(state, event.hamiltonian, event.duration)
                outcome, state = sample_measurement(state, obs, rng)
            else:
                if stay is not None:
                    state = state * stay / np.sum(state * stay)
                u = rng.random()
                outcome = spaces[sum(u >= c for c in np.cumsum(state)[:-1])][0]
            agents[i] = (kind, state)
            ups += outcome > 0
        f_up = ups / len(agents)
        f_down = 1.0 - f_up
        price = price * (1.0 + scenario.impact * (f_up - f_down))
        rows.append((price, f_up, f_down))
    return rows


def eigenspaces(obs) -> list[tuple[float, np.ndarray]]:
    """``(outcome, eigenvectors as columns)`` per distinct eigenvalue, in
    descending outcome order."""
    values = np.asarray(obs.eigenvalues, dtype=float)
    return [(v, np.asarray(obs.basis)[:, values == v]) for v in sorted(set(values.tolist()), reverse=True)]


def mean_field_moments(scenario) -> list[tuple[float, float]]:
    """Per period, the mean and variance of the market's up count when every
    agent draws independently.

    A quantum agent's marginal state is a density matrix: news maps it to
    ``U rho U^H`` and averaging the Lueders collapse over outcomes maps it to
    ``sum_k P_k rho P_k``, with ``P_k`` the sum of its eigenvectors' rank-1
    projectors. A classical cohort shares one belief over the price outcomes,
    Bayes-updated on each outcome's stay probability ``|<e|U|e>|^2`` averaged
    over its eigenvectors. Either way a cohort's agents are Bernoulli on its
    up probability ``p``, so its up count has variance ``n p (1 - p)``.
    """

    cohorts = []
    for pop in scenario.populations:
        psi = np.asarray(pop.initial_state.amplitudes, dtype=complex)
        if pop.kind == "quantum":
            cohorts.append(["quantum", pop.count, np.outer(psi, psi.conj())])
        else:
            prior = [chained_probability(psi, span_projector(cols)) for _, cols in eigenspaces(scenario.price_observable)]
            cohorts.append(["classical", pop.count, np.array(prior)])
    moments = []
    for period in range(scenario.periods):
        event = scenario.news.event_for(period)
        obs = scenario.price_observable if event is None or event.observable is None else event.observable
        spaces = [(o, span_projector(cols), cols) for o, cols in eigenspaces(obs)]
        unitary = None if event is None else taylor_expm(-1j * event.hamiltonian.matrix * event.duration)
        mean = var = 0.0
        for cohort in cohorts:
            kind, count, state = cohort
            if kind == "quantum":
                if unitary is not None:
                    state = unitary @ state @ unitary.conj().T
                p_up = sum(float(np.real(np.trace(p @ state))) for o, p, _ in spaces if o > 0)
                cohort[2] = sum(p @ state @ p for _, p, _ in spaces)
            else:
                if unitary is not None:
                    stay = np.array(
                        [np.mean([chained_probability(unitary @ e, rank1_projector(e)) for e in cols.T]) for _, _, cols in spaces]
                    )
                    state = cohort[2] = state * stay / np.sum(state * stay)
                p_up = sum(b for b, (o, _, _) in zip(state, spaces) if o > 0)
            p_up = min(max(p_up, 0.0), 1.0)
            mean += count * p_up
            var += count * p_up * (1.0 - p_up)
        moments.append((mean, var))
    return moments
