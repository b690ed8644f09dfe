"""Reference computations for the benchmark's checks, made apart from ``onebitnet``.

Nothing here imports the program. Observation models are described by
plain tuples, ``("gaussian", rho)`` or ``("exponential", lambda_e)``, and
every closed form is typed out below rather than taken from the program:

* the marginal law of the agent statistic x under h (mean, variance, the
  probability that x >= 0, i.e. that the one-bit message is E_1 x);
* the steady-state mean and variance of node k,
      m = [mu a_k E_h x + sum_l c_kl E_h msg] / (1 - eta),
      s^2 = [mu^2 a_k^2 V_h x + sum_l c_kl^2 V_h msg] / (1 - eta^2),
  with eta = (1 - mu) a_k;
* a direct sampler of the state's closed-form expansion
      y_k = mu a_k sum_i eta^i x_k,i + sum_l c_kl sum_i eta^i msg_l,i,
  where each neighbour's message is an independent draw at E_0 x / E_1 x
  with probability 1 - p / p (p = P_h(x >= 0)).
"""
from __future__ import annotations

from dataclasses import dataclass
from math import erf, exp, log, sqrt

import numpy as np

# The reference topology of the source paper: ten agents, node 3 the hub
# (five neighbours), node 9 the leaf (one neighbour).
REFERENCE_EDGES = ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4), (3, 5),
                   (3, 7), (4, 5), (4, 6), (5, 6), (6, 7), (6, 8), (7, 8),
                   (7, 9))
REFERENCE_NODES = 10

# sampler truncation: terms beyond eta^T <= this weight are dropped
_TAIL_WEIGHT = 1e-13
_CHUNK = 20_000


def uniform_weights(a: float) -> np.ndarray:
    """Reference-topology combination matrix with self-weight a and equal
    neighbour weights."""
    nbrs = [set() for _ in range(REFERENCE_NODES)]
    for i, j in REFERENCE_EDGES:
        nbrs[i].add(j)
        nbrs[j].add(i)
    A = np.zeros((REFERENCE_NODES, REFERENCE_NODES))
    for k, others in enumerate(nbrs):
        A[k, k] = a
        for l in others:
            A[k, l] = (1.0 - a) / len(others)
    return A


@dataclass(frozen=True)
class Marginal:
    """Law of the agent statistic x under one hypothesis."""

    mean: float
    var: float
    p_one: float  # P_h(x >= 0): probability that the message is E_1 x


def _phi(z: float) -> float:
    return 0.5 * (1.0 + erf(z / sqrt(2.0)))


def marginal(model, h: int) -> Marginal:
    kind, par = model
    if kind == "gaussian":
        # x ~ N(+-rho, 2 rho)
        mean = par if h == 1 else -par
        return Marginal(mean, 2.0 * par, 1.0 - _phi(-mean / sqrt(2.0 * par)))
    if kind == "exponential":
        # x = s_h e - log lambda, e a unit exponential
        s = par - 1.0 if h == 1 else 1.0 - 1.0 / par
        return Marginal(s - log(par), s * s, exp(-log(par) / s))
    raise ValueError(f"unknown model {model!r}")


def message_levels(model) -> tuple[float, float]:
    return marginal(model, 0).mean, marginal(model, 1).mean


def steady_moments(model, A: np.ndarray, k: int, h: int,
                   mu: float) -> tuple[float, float]:
    """Closed-form steady-state mean and variance of node k under h."""
    a = A[k, k]
    c = np.delete(A[k], k)
    eta = (1.0 - mu) * a
    mx = marginal(model, h)
    e0, e1 = message_levels(model)
    msg_mean = mx.p_one * e1 + (1.0 - mx.p_one) * e0
    msg_var = mx.p_one * (1.0 - mx.p_one) * (e1 - e0) ** 2
    mean = (mu * a * mx.mean + c.sum() * msg_mean) / (1.0 - eta)
    var = (mu * mu * a * a * mx.var + (c @ c) * msg_var) / (1.0 - eta * eta)
    return mean, var


def draw_statistic(model, h: int, rng: np.random.Generator, size) -> np.ndarray:
    kind, par = model
    if kind == "gaussian":
        mx = marginal(model, h)
        return rng.normal(mx.mean, sqrt(mx.var), size)
    s = par - 1.0 if h == 1 else 1.0 - 1.0 / par
    return s * rng.standard_exponential(size) - log(par)


def sample_state(model, A: np.ndarray, k: int, h: int, mu: float, n: int,
                 rng: np.random.Generator) -> np.ndarray:
    """n independent draws of node k's steady state from its expansion."""
    a = A[k, k]
    c = np.delete(A[k], k)
    c = c[c > 0]
    eta = (1.0 - mu) * a
    terms = max(1, int(np.ceil(log(_TAIL_WEIGHT) / log(eta))))
    w = eta ** np.arange(terms)
    p = marginal(model, h).p_one
    e0, e1 = message_levels(model)
    out = np.empty(n)
    for lo in range(0, n, _CHUNK):
        m = min(_CHUNK, n - lo)
        own = draw_statistic(model, h, rng, (m, terms)) @ w
        y = mu * a * own
        for c_l in c:
            ones = rng.random((m, terms), dtype=np.float32) < p
            y += c_l * (e0 * w.sum() + (e1 - e0) * (ones @ w))
        out[lo:lo + m] = y
    return out
