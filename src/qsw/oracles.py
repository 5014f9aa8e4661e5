"""Independent reference solutions for walks on a line and small graphs.

Closed-form infinite-line distributions (Bessel functions computed by
downward recurrence), brute-force classical and Schrodinger solvers via
eigendecomposition, and the total variation distance. Everything here is
kept on a code path disjoint from the evolution module (no superoperators,
no truncated Taylor action of the exponential) so that agreement between
the two routes is a genuine cross-check rather than a tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import GeneratorMatrix, LineIndexMap

# Rescaling guard for the downward recurrences.
_BIG = 1e250
_SMALL = 1e-250
# The largest argument the recurrence takes, above the 1.8e5 compare reaches; see _miller_downward.
_MAX_X = 2e5


@dataclass(frozen=True)
class LineWalkSpec(LineIndexMap):
    """A walk on a finite symmetric line: the sites of a LineIndexMap, hop rate gamma, time t."""

    gamma: float
    t: float

    def __post_init__(self):
        super().__post_init__()
        if not (self.gamma > 0 and math.isfinite(self.gamma)):
            raise ValueError(f"gamma must be finite and positive, got {self.gamma}")
        if not (self.t >= 0 and math.isfinite(self.t)):
            raise ValueError(f"t must be finite and nonnegative, got {self.t}")


@dataclass(frozen=True)
class LineDistribution:
    """Probability profile over signed line positions.

    probabilities[i] belongs to positions[i]. tail_mass is the probability
    the untruncated (infinite-line) distribution carries beyond the stored
    window; it is reported, never folded back in by renormalization.
    """

    positions: np.ndarray
    probabilities: np.ndarray
    tail_mass: float


def _miller_downward(n_max: int, x: float, sign: float, step: int) -> np.ndarray:
    """b_n / (b_0 + 2 sum_{k>=1} b_{k*step}) for n = 0..n_max and a finite x >= 0.

    b comes from the downward recurrence b_{k-1} = (2k/x) b_k + sign*b_{k+1}:
    sign=-1 with step 2 gives J_n(x), sign=+1 with step 1 gives
    exp(-x) I_n(x). It starts high enough above max(n_max, x) for 1e-10
    accuracy and rescales by 1e-250 whenever an entry passes 1e250.

    At x = 0, and wherever the recurrence overflows anyway (one step
    multiplies by 2k/x, more than 1e58 below x of about 1e-55), the result
    is the series' leading term (x/2)^n / n!, exact to rounding there: the
    next term is smaller by a factor x or x^2/4.

    Checked by the tests against quadrature to 1e-10 at orders up to 100
    and x up to 40, against the power series to 1e-11 at orders up to 40
    and x from 0.05 to 10, and against the leading term to 1e-15 at x from
    5e-324 to 1e-60.

    The recurrence takes O(x) time and 8 bytes per unit of x whatever
    n_max, so an x past _MAX_X is refused before anything is allocated. No
    compare command of the CLI for crw at any omega, or qw at omega = 0, on
    a line of hop rate gamma reaches it: an interior site's population
    column of the generator holds two entries omega gamma and two
    sqrt(2) (1 - omega) gamma off the diagonal, and at omega = 0 the
    QuantumWalk's column of its real amplitude holds two entries gamma, so
    ||A||_1 >= 2 gamma, and
    qsw.evolution's _MAX_PRODUCTS = 1e6 admits only t ||A||_1 <= 1e6 *
    theta_55 / 55 = 1.8e5, so x = 2 gamma t <= 1.8e5. Weaker generators (qw
    or the global set near omega = 1, literal amplitudes at small gamma)
    pass that bound at a longer t, and are refused here.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    # Every comparison below is False on nan, which would reach the leading-term branch.
    if not math.isfinite(x):
        raise ValueError(f"Bessel argument x must be finite, got {x!r}")
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x > _MAX_X:
        raise ValueError(f"Bessel argument x = {x!r} (2 gamma t on a line) is past {_MAX_X:g}; the recurrence takes O(x) time and memory")
    if x > 0.0:
        start = max(n_max, int(math.ceil(x))) + int(math.ceil(math.sqrt(40.0 * (n_max + 1)))) + 20
        arr = np.zeros(start + 2)
        arr[start] = _SMALL
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(start, 0, -1):
                arr[k - 1] = (2.0 * k / x) * arr[k] + sign * arr[k + 1]
                if abs(arr[k - 1]) > _BIG:
                    arr *= _SMALL
            norm = arr[0] + 2.0 * arr[step:-1:step].sum()
        # An overflow makes every later entry, b_0 included, inf or nan.
        if math.isfinite(norm):
            return arr[: n_max + 1] / norm
    return np.cumprod(np.concatenate(([1.0], x / (2.0 * np.arange(1, n_max + 1)))))


def bessel_j_sequence(n_max: int, x: float) -> np.ndarray:
    """J_n(x) for n = 0..n_max, x >= 0, normalized through J_0(x) + 2*sum_k J_{2k}(x) = 1."""
    return _miller_downward(n_max, x, sign=-1.0, step=2)


def scaled_bessel_i_sequence(n_max: int, x: float) -> np.ndarray:
    """exp(-x) * I_n(x) for n = 0..n_max, x >= 0.

    Normalized through I_0(x) + 2*sum_k I_k(x) = exp(x); dividing by that
    sum yields the exponentially scaled values directly, so nothing
    overflows.
    """
    return _miller_downward(n_max, x, sign=+1.0, step=1)


def _line_window(spec: LineWalkSpec, seq: np.ndarray) -> LineDistribution:
    """The window of spec: position j holds seq[|j|], and the tail is what the window misses of 1."""
    probs = seq[np.abs(spec.positions)]
    return LineDistribution(spec.positions, probs, float(1.0 - probs.sum()))


def crw_line_analytic(spec: LineWalkSpec) -> LineDistribution:
    """Classical walk on the infinite line, truncated to the requested window.

    p_j(t) = exp(-2 gamma t) * I_|j|(2 gamma t), the exact solution of
    dp_j/dt = gamma (p_{j-1} + p_{j+1} - 2 p_j) from a delta at j = 0.
    """
    return _line_window(spec, scaled_bessel_i_sequence(spec.half_width, 2.0 * spec.gamma * spec.t))


def qw_line_analytic(spec: LineWalkSpec) -> LineDistribution:
    """Purely Hamiltonian walk on the infinite line, truncated to the window.

    p_j(t) = J_j(2 gamma t)^2; the uniform diagonal of the line Hamiltonian
    contributes only a global phase, so it drops out of the populations.
    """
    return _line_window(spec, bessel_j_sequence(spec.half_width, 2.0 * spec.gamma * spec.t) ** 2)


def classical_master_solve(m: GeneratorMatrix, p0: np.ndarray, t: float) -> np.ndarray:
    """exp(M t) p0 through an eigendecomposition of the symmetric generator.

    Deliberately not the evolution module's exponential: this is the
    reference route. Requires symmetric M (always true for undirected
    graphs) and a normalized p0.
    """
    a = m.entries
    p0 = np.asarray(p0, dtype=float)
    if p0.shape != (m.dim,):
        raise ValueError(f"p0 has shape {p0.shape}, expected ({m.dim},)")
    if abs(p0.sum() - 1.0) > 1e-9:
        raise ValueError("p0 must sum to 1")
    if np.abs(a - a.T).max() > 1e-12:
        raise ValueError("generator must be symmetric for the eigendecomposition route")
    if not (t >= 0 and math.isfinite(t)):
        raise ValueError(f"t must be finite and nonnegative, got {t}")
    w, v = np.linalg.eigh(a)
    return v @ (np.exp(w * t) * (v.T @ p0))


def schrodinger_solve(h, psi0: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) psi0 through an eigendecomposition of the Hamiltonian.

    h is a Hamiltonian (or anything with Hermitian .entries); psi0 must be
    normalized. Norm is preserved to machine precision by construction.
    """
    entries = np.asarray(h.entries)
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (entries.shape[0],):
        raise ValueError(f"psi0 has shape {psi0.shape}, expected ({entries.shape[0]},)")
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-10:
        raise ValueError("psi0 must be normalized")
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    w, v = np.linalg.eigh(entries)
    return v @ (np.exp(-1j * w * t) * (v.conj().T @ psi0))


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance (1/2) sum_i |p_i - q_i|."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {q.shape}")
    return float(0.5 * np.abs(p - q).sum())
