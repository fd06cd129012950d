"""Profile constructors and structural analysis.

Covers the named profile families (sampled, separable, block atom), the
spectral radius of the normalized profile, irreducibility and full
indecomposability checks, Sinkhorn scaling and the circular-law test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import NoConvergenceError, SolverConfig, VarianceProfile, validate_profile


class LengthMismatchError(ValueError):
    pass


class NonPositiveEntryError(ValueError):
    pass


class NegativeFunctionValueError(ValueError):
    pass


class TooLargeError(ValueError):
    """Pattern too large for the exhaustive indecomposability search."""


class BadPartitionError(ValueError):
    """Block count does not divide the profile dimension."""


@dataclass(frozen=True)
class SeparableProfile:
    """Positive factors (d, d_tilde) of a separable profile sigma_ij^2 = d_i * dt_j."""

    d: np.ndarray
    d_tilde: np.ndarray

    @property
    def n(self) -> int:
        return len(self.d)

    @property
    def rho(self) -> float:
        """Spectral radius of the normalized profile: mean of d_i * dt_i."""
        return float(np.mean(self.d * self.d_tilde))


@dataclass(frozen=True)
class SinkhornResult:
    d1: np.ndarray
    d2: np.ndarray
    scaled: np.ndarray
    iterations: int
    converged: bool


# ---------------------------------------------------------------------------
# Constructors

def build_sampled(sigma2_spec, n: int) -> VarianceProfile:
    """Profile sigma_ij^2 = sigma2_spec(i/n, j/n) for i, j in 1..n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    x = np.arange(1, n + 1) / n
    grid = np.array([[float(sigma2_spec(xi, xj)) for xj in x] for xi in x])
    if np.any(grid < 0):
        raise NegativeFunctionValueError("sigma^2 spec is negative on the grid")
    return validate_profile(grid)


def build_separable(d, d_tilde):
    """Profile sigma_ij^2 = d_i * dt_j from strictly positive factor vectors."""
    d = np.asarray(d, dtype=float)
    dt = np.asarray(d_tilde, dtype=float)
    if d.shape != dt.shape or d.ndim != 1:
        raise LengthMismatchError("d and d_tilde must be vectors of equal length")
    if np.any(d <= 0) or np.any(dt <= 0):
        raise NonPositiveEntryError("separable factors must be strictly positive")
    profile = validate_profile(np.outer(d, dt))
    return profile, SeparableProfile(d=d.copy(), d_tilde=dt.copy())


def build_block_atom(k: int, m: int) -> VarianceProfile:
    """Block profile with all-ones m x m blocks on the first block row and
    column (off the diagonal) and zeros elsewhere; n = k * m.

    Its limiting measure carries an atom of weight 1 - 2/k at zero and the
    normalized profile has spectral radius sqrt(k - 1) / k.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if m < 1:
        raise ValueError("m must be >= 1")
    n = k * m
    a = np.zeros((n, n))
    a[:m, m:] = 1.0
    a[m:, :m] = 1.0
    return validate_profile(a)


# ---------------------------------------------------------------------------
# Structural analysis

def spectral_radius(profile, tol: float = 1e-10, max_iters: int = 100_000) -> float:
    """Perron root of the normalized profile V by power iteration.

    Deterministic: starts from the all-ones vector.  A positive diagonal
    shift makes the iteration converge for periodic support patterns
    (e.g. the block atom profile) without changing the Perron root.
    """
    V = profile.normalized if isinstance(profile, VarianceProfile) else np.asarray(profile, dtype=float)
    n = V.shape[0]
    shift = float(np.max(V.sum(axis=1)))
    if shift == 0.0:
        return 0.0
    x = np.ones(n)
    lam_prev = None
    for it in range(max_iters):
        y = V @ x + shift * x
        norm = np.linalg.norm(y)
        x = y / norm
        lam = float(x @ (V @ x + shift * x))
        if lam_prev is not None and abs(lam - lam_prev) <= tol * abs(lam):
            return lam - shift
        lam_prev = lam
    raise NoConvergenceError("power iteration did not converge")


def is_irreducible(profile: VarianceProfile) -> bool:
    """True iff the support digraph (edge i->j when sigma_ij^2 > 0) is
    strongly connected."""
    support = profile.variances > 0
    return _all_reachable(support, 0) and _all_reachable(support.T, 0)


def _all_reachable(adj: np.ndarray, start: int) -> bool:
    n = adj.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[start] = True
    frontier = np.array([start])
    while frontier.size:
        nxt = np.any(adj[frontier], axis=0) & ~seen
        seen |= nxt
        frontier = np.flatnonzero(nxt)
    return bool(seen.all())


def is_fully_indecomposable(pattern) -> bool:
    """Exhaustive full-indecomposability check for a 0/1 K x K pattern.

    The pattern fails iff some nonempty row subset I has a nonempty set J of
    columns that vanish on all of I with |I| + |J| >= K.  Enumerates all 2^K
    row subsets; capped at K = 20.
    """
    t = np.asarray(pattern) != 0
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ValueError("pattern must be square")
    K = t.shape[0]
    if K > 20:
        raise TooLargeError("exhaustive search is capped at K = 20")
    if t.all():
        return True
    # bitmask of rows carrying a nonzero in column j
    col_masks = [int(sum(1 << i for i in np.flatnonzero(t[:, j]))) for j in range(K)]
    for rows in range(1, 1 << K):
        # columns with no support inside the row subset
        zero_cols = sum(1 for m in col_masks if (m & rows) == 0)
        if zero_cols >= 1 and _popcount(rows) + zero_cols >= K:
            return False
    return True


def _popcount(x: int) -> int:
    return bin(x).count("1")


def is_block_fully_indecomposable(profile: VarianceProfile, K: int, phi: float) -> bool:
    """Blockwise robust indecomposability with the equal partition into K
    contiguous index blocks: block (i, j) counts as present when every entry
    of V on it is at least phi / n."""
    n = profile.n
    if K < 1 or n % K != 0:
        raise BadPartitionError(f"K = {K} does not divide n = {n}")
    if phi <= 0:
        raise ValueError("phi must be positive")
    b = n // K
    V = profile.normalized
    z = np.zeros((K, K), dtype=bool)
    for i in range(K):
        for j in range(K):
            z[i, j] = V[i * b:(i + 1) * b, j * b:(j + 1) * b].min() >= phi / n
    return is_fully_indecomposable(z)


def sinkhorn_scale(profile: VarianceProfile, tol: float = 1e-10,
                   max_iters: int = 100_000) -> SinkhornResult:
    """Alternate row/column balancing of V toward a doubly stochastic
    D1 V D2.  Gauge fixed by equalizing the geometric means of d1 and d2."""
    V = profile.normalized
    n = profile.n
    d1 = np.ones(n)
    d2 = np.ones(n)
    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        d1 = 1.0 / (V @ d2)
        d2 = 1.0 / (V.T @ d1)
        scaled = d1[:, None] * V * d2[None, :]
        row_err = np.abs(scaled.sum(axis=1) - 1.0).max()
        col_err = np.abs(scaled.sum(axis=0) - 1.0).max()
        if max(row_err, col_err) <= tol:
            converged = True
            break
    if not converged:
        raise NoConvergenceError("Sinkhorn scaling did not converge "
                                 "(profile may not be fully indecomposable)")
    gamma = math.exp(0.5 * (np.mean(np.log(d2)) - np.mean(np.log(d1))))
    d1 = d1 * gamma
    d2 = d2 / gamma
    return SinkhornResult(d1=d1, d2=d2, scaled=d1[:, None] * V * d2[None, :],
                          iterations=it, converged=True)


def circular_law_test(profile: VarianceProfile, tol: float = 1e-6,
                      config: SolverConfig | None = None,
                      rho: float | None = None):
    """Does the profile yield the circular law?

    True iff the boundary solution satisfies q_i(0) * qt_i(0) = 1 for all i
    within tol (equivalently V = D^-1 S D with S doubly stochastic).
    `rho` is the profile's spectral radius, computed when not given.
    Returns (flag, diagnostics).
    """
    from .mesolver import solve_at_zero

    sol = solve_at_zero(profile, config)
    prod = sol.q * sol.q_tilde
    deviation = float(np.abs(prod - 1.0).max())
    if rho is None:
        rho = spectral_radius(profile)
    f0 = float(np.sum(prod)) / (math.pi * profile.n)
    diagnostics = {
        "max_deviation": deviation,
        "rho": rho,
        "density_at_zero": f0,
        "f0_pi_rho": f0 * math.pi * rho,
    }
    return deviation <= tol, diagnostics
