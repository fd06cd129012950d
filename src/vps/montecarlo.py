"""Monte Carlo validation: sampling, spectra and distribution distances.

Samples Y = sigma (.) X / sqrt(n) with i.i.d. standardized entries, extracts
spectra with the dense eigensolver, and measures the Kolmogorov distance
between empirical radial CDFs and model CDFs.  Externally produced
eigenvalue CSV files can be ingested in place of local sampling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import RadialMeasure, VarianceProfile

_LAW_KINDS = ("real-gaussian", "complex-gaussian", "rademacher", "complex-bernoulli")


class BackendUnavailableError(RuntimeError):
    """No dense eigensolver is available; only CSV ingestion works."""


class EigFailureError(RuntimeError):
    """The eigensolver failed to converge on a sample."""


@dataclass(frozen=True)
class EntryLaw:
    """Standardized (mean 0, unit variance) entry distribution plus a seed."""

    kind: str
    seed: int

    def __post_init__(self):
        if self.kind not in _LAW_KINDS:
            raise ValueError(f"unknown entry law {self.kind!r}; "
                             f"choose from {_LAW_KINDS}")


@dataclass(frozen=True)
class SpectrumSample:
    eigenvalues: np.ndarray
    source: str  # "sampled" or "ingested"


def _draw_entries(law: EntryLaw, n: int) -> np.ndarray:
    """n x n i.i.d. entries from the law, reproducible for a given seed.

    Uses the counter-based Philox generator keyed by the seed; entries are
    drawn in one row-major vectorized pass, which fixes the counter-to-entry
    assignment independent of any iteration order.
    """
    rng = np.random.Generator(np.random.Philox(law.seed))
    shape = (n, n)
    if law.kind == "real-gaussian":
        return rng.standard_normal(shape)
    if law.kind == "rademacher":
        return 2.0 * rng.integers(0, 2, size=shape).astype(float) - 1.0
    # complex laws: the real part is drawn first, then the imaginary part,
    # each written into one complex array, which is then scaled by 1/sqrt(2)
    z = np.empty(shape, dtype=complex)
    for part in (z.real, z.imag):
        if law.kind == "complex-gaussian":
            part[...] = rng.standard_normal(shape)
        else:  # complex-bernoulli: independent +-1 parts
            np.multiply(rng.integers(0, 2, size=shape), 2.0, out=part)
            part -= 1.0
    z /= np.sqrt(2.0)
    return z


def sample_matrix(profile: VarianceProfile, law: EntryLaw) -> np.ndarray:
    """One draw of Y = sigma (.) X / sqrt(n); deterministic given the seed."""
    X = _draw_entries(law, profile.n)
    Y = profile.std_devs * X
    Y /= np.sqrt(profile.n)
    return Y


def spectrum(matrix) -> SpectrumSample:
    """All eigenvalues of a square matrix, with multiplicity, as complex128.

    The matrix is solved in double precision: float64 and complex128 input
    as it is, without a copy, narrower real or integer input as float64 and
    complex64 as complex128.  A real matrix goes to the real eigensolver, so
    its complex eigenvalues come in exact conjugate pairs; the result is
    complex128 even when every eigenvalue is real.  The input is not
    modified.
    """
    A = np.asarray(matrix)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    if not hasattr(np.linalg, "eigvals"):
        raise BackendUnavailableError("no dense eigensolver available")
    A = A.astype(np.result_type(A, np.float64), copy=False)
    try:
        ev = np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise EigFailureError(str(exc)) from exc
    return SpectrumSample(eigenvalues=ev.astype(complex, copy=False),
                          source="sampled")


def empirical_radial_cdf(sample: SpectrumSample, s_grid) -> np.ndarray:
    """Fraction of eigenvalues with modulus <= s, per grid point."""
    s_grid = np.asarray(s_grid, dtype=float)
    moduli = np.sort(np.abs(sample.eigenvalues))
    if moduli.size == 0:
        raise ValueError("empty spectrum sample")
    counts = np.searchsorted(moduli, s_grid, side="right")
    return counts / moduli.size


def _model_F(measure: RadialMeasure, s) -> np.ndarray:
    """Model CDF at arbitrary radii by interpolation of the stored grid,
    anchored at (0, atom) and clamped to 1 beyond the support."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    xs = np.concatenate([[0.0], measure.s_grid])
    ys = np.concatenate([[measure.atom_at_zero], measure.F])
    out = np.interp(s, xs, ys)
    out[s >= measure.support_radius] = 1.0
    return out


def kolmogorov_distance(measure: RadialMeasure, sample: SpectrumSample) -> float:
    """sup_{s >= 0} |Fhat(s) - F(s)| over eigenvalue moduli and the
    measure's own grid.

    At each jump v of the empirical CDF both one-sided limits count,
    Fhat(v-) and Fhat(v), with every modulus equal to v counted in Fhat(v).
    At a modulus of exactly 0 the left limit is skipped, since it lies at
    s < 0, so a sample whose kernel eigenvalues are exact zeros is compared
    with the model's atom.  Numerically zero moduli (1e-14, say) keep their
    left limit, which reads about the atom's weight; no threshold turns them
    into zeros.
    """
    moduli = np.sort(np.abs(sample.eigenvalues))
    n = moduli.size
    if n == 0:
        raise ValueError("empty spectrum sample")
    Fm = _model_F(measure, moduli)
    below = np.abs(np.searchsorted(moduli, moduli, side="left") / n - Fm)[moduli > 0.0]
    above = np.abs(np.searchsorted(moduli, moduli, side="right") / n - Fm)
    at_grid = np.abs(empirical_radial_cdf(sample, measure.s_grid)
                     - _model_F(measure, measure.s_grid))
    return float(max(below.max(initial=0.0), above.max(), at_grid.max()))


def write_eigenvalue_csv(sample: SpectrumSample, path) -> None:
    with open(path, "w") as fh:
        fh.write("re,im\n")
        for lam in sample.eigenvalues:
            fh.write(f"{repr(float(np.real(lam)))},{repr(float(np.imag(lam)))}\n")


def read_eigenvalue_csv(path) -> SpectrumSample:
    with open(path) as fh:
        header = fh.readline().strip().lower().replace(" ", "")
        if header != "re,im":
            raise ValueError(f"expected header 're,im', got {header!r}")
        vals = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            re_s, im_s = line.split(",")
            vals.append(complex(float(re_s), float(im_s)))
    if not vals:
        raise ValueError(f"no eigenvalues in {path}")
    return SpectrumSample(eigenvalues=np.array(vals), source="ingested")
