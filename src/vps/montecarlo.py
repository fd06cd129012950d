"""Monte Carlo validation: sampling, spectra and distribution distances.

Samples Y = sigma (.) X / sqrt(n) with i.i.d. standardized entries, extracts
spectra with the dense eigensolver (on the cyclic block product for a
periodic zero pattern), and measures the Kolmogorov distance
between empirical radial CDFs and model CDFs.  Externally produced
eigenvalue CSV files can be ingested in place of local sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CHUNK, RadialMeasure, VarianceProfile, write_columns_csv
from .profiles import cyclic_classes

_LAW_KINDS = ("real-gaussian", "complex-gaussian", "rademacher", "complex-bernoulli")

# largest relative error of a root from the cyclic block product that
# `spectrum` accepts; past it the matrix is solved densely
ROOT_RTOL = 1e-10


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

    Uses the counter-based Philox generator keyed by the seed.  The entries
    are drawn CHUNK rows at a time in row-major order, the real parts of a
    complex law before its imaginary parts: the same stream, entry for
    entry, as one pass over the whole array, with no n x n temporary.
    """
    rng = np.random.Generator(np.random.Philox(law.seed))
    complex_law = law.kind.startswith("complex")
    z = np.empty((n, n), dtype=complex if complex_law else float)
    for part in (z.real, z.imag) if complex_law else (z,):
        for lo in range(0, n, CHUNK):
            block = part[lo:lo + CHUNK]
            if law.kind.endswith("gaussian"):
                block[...] = rng.standard_normal(block.shape)
            else:  # rademacher, or complex-bernoulli's independent +-1 parts
                np.multiply(rng.integers(0, 2, size=block.shape), 2.0, out=block)
                block -= 1.0
    if complex_law:
        z /= np.sqrt(2.0)
    return z


def sample_matrix(profile: VarianceProfile, law: EntryLaw) -> np.ndarray:
    """One draw of Y = sigma (.) X / sqrt(n); deterministic given the seed.

    sigma is applied CHUNK rows at a time, so Y is the only n x n array
    made, and V is not formed.
    """
    Y = _draw_entries(law, profile.n)
    for lo in range(0, profile.n, CHUNK):
        block = Y[lo:lo + CHUNK]
        block *= np.sqrt(profile.variances[lo:lo + CHUNK])
        block /= np.sqrt(profile.n)
    return Y


def spectrum(matrix) -> SpectrumSample:
    """All eigenvalues of a square matrix, with multiplicity, as complex128.

    The matrix is solved in double precision: float64 and complex128 input
    as it is, without a copy, narrower real or integer input as float64 and
    complex64 as complex128.  A real matrix goes to the real eigensolver, so
    its complex eigenvalues come in exact conjugate pairs; the result is
    complex128 even when every eigenvalue is real.  The input is not
    modified.

    The solve reads the zero pattern of the matrix.  When that pattern is
    irreducible with period h >= 2, the matrix is block cyclic on its
    cyclic classes C_0, ..., C_{h-1} (`profiles.cyclic_classes`), and
    det(lambda I - Y) = lambda^(n - h c) det(lambda^h I - P), where P is the
    c x c product Y_{k,k+1} Y_{k+1,k+2} ... Y_{k-1,k} of the blocks around
    the cycle from the smallest class C_k, c = |C_k|.  So only P is solved:
    the result is the h-th roots of its eigenvalues and n - h c zeros.
    These kernel zeros are exact, where a dense solve scatters a defective
    zero eigenvalue to about eps^(1/d) for Jordan blocks of size d, so
    `kolmogorov_distance` compares them with a model's atom.  The partial
    products are rescaled as they are formed, so a long period neither
    underflows nor overflows.  A root of an eigenvalue of P near P's
    rounding floor (eps ||P||) would be noise, so when some root could
    carry a relative error above ROOT_RTOL the matrix is solved densely
    instead, as it is for long periods of classes wider than one node.
    Every other pattern (zero-free, reducible or aperiodic) is solved
    densely.
    """
    A = np.asarray(matrix)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    if not hasattr(np.linalg, "eigvals"):
        raise BackendUnavailableError("no dense eigensolver available")
    A = A.astype(np.result_type(A, np.float64), copy=False)
    classes = None if A.all() else cyclic_classes(A)
    try:
        ev = None
        if classes is not None and classes.any():
            ev = _cyclic_eigvals(A, classes)
        if ev is None:
            ev = np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise EigFailureError(str(exc)) from exc
    return SpectrumSample(eigenvalues=ev.astype(complex, copy=False),
                          source="sampled")


def _cyclic_eigvals(A: np.ndarray, classes: np.ndarray) -> np.ndarray | None:
    """Eigenvalues of a matrix that is block cyclic on the classes labelled
    0, ..., h-1: the h-th roots of the eigenvalues of the cyclic block
    product from the smallest class, and exact zeros for the rest.  None
    when a root could carry a relative error above ROOT_RTOL."""
    h = int(classes.max()) + 1
    members = [np.flatnonzero(classes == c) for c in range(h)]
    k = min(range(h), key=lambda c: members[c].size)
    cycle = [members[(k + i) % h] for i in range(h + 1)]
    # h factors can leave the float range (a weighted n-cycle multiplies n
    # entries of size about 1/sqrt(n)), so each partial product is scaled to
    # a largest entry of 1 and the log of the scale is kept apart.  The first
    # factor is read CHUNK rows at a time, so it is never copied whole
    first = [np.ix_(cycle[0][lo:lo + CHUNK], cycle[1]) for lo in range(0, cycle[0].size, CHUNK)]
    size = max(np.abs(A[rows_cols]).max() for rows_cols in first)
    if size == 0.0:
        return None
    P, log_scale = None, np.log(size)
    for rows, cols in zip(cycle[1:-1], cycle[2:]):
        block = A[np.ix_(rows, cols)]
        if P is None:
            P = np.empty((cycle[0].size, cols.size), dtype=A.dtype)
            for i, rows_cols in enumerate(first):
                P[i * CHUNK:(i + 1) * CHUNK] = (A[rows_cols] / size) @ block
        else:
            P = P @ block
        size = np.abs(P).max()
        if size == 0.0:
            return None
        P /= size
        log_scale += np.log(size)
    mu = np.linalg.eigvals(P).astype(complex, copy=False)
    # a backward stable solve moves each mu by about eps ||P||, and so its
    # h-th roots by a relative eps ||P|| / (h |mu|): roots of eigenvalues
    # near that floor are noise, where the dense solve still resolves them
    if h * ROOT_RTOL * np.abs(mu).min() < np.finfo(float).eps * np.linalg.norm(P):
        return None
    # w[j] = exp(i pi j / h), built so that w[2h - j] is exactly conj(w[j])
    # and w[h] = -1: the roots of a real P's conjugate pairs are then exact
    # conjugate pairs, and the roots of a real mu are closed under conjugation
    j = np.arange(2 * h)
    w = np.exp(1j * np.pi * np.minimum(j, 2 * h - j) / h)
    w[h + 1:] = w[h + 1:].conj()
    w[h] = -1.0
    # the roots of mu are its principal h-th root times the h-th roots of 1,
    # and for a real mu, |mu|^(1/h) times those of 1 or of -1 by its sign;
    # the positive real factor of the scale keeps both properties
    real = mu.imag == 0.0
    root = (np.abs(mu) ** (1.0 / h)).astype(complex)
    root[~real] = mu[~real] ** (1.0 / h)
    root *= np.exp(log_scale / h)
    unit = np.where((real & (mu.real < 0.0))[:, None], w[1::2], w[0::2])
    roots = root[:, None] * unit
    return np.concatenate([roots.ravel(), np.zeros(A.shape[0] - h * mu.size, complex)])


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
    ev = sample.eigenvalues
    write_columns_csv(path, "re,im", (np.real(ev), np.imag(ev)))


def read_eigenvalue_csv(path) -> SpectrumSample:
    """Read an eigenvalue CSV: the header `re,im`, then one `re,im` row per
    eigenvalue; blank lines are skipped.  Raises ValueError, naming the
    line, on a row without exactly two fields or with a value that is not
    a finite number, and on a file with no eigenvalues."""
    with open(path) as fh:
        header = fh.readline().strip().lower().replace(" ", "")
        if header != "re,im":
            raise ValueError(f"expected header 're,im', got {header!r}")
        vals = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                re_v, im_v = (float(x) for x in line.split(","))
            except ValueError as exc:   # a bad number, or not two fields
                raise ValueError(f"{path}, line {lineno}: {exc}") from None
            if not (math.isfinite(re_v) and math.isfinite(im_v)):
                raise ValueError(f"{path}, line {lineno}: non-finite eigenvalue {line!r}")
            vals.append(complex(re_v, im_v))
    if not vals:
        raise ValueError(f"no eigenvalues in {path}")
    return SpectrumSample(eigenvalues=np.array(vals), source="ingested")
