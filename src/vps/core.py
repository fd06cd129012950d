"""Shared domain types, profile validation and numeric configuration."""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np


class ProfileError(ValueError):
    """Invalid variance profile input."""


class NonSquareError(ProfileError):
    pass


class NegativeEntryError(ProfileError):
    pass


class NonFiniteError(ProfileError):
    pass


class AllZeroError(ProfileError):
    pass


class NoConvergenceError(RuntimeError):
    """An iterative solve exhausted its iteration budget."""


class RankDeficientError(RuntimeError):
    """The derivative linear system is numerically rank deficient."""


class OutsideSupportError(ValueError):
    """Requested radius lies outside the support of the measure."""


class InsufficientGridError(ValueError):
    """The radial grid does not reach close enough to zero."""


class UnresolvedAtomError(InsufficientGridError):
    """The grid's smallest radii do not fix the atom at zero: its
    extrapolations from two pairs of them disagree."""


@dataclass(frozen=True)
class VarianceProfile:
    """A validated, read-only n-by-n grid of entry variances sigma_ij^2.

    The matrix V = variances / n that the equations consume is
    ``normalized``, formed on first read, so a profile that only samples
    holds one n x n array.
    """

    n: int
    variances: np.ndarray

    @property
    def std_devs(self) -> np.ndarray:
        """Entrywise standard deviations sigma_ij."""
        return np.sqrt(self.variances)

    def is_symmetric(self, tol: float = 0.0) -> bool:
        return bool(np.all(np.abs(self.variances - self.variances.T) <= tol))

    @functools.cached_property
    def normalized(self) -> np.ndarray:
        """V with V_ij = sigma_ij^2 / n: read-only, formed on first use and
        cached on the profile."""
        V = self.variances / self.n
        V.setflags(write=False)
        return V

    @functools.cached_property
    def pair_classes(self):
        """The pair classes of V, (label, sizes, Vbar), or None when V has
        p classes with 2p > n, too many for the quotient to halve the
        unknowns.  Indices i and j share a class when V[i] == V[j] and
        V[:, i] == V[:, j], that is, when they have the same row of
        [V | V^T].  label[i] is the class of index i, sizes[c] the number
        of indices in class c, and Vbar[c, d] the value of every entry of V
        in rows of class c and columns of class d, so
        V == Vbar[label][:, label] exactly.  Classes
        are found by grouping on a hash of each row and column and checked
        exactly (see `_pair_classes`; None where distinct rows or columns
        share a hash).  All
        three are read-only; Vbar owns its memory.  Computed on first use
        by `_pair_classes` and cached on the profile; the fixed-point kernel
        and the exact derivative solve on the p x p quotient.
        """
        return _pair_classes(self.normalized)

    @functools.cached_property
    def rank_one_factors(self):
        """Nonnegative factors (a, b) with V = a b^T, or None.  a is the
        column and b the row through V's largest entry, scaled so that the
        entry is a_i b_j; V is rank one when every entry agrees with a_i b_j
        to RANK_ONE_ULPS ulps of a_i b_j (`_rank_one`), so a profile read
        back from CSV, rank one only to rounding, is detected.  Both are
        read-only and own their memory.  Computed on first use and cached
        on the profile; `solve_curve` solves such a profile by its scalar
        equation, and checks each solution on V itself, and the exact
        density is that equation's derivative in closed form.
        """
        return _rank_one(self.normalized)


# Rows and columns per exact comparison and hash of
# `_pair_classes`, and rows per comparison of `_rank_one`, so no n x n
# temporary is made.
CHUNK = 64
# Entries of a rank-one V agree with a_i b_j to this many ulps of a_i b_j.
# An entry d_i dt_j / n carries two roundings, and so does each of the
# three entries that a_i b_j is formed from; forming it adds two more: ten
# half-ulps, or five ulps, at most.
RANK_ONE_ULPS = 8


def _rank_one(V):
    """`VarianceProfile.rank_one_factors` of V: (a, b) from the row and the
    column of V's largest entry, compared with V CHUNK rows at a time; the
    first row that disagrees ends the scan."""
    i, j = np.unravel_index(np.argmax(V), V.shape)
    a, b = V[:, j].copy(), V[i] / V[i, j]
    tol = RANK_ONE_ULPS * np.finfo(float).eps
    for lo in range(0, len(V), CHUNK):
        ab = np.outer(a[lo:lo + CHUNK], b)
        if not (np.abs(V[lo:lo + CHUNK] - ab) <= tol * ab).all():
            return None
    a.setflags(write=False)
    b.setflags(write=False)
    return a, b


def _pair_classes(V):
    """`VarianceProfile.pair_classes` of V.

    The distinct (row sum, column sum) pairs of V are counted first: equal
    rows and equal columns have bit-equal sums, so the classes split no
    pair, and past n / 2 pairs there are past n / 2 classes, and None is
    returned without hashing (band model B at n = 800: 0.5 ms, where the
    hash alone takes 2.9 ms).  Otherwise indices are grouped on `_pair_keys`, a hash of
    each row and column alone, so the indices of one class always share
    it, and distinct ones almost never do; past n / 2 groups there is
    nothing to compare.  Then every row and every column is compared
    exactly with its group's first, and a mismatch gives None.  The
    classes are numbered in the order of their first index.
    """
    if 2 * len(set(zip(V.sum(axis=1).tolist(), V.sum(axis=0).tolist()))) > len(V):
        return None
    _, first, label, sizes = np.unique(_pair_keys(V), return_index=True,
                                       return_inverse=True, return_counts=True)
    order = np.argsort(first)
    label, first, sizes = np.argsort(order)[label], first[order], sizes[order]
    if 2 * len(first) > len(V) or not _agree(V, first[label]):
        return None
    Vbar = V[np.ix_(first, first)]
    for x in (label, sizes, Vbar):
        x.setflags(write=False)
    return label, sizes, Vbar


def _splitmix64(count):
    """splitmix64 (Steele, Lea & Flood 2014) of 1, ..., count as uint64:
    fixed pseudo-random words, the same on every call, hashed rather than
    drawn by numpy.random, which numpy loads on first use, at about 5 MB."""
    z = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _pair_keys(V):
    """A uint64 key per index i, hashed from row i of [V | V^T]: the sum,
    modulo 2^64, of each entry's bit pattern x, mixed as x ^ (x >> 32) and
    times the weight of the entry's position, with the weights
    `_splitmix64` of 1, ..., 2n.  The sums are exact, so equal rows get
    equal keys in any order of summation, and rows that differ, in one ulp
    of one entry or more, get distinct keys unless their differences cancel
    modulo 2^64.  CHUNK rows and columns at a time, so no n x n temporary
    is made."""
    n = len(V)
    w = _splitmix64(2 * n)
    bits = V.view(np.uint64)
    key = np.empty(n, dtype=np.uint64)
    for a in range(0, n, CHUNK):
        rows, cols = bits[a:a + CHUNK], bits[:, a:a + CHUNK]
        key[a:a + CHUNK] = (((rows ^ (rows >> np.uint64(32))) * w[:n]).sum(axis=1)
                            + ((cols ^ (cols >> np.uint64(32))) * w[n:, None]).sum(axis=0))
    return key


def _agree(V, rep):
    """Whether row and column i of V equal row and column rep[i] for every
    i, compared CHUNK at a time."""
    return all((V[a:a + CHUNK] == V[rep[a:a + CHUNK]]).all()
               and (V[:, a:a + CHUNK] == V[:, rep[a:a + CHUNK]]).all()
               for a in range(0, len(V), CHUNK))


def validate_profile(raw_grid) -> VarianceProfile:
    """Check a raw rectangular grid of variances and build a profile on a
    read-only copy of it.

    Raises NonSquareError, NegativeEntryError, NonFiniteError or
    AllZeroError on invalid input.  The grid is copied, so the caller's
    array stays writable and later changes to it do not reach the profile.
    The copy is in C order whatever the caller's layout: the kernel's
    products round by layout, and so does what they decide, such as the
    iteration at which a radius stops.
    """
    return _own_profile(np.array(raw_grid, dtype=float, order="C"))


def _own_profile(arr: np.ndarray) -> VarianceProfile:
    """validate_profile on a float array the caller owns and hands over: it
    is checked and marked read-only in place, without a copy, and becomes
    the profile's only array until V is read."""
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.size == 0:
        raise NonSquareError(f"expected a square grid, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError("profile contains non-finite entries")
    if np.any(arr < 0):
        raise NegativeEntryError("profile contains negative variances")
    if not np.any(arr > 0):
        raise AllZeroError("profile is identically zero")
    arr.setflags(write=False)
    return VarianceProfile(n=arr.shape[0], variances=arr)


@dataclass(frozen=True)
class SolverConfig:
    """Tolerance, iteration budget and regularization of the fixed-point
    solver.

    Each radius is solved at t = 0 to the sup-norm fixed point tolerance
    fixed_point_tol (relative to the solution's largest entry once it
    exceeds 1); each value must be finite and positive.  A rank-one
    profile is solved in closed form, and a lift that fails its check
    takes the other routes' path: the kernel at t_min from ones only to
    `mesolver.NEWTON_START` = 1e-3 within max_iters iterations, then
    Newton on the t = 0 equations behind a condition gate, by stacked LUs
    with at most `mesolver.LU_UNKNOWNS` = 24 unknowns per half and by
    GMRES past it.  The radii that Newton refuses are solved by the kernel
    at t_min to fixed_point_tol within max_iters; `MECurve.t` names each
    radius's t.  No setting decides the trivial regime: radii at or past
    the support radius are exact zeros.
    """

    fixed_point_tol: float = 1e-12
    max_iters: int = 200_000
    t_min: float = 1e-10

    def __post_init__(self):
        if not (math.isfinite(self.fixed_point_tol) and self.fixed_point_tol > 0):
            raise ValueError("fixed_point_tol must be finite and positive")
        if not (isinstance(self.max_iters, numbers.Integral) and self.max_iters >= 1):
            raise ValueError("max_iters must be a positive integer")
        if not (math.isfinite(self.t_min) and self.t_min > 0):
            raise ValueError("t_min must be finite and positive")


@dataclass(frozen=True)
class MESolution:
    """A solution (q, q_tilde) of the master equations at one (s, t).

    t == 0 denotes the regularization limit.  For the trivial regime the
    vectors are exact zeros.
    """

    s: float
    t: float
    q: np.ndarray
    q_tilde: np.ndarray
    iterations: int
    residual: float

    @property
    def is_trivial(self) -> bool:
        return bool(np.all(self.q == 0.0) and np.all(self.q_tilde == 0.0))


@dataclass(frozen=True)
class RadialMeasure:
    """Radially symmetric measure: atom at zero plus CDF/density on a grid."""

    s_grid: np.ndarray
    F: np.ndarray
    f: np.ndarray
    atom_at_zero: float
    support_radius: float


# ---------------------------------------------------------------------------
# File formats: profile CSV (n x n decimal values, no header) and flat
# key=value config files.

def write_profile_csv(profile: VarianceProfile, path) -> None:
    """Write variances as CSV, shortest round-trip decimal representation."""
    with open(path, "w") as fh:
        for row in profile.variances:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def write_columns_csv(path, header: str, columns) -> None:
    """Write the header line, then one row per entry of the equal-length
    columns, each value as `repr(float(v))`, its shortest round-trip
    decimal form."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in np.column_stack(columns).tolist():
            fh.write(",".join(map(repr, row)) + "\n")


def read_profile_csv(path) -> VarianceProfile:
    """Read a profile CSV: one row of comma-separated decimals per line.

    Blank lines and whitespace around tokens are ignored.  Raises
    NonSquareError on rows of different lengths, ProfileError on an empty
    file or a token that is not a decimal number (comments, empty fields
    and digit separators such as 1_0 included), and validate_profile's
    errors otherwise.
    """
    with open(path) as fh:
        # stripped non-blank lines, streamed: no list of the file's lines is held
        lines = filter(None, map(str.strip, fh))
        first = next(lines, None)
        if first is None:
            raise ProfileError(f"empty profile file: {path}")
        # a square profile has as many rows as its first row has columns:
        # max_rows lets np.loadtxt allocate the grid once, where growing it
        # by reallocation can leave about its size of freed heap resident
        n = first.count(",") + 1
        try:
            grid = np.loadtxt(itertools.chain([first], lines), delimiter=",",
                              comments=None, ndmin=2, max_rows=n)
        except ValueError as exc:
            # numpy's "the number of columns changed from a to b at row k",
            # k counting the non-blank rows from 1; the match is on numpy's
            # English text, which TestProfileCsv::test_ragged_names_the_row
            # pins, so a rewording fails that test
            if "number of columns changed" in str(exc):
                raise NonSquareError(f"profile rows have inconsistent lengths: {exc}") from exc
            raise ProfileError(f"unparseable profile: {exc}") from exc
        if next(lines, None) is not None:
            raise NonSquareError(f"profile has more than {n} rows of {n} values")
    return _own_profile(grid)


def read_config(path) -> SolverConfig:
    """Read a flat key=value config file with SolverConfig field names."""
    fields = {f.name: f.type for f in dataclasses.fields(SolverConfig)}
    kwargs = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {raw!r}")
            key, value = (tok.strip() for tok in line.split("=", 1))
            if key not in fields:
                raise ValueError(f"unknown config key: {key}")
            kwargs[key] = int(value) if key == "max_iters" else float(value)
    return SolverConfig(**kwargs)


def default_s_grid(support_radius: float, count: int = 200) -> np.ndarray:
    """Uniform radial grid on (0, 1.05 * support_radius]."""
    top = 1.05 * support_radius
    return top * np.arange(1, count + 1) / count
