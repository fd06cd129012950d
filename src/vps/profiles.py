"""Profile constructors, structural analysis and the products with V.

Covers the named profile families (sampled, separable, block atom), the
spectral radius of the normalized profile (on the pair-class quotient
where it has one), irreducibility and the period with its cyclic
classes, total support and full indecomposability checks (a matching,
then `_scc`, one pass that labels every strongly connected component),
Sinkhorn scaling and the circular-law test.

Every product of the package with V, with V^T or with an operand of a
quotient is `_product`: one matrix product per `_envelope` panel of the
operand, each over the rows that hold the panel's nonzeros.  On a band
or a block-diagonal profile that reads a quarter to a third of V in
calls small enough that OpenBLAS runs each on one thread; a profile
whose envelope covers most of V keeps one panel, the whole matrix, and
the one call it would make anyway.  `_operands` gives the two operands
of a quotient, (A, B) with q @ A = V^T q and qt @ B = V qt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import NoConvergenceError, SolverConfig, VarianceProfile, validate_profile


# Columns per panel of `_envelope`.  On band model B at n = 800 (30 radii,
# 9,428 iterations; 2 cores, OpenBLAS, best of 5) panels of 32, 48, 64, 96,
# 128 and 192 columns read 23, 24, 26, 29, 33 and 39% of V, and the kernel
# took 0.62, 0.68, 0.56, 0.63, 0.64 and 0.73 s, against 1.08 s for the
# whole matrix: narrower panels pay more calls per iteration, wider ones
# read more zeros.
PANEL = 64
# `_envelope` keeps the single whole panel unless the panels read at most
# this share of V: above it splitting saves little, and the whole-matrix
# products give the same rounding as ever.  The block atom profile (k = 3,
# n = 300) would read 55% of V.
SPLIT = 0.5
# A matrix product x @ M of m n k multiply-adds below ONE_THREAD runs on
# one OpenBLAS thread.  From there OpenBLAS hands x @ V^T (and x @ V past
# its small-matrix kernel) to its other threads, which spin after the
# call until they time out, or stall it while they wake: a 2-core
# machine then spends up to twice the wall time in CPU.  OpenBLAS 0.3.31
# (numpy 2.4's), 2 cores, each shape in a fresh process, CPU over wall:
# (127 x 64) @ (64 x 64)^T 0.99, 21 us a call; 128 rows 1.38, 49 us; 129
# rows 1.97; likewise 31 against 32 and 33 rows at n = 128, 13 against
# 14 at n = 200, 7 against 8 at n = 256.
ONE_THREAD = 1 << 19
# `_one_thread` makes one call where a block would hold fewer than FLOOR
# rows, that is from n = 104 on.  On dense U(0.5, 2) curves of 200 radii
# (one process, one call against blocks, best of 5 to 15) the threaded
# call stalls up to n = 103, 249 against 43 ms at n = 100 and 135
# against 39 ms at n = 64, and from n = 104 it runs on both cores, where
# the blocks took 0-8% more wall time (n = 104-200) at half the CPU time.
FLOOR = 49


class LengthMismatchError(ValueError):
    pass


class NonPositiveEntryError(ValueError):
    pass


class NegativeFunctionValueError(ValueError):
    pass


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
# Products with V

def _envelope(M):
    """Panels (lo, hi, a, b) of M: columns a:b, PANEL at a time, and the
    rows lo:hi that hold all of their nonzeros (lo = hi = 0 where the
    panel has none), so x @ M[:, a:b] = x[:, lo:hi] @ M[lo:hi, a:b].  The
    single panel (0, n, 0, n) when the panels would read more than SPLIT
    of M."""
    n = M.shape[0]
    if n <= PANEL and M[0].any() and M[-1].any():   # one panel, on every row
        return ((0, n, 0, n),)
    a = np.arange(0, n, PANEL)
    b = np.minimum(a + PANEL, n)
    hit = np.logical_or.reduceat(M != 0, a, axis=1)   # row i has a nonzero in panel j
    lo = np.argmax(hit, axis=0)
    hi = n - np.argmax(hit[::-1], axis=0)
    empty = ~hit.any(axis=0)
    lo[empty] = hi[empty] = 0
    if ((hi - lo) * (b - a)).sum() > SPLIT * n * n:
        return ((0, n, 0, n),)
    return tuple(zip(lo.tolist(), hi.tolist(), a.tolist(), b.tolist()))


def _one_thread(x, M, out):
    """out = x @ M in as few BLAS calls on blocks of rows of x as keep
    each below ONE_THREAD multiply-adds, calls that OpenBLAS runs on one
    thread, the blocks equal to a row.  The one place that knows the rule.
    Where a block would hold fewer than FLOOR rows, x @ M is one call, as
    threaded as OpenBLAS makes it.  Where every block takes the single
    call's kernel, as at n = 64, the rows are the single call's to the
    bit; where the single call would take another, a few ulps apart."""
    per = (ONE_THREAD - 1) // M.size
    rows = len(x)
    if rows <= per or per < FLOOR:
        np.matmul(x, M, out=out)
        return
    blocks = -(-rows // per)
    for i in range(blocks):
        lo, hi = i * rows // blocks, (i + 1) * rows // blocks
        np.matmul(x[lo:hi], M, out=out[lo:hi])


def _product(x, M, panels, out):
    """out = x @ M for the rows of x, one matrix product per `_envelope`
    panel of M.  The whole panel (0, n, 0, n) is `_one_thread`'s x @ M,
    made without slicing M, in blocks of rows that OpenBLAS runs on one
    thread: on a 64 x 64 profile, blocks of at most 127 rows."""
    n = len(M)
    if len(panels) == 1 and panels[0] == (0, n, 0, n):
        _one_thread(x, M, out)
        return
    for lo, hi, a, b in panels:
        np.matmul(x[:, lo:hi], M[lo:hi, a:b], out=out[:, a:b])


def _operands(V, sizes):
    """The operands (A, B) of `_product` on a quotient V with class
    `sizes`, q @ A = V^T q and qt @ B = V qt on the lifted n entries, and
    the trace weights: diag(sizes) V, diag(sizes) V^T and sizes, since the
    lifted (V^T q)_i sums sizes[d] V[d, c] q_d over the classes d, with c
    the class of i, and likewise (V qt)_i.  Unit sizes, V itself, keep V
    and its transpose view and no weights (None), so that a sum over the
    classes is unweighted: a contiguous copy of V^T would take the n^2
    doubles that the t = 0 Newton gives its GMRES bases, and the kernel
    runs as fast on the view (99 lock-step iterations of 28 radii of band
    model B at n = 800: 72 ms either way)."""
    if (sizes == 1).all():
        return V, V.T, None
    weights = sizes[:, None]
    return weights * V, weights * V.T, sizes


# ---------------------------------------------------------------------------
# Structural analysis

def spectral_radius(profile, tol: float = 1e-10, max_iters: int = 100_000,
                    operand=None) -> float:
    """Perron root of the normalized profile V by power iteration.

    Deterministic: starts from the all-ones vector.  A positive diagonal
    shift makes the iteration converge for periodic support patterns
    (e.g. the block atom profile) without changing the Perron root.  When
    the pattern of V has no cycle but self-loops, V is triangular up to a
    symmetric permutation and its largest diagonal entry is returned
    exactly, without iterating: 0.0 for a nilpotent pattern.

    A profile with `pair_classes` (label, sizes, Vbar) is read on its
    p x p quotient W = Vbar diag(sizes): with E the n x p class indicator,
    V = E Vbar E^T, so V E = E W, and V's nonzero eigenvalues are W's.  The
    iteration runs on W, its norm and Rayleigh quotient weighted by the
    class sizes, so its iterates are those on V, lifted by E, up to
    rounding; a pattern of W with no cycle but self-loops makes W
    triangular, and max diag W is exact.  An array, or a profile without
    pair classes, is read on all of V.

    Each step W x is x W^T, a `_product` on W^T, the quotient's B operand
    of `_operands` (V^T, or diag(sizes) Vbar^T), so a band reads its
    envelope panels alone.  `operand` is (W^T, its `_envelope` panels),
    as a solve's route holds them; without it they are formed here.
    """
    if isinstance(profile, VarianceProfile) and profile.pair_classes is not None:
        _, sizes, Vbar = profile.pair_classes
    else:
        Vbar = profile.normalized if isinstance(profile, VarianceProfile) else np.asarray(profile, dtype=float)
        sizes = np.ones(len(Vbar))   # weights of 1.0, exact: the plain dot products
    if operand is None:
        B = _operands(Vbar, sizes)[1]
        operand = B, _envelope(B)
    B, panels = operand
    W = B.T
    adj = W != 0
    np.fill_diagonal(adj, False)
    if _acyclic(adj):
        return float(W.diagonal().max())
    shift = float(np.max(W.sum(axis=1)))
    x = np.ones((1, len(W)))   # one row: W x is x @ B
    y = np.empty_like(x)
    _product(x, B, panels, y)
    y += shift * x
    lam_prev = None
    for _ in range(max_iters):
        x = y / math.sqrt((sizes * y[0]) @ y[0])  # np.linalg.norm's arithmetic for the lifted y
        _product(x, B, panels, y)   # the Rayleigh product and the next step's y
        y += shift * x
        lam = float((sizes * x[0]) @ y[0])
        if lam_prev is not None and abs(lam - lam_prev) <= tol * abs(lam):
            return lam - shift
        lam_prev = lam
    raise NoConvergenceError("power iteration did not converge")


def _acyclic(adj: np.ndarray) -> bool:
    """True iff the digraph of `adj`, which has no self-loop, has no cycle:
    every node is a strongly connected component of its own (`_scc`)."""
    if adj.any(axis=1).all() and adj.any(axis=0).all():
        return False  # every node has an edge in and one out: a cycle
    return bool(_scc(adj).max() == len(adj) - 1)


def is_irreducible(profile: VarianceProfile) -> bool:
    """True iff the support digraph (edge i->j when sigma_ij^2 > 0) is
    strongly connected."""
    return cyclic_classes(profile.variances > 0) is not None


def cyclic_classes(pattern):
    """Cyclic class labels 0, ..., h-1 of an irreducible square pattern, or
    None when its digraph (edge i->j when pattern[i, j] != 0) is not
    strongly connected or, for a single node without a loop, has no cycle.

    h is the period, the gcd of the cycle lengths.  Every edge i->j runs
    from class c to class c + 1 mod h, so the pattern is block cyclic on the
    classes when h >= 2.  With the breadth-first levels from node 0, an edge
    i->j closes a cycle offset of level[i] + 1 - level[j], and h is the gcd
    of these offsets over all edges; the class of node i is level[i] mod h.
    """
    adj = np.asarray(pattern) != 0
    level = _levels(adj, 0)
    if level.min() < 0 or _levels(adj.T, 0).min() < 0:
        return None
    h = 0
    for depth in range(level.max() + 1):
        # the edges leaving one level, as the levels of their heads
        heads = np.any(adj[level == depth], axis=0)
        h = np.gcd.reduce(depth + 1 - level[heads], initial=h)
    return None if h == 0 else level % h


def _levels(adj: np.ndarray, start: int, live=None) -> np.ndarray:
    """Breadth-first level of each node of the digraph of `adj` from
    `start` through `live` nodes (all by default), negative where not reached."""
    level = np.full(adj.shape[0], -1) if live is None else np.where(live, -1, -2)
    level[start] = 0
    frontier = np.array([start])
    depth = 0
    while frontier.size:
        depth += 1
        frontier = np.flatnonzero(np.any(adj[frontier], axis=0) & (level == -1))
        level[frontier] = depth
    return level


def _scc(adj: np.ndarray) -> np.ndarray:
    """Labels 0, ..., K-1 of the strongly connected components of the
    digraph of `adj`, by forward-backward reach after a trim (Fleischer,
    Hendrickson & Pinar, 2000).  A live node with no edge to another live
    node, or none from one (self-loops aside), is peeled off as a component
    of its own; when none is left, the live nodes that reach and are reached
    from the first live node form its component.  Without the trim a
    triangular pattern would take one reach pair per node.  A pattern with
    no zero entry is one component, and is labelled without a search."""
    if adj.all():
        return np.zeros(adj.shape[0], dtype=int)
    out_deg = adj.sum(axis=1) - adj.diagonal()
    in_deg = adj.sum(axis=0) - adj.diagonal()
    live = np.ones(adj.shape[0], dtype=bool)
    label = np.full(adj.shape[0], -1)
    while live.any():
        count = label.max() + 1
        comp = np.flatnonzero(live & ((out_deg == 0) | (in_deg == 0)))
        if comp.size:
            label[comp] = count + np.arange(comp.size)
        else:
            pivot = int(np.argmax(live))
            comp = np.flatnonzero((_levels(adj, pivot, live) >= 0)
                                  & (_levels(adj.T, pivot, live) >= 0))
            label[comp] = count
        live[comp] = False
        out_deg -= adj[:, comp].sum(axis=1)
        in_deg -= adj[comp].sum(axis=0)
    return label


def _total_support(pattern):
    """Perfect matching and Frobenius blocks of a square 0/1 pattern with
    total support, or None when it has none.

    A pattern has total support when every nonzero lies on a perfect
    matching.  Returns (match, block): row i is matched to column match[i]
    (Hopcroft-Karp, started from the nonzero diagonal entries), and block[i]
    labels the strongly connected component of row i in the digraph i -> k
    when pattern[i, match[k]] != 0.  Total support holds iff no edge joins
    two components, so the pattern is a direct sum of fully indecomposable
    blocks, one per label, block b on rows block == b and columns
    match[block == b].  These row and column sets are the same for every
    perfect matching, and `_scc` labels them in an order set by the rows
    alone, so `block` does not depend on the matching found.
    """
    adj = np.asarray(pattern) != 0
    n = adj.shape[0]
    # start from the diagonal matching: a zero-free diagonal is perfect
    row_match = np.where(adj.diagonal(), np.arange(n), -1)
    col_match = row_match.copy()
    while True:
        # one phase: layer the rows by alternating path length from the
        # free rows, then augment along paths that climb the layers
        free = np.flatnonzero(row_match < 0)
        if not free.size:
            break
        layer = np.full(n, -1)
        layer[free] = 0
        seen = np.zeros(n, dtype=bool)
        frontier, depth = free, 0
        while frontier.size:
            cols = np.any(adj[frontier], axis=0) & ~seen
            seen |= cols
            rows = col_match[cols]
            if (rows < 0).any():
                break
            depth += 1
            layer[rows] = depth
            frontier = rows
        else:
            return None  # no augmenting path: no perfect matching
        for root in free:
            path, todo = [root], [None]
            while path:
                r = path[-1]
                if todo[-1] is None:
                    nxt = layer[col_match] == layer[r] + 1
                    todo[-1] = np.flatnonzero(adj[r] & ((col_match < 0) | nxt)).tolist()
                if not todo[-1]:
                    layer[r] = -1  # dead end for the rest of the phase
                    path.pop()
                    todo.pop()
                    continue
                c = todo[-1].pop()
                r2 = col_match[c]
                if r2 < 0:
                    for r in reversed(path):  # flip the path's edges
                        row_match[r], col_match[c], c = c, r, row_match[r]
                    break
                if layer[r2] == layer[r] + 1:
                    path.append(r2)
                    todo.append(None)
    # a matched pattern has total support iff every edge of the digraph
    # lies inside a strongly connected component: at once when there is one
    adj = adj[:, row_match]
    block = _scc(adj)
    if block.any() and np.any(adj & (block[:, None] != block)):
        return None
    return row_match, block


def _class_hall(sizes, Vbar) -> bool:
    """Hall's condition on each pair class of a profile with
    `pair_classes` (label, sizes, Vbar): the sizes[c] equal rows of class c
    have their nonzeros in the (Vbar[c] > 0) @ sizes columns of the classes
    they reach, and a perfect matching needs at least sizes[c] of them; so
    for the columns.  False proves that the pattern has no perfect
    matching; True proves nothing, as Hall's condition on unions of classes
    is not checked.  On V itself (n classes of size 1) it refuses a zero
    row or column.  The sums are einsums, which cast the boolean pattern a
    buffer at a time: a matrix product would cast all of it to the sizes'
    dtype, n^2 doubles on V itself."""
    support = Vbar > 0
    return bool((np.einsum("cd,d->c", support, sizes) >= sizes).all()
                and (np.einsum("cd,c->d", support, sizes) >= sizes).all())


def is_fully_indecomposable(pattern) -> bool:
    """Full indecomposability of a square 0/1 K x K pattern: no nonempty
    row subset I has a nonempty set J of columns that vanish on all of I
    with |I| + |J| >= K.

    Equivalently the pattern has total support with one Frobenius block: a
    perfect matching, and an irreducible pattern once the matching is put on
    the diagonal.  Polynomial in K (see `_total_support`).
    """
    t = np.asarray(pattern) != 0
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ValueError("pattern must be square")
    structure = _total_support(t)
    return structure is not None and not structure[1].any()


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
    block_min = profile.normalized.reshape(K, b, K, b).min(axis=(1, 3))
    return is_fully_indecomposable(block_min >= phi / n)


def sinkhorn_scale(profile: VarianceProfile, tol: float = 1e-10,
                   max_iters: int = 100_000) -> SinkhornResult:
    """Doubly stochastic D1 V D2 from `solve_at_zero`'s solution (trace
    balanced per Frobenius block), in the gauge of equal geometric means of
    d1 and d2.

    The scaling exists iff the pattern of V has total support (Sinkhorn and
    Knopp); without it NoConvergenceError is raised at once, and with it
    after max_iters iterations that leave a row sum off 1 by more than tol.
    """
    from .mesolver import solve_at_zero

    V = profile.normalized
    sol = solve_at_zero(profile, SolverConfig(fixed_point_tol=tol, max_iters=max_iters))
    gamma = math.exp(0.5 * (np.mean(np.log(sol.q_tilde)) - np.mean(np.log(sol.q))))
    d1 = sol.q * gamma
    d2 = sol.q_tilde / gamma
    return SinkhornResult(d1=d1, d2=d2, scaled=d1[:, None] * V * d2[None, :],
                          iterations=sol.iterations)


def circular_law_test(profile: VarianceProfile, tol: float = 1e-6,
                      config: SolverConfig | None = None,
                      rho: float | None = None, route=None):
    """Does the profile yield the circular law?

    True iff the boundary solution satisfies q_i(0) * qt_i(0) = 1 for all i
    within tol (equivalently V = D^-1 S D with S doubly stochastic).  The
    boundary solution is the Sinkhorn scaling of V (see `solve_at_zero`),
    so NoConvergenceError is raised when the pattern of V has no total
    support.  `rho` is the profile's spectral radius, computed when not
    given.  `route` is the profile's `vps.mesolver._route`, made here when
    not given, whose operands and panels both solves read.  Returns (flag,
    diagnostics).
    """
    from .mesolver import _route, solve_at_zero

    if route is None:
        route = _route(profile)
    sol = solve_at_zero(profile, config, route)
    prod = sol.q * sol.q_tilde
    deviation = float(np.abs(prod - 1.0).max())
    if rho is None:
        rho = spectral_radius(profile, operand=route.product_T)
    f0 = float(np.sum(prod)) / (math.pi * profile.n)
    diagnostics = {
        "max_deviation": deviation,
        "rho": rho,
        "density_at_zero": f0,
        "f0_pi_rho": f0 * math.pi * rho,
    }
    return deviation <= tol, diagnostics
