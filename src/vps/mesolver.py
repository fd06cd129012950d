"""Fixed-point and Newton solvers for the master equations.

The 2n unknowns (q, q_tilde) at radial parameter s and regularization t are
found by the averaged iteration

    r      <- (1 - w) r      + w * Psi * (V^T r      + t)
    r_tilde<- (1 - w) r_tilde + w * Psi * (V  r_tilde + t)

with Psi_i = 1 / (s^2 + ((V r_tilde)_i + t)((V^T r)_i + t)) and w = AVERAGING.
For t > 0 the system has exactly one positive solution (Cook, Hachem,
Najim & Renfrew, part I), so the t -> 0 limit is approximated by solving
once at t = t_min, from ones; no schedule in t and no other radius's
solution is a better start.  Only the solution of a coarser profile is:
on a route of at least COARSE_MIN classes the loose kernel below starts
from the lifted solution of V averaged over groups of COARSE classes
(`_coarse_start`).

Radii at or past the support radius sqrt(rho) are not iterated.  At t = 0
a nonnegative solution has q_i <= (V^T q)_i / s^2, so s^2 q <= V^T q, and
likewise s^2 qt <= V qt; for s^2 > rho subinvariance (Collatz-Wielandt)
leaves only q = qt = 0, for every nonnegative V.  At the edge s^2 = rho
zero is still an exact solution, and F = 1 there ends the support.  So the
trivial regime is decided by comparing s with sqrt(rho), and by nothing
else.

One kernel, `_solve_rows`, solves many radii at once at one t.  The
radii are independent solves that share only the matrix products, so all
of them form one block, the [q | q_tilde] rows of (radii, 2n) work arrays:
one iteration is two matrix products, Q @ V and Qt @ V^T, for the whole
block.  The rows start together and iterate in lock step, so they share
one iteration count and take their Aitken steps and Newton hand-offs at the
same iterations, and a radius gets the iterates it gets when solved alone,
up to rounding in the matrix products.  A row that converges is compacted
out of the leading slice, and the loop ends when no row is left.  Where the
pattern of V + V^T splits into connected components the equations
decouple, and each component keeps its own gauge (c q, q_tilde / c); the
trace is balanced in each.

Each call of the kernel lays V out once for all its iterations.  Where the
components are not already contiguous, V is permuted symmetrically into
their stable label order, so each component's unknowns form one range and
a direct sum becomes block diagonal; the trace balance then sums and
scales ranges.  The products read only V's nonzero envelope: every
product with V, V^T or a quotient's operand in this module is
`vps.profiles._product`, one matrix product per `_envelope` panel of
PANEL columns over the rows that hold the panel's nonzeros, for V and
for its transpose alike.  On a band or a block-diagonal profile that
reads a quarter to a third of V; a profile whose envelope covers most of
V keeps one panel, the whole matrix.  The only other products with V are
the dense systems that `_linearization` forms on small routes.

Every profile is solved on a quotient, its `_Route`, made once per curve.
Two indices with the same row of V and the same column of V (the same row
of [V | V^T]) have equal q and equal q_tilde at every iterate, so the p
pair classes of V (`VarianceProfile.pair_classes`, found where 2p <= n)
carry the whole iteration: with class sizes n_c and block values Vbar
(p x p), the q half multiplies by diag(n_c) Vbar, the q_tilde half by
diag(n_c) Vbar^T, and the trace sums weight each class by n_c.  The
stopping rule, the Aitken steps, the Newton hand-offs and the 1/t bound
act on the 2p unknowns as they would on the lifted 2n, and each finished
row is lifted by the class label.  A profile without pair classes is the
identity quotient: V itself, with n classes of size 1.  Unit sizes keep V
and its transpose view as the operands, with no trace weights
(`_operands`), so that route copies nothing.  The route record also holds
the connected components, labeled once, which the kernel's gauge and the
derivative's border read, and its two operands with their `_envelope`
panels, each found once per route: the kernel's `_layout`, the curve's
products, the rank-one check, the Sinkhorn iteration and the spectral
radius all read them.  The spectral radius
(`vps.profiles.spectral_radius`, power iteration on Vbar diag(n_c), as
x @ B with B its transpose) and the s = 0 check of `solve_at_zero`
(Hall's condition one class at a time, `vps.profiles._class_hall`) read
the same quotient.

A rank-one profile V = a b^T (`VarianceProfile.rank_one_factors`, the
source paper's separable case) is not iterated at all.  With
pi_i = a_i b_i, D_i = s^2 + pi_i w, alpha = <a, q> and beta = <b, qt>, the
t = 0 equations read q = b alpha / D and qt = a beta / D, so
w = alpha beta is the root of sum_i pi_i / D_i = 1, and the trace
sum(q) = sum(qt) fixes alpha / beta.  `vps.separable._roots` finds w at
every radius at once, and `_solve_rank_one` lifts it in closed form: the
t = 0 solution itself, with no t_min.  Where s^2 >= sum(pi), the only
nonzero eigenvalue of V, there is no root and zero is the exact solution;
that covers the slack of the computed rho and nilpotent patterns.  No rank
tolerance decides an output: every lifted radius is checked against the
t = 0 residual on the classes of the profile's route, by the kernel's
stopping rule, and the radii that fail it take any other profile's
route, `_solve_at_zero_rows`.

One routine, `_newton`, takes every Newton step, for many rows at once:
the kernel's hand-offs at t_min and the t = 0 endgame below.  Its systems
are bordered at t = 0 once per component by its trace row and gauge
direction, and not at t > 0, where the gauge is no symmetry.  On a route
with at most LU_UNKNOWNS = 24 unknowns per half (the p classes of the
quotient, or n on V itself) they are solved by stacked LUs
(`_stacked_solve`).  Past it they are solved by GMRES without being
formed (`_krylov_solve`; Jacobian-free Newton-Krylov, Knoll & Keyes,
J. Comput. Phys. 193, 2004): one GMRES iteration applies the operator by
two `_product` calls on the envelope panels, as one kernel iteration
does.  Either way the systems go in chunks whose stacked LU systems or
Krylov bases hold at most max(n^2, BASIS) doubles.  GMRES solves the
first step of a call to the relative residual FORCING[0], and each later
step only as far as its Newton step needs (Eisenstat & Walker, SIAM J.
Sci. Comput. 17, 1996): to 0.3 tol max(1, max x) / ||F||_2, clipped to
[FORCING[1], 0.3], except a system whose last condition estimate passed
GUARD = 1e8, which keeps FORCING[1], so that the gate below sees the
Krylov space of the fixed pair, and one whose last step missed a 10%
gain, which takes FORCING[1] so that a loose solve's multipliers cannot
stall it (`_newton`).  A row that meets its forcing costs no
more operator products or basis reads in its chunk.

Every route but the rank-one one solves the t = 0 equations
(`_solve_at_zero_rows`): the kernel runs at t_min only to NEWTON_START =
1e-3, from the coarse start where the route has one, and Newton takes it
from there.  A radius's `iterations` count that kernel's iterations and
its Newton steps, not the coarse solve's.  A radius is accepted only if it
meets the kernel's stopping rule at t = 0, stays positive, and its last
system passes the condition gate (an estimate at most 1e13: that of
`derivative_rows` for the LUs, ||M||_inf / sigma_min of the Hessenberg
factor for GMRES).  The refused radii alone are solved again by the
kernel at t_min to the full tolerance: the one path of a curve's radius
to t_min.  The gate refuses the boundary points that patterns without
total support converge to at small radii: on the 12 x 12 pattern of the
tests, 24 of 40 radii, with estimates of 2e33 and more, where its 12
accepted radii stay below 1e9, the block atom's below 1e8 and dense
profiles' below 100; with a positive 16 x 16 block beside it, past
LU_UNKNOWNS, GMRES refuses the same radii, its estimates 6e13 and more.
On the block atom at n = 300 all 190 inside radii are accepted in at
most 5 steps, F moves from 1.9e-9 to 1.8e-12 off the closed form, and
the curve is solved in a third of the time.  On band model B at n = 800 (28 radii, t_min = 1e-8,
fixed_point_tol = 1e-9) the loose kernel's longest radius takes 99
iterations from ones, and 9 from the coarse start, against 1,057 to the
full tolerance, every radius is accepted
in 2 or 3 steps and at most 40 GMRES iterations (863 in all), F moves
from 1.8e-8 to 2e-10 off a reference made at t_min = 1e-10, and the curve
is solved in half the time.  On 200-point grids of smaller profiles the
endgame costs more than the t_min kernel alone would: 1.25 and 1.34 times
its time on dense U(0.5, 2) profiles at n = 30 and 64, 1.08 times on band
model A at n = 400.  No route keeps t_min for speed: a direct sum and its blocks
would then be solved at different t.

`solve_curve` runs these routes over the radii of a grid below sqrt(rho),
by default `default_s_grid` up to the support radius, and keeps the
route's `_Rows` record once, as `MECurve.rows`, lifted to n entries and
padded past the edge with zero rows in one copy; `rows.at_zero` marks the
radii solved at t = 0, `rows.krylov` counts each radius's GMRES
iterations, and the curve's t per radius (`MECurve.t`), `MESolution`
views and failed radii are read from it.  `solve_curve` on one radius is
the t -> 0 limit there.  No public call solves at a caller's t > 0: that
is the kernel itself, `_solve_rows` on `_layout(_route(profile))`, one
row per radius, which never takes the endgame.

The measures read a curve once, through `MECurve.products`: its rows and
the products V q_tilde and V^T q at every radius, on one entry per class
of the curve's route (with the class sizes weighting the sums), as two
matrix products for the whole curve.  A rank-one profile's density is the
derivative of its scalar equation, in closed form (`vps.measures`).
Otherwise `derivative_rows` solves the linearized equations at every
radius, bordered as the t = 0 Newton's are, by `_stacked_solve`: (2p + c)
systems on the p classes of the route (p = n on V itself), with its c
components.  `derivative_s2` is its one-radius call.  `solve_route` names
the route of the curve and the density alike.

`solve_at_zero` needs no regularization.  At s = t = 0 the equations are the
Sinkhorn-Knopp equations, with a positive solution iff the pattern of V has
total support; it checks that on the pattern, with a perfect matching and
the Frobenius blocks, and then runs the Sinkhorn iteration on the classes
of the profile's route.  `profiles.sinkhorn_scale` is its solution in
another gauge.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    MESolution,
    NoConvergenceError,
    RankDeficientError,
    SolverConfig,
    VarianceProfile,
    _splitmix64,
    default_s_grid,
)
from .profiles import (
    _class_hall,
    _envelope,
    _operands,
    _product,
    _scc,
    _total_support,
)
from .separable import _roots

# Block Aitken extrapolation every AITKEN iterations, and a Newton hand-off
# every NEWTON iterations of a radius that has not converged.  The periodic
# hand-off pays on sparse patterns: on 148 random sparse profiles (n 6-16,
# 10-35% nonzero, 20-point grids, max_iters 60,000;
# `scripts/sparse_survey.py`) the curves take 3.21M iterations with 28
# failed radii with it, and 7.58M with 92 without; the 16 x 16 profile of
# the Newton tests takes 2,048 iterations at s = 0.104 with it, 176,065
# without.  On band model B at n = 40 (30 radii, t_min = 1e-8,
# fixed_point_tol = 1e-9) it saves little since the stall hand-offs:
# 10,311 iterations against 10,600.
AITKEN = 32
NEWTON = 2048
# Newton steps of one call of `_newton`, a hand-off or the t = 0 endgame,
# before it gives up.
NEWTON_STEPS = 40
# A row whose Aitken gain r / (1 - r) passes STALL_GAIN (block ratio
# r > 0.99) is handed to Newton at its next iteration, and again each time
# its gain doubles.  The gain's sensitivity to r is 1 / (1 - r)^2, so past
# it the jumps turn rounding into the iteration count: without these
# hand-offs, on random block profiles without total support, one-ulp
# changes moved a radius between 995 and 1,315 iterations, and the
# pair-class quotient and all n indices disagreed on 53 of 565 draws by up
# to 838; with them, on none, in 39% fewer iterations.  The benchmark
# workloads' gains stay below 7.
STALL_GAIN = 100.0
# Weight of the new iterate in the averaged iteration.  On 30-point grids,
# weight 1/2 against plain iteration (weight 1): band model A at n = 400
# takes 2,413 iterations against 6,580, a dense U(0.5, 2) profile at n = 64
# 1,728 against 3,361, but band model B at n = 800 (t_min = 1e-8,
# fixed_point_tol = 1e-9) 9,428 against 6,465, and the block atom at
# n = 300 1,820 against 962.
AVERAGING = 0.5
# Newton on the t = 0 equations (`_solve_at_zero_rows`) ends every route
# but the rank-one one.  Each Newton step, the kernel's hand-offs
# included, is solved by stacked LUs for all its rows at once on a route
# with at most LU_UNKNOWNS unknowns per half (the p classes of the
# quotient, or n on V itself), and by GMRES (`_krylov_solve`) past it.  On
# 190 radii of dense U(0.5, 2) profiles the LU endgame took 0.45, 0.71,
# 1.15, 2.3 and 5 times the t_min kernel's time at n = 8, 24, 32, 48 and
# 64, and the GMRES endgame 1.25 and 1.34 times at n = 30 and 64 (2
# cores, OpenBLAS).
LU_UNKNOWNS = 24
# The relative tolerance at which the kernel hands its t_min iterate to
# that Newton.  No looser: at 1e-2 the starved budgets of the benchmark's
# own checks would no longer fail, and the block atom at n = 300 already
# converges from 1e-3 in at most 5 steps.
NEWTON_START = 1e-3
# GMRES (`_krylov_solve`) keeps at most KRYLOV basis vectors per system,
# unrestarted, and stops at the relative residual FORCING[0] at a Newton
# call's first step.  After it each system stops at its own forcing,
# 0.3 tol max(1, max x) / ||F||_2 clipped to [FORCING[1], 0.3], where the
# Newton residual tol max(1, max x) needs no more, unless its last
# condition estimate passed GUARD: a shorter GMRES can only lower the
# estimate ||M||_inf / sigma_min(R), and the 1e13 gate of
# `_solve_at_zero_rows` must see the Krylov space it sees with FORCING[1].
# On the test profiles accepted radii estimate at most 1.3e4 and refused
# ones at least 5.9e13.  On band model B at n = 800 (28 radii,
# t_min = 1e-8, fixed_point_tol = 1e-9) the curve's GMRES iterations fall
# from 1,071 with FORCING[1] after the first step to 865, its Newton steps
# and accepted radii stay the same and F moves by at most 2.5e-12: half
# its radii took a third step whose GMRES spent 15-17 iterations to bring
# a residual of about 1e-9 under 1e-9.  Every stacked work array of a
# chunk of rows, a Krylov basis or the systems of one stacked LU solve,
# holds at most max(n^2, BASIS) doubles, the size of V or 4 MiB: 7 rows at n = 800,
# where a basis for all 28 radii would take 22 MB.  On dense profiles at
# n = 12, 64 and 200, LU stacks from 256 KiB to 16 MiB took 3.6-4.3, 48-60
# and 498-612 ms, against 19, 66 and 526 ms one radius at a time.
KRYLOV = 50
FORCING = (1e-4, 1e-8)
GUARD = 1e8
BASIS = 2 ** 19
# `_gmres` swaps stopped rows' bases in blocks of at most SWAP doubles.
SWAP = 2 ** 13
# On a route of at least COARSE_MIN classes the loose kernel of
# `_solve_at_zero_rows` starts from the solution of the coarse profile
# (`_coarse_start`), V averaged over groups of COARSE classes.  On band
# model B at n = 800 (28 radii, t_min = 1e-8, fixed_point_tol = 1e-9) the
# radii below 0.3 sqrt(rho) took 98-99 loose iterations from ones, since
# the error's smooth part spreads one bandwidth per iteration; from the
# coarse start the loose phase takes 199 iterations in all against 1,859,
# at most 9 a radius, and 23 ms (14 of them the coarse solve) against 80.
# The gain needs a profile that is smooth in the layout's index order.
# Curves on the 200-point default grid, coarse start against ones (best
# of 5, median of 3 rounds, 2 cores), at t_min = 1e-8 and fixed_point_tol
# = 1e-9, then at the default config: band B 1.01 and 1.10 times the time
# from ones at n = 64, 0.95 and 1.23 (noisy) at 80, 0.94 and 0.90 at 96,
# 0.91 and 0.94 at 128, 0.85 and 0.89 at 160; dense U(0.5, 2) 1.00 and
# 0.95 at 64, 0.72 (noisy) and 0.99 at 80, 1.00 and 0.94 at 96, 0.95 and
# 0.93 at 128.  A randomly permuted band, with no such order, gains
# nothing and pays the coarse solve: 1.02-1.16 times at every n from 64
# to 192.
COARSE = 8
COARSE_MIN = 96


@dataclass(frozen=True)
class MECurve:
    """Master equation solutions along an increasing radial grid, stored
    once: `rows`, the `_Rows` record with one row per radius of `s_grid`,
    and `route`, the profile's `_Route`, made once for the curve: the
    solve, its `products` and the exact density's one-radius solves read
    it."""

    profile: VarianceProfile
    s_grid: np.ndarray
    rows: _Rows
    rho: float
    config: SolverConfig
    route: _Route

    @functools.cached_property
    def t(self) -> np.ndarray:
        """Each radius's t, read from the record: 0.0 where `rows.at_zero`
        holds or s >= sqrt(rho), and t_min elsewhere (read-only)."""
        zero = self.rows.at_zero | (self.s_grid >= math.sqrt(self.rho))
        t = np.where(zero, 0.0, self.config.t_min)
        t.setflags(write=False)
        return t

    @functools.cached_property
    def solutions(self) -> tuple:
        """One `MESolution` per radius, at its `t`, viewing the rows."""
        rows = self.rows
        return tuple(MESolution(float(s), float(t), q, qt, int(it), float(res))
                     for s, t, q, qt, it, res in zip(self.s_grid, self.t, rows.q, rows.q_tilde,
                                                     rows.iterations, rows.residual))

    @property
    def failed_indices(self) -> tuple:
        """The indices of the radii whose solve failed."""
        return tuple(i for i, error in enumerate(self.rows.errors) if error)

    @property
    def failure_messages(self) -> tuple:
        """The kernel's message for each of `failed_indices`."""
        return tuple(error for error in self.rows.errors if error)

    @functools.cached_property
    def products(self) -> "CurveProducts":
        """`curve_products` of the curve's rows, computed on first use and
        cached on the curve; the measures of `vps.measures` read them."""
        rows = self.rows
        return curve_products(self.route, self.s_grid, rows.q, rows.q_tilde)

    def raise_failures(self) -> None:
        """Raise NoConvergenceError naming the failed radii, if any, and
        quoting the first failed radius's message."""
        failed = self.failed_indices
        if failed:
            radii = ", ".join(f"{self.s_grid[i]:.6g}" for i in failed[:8])
            if len(failed) > 8:
                radii += f" and {len(failed) - 8} more"
            raise NoConvergenceError(
                f"{len(failed)} of {len(self.s_grid)} grid points did not "
                f"converge, at s = {radii}; first: {self.failure_messages[0]}")


@dataclass(frozen=True)
class _Route:
    """The unknowns of a profile's solves, made once per curve by `_route`:
    a quotient V with p classes, the class `sizes`, the class `label` of
    each of the n indices, `pick`, the first index of each class, and
    `name`, the route as `solve_route` names it.  A profile's pair-class
    quotient (Vbar, sizes, label) is one; V itself is the identity
    quotient, with n classes of size 1, label arange(n) and `pick` the
    slice of all n, so that picking the classes' entries is a view."""

    V: np.ndarray
    sizes: np.ndarray
    label: np.ndarray
    pick: slice | np.ndarray
    name: str

    @functools.cached_property
    def component(self) -> np.ndarray:
        """The `_scc` label of each class's connected component of the
        pattern of V + V^T, found on first use and cached: the kernel's
        gauge and the derivative's border read the same labels."""
        return _scc((self.V != 0) | (self.V.T != 0))

    @functools.cached_property
    def operands(self):
        """The `_operands` (A, B, weights) of the quotient, formed on first
        use and cached."""
        return _operands(self.V, self.sizes)

    @functools.cached_property
    def product(self):
        """(A, its `_envelope` panels), the `_product` operand of q @ A =
        V^T q, found on first use and cached: every product of the route
        with A reads these panels."""
        A = self.operands[0]
        return A, _envelope(A)

    @functools.cached_property
    def product_T(self):
        """(B, its `_envelope` panels), the `_product` operand of
        qt @ B = V qt, found on first use and cached; the spectral radius
        reads it too, since B = W^T."""
        B = self.operands[1]
        return B, _envelope(B)

    def apply(self, q, qt):
        """(q @ A, qt @ B), the products V^T q and V qt of the rows q and
        qt on the classes, by `_product` on the route's operands."""
        vt_q, v_qt = np.empty_like(q), np.empty_like(qt)
        _product(q, *self.product, vt_q)
        _product(qt, *self.product_T, v_qt)
        return vt_q, v_qt


def _identity(V) -> _Route:
    """V as its own quotient, with n classes of size 1."""
    n = len(V)
    return _Route(V, np.ones(n), np.arange(n), slice(None), "full")


def _route(profile: VarianceProfile) -> _Route:
    """The `_Route` of a profile: its pair-class quotient where it has
    `pair_classes`, and otherwise `_identity` of V.  Two indices of one
    class have equal q and equal q_tilde at every iterate, so the quotient
    runs the same iteration on 2p unknowns in place of 2n.  The one place
    that chooses between the two; a rank-one profile has a route too, for
    the radii that fail its check and for its products."""
    classes = profile.pair_classes
    if classes is None:
        return _identity(profile.normalized)
    label, sizes, Vbar = classes
    return _Route(Vbar, sizes, label, np.unique(label, return_index=True)[1],
                  f"quotient ({len(sizes)} classes)")


def _rebalance(x, gauge):
    """Gauge rescaling (q, qt) -> (c q, qt / c) with c = sqrt(sum(qt) / sum(q))
    taken over each component of the `_layout` gauge, in place on every
    [q | qt] row of x, whose unknowns are in the gauge's order: each
    component is one contiguous range.  On a pair-class quotient the sums
    weight each class by its size, so they are the sums of the lifted n
    entries.

    The equations of a component involve only its own entries, so each
    component's rescaling is an exact symmetry of the t = 0 equations, and
    its trace identity sum(q) = sum(qt) picks the balanced member; without
    it the iteration restores balance only at a rate proportional to t.
    Both sums must be positive in every component.
    """
    _, starts, sizes, weights = gauge
    x3 = x.reshape(len(x), 2, -1)
    sums = np.add.reduceat(x3 if weights is None else x3 * weights, starts, axis=2)
    c = np.repeat(np.sqrt(sums[:, 1] / sums[:, 0]), sizes, axis=1)
    x3[:, 0] *= c
    x3[:, 1] /= c


def _layout(route: _Route):
    """What `_solve_rows` sets up once per call on a route: the gauge
    (order, starts, counts, weights) of `_rebalance` and the `_operands`
    (A, panels) and (B, panels) of `_product`, each with its `_envelope`
    panels.  `order` lists the classes in the stable order of their
    `route.component` labels, `starts` and `counts` give where each
    component starts in that order and its size, and `weights` are the
    trace weights in that order.  Where `order` is the identity the
    operands are the route's own, `route.product` and `route.product_T`,
    with their panels found once per route; otherwise V is permuted
    symmetrically into it, so each component is one range, and the
    permuted operands' panels are found here."""
    component = route.component
    order = np.argsort(component, kind="stable")
    counts = np.bincount(component)
    gauge = order, np.cumsum(counts) - counts, counts
    if (order == np.arange(len(order))).all():
        return (*gauge, route.operands[2]), route.product, route.product_T
    A, B, weights = _operands(route.V[np.ix_(order, order)], route.sizes[order])
    return (*gauge, weights), (A, _envelope(A)), (B, _envelope(B))


def envelope_fraction(route: _Route) -> float:
    """Share of the route's V that one fixed-point iteration of
    `_solve_rows` reads on V itself: the area of the `_envelope` panels of
    its operands, in the kernel's component order, over 2 p^2 for p
    classes.  On `_identity(V)`, the share of V and of V^T."""
    _, (_, panels), (_, panels_T) = _layout(route)
    area = sum((hi - lo) * (b - a) for lo, hi, a, b in panels + panels_T)
    return area / (2 * len(route.V) ** 2)


def _linearization(A, B, d, cq, cqt, trace=None):
    """I - J for the block matrix J = [[d A^T, -cq B^T], [-cqt A^T, d B^T]]
    of the operands (A, B) of `_layout`, whose blocks are A^T or B^T with
    row i scaled by the coefficient vector: for (V, V^T) the blocks are
    V^T or V.

    Written into one array; with c rows of trace weights T (c, n), the
    rows (T, -T) border it below, and c zero columns on the right, which
    `_stacked_solve` fills with the gauge directions.  Coefficient vectors
    with leading axes (one row per radius) give a stack of such matrices.
    """
    n = d.shape[-1]
    AT, BT = A.T, B.T
    T = None if trace is None else np.atleast_2d(trace)
    size = 2 * n + (0 if T is None else len(T))
    M = np.empty(d.shape[:-1] + (size, size))
    top, bottom = M[..., :n, :2 * n], M[..., n:2 * n, :2 * n]
    np.multiply(d[..., None], AT, out=top[..., :n])
    np.negative(top[..., :n], out=top[..., :n])
    np.multiply(cq[..., None], BT, out=top[..., n:])
    np.multiply(cqt[..., None], AT, out=bottom[..., :n])
    np.multiply(d[..., None], BT, out=bottom[..., n:])
    np.negative(bottom[..., n:], out=bottom[..., n:])
    diag = np.arange(2 * n)
    M[..., diag, diag] += 1.0
    if T is not None:
        M[..., 2 * n:, :n], M[..., 2 * n:, n:2 * n] = T, -T
        M[..., :, 2 * n:] = 0.0
    return M


@dataclass(frozen=True)
class _Rows:
    """Outcome of a solve, one row per radius: the iterate, the iteration
    count, the residual, an error message where the radius failed (its
    iterate is then zero), `at_zero`, True where the row solves the t = 0
    equations themselves (a rank-one lift or a radius accepted by
    `_solve_at_zero_rows`), not those at t_min, and `krylov`, the GMRES
    iterations of the radius's Newton steps (`_krylov_solve`; 0 where its
    steps were solved by LU, or none were taken).  `iterations` count the
    kernel's iterations on the route and the Newton steps, never those of
    a coarse start's solve.  The rows hold one entry per class of the
    route's quotient until `_lift` lifts them to n."""

    q: np.ndarray
    q_tilde: np.ndarray
    iterations: np.ndarray
    residual: np.ndarray
    errors: list
    at_zero: np.ndarray
    krylov: np.ndarray


def _solve_rows(layout, s, t, config: SolverConfig, start=None) -> _Rows:
    """Solve the equations at regularization t for every radius of `s`,
    each from its row of `start`, [q | qt] rows in the layout's order,
    which the kernel takes over as its iterate, or from ones without it.

    All the radii are one block of rows, in the caller's order.  They
    start together and iterate in lock step, so one iteration count serves
    them all: every AITKEN iterations the rows still running take a block
    Aitken step, every NEWTON iterations each is handed to Newton, and so
    is a row whose Aitken gain passes its stall limit (STALL_GAIN, then
    twice the gain of its last such hand-off), and at max_iters those left
    fail.  A row that meets the relative stopping rule leaves the block,
    after a check that its solution respects max(q, qt) <= 1/t, and the
    rows still running are compacted into the leading slice; the loop ends
    once none is left.  The work arrays hold about 9 m n doubles.  A row's
    `iterations` are this call's, whatever solve made its start.

    `layout` is the `_layout` of a route: the rows iterate on its classes
    in the gauge's component order, so a component's trace balance sums
    one contiguous range, and each finished row is written back in the
    classes' order.  Each product reads only its operand's `_envelope`
    panels.
    """
    s = np.asarray(s, dtype=float)
    gauge, product, product_T = layout
    order = gauge[0]
    m, n = len(s), len(order)
    back = np.concatenate([order, order + n])   # row entry -> caller's entry
    tol = config.fixed_point_tol
    max_iters = config.max_iters

    out = np.zeros((m, 2 * n))
    out_iters = np.zeros(m, dtype=np.int64)
    out_res = np.full(m, math.inf)
    out_krylov = np.zeros(m, dtype=np.int64)
    errors = [None] * m

    # per row: iterate [q | qt] from its start, its value at the last
    # Aitken step, and work arrays
    X = np.ones((m, 2 * n)) if start is None else start
    lastX = X.copy()
    Y, P = np.empty((m, 2 * n)), np.empty((m, 2 * n))
    Psi = np.empty((m, n))
    prev_norm = np.full(m, math.nan)   # Aitken: last block's step norm, NaN if none
    stall = np.full(m, STALL_GAIN)     # Aitken gain past which a row goes to Newton
    handoff = np.empty(m, dtype=bool)
    krylov = np.zeros(m, dtype=np.int64)   # GMRES iterations of the row's hand-offs
    radius = np.arange(m)              # row -> radius of s, kept by compaction
    s2 = (s * s)[:, None]
    k = m
    stalled = False   # handoff names rows for Newton at the next iteration
    it = 0
    while k:
        x, y, p, psi_ = X[:k], Y[:k], P[:k], Psi[:k]
        phit, phi = y[:, :n], y[:, n:]
        _product(x[:, :n], *product, phit)
        _product(x[:, n:], *product_T, phi)
        y += t                       # [V^T q + t | V qt + t]
        np.multiply(phi, phit, out=psi_)
        psi_ += s2
        np.divide(1.0, psi_, out=psi_)
        y3 = y.reshape(k, 2, n)
        y3 *= psi_[:, None, :]       # [I(q) | I(qt)]
        np.subtract(y, x, out=p)
        np.abs(p, out=p)
        res = p.max(axis=1)
        x *= 1.0 - AVERAGING
        y *= AVERAGING
        x += y
        # both sums stay positive: a step maps a nonnegative iterate to a
        # positive one
        _rebalance(x, gauge)
        # relative criterion: solutions grow like 1/t, pushing the floating
        # point residual floor above any fixed absolute tolerance
        scale = x.max(axis=1)
        np.maximum(scale, 1.0, out=scale)
        done = res <= tol * scale
        it += 1
        if it % NEWTON == 0:
            handoff[:k] = True
            stalled = True
        if stalled:
            # persistent slow convergence, or an Aitken gain past the
            # row's stall limit: hand copies of the iterates to Newton, and
            # keep those that meet the residual
            g = np.flatnonzero(handoff[:k] & ~done)
            xs, _, residual, met, _, work = _newton(product, product_T, x[g], s2[g, 0], t,
                                                    tol, gauge)
            krylov[g] += work
            g = g[met]
            x[g], res[g], done[g] = xs[met], residual[met], True
            stalled = False
        failed = it == max_iters
        if failed or done.any():
            for g in np.flatnonzero(done | failed):
                r = radius[g]
                out_iters[r], out_krylov[r] = it, krylov[g]
                if not done[g]:
                    errors[r] = (f"no fixed point after {max_iters} iterations "
                                 f"at s={s[r]}, t={t} (residual {res[g]:.3e})")
                elif x[g].max() > 1.0 / t + 1e-9 / t:
                    # direct consequence of the defining equations
                    errors[r] = f"solution violates the 1/t bound at s={s[r]}, t={t}"
                else:
                    out[r, back] = x[g]
                    out_res[r] = res[g]
            if failed:
                break
            # compact the rows still running into the leading slice
            keep = np.flatnonzero(~done)
            k = len(keep)
            X[:k], lastX[:k], prev_norm[:k] = X[keep], lastX[keep], prev_norm[keep]
            stall[:k], krylov[:k] = stall[keep], krylov[keep]
            radius, s2 = radius[keep], s2[keep]
        if it % AITKEN == 0:
            prev_norm[:k], gain = _aitken(X[:k], lastX[:k], prev_norm[:k], Y[:k], P[:k])
            np.greater(gain, stall[:k], out=handoff[:k])
            np.multiply(gain, 2.0, out=stall[:k], where=handoff[:k])
            stalled = bool(handoff[:k].any())
    return _Rows(out[:, :n], out[:, n:], out_iters, out_res, errors, np.zeros(m, dtype=bool),
                 out_krylov)


def _aitken(x, last, prev_norm, dx, cap):
    """Block Aitken step, in place, on the rows x = [q | qt] whose values a
    block of iterations ago are `last`: near the support edge the
    contraction rate approaches 1 and plain iteration stalls; summing the
    geometric tail restores fast convergence.  dx and cap are work arrays
    of x's shape, overwritten (the kernel passes its free buffers).
    Returns each row's block step norm, or NaN after a jump, for the next
    block to compare with, and the gain r / (1 - r) of each row's jump
    before the positivity cap (0 where it did not jump)."""
    np.subtract(x, last, out=dx)
    np.abs(dx, out=cap)
    norm = cap.max(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = norm / prev_norm
        gain = r / (1.0 - r)
    # cap the gain so the extrapolated iterate keeps a positive margin in
    # every component: x + gain dx >= 0.1 x
    falling = dx < 0.0
    np.multiply(x, -0.9, out=cap)
    np.divide(cap, dx, out=cap, where=falling)
    cap[~falling] = math.inf
    capped = np.minimum(gain, cap.min(axis=1))
    jump = ((0.0 < norm) & (norm < prev_norm) & (r > 0.2) & (capped > 0.0))[:, None]
    np.multiply(dx, capped[:, None], out=dx, where=jump)
    np.add(x, dx, out=x, where=jump)
    norm[jump[:, 0]] = math.nan
    last[:] = x
    return norm, np.where(jump[:, 0], gain, 0.0)


def _lift(rows: _Rows, label, past=0) -> _Rows:
    """The rows with `past` zero rows appended (exact zeros, 0 iterations,
    residual 0.0, no error, not `at_zero`, 0 `krylov`), each written once
    into its final arrays, lifted from one entry per class to the n
    entries by the route's class `label`.  Rows on n entries already, with
    nothing to append, are returned as they are."""
    m, n = len(rows.iterations), len(label)
    if rows.q.shape[1] == n and not past:
        return rows

    def grown(a):
        out = np.zeros((m + past, n))
        np.take(a, label, axis=1, out=out[:m], mode="clip")   # in range: "clip" needs no buffer
        return out

    pad = [(0, past)]
    return _Rows(grown(rows.q), grown(rows.q_tilde), np.pad(rows.iterations, pad),
                 np.pad(rows.residual, pad), rows.errors + [None] * past,
                 np.pad(rows.at_zero, pad), np.pad(rows.krylov, pad))


def _residual_at_zero(route: _Route, q, qt, s2):
    """The sup norm of I(x) - x at t = 0 for every [q | qt] row on the
    classes of `route`, with s2 the column of squared radii: one `_product`
    with each of the route's operands for all the rows."""
    phit, phi = route.apply(q, qt)
    psi = 1.0 / (s2 + phi * phit)
    return np.maximum(np.abs(psi * phit - q).max(axis=1), np.abs(psi * phi - qt).max(axis=1))


def _solve_rank_one(profile: VarianceProfile, route: _Route, s,
                    config: SolverConfig, rho) -> _Rows:
    """The t = 0 solution at every radius of s of a profile with
    `rank_one_factors` (a, b), lifted from the root w of its scalar
    equation (see the module docstring); a radius's iterations are its
    Newton steps.

    Each lift is checked by the kernel's stopping rule, the residual of
    `_residual_at_zero` on the classes of `route` (whose entries a lift
    repeats exactly: equal rows and columns of V give equal a_i and b_i)
    at most fixed_point_tol times max(1, the largest entry), and that
    residual is reported.  The radii that fail the check,
    or whose lift is not finite, take the route of any other profile,
    `_solve_at_zero_rows` on its `route` and `rho`, with its record.
    """
    a, b = profile.rank_one_factors
    s = np.asarray(s, dtype=float)
    s2 = (s * s)[:, None]
    pi = a * b
    w, steps = _roots(pi, np.ones(profile.n), s * s)
    D = s2 + pi * w[:, None]
    ratio = (a / D).sum(axis=1) / (b / D).sum(axis=1)   # alpha / beta
    q = b * (np.sqrt(w * ratio)[:, None] / D)
    qt = a * (np.sqrt(w / ratio)[:, None] / D)
    residual = _residual_at_zero(route, q[:, route.pick], qt[:, route.pick], s2)
    scale = np.maximum(q.max(axis=1, initial=1.0), qt.max(axis=1, initial=1.0))
    errors = [None] * len(s)
    krylov = np.zeros(len(s), dtype=np.int64)
    at_zero = residual <= config.fixed_point_tol * scale
    bad = np.flatnonzero(~at_zero)
    if len(bad):
        rows = _lift(_solve_at_zero_rows(route, s[bad], config, rho), route.label)
        q[bad], qt[bad], at_zero[bad] = rows.q, rows.q_tilde, rows.at_zero
        steps[bad], residual[bad], krylov[bad] = rows.iterations, rows.residual, rows.krylov
        for i, error in zip(bad, rows.errors):
            errors[i] = error
    return _Rows(q, qt, steps, residual, errors, at_zero, krylov)


@np.errstate(all="ignore")   # a step may overflow or underflow; the checks reject it
def _newton(product, product_T, x, s2, t, tol, gauge):
    """Newton on the equations at t from the [q | qt] rows x, with s2 the
    squared radii, for the operands (A, panels) and (B, panels) of
    `_layout`, all rows at once.  Returns the rows, the steps each took,
    its residual at t, whether it met that residual, the condition
    estimate of its last system and the GMRES iterations of its steps.
    The kernel hands it stalled rows at its t; `_solve_at_zero_rows`
    takes its t = 0 endgame with it.

    Each step solves the linearized equations of every row at once by
    stacked LUs (`_stacked_solve`) with at most LU_UNKNOWNS unknowns per
    half.  Past it each step is solved by GMRES (`_krylov_solve`), to the
    relative residual FORCING[0] at the first step.  After it each row's
    forcing is 0.3 tol max(1, max x) / ||F||_2, clipped to
    [FORCING[1], 0.3]: the linear residual its Newton step needs to meet
    the nonlinear one, and no smaller (inexact Newton; Eisenstat &
    Walker, SIAM J. Sci. Comput. 17, 1996).  A row whose last condition
    estimate passed GUARD keeps FORCING[1], so the estimate the gate reads
    is made on the Krylov space of the fixed pair.  So does a row whose
    last step missed the 10% gain below: bordered, a loose solve can leave
    part of F in the gauge multipliers, which the step drops, and the next
    loose solves leave it there.  On band model B at n = 400 and 800 (the
    default grid, t_min = 1e-8, fixed_point_tol = 1e-9), radius 0 from the
    coarse start stalled so at a residual of 1.76e-7, just above its
    bound, with multipliers of 1.7e-7, and went to t_min; one step at
    FORCING[1] takes them to 1e-14 and the residual to 3e-14.  The rows take their
    steps in chunks whose Krylov bases hold at most max(n^2, BASIS)
    doubles, so that every work array of a chunk is small beside V: 7
    rows at n = 800.  At t = 0 each component's
    gauge is an exact symmetry, so the system is bordered once per
    component; the multipliers then move the step only along the gauges,
    which `_rebalance` undoes.  At t > 0 the gauge is no symmetry and the
    system is solved unbordered: bordered there, the kernel's hand-offs
    left the sparse survey (`scripts/sparse_survey.py`) at 31 failed radii
    and 3.28M iterations, against 28 and 3.21M unbordered.  The step is
    taken in log coordinates, x <- x exp(dx / x): to first order that is
    x + dx, so convergence stays quadratic, and the iterate stays positive
    however far the step reaches, where an additive step leaves the
    positive cone on patterns whose solution spans many decades.  Then
    `_rebalance`.

    A row stops once its residual, the sup norm of I(x) - x at t, meets
    tol * max(1, max x) after at least one step; after two steps in a row
    without a 10% gain on its best residual (a first step from outside
    the quadratic basin may raise it); after NEWTON_STEPS steps; or when
    it leaves the finite positive cone or its system is singular.
    """
    k, n = len(x), x.shape[1] // 2
    _, starts, counts, weights = gauge
    component = np.repeat(np.arange(len(starts)), counts)
    steps, misses = np.zeros(k, dtype=np.int64), np.zeros(k, dtype=np.int64)
    residual, cond, best = np.full(k, math.inf), np.full(k, math.inf), np.full(k, math.inf)
    met = np.zeros(k, dtype=bool)
    krylov = np.zeros(k, dtype=np.int64)
    per = max(k, 1)
    if n > LU_UNKNOWNS:
        size = 2 * n + (len(starts) if t == 0 else 0)
        per = max(1, max(n * n, BASIS) // ((KRYLOV + 1) * size))
        sums = _operand_sums(product[0], product_T[0])
    for first in range(0, k, per):
        live = np.arange(first, min(first + per, k))
        for step in range(NEWTON_STEPS + 1):
            xs = x[live]
            q, qt = xs[:, :n], xs[:, n:]
            a, b = np.empty_like(q), np.empty_like(q)
            _product(qt, *product_T, a)
            _product(q, *product, b)
            a += t
            b += t
            p = 1.0 / (s2[live, None] + a * b)
            F = np.concatenate([p * b - q, p * a - qt], axis=1)
            res = residual[live] = np.abs(F).max(axis=1)
            done = met[live] = ((res <= tol * np.maximum(xs.max(axis=1), 1.0))
                                & (steps[live] > 0))
            gain = res <= 0.9 * best[live]
            best[live[gain]] = res[gain]
            misses[live] = np.where(gain, 0, misses[live] + 1)
            go = ~done & (misses[live] < 2)
            if step == NEWTON_STEPS or not go.any():
                break
            live, xs, F = live[go], xs[go], F[go]
            p2 = p[go] ** 2
            coefficients = (s2[live, None] * p2, p2 * b[go] ** 2, p2 * a[go] ** 2)
            border = (xs, component, weights) if t == 0 else None
            if n <= LU_UNKNOWNS:
                dx, cond[live] = _stacked_solve(product[0], product_T[0], coefficients, F,
                                                border)
            else:
                if step == 0:
                    forcing = np.full(len(live), FORCING[0])
                else:
                    target = 0.3 * tol * np.maximum(xs.max(axis=1), 1.0)
                    forcing = np.clip(target / np.sqrt(np.einsum("ij,ij->i", F, F)),
                                      FORCING[1], 0.3)
                    forcing[(cond[live] > GUARD) | (misses[live] > 0)] = FORCING[1]
                dx, cond[live], work = _krylov_solve(product, product_T, coefficients, F,
                                                     border, forcing, sums)
                krylov[live] += work
            xs *= np.exp(dx / xs)
            fine = np.isfinite(xs).all(axis=1) & xs.all(axis=1) & np.isfinite(cond[live])
            live, xs = live[fine], xs[fine]
            if len(live):
                _rebalance(xs, gauge)
                x[live] = xs
                steps[live] += 1
    return x, steps, residual, met, cond, krylov


def _border(border, n):
    """The trace rows (c, n) and the gauge columns, one (k, 2n) row per
    system, of the border (x, component, weights) of `_stacked_solve`."""
    x, component, weights = border
    trace = np.zeros((component.max() + 1, n))
    trace[component, np.arange(n)] = 1.0 if weights is None else weights
    peak = np.zeros((len(trace), len(x)))
    np.maximum.at(peak, component, np.maximum(x[:, :n], x[:, n:]).T)
    scale = np.tile(peak.T[:, component], 2)
    column = np.divide(x, scale, out=np.ones_like(x), where=scale > 0)
    column[:, n:] *= -1.0
    return trace, column


def _stacked_solve(A, B, coefficients, F, border=None):
    """Solve (I - J) dx = F for every row of F, with I - J the
    `_linearization` of the operands (A, B) at that row's coefficient
    vectors (d, cq, cqt), the systems stacked into one `np.linalg.solve`
    per max(n^2, BASIS) doubles; a singular stack is solved again one
    system at a time, and a singular system's solution is NaN.  Returns dx and each system's
    condition estimate ||M||_inf ||M^-1 z||_inf / ||z||_inf, with the
    `_probe` z as a second right-hand side.

    With `border` = (x, component, weights), the [q | qt] rows x, the
    component of each unknown and the trace weights (None: ones), each
    system is bordered once per component: the row (w, -w) of the
    component's trace weights and, as the column, its gauge direction
    (q, -qt) over its largest entry, or (1, -1) where all its entries are
    zero and it has no gauge.  The multipliers are dropped from dx.  A
    column (1, -1) everywhere would shift every entry by its multiplier,
    and in a Newton step throw entries of 1e-10 out of the positive cone:
    on the 12 x 12 pattern without total support of the tests, the t = 0
    Newton was accepted at 0 of 40 radii with it and at 12 with these.
    """
    k, n = len(F), F.shape[1] // 2
    trace = None
    if border is not None:
        trace, column = _border(border, n)
        entries = (slice(None), np.arange(2 * n), 2 * n + np.tile(border[1], 2))
    size = 2 * n + (0 if trace is None else len(trace))
    z = _probe(size)
    per = max(1, max(n * n, BASIS) // (size * size))
    rhs = np.zeros((k, size, 2))
    rhs[:, :2 * n, 0], rhs[:, :, 1] = F, z
    cond = np.empty(k)
    for c in range(0, k, per):
        chunk = slice(c, c + per)
        M = _linearization(A, B, *(v[chunk] for v in coefficients), trace=trace)
        if trace is not None:
            M[entries] = column[chunk]
        try:
            rhs[chunk] = np.linalg.solve(M, rhs[chunk])
        except np.linalg.LinAlgError:
            for i, system in zip(range(c, c + len(M)), M):
                try:
                    rhs[i] = np.linalg.solve(system, rhs[i])
                except np.linalg.LinAlgError:
                    rhs[i] = math.nan
        cond[chunk] = (np.abs(M).sum(axis=-1).max(axis=-1)
                       * np.abs(rhs[chunk, :, 1]).max(axis=-1) / np.abs(z).max())
    return rhs[:, :2 * n, 0], cond


def _operand_sums(A, B):
    """The column sums and the diagonals of the nonnegative operands
    (A, B), from which `_krylov_solve` reads ||M||_inf: (sums of A, sums of
    B, diagonal of A, diagonal of B)."""
    return A.sum(axis=0), B.sum(axis=0), np.diagonal(A), np.diagonal(B)


def _krylov_solve(product, product_T, coefficients, F, border, forcing, sums):
    """The systems of `_stacked_solve`, bordered as there, solved by
    `_gmres` without forming them, each to its own relative residual
    `forcing[i]`.  Returns dx, each system's condition estimate
    ||M||_inf / sigma_min(R), with R the triangular factor of its
    Hessenberg matrix, and its GMRES iterations.

    The operator of a system applied to [u | v | lambda] is two `_product`
    calls on the `_layout` operands, u @ A and v @ B, made for the rows
    of the systems that `_gmres` still runs:
        u - d (u @ A) + cq (v @ B) + column * lambda,
        v + cqt (u @ A) - d (v @ B) + column * lambda,
    each multiplier scaling its component's gauge column, and, bordered,
    the trace rows applied to u - v.  Its ||M||_inf is exact, from the
    column sums and diagonals of the nonnegative operands, `sums` of
    `_operand_sums`, which `_newton` forms once for all its steps.
    sigma_min(R) is that of the Arnoldi restriction of M, at least
    sigma_min(M), so the estimate is at most the true condition number.
    """
    (A, panels), (B, panels_T) = product, product_T
    d, cq, cqt = coefficients
    k, n = len(F), F.shape[1] // 2
    column = None
    trace = np.zeros((0, n))
    if border is not None:
        trace, column = _border(border, n)
        component = np.tile(border[1], 2)
    sums, sums_T, diag, diag_T = sums
    norm = np.concatenate([np.abs(1.0 - d * diag) + d * (sums - diag) + cq * sums_T,
                           cqt * sums + np.abs(1.0 - d * diag_T) + d * (sums_T - diag_T)],
                          axis=1)
    if column is not None:
        norm += np.abs(column)
    norm = np.maximum(norm.max(axis=1), 2.0 * trace.sum(axis=1).max(initial=0.0))
    Au, Bv = np.empty_like(d), np.empty_like(d)

    def apply(z, out, rows):
        u, v = z[:, :n], z[:, n:2 * n]
        au, bv = Au[:len(rows)], Bv[:len(rows)]
        _product(u, A, panels, au)
        _product(v, B, panels_T, bv)
        dr = d[rows]
        out[:, :n] = u - dr * au + cq[rows] * bv
        out[:, n:2 * n] = v + cqt[rows] * au - dr * bv
        if column is not None:
            out[:, :2 * n] += column[rows] * z[:, 2 * n:][:, component]
            out[:, 2 * n:] = (u - v) @ trace.T

    rhs = np.zeros((k, 2 * n + len(trace)))
    rhs[:, :2 * n] = F
    dx, sigma, iterations = _gmres(apply, rhs, forcing)
    return dx[:, :2 * n], norm / sigma, iterations


def _gmres(apply, b, forcing):
    """Unrestarted GMRES from zero for every row of b at once, the rows in
    lock step: `apply(z, out, rows)` writes the operator of system rows[i]
    applied to z[i] into out[i].  Saad & Schultz, SIAM J. Sci. Stat.
    Comput. 7 (1986).

    Each iteration orthogonalizes the new vector against the basis by two
    passes of classical Gram-Schmidt, and keeps each row's Givens
    rotations as one accumulated orthogonal matrix, so a row's residual
    norm is known at every iteration.  A row stops once that norm is at
    most its own `forcing[i]` times the norm of its b, and the loop ends
    when every row has, or after min(KRYLOV, size) iterations.  The
    running rows are kept first: a row that stops is swapped behind them,
    so an iteration applies the operator to, and reads the bases of, the
    running rows alone.  Each row writes basis vectors 0 to its
    iterations only, and the others are zeroed before the solution is
    formed.  Returns the solutions, the smallest singular value of each
    row's triangular factor R (0 where R is singular) and each row's
    iterations.
    """
    k, size = b.shape
    most = min(KRYLOV, size)
    beta = np.sqrt(np.einsum("ij,ij->i", b, b))
    order = np.argsort(~(beta > 0), kind="stable")   # row i holds b's row order[i]
    beta, forcing = beta[order], forcing[order]
    basis = np.empty((k, most + 1, size))
    R = np.zeros((k, most, most))
    rotations = np.zeros((k, most + 1, most + 1))   # Q^T of the rotations so far
    rotations[:, np.arange(most + 1), np.arange(most + 1)] = 1.0
    np.divide(b[order], np.where(beta > 0.0, beta, 1.0)[:, None], out=basis[:, 0])
    iterations = np.zeros(k, dtype=np.int64)
    r = int((beta > 0).sum())   # rows [:r] run
    for j in range(most):
        if not r:
            break
        w = basis[:r, j + 1]
        apply(basis[:r, j], w, order[:r])
        done = basis[:r, :j + 1]
        h = np.empty((r, j + 2))
        c = np.matmul(done, w[:, :, None])
        w -= np.matmul(c.transpose(0, 2, 1), done)[:, 0]
        h[:, :j + 1] = c[:, :, 0]
        np.matmul(done, w[:, :, None], out=c)
        w -= np.matmul(c.transpose(0, 2, 1), done)[:, 0]
        h[:, :j + 1] += c[:, :, 0]
        h[:, j + 1] = norm = np.sqrt(np.einsum("ij,ij->i", w, w))
        w /= np.where(norm > 0.0, norm, 1.0)[:, None]
        t = np.matmul(rotations[:r, :j + 2, :j + 2], h[:, :, None])[:, :, 0]
        rho = np.hypot(t[:, j], t[:, j + 1])
        turn = t[:, j:j + 2] / np.where(rho > 0.0, rho, 1.0)[:, None]
        cos, sin = turn[:, :1], turn[:, 1:]
        R[:r, :j, j], R[:r, j, j] = t[:, :j], rho
        pair = rotations[:r, j:j + 2, :j + 2]
        top = pair[:, 0].copy()
        pair[:, 0] *= cos
        pair[:, 0] += sin * pair[:, 1]
        pair[:, 1] *= cos
        pair[:, 1] -= sin * top
        iterations[:r] = j + 1
        running = np.abs(rotations[:r, j + 1, 0]) > forcing[:r]
        stay = int(running.sum())
        if stay < r:
            # the running rows past the first `stay` trade places with the
            # rows that stopped among them, the bases in blocks of vectors
            # whose temporaries hold at most SWAP doubles (whole basis rows
            # as one temporary raised band model B's peak RSS by 0.5 MB,
            # and one vector at a time cost a dense n = 30 curve 2 ms)
            into = np.flatnonzero(~running[:stay])
            out = stay + np.flatnonzero(running[stay:])
            to, fro = np.concatenate([into, out]), np.concatenate([out, into])
            per = max(SWAP // (max(len(to), 1) * size), 1)
            for lo in range(0, j + 2, per):
                hi = min(lo + per, j + 2)
                basis[to, lo:hi] = basis[fro, lo:hi]
            for a in (R, rotations, beta, forcing, iterations, order):
                a[to] = a[fro]
            r = stay
    # each row's least-squares problem, R y = beta Q^T e1 over its own
    # iterations, with c I past them (c = ||R||_F, so y is zero there and
    # the smallest singular value is R's own), all rows in one batched
    # solve; a row whose R is singular or not finite gets NaN
    m = max(iterations.max(), 1)
    used = np.arange(m) < iterations[:, None]
    Rm = R[:, :m, :m].copy()
    g = np.where(used, beta[:, None] * rotations[:, :m, 0], 0.0)
    diag = np.arange(m)
    c = np.sqrt(np.einsum("kij,kij->k", Rm, Rm))
    Rm[:, diag, diag] += np.where(used, 0.0, np.where(c > 0.0, c, 1.0)[:, None])
    bad = ~(np.isfinite(Rm).all(axis=(1, 2)) & Rm[:, diag, diag].all(axis=1))
    Rm[bad], g[bad] = np.eye(m), math.nan
    sigma = np.where(bad, 0.0, np.linalg.svd(Rm, compute_uv=False)[:, -1])
    y = np.linalg.solve(Rm, g[:, :, None])
    # y is zero past a row's iterations, but the vectors there were never
    # written, and zero times a NaN left in that memory is NaN
    basis[:, :m][diag > iterations[:, None]] = 0.0
    x = np.matmul(y.transpose(0, 2, 1), basis[:, :m])[:, 0]
    back = np.argsort(order)
    return x[back], sigma[back], iterations[back]


def _coarse_start(layout, s, t, config: SolverConfig, rho):
    """The start of `_solve_rows` at t for every radius of s on the route
    laid out as `layout`: [q | qt] rows in the layout's order, lifted from
    the kernel's solve of its coarse profile at t and `config`, or rows of
    ones where that solve failed.

    The coarse profile averages the route's V over groups of COARSE
    consecutive classes of the layout's order, none across a component,
    with the class sizes as weights: Vbar_gh = sum n_k n_l V_kl /
    (N_g N_h) over the classes k of group g and l of group h, N_g the
    group sizes.  Averaging lowers a band's spectral radius, so each
    component's block of Vbar is scaled until its block of Vbar diag(N)
    has that component's spectral radius: `rho` where the route has one
    component (a second power iteration on band model B at n = 800 would
    cost 13 ms), and otherwise `spectral_radius` on the component's block
    of the route's A operand.  Unscaled, the radii past a component's
    coarse edge start that component near zero, where the loose
    tolerance, absolute below 1, lets it collapse onto the trivial
    solution of the t = 0 equations.  The groups follow the layout's
    component order, so the coarse gauge needs no permutation."""
    from .profiles import spectral_radius

    (order, starts, counts, weights), (A, _), _ = layout
    n = len(order)
    per = -(-counts // COARSE)   # groups of each component
    first = np.cumsum(per) - per
    group = np.repeat(first, counts) + (np.arange(n) - np.repeat(starts, counts)) // COARSE
    bounds = np.flatnonzero(np.diff(group, prepend=-1))
    sums = np.add.reduceat(A, bounds, axis=0)   # of n_k V_kl over the classes k of each group
    if weights is not None:
        sums *= weights
    N = np.add.reduceat(np.ones(n) if weights is None else weights, bounds)
    Vbar = np.add.reduceat(sums, bounds, axis=1) / np.outer(N, N)
    Abar, Bbar, _ = _operands(Vbar, N)
    panels, panels_T = _envelope(Abar), _envelope(Bbar)   # still those once scaled
    if len(counts) == 1:
        Vbar *= rho / spectral_radius(Vbar, operand=(Bbar, panels_T))
    else:
        fine = [spectral_radius(A[a:a + c, a:a + c]) for a, c in zip(starts, counts)]
        coarse = [spectral_radius(Abar[g:g + c, g:g + c]) for g, c in zip(first, per)]
        scale = np.divide(fine, coarse, out=np.ones(len(per)), where=np.greater(coarse, 0.0))
        Vbar *= np.repeat(scale, per)[:, None]   # Vbar is block diagonal: rows scale blocks
    A, B, trace = _operands(Vbar, N)
    coarse = _solve_rows(((np.arange(len(N)), first, per, trace), (A, panels), (B, panels_T)),
                         s, t, config)
    x = np.concatenate([coarse.q, coarse.q_tilde], axis=1)
    x[[error is not None for error in coarse.errors]] = 1.0
    return np.take(x, np.concatenate([group, group + len(N)]), axis=1)


def _solve_at_zero_rows(route: _Route, s, config: SolverConfig, rho) -> _Rows:
    """The t = 0 solution at every radius of s, by Newton from a loose
    kernel iterate, on the classes of `route`; rows on those unknowns.
    The route is laid out once, for the kernel and Newton alike.

    `_solve_rows` runs at t_min only to NEWTON_START (or fixed_point_tol,
    if looser); a radius that fails there fails as it would at the full
    tolerance, with the kernel's message.  Then all the other radii take
    Newton steps on the t = 0 equations at once (`_newton`).  A
    radius that meets the t = 0 residual, fixed_point_tol * max(1, max x),
    stays finite and positive, and whose last bordered system passes the
    condition gate, an estimate at most 1e13 (`_stacked_solve`'s, as in
    `derivative_rows`, or `_krylov_solve`'s), is accepted: it is
    `at_zero`, its iterations are those of the loose phase plus its
    Newton steps, its `krylov` count those of both, and its residual is
    that of the t = 0 equations.  On a route of at least COARSE_MIN
    classes the loose phase starts from `_coarse_start`, each component
    scaled to its own spectral radius (`rho` where there is one); its
    coarse solve counts in neither `iterations` nor `krylov`.  The refused radii alone are solved
    again from ones at t_min to the full tolerance, and each takes that
    row, its counts and its error.  This is the one place where a radius
    of a curve goes to t_min.
    """
    s = np.asarray(s, dtype=float)
    layout = _layout(route)
    gauge, product, product_T = layout
    loose = replace(config, fixed_point_tol=max(NEWTON_START, config.fixed_point_tol))
    coarse = len(route.sizes) >= COARSE_MIN   # the start lives only as long as the call
    rows = _solve_rows(layout, s, config.t_min, loose,
                       _coarse_start(layout, s, config.t_min, loose, rho) if coarse else None)
    order = gauge[0]
    n = len(order)
    live = np.flatnonzero([error is None for error in rows.errors])
    where = np.ix_(live, np.concatenate([order, order + n]))   # the rows in layout order
    x = np.concatenate([rows.q, rows.q_tilde], axis=1)
    x[where], steps, residual, met, cond, krylov = _newton(
        product, product_T, x[where], s[live] ** 2, 0.0, config.fixed_point_tol, gauge)
    accepted = met & (cond <= 1e13)
    take, again = live[accepted], live[~accepted]
    rows.iterations[take] += steps[accepted]
    rows.krylov[take] += krylov[accepted]
    rows.residual[take] = residual[accepted]
    rows.at_zero[take] = True
    if len(again):
        kernel = _solve_rows(layout, s[again], config.t_min, config)
        x[again] = np.concatenate([kernel.q, kernel.q_tilde], axis=1)
        rows.iterations[again] = kernel.iterations
        rows.krylov[again] = kernel.krylov
        rows.residual[again] = kernel.residual
        for i, error in zip(again, kernel.errors):
            rows.errors[i] = error
    return replace(rows, q=x[:, :n], q_tilde=x[:, n:])


def _solve_inside(profile: VarianceProfile, route: _Route, s, config: SolverConfig, rho,
                  past=0) -> _Rows:
    """The t -> 0 limit at every radius of s, each below sqrt(rho), lifted
    to n entries with `past` zero rows appended (`_lift`).  The route of
    `solve_curve` and of the exact `vps.measures.density`, which
    `solve_route` names:
    - a profile with `rank_one_factors`: `_solve_rank_one`, at t = 0;
    - otherwise `_solve_at_zero_rows` on the classes of the profile's
      `route` (its p pair classes, or the n of V itself): at t = 0 where
      the Newton endgame is accepted, and at t_min where it is refused.
    """
    if profile.rank_one_factors is not None:   # its rows are on the n entries
        rows, label = _solve_rank_one(profile, route, s, config, rho), np.arange(profile.n)
    else:
        rows, label = _solve_at_zero_rows(route, s, config, rho), route.label
    return _lift(rows, label, past)


def solve_route(profile: VarianceProfile) -> str:
    """The route of the profile's curve and exact density, in the order of
    `_solve_inside`: "separable (rank 1)" (`_solve_rank_one`, whose radii
    that fail its check take the endgame, and the density in closed
    form), or else the `name` of its `_route`, "quotient (p classes)" (the
    kernel and `derivative_rows` on the pair-class quotient) or "full"
    (both on V, the quotient with n classes of size 1).  Either of the
    last two ends with the t = 0 Newton, its steps solved by stacked LUs
    with at most LU_UNKNOWNS unknowns per half and by GMRES past it.  It
    reads the same cached properties as the solves."""
    if profile.rank_one_factors is not None:
        return "separable (rank 1)"
    return _route(profile).name


def solve_at_zero(profile: VarianceProfile, config: SolverConfig | None = None,
                  route: _Route | None = None) -> MESolution:
    """Boundary solution q(0) = lim_{t->0} r(0, t).

    At s = t = 0 the equations read q_i (V qt)_i = 1 and qt_i (V^T q)_i = 1,
    the Sinkhorn-Knopp equations of the doubly stochastic scaling
    diag(q) V diag(qt).  They have a positive solution iff the pattern of V
    has total support; without it NoConvergenceError is raised at once.
    With it the pattern is a direct sum of fully indecomposable blocks, the
    equations decouple into them, and each block keeps its own gauge
    (q, qt) -> (c q, qt / c).  The t -> 0 limit balances the trace in every
    block: q summed over the block's rows equals qt summed over their
    matched columns.  The Sinkhorn iteration runs from qt = 1; each qt
    update makes the column sums of diag(q) V diag(qt) 1 up to rounding, so
    `residual` is the largest row sum error, and it must reach
    config.fixed_point_tol within config.max_iters `iterations`.

    The pattern is first checked on the profile's `_route` (`route`, a
    curve's, or made here) by `_class_hall`: where a class's rows or
    columns fail Hall's condition the pattern has no perfect matching, and
    it is refused without `_total_support`'s search on all of V (the block
    atom: 2m rows share m columns; on V itself, a zero row or column).  A
    profile that passes is checked on V.  The iteration runs on the
    route's classes, whose entries are equal at every iterate, by
    `_product` on its operands, and is lifted by the class label.
    """
    config = config or SolverConfig()
    if route is None:
        route = _route(profile)
    structure = (_total_support(profile.normalized) if _class_hall(route.sizes, route.V)
                 else None)
    if structure is None:
        raise NoConvergenceError("no positive solution at s = 0: the profile's "
                                 "pattern has no total support")
    match, block = structure
    (A, panels), (B, panels_T) = route.product, route.product_T
    Vqt = B.sum(axis=0)[None]   # the row sums of V on the classes
    VTq = np.empty_like(Vqt)
    for iterations in range(1, config.max_iters + 1):
        q = 1.0 / Vqt
        _product(q, A, panels, VTq)
        qt = 1.0 / VTq
        _product(qt, B, panels_T, Vqt)
        residual = float(np.abs(q * Vqt - 1.0).max())
        if residual <= config.fixed_point_tol:
            break
    else:
        raise NoConvergenceError(f"Sinkhorn scaling did not converge after "
                                 f"{config.max_iters} iterations (residual {residual:.3e})")
    q, qt = q[0, route.label], qt[0, route.label]
    col_block = np.empty_like(block)
    col_block[match] = block
    c = np.sqrt(np.bincount(col_block, weights=qt) / np.bincount(block, weights=q))
    return MESolution(s=0.0, t=0.0, q=q * c[block], q_tilde=qt / c[col_block],
                      iterations=iterations, residual=residual)


@dataclass(frozen=True)
class CurveProducts:
    """A curve's solutions as the measures read them (`curve_products`).

    Each array has one row per radius, on the classes of the curve's
    `route`: one entry per pair class, or all n entries of the identity
    quotient.  `q`, `q_tilde` are the solutions' rows, `vt_q` = q @ A and
    `v_qt` = q_tilde @ B their products V^T q and V q_tilde, and every sum
    over the classes weights class c by `route.sizes[c]` (1 on all n), so
    it is the sum over the lifted n entries.  `w` = <q, V q_tilde>, so
    F = 1 - w / n; `live` marks the nontrivial radii.  (A, B) are the
    route's `_operands` in the classes' order: V and V^T, or diag(sizes)
    Vbar and diag(sizes) Vbar^T on a pair-class quotient."""

    s2: np.ndarray
    q: np.ndarray
    q_tilde: np.ndarray
    vt_q: np.ndarray
    v_qt: np.ndarray
    w: np.ndarray
    live: np.ndarray
    A: np.ndarray
    B: np.ndarray
    route: _Route


def curve_products(route: _Route, s, q, q_tilde) -> CurveProducts:
    """`CurveProducts` of the solutions (q, q_tilde), (m, n) arrays with
    one row per radius of s, on a profile's `route`: their rows on the
    first index of each class (a view on the identity quotient), and one
    `_product` on each of the route's operands for all of them."""
    q, qt = q[:, route.pick], q_tilde[:, route.pick]
    vt_q, v_qt = route.apply(q, qt)
    A, B, _ = route.operands
    return CurveProducts(
        s2=np.asarray(s, dtype=float) ** 2, q=q, q_tilde=qt,
        vt_q=vt_q, v_qt=v_qt, w=(q * v_qt) @ route.sizes,
        live=q.any(axis=1) | qt.any(axis=1), A=A, B=B, route=route)


@functools.lru_cache(maxsize=8)
def _probe(size):
    """The fixed right-hand side z of `derivative_rows`'s condition
    estimate for systems of `size` unknowns: `_splitmix64` of 1, ..., size
    mapped to [-1, 1), made once per size, and read-only, since every call
    shares it."""
    z = np.ldexp((_splitmix64(size) >> np.uint64(11)).astype(float), -52) - 1.0
    z.setflags(write=False)
    return z


def derivative_rows(products: CurveProducts, rows):
    """Exact derivatives (d q / d s^2, d qt / d s^2) at the radii `rows`
    (indices of nontrivial radii, s > 0) of `products`, on its unknowns:
    two arrays with one row per index.

    The linearized master equations (I - J) x = b are singular along the
    gauge direction (q, -qt) of each component of the pattern of V + V^T,
    and consistent, so one trace row per component,
    sum(dq) - sum(dqt) = 0 over the component, weighted by the class sizes
    on the quotient, picks the one solution.  `_stacked_solve` borders
    each radius's system so, with the gauge directions as the columns,
    whose multipliers are zero up to rounding, and solves the systems by
    stacked LUs.

    Above a condition estimate of 1e13, or when a system is singular or a
    solution is not finite, RankDeficientError is raised, naming the
    radius, since then the gauges are not the only null directions and x
    is not determined.
    """
    rows = np.asarray(rows, dtype=np.int64)
    A, route = products.A, products.route
    k = len(route.sizes)
    s2, q, qt = products.s2[rows, None], products.q[rows], products.q_tilde[rows]
    p = 1.0 / (s2 + products.v_qt[rows] * products.vt_q[rows])
    x = np.concatenate([q, qt], axis=1)
    border = (x, route.component, route.sizes)
    dx, cond = _stacked_solve(A, products.B, (s2 * p ** 2, q ** 2, qt ** 2),
                              -np.tile(p, 2) * x, border)
    finite = np.isfinite(dx).all(axis=1)
    bad = ~(finite & (cond <= 1e13))
    if bad.any():
        i = np.argmax(bad)
        where = f"at s = {math.sqrt(s2[i, 0]):.6g}"
        if not finite[i]:
            raise RankDeficientError(f"derivative system is singular {where}")
        raise RankDeficientError(f"derivative system condition estimate {cond[i]:.3e} > 1e13 "
                                 + where)
    return dx[:, :k], dx[:, k:]


def derivative_s2(profile: VarianceProfile, sol: MESolution):
    """Exact derivative (d q / d s^2, d qt / d s^2) at a nontrivial solution:
    the one-radius call of `derivative_rows`.

    The equations and their derivative take one value per class of the
    profile's `_route`: it solves the (2p + c) bordered system of its p
    classes and c components, whose trace rows weight each class by its
    size, and lifts the result by the class label.  On a profile without
    `pair_classes` the classes are the n indices of V, each of size 1.  The
    exact density of a rank-one profile needs no such system: it has a
    closed form (see `vps.measures`), and `solve_route` names the route.
    Raises RankDeficientError as `derivative_rows` does.
    """
    if sol.is_trivial or sol.s <= 0:
        raise ValueError("derivative requires a nontrivial solution at s > 0")
    route = _route(profile)
    dq, dqt = derivative_rows(curve_products(route, [sol.s], sol.q[None], sol.q_tilde[None]),
                              [0])
    return dq[0, route.label], dqt[0, route.label]


def solve_curve(profile: VarianceProfile, s_grid=None,
                config: SolverConfig | None = None) -> MECurve:
    """Solve the t -> 0 limit at every radius of an increasing grid, by
    default `default_s_grid` up to the support radius sqrt(rho); at rho = 0
    there is none, and a grid must be given.

    Every radius s >= sqrt(rho) gets a row of exact zeros with
    iterations = 0, residual = 0.0 and no error (see the module docstring).
    The radii below are solved together by `_solve_inside`: at t = 0 by
    `_solve_rank_one`, or by the loose kernel and the Newton endgame of
    `_solve_at_zero_rows`, which also takes the rejected rank-one lifts
    and alone solves the radii it refuses, at t_min.  `rows.at_zero`
    marks the radii solved at t = 0, and `MECurve.t` reads each radius's t
    from it; their iterations include the Newton steps, `rows.krylov`
    counts the GMRES iterations of those steps, and their residual is that
    of the t = 0 equations.  A failed radius keeps its place as a zero row with
    residual = inf, the iterations it ran and the kernel's message.  The
    record's arrays are read-only: the curve caches its `products` from
    them.  The curve carries rho, so callers need not compute it again.
    """
    from .profiles import spectral_radius

    config = config or SolverConfig()
    route = _route(profile)
    rho = spectral_radius(profile, operand=route.product_T)
    if s_grid is None:
        if rho == 0.0:
            raise ValueError("rho = 0: the measure is a unit atom at zero, "
                             "so no default grid exists; a grid must be given")
        s_grid = default_s_grid(math.sqrt(rho))
    s_grid = np.asarray(s_grid, dtype=float)
    if s_grid.ndim != 1 or len(s_grid) == 0:
        raise ValueError("s_grid must be a nonempty vector")
    if not np.isfinite(s_grid).all() or np.any(np.diff(s_grid) <= 0) or s_grid[0] <= 0:
        raise ValueError("s_grid must be finite, strictly increasing and positive")
    inside = int(np.searchsorted(s_grid, math.sqrt(rho)))  # radii s < sqrt(rho)
    rows = _solve_inside(profile, route, s_grid[:inside], config, rho, len(s_grid) - inside)
    for a in (rows.q, rows.q_tilde, rows.iterations, rows.residual, rows.at_zero, rows.krylov):
        a.setflags(write=False)
    return MECurve(profile, s_grid, rows, rho, config, route)
