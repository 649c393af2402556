"""Semilinear evolution h u_t + (P - mu) u = u^p and its blow-up from tiny data.

The linear part is treated implicitly (one factorization per step-size
level), the nonlinearity explicitly; the implicit matrix I + (dt/h)(P - mu)
is an M-matrix on resolved grids (grid Peclet |X| dx / 2h < 1), so
nonnegative data stays nonnegative and the comparison structure of the
continuous problem survives discretization.  On an interval that matrix is
a diagonal similarity D M_s D^{-1} of a symmetric positive definite
tridiagonal M_s (``operators.symmetrizer_1d``: the lattice form of
e^{-<X,x>/2h} P e^{<X,x>/2h} = -h^2 Laplace + |X|^2/4), so each level is
one LAPACK L D L^T factor of M_s; planar P use the sparse LU of
``operators.factorize``.

The step size adapts to the explicit stability constraint
dt ||u||_inf^{p-1} / h <= 0.2 by halving, and the reported blow-up time is
the first crossing of the threshold.

Initial data are compactly supported bumps of amplitude exp(-1/(C h)):
spectrally the linearization is stable (all eigenvalues of -(P - mu) have
real part <= -(lambda_1 - mu) < 0), yet the advection carries the bump along
x + t X while the pseudospectral amplification e^{mu t / h} lifts it to O(1)
in O(1) time, after which the nonlinearity ignites.  The traveling
subsolution w = e^{alpha t / h} w0(x - t X), alpha < mu, certifies the
growth from below as long as the support ride B(x0, 2a) + t X stays inside
the domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import GeometryError, PslabError
from .operators import GridOperator, factorize, symmetrizer_1d

BLOWUP_THRESHOLD = 1e6      # sup |u| that counts as blow-up
_POSITIVITY_TOL = 1e-12     # relative undershoot below 0 that counts as lost
_FLOW_CHECKS = 64           # times at which the support ride is checked
_SUBSOLUTION_TOL_FACTOR = 10.0   # safety factor on the truncation estimate


def flow(x, t: float, X) -> np.ndarray:
    """Flow of the advection field: x - t X (constant X)."""
    x = np.asarray(x, dtype=float)
    X = np.atleast_1d(np.asarray(X, dtype=float))
    return x - t * X


# ===================================================================== #
#  bump data
# ===================================================================== #

@dataclass
class BumpSpec:
    center: np.ndarray
    inner_radius: float            # floor radius a; support radius is 2a
    delta: float                   # time window; amplitude floor e^{-delta/2h}
    cap_constant: Optional[float] = None   # sup bound exp(-1/(C h))
    amplitude: Optional[float] = None      # default e * floor

    def __post_init__(self):
        self.center = np.atleast_1d(np.asarray(self.center, dtype=float))
        if self.inner_radius <= 0 or self.delta <= 0:
            raise ValueError("inner radius and delta must be positive")

    def floor(self, h: float) -> float:
        return math.exp(-self.delta / (2.0 * h))

    def cap(self, h: float) -> float:
        if self.cap_constant is None:
            # smallest C consistent with the peak: exp(-1/(Ch)) >= peak
            return self.peak(h)
        return math.exp(-1.0 / (self.cap_constant * h))

    def peak(self, h: float) -> float:
        return self.amplitude if self.amplitude is not None \
            else math.e * self.floor(h)

    def profile(self, pts: np.ndarray, h: float) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        r = np.linalg.norm(pts - self.center[None, :], axis=1)
        s = r / (2.0 * self.inner_radius)
        out = np.zeros(len(pts))
        inside = s < 1.0
        si = s[inside]
        out[inside] = self.peak(h) * np.exp(-si * si / (1.0 - si * si))
        return out

    def validate_flow(self, domain, X):
        """The support ride B(x0, 2a) + t X must stay inside for t in [0, 2 delta].

        (The subsolution w0(x - tX) is supported on the translate along +X.)
        """
        X = np.atleast_1d(np.asarray(X, dtype=float))
        # the support's edge: a segment's two ends, 32 points on a circle
        th = np.linspace(0, 2 * np.pi, 32, endpoint=False)
        units = np.array([[-1.0], [1.0]]) if self.center.shape[0] == 1 \
            else np.column_stack([np.cos(th), np.sin(th)])
        ts = np.linspace(0.0, 2.0 * self.delta, _FLOW_CHECKS)
        rings = self.center + ts[:, None, None] * X + 2 * self.inner_radius * units
        ok = domain.contains(rings.reshape(-1, X.size)).reshape(len(ts), -1).all(axis=1)
        if not ok.all():
            raise GeometryError(
                f"bump support leaves the domain at t = {ts[np.argmin(ok)]:.4f}")

    def validate_cap(self, h: float):
        """The peak must not exceed the cap exp(-1/(C h))."""
        if self.peak(h) > self.cap(h) * (1 + 1e-12):
            raise PslabError(f"bump amplitude {self.peak(h):.3e} exceeds "
                             f"exp(-1/(C h)) = {self.cap(h):.3e}")


@dataclass
class BumpReport:
    values: np.ndarray
    peak: float
    cap: float
    ineq_constant: float       # smallest C with -Lap w0 <= C w0 - beta inside
    ineq_beta: float


def bump_initial_data(spec: BumpSpec, grid_points: np.ndarray, h: float
                      ) -> BumpReport:
    """Sample the bump on the grid and spot-check its defining inequalities.

    The cap is checked here; the support's ride through the domain is not
    (``spec.validate_flow``, which the CLI calls at validation).
    """
    spec.validate_cap(h)
    pts = np.atleast_2d(np.asarray(grid_points, dtype=float))
    w0 = spec.profile(pts, h)
    peak = float(w0.max())
    cap = spec.cap(h)
    floor = spec.floor(h)
    # floor must hold on the inner ball
    r = np.linalg.norm(pts - spec.center[None, :], axis=1)
    inner = r <= spec.inner_radius
    if inner.any() and w0[inner].min() <= floor:
        raise PslabError("bump fails its amplitude floor on the inner ball")
    # discrete -Lap w0 <= C w0 - beta on the checked interior (s <= 0.8)
    d = pts.shape[1]
    if d == 1:
        x = pts[:, 0]
        order = np.argsort(x)
        xs = x[order]
        ws = w0[order]
        dx = np.median(np.diff(xs))
        lap = np.zeros_like(ws)
        lap[1:-1] = (ws[2:] - 2 * ws[1:-1] + ws[:-2]) / dx ** 2
        sel = (np.abs(xs - spec.center[0]) <= 0.8 * 2 * spec.inner_radius)
        sel[0] = sel[-1] = False
        ratio = -lap[sel] / np.maximum(ws[sel], 1e-300)
        C = float(max(ratio.max(), 0.0)) * 1.1 + 1.0
        beta = float(np.min(C * ws[sel] + lap[sel]))
    else:
        C, beta = np.nan, np.nan   # spot check is one-dimensional here
    return BumpReport(w0, peak, cap, C, beta)


# ===================================================================== #
#  IMEX evolution
# ===================================================================== #

@dataclass
class EvolutionResult:
    times: np.ndarray
    sup_norms: np.ndarray
    blew_up: bool
    t_blowup: Optional[float]
    snapshots: dict
    dt_initial: float
    dt_min_used: float
    h: float
    mu: float
    p: float


def _symmetric_frame(op: GridOperator):
    """(D, diagonal, off-diagonal) of the tridiagonal S = D^{-1} P D, or None
    where ``evolve`` takes the sparse LU.

    D = kappa^i spans about e^{|X| L / 2h} and cannot carry the solve past
    the double range.  Within it, D is divided by the power of two of its
    middle entry: no bit of u = D y moves, but D stays within about
    2^{+-513}, so y = u / D is a normal double for every |u| from about
    1e-150 to 1e150, where tiny data near the far end would otherwise
    flush to subnormals and lose its digits.
    """
    if op.dimension != 1:
        return None
    diag = op.matrix.diagonal()
    if op.n == 1:
        # LAPACK's wrapper wants an off-diagonal of length >= 1
        return np.ones(1), diag, np.zeros(1)
    prod = op.matrix.diagonal(1) * op.matrix.diagonal(-1)
    if not np.all(prod > 0):
        return None
    with np.errstate(over="ignore"):
        D = symmetrizer_1d(op)
    if not np.finfo(float).tiny <= D[-1] <= np.finfo(float).max:
        return None
    return np.ldexp(D, -np.frexp(D[op.n // 2])[1]), diag, -np.sqrt(prod)


def evolve(op: GridOperator, mu: float, p: float, u0: np.ndarray, dt0: float,
           t_end: float, nonlinear: bool = True,
           snapshot_times: Optional[Sequence[float]] = None) -> EvolutionResult:
    """IMEX integration of h u_t + (P - mu) u = u^p until t_end or blow-up
    (sup |u| >= BLOWUP_THRESHOLD).

    Each step solves (I + (dt/h)(P - mu)) u = rhs.  On an interval with
    grid Peclet |X| dx / 2h < 1 (and on a one-node P) the solve runs in the
    symmetric frame: with D from ``symmetrizer_1d``, S = D^{-1} P D is
    tridiagonal with P's diagonal and off-diagonal -sqrt(P_{i,i+1}
    P_{i+1,i}), so u = D y where y solves I + (dt/h)(S - mu) from one
    LAPACK L D L^T factor (``dpttrf``/``dpttrs``).  That factor fails with
    a non-positive pivot once dt >= h / (mu - lambda_1) for a supercritical
    mu, and D leaves the double range once |X| L / 2h passes about 700;
    then, and on a planar P, the step takes the sparse LU of ``factorize``.

    The final step is clamped onto t_end: a step after which at most
    1e-9 dt0 would remain ends the run at t_end, and a final step within
    1e-9 (relative) of the current dt takes that dt.  So no sliver step is
    taken, no near-duplicate dt is factorized, and times[-1] == t_end.
    Only the current dt's factor is kept: a dt that comes back (sup u fell,
    or the remainder onto t_end) is factorized again.
    """
    import scipy.sparse as sp
    from scipy.linalg.lapack import dpttrf, dpttrs
    h = op.h
    n = op.n
    u = np.asarray(u0, dtype=float).copy()
    if u.shape != (n,):
        raise ValueError(f"initial data must match the {n}-point grid")
    I = sp.identity(n, format="csc")
    A = op.matrix.tocsc()
    frame = _symmetric_frame(op)

    def factor(dt):
        """The solve u = (I + (dt/h)(P - mu))^{-1} rhs."""
        if frame is not None:
            D, diag, off = frame
            d, e, info = dpttrf(1.0 + (dt / h) * (diag - mu), (dt / h) * off)
            if info == 0:
                return lambda rhs: D * dpttrs(
                    d, e, np.divide(rhs, D, out=rhs), overwrite_b=1)[0]
        return factorize((I + (dt / h) * (A - mu * I)).tocsc()).solve

    solve_dt, solve = 0.0, None  # the current dt's factor: a blow-up only halves dt
    rhs = np.empty(n)           # each step's rhs, which the solve may overwrite

    want_snaps = sorted(float(s) for s in snapshot_times) \
        if snapshot_times is not None else []
    snaps = {}
    next_snap = 0
    t = 0.0
    times = [0.0]
    sups = [float(np.max(np.abs(u)))]
    hi = float(u.max())         # max u, which sets the next step's dt
    dt_min = dt0
    blew = False
    t_blow = None
    while t < t_end and not blew:
        # explicit-term stability: dt |u|^{p-1} / h <= 0.2, dt halving only
        dt = dt0
        if nonlinear and hi > 0:
            cap = 0.2 * h / max(hi ** (p - 1.0), 1e-300)
            while dt > cap:
                dt *= 0.5
        dt = min(dt, t_end - t)
        dt = solve_dt if abs(dt - solve_dt) <= 1e-9 * solve_dt else dt
        last = t_end - t - dt <= 1e-9 * dt0
        dt_min = min(dt_min, dt)
        if nonlinear:           # rhs = u + (dt / h) max(u, 0)^p, bit for bit
            np.maximum(u, 0.0, out=rhs)
            rhs **= p
            rhs *= dt / h
            rhs += u
        else:
            rhs[:] = u
        if dt != solve_dt:
            solve_dt, solve = dt, None     # free the old factor first
            solve = factor(dt)
        u = solve(rhs)
        # sup |u| from the two extremes, NaN included
        hi, lo = float(u.max()), float(u.min())
        sup = max(hi, -lo)
        if lo < -_POSITIVITY_TOL * max(1.0, sup):
            raise PslabError(
                f"positivity lost at t = {t:.5f}: min u = {lo:.3e}")
        t = t_end if last else t + dt
        times.append(t)
        sups.append(sup)
        while next_snap < len(want_snaps) and t >= want_snaps[next_snap] - 1e-12:
            snaps[want_snaps[next_snap]] = u.copy()
            next_snap += 1
        if sup >= BLOWUP_THRESHOLD:
            blew = True
            t_blow = t
    return EvolutionResult(np.asarray(times), np.asarray(sups), blew, t_blow,
                           snaps, dt0, dt_min, h, mu, p)


def scalar_blowup_time(u0: float, mu: float, p: float, h: float) -> float:
    """Closed form for p = 2: T = (h/mu) log(1 + mu/u0)."""
    if p != 2:
        raise ValueError("closed form recorded for p = 2 only")
    return (h / mu) * math.log1p(mu / u0)


# ===================================================================== #
#  subsolution comparison
# ===================================================================== #

@dataclass
class ComparisonReport:
    ok: bool
    checked_times: list
    worst_margin: float


def subsolution_check(result: EvolutionResult, spec: BumpSpec, alpha: float,
                      X, grid_points: np.ndarray) -> ComparisonReport:
    """Verify u(x, t) >= e^{alpha t/h} w0(x - tX) - tol at the snapshots.

    Valid for t < delta while the solution has not blown up; alpha < mu is
    required for w to be a subsolution.  The tolerance is
    _SUBSOLUTION_TOL_FACTOR times a first-order accumulated-truncation
    estimate of the scheme error.
    """
    if not 0.0 < alpha < result.mu:
        raise ValueError("need 0 < alpha < mu")
    h = result.h
    pts = np.atleast_2d(np.asarray(grid_points, dtype=float))
    ok = True
    worst = np.inf
    checked = []
    for t, u in sorted(result.snapshots.items()):
        if t >= spec.delta:
            continue
        if result.blew_up and result.t_blowup is not None and t >= result.t_blowup:
            continue
        checked.append(t)
        w = math.exp(alpha * t / h) * spec.profile(flow(pts, t, X), h)
        sup = float(np.max(np.abs(u)))
        rate = (result.mu + sup ** (result.p - 1.0)) / h
        tol = _SUBSOLUTION_TOL_FACTOR * 0.5 * t * result.dt_initial * rate ** 2 * h * sup + 1e-12
        m = float((u - (w - tol)).min())
        worst = min(worst, m)
        if m < 0:
            ok = False
    return ComparisonReport(ok, checked, worst)
