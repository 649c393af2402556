"""First-exit-time Monte Carlo for dX_t = b(X_t) dt + sqrt(2h) dB_t.

Paths use the Euler-Maruyama scheme with exit detection by sign change of the
signed distance and linear sub-step interpolation of the crossing time (no
boundary-layer correction; the half-order discrete-crossing bias is accepted
and covered by the coupled refinement check).  Randomness is drawn from
counter-based Philox streams keyed by (seed, path_index): distinct paths use
provably independent substreams, and a path's draw sequence depends only on
its own key, so results are independent of batching.  Each chunk of
normals is filled on one thread per CPU of the process's affinity (numpy
draws into ``out=`` with the GIL released); every path still owns its
generator and its buffer row, so results are independent of the worker
count too.

Every ensemble draws in chunks of the same size, set by the draw count of
its longest level and the dimension: the power of two at or above an
eighth of the draws, at least 256 steps and at most 1,024 normals per path
(512 steps in the plane).  A path's normals are one sequence from its own
stream however they are cut into chunks, so the chunk size moves no bit.

One kernel steps every ensemble: a sub-block of steps is advanced for all
alive paths with one signed-distance call and its first crossings found at
once, bit-identical to stepping one at a time because each step still
rounds as (x + b dt) + amp xi.  A constant drift's sub-block that is longer
than it is wide (few paths alive) is one running sum over the interleaved
sequence x, b dt, amp xi_0, b dt, amp xi_1, ...: np.add.accumulate adds
strictly in order, so it makes the same two roundings per step as the
per-step loop.  A callable drift is evaluated at every step, past a path's
exit too, where its values are discarded.  The coupled (dt, dt/2) pair is
two levels over one draw stream: the fine level steps with each normal, the
coarse level with the normalized sum of each pair.

The moment generating function E exp(lambda tau_X / h) is estimated by the
sample mean with jackknife standard errors; truncated paths contribute the
lower-bound surrogate exp(lambda T_max / h) and are flagged.  For constant
drift on an interval the MGF solves h^2 v'' + h b v' + lambda v = 0 with
unit boundary data, giving the closed form used as the test oracle:
v = A e^{r+ x} + B e^{r- x}, r+- = (-b +- sqrt(b^2 - 4 lambda)) / (2h).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import GeometryError, SupercriticalError, UnreliableTailError

_CHUNK = 256          # fewest steps drawn per path per chunk
_DRAWS = 1024         # most normals drawn per path per chunk
_BATCH = 16384        # paths simulated together
_BLOCK = 65536        # path-step coordinates per sub-block; bounds scratch
_WILSON_Z = 1.959963984540054   # two-sided 95% normal quantile
# the MGF is finite below the principal eigenvalue lambda_1; lambda may reach
# this fraction of it
SUBCRITICAL_FRACTION = 0.9


@dataclass
class ExitEnsemble:
    tau: np.ndarray
    exit_points: np.ndarray
    truncated: np.ndarray
    h: float
    dt: float
    t_max: float
    seed: int
    x0: np.ndarray

    def __len__(self):
        return len(self.tau)


@dataclass
class MgfEstimate:
    lam: float
    h: float
    estimate: float
    std_error: float
    t_max: float
    truncated_fraction: float
    n_paths: int


@dataclass
class SurvivalEstimate:
    probability: float
    lower: float
    upper: float
    beyond_horizon: bool


def default_t_max(h: float, lam: float) -> float:
    """Horizon 50 h |log h| / lambda: far beyond the scale of the bound."""
    return 50.0 * h * max(1.0, abs(math.log(h))) / lam


class _PathKeys(ISeedSequence):
    """Seeds Philox bit generators with the keys (seed, i), i = lo, lo + 1, ...

    ``Philox(key=...)`` first builds a SeedSequence from OS entropy that
    the key then overrides.  A bit generator draws its key from its seed
    sequence once, as it is built, so generators built in turn from this
    one object get consecutive keys, with no entropy drawn and no seed
    object kept per path.  The counter starts at 0 either way, so for a
    seed below 2^63 path i's normals are exactly those of
    ``Philox(key=(seed, i))``.  Above it that call rounds the seed through
    float64 (2^64 - 1 becomes 0); here every seed in [0, 2^64) is its own
    key.
    """

    def __init__(self, seed: int, lo: int):
        self.seed, self.index = seed, lo

    def generate_state(self, n_words, dtype=np.uint32):
        key = np.array([self.seed, self.index], dtype=np.uint64)
        self.index += 1
        return key


def _path_generators(seed: int, lo: int, hi: int) -> list:
    """The generators of paths lo, ..., hi - 1."""
    keys = _PathKeys(seed, lo)
    return [np.random.Generator(np.random.Philox(keys)) for _ in range(lo, hi)]


class _Level:
    """One Euler-Maruyama discretization advanced over a batch's draws.

    Step k consumes normals [stride k, stride (k + 1)) of each path's
    stream; a stride-2 level steps with their normalized pairwise sum.
    The state holds the alive paths only (batch rows ``idx``), coordinate
    by coordinate; exits are written into the ensemble rows [lo, hi).
    """

    def __init__(self, ens: ExitEnsemble, lo: int, hi: int, domain, b,
                 start_sd: float, stride: int, n_steps: int):
        self.domain, self.b = domain, b
        self.tau = ens.tau[lo:hi]
        self.pts = ens.exit_points[lo:hi]
        self.truncated = ens.truncated[lo:hi]
        self.dt = ens.dt
        self.amp = math.sqrt(2.0 * ens.h * ens.dt)
        # a constant drift's step b dt, one row per coordinate
        self.c = None if callable(b) else (
            np.atleast_1d(np.asarray(b, dtype=float)) * ens.dt)[:, None]
        self.stride, self.n_steps = stride, n_steps
        self.idx = np.arange(hi - lo)
        self.pos = self.pts.T.copy()
        self.sd = np.full(hi - lo, start_sd)
        self.k = 0                       # steps taken by the alive paths

    def advance(self, buf: np.ndarray, base: int):
        """Step the alive paths over buf, which holds their draws from base.

        Each pass advances a sub-block of L steps and takes the signed
        distance once for it; a callable drift b is evaluated every step.
        """
        d = buf.shape[2]
        k_end = min((base + buf.shape[1]) // self.stride, self.n_steps)
        while self.k < k_end and len(self.idx):
            n = len(self.idx)
            L = max(1, min(k_end - self.k, _BLOCK // (n * d)))
            r = self.k * self.stride - base
            xi = buf[self.idx, r:r + L * self.stride].transpose(1, 2, 0)
            if self.stride == 2:
                xi = (xi[0::2] + xi[1::2]) / math.sqrt(2.0)
            # path[j] is the position after j steps; each step rounds as
            # (x + b dt) + amp xi, the order of one Euler step at a time
            if self.c is not None and L > n:
                # few paths alive: one running sum over x, b dt, amp xi_0,
                # b dt, amp xi_1, ... makes the same two roundings per step.
                # On the 2-core reference box the loop below costs about
                # 1.7 us per step plus 1 ns per path-step, this sum 7-10 ns
                # per path-step: a full sub-block costs the same both ways
                # near 220 paths, where it is about as long as it is wide
                seq = np.empty((2 * L + 1, d, n))
                seq[0] = self.pos
                seq[1::2] = self.c
                np.multiply(xi, self.amp, out=seq[2::2])
                path = np.add.accumulate(seq, axis=0, out=seq)[0::2]
            else:
                path = np.empty((L + 1, d, n))
                path[0] = self.pos
                np.multiply(xi, self.amp, out=path[1:])
                for j in range(L):
                    c = self.c if self.c is not None else np.asarray(
                        self.b(path[j].T), dtype=float).reshape(n, d).T * self.dt
                    path[j + 1] += path[j] + c
            new = path[1:].transpose(0, 2, 1).reshape(L * n, d)
            sd = self.domain.signed_distance(new).reshape(L, n)
            k0, self.k = self.k, self.k + L
            crossed = sd >= 0.0
            if not crossed.any():
                self.pos, self.sd = path[L], sd[L - 1]
                continue
            # first crossing, interpolated linearly in the signed distance
            hit = crossed.any(axis=0)
            col = np.flatnonzero(hit)
            j = crossed[:, col].argmax(axis=0)
            so = np.where(j > 0, sd[j - 1, col], self.sd[col])
            sn = sd[j, col]
            frac = so / (so - sn)
            p0, p1 = path[j, :, col], path[j + 1, :, col]
            out = self.idx[col]
            self.pts[out] = p0 + frac[:, None] * (p1 - p0)
            self.tau[out] = (k0 + j + frac) * self.dt
            keep = np.flatnonzero(~hit)
            self.idx = self.idx[keep]
            self.pos = path[L].take(keep, axis=1)
            self.sd = sd[L - 1].take(keep)

    def finish(self):
        """Paths still alive after n_steps are truncated where they stand."""
        self.truncated[self.idx] = True
        self.pts[self.idx] = self.pos.T


def _simulate(domain, b, h: float, x0, seed: int, n_paths: int, t_max: float,
              levels: Sequence[tuple[float, int, int]]) -> list[ExitEnsemble]:
    """One ensemble per level (dt, stride, n_steps), all on the same draws."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    d = x0.shape[0]
    t_max = float(t_max)
    out = [ExitEnsemble(np.full(n_paths, t_max), np.tile(x0, (n_paths, 1)),
                        np.zeros(n_paths, dtype=bool), h, dt, t_max, seed, x0)
           for dt, _, _ in levels]
    start_sd = float(domain.signed_distance(x0[None, :])[0])
    if start_sd > 0.0:
        raise GeometryError(f"start point {x0.tolist()} lies outside {domain}")
    if start_sd == 0.0:
        for ens in out:
            ens.tau[:] = 0.0
        return out
    n_draws = max(stride * n for _, stride, n in levels)
    # larger draw blocks only amortize generator calls: the per-path normal
    # sequence is the same for any blocking.  A chunk is the power of two at
    # or above n_draws / 8 steps, at least _CHUNK steps and at most _DRAWS
    # normals per path (512 steps in the plane)
    chunk = 1 << max(n_draws // 8 - 1, 0).bit_length()
    chunk = max(_CHUNK, min(chunk, _DRAWS // d))
    # one thread per CPU draws a contiguous share of the rows.  The caller
    # draws the first share, which stays in its cache for advance, so the
    # pool needs workers - 1 threads (on one CPU it starts none)
    from concurrent.futures import ThreadPoolExecutor
    workers = len(os.sched_getaffinity(0))
    with ThreadPoolExecutor(max(workers - 1, 1)) as pool:
        for lo in range(0, n_paths, _BATCH):
            hi = min(lo + _BATCH, n_paths)
            gens = _path_generators(seed, lo, hi)
            run = [_Level(ens, lo, hi, domain, b, start_sd, stride, n)
                   for ens, (_, stride, n) in zip(out, levels)]
            buf = np.empty((hi - lo, chunk, d))

            def draw(rows):
                for a in rows:
                    gens[a].standard_normal(out=buf[a])

            for base in range(0, n_draws, chunk):
                need = np.zeros(hi - lo, dtype=bool)
                for lv in run:
                    need[lv.idx] = True
                if not need.any():
                    break
                shares = np.array_split(np.flatnonzero(need), workers)
                futures = [pool.submit(draw, rows) for rows in shares[1:]]
                draw(shares[0])
                for f in futures:
                    f.result()          # waits, and re-raises an error
                for lv in run:
                    lv.advance(buf, base)
            for lv in run:
                lv.finish()
    return out


def simulate_exit_ensemble(domain, b, h: float, x0, dt: float, seed: int,
                           n_paths: int, t_max: float) -> ExitEnsemble:
    """Euler-Maruyama first-exit ensemble; deterministic in (seed, dt, x0).

    b is a constant or a callable from an (n, d) array of points to their
    drifts.  A callable also sees points outside the domain, up to L - 1
    steps past a path's exit in a sub-block of L steps; it must not raise
    there, and its values there are discarded.  A start on the boundary
    exits at tau = 0; a start outside the domain raises GeometryError.
    Paths run _BATCH at a time, their normals drawn in chunks of up to
    1,024 per path; a constant drift steps by one running sum once fewer
    paths are alive than a sub-block has steps.  Neither changes a bit.
    """
    max_steps = int(math.ceil(t_max / dt))
    return _simulate(domain, b, h, x0, seed, n_paths, t_max,
                     [(dt, 1, max_steps)])[0]


def simulate_exit_refinement_pair(domain, b, h: float, x0, dt: float,
                                  seed: int, n_paths: int, t_max: float
                                  ) -> tuple[ExitEnsemble, ExitEnsemble]:
    """Coupled (dt, dt/2) ensembles sharing the same Brownian increments.

    The coarse path consumes the pairwise sums of the fine increments, so the
    difference of the two estimates isolates the time-stepping bias from the
    Monte Carlo noise.
    """
    max_fine = int(math.ceil(t_max / (0.5 * dt)))
    coarse, fine = _simulate(domain, b, h, x0, seed, n_paths, t_max,
                             [(dt, 2, max_fine // 2), (0.5 * dt, 1, max_fine)])
    return coarse, fine


# ===================================================================== #
#  estimators
# ===================================================================== #

def mgf_estimate(samples: ExitEnsemble, lam: float, h: float,
                 lambda1: Optional[float] = None) -> MgfEstimate:
    """Sample mean of exp(lambda tau / h) with jackknife standard error."""
    if len(samples) < 2:
        raise ValueError("the jackknife needs at least 2 samples")
    if lambda1 is not None and lam > SUBCRITICAL_FRACTION * lambda1:
        raise ValueError(
            f"lambda = {lam} must sit below the principal eigenvalue "
            f"{lambda1} by a {1 - SUBCRITICAL_FRACTION:.0%} margin")
    frac = float(np.mean(samples.truncated))
    if frac > 0.20:
        raise UnreliableTailError(
            f"{100 * frac:.1f}% of paths hit the horizon; tail unreliable")
    vals = np.exp(lam * samples.tau / h)
    n = len(vals)
    mean = float(np.mean(vals))
    loo = (mean * n - vals) / (n - 1)
    se = math.sqrt((n - 1) / n * float(np.sum((loo - np.mean(loo)) ** 2)))
    return MgfEstimate(lam, h, mean, se, samples.t_max, frac, n)


def exit_mgf_bvp_1d(interval, b: float, lam: float, h: float):
    """Closed-form MGF v(x) = E_x exp(lambda tau_Y) for constant drift.

    Subcritical case b^2 > 4 lambda only; exponentials are anchored at the
    endpoint where each is largest so the 2x2 solve never overflows.  v
    raises GeometryError at a point outside [a, b].
    """
    b = float(b)
    if b * b <= 4.0 * lam:
        raise SupercriticalError(
            f"b^2 = {b * b} <= 4 lambda = {4 * lam}: the MGF may be infinite")
    s = math.sqrt(b * b - 4.0 * lam)
    rp = (-b + s) / (2.0 * h)
    rm = (-b - s) / (2.0 * h)
    a, bb = interval.a, interval.b
    xp = a if rp <= 0 else bb        # anchor where exp(r (x - anchor)) <= 1
    xm = a if rm <= 0 else bb
    M = np.array([[math.exp(rp * (a - xp)), math.exp(rm * (a - xm))],
                  [math.exp(rp * (bb - xp)), math.exp(rm * (bb - xm))]])
    A, B = np.linalg.solve(M, np.array([1.0, 1.0]))

    def v(x):
        x = np.asarray(x, dtype=float)
        if np.any((x < a) | (x > bb)):
            raise GeometryError(f"v is defined on [{a}, {bb}] only")
        return A * np.exp(rp * (x - xp)) + B * np.exp(rm * (x - xm))

    return v


def survival_probability(samples: ExitEnsemble, s: float, lam: float
                         ) -> SurvivalEstimate:
    """Empirical P(tau >= s / lambda) with a 95% Wilson interval."""
    if len(samples) == 0:
        raise ValueError("empty sample set")
    threshold = s / lam
    beyond = threshold > samples.t_max
    # truncated paths survived past t_max, hence past any smaller threshold
    hits = np.where(samples.truncated, samples.t_max >= threshold,
                    samples.tau >= threshold)
    n = len(samples)
    p = float(np.mean(hits))
    z2 = _WILSON_Z ** 2
    center = (p + z2 / (2 * n)) / (1 + z2 / n)
    half = _WILSON_Z * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n)) / (1 + z2 / n)
    return SurvivalEstimate(p, max(0.0, center - half),
                            min(1.0, center + half), bool(beyond))
