"""Boundary WKB quasimodes for P = -h^2*Laplace + h<X, grad> with Dirichlet data.

The construction produces u = chi * (a e^{i phi_1/h} - b e^{i phi_2/h}) near an
illuminated boundary point x0.  In the local frame (v1 normal, v2 tangential,
interior v1 < 0) both phases share the boundary trace

    phi_0(t) = |X| (lambda t + (1/2) M t^2),    M = i*eps,  eps > 0,

and their normal covector components (alpha_i + i beta_i) are the two roots
obtained from

    c^4 + (Re z - lambda^2 - nu1^2/4) c^2 - (Im z - X' lambda)^2 / 4 = 0,
    beta = c - nu1/2,   alpha (2 beta + nu1) = Im z - X' lambda,

in the unit-field reduction (solve at z/|X|^2, scale covectors and phases by
|X|).  Both beta_i < 0 exactly when (Im z)^2 < Re z, which makes the ansatz
decay into the domain and localize on the boundary.

Higher phase/amplitude jets come from matching Taylor coefficients of the
eikonal p_z(x, d phi) and of the transport equation

    -2i <d phi, d psi_n> - i (Laplace phi) psi_n + <X, d psi_n> = Laplace psi_{n-1},

order by order in total degree.  The first-order coefficient of the transport
operator is -i(2 xi_1 + i X_nu) along the normal, which is invertible away
from the excluded value z = <X,nu>^2/4.

Residuals are evaluated from the exact differentiation identity

    P_z(a e^{i phi/h}) = e^{i phi/h} [ a p_z(d phi)
        + h(-2i<d phi, d a> - i (Lap phi) a + <X, d a>) - h^2 Lap a ],

so no numerical differentiation enters the residual path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    CutoffError,
    ExceptionalPointError,
    GeometryError,
    NoQuasimodeError,
    OutOfChartError,
    ResolutionError,
    SeedRestrictionError,
    WrongSideError,
)
from .geometry import BoundaryFrame, Disk, boundary_frame, boundary_graph_jet
from .jets import Jet, eval_jets

_SEED_TOL = 1e-10
# the phase seed's tangential momentum for a real z off normal incidence,
# as a share of nu1 sqrt(Re z) in unit-field units
TANGENTIAL_SHARE = 0.5
MIN_CUTOFF = 1e-3           # smallest outer cutoff radius, in domain diameters
_COLLAR_SAMPLES = 400       # boundary samples of the cutoff collar check
_INTERIOR_SAMPLES = 41      # tangential samples of its interior lattice
_INTERIOR_DEPTHS = 20       # depths below the boundary graph per sample
_CHART_NEWTON_STEPS = 60    # Newton steps of the characteristic chart inversion
# residual quadrature: Gauss points per panel, the refined run's factor on
# them, the largest relative change of either norm between the two runs,
# and the widest panel in units of its scale
_QUAD_POINTS = 12
_QUAD_REFINE = 1.5
_QUAD_MAX_REL_CHANGE = 0.01
_PANEL_CAP = 6.0


# ===================================================================== #
#  spectral point
# ===================================================================== #

@dataclass
class SpectralPoint:
    z: complex
    h: float
    X: np.ndarray

    def __post_init__(self):
        self.z = complex(self.z)
        self.h = float(self.h)
        self.X = np.atleast_1d(np.asarray(self.X, dtype=float))
        if self.h <= 0:
            raise ValueError("h must be positive")
        if np.linalg.norm(self.X) == 0:
            raise ValueError("field X must be nonzero")

    @property
    def field_norm(self) -> float:
        return float(np.linalg.norm(self.X))


# ===================================================================== #
#  phase seed
# ===================================================================== #

@dataclass
class PhaseSeed:
    frame: BoundaryFrame
    sp: SpectralPoint
    lam: float                 # unit-field tangential momentum
    c: float                   # positive root, 0 < c < nu1/2
    alpha: np.ndarray          # (2,) real parts of the normal momenta
    beta: np.ndarray           # (2,) imaginary parts, both negative
    tangential_hessian: complex  # M = i*eps on the tangent space
    eps: float

    def covector_frame(self, root: int) -> np.ndarray:
        """d phi(x0) in frame coordinates (normal, tangential), field-scaled."""
        s = self.sp.field_norm
        xi_n = s * (self.alpha[root - 1] + 1j * self.beta[root - 1])
        return np.array([xi_n, s * self.lam])[:self.frame.dimension]

    def covector(self, root: int) -> np.ndarray:
        """d phi(x0) as an ambient complex covector."""
        return self.frame.covector(self.covector_frame(root))

    def seed_residual(self, root: int) -> float:
        """|p_z(covector)| for the unscaled operator; ~1e-16 by construction."""
        xi = self.covector(root)
        X = self.sp.X.astype(complex)
        pz = np.dot(xi, xi) + 1j * np.dot(X, xi) - self.sp.z
        return abs(pz)


def phase_seed(frame: BoundaryFrame, sp: SpectralPoint,
               eps: float = 1.0) -> PhaseSeed:
    """Solve the boundary covector problem at x0 for both normal momenta.

    Preconditions: z strictly inside the region, z distinct from the
    excluded value <X(x0), nu(x0)>^2 / 4, x0 illuminated, and in d=1
    additionally Im z != 0 or Re z < <X,nu>^2/4.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    d = frame.dimension
    s2 = sp.field_norm ** 2
    zh = sp.z / s2                      # unit-field reduction
    nu1 = frame.nu1
    xp = frame.x_prime

    if nu1 <= 1e-10:
        raise WrongSideError(
            f"x0 must be illuminated; <X, nu>/|X| = {nu1:.3e}")
    margin = zh.real - zh.imag ** 2
    if margin <= 0:
        kind = "on the boundary parabola" if abs(margin) <= 1e-12 * max(1.0, abs(zh)) \
            else "outside the closed region"
        raise NoQuasimodeError(
            f"z = {sp.z} is {kind} Re z = (Im z)^2/|X|^2: no quasimodes there")
    exc = nu1 ** 2 / 4.0
    if abs(zh - exc) <= 1e-12 * max(1.0, abs(zh)):
        raise ExceptionalPointError(
            f"z/|X|^2 = {zh} equals the excluded value <X,nu>^2/(4|X|^2) = {exc}")
    if d == 1 and zh.imag == 0.0 and zh.real >= exc:
        raise SeedRestrictionError(
            "in d=1 the construction needs Im z != 0 or Re z < <X,nu>^2/4")

    # tangential momentum selection
    if zh.imag != 0.0:
        lam = zh.imag * xp
    elif nu1 < 1.0 - 1e-12:
        lam = nu1 * math.sqrt(zh.real) * TANGENTIAL_SHARE
    elif zh.real < 0.25:
        lam = 0.0
    else:
        lam = math.sqrt(zh.real - 0.125)

    q = zh.real - lam ** 2 - nu1 ** 2 / 4.0
    r4 = (zh.imag - xp * lam) ** 2 / 4.0
    c2 = 0.5 * (-q + math.sqrt(q * q + 4.0 * r4))
    c = math.sqrt(max(c2, 0.0))
    if not 0.0 < c < nu1 / 2.0:
        raise NoQuasimodeError(
            f"degenerate normal momentum (c = {c:.3e}); z too close to the "
            "region boundary")
    roots_c = np.array([c, -c])
    beta = roots_c - nu1 / 2.0
    num = zh.imag - xp * lam
    alpha = np.where(np.abs(roots_c) > 0, num / (2.0 * roots_c), 0.0)

    seed = PhaseSeed(frame, sp, lam, c, alpha, beta, 1j * eps, eps)
    for root in (1, 2):
        res = seed.seed_residual(root)
        if res > _SEED_TOL * max(1.0, abs(sp.z)):
            raise ExceptionalPointError(
                f"seed equations inconsistent (residual {res:.2e}); "
                "z is too close to the excluded value")
    return seed


# ===================================================================== #
#  phase and amplitude jets
# ===================================================================== #

@dataclass
class PhaseJet:
    """A phase jet with its gradient, Laplacian and exact eikonal residual."""
    jet: Jet
    root: int
    seed: PhaseSeed
    boundary_graph: Jet
    grad: list[Jet]
    lap: Jet
    eik: Jet                     # exact p_z(d phi), degree up to 2*order-2

    @property
    def jets(self) -> list[Jet]:
        """phi, its frame gradient, Laplacian and p_z(d phi), in that order."""
        return [self.jet, *self.grad, self.lap, self.eik]

    def phase_data(self, pts: np.ndarray, w: np.ndarray):
        """phi, frame gradient, laplacian and exact p_z(d phi) at frame
        coordinates ``w`` (the ambient ``pts`` are not needed)."""
        phi, grad, lap, rest = _value_grad_lap(eval_jets(self.jets, w),
                                               self.jet.dim)
        return phi, grad, lap, rest[0]


def _value_grad_lap(rows: np.ndarray, d: int):
    """A value, its (n, d) frame gradient and its Laplacian from the first
    d + 2 rows of an ``eval_jets`` result, and the rows after them."""
    return rows[0], rows[1:d + 1].T, rows[d + 1], rows[d + 2:]


def _amplitude_jets(amps: Sequence[Jet], h: float) -> list[Jet]:
    """a = sum h^n psi_n, its frame gradient and Laplacian, as jets."""
    d = amps[0].dim
    a = Jet.zero(amps[0].order, d)
    for n, psi in enumerate(amps):
        a = a + (h ** n) * psi
    grad = [a.diff(ax) for ax in range(d)]
    lap = sum((g.diff(ax) for ax, g in enumerate(grad)), Jet.zero(a.order, d))
    return [a, *grad, lap]


def _phi0_coeffs(seed: PhaseSeed, order: int) -> np.ndarray:
    """Boundary trace coefficients |X| (lambda t + M t^2 / 2); higher jets zero."""
    c = np.zeros(order + 1, dtype=complex)
    s = seed.sp.field_norm
    if order >= 1:
        c[1] = s * seed.lam
    if order >= 2:
        c[2] = s * seed.tangential_hessian / 2.0
    return c


def solve_eikonal_jet(seed: PhaseSeed, boundary_graph: Jet, order: int
                      ) -> tuple[PhaseJet, PhaseJet]:
    """Jets of both phases with eikonal coefficients zero through degree order-1."""
    if order < 2:
        raise ValueError("jet order must be at least 2")
    d = seed.frame.dimension
    z = seed.sp.z
    X_frame = seed.frame.components(seed.sp.X)

    out = []
    for root in (1, 2):
        xi = seed.covector_frame(root)
        lead = [2.0 * x + 1j * X for x, X in zip(xi, X_frame)]
        if abs(lead[0]) < 1e-12:
            raise ExceptionalPointError("normal transport coefficient vanishes")
        phi = Jet.zero(order, d)
        for ax, unit in enumerate(np.eye(d, dtype=int)):
            phi.coeffs[tuple(unit)] = xi[ax]
        _solve_slabs(phi, lambda p: _eikonal_value(p, X_frame, z), lead,
                     _phi0_coeffs(seed, order), boundary_graph, first=1)
        eik = _eikonal_value(Jet(phi.coeffs, 2 * order, d), X_frame, z)
        res = eik.max_coeff_through(order - 1)
        if res > 1e-10 * max(1.0, abs(z)):
            raise ExceptionalPointError(
                f"eikonal recursion singular (residual {res:.2e}); z is at or "
                "near the excluded value <X,nu>^2/4")
        grad = [phi.diff(ax) for ax in range(d)]
        lap = sum((g.diff(ax) for ax, g in enumerate(grad)), Jet.zero(order, d))
        out.append(PhaseJet(phi, root, seed, boundary_graph, grad, lap, eik))
    return out[0], out[1]


def _eikonal_value(phi: Jet, X_frame, z) -> Jet:
    """p_z(d phi) truncated at the order of ``phi``."""
    acc = Jet.constant(-z, phi.order, phi.dim)
    for ax in range(phi.dim):
        g = phi.diff(ax)
        acc = acc + g.mul(g) + (1j * X_frame[ax]) * g
    return acc


def _solve_slabs(jet: Jet, value, lead, trace, graph: Jet, first: int) -> Jet:
    """Fill the homogeneous slabs first+1..order of ``jet`` in place.

    Slab s is chosen so that the degree s-1 part of value(jet) vanishes;
    there value(jet) depends on slab s through lead = (A, B) times its
    (normal, tangential) derivative.  In d = 2 the pure-tangential
    coefficient is pinned first, so that the restriction of the jet to the
    boundary graph v1 = graph(t) has Taylor coefficient trace[s]; the
    normal chain of the slab is then back-substituted.
    """
    c = jet.coeffs
    A = lead[0]
    for s in range(first + 1, jet.order + 1):
        if jet.dim == 1:
            c[s] = -value(jet).coeffs[s - 1] / (A * s)
            continue
        c[0, s] = 0.0
        c[0, s] = trace[s] - complex(jet.compose_graph(graph).coeffs[s])
        e = value(jet).coeffs
        for m in range(s):
            n = s - 1 - m
            val = e[m, n]
            if m >= 1:
                val = val + lead[1] * (n + 1) * c[m, n + 1]
            c[m + 1, n] = -val / (A * (m + 1))
    return jet


def solve_transport_jet(phase: PhaseJet, n_max: int, order: int) -> list[Jet]:
    """Amplitude jets psi_0..psi_{n_max}; residual vanishes through degree order-2."""
    d = phase.jet.dim
    amp_order = order - 1
    seed = phase.seed
    X_frame = seed.frame.components(seed.sp.X)
    xi = seed.covector_frame(phase.root)
    lead = [-2j * x + X for x, X in zip(xi, X_frame)]
    if abs(lead[0]) < 1e-12:
        raise ExceptionalPointError("transport coefficient vanishes")

    grad_phi = phase.grad
    lap_phi = phase.lap
    zero_trace = np.zeros(amp_order + 1, dtype=complex)
    amps: list[Jet] = []
    prev: Optional[Jet] = None
    for n in range(n_max + 1):
        rhs = Jet.zero(amp_order, d) if prev is None else sum(
            (prev.diff(ax).diff(ax) for ax in range(d)), Jet.zero(amp_order, d))

        def transport_value(psi: Jet) -> Jet:
            acc = (-1j) * lap_phi.mul(psi, amp_order)
            for ax in range(d):
                acc = acc + (-2j) * grad_phi[ax].mul(psi.diff(ax), amp_order) \
                    + X_frame[ax] * psi.diff(ax)
            return acc - Jet(rhs.coeffs, amp_order, d)

        psi = Jet.constant(1.0 if n == 0 else 0.0, amp_order, d)
        _solve_slabs(psi, transport_value, lead, zero_trace,
                     phase.boundary_graph, first=0)
        amps.append(psi)
        prev = psi
    return amps


# ===================================================================== #
#  cutoff
# ===================================================================== #

@dataclass
class Cutoff:
    """Radial bump: 1 inside r_inner, smooth decay to 0 at r_outer."""

    r_inner: float
    r_outer: float

    def __post_init__(self):
        if not 0 < self.r_inner < self.r_outer:
            raise ValueError("need 0 < r_inner < r_outer")

    def derivatives(self, r: np.ndarray):
        """chi, chi', chi'' with respect to r."""
        r = np.asarray(r, dtype=float)
        dr = self.r_outer - self.r_inner
        s = (r - self.r_inner) / dr
        chi = np.where(s <= 0.0, 1.0, 0.0)
        d1 = np.zeros_like(chi)
        d2 = np.zeros_like(chi)
        mid = (s > 0.0) & (s < 1.0)
        sm = s[mid]
        om = 1.0 - sm ** 2
        chi[mid] = np.exp(1.0 - 1.0 / om)
        fp = -2.0 * sm / om ** 2
        fpp = -(2.0 + 6.0 * sm ** 2) / om ** 3
        d1[mid] = chi[mid] * fp / dr
        d2[mid] = chi[mid] * (fpp + fp ** 2) / dr ** 2
        return chi, d1, d2


# ===================================================================== #
#  quasimode
# ===================================================================== #

@dataclass
class Quasimode:
    sp: SpectralPoint
    frame: BoundaryFrame
    phases: tuple                      # (PhaseJet|CharacteristicPhase, ...)
    amplitudes: tuple                  # per phase, the jets psi_0..psi_{n_max}
    cutoff: Cutoff
    boundary_graph: Jet

    def __post_init__(self):
        # every jet fields() evaluates, stacked once: per phase the
        # PhaseJet's jets (none for a CharacteristicPhase), then its
        # amplitude's
        self._jets = []
        for phase, amps in zip(self.phases, self.amplitudes):
            if isinstance(phase, PhaseJet):
                self._jets += phase.jets
            self._jets += _amplitude_jets(amps, self.sp.h)

    @property
    def dim(self) -> int:
        return self.frame.dimension

    # -------------------------------------------------------------- #
    def _exp_phase(self, phi: np.ndarray) -> np.ndarray:
        ex = 1j * phi / self.sp.h
        return np.exp(np.clip(ex.real, -700.0, 700.0) + 1j * ex.imag)

    def fields(self, pts) -> tuple[np.ndarray, np.ndarray]:
        """u and (P - z) u at ``pts``, the latter by the exact
        differentiation identity, from one evaluation of every jet."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        w = self.frame.coords(pts)
        X_frame = self.frame.components(self.sp.X)
        r = np.linalg.norm(w, axis=1)
        chi, dchi, ddchi = self.cutoff.derivatives(r)
        u = np.zeros(pts.shape[0], dtype=complex)
        pz_u = np.zeros(pts.shape[0], dtype=complex)
        live = chi > 0.0
        if not np.any(live):
            return u, pz_u
        wl, pl = w[live], pts[live]
        h, d = self.sp.h, self.dim
        rl = np.maximum(r[live], 1e-300)
        grad_chi = dchi[live][:, None] * wl / rl[:, None]
        lap_chi = ddchi[live] + dchi[live] * (d - 1) / rl
        total = np.zeros(live.sum(), dtype=complex)
        acc = np.zeros(live.sum(), dtype=complex)
        rows = eval_jets(self._jets, wl)
        for phase, sign in zip(self.phases, (1.0, -1.0)):
            if isinstance(phase, PhaseJet):
                phi, gphi, lphi, rows = _value_grad_lap(rows, d)
                eik, rows = rows[0], rows[1:]
            else:
                phi, gphi, lphi, eik = phase.phase_data(pl, wl)
            a, ga, la, rows = _value_grad_lap(rows, d)
            expf = self._exp_phase(phi)
            total += sign * a * expf
            transport = np.zeros_like(a)
            for ax in range(d):
                transport += (-2j * gphi[:, ax] * ga[:, ax]
                              + X_frame[ax] * ga[:, ax])
            transport += -1j * lphi * a
            interior = a * eik + h * transport - h * h * la
            grad_v = ga + a[:, None] * (1j / h) * gphi
            comm = (-h * h * (lap_chi * a + 2 * np.einsum("pk,pk->p", grad_chi, grad_v))
                    + h * np.einsum("k,pk->p", X_frame, grad_chi) * a)
            acc += sign * (chi[live] * interior + comm) * expf
        u[live] = chi[live] * total
        pz_u[live] = acc
        return u, pz_u


def collar_check(phases, cutoff: Cutoff) -> bool:
    """Im(phi_i) > 0 for both phases on the boundary part of the cutoff
    collar and inside the support, at depths below the boundary graph
    (x0 itself, where phi = 0, is left out)."""
    frame = phases[0].seed.frame
    r_out = cutoff.r_outer
    depth = r_out * np.arange(1, _INTERIOR_DEPTHS + 1) / _INTERIOR_DEPTHS
    if frame.dimension == 1:
        w = -depth[:, None]      # the boundary near x0 is x0 itself
    else:
        graph = phases[0].boundary_graph
        ts = np.linspace(-r_out, r_out, _COLLAR_SAMPLES)
        g = graph.eval(ts).real
        r = np.hypot(g, ts)
        collar = np.column_stack([g, ts])[(r >= cutoff.r_inner) & (r <= r_out)]
        ti = np.linspace(-r_out, r_out, _INTERIOR_SAMPLES)
        inner = np.column_stack([
            (graph.eval(ti).real[None, :] - depth[:, None]).ravel(),
            np.tile(ti, _INTERIOR_DEPTHS)])
        w = np.vstack([collar, inner[np.hypot(*inner.T) <= r_out]])
    pts = frame.ambient(w)
    return not any(np.any(ph.phase_data(pts, w)[0].imag <= 0.0) for ph in phases)


def build_quasimode(domain, X, x0, z: complex, h: float,
                    order: int = 4, n_max: int = 0, eps: float = 1.0,
                    backend: str = "jet") -> Quasimode:
    """One-stop construction used by the CLI and the test fixtures.

    The cutoff radii start at 0.15 and 0.30 domain diameters and shrink
    until Im(phase) is positive on the collar and, on a polygon, the
    support stays clear of every edge but x0's.
    """
    sp = SpectralPoint(z, h, X)
    frame = boundary_frame(domain, X, x0)
    seed = phase_seed(frame, sp, eps=eps)
    graph = boundary_graph_jet(domain, frame, order)
    p1, p2 = solve_eikonal_jet(seed, graph, order)
    if backend == "jet":
        phases = (p1, p2)
    elif backend == "characteristic":
        phases = (CharacteristicPhase(domain, seed, 1),
                  CharacteristicPhase(domain, seed, 2))
    else:
        raise ValueError(f"unknown backend '{backend}'")
    amps = (solve_transport_jet(p1, n_max, order),
            solve_transport_jet(p2, n_max, order))
    diameter = domain.diameter()
    r_in, r_out = 0.15 * diameter, 0.30 * diameter
    cut = Cutoff(r_in, r_out)
    # on a polygon the graph is x0's edge, flat: the support must clear the rest
    while r_out > frame.clearance or not collar_check(phases, cut):
        r_in *= 0.75
        r_out *= 0.75
        if r_out < MIN_CUTOFF * diameter:
            raise CutoffError(
                f"x0 lies {frame.clearance:.3g} from another polygon edge"
                if frame.clearance < MIN_CUTOFF * diameter else
                "collar check failed down to negligible radii")
        cut = Cutoff(r_in, r_out)
    return Quasimode(sp, frame, phases, amps, cut, phases[0].boundary_graph)


# ===================================================================== #
#  residual quadrature
# ===================================================================== #

@dataclass
class ResidualReport:
    norm_u: float
    norm_pzu: float
    ratio: float
    norm_u_coarse: float
    norm_pzu_coarse: float


def _panel_edges(scale: float, extent: float) -> np.ndarray:
    """Doubling panels starting at ``scale``, width capped at
    ``_PANEL_CAP * scale``.

    The cap keeps every panel within a few oscillation wavelengths of the
    phase (which oscillates at scale h normally, sqrt(h) tangentially), so a
    fixed Gauss rule per panel resolves the integrand.
    """
    edges = [0.0]
    a = min(scale, extent)
    while edges[-1] < extent:
        edges.append(min(edges[-1] + a, extent))
        a = min(2.0 * a, _PANEL_CAP * scale)
    return np.asarray(edges)


def _edge_refined_panels(scale: float, extent: float, breakpoints: Sequence[float],
                         edge_scale: float) -> np.ndarray:
    """Doubling panels plus h-scale refinement opening from each breakpoint.

    The cutoff derivative switches on at the collar radii, multiplying a
    decay of rate ~1/edge_scale; panels must shrink to edge_scale there.
    """
    pts = set(np.round(_panel_edges(scale, extent), 15).tolist())
    for b in breakpoints:
        if not 0.0 < b < extent:
            continue
        step = edge_scale
        off = 0.0
        while off < 8.0 * scale:
            off += step
            step *= 2.0
            for val in (b - off, b + off):
                if 0.0 < val < extent:
                    pts.add(round(val, 15))
        pts.add(round(b, 15))
    edges = np.asarray(sorted(pts))
    keep = np.concatenate([[True], np.diff(edges) > 1e-12])
    return edges[keep]


def _gauss_on_panels(edges: np.ndarray, n: int):
    x0, w0 = np.polynomial.legendre.leggauss(n)
    xs, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        xs.append(0.5 * (b - a) * x0 + 0.5 * (a + b))
        ws.append(0.5 * (b - a) * w0)
    return np.concatenate(xs), np.concatenate(ws)


def _residual_norms(q: Quasimode, n_per_scale: int) -> tuple[float, float]:
    h = q.sp.h
    cut = q.cutoff
    ts = np.linspace(-cut.r_outer, cut.r_outer, 101)
    gmax = float(np.max(np.abs(q.boundary_graph.eval(ts).real)))
    depth = cut.r_outer + gmax + 1e-9
    w1, wt1 = _gauss_on_panels(_panel_edges(h, depth), n_per_scale)
    w1 = -w1                       # interior side of the straightened boundary
    if q.dim == 1:
        pts = q.frame.ambient(w1[:, None])
        wts = wt1
    else:
        w2_half, wt2_half = _gauss_on_panels(
            _edge_refined_panels(math.sqrt(h), cut.r_outer + 1e-9,
                                 (cut.r_inner, cut.r_outer), h), n_per_scale)
        w2 = np.concatenate([-w2_half[::-1], w2_half])
        wt2 = np.concatenate([wt2_half[::-1], wt2_half])
        W1, W2 = np.meshgrid(w1, w2, indexing="ij")
        g = q.boundary_graph.eval(W2.ravel()).real
        v1 = W1.ravel() + g            # shear back to frame coordinates
        pts = q.frame.ambient(np.column_stack([v1, W2.ravel()]))
        wts = np.outer(wt1, wt2).ravel()
    u, pu = q.fields(pts)
    nu = float(np.sqrt(np.sum(wts * np.abs(u) ** 2)))
    npu = float(np.sqrt(np.sum(wts * np.abs(pu) ** 2)))
    return nu, npu


def quasimode_residual(q: Quasimode) -> ResidualReport:
    """L2 norms of u and (P-z)u over the cutoff support, with refinement check."""
    nu0, npu0 = _residual_norms(q, _QUAD_POINTS)
    nu1, npu1 = _residual_norms(q, int(math.ceil(_QUAD_POINTS * _QUAD_REFINE)))
    if abs(nu1 - nu0) > _QUAD_MAX_REL_CHANGE * nu1 or \
       abs(npu1 - npu0) > _QUAD_MAX_REL_CHANGE * max(npu1, 1e-300):
        raise ResolutionError(
            f"quadrature under-resolved: ||u|| {nu0:.6e} -> {nu1:.6e}, "
            f"||P_z u|| {npu0:.6e} -> {npu1:.6e}")
    return ResidualReport(nu1, npu1, npu1 / nu1, nu0, npu0)


# ===================================================================== #
#  characteristic (analytic) phase backend, disks only
# ===================================================================== #

class _AnalyticBoundary:
    """Complex-analytic arc-length parametrization y -> x_b(y) of a circle
    near x0, with its first two derivatives, unit normal and normal
    derivative; the Disk is the only domain whose boundary it represents."""

    def __init__(self, domain, frame: BoundaryFrame):
        if not isinstance(domain, Disk):
            raise GeometryError("characteristic backend needs a Disk boundary")
        self.theta0 = 2.0 * math.pi * frame.t
        self.c = domain.center.astype(complex)
        self.r = domain.radius
        self.scale = 1.0 / domain.radius    # unit speed at y = 0

    def at(self, y):
        """x_b, x_b', x_b'', the normal and its derivative at y, from one
        cos/sin pair of the complex angle."""
        th = self.theta0 + self.scale * y
        cos, sin = np.cos(th), np.sin(th)
        normal = np.stack([cos, sin], axis=-1)
        turned = np.stack([-sin, cos], axis=-1)
        return (self.c[None, :] + self.r * normal,
                self.r * self.scale * turned,
                -self.r * self.scale ** 2 * normal,
                normal,
                self.scale * turned)


class _Ray(NamedTuple):
    """One ray of the characteristic chart, at boundary parameter y."""
    tb: np.ndarray     # tangential coordinate <x_b(y) - x0, tau>
    xb: np.ndarray     # x_b(y)
    xb1: np.ndarray    # x_b'(y)
    v: np.ndarray      # normal component of xi
    xi: np.ndarray     # covector d phi
    xip: np.ndarray    # its y-derivative
    c: np.ndarray      # ray direction 2 xi + iX


def _bdot(a, b):
    """Bilinear (unconjugated) dot along the last axis, of length 2."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]


class CharacteristicPhase:
    """Exact eikonal solution by flowing the boundary covector along rays.

    With constant X the bicharacteristics are straight complex lines
    x = x_b(y) + t (2 xi(y) + i X); the phase is phi_0(y) + t (2z - i<X, xi>)
    and d phi = xi(y), so p_z(x, d phi) = 0 holds identically.

    Everything at one y comes from one ray evaluation (``_ray``) on top of
    one boundary evaluation, so each Newton step of the chart inversion
    makes exactly one of each.

    The boundary x_b(y) is the analytic continuation of a circle, so only a
    Disk is supported; any other domain raises GeometryError.
    """

    def __init__(self, domain, seed: PhaseSeed, root: int):
        self.seed = seed
        self.root = root
        frame = seed.frame
        self.frame = frame
        self.bnd = _AnalyticBoundary(domain, frame)
        self.sp = seed.sp
        self.Xc = seed.sp.X.astype(complex)
        self.z = seed.sp.z
        self.tau = frame.tangent.astype(complex)
        self.x0 = frame.x0.astype(complex)
        self._diam = domain.diameter()
        self.boundary_graph = boundary_graph_jet(domain, frame, 8)
        if frame.dimension != 2:
            raise GeometryError("characteristic backend is two-dimensional only")
        # keep the square-root branch whose normal component at y = 0 is
        # nearer the seed's; the two roots are v and -i Xn/nn - v, not +-v
        y0 = np.array([0.0 + 0.0j])
        want = seed.sp.field_norm * (seed.alpha[root - 1] + 1j * seed.beta[root - 1])
        _, _, _, n0, _ = self.bnd.at(y0)
        nfac = _bdot(n0[0], self.frame.normal.astype(complex))

        def miss(branch):
            self._branch = branch
            return abs(self._ray(y0).v[0] * nfac - want)

        err, self._branch = min(((miss(b), b) for b in (1.0, -1.0)),
                                key=lambda e: e[0])
        if err > 1e-9 * max(1.0, abs(want)):
            raise OutOfChartError("failed to match the seed covector branch")

    # -------------------------------------------------------------- #
    def _ray(self, y) -> _Ray:
        """The ray at boundary parameter y, from one boundary evaluation.

        xi = u x_b' + v n, where u fixes the trace phi_0(t(y)) and v is the
        root of the eikonal quadratic nn v^2 + i Xn v + cc = 0 on the seed's
        branch; xi' follows by implicit differentiation.
        """
        xb, xb1, xb2, n, n1 = self.bnd.at(y)
        X = self.Xc[None, :]
        s = self.sp.field_norm
        lam, M = self.seed.lam, self.seed.tangential_hessian
        t = _bdot(xb - self.x0[None, :], self.tau)
        tp = _bdot(xb1, self.tau)
        tpp = _bdot(xb2, self.tau)
        dphi0 = s * (lam + M * t) * tp
        d2phi0 = s * (M * tp * tp + (lam + M * t) * tpp)
        gamma = _bdot(xb1, xb1)
        nn = _bdot(n, n)
        Xn = _bdot(X, n)
        Xt = _bdot(X, xb1)
        u = dphi0 / gamma
        cc = u * u * gamma + 1j * u * Xt - self.z
        disc = -Xn * Xn - 4.0 * nn * cc
        v = (-1j * Xn + self._branch * np.sqrt(disc)) / (2.0 * nn)
        xi = u[:, None] * xb1 + v[:, None] * n
        gamma_p = 2.0 * _bdot(xb1, xb2)
        nn_p = 2.0 * _bdot(n, n1)
        Xn_p = _bdot(X, n1)
        Xt_p = _bdot(X, xb2)
        up = (d2phi0 * gamma - dphi0 * gamma_p) / gamma ** 2
        cc_p = 2.0 * u * up * gamma + u * u * gamma_p + 1j * (up * Xt + u * Xt_p)
        # nn v^2 + i Xn v + cc = 0  =>  v' = -(nn' v^2 + i Xn' v + cc') / (2 nn v + i Xn)
        vp = -(nn_p * v * v + 1j * Xn_p * v + cc_p) / (2.0 * nn * v + 1j * Xn)
        xip = (up[:, None] * xb1 + u[:, None] * xb2
               + vp[:, None] * n + v[:, None] * n1)
        return _Ray(t, xb, xb1, v, xi, xip, 2.0 * xi + 1j * X)

    # -------------------------------------------------------------- #
    def _invert_chart(self, pts: np.ndarray):
        """Newton solve of x_b(y) + t c(y) = x for (t, y), vectorized.

        Each step makes one boundary evaluation and one ray evaluation at
        the current y; the ray at the final y is returned with t, so no
        caller evaluates it again.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float)).astype(complex)
        rel = pts - self.x0[None, :]
        y = rel @ self.tau                         # linearized start
        t = (rel @ self.frame.normal.astype(complex))
        c0 = self._ray(np.zeros(1, dtype=complex)).c[0]
        denom = c0 @ self.frame.normal.astype(complex)
        t = t / denom
        for it in range(_CHART_NEWTON_STEPS + 1):
            ray = self._ray(y)
            c = ray.c
            F = ray.xb + t[:, None] * c - pts
            err = np.max(np.abs(F), axis=1)
            if it == _CHART_NEWTON_STEPS or np.all(err < 1e-13):
                break
            j12 = ray.xb1 + t[:, None] * (2.0 * ray.xip)
            det = c[:, 0] * j12[:, 1] - c[:, 1] * j12[:, 0]
            dt = (F[:, 0] * j12[:, 1] - F[:, 1] * j12[:, 0]) / det
            dy = (c[:, 0] * F[:, 1] - c[:, 1] * F[:, 0]) / det
            step = np.maximum(np.abs(dt), np.abs(dy))
            damp = np.where(step > 0.5, 0.5 / np.maximum(step, 1e-300), 1.0)
            t = t - damp * dt
            y = y - damp * dy
        bad = err > 1e-9
        # Newton may converge to a non-local complex chart point; reject
        # solutions whose boundary angle or ray length leaves the collar
        angle = self.bnd.scale * y
        bad |= (np.abs(angle.real) > 2.0) | (np.abs(angle.imag) > 1.0)
        bad |= np.abs(t) * np.max(np.abs(c), axis=1) > 0.7 * self._diam
        if np.any(bad):
            raise OutOfChartError(
                f"chart inversion failed at {int(bad.sum())} points "
                "(outside the characteristic collar)")
        return t, ray

    def phase_data(self, pts: np.ndarray, w: Optional[np.ndarray] = None):
        """phi, frame gradient, laplacian, and p_z(d phi) (identically ~0) at
        the ambient ``pts`` (the frame coordinates ``w`` are not needed)."""
        t, ray = self._invert_chart(pts)
        xi, xip, c, tb = ray.xi, ray.xip, ray.c, ray.tb
        s = self.sp.field_norm
        phi0 = s * (self.seed.lam * tb + 0.5 * self.seed.tangential_hessian * tb * tb)
        phi = phi0 + t * (2.0 * self.z - 1j * _bdot(self.Xc[None, :], xi))
        grad = np.column_stack([xi @ self.frame.normal.astype(complex),
                                xi @ self.tau])
        j12 = ray.xb1 + 2.0 * t[:, None] * xip
        detJ = c[:, 0] * j12[:, 1] - c[:, 1] * j12[:, 0]
        lap = (c[:, 0] * xip[:, 1] - c[:, 1] * xip[:, 0]) / detJ
        pz = _bdot(xi, xi) + 1j * _bdot(self.Xc[None, :], xi) - self.z
        return phi, grad, lap, pz

    def transported_amplitude(self, pts: np.ndarray) -> np.ndarray:
        """Closed-form leading amplitude sqrt(det J(0) / det J(t)) along rays."""
        t, ray = self._invert_chart(pts)
        c, xb1, xip = ray.c, ray.xb1, ray.xip
        d0 = c[:, 0] * xb1[:, 1] - c[:, 1] * xb1[:, 0]
        d1 = 2.0 * (c[:, 0] * xip[:, 1] - c[:, 1] * xip[:, 0])
        return np.sqrt(d0 / (d0 + t * d1))
