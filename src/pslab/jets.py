"""Truncated multivariate power series (jets) with complex coefficients.

A jet of order K in d variables (d = 1 or 2) stores the coefficient array of
a polynomial truncated at total degree K.  Coefficients live in a dense
``(K+1,)*d`` complex array indexed by exponent; entries with total degree
above K are kept at zero.  Arithmetic is exact on the stored coefficients;
multiplication truncates back to the jet order unless asked not to.

``eval_jets`` evaluates a list of jets at real points in one pass: per block
of ``_BLOCK`` points it builds the M monomials of total degree <= D once (D
the largest order; M = (D+1)(D+2)/2 in d = 2, 45 at D = 8), each power as
the product of the one below and the coordinate.  The jets of one order K
share one matmul of their stacked coefficients with the first M_K
monomials, real and imaginary parts as two real matmuls.  Each value is
within sqrt(2) (M + D) u sum |c| |x|^k of exact (u = eps / 2) in any
summation order the BLAS picks; ``tests/test_jet_properties.py`` checks
it against Horner's rule.  ``Jet.eval`` is that evaluator on one jet.
"""

from __future__ import annotations

import numpy as np

# points per monomial basis block of eval_jets.  A quasimode of order 4 to
# 6 stacks at most 8 jets of one order, so each of its matmuls stays below
# OpenBLAS's threading cutoff of 262,144 multiply-adds and runs on the
# calling thread: on a 2-core box shared with another process, BLAS worker
# threads made the residual 2 to 8 times slower
_BLOCK = 1024


def _total_degree_mask(order: int, dim: int, shape: tuple) -> np.ndarray:
    if dim == 1:
        idx = np.arange(shape[0])
        return idx <= order
    i, j = np.indices(shape)
    return (i + j) <= order


class Jet:
    """Polynomial truncated at total degree ``order`` in ``dim`` variables."""

    __slots__ = ("coeffs", "order", "dim")

    def __init__(self, coeffs: np.ndarray, order: int, dim: int):
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.ndim != dim:
            raise ValueError(f"coefficient array must be {dim}-dimensional")
        self.order = int(order)
        self.dim = int(dim)
        full = np.zeros((order + 1,) * dim, dtype=complex)
        sl = tuple(slice(0, min(s, order + 1)) for s in coeffs.shape)
        full[sl] = coeffs[sl]
        full[~_total_degree_mask(order, dim, full.shape)] = 0.0
        self.coeffs = full

    # ------------------------------------------------------------------ #
    @classmethod
    def zero(cls, order: int, dim: int) -> "Jet":
        return cls(np.zeros((order + 1,) * dim), order, dim)

    @classmethod
    def constant(cls, value: complex, order: int, dim: int) -> "Jet":
        j = cls.zero(order, dim)
        j.coeffs[(0,) * dim] = value
        return j

    @classmethod
    def variable(cls, axis: int, order: int, dim: int) -> "Jet":
        j = cls.zero(order, dim)
        idx = [0] * dim
        idx[axis] = 1
        j.coeffs[tuple(idx)] = 1.0
        return j

    # ------------------------------------------------------------------ #
    def copy(self) -> "Jet":
        return Jet(self.coeffs.copy(), self.order, self.dim)

    def __add__(self, other):
        if np.isscalar(other):
            out = self.copy()
            out.coeffs[(0,) * self.dim] += other
            return out
        order = min(self.order, other.order)
        a = Jet(self.coeffs, order, self.dim)
        a.coeffs += Jet(other.coeffs, order, self.dim).coeffs
        return a

    __radd__ = __add__

    def __neg__(self):
        out = self.copy()
        out.coeffs = -out.coeffs
        return out

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if np.isscalar(other):
            out = self.copy()
            out.coeffs = out.coeffs * other
            return out
        return self.mul(other)

    __rmul__ = __mul__

    def mul(self, other: "Jet", order: int | None = None) -> "Jet":
        """Product, truncated at ``order`` (defaults to min of the operand orders)."""
        if order is None:
            order = min(self.order, other.order)
        if self.dim == 1:
            c = np.convolve(self.coeffs, other.coeffs)
        else:
            c = _conv2(self.coeffs, other.coeffs)
        return Jet(c, order, self.dim)

    def diff(self, axis: int = 0) -> "Jet":
        """Partial derivative along ``axis``; order drops by one degree of content."""
        c = self.coeffs
        if self.dim == 1:
            d = c[1:] * np.arange(1, c.shape[0])
        else:
            if axis == 0:
                d = c[1:, :] * np.arange(1, c.shape[0])[:, None]
            else:
                d = c[:, 1:] * np.arange(1, c.shape[1])[None, :]
        return Jet(d, self.order, self.dim)

    def eval(self, *points) -> np.ndarray:
        """Evaluate at real points; each argument is an array of one
        coordinate, and the result has their shape."""
        coords = [np.asarray(p, dtype=float) for p in points]
        pts = np.stack([c.ravel() for c in coords], axis=-1)
        return eval_jets([self], pts)[0].reshape(coords[0].shape)[()]

    def compose_graph(self, g: "Jet") -> "Jet":
        """Restrict a 2-variable jet to the curve v1 = g(t), v2 = t.

        ``g`` is a 1-variable jet in t; the result is a 1-variable jet in t
        of the same order as self.
        """
        if self.dim != 2:
            raise ValueError("graph composition needs a 2-variable jet")
        order = self.order
        out = np.zeros(order + 1, dtype=complex)
        gpow = np.zeros(order + 1, dtype=complex)
        gpow[0] = 1.0  # g^0
        for m in range(self.coeffs.shape[0]):
            row = self.coeffs[m, :order + 1]          # coefficients of v2^n at v1^m
            contrib = np.convolve(gpow, row)[:order + 1]
            out += contrib
            gpow = np.convolve(gpow, g.coeffs)[:order + 1]
        return Jet(out, order, 1)

    def max_coeff_through(self, degree: int) -> float:
        """Largest coefficient magnitude among terms of total degree <= degree."""
        mask = _total_degree_mask(degree, self.dim, self.coeffs.shape)
        return float(np.abs(self.coeffs[mask]).max()) if mask.any() else 0.0


def eval_jets(jets, pts) -> np.ndarray:
    """(J, n) values of the J jets, all in d variables, at the real (n, d)
    points: one monomial basis per block of points serves every jet."""
    coords = np.asarray(pts, dtype=float).T.copy()      # (d, n)
    dim, n = coords.shape
    top = max(j.order for j in jets)
    # monomials by total degree t, x^t first within a degree: a jet of
    # order K needs only the first M_K of them
    exps = (np.arange(top + 1),) if dim == 1 else tuple(np.array(
        [(t - m, m) for t in range(top + 1) for m in range(t + 1)]).T)
    groups = []                  # jets of one order share one matmul
    for order in sorted({j.order for j in jets}):
        rows = [r for r, j in enumerate(jets) if j.order == order]
        size = order + 1 if dim == 1 else (order + 1) * (order + 2) // 2
        coef = np.array([jets[r].coeffs[tuple(e[:size] for e in exps)]
                         for r in rows])
        groups.append((rows, size, coef.real.copy(), coef.imag.copy()))
    out = np.empty((len(jets), n), dtype=complex)
    for lo in range(0, n, _BLOCK):
        x = coords[:, lo:lo + _BLOCK]
        powers = np.empty((dim, top + 1, x.shape[1]))   # powers[a, k] = x_a^k
        powers[:, 0] = 1.0
        for k in range(1, top + 1):
            np.multiply(powers[:, k - 1], x, out=powers[:, k])
        basis = powers[0] if dim == 1 else np.concatenate(
            [powers[0, t::-1] * powers[1, :t + 1] for t in range(top + 1)])
        for rows, size, re, im in groups:
            out.real[rows, lo:lo + _BLOCK] = re @ basis[:size]
            out.imag[rows, lo:lo + _BLOCK] = im @ basis[:size]
    return out


def _conv2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1),
                   dtype=complex)
    for i in range(a.shape[0]):
        row = a[i]
        if not row.any():
            continue
        for j in range(a.shape[1]):
            if row[j] != 0.0:
                out[i:i + b.shape[0], j:j + b.shape[1]] += row[j] * b
    return out

