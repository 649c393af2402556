"""Property tests of ``jets.Jet``: truncated multiplication is associative,
``diff`` agrees with a central difference of ``eval``, and ``eval_jets``
agrees with Horner's rule in ``numpy.polynomial``.

Both compare floating-point results against a bound derived from the
coefficient magnitudes, so the tolerances hold for every drawn jet rather
than for a lucky few.  Coefficients are drawn from zero or magnitudes in
[1e-6, 10], so no product underflows and every rounding error is relative.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.polynomial import polynomial as npoly

from pslab.jets import _BLOCK, Jet, eval_jets

ORDER = 5
EPS = np.finfo(float).eps

_parts = st.one_of(st.just(0.0), st.floats(1e-6, 10.0), st.floats(-10.0, -1e-6))


def _jets(dim: int, count: int):
    """``count`` complex jets of order ORDER in ``dim`` variables."""
    shape = (count, 2) + (ORDER + 1,) * dim
    return hnp.arrays(np.float64, shape, elements=_parts).map(
        lambda a: [Jet(re + 1j * im, ORDER, dim) for re, im in a])


def _abs(j: Jet) -> Jet:
    return Jet(np.abs(j.coeffs), j.order, j.dim)


def _monomials(dim: int) -> int:
    """Monomials of total degree <= ORDER: terms of one product coefficient."""
    return ORDER + 1 if dim == 1 else (ORDER + 1) * (ORDER + 2) // 2


@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mul_associative(dim, data):
    """(a b) c = a (b c) coefficient by coefficient, to 4 (N + 3) eps times
    the same product of the coefficient magnitudes, N = number of monomials.

    Truncation at total degree ORDER is exact (a degree-ORDER coefficient
    of a product only sees coefficients of degree <= ORDER), so the sides
    differ by rounding alone.  One product coefficient is a sum of at most
    N complex products, each within sqrt(5) u < 3u of exact, summed with
    error at most (N - 1) u, u = eps / 2: each product is within (N + 2) u
    of exact, measured against the product of magnitudes.  Two nested
    products per side, the inner error carried through the outer product,
    bound each side by 2 (N + 3) u + O(u^2); the two sides together by
    4 (N + 3) u, and 4 (N + 3) eps leaves a factor of two to spare.
    """
    a, b, c = data.draw(_jets(dim, 3))
    left = a.mul(b).mul(c).coeffs
    right = a.mul(b.mul(c)).coeffs
    bound = _abs(a).mul(_abs(b)).mul(_abs(c)).coeffs
    tol = 4 * (_monomials(dim) + 3) * EPS
    assert np.all(np.abs(left - right) <= tol * bound)


@pytest.mark.parametrize("dim, axis", [(1, 0), (2, 0), (2, 1)])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_diff_matches_central_difference(dim, axis, data):
    """diff(axis).eval equals (eval(x + d e) - eval(x - d e)) / 2d to
    S (K^3 d^2 / 6 + 4 K eps / d + 4 K^2 eps), S = sum of |coefficients|,
    K = ORDER, d = 1e-5, at points with coordinates in [-1/2, 1/2].

    - Truncation: by Taylor's formula with integral remainder, which holds
      for complex values, the central difference is off by at most d^2 / 6
      times the largest third derivative on the stencil.  Coordinates stay
      below 1 in size, where each monomial's third derivative is at most
      K^3 times its coefficient, so that derivative is at most K^3 S.
    - Rounding in eval: Horner in each variable, nested in d = 2, makes at
      most 4K roundings of partial sums bounded by S, so eval is within
      4 K u S of exact (u = eps / 2); the difference quotient turns two
      such errors, plus the rounding of x + d e, into about 4 K u S / d.
    - Rounding in diff(axis).eval: the same Horner bound on coefficients
      scaled by at most K, so 4 K^2 u S.
    Writing eps for u in the rounding terms leaves a factor of two to spare.
    """
    (jet,) = data.draw(_jets(dim, 1))
    pts = data.draw(hnp.arrays(np.float64, (8, dim),
                               elements=st.floats(-0.5, 0.5)))
    d = 1e-5
    step = np.zeros(dim)
    step[axis] = d
    fd = (jet.eval(*(pts + step).T) - jet.eval(*(pts - step).T)) / (2 * d)
    K = ORDER
    S = np.abs(jet.coeffs).sum()
    tol = S * (K ** 3 * d ** 2 / 6 + 4 * K * EPS / d + 4 * K ** 2 * EPS)
    assert np.all(np.abs(jet.diff(axis).eval(*pts.T) - fd) <= tol)


def _horner(coeffs: np.ndarray, pts: np.ndarray) -> np.ndarray:
    if coeffs.ndim == 1:
        return npoly.polyval(pts[:, 0], coeffs)
    return npoly.polyval2d(pts[:, 0], pts[:, 1], coeffs)


@pytest.mark.parametrize("dim", [1, 2])
@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(data=st.data())
def test_eval_jets_matches_horner(dim, data):
    """Each row of eval_jets equals Horner's rule (polyval / polyval2d) on
    that jet to (M + 5 D) eps S, at 0, 1, B - 1, B and B + 1 points for
    the block size B; D is the largest order of the stacked jets (2 to 12),
    M the number of monomials of degree <= D, and S = sum |c| |x|^k, the
    jet's Horner value on |coefficients| at |coordinates|.

    - eval_jets: x^k is k - 1 products (cumprod), and x^i y^j one more, so
      each basis value is within D u of exact, relatively (u = eps / 2).
      A value's real and imaginary parts are each an M-term dot product of
      real coefficients with the basis, within M u of exact in any
      summation order, against the same sums of magnitudes: in all
      sqrt(2) (M + D) u S.
    - Horner: in d = 1, K steps each of a complex-by-real product and a
      complex sum put each part within 2 K u of exact; polyval2d nests two
      such passes, 4 K u.  With K <= D, sqrt(2) 4 D u S for both parts.
    The two sides together are within sqrt(2) (M + 5 D) u S, and the
    assertion's (M + 5 D) eps S leaves a factor sqrt(2) to spare.
    """
    orders = data.draw(st.lists(st.integers(2, 12), min_size=1, max_size=3))
    jets = [data.draw(hnp.arrays(np.float64, (2,) + (k + 1,) * dim,
                                 elements=_parts).map(
        lambda a, k=k: Jet(a[0] + 1j * a[1], k, dim))) for k in orders]
    n = data.draw(st.sampled_from([0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1]))
    scale = data.draw(st.floats(0.1, 1.5))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    pts = rng.uniform(-scale, scale, (n, dim))
    vals = eval_jets(jets, pts)
    assert vals.shape == (len(jets), n)
    top = max(orders)
    M = top + 1 if dim == 1 else (top + 1) * (top + 2) // 2
    for jet, row in zip(jets, vals):
        S = _horner(np.abs(jet.coeffs), np.abs(pts))
        assert np.all(np.abs(row - _horner(jet.coeffs, pts))
                      <= (M + 5 * top) * EPS * S)
