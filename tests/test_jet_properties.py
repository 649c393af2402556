"""Property tests of ``jets.Jet``: truncated multiplication is associative,
and ``diff`` agrees with a central difference of ``eval``.

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

from pslab.jets import Jet

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
