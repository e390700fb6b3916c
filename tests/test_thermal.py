import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermalquench.combinatorics import eulerian_row_recursive
from thermalquench.thermal import (
    ThermalParams,
    bose_coefficient,
    bose_derivative,
    dispersion,
    shifted_beta,
)

positive_beta = st.floats(min_value=0.05, max_value=20.0)
positive_eps = st.floats(min_value=0.05, max_value=20.0)


class TestParams:
    def test_valid(self):
        p = ThermalParams(beta=1.0, m_sq=1.0, m0_sq=1.0, lam=0.5)
        assert p.mass_shift == 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(beta=0.0, m_sq=1.0),
            dict(beta=-1.0, m_sq=1.0),
            dict(beta=1.0, m_sq=0.0),
            dict(beta=1.0, m_sq=1.0, m0_sq=2.0, lam=-0.6),  # tachyonic shift
            dict(beta=math.inf, m_sq=1.0),
            dict(beta=1.0, m_sq=math.inf),
            dict(beta=1.0, m_sq=1.0, m0_sq=math.inf, lam=0.1),
            dict(beta=1.0, m_sq=1.0, m0_sq=1.0, lam=math.nan),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ThermalParams(**kwargs)


class TestDispersion:
    def test_lambda_zero_collapse(self):
        d = dispersion(0.0, ThermalParams(beta=1.0, m_sq=1.0))
        assert d.eps == 1.0 and d.eps_lambda == 1.0

    def test_shifted_value(self):
        # direct evaluation of the defining square roots
        d = dispersion(0.0, ThermalParams(beta=1.0, m_sq=1.0, m0_sq=1.0, lam=0.5))
        assert d.eps == 1.0
        assert d.eps_lambda == pytest.approx(math.sqrt(1.5), abs=0.0)

    def test_pythagorean(self):
        d = dispersion(3.0, ThermalParams(beta=1.0, m_sq=16.0))
        assert d.eps == 5.0 and d.eps_lambda == 5.0

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            dispersion(-1.0, ThermalParams(beta=1.0, m_sq=1.0))

    def test_array_input(self):
        d = dispersion(np.array([0.0, 3.0]), ThermalParams(beta=1.0, m_sq=16.0))
        assert np.allclose(d.eps, [4.0, 5.0])


class TestBoseCoefficient:
    def test_direct_value(self):
        # 1 / (1 - exp(-1)), evaluated from the definition
        expected = 1.0 / (1.0 - math.exp(-1.0))
        assert bose_coefficient(+1, 1.0, 1.0) == pytest.approx(expected, rel=1e-15)

    @given(beta=positive_beta, eps=positive_eps)
    def test_difference_is_one(self, beta, eps):
        bp = bose_coefficient(+1, beta, eps)
        bm = bose_coefficient(-1, beta, eps)
        assert bp - bm == pytest.approx(1.0, abs=1e-12 * max(1.0, bp))

    @given(beta=positive_beta, eps=positive_eps)
    def test_detailed_balance(self, beta, eps):
        bp = bose_coefficient(+1, beta, eps)
        bm = bose_coefficient(-1, beta, eps)
        assert bm == pytest.approx(math.exp(-beta * eps) * bp, rel=1e-13)

    def test_zero_temperature_limit(self):
        assert bose_coefficient(+1, 800.0, 1.0) == 1.0
        assert bose_coefficient(-1, 800.0, 1.0) == 0.0

    def test_no_overflow_far_regime(self):
        assert bose_coefficient(-1, 1e6, 1.0) == 0.0
        assert bose_coefficient(+1, 1e-8, 1.0) == pytest.approx(1e8, rel=1e-6)

    def test_bad_sign(self):
        with pytest.raises(ValueError):
            bose_coefficient(0, 1.0, 1.0)

    def test_nonpositive_product(self):
        with pytest.raises(ValueError):
            bose_coefficient(+1, 1.0, 0.0)

    def test_underflowing_product_is_a_breakdown(self):
        # positive inputs whose product rounds to 0: not bad input
        with pytest.raises(FloatingPointError, match="underflow"):
            bose_coefficient(+1, 1e-323, 0.03)
        with pytest.raises(ValueError):
            bose_coefficient(+1, np.array([1e-323, -1.0]), 0.03)


def richardson_derivative(f, x, n, h0, levels=5):
    """Independent finite-difference oracle for the derivative tower."""
    def central(h):
        return sum(
            (-1) ** i * math.comb(n, i) * f(x + (n / 2.0 - i) * h) for i in range(n + 1)
        ) / h**n

    table = [[central(h0 / 2**j)] for j in range(levels)]
    for m in range(1, levels):
        for j in range(m, levels):
            table[j].append((4.0**m * table[j][m - 1] - table[j - 1][m - 1]) / (4.0**m - 1.0))
    return table[-1][-1]


class TestBoseDerivative:
    def test_first_order_closed_form(self):
        bp = bose_coefficient(+1, 1.0, 1.0)
        bm = bose_coefficient(-1, 1.0, 1.0)
        assert bose_derivative(1, +1, 1.0, 1.0) == pytest.approx(-bp * bm, rel=1e-15)

    def test_second_order_closed_form(self):
        beta, eps = 0.7, 1.3
        bp = bose_coefficient(+1, beta, eps)
        bm = bose_coefficient(-1, beta, eps)
        expected = eps**2 * (bp**2 * bm + bp * bm**2)
        assert bose_derivative(2, +1, beta, eps) == pytest.approx(expected, rel=1e-14)

    def test_order_zero_is_coefficient(self):
        assert bose_derivative(0, -1, 2.0, 0.5) == bose_coefficient(-1, 2.0, 0.5)

    @pytest.mark.parametrize("beta,eps", [(1.0, 1.0), (0.5, 2.0), (2.0, 0.7)])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_finite_difference_oracle(self, beta, eps, n):
        h0 = min(beta / 4.0, 0.4 / eps)
        approx = richardson_derivative(lambda b: bose_coefficient(+1, b, eps), beta, n, h0)
        exact = bose_derivative(n, +1, beta, eps)
        assert exact == pytest.approx(approx, rel=1e-6)

    @given(n=st.integers(min_value=1, max_value=10), beta=positive_beta, eps=positive_eps)
    @settings(max_examples=50)
    def test_sign_independent_beyond_zeroth(self, n, beta, eps):
        plus = bose_derivative(n, +1, beta, eps)
        minus = bose_derivative(n, -1, beta, eps)
        assert plus == minus

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_eulerian_weighted_polynomial(self, n):
        # independent route: weight the (b+, b-) monomials by the Eulerian row
        beta, eps = 0.8, 1.1
        bp = bose_coefficient(+1, beta, eps)
        bm = bose_coefficient(-1, beta, eps)
        row = eulerian_row_recursive(n).coefficients
        expected = (-eps) ** n * sum(
            c * bp ** (n + 1 - k) * bm**k for k, c in enumerate(row, start=1)
        )
        assert bose_derivative(n, +1, beta, eps) == pytest.approx(expected, rel=1e-13)

    def test_cap(self):
        with pytest.raises(ValueError):
            bose_derivative(17, +1, 1.0, 1.0)
        with pytest.raises(ValueError):
            bose_derivative(-1, +1, 1.0, 1.0)


class TestShiftedBeta:
    def test_unperturbed(self):
        p = ThermalParams(beta=1.3, m_sq=1.0)
        assert shifted_beta(p, dispersion(0.7, p)) == p.beta

    @given(
        beta=positive_beta,
        m_sq=st.floats(min_value=0.1, max_value=10.0),
        shift=st.floats(min_value=0.0, max_value=5.0),
        k=st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(max_examples=200)
    def test_product_identity(self, beta, m_sq, shift, k):
        # algebraic oracle: eps + shift/(eps + eps_lambda) = eps_lambda
        p = ThermalParams(beta=beta, m_sq=m_sq, m0_sq=shift, lam=1.0)
        d = dispersion(k, p)
        bp = shifted_beta(p, d)
        lhs = bp * d.eps
        rhs = beta * d.eps_lambda
        assert abs(lhs - rhs) <= 1e-14 * max(1.0, abs(rhs))

    def test_coefficient_transport_grid(self):
        # two independent evaluations of bose_coefficient must coincide
        for k in np.linspace(0.0, 5.0, 10):
            for lam in np.linspace(0.0, 0.9, 10):
                p = ThermalParams(beta=1.0, m_sq=1.0, m0_sq=1.0, lam=float(lam))
                d = dispersion(float(k), p)
                bp = shifted_beta(p, d)
                for sign in (+1, -1):
                    lhs = bose_coefficient(sign, bp, d.eps)
                    rhs = bose_coefficient(sign, p.beta, d.eps_lambda)
                    assert abs(lhs - rhs) <= 1e-12
