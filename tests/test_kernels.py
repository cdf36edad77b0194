import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from gphazard.errors import DomainError, NumericError
from gphazard.kernels import StationaryKernel, check_a1, check_sublinear_integral


class TestEvaluation:
    def test_se_values(self):
        k = StationaryKernel.se(lengthscale=1.0)
        assert k(0.0) == 1.0
        assert_allclose(k(1.0), math.exp(-1.0), rtol=0, atol=1e-15)
        assert_allclose(k(2.0), math.exp(-4.0), rtol=0, atol=1e-15)

    def test_ou_values(self):
        k = StationaryKernel.ou(lengthscale=2.0, variance=3.0)
        assert k(0.0) == 3.0
        assert_allclose(k(2.0), 3.0 * math.exp(-1.0), rtol=1e-15)

    def test_vectorized_shape(self):
        k = StationaryKernel.se()
        t = np.linspace(0, 5, 11)
        assert np.asarray(k(t)).shape == (11,)

    def test_negative_argument_rejected(self):
        k = StationaryKernel.se()
        with pytest.raises(DomainError):
            k(-0.1)

    @pytest.mark.parametrize("make", [StationaryKernel.se, StationaryKernel.ou])
    @pytest.mark.parametrize("ell", [0.1, 0.5, 1.0, 3.0, 10.0])
    def test_nonincreasing_on_grid(self, make, ell):
        k = make(lengthscale=ell)
        vals = np.asarray(k(np.linspace(0, 20, 401)))
        assert np.all(np.diff(vals) <= 1e-15)

    def test_gap_from_zero_matches_direct_subtraction(self):
        k = StationaryKernel.ou(lengthscale=1.0)
        # regime where direct subtraction is still accurate
        for t in (0.5, 0.125, 1e-4):
            assert_allclose(k.gap_from_zero(t), k.kappa0 - k(t), rtol=1e-8)

    def test_gap_from_zero_resolves_tiny_gaps(self):
        # at n = 40 the SE gap is ~8e-25, far below 1 ulp of kappa(0)
        k = StationaryKernel.se(lengthscale=1.0)
        gap = k.gap_from_zero(2.0 ** -40)
        assert gap > 0
        assert_allclose(gap, (2.0 ** -40) ** 2, rtol=1e-9)


class TestInverseIncrementCheck:
    def test_se_first_row(self):
        rep = check_a1(StationaryKernel.se(), n_max=1)
        row = rep.rows[0]
        assert_allclose(row.gap, 1.0 - math.exp(-0.25), rtol=1e-14)
        assert_allclose(row.inverse, 1.0 / (1.0 - math.exp(-0.25)), rtol=1e-14)
        assert row.threshold == 1.0
        assert row.passed

    def test_se_unit_lengthscale_fails_small_n_recovers_at_ten(self):
        # literal per-n inequality: 4^n vs n^6 loses on n = 2..9
        rep = check_a1(StationaryKernel.se(), n_max=20)
        failed = [r.n for r in rep.rows if not r.passed]
        assert failed == [2, 3, 4, 5, 6, 7, 8, 9]
        assert not rep.all_pass
        assert rep.holds_from == 10
        assert rep.eventually_ok

    def test_ou_unit_lengthscale_recovers_at_thirty(self):
        rep = check_a1(StationaryKernel.ou(), n_max=40)
        assert not rep.all_pass
        assert rep.holds_from == 30
        assert rep.eventually_ok

    def test_long_lengthscale_se_passes_every_n(self):
        rep = check_a1(StationaryKernel.se(lengthscale=4.5), n_max=40)
        assert rep.all_pass
        assert rep.holds_from == 1

    def test_constant_kernel_degenerate_everywhere(self):
        rep = check_a1(StationaryKernel.constant(), n_max=10)
        assert all(r.degenerate and not r.passed for r in rep.rows)
        assert not rep.all_pass
        assert rep.holds_from is None
        assert not rep.eventually_ok

    def test_bad_nmax_rejected(self):
        with pytest.raises(DomainError):
            check_a1(StationaryKernel.se(), n_max=0)


class TestSublinearIntegral:
    def test_se_ratios_match_gaussian_integral(self):
        rep = check_sublinear_integral(StationaryKernel.se(), horizons=(10.0, 100.0))
        half_sqrt_pi = math.sqrt(math.pi) / 2.0
        assert_allclose(rep.rows[0].ratio, half_sqrt_pi / 10.0, rtol=1e-8)
        assert_allclose(rep.rows[1].ratio, half_sqrt_pi / 100.0, rtol=1e-8)
        assert rep.passed

    def test_ou_ratios(self):
        rep = check_sublinear_integral(StationaryKernel.ou(), horizons=(10.0, 100.0))
        assert_allclose(rep.rows[0].ratio, (1.0 - math.exp(-10.0)) / 10.0, rtol=1e-8)
        assert_allclose(rep.rows[1].ratio, (1.0 - math.exp(-100.0)) / 100.0, rtol=1e-8)
        assert rep.passed

    @pytest.mark.parametrize("kernel", [
        StationaryKernel.se(lengthscale=0.3, variance=2.0),
        StationaryKernel.ou(lengthscale=4.0, variance=0.5),
        StationaryKernel.constant(variance=0.1),
        StationaryKernel("tabulated", table_t=(0.0, 1.0, 3.0), table_k=(1.0, 0.5, 0.1)),
    ], ids=["se", "ou", "constant", "tabulated"])
    def test_integrals_match_quadrature(self, kernel):
        horizons = (0.5, 1.0, 2.0, 3.0, 10.0, 100.0)  # below, on and past the table's breakpoints
        rep = check_sublinear_integral(kernel, horizons=horizons)
        for row in rep.rows:
            inside = [t for t in kernel.table_t if 0.0 < t < row.horizon] or None
            oracle, _ = quad(lambda t: float(kernel(t)), 0.0, row.horizon, points=inside,
                             limit=200, epsabs=0.0, epsrel=1e-13)
            assert_allclose(row.integral, oracle, rtol=1e-12)
            assert_allclose(row.ratio, oracle / row.horizon, rtol=1e-12)

    @pytest.mark.parametrize("variance", [0.1, 0.3, 0.41932550412258496, 7.299257909835141])
    def test_constant_kernel_fails_at_any_variance(self, variance):
        # a flat ratio must not read as decreasing through rounding
        assert not check_sublinear_integral(StationaryKernel.constant(variance=variance)).passed

    def test_infinite_variance_raises(self):
        with pytest.raises(NumericError):
            check_sublinear_integral(StationaryKernel.se(variance=math.inf))

    def test_constant_kernel_fails(self):
        rep = check_sublinear_integral(StationaryKernel.constant(variance=2.0))
        assert_allclose([r.ratio for r in rep.rows], 2.0, rtol=1e-12)
        assert not rep.passed

    @pytest.mark.parametrize("make", [StationaryKernel.se, StationaryKernel.ou])
    @pytest.mark.parametrize("ell", [0.1, 0.5, 1.0, 3.0, 10.0])
    def test_passes_across_lengthscales(self, make, ell):
        assert check_sublinear_integral(make(lengthscale=ell), horizons=(1.0, 10.0, 100.0)).passed

    def test_needs_two_increasing_horizons(self):
        with pytest.raises(DomainError):
            check_sublinear_integral(StationaryKernel.se(), horizons=(10.0,))
        with pytest.raises(DomainError):
            check_sublinear_integral(StationaryKernel.se(), horizons=(10.0, 5.0))


class TestTabulated:
    def _write(self, tmp_path, text):
        path = tmp_path / "kernel.csv"
        path.write_text(text)
        return path

    def test_round_trip_and_interpolation(self, tmp_path):
        path = self._write(tmp_path, "t,kappa\n0.0,1.0\n1.0,0.5\n2.0,0.25\n")
        k = StationaryKernel.from_csv(path)
        assert k.kappa0 == 1.0
        assert_allclose(k(0.5), 0.75)
        assert_allclose(k(1.5), 0.375)
        # beyond the table the value clamps to the last row
        assert_allclose(k(10.0), 0.25)

    def test_header_required(self, tmp_path):
        path = self._write(tmp_path, "0.0,1.0\n1.0,0.5\n")
        with pytest.raises(DomainError, match="header"):
            StationaryKernel.from_csv(path)

    def test_bad_row_reported_with_number(self, tmp_path):
        path = self._write(tmp_path, "t,kappa\n0.0,1.0\n1.0,oops\n")
        with pytest.raises(DomainError, match="line 3"):
            StationaryKernel.from_csv(path)

    def test_must_start_at_zero_and_increase(self, tmp_path):
        path = self._write(tmp_path, "t,kappa\n0.5,1.0\n1.0,0.5\n")
        with pytest.raises(DomainError):
            StationaryKernel.from_csv(path)
        path = self._write(tmp_path, "t,kappa\n0.0,1.0\n0.0,0.5\n")
        with pytest.raises(DomainError):
            StationaryKernel.from_csv(path)

    def test_checkers_accept_tabulated(self, tmp_path):
        # a coarse table of the OU kernel still passes the sublinear check
        t = np.linspace(0, 200, 2001)
        rows = "\n".join(f"{a},{math.exp(-a)}" for a in t)
        path = self._write(tmp_path, "t,kappa\n" + rows + "\n")
        k = StationaryKernel.from_csv(path)
        assert check_sublinear_integral(k, horizons=(10.0, 100.0)).passed
