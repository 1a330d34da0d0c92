import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from nlgap.extrapolation import (check_extrapolation,
                                 check_nonconcentrated, constants, nonconc_ell,
                                 nonconc_params, one_sided_gamma,
                                 verdict_from_gammas)
from nlgap.graphs import (cheeger_exact, cheeger_lower_bound, complete_graph, prism_graph,
                          random_connected_regular, spectrum)
from nlgap.metrics import random_euclidean_metric, snowflake, uniform_metric
from nlgap.poincare import (VertexMap, dirichlet, empirical_average, gamma_exact,
                            gamma_of_map)


class TestConstants:
    def test_equal_exponents_c2(self):
        d, h, p = 3, 1.0, 2.0
        c = constants(d, h, p, p)
        expected = math.log(24) + math.log(d) + p * math.log(5) \
            + p * math.log(88 * p * (d / h) ** 2)
        assert c.log_c2 == pytest.approx(expected)

    def test_c4_value(self):
        c = constants(3, 1.0, 1, 2)
        assert math.exp(c.log_c4) == pytest.approx(100.0)

    def test_c1_power_of_three(self):
        c = constants(3, 3.0, 1, 1)
        assert c.log_c1 == pytest.approx(256 * math.log(3))

    def test_all_at_least_one(self):
        for (d, h, p, q) in [(3, 0.5, 1, 1), (4, 2.0, 1.5, 3.0), (3, 3.0, 2, 2)]:
            c = constants(d, h, p, q)
            assert min(c.log_c1, c.log_c2, c.log_c3, c.log_c4) >= 0.0

    def test_domain_rejected(self):
        with pytest.raises(ValueError):
            constants(2, 1.0, 1, 1)
        with pytest.raises(ValueError):
            constants(3, 1.0, 2, 1)
        with pytest.raises(ValueError):
            constants(3, 1.0, 0.5, 1)


class TestNonConcParams:
    def test_first_term_vanishes_above_half(self):
        for tau in (0.5, 0.7, 0.9):
            ell_tau = nonconc_ell(3, 1.0, 1, tau)
            assert ell_tau == nonconc_ell(3, 1.0, 1, 0.5)

    def test_frozen_example(self):
        assert nonconc_ell(3, 1.5, 1, 0.5) == 90

    def test_bound_monotone_in_q(self):
        prev = -math.inf
        for q in (1, 2, 3, 4):
            p = nonconc_params(3, 1.0, q, 0.5, 5.0 ** q)
            assert p.log_bound > prev
            prev = p.log_bound

    def test_cr_domain(self):
        with pytest.raises(ValueError):
            nonconc_params(3, 1.0, 2, 0.5, 5.0)  # needs >= 25

    def test_matches_symbolic_ceilings(self):
        sympy = pytest.importorskip("sympy")
        rng = np.random.Generator(np.random.Philox(17))
        for _ in range(50):
            d = int(rng.integers(3, 7))
            h = Fraction(int(rng.integers(1, 12)), int(rng.integers(1, 6)))
            q = int(rng.integers(1, 13))
            tau = Fraction(int(rng.integers(1, 9)), 10)
            first_arg = sympy.Max(sympy.log(1 / (2 * sympy.Rational(tau)), 2), 0)
            first = sympy.ceiling(first_arg / sympy.log(1 + sympy.Rational(h) / d, 2))
            second = sympy.ceiling(
                1 / sympy.log(1 + sympy.Rational(h) / (2 ** (2 * q + 4) * d), 2))
            assert nonconc_ell(d, float(h), q, float(tau)) == int(first + second), (d, h, q, tau)

    @pytest.mark.parametrize("q", [26, 30, 441])
    def test_finite_where_one_plus_x_rounds_to_one(self, q):
        # h / (2^(2q+4) d) is below 2^-53 here, so log2(1.0 + x) was 0
        ell = nonconc_ell(3, 0.1, q, 0.5)
        assert ell > 2.0 ** (2 * q + 4)
        assert math.isfinite(nonconc_params(3, 0.1, q, 0.5, 5.0 ** q).log_bound)

    @pytest.mark.parametrize("c_r", [math.nan, math.inf])
    def test_cr_must_be_finite(self, c_r):
        with pytest.raises(ValueError, match="finite C_R"):
            nonconc_params(3, 1.0, 1, 0.5, c_r)


class TestCheckNonConcentrated:
    def test_constant_map_hypothesis_not_met(self):
        g = complete_graph(4)
        f = VertexMap(uniform_metric(2), (0, 0, 0, 0))
        v = check_nonconcentrated(g, f, 1, 5.0, Fraction(1, 2))
        assert not v.hypothesis_met
        assert v.holds is None

    def test_half_half_on_k4(self):
        g = complete_graph(4)
        f = VertexMap(uniform_metric(2), (0, 0, 1, 1))
        v = check_nonconcentrated(g, f, 1, 5.0, Fraction(1, 2))
        assert v.hypothesis_met  # median is 0, average is positive
        assert v.holds and v.slack_log > 0

    def test_spectral_cheeger_bound_beyond_the_exact_limit(self):
        # n = 30 > 22: h is the spectral lower bound (3 - lambda2) / 2
        g = random_connected_regular(30, 3, seed=30)
        f = VertexMap(uniform_metric(2), tuple(v % 2 for v in range(30)))
        v = check_nonconcentrated(g, f, 1, 5.0, Fraction(1, 2))
        assert v.params == nonconc_params(3, (3 - spectrum(g)[-2]) / 2, 1, 0.5, 5.0)
        assert v.hypothesis_met and v.holds

    def test_tau_domain(self):
        g = complete_graph(4)
        f = VertexMap(uniform_metric(2), (0, 0, 1, 1))
        with pytest.raises(ValueError):
            check_nonconcentrated(g, f, 1, 5.0, 0.1)  # 0.1 < 1/4


class TestOneSidedGamma:
    def test_small_c_hits_first_branch(self):
        val = one_sided_gamma(3, 3.0, 1, 1, 1e-12)
        assert val == pytest.approx(64 * 4 * math.log(3))

    def test_frozen_example(self):
        val = one_sided_gamma(3, 3.0, 1, 1, 1.0)
        assert val == pytest.approx(max(256 * math.log(3), math.log(10)))

    def test_large_c_hits_second_branch(self):
        # 5^q 2^(q/p) C^(q/p) at p = q = 1 is 10 C, far above C3 = 3^256
        val = one_sided_gamma(3, 3.0, 1, 1, 1e300)
        assert val == pytest.approx(301 * math.log(10))

    def test_functional_bound_exhaustive(self):
        """Every map with ratio_p <= C also has ratio_q <= Gamma."""
        g = complete_graph(4)
        h = float(cheeger_exact(g))
        m = random_euclidean_metric(3, seed=21)
        p, q, c = 1.0, 2.0, 1.0
        log_gamma = one_sided_gamma(3, h, p, q, c)
        import itertools
        for assign in itertools.product(range(3), repeat=4):
            f = VertexMap(m, assign)
            rp = gamma_of_map(g, f, p)
            if math.isnan(rp.ratio) or rp.ratio > c:
                continue
            ave_q = empirical_average(f, q)
            dir_q = dirichlet(g, f, q)
            assert math.log(ave_q) <= log_gamma + math.log(dir_q) + 1e-12


class TestCheckExtrapolation:
    def test_equal_exponents_pass(self):
        g = complete_graph(4)
        m = uniform_metric(2)
        v = check_extrapolation(g, m, 1, 1)
        assert v.passed

    def test_small_universe(self):
        g = complete_graph(4)
        for seed in range(3):
            m = random_euclidean_metric(3, seed=seed)
            for (p, q) in [(1, 2), (1, 3), (2, 3)]:
                v = check_extrapolation(g, m, p, q)
                assert v.passed, (seed, p, q)

    def test_snowflake_route(self):
        g = complete_graph(4)
        m = random_euclidean_metric(3, seed=33)
        v = check_extrapolation(g, m, 0.5, 1.0)
        # the constants are those of (1, q/p) on the snowflake
        assert (v.consts.p, v.consts.q) == (1.0, 2.0)
        assert v.passed
        # the reported optimal ratios live on the snowflake
        flake = snowflake(m, 0.5)
        assert v.gamma_p == pytest.approx(gamma_exact(g, flake, 1.0).gamma)
        assert v.gamma_q == pytest.approx(gamma_exact(g, flake, 2.0).gamma)

    def test_snowflake_two_sided_inequalities(self):
        """The snowflake comparison in its corollary form: with the route's
        constants, gamma(flake) <= max(C1, C2 max(1, gamma)) and
        gamma <= max(C3, C4 gamma(flake)^(1/(1-eps)))."""
        g = complete_graph(4)
        h = float(cheeger_exact(g))
        for seed in (1, 5):
            m = random_euclidean_metric(3, seed=seed)
            for eps in (0.25, 0.5):
                flake = snowflake(m, eps)
                g_flake = gamma_exact(g, flake, 1.0).gamma
                g_base = gamma_exact(g, m, 1.0).gamma
                c = constants(3, h, 1.0, 1.0 / (1.0 - eps))
                lhs1 = math.log(g_flake)
                rhs1 = max(c.log_c1, c.log_c2 + max(0.0, math.log(g_base)))
                assert lhs1 <= rhs1
                lhs2 = math.log(g_base)
                rhs2 = max(c.log_c3, c.log_c4 + math.log(g_flake) / (1.0 - eps))
                assert lhs2 <= rhs2


def extrapolation_reference(g, metric, p, q):
    """check_extrapolation as it was, with one branch per route."""
    d = g.regular_degree()
    h = cheeger_lower_bound(g)
    if p < 1:
        reduced = snowflake(metric, 1.0 - p)
        gamma_p = gamma_exact(g, reduced, 1.0).gamma
        gamma_q = gamma_exact(g, reduced, q / p).gamma
        v = verdict_from_gammas(gamma_p, gamma_q, constants(d, h, 1.0, q / p))
        return replace(v, p=p, q=q)
    gamma_p = gamma_exact(g, metric, p).gamma
    gamma_q = gamma_exact(g, metric, q).gamma
    return verdict_from_gammas(gamma_p, gamma_q, constants(d, h, p, q))


class TestExtrapolationAgainstReference:
    def test_both_routes(self):
        graphs = [complete_graph(4), prism_graph(), random_connected_regular(6, 3, seed=2)]
        metrics = [uniform_metric(2), uniform_metric(3), random_euclidean_metric(3, seed=4)]
        exponents = [(0.25, 0.5), (0.5, 1.0), (0.5, 2), (0.8, 3.0), (1, 1), (1, 2), (2, 3),
                     (1.5, 2.5)]
        for g in graphs:
            for metric in metrics:
                for p, q in exponents:
                    v = check_extrapolation(g, metric, p, q)
                    assert v == extrapolation_reference(g, metric, p, q), (g.n, p, q)
                    assert (v.p, v.q, v.consts.p) == (p, q, max(p, 1.0))


class TestVerdictFromGammas:
    def test_log_space_comparison(self):
        c = constants(3, 1.0, 1, 2)
        v = verdict_from_gammas(2.0, 3.0, c)
        assert v.rhs1_log == pytest.approx(max(c.log_c1, c.log_c2 + math.log(3.0)))
        assert v.rhs2_log == pytest.approx(max(c.log_c3, c.log_c4 + 2 * math.log(2.0)))
        assert v.passed
