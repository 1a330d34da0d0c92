"""Quantitative inequality verifiers: the exponent-comparison constants,
the one-sided functional comparison, and the unconditional bound for
non-concentrated maps.

The constants reach sizes like 3^256, so every constant is carried as a
natural logarithm and all comparisons happen in log space; a verdict's
slack_log is log(rhs) - log(lhs) and a pass requires slack_log >= 0 with
zero tolerance on the direction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .graphs import Graph, cheeger_lower_bound
from .metrics import FiniteMetric, _check_exponent, snowflake
from .poincare import VertexMap, dirichlet, empirical_average, gamma_exact, is_concentrated


@dataclass(frozen=True)
class ExtrapolationConstants:
    """Log-space values of the four comparison constants for (d, h, p, q)."""

    log_c1: float
    log_c2: float
    log_c3: float
    log_c4: float


def constants(d: int, h: float, p: float, q: float) -> ExtrapolationConstants:
    """The four comparison constants, natural-log representation.

    c1 = exp(64 * 4^p * (d/h) * log d)
    c2 = 24 * d * 5^p * (88 p (d/h)^2)^(2q - p)
    c3 = exp(64 * 4^q * (d/h) * log d)
    c4 = 5^q * 2^(q/p)
    """
    if d < 3 or h <= 0 or not 1 <= p <= q:
        raise ValueError(f"domain: need d >= 3, h > 0, 1 <= p <= q; got {(d, h, p, q)}")
    ratio = d / h
    log_c1 = 64.0 * 4.0 ** p * ratio * math.log(d)
    log_c2 = math.log(24.0) + math.log(d) + p * math.log(5.0) \
        + (2.0 * q - p) * math.log(88.0 * p * ratio * ratio)
    log_c3 = 64.0 * 4.0 ** q * ratio * math.log(d)
    log_c4 = q * math.log(5.0) + (q / p) * math.log(2.0)
    return ExtrapolationConstants(log_c1, log_c2, log_c3, log_c4)


@dataclass(frozen=True)
class NonConcParams:
    ell: int
    log_bound: float  # log of 30 * 16^q * d^(ell+1) * ell^(q+1)


def nonconc_ell(d: int, h: float, q: float, tau: float) -> int:
    """The path-length parameter: sum of the two integer ceilings."""
    first_num = max(math.log2(1.0 / (2.0 * tau)), 0.0)
    first = math.ceil(first_num / math.log2(1.0 + h / d)) if first_num > 0 else 0
    # 1 / log2(1 + x) through log1p: 1.0 + x rounds to 1 once x is below 2^-53
    second = math.ceil(math.log(2.0) / math.log1p(h / (2.0 ** (2 * q + 4) * d)))
    return first + second


def nonconc_params(d: int, h: float, q: float, tau: float, c_r: float) -> NonConcParams:
    """Derived length and the multiplicative bound for non-concentrated maps."""
    if d < 3 or h <= 0 or q < 1 or not 0 < tau < 1:
        raise ValueError(f"domain: need d >= 3, h > 0, q >= 1, tau in (0,1); got {(d, h, q, tau)}")
    _check_exponent(q)
    if not 5.0 ** q <= c_r < math.inf:
        raise ValueError(f"need finite C_R >= 5^q = {5.0 ** q}, got {c_r}")
    ell = nonconc_ell(d, h, q, tau)
    log_bound = math.log(30.0) + q * math.log(16.0) + (ell + 1) * math.log(d) \
        + (q + 1) * math.log(ell)
    return NonConcParams(ell, log_bound)


@dataclass(frozen=True)
class NonConcVerdict:
    hypothesis_met: bool     # map is NOT (C_R, q, tau)-concentrated
    params: NonConcParams
    ave: float
    dirichlet: float
    holds: bool | None       # None when hypothesis not met
    slack_log: float | None  # log(bound * dirichlet) - log(ave)


def check_nonconcentrated(g: Graph, f: VertexMap, q: float, c_r: float, tau) -> NonConcVerdict:
    """Assert ave <= bound * dirichlet for a non-concentrated map.

    Maps that are concentrated do not meet the hypothesis and get a
    neutral verdict.  h is the exact Cheeger constant for small graphs and
    the spectral lower bound otherwise; a smaller h only loosens the
    bound, so a pass stays sound.
    """
    d = g.regular_degree()
    if d is None:
        raise ValueError("the bound applies to regular graphs")
    if not 1.0 / g.n < float(tau) < 1.0:
        raise ValueError(f"need tau in (1/n, 1), got {float(tau)}")
    params = nonconc_params(d, cheeger_lower_bound(g), q, float(tau), c_r)
    if is_concentrated(f, c_r, q, tau):
        return NonConcVerdict(False, params, math.nan, math.nan, None, None)
    ave = empirical_average(f, q)
    dir_ = dirichlet(g, f, q)
    slack = params.log_bound + _safe_log(dir_) - _safe_log(ave)
    return NonConcVerdict(True, params, ave, dir_, slack >= 0.0, slack)


def one_sided_gamma(d: int, h: float, p: float, q: float, c: float) -> float:
    """log of max{C3, C4 * C^(q/p)}, with C3 and C4 from constants(d, h, p, q)."""
    if not c > 0:
        raise ValueError(f"need C > 0, got {c}")
    consts = constants(d, h, p, q)
    return max(consts.log_c3, consts.log_c4 + (q / p) * math.log(c))


@dataclass(frozen=True)
class ExtrapolationVerdict:
    p: float
    q: float
    gamma_p: float
    gamma_q: float
    consts: ExtrapolationConstants
    lhs1_log: float        # log gamma_p vs rhs1 = max(C1, C2 max(1, gamma_q))
    rhs1_log: float
    lhs2_log: float        # log gamma_q vs rhs2 = max(C3, C4 gamma_p^(q/p))
    rhs2_log: float

    @property
    def passed(self) -> bool:
        return self.lhs1_log <= self.rhs1_log and self.lhs2_log <= self.rhs2_log

    @property
    def slack1_log(self) -> float:
        return self.rhs1_log - self.lhs1_log

    @property
    def slack2_log(self) -> float:
        return self.rhs2_log - self.lhs2_log


def _safe_log(x: float) -> float:
    return math.log(x) if x > 0 else -math.inf


def verdict_from_gammas(gamma_p: float, gamma_q: float, p: float, q: float,
                        consts: ExtrapolationConstants) -> ExtrapolationVerdict:
    lhs1 = _safe_log(gamma_p)
    rhs1 = max(consts.log_c1, consts.log_c2 + max(0.0, _safe_log(gamma_q)))
    lhs2 = _safe_log(gamma_q)
    rhs2 = max(consts.log_c3, consts.log_c4 + (q / p) * _safe_log(gamma_p))
    return ExtrapolationVerdict(p=p, q=q, gamma_p=gamma_p, gamma_q=gamma_q, consts=consts,
                                lhs1_log=lhs1, rhs1_log=rhs1, lhs2_log=lhs2, rhs2_log=rhs2)


def check_extrapolation(g: Graph, metric: FiniteMetric, p: float,
                        q: float) -> ExtrapolationVerdict:
    """Evaluate both comparison inequalities on exact optimal ratios.

    Exponents 1 <= p <= q run directly.  p < 1 is handled only through the
    snowflake route: with eps = 1 - p the pair (p, q) on the base space
    becomes (1, q/p) on the eps-snowflake, whose optimal ratios coincide
    with the originals, and the reported constants are those of (1, q/p).
    """
    if not 0 < p <= q:
        raise ValueError(f"need 0 < p <= q, got ({p}, {q})")
    d = g.regular_degree()
    if d is None:
        raise ValueError("extrapolation check requires a regular graph")
    h = cheeger_lower_bound(g)
    if h <= 0:
        raise ValueError("the comparison requires a positive Cheeger constant")
    if metric.size < 2:
        raise ValueError("the comparison needs a target with at least two points")
    target, p_run, q_run = (snowflake(metric, 1.0 - p), 1.0, q / p) if p < 1 else (metric, p, q)
    # report the caller's exponents; q/p = (q/p) / 1.0 = q_run / p_run exactly
    return verdict_from_gammas(gamma_exact(g, target, p_run).gamma,
                               gamma_exact(g, target, q_run).gamma,
                               p, q, constants(d, h, p_run, q_run))
