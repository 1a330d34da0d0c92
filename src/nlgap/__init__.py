"""Computing, bounding, and empirically certifying nonlinear Poincare
constants of finite graphs into finite metric spaces, with brute-force
oracles and Monte Carlo verifiers at desk scale."""

__version__ = "0.1.0"
