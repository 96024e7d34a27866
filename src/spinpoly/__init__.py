"""spinpoly: spin matrix functions as explicit order-2j matrix polynomials.

Rotations of a spin-j system, written either as exponentials or as Cayley
rational forms, reduce to polynomials in the spin matrix.  This package
computes the polynomial coefficients exactly — rational arithmetic
throughout, floats only at final evaluation — and cross-validates every
table through independent generation paths.  The names exported here are
the ones the CLI, ``verify`` and the fixtures run, plus the general entry
point project_coefficients; the closed-form references that only tests
compare against live in tests/oracles.py.
"""

from .basis import (
    dual_matrices,
    project_coefficients,
    spectrum,
    vandermonde,
    vandermonde_inverse,
    verify_fundamental_identity,
)
from .bridge import (
    alpha_from_theta,
    b_from_a_laplace,
    laplace_pair,
    quadrature_check,
)
from .cayley import (
    CayleyCoeffs,
    a_coeffs,
    b_coeffs,
    b_coeffs_recursion,
    b_limit_ratio,
    cayley_reconstruction,
    det_forms,
    det_poly,
    log_det_gamma,
    resolvent_coeffs,
)
from .exact import RationalFunction, poly, poly_eval
from .expcoeffs import (
    a_coeff_cfn_series,
    a_coeff_derivative_path,
    a_coeff_trunc,
    epsilon,
    exp_grid,
    exp_reconstruction,
)
from .halfint import HalfInt, half_integers

__version__ = "0.1.0"
