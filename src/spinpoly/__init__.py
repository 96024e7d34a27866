"""spinpoly: spin matrix functions as explicit order-2j matrix polynomials.

Rotations of a spin-j system, written either as exponentials or as Cayley
rational forms, reduce to polynomials in the spin matrix.  This package
computes the polynomial coefficients exactly — rational arithmetic
throughout, floats only at final evaluation — and cross-validates every
table through independent generation paths.
"""

from .basis import (
    dual_matrices,
    findumonde_entry,
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
    shear_map,
    theta_from_alpha,
    verify_exp_equal_cayley,
)
from .cayley import (
    CayleyCoeffs,
    asymp_bosonic,
    asymp_fermionic,
    b_coeffs,
    b_coeffs_recursion,
    b_exact_gamma,
    cayley_reconstruction,
    det_forms,
    det_gamma,
    det_poly,
    reduce_over_det,
    relative_error,
    resolvent_coeffs,
    trigamma_int,
)
from .cfn import cfn_asymptotic_ratio, cfn_even, cfn_odd, cfn_t2, cfn_t4, det_cfn_row
from .exact import RationalFunction, poly, poly_eval, poly_mul
from .expcoeffs import (
    ExpCoeffTable,
    a_coeff_cfn_series,
    a_coeff_derivative_path,
    a_coeff_trunc,
    epsilon,
    exp_grid,
    exp_poly,
    exp_reconstruction,
)
from .halfint import HalfInt, half_integers

__version__ = "0.1.0"
