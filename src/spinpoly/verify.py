"""Cross-module invariant suite, reported machine-readably.

Each check covers all spins up to a caller-chosen 2j and returns a dict
with pass/fail plus enough context (operation, j, k, alpha/theta) to
locate the first violation.  The CLI serializes the result as JSON.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import bridge, cayley, expcoeffs
from .basis import verify_fundamental_identity
from .exact import RationalFunction, poly_negate_arg, poly_scale, poly_shift
from .halfint import half_integers

_THETAS = [(-2.0 + 4.0 * i / 24) * math.pi for i in range(25)]
_ALPHAS = [Fraction(n, 7) for n in range(-10, 11, 3) if n] + [Fraction(1, 2), Fraction(3)]


def _rel_close(a: float, b: float, tol: float) -> bool:
    if a == b:
        return True
    return abs(a - b) <= tol * max(abs(a), abs(b))


def _check_fundamental_identity(max_two_j: int) -> dict:
    for j in half_integers(max_two_j):
        rep = verify_fundamental_identity(j)
        if not rep.passed:
            return {
                "name": "fundamental-identity",
                "passed": False,
                "detail": f"op=verify_fundamental_identity j={j} eigenvalue={rep.failing_eigenvalue}",
            }
    return {"name": "fundamental-identity", "passed": True, "detail": f"2j <= {max_two_j}, exact"}


def _check_exp_paths(max_two_j: int) -> dict:
    for j in half_integers(max_two_j):
        for k in range(j.two_j + 1):
            even = expcoeffs.epsilon(j, k) == 0
            for theta in _THETAS:
                a = expcoeffs.a_coeff_trunc(j, k, theta)
                if even:
                    b = expcoeffs.a_coeff_cfn_series(j, k, theta)
                    op = "a_coeff_cfn_series"
                else:
                    b = expcoeffs.a_coeff_derivative_path(j, k + 1, [theta])[0]
                    op = "a_coeff_derivative_path"
                if not _rel_close(a, b, 1e-12):
                    return {
                        "name": "exp-path-equality",
                        "passed": False,
                        "detail": f"op={op} j={j} k={k} theta={theta} trunc={a} other={b}",
                    }
    return {"name": "exp-path-equality", "passed": True, "detail": f"2j <= {max_two_j}, rel 1e-12"}


def _check_exp_reconstruction(max_two_j: int) -> dict:
    thetas = [-3.5 * math.pi, -math.pi, 0.4, 1.7, math.pi, 2 * math.pi, 3 * math.pi, 11.0]
    for j in half_integers(max_two_j):
        for theta in thetas:
            rep = expcoeffs.exp_reconstruction(j, theta)
            if not rep.exact or rep.max_error >= 1e-9:
                return {
                    "name": "exp-reconstruction",
                    "passed": False,
                    "detail": f"op=exp_reconstruction j={j} theta={theta} "
                    f"max_error={rep.max_error} exact={rep.exact}",
                }
    return {"name": "exp-reconstruction", "passed": True, "detail": f"2j <= {max_two_j}, < 1e-9"}


def _check_cayley_reconstruction(max_two_j: int) -> dict:
    for j in half_integers(max_two_j):
        for alpha in _ALPHAS[:8]:
            rep = cayley.cayley_reconstruction(j, alpha)
            if not rep.exact or rep.max_error >= 1e-10:
                return {
                    "name": "cayley-reconstruction",
                    "passed": False,
                    "detail": f"op=cayley_reconstruction j={j} alpha={alpha} "
                    f"max_error={rep.max_error} exact={rep.exact}",
                }
    return {"name": "cayley-reconstruction", "passed": True, "detail": f"2j <= {max_two_j}, < 1e-10"}


def _check_cayley_paths(max_two_j: int) -> dict:
    for j in half_integers(max_two_j):
        direct = cayley.b_coeffs(j)
        for other, op in (
            (cayley.b_coeffs_recursion(j), "b_coeffs_recursion"),
            (cayley.b_coeffs_cfn(j), "b_coeffs_cfn"),
        ):
            for k in range(j.two_j + 1):
                if not direct.B[k].equivalent(other.B[k]):
                    return {
                        "name": "cayley-path-equality",
                        "passed": False,
                        "detail": f"op={op} j={j} k={k}",
                    }
        eigs = [1j * m2 for m2 in range(j.two_j, -j.two_j - 1, -2)]
        for alpha in (0.35, -1.25):
            res = cayley.resolvent_coeffs(eigs, alpha)
            for k, (r, want) in enumerate(zip(res, cayley.eval_coeffs(j, alpha)[0])):
                if abs(r - want) > 1e-11 * max(1.0, abs(want)):
                    return {
                        "name": "cayley-path-equality",
                        "passed": False,
                        "detail": f"op=resolvent_coeffs j={j} k={k} alpha={alpha} "
                        f"resolvent={r} direct={want}",
                    }
    return {"name": "cayley-path-equality", "passed": True, "detail": f"2j <= {max_two_j}"}


def _check_laplace_bridge(max_two_j: int) -> dict:
    for j in half_integers(max_two_j):
        table = cayley.b_coeffs(j)
        for k in range(j.two_j + 1):
            for alpha in _ALPHAS[:6]:
                via = bridge.b_from_a_laplace(j, k, alpha)
                want = table.B[k](alpha)
                if via != want:
                    return {
                        "name": "laplace-bridge",
                        "passed": False,
                        "detail": f"op=b_from_a_laplace j={j} k={k} alpha={alpha} "
                        f"laplace={via} direct={want}",
                    }
    return {"name": "laplace-bridge", "passed": True, "detail": f"2j <= {max_two_j}, exact"}


def _check_pairing_parity(max_two_j: int) -> dict:
    for j in half_integers(max_two_j):
        table = cayley.b_coeffs(j)
        for k, rf in enumerate(table.B):
            flipped = RationalFunction(poly_negate_arg(rf.num), poly_negate_arg(rf.den))
            signed = rf if k % 2 == 0 else RationalFunction(poly_scale(rf.num, -1), rf.den)
            if not flipped.equivalent(signed):
                return {
                    "name": "pairing-parity",
                    "passed": False,
                    "detail": f"op=parity j={j} k={k}",
                }
        if j.is_integer:
            if not table.B[0].equivalent(RationalFunction((1,), (1,))):
                return {"name": "pairing-parity", "passed": False, "detail": f"op=B0 j={j}"}
            pairs = [(2 * k + 2, 2 * k + 1) for k in range(j.two_j // 2)]
        else:
            pairs = [(2 * k + 1, 2 * k) for k in range((j.two_j + 1) // 2)]
        for hi, lo in pairs:
            shifted = RationalFunction(poly_shift(table.B[lo].num, 1), table.B[lo].den)
            if not table.B[hi].equivalent(shifted):
                return {
                    "name": "pairing-parity",
                    "passed": False,
                    "detail": f"op=pairing j={j} B_{hi} != alpha*B_{lo}",
                }
    return {"name": "pairing-parity", "passed": True, "detail": f"2j <= {max_two_j}, exact"}


def _check_det_forms(max_two_j: int) -> dict:
    for j in half_integers(max_two_j):
        forms = cayley.det_forms(j)
        if forms.poly != forms.cfn_poly:
            return {
                "name": "determinant-forms",
                "passed": False,
                "detail": f"op=det_cfn_poly j={j}",
            }
        for alpha in (-2.0, -0.5, 0.5, 1.0, 2.0):
            poly_val = float(sum(float(c) * alpha**i for i, c in enumerate(forms.poly)))
            gamma_val = forms.gamma(alpha)
            if not _rel_close(poly_val, gamma_val, 1e-10):
                return {
                    "name": "determinant-forms",
                    "passed": False,
                    "detail": f"op=det_gamma j={j} alpha={alpha} poly={poly_val} gamma={gamma_val}",
                }
    return {"name": "determinant-forms", "passed": True, "detail": f"2j <= {max_two_j}"}


def run_verify(max_two_j: int) -> dict:
    """Run the whole invariant suite up to the given 2j."""
    checks = [
        _check_fundamental_identity(max_two_j),
        _check_exp_paths(max_two_j),
        _check_exp_reconstruction(max_two_j),
        _check_cayley_reconstruction(max_two_j),
        _check_cayley_paths(max_two_j),
        _check_laplace_bridge(max_two_j),
        _check_pairing_parity(max_two_j),
        _check_det_forms(max_two_j),
    ]
    return {
        "max_two_j": max_two_j,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }


def run_verify_fi(max_two_j: int) -> dict:
    """Fundamental-identity suite only."""
    check = _check_fundamental_identity(max_two_j)
    return {"max_two_j": max_two_j, "passed": check["passed"], "checks": [check]}
