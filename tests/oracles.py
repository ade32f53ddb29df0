"""Independent reference computations that the tests check the package against."""

import numpy as np
from scipy import integrate

from ringcarl.core import DomainError, SystemParams


def landau_integral_quadrature(
    s: complex, params: SystemParams, rel_tol: float = 1e-11
) -> complex:
    """Direct adaptive quadrature of the velocity integral I(s), Re(s) > 0 only.

    Independent of the Faddeeva route of :func:`ringcarl.stability.landau_integral`.
    """
    if params.u_t <= 0:
        raise DomainError("quadrature oracle needs a thermal distribution")
    if np.real(s) <= 0:
        raise DomainError("quadrature route valid only for Re(s) > 0")
    ut = params.u_t

    def fprime(u):
        return -2.0 * u * np.exp(-((u / ut) ** 2)) / (np.sqrt(np.pi) * ut**3)

    # F' is odd, so u and -u fold into F'(u) (-2 i u) / (s^2 + u^2) on u >= 0;
    # for real s one part of that is identically 0 rather than 0 by symmetry.
    def integrand(u, part):
        val = fprime(u) * (-2j * u) / (s * s + u * u)
        return val.real if part == "re" else val.imag

    lim = 12.0 * ut + 4.0 * abs(s)
    re, _ = integrate.quad(
        integrand, 0.0, lim, args=("re",), epsabs=0, epsrel=rel_tol, limit=400
    )
    im, _ = integrate.quad(
        integrand, 0.0, lim, args=("im",), epsabs=0, epsrel=rel_tol, limit=400
    )
    prefactor = params.n_particles * params.u0**2 * params.rho_r / (1.0 + params.delta**2)
    return prefactor * complex(re, im)


def mode_rhs(a: np.ndarray, theta: complex, params: SystemParams, hamiltonian: bool = False):
    """d a / d tau for a = (a+, a-, b+, b-) at bunching theta, written out
    term by term: the mode equations of the ringcarl.core docstring.

        d(alpha+)/dtau = (i delta - 1) alpha+ - i N u0 theta  alpha- + eta+
        d(alpha-)/dtau = (i delta - 1) alpha- - i N u0 theta* alpha+
        d(beta+)/dtau  = (i delta - 1) beta+  - i N u0 theta  beta-
        d(beta-)/dtau  = (i delta - 1) beta-  - i N u0 theta* beta+ + eta-

    ``hamiltonian`` drops the decay and the pumps (the closed system).
    """
    lam = 1j * params.delta - (0.0 if hamiltonian else 1.0)
    nu0 = params.nu0
    ap, am, bp, bm = a
    da = np.empty(4, dtype=complex)
    da[0] = lam * ap - 1j * nu0 * theta * am
    da[1] = lam * am - 1j * nu0 * np.conj(theta) * ap
    da[2] = lam * bp - 1j * nu0 * theta * bm
    da[3] = lam * bm - 1j * nu0 * np.conj(theta) * bp
    if not hamiltonian:
        da[0] += params.eta_plus
        da[3] += params.eta_minus
    return da
