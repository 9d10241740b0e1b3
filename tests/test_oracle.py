"""Forward error of the float routes against a 50-digit oracle.

Every other check compares two float routes, which tells how far apart they
are but not which one is right.  Here the same float64 input is diagonalized
at 50 significant digits (``mpmath.eighe``), and each route must lie within
``C kappa(sigma) eps max(1, |value|)`` of that reference, with kappa(sigma)
the condition number of sigma and eps the float64 machine epsilon.
"""

import mpmath
import numpy as np
import pytest

from qfdiv.divergence import chi2_rows, max_relative_entropy, relative_entropy_rows
from qfdiv.generators import builtin_generator
from qfdiv.maximal import witness_batch
from qfdiv.states import random_pairs, substream

KL = builtin_generator("kl")
CHI2 = builtin_generator("chi2")

# Fixed once from the measured errors: the largest ratio of error to
# kappa(sigma) eps max(1, |value|) over these keys and routes was 0.42 (the
# witness's chi2 at (42, 4, 0)); C leaves a margin of about 2.4 over it.
C = 1.0

# Substream keys (seed, dim, i) of the witness suite's pairs: a well
# conditioned sigma (kappa 47) and the worst pairs of the two near-singular
# seeds (kappa 3.0e4 and 9.5e7).
KEYS = [(42, 4, 0), (568657945, 8, 28), (568437518, 8, 7)]


def _mp(a):
    # float64 entries convert exactly, so the oracle sees the routes' input
    return mpmath.matrix([[mpmath.mpc(x.real, x.imag) for x in row] for row in a.tolist()])


def _oracle(rho, sigma):
    """Maximal kl and chi2, relative entropy and D_max of one pair at 50
    digits, from the spectrum of X = W^{-1/2} V^dag rho V W^{-1/2}, which is
    that of T, with sigma = V W V^dag."""
    with mpmath.workdps(50):
        n = rho.shape[0]
        r = _mp(rho)
        w, v = mpmath.eighe(_mp(sigma))
        frame = v.H * r * v
        x = mpmath.matrix(n, n)
        for k in range(n):
            for j in range(n):
                x[k, j] = (frame[k, j] + mpmath.conj(frame[j, k])) / (
                    2 * mpmath.sqrt(w[k] * w[j]))
        lam, y = mpmath.eighe(x)
        # s_j = ||sigma^{1/2} u_j||^2 with u_j = V y_j
        s = [mpmath.fsum(w[k] * abs(y[k, j]) ** 2 for k in range(n)) for j in range(n)]
        entropy = mpmath.fsum(p * mpmath.log(p) for p in mpmath.eighe(r, eigvals_only=True)
                              if p > 0)
        cross = mpmath.fsum(mpmath.log(w[k]) * frame[k, k].real for k in range(n))
        return {
            "kl": mpmath.fsum(s[j] * lam[j] * mpmath.log(lam[j]) for j in range(n)
                              if lam[j] > 0),
            "chi2": mpmath.fsum(s[j] * lam[j] ** 2 for j in range(n)) - 1,
            "relent": entropy - cross,
            "dmax": mpmath.log(max(lam)),
        }


@pytest.mark.parametrize("key", KEYS)
def test_routes_are_within_the_conditioning_bound_of_the_oracle(key):
    seed, dim, i = key
    rho, sigma = random_pairs([substream(seed, dim, i)], dim)
    want = _oracle(rho.mats[0], sigma.mats[0])
    w = witness_batch(rho, sigma)
    got = {
        "chi2_rows": (chi2_rows(rho, sigma)[0], want["chi2"]),
        "relative_entropy_rows": (relative_entropy_rows(rho, sigma)[0], want["relent"]),
        "max_relative_entropy": (
            max_relative_entropy(rho.row(0), sigma.row(0)), want["dmax"]),
        "witness kl": (w.f_divergence(KL)[0], want["kl"]),
        "witness chi2": (w.f_divergence(CHI2)[0], want["chi2"]),
    }
    spectrum = sigma.spectra[0]
    kappa = spectrum[-1] / spectrum[0]
    for name, (route, exact) in got.items():
        value = float(exact)
        error = float(abs(mpmath.mpf(float(route)) - exact))
        bound = C * kappa * np.finfo(float).eps * max(1.0, abs(value))
        assert error <= bound, (name, value, error, bound)
