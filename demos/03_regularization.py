"""Walkthrough: primitive prime divisors and the regularization lift.

A character of small parametric degree becomes fully regular after blowing
the level up by an odd factor and twisting by a character of primitive
prime order.  The primitive prime comes with a self-contained certificate.
"""

from tametransfer import (
    char,
    char_order,
    derive_tower,
    level,
    orbit_size,
    regularize,
    verify_certificate,
    zsigmondy_prime,
)
from tametransfer.numth import factorize

hit = zsigmondy_prime(2, 14)
ell, cert = hit
print(f"2**14 - 1 = 16383 factors as {factorize(16383)}")
print(f"smallest primitive prime: {ell} (certificate verifies: {verify_certificate(cert)})")
print(f"order checks (p, 2**(14/p) mod {ell}): {cert.order_checks}")

print(f"\nno primitive prime for (b=2, r=6): {zsigmondy_prime(2, 6)}")
print(f"no primitive prime for (b=7, r=2): {zsigmondy_prime(7, 2)}")

# Regularize the trivial character at the level of degree 2 over a
# two-element field: blow-up 7, prime 43, lifted exponent 16383/43.
params = derive_tower(2, 2, 1, 1, 2, 1)
alpha = char(level(params, params.n_prime), 0)
lift = regularize(alpha, params)
print(f"\nlift of the trivial character: a={lift.a}, ell={lift.ell}")
print(f"lifted exponent {lift.beta.a} of order {char_order(lift.beta)}")
print(f"orbit size at the blown-up level: {orbit_size(lift.beta)} "
      f"(fully regular: equals {lift.a} * {params.n_prime})")
