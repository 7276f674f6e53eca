"""Build the arithmetic-function tables and poke at what they hold.

``factor_sieve`` produces, for every n up to a limit: the Mobius function
mu(n), the smallest prime factor, the number of distinct prime factors
omega(n) and the Euler totient phi(n).  ``build_sieve`` produces, for each
requested r, a 0/1 flag that is 1 exactly when no r-th power of a prime
divides n, packed eight to a byte; it keeps the factoring tables only up
to sqrt(limit), because the progression counts read mu no further.
``trial_factorize`` factors a single n by trial division, without a table.
"""

import numpy as np

from rfree import build_sieve, factor_sieve, mu_r_direct, trial_factorize, zeta

LIMIT = 1_000_000

factors = factor_sieve(LIMIT)
table = build_sieve(LIMIT, {2, 3})
print(f"built tables up to {LIMIT:,}; r-free flags for r in {table.rs}")
# the table packs eight flags to a byte; unpack them to index by n
squarefree, cubefree = (np.unpackbits(table.mu_r[r], count=LIMIT + 1) for r in (2, 3))

print("\nn, mu, spf, omega, phi, squarefree, cubefree for n = 1..20:")
for n in range(1, 21):
    print(
        f"  {n:3d}  mu={factors.mu[n]:+d}  spf={factors.spf[n]:2d}  "
        f"omega={factors.omega[n]}  phi={factors.phi[n]:2d}  "
        f"sf={squarefree[n]}  cf={cubefree[n]}"
    )

# the flag table agrees with the literal divisor-sum definition
for n in (360, 1024, 999_983):
    assert int(squarefree[n]) == mu_r_direct(n, 2)
print("\nflag table agrees with the direct Mobius divisor sum on spot checks")

# factorizations by trial division, independent of the tables
for n in (9_699_690 // 11, 2**19, 999_983):
    fact = trial_factorize(n)
    pretty = " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in fact.factors)
    print(f"  {n} = {pretty}")

# squarefree density drifts toward 1/zeta(2) = 6/pi^2 = 0.6079...
counts = np.cumsum(squarefree[1:])
for exp in range(2, 7):
    x = 10**exp
    print(f"  squarefree density at 1e{exp}: {counts[x - 1] / x:.6f}")
print(f"  1/zeta(2)              : {1 / zeta(2):.6f}")
