"""Count r-free numbers by the sieve and check them one number at a time.

``trial_factorize`` factors a single n by trial division, without a
table; ``is_r_free`` and ``mu_r_direct`` (the literal divisor sum of the
Mobius function over d with d^r | n) read their answers off it.
``r_free_counts`` counts the r-free n <= x by the windowed sieve, which
holds one window of flags at a time and no table.
"""

from rfree import is_r_free, mu_r_direct, r_free_counts, trial_factorize, zeta

print("n, mu, omega, squarefree, cubefree for n = 1..20:")
for n in range(1, 21):
    omega = trial_factorize(n).omega
    mu = (-1) ** omega if is_r_free(n, 2) else 0
    print(
        f"  {n:3d}  mu={mu:+d}  omega={omega}  "
        f"sf={mu_r_direct(n, 2)}  cf={mu_r_direct(n, 3)}"
    )

# the sieved counts agree with the direct Mobius divisor sum, n by n
for r in (2, 3):
    for x in (360, 1024, 10_000):
        assert r_free_counts([x], r)[0] == sum(mu_r_direct(n, r) for n in range(1, x + 1))
print("\nsieved counts agree with the direct Mobius divisor sum on spot checks")

# factorizations by trial division, independent of the sieve
for n in (9_699_690 // 11, 2**19, 999_983):
    fact = trial_factorize(n)
    pretty = " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in fact.factors)
    print(f"  {n} = {pretty}")

# squarefree density drifts toward 1/zeta(2) = 6/pi^2 = 0.6079...
xs = [10**exp for exp in range(2, 7)]
for exp, count in zip(range(2, 7), r_free_counts(xs, 2)):
    print(f"  squarefree density at 1e{exp}: {count / 10**exp:.6f}")
print(f"  1/zeta(2)              : {1 / zeta(2):.6f}")
