"""Counting solutions of d^r = a (mod s), fast and slow.

The fast counter factors s, counts solutions per prime power in closed
form (p^(e - ceil(e/r)) for a = 0, the unit-group structure for a unit,
and a lift of the unit count for a = p^j * u), and multiplies the pieces
together by the Chinese Remainder Theorem.  An exhaustive loop
over all d provides the oracle.  For a unit residue a the solutions are a
coset of the kernel of d -> d^r, or there are none, so the worst unit of
each modulus is a = 1 and the sweep reads one count per modulus.  That
count never exceeds 2 * r^omega(s); the factor 2 comes entirely from the
powers of two, whose unit group picks up an extra {+-1} component.
"""

from rfree import count_solutions, count_solutions_bruteforce, per_modulus_maxima

print("spot checks against the exhaustive oracle:")
for r, a, s in [(2, 1, 8), (3, 1, 9), (2, 1, 24), (2, 0, 4), (4, 1, 16), (2, 7, 31)]:
    fast = count_solutions(r, a, s).count
    slow = count_solutions_bruteforce(r, a, s)
    marker = "ok" if fast == slow else "MISMATCH"
    print(f"  d^{r} = {a:2d} (mod {s:2d}): crt={fast}  oracle={slow}  {marker}")

print("\nworst count / r^omega(s) over all units, read off a = 1 per modulus:")
for r in (2, 3, 4):
    # max keeps the first maximal row: the smallest s attaining the ratio
    best = max(per_modulus_maxima(r, 500), key=lambda row: row.ratio)
    print(f"  r={r}: max ratio {best.ratio:.3f} witnessed at a={best.a}, s={best.s}")
print("\nthe r=2 ratio of 2 comes from the four square roots of 1 mod 8;")
print("odd moduli never exceed ratio 1, powers of two contribute the 2")
