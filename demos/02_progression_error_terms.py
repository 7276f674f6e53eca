"""Exact progression counts against their Euler-product main terms.

For a progression l mod k with g = gcd(l, k) r-free, the expected count of
r-free n <= x is (x/k) * prod (1 - p^(e-r)) * f_r(k), the product over the
prime powers p^e exactly dividing k with p^e | l; for r = 2 it equals
(x/k) * (phi(k) / (g phi(s))) * f_r(k) with s = k/g.  The error term is
the exact count minus that expectation.
"""

from rfree import error_term

X = 1_000_000

print(f"squarefree numbers <= {X:,} in residue classes:\n")
print("  k   l    g   count      main term    error")
for k, l in [(1, 0), (2, 1), (3, 0), (4, 2), (7, 3), (12, 5), (100, 37)]:
    rep = error_term(X, 2, k, l)
    print(
        f"  {k:3d} {l:3d}  {rep.g:3d}  {rep.count:8d}  {rep.main_term:12.2f}  "
        f"{rep.error_term:+9.2f}"
    )

# a class whose gcd with the modulus is not squarefree holds no squarefree
# numbers at all; the report uses the all-zero convention and flags it
rep = error_term(X, 2, 4, 0)
print(
    f"\n  k=4 l=0: gcd is {rep.g}, not squarefree -> "
    f"count={rep.count}, flagged g_is_r_free={rep.g_is_r_free}"
)

# error terms are tiny compared with the counts: the k = 1 case is the
# classical squarefree-count remainder, of square-root order
rep = error_term(X, 2, 1, 0)
print(
    f"\n  total squarefree count {rep.count:,} vs x/zeta(2) = {rep.main_term:,.2f}"
    f" -> remainder {rep.error_term:+.2f} (sqrt(x) = {X**0.5:,.0f})"
)
