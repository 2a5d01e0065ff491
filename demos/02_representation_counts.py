"""
Counting coset representations modulo prime powers, two ways
============================================================

N(p^w) counts solutions of Q(x + mu) = m in L/p^w L.  The package has two
independent routes: an exhaustive (vectorized) loop, and a closed-form
evaluation through quadratic Gauss sums over the Jordan blocks of the
p-adic form.  They must agree on the nose; watching them agree on a coset
with a genuine denominator is the fun part.
"""

from fractions import Fraction

from vveis import count, count_gauss, count_naive, discriminant_form, new_lattice

# an anisotropic plane glued to a stretched line: det 12, level 24
lat = new_lattice([[2, 1, 0], [1, 2, 0], [0, 0, 4]])
disc = discriminant_form(lat)
print(f"gram {lat.gram}, |disc| = {disc.size}, orders {disc.orders}")

# pick the coset generated by the last variable: Q(mu) = 1/8 mod 1
mu = disc.elements()[1]
m = disc.q_value(mu)
print(f"coset mu = {mu} with Q(mu) = {m} (mod 1)\n")

print(f"{'modulus':>8} {'naive':>8} {'gauss':>8}")
for p, w in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)]:
    nv = count_naive(lat, m, mu, p ** w).count
    gv = count_gauss(lat, m, mu, p, w).count
    assert nv == gv
    print(f"{p}^{w:<6} {nv:>8} {gv:>8}")

# composite moduli go through CRT; crosscheck=True runs both paths on
# every prime power and raises if they ever disagree
rc = count(lat, m, mu, 72, crosscheck=True)
print(f"\nN({Fraction(m)}, mu; 72) = {rc.count}  [method: {rc.method}]")
