"""
Constructing verified inputs for holomorphic products
=====================================================

On a lattice of signature (n, 2), weakly holomorphic forms of weight
1 - n/2 with prescribed principal parts are the raw material for product
expansions with known divisors.  This walk-through builds, on a (12,2)
lattice, the three constructive ingredients: a non-negative auxiliary
series h, a decomposition f = f1 - f2 into non-negative integral halves,
and a principal part with prescribed support whose constant term is
forced to be nonzero.
"""

from fractions import Fraction

from vveis import (
    AdmissibleSetSpec,
    ModularBasisFixture,
    PrincipalPart,
    Provider,
    ScalarQSeries,
    build_h,
    decompose,
    discriminant_form,
    eis_coefficient,
    eis_expansion,
    new_lattice,
    prescribe,
    vanish_on,
)
from vveis.arith import sigma

E8 = [
    [2, 0, -1, 0, 0, 0, 0, 0],
    [0, 2, 0, -1, 0, 0, 0, 0],
    [-1, 0, 2, -1, 0, 0, 0, 0],
    [0, -1, -1, 2, -1, 0, 0, 0],
    [0, 0, 0, -1, 2, -1, 0, 0],
    [0, 0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, 0, -1, 2, -1],
    [0, 0, 0, 0, 0, 0, -1, 2],
]
D4 = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]


def direct_sum(*grams):
    n = sum(len(g) for g in grams)
    out = [[0] * n for _ in range(n)]
    off = 0
    for g in grams:
        for i, row in enumerate(g):
            for j, x in enumerate(row):
                out[off + i][off + j] = x
        off += len(g)
    return out


lat = new_lattice(direct_sum(E8, D4, [[-2]], [[-2]]))
disc = discriminant_form(lat)
print(f"lattice: signature ({lat.sig_pos}, {lat.sig_neg}), "
      f"det {lat.det}, disc group {disc.orders}")

# --- step 1: the auxiliary series ----------------------------------------
# h = E * Delta^{-1} has a simple pole, non-negative coefficients, and is
# strictly positive on a tail window; that positivity is what later lets
# us fix signs by adding multiples of h
h = build_h(lat.negated(), 1, 3)
print(f"\nh = E * Delta^(-1): pole coefficient "
      f"{h.coefficient(-1, (0, 0, 0, 0))}, "
      f"constant {h.coefficient(0, (0, 0, 0, 0))}")

# --- step 2: splitting a mixed-sign principal part ------------------------
# a deeper pole needs weight 19 = 1 - 6 + 24 data; an honest source is the
# weight-7 series times E4^3 (both factors have non-negative coefficients)
base = eis_expansion(lat.negated(), 4)
e4 = ScalarQSeries({k: 1 if k == 0 else 240 * sigma(3, k) for k in range(5)}, 5)
provider = Provider.fixture(ModularBasisFixture(
    19, (base * (e4 * e4 * e4),), (False,), "weight-7 series times E4^3"))

mu_a = (0, 0, 0, 1)    # Q = 3/4
mu_ab = (0, 0, 1, 1)   # Q = 1/2
f = PrincipalPart(disc, {(Fraction(3, 4), mu_a): -3,
                         (Fraction(1, 2), mu_ab): 5}, 0, sign=-1)
res = decompose(f, lat, provider=provider)
print(f"\ndecompose: c = {res.c}, pole depth b = {res.b}")
print(f"  f1 at (3/4, {mu_a}): {res.f1.entries[(Fraction(3, 4), mu_a)]}")
print(f"  f2 at (3/4, {mu_a}): {res.f2.entries[(Fraction(3, 4), mu_a)]}")
print(f"  both halves non-negative and integral: "
      f"{res.f1.integral and res.f2.integral}")

# --- step 3: prescribing support with a nonzero constant term -------------
# an empty cusp basis is a basis only where dim S_7 = 0, which fails here
# (S_7 is not zero on this lattice): the first admissible member pairs
# nontrivially against the Eisenstein series, but the output below checks
# the pipeline's exact arithmetic and is not a certified Borcherds input
spec = AdmissibleSetSpec(bound_a=1, members=(
    (1, (0, 0, 0, 0)), (2, (0, 0, 0, 0)), (3, (0, 0, 0, 0))))
empty = ModularBasisFixture(7, (), (), "empty, uncertified")
pp = prescribe(lat, spec, empty)
e1 = eis_coefficient(lat, 1, (0, 0, 0, 0))
print(f"\nprescribe: entries {dict(pp.items())}")
print(f"  const_term = {pp.const_term} = -e(1,0) = {-e1}: "
      f"{pp.const_term == -e1}")

# --- step 4: one divisor datum, fully verified ----------------------------
out = vanish_on(lat, Fraction(3, 4), mu_a, empty, provider=provider)
print(f"\nvanish_on(3/4, {mu_a}): {len(out.entries)} entries, "
      f"target coefficient {out.entries[(Fraction(3, 4), mu_a)]}, "
      f"integral and non-negative: "
      f"{out.integral and all(v >= 0 for v in out.entries.values())}")
