"""Constructive input data for holomorphic products with prescribed divisors.

Three kinds of certified data come out of this module: an auxiliary series
with non-negative coefficients and a proven positivity window (build_h), a
two-term split f = f1 - f2 into principal parts that are individually
non-negative (decompose), and principal parts whose pairing against every
cusp element of an external basis fixture vanishes while the constant slot
stays nonzero (prescribe, vanish_on).  Cusp bases are consumed as fixtures
with provenance strings, never computed here.

The auxiliary series is h = F * Delta^-b with F a holomorphic form of
weight aux_weight(n, b) on the signature (2, n) side.  A Provider supplies
F: the exact Eisenstein series of weight rank/2, or one element of a basis
fixture at the fixture's weight.  That weight fixes the provider's one
legal pole depth (Provider.pole_depth), so the weight equation is solved
only in aux_weight.

Conventions: principal parts live on the discriminant form of the signature
(n, 2) lattice with sign tag -1, so an index pair (m, mu) satisfies
m = Q(mu) mod 1 and refers to the coefficient at exponent -m.  Auxiliary
series live on the negated side (sign +1) with the shared element encoding,
which makes coefficients transferable between the two by negating exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import takewhile
from math import lcm

from .arith import valuation
from .eisenstein import coefficients, eis_expansion
from .eisenstein import context as eis_context
from .errors import (
    BudgetExhausted,
    ConsistencyError,
    FixtureNotABasis,
    HypothesisNotVerified,
    IncompatibleDiscriminantForms,
    NotAdmissible,
    PositivityViolation,
    PreconditionError,
    TruncationInsufficient,
    UnsupportedWeight,
)
from .lattice import (
    admissibility,
    bad_primes,
    discriminant_form,
    t_max,
    witt_rank_bounded,
)
from .linalg import Echelon
from .qseries import PrincipalPart
from .weilrep import invariants, weil_matrices


@dataclass(frozen=True)
class AdmissibleSetSpec:
    """Search set of index pairs: an explicit list or a filtered grid.

    bound_a caps ord_p(m) at every prime dividing twice the level.  Either
    members lists the pairs explicitly, each of which must be admissible,
    or the grid of congruence-compatible pairs with m <= ceiling, filtered
    through predicate, stands for its admissible pairs.  The set is closed
    under mu <-> -mu, since the divisors indexed by a pair and by its
    negative coincide; ``lattice.admissibility`` gives both one verdict.
    """

    bound_a: int
    members: tuple = None
    predicate: object = None
    ceiling: object = None

    def __post_init__(self):
        object.__setattr__(self, "bound_a", int(self.bound_a))
        if self.bound_a < 1:
            raise PreconditionError("bound_a must be a positive integer")
        if (self.members is None) == (self.ceiling is None):
            raise PreconditionError(
                "exactly one of members and ceiling must be given")
        if self.members is not None:
            object.__setattr__(self, "members", tuple(
                (Fraction(m), tuple(int(x) for x in mu))
                for m, mu in self.members))
        if self.ceiling is not None:
            object.__setattr__(self, "ceiling", Fraction(self.ceiling))


def _candidate_pairs(spec, disc):
    """Deterministic candidate order: ascending m, then element order.

    Explicit members are validated against the discriminant form; grid mode
    walks each coset's ``disc.indices`` up to the ceiling.  The result is
    deduplicated and closed under negation.
    """
    if spec.members is not None:
        raw = [(m, disc.check(mu)) for m, mu in spec.members]
    else:
        raw = [(m, mu) for mu in disc.elements()
               for m in takewhile(lambda m: m <= spec.ceiling, disc.indices(mu))
               if spec.predicate is None or spec.predicate(m, mu)]
    pairs = {(m, nu) for m, mu in raw for nu in (mu, disc.neg(mu))}
    return sorted(pairs, key=lambda p: (p[0], disc.index(p[1])))


@dataclass(frozen=True)
class AdmissibilityReport:
    accepted: tuple  # (m, mu) pairs, in candidate order
    rejected: tuple  # ((m, mu), reason) records, never silently dropped

    @property
    def ok(self):
        return not self.rejected


def check_admissible(lattice, spec):
    """Verify every candidate pair of the spec, itemizing all failures.

    Each pair is judged by ``lattice.admissibility`` with the spec's bound
    (an inconclusive bounded search counts as a failure and is reported as
    such).  Every reason depends on the {mu, -mu} orbit only, so each
    (m, ``disc.orbit(mu)``) is decided once and both records carry its
    verdict: a witness on either coset accepts both.
    """
    disc = discriminant_form(lattice)
    verdicts, records = {}, []  # (m, orbit) -> reason, or None when admissible
    for m, mu in _candidate_pairs(spec, disc):
        key = (m, disc.orbit(mu))
        if key not in verdicts:
            verdicts[key] = admissibility(lattice, m, mu, spec.bound_a)
        records.append(((m, mu), verdicts[key]))
    return AdmissibilityReport(
        tuple(pair for pair, why in records if why is None),
        tuple((pair, why) for pair, why in records if why is not None))


class ModularBasisFixture:
    """Externally supplied basis data for one weight.

    Elements are vector-valued series with a common discriminant form, sign
    tag +1 and uniform truncation; cusp_flags marks the elements that vanish
    at infinity.  The data is trusted up to the recorded provenance, but the
    structural checks below run at construction and a violation is reported
    as FixtureNotABasis.
    """

    __slots__ = ("weight", "elements", "cusp_flags", "provenance")

    def __init__(self, weight, elements, cusp_flags, provenance=""):
        self.weight = Fraction(weight)
        self.elements = tuple(elements)
        self.cusp_flags = tuple(bool(f) for f in cusp_flags)
        self.provenance = str(provenance)
        if len(self.elements) != len(self.cusp_flags):
            raise FixtureNotABasis("one cusp flag per element is required")
        if not self.elements:
            return
        first = self.elements[0]
        for g in self.elements:
            if g.disc != first.disc:
                raise FixtureNotABasis(
                    "elements live on different discriminant forms")
            if g.sign != 1:
                raise FixtureNotABasis(
                    "elements must carry the lattice-side exponent grid")
            if g.trunc != first.trunc:
                raise FixtureNotABasis(
                    "truncation must be uniform across the basis")
        if first.trunc <= 0:
            raise FixtureNotABasis("truncation does not reach the constant term")
        for i, (g, flag) in enumerate(zip(self.elements, self.cusp_flags)):
            if not flag:
                continue
            for mu in g.disc.elements():
                if g.coefficient(0, mu) != 0:
                    raise FixtureNotABasis(
                        f"cusp-flagged element {i} has a nonzero constant "
                        f"term at {mu}")

    @property
    def disc(self):
        return self.elements[0].disc if self.elements else None

    @property
    def trunc(self):
        return self.elements[0].trunc if self.elements else None

    def cusp_elements(self):
        return [g for g, f in zip(self.elements, self.cusp_flags) if f]


def aux_weight(n, b):
    """Weight 1 - n/2 + 12b of the holomorphic form F with h = F * Delta^-b
    on a signature (2, n) lattice (Borcherds 1998, Thm 13.3)."""
    return 1 - Fraction(n, 2) + 12 * b


class Provider:
    """Auxiliary-series source: a name, a weight and a series source.

    ``series(trunc)`` is a holomorphic form of that weight on the signature
    (2, n) side with non-negative coefficients; its only legal pole depth is
    the b that solves aux_weight(n, b) == weight.
    """

    def __init__(self, name, weight, source, fixture=None, element=None):
        self.name = name
        self.weight = Fraction(weight)
        self.series = source
        self.fixture = fixture
        self.element = element

    @classmethod
    def eisenstein(cls, lminus):
        """The exact Eisenstein series of weight rank/2, expanded lazily."""
        return cls("eisenstein", Fraction(lminus.rank, 2),
                   lambda trunc: eis_expansion(lminus, trunc))

    @classmethod
    def fixture(cls, fixture, index=0):
        """One element of a basis fixture, at the fixture's weight."""
        if not 0 <= index < len(fixture.elements):
            raise FixtureNotABasis(
                f"no element {index} among {len(fixture.elements)}")
        element = fixture.elements[index]

        def source(trunc):
            if element.trunc < trunc:
                raise TruncationInsufficient(
                    f"fixture truncation {element.trunc} is below the "
                    f"required {trunc}")
            return element

        return cls("fixture", fixture.weight, source, fixture, element)

    def pole_depth(self, n):
        """The b >= 1 with aux_weight(n, b) == weight, or None."""
        b = (self.weight - aux_weight(n, 0)) / 12
        return int(b) if b.denominator == 1 and b >= 1 else None


def build_h(lminus, b, trunc, provider=None):
    """Auxiliary series with non-negative coefficients, certified window.

    Multiplies a weight aux_weight(n, b) provider series on the signature
    (2, n) lattice by the discriminant series to the power -b, then checks
    exhaustively on the truncation that every coefficient is >= 0 and that
    every on-grid coefficient with exponent >= T - b is strictly positive,
    where T is the largest first represented value over all cosets of the
    negated (n, 2) side; each coset's window is its ``disc.exponents`` from
    T - b up to the truncation.
    """
    b = int(b)
    if b < 1:
        raise PreconditionError("b must be a positive integer")
    if lminus.sig_pos != 2:
        raise PreconditionError("expected a lattice of signature (2, n)")
    k = aux_weight(lminus.sig_neg, b)
    if k <= 2:
        raise PreconditionError(
            f"weight {k} <= 2 is outside the convergent regime")
    disc = discriminant_form(lminus)
    if provider is None:
        provider = Provider.eisenstein(lminus)
    if k != provider.weight:
        raise UnsupportedWeight(
            f"pole depth {b} needs weight {k}; the {provider.name} series "
            f"has weight {provider.weight}")
    trunc = Fraction(trunc)
    if trunc < 1:
        raise PreconditionError("trunc must reach past the constant term")
    series = provider.series(trunc + b)
    if series.disc != disc:
        raise IncompatibleDiscriminantForms(
            "provider series lives on a different discriminant form")
    for exp, mu, c in series.items():
        if c < 0:
            raise PositivityViolation(
                f"provider coefficient at ({exp}, {mu}) is negative: {c}")
    h = series.mul_delta_pow(-b)
    for exp, mu, c in h.items():
        if c < 0:
            raise PositivityViolation(
                f"coefficient at ({exp}, {mu}) is negative: {c}")
    window_low = t_max(lminus.negated()) - b
    for mu in disc.elements():
        for e in takewhile(lambda e: e < h.trunc, disc.exponents(mu, window_low)):
            if h.coefficient(e, mu) <= 0:
                raise PositivityViolation(
                    f"window coefficient at ({e}, {mu}) is not positive")
    return h


@dataclass(frozen=True)
class DecomposeResult:
    f1: PrincipalPart
    f2: PrincipalPart
    c: int
    b: int
    h: object  # the auxiliary series the split was built from


def decompose(f, lattice, provider=None, minimal=False):
    """Split f into holomorphic-quotient data f1 - f2 with f2 = c * h.

    b is the provider's pole depth, whose window must clear the pole order
    of f; c is the smallest positive integer making every entry of
    f + c*h non-negative, pushed up to the denominator lcm of h's negative
    side when f is integral so that both outputs stay integral.  With
    minimal=True an already non-negative f is returned unchanged against an
    empty second part.
    """
    disc = discriminant_form(lattice)
    if f.disc != disc:
        raise IncompatibleDiscriminantForms(
            "principal part lives on a different discriminant form")
    if f.sign != -1:
        raise PreconditionError(
            "principal part must carry the negated-side sign tag")
    if lattice.sig_neg != 2:
        raise PreconditionError("expected a lattice of signature (n, 2)")
    lminus = lattice.negated()
    if provider is None:
        provider = Provider.eisenstein(lminus)
    T = t_max(lattice)
    pole = f.pole_order() or Fraction(0)
    b = provider.pole_depth(lminus.sig_neg)
    if b is None or b - T <= pole:
        has = "no pole depth" if b is None else f"pole depth {b}"
        raise UnsupportedWeight(
            f"no provider-legal pole depth clears T = {T} plus the pole "
            f"order {pole}: the {provider.name} series of weight "
            f"{provider.weight} has {has}")
    h = build_h(lminus, b, Fraction(1), provider=provider)
    hpp = h.principal_part()
    neg_entries, h0 = hpp.entries, hpp.const_term
    if minimal and all(cf >= 0 for cf in f.entries.values()):
        empty = PrincipalPart(disc, {}, 0, sign=-1)
        return DecomposeResult(f, empty, 0, b, h)
    c0 = 1
    for (m, mu), cf in f.items():
        if cf >= 0:
            continue
        ch = neg_entries.get((m, mu), Fraction(0))
        if ch <= 0:
            raise ConsistencyError(
                f"window coefficient at ({m}, {mu}) is not positive")
        c0 = max(c0, math.ceil(Fraction(-cf, ch)))
    d = 1
    if f.integral and neg_entries:
        d = lcm(*[ch.denominator for ch in neg_entries.values()])
    c = d * math.ceil(Fraction(c0, d))
    if c > 1:
        # one step down must break non-negativity or integrality
        smaller = c - 1
        nonneg = all(cf + smaller * neg_entries.get(key, Fraction(0)) >= 0
                     for key, cf in f.entries.items())
        integral = not f.integral or all(
            (smaller * ch).denominator == 1 for ch in neg_entries.values())
        if nonneg and integral:
            raise ConsistencyError("chosen multiplier is not minimal")
    f1_entries = dict(f.entries)
    for key, ch in neg_entries.items():
        f1_entries[key] = f1_entries.get(key, Fraction(0)) + c * ch
    if any(v < 0 for v in f1_entries.values()):
        raise ConsistencyError("holomorphic side has a negative entry")
    f1 = PrincipalPart(disc, f1_entries, f.const_term + c * h0, sign=-1)
    f2 = PrincipalPart(disc, {key: c * ch for key, ch in neg_entries.items()},
                       c * h0, sign=-1)
    diff = dict(f1.entries)
    for key, v in f2.entries.items():
        diff[key] = diff.get(key, Fraction(0)) - v
    diff = {key: v for key, v in diff.items() if v != 0}
    if diff != f.entries or f1.const_term - f2.const_term != f.const_term:
        raise ConsistencyError("decomposition does not subtract back to f")
    return DecomposeResult(f1, f2, c, b, h)


@dataclass(frozen=True)
class ObstructionReport:
    ok: bool
    values: tuple      # pairing value per cusp-flagged element, fixture order
    violations: tuple  # (element index, value) for each nonzero pairing


def obstruction_check(pp, fixture):
    """Pair the principal part against every cusp-flagged fixture element.

    The pairing sums c(m, nu) * b(m, nu) over the principal-part support;
    it must vanish for every cusp element for pp to extend to an actual
    form.  Exact rational arithmetic throughout.
    """
    maxm = pp.pole_order()
    values, violations = [], []
    for i, (g, flag) in enumerate(zip(fixture.elements, fixture.cusp_flags)):
        if not flag:
            continue
        if pp.disc != g.disc:
            raise IncompatibleDiscriminantForms(
                "fixture lives on a different discriminant form")
        if maxm is not None and g.trunc <= maxm:
            raise TruncationInsufficient(
                f"fixture truncation {g.trunc} cannot read index {maxm}")
        val = sum((c * g.coefficient(m, mu) for (m, mu), c in pp.items()),
                  Fraction(0))
        values.append(val)
        if val != 0:
            violations.append((i, val))
    return ObstructionReport(not violations, tuple(values), tuple(violations))


def constant_term(pp, lattice, override=False):
    """Constant slot forced by the principal part: minus its Eisenstein pairing.

    Valid when n > 2, or when n = 2 and the lattice does not split two
    hyperbolic planes.  The bounded Witt-rank search can only certify the
    failing case, so for n = 2 the caller must pass override to assert the
    hypothesis; the value itself is an exact rational.
    """
    if pp.disc != discriminant_form(lattice):
        raise IncompatibleDiscriminantForms(
            "principal part lives on a different discriminant form")
    if lattice.sig_neg != 2:
        raise PreconditionError("expected a lattice of signature (n, 2)")
    if lattice.sig_pos == 2 and not override:
        wr = witt_rank_bounded(lattice)
        if wr.lower_bound >= 2:
            raise HypothesisNotVerified(
                "the lattice splits two hyperbolic planes, so the "
                "constant-term formula does not apply at n = 2")
        raise HypothesisNotVerified(
            "Witt rank below 2 cannot be certified by bounded search; "
            "pass override to assert it")
    e = coefficients(eis_context(lattice))
    return -sum((c * e(m, mu) for (m, mu), c in pp.items()), Fraction(0))


def prescribe(lattice, spec, fixture, budget=None):
    """Principal part supported on the spec, orthogonal to every cusp element.

    A grid is searched over its admissible pairs; members must all be
    admissible.  Candidates stream in the declared order; each symmetrized
    coefficient functional is reduced against the rows accumulated so far
    (fraction-free elimination over Z on the cusp-pairing vectors,
    ``linalg.Echelon``).  A candidate whose reduced vector vanishes is a
    kernel combination, unique up to scale in the earlier independent rows;
    the first one whose pairing against the Eisenstein series is nonzero
    becomes the output, scaled to integral entries, with the constant slot
    minus that pairing.  When n = 2 and the lattice certifiably splits two
    hyperbolic planes, a zero pairing is accepted too and the constant slot
    is repaired from an invariant vector of the Weil representation, as the
    overlattice argument this case needs.  A budget caps the candidates
    examined and must not be negative.
    """
    if budget is not None and budget < 0:
        raise PreconditionError(f"budget must be >= 0, got {budget}")
    disc = discriminant_form(lattice)
    report = check_admissible(lattice, spec)
    if report.rejected and spec.members is not None:
        raise NotAdmissible("; ".join(
            f"({m}, {mu}): {why}" for (m, mu), why in report.rejected))
    if lattice.sig_neg != 2 or lattice.sig_pos < 2:
        raise PreconditionError(
            "prescription needs signature (n, 2) with n >= 2")
    ctx = eis_context(lattice)
    if fixture.weight != ctx.kappa:
        raise FixtureNotABasis(
            f"fixture weight {fixture.weight} does not match the pairing "
            f"weight {ctx.kappa}")
    if fixture.elements and fixture.disc != disc:
        raise IncompatibleDiscriminantForms(
            "fixture lives on a different discriminant form")
    folded = [(m, mu) for m, mu in report.accepted if disc.orbit(mu) == mu]
    limit = len(folded) if budget is None else min(int(budget), len(folded))
    witt2 = lattice.sig_pos == 2 and witt_rank_bounded(lattice).lower_bound >= 2
    gs = fixture.cusp_elements()
    # one row per candidate: its cusp pairings, then its Eisenstein pairing
    # and its combination over the candidates, carried along as a tail
    system = Echelon(len(gs))
    zero_evals = []
    e = coefficients(ctx)
    winner = None
    for k, (m, mu) in enumerate(folded[:limit]):
        for g in gs:
            if g.trunc <= m:
                raise TruncationInsufficient(
                    f"fixture truncation {g.trunc} cannot read index {m}")
        factor = 1 if disc.neg(mu) == mu else 2
        reduced = system.add([factor * g.coefficient(m, mu) for g in gs]
                             + [factor * e(m, mu)]
                             + [int(j == k) for j in range(limit)])
        if reduced is None:
            continue
        ev, combo = reduced[len(gs)], reduced[len(gs) + 1:]
        if ev != 0 or witt2:
            # scaled so the candidate itself enters with coefficient 1
            winner = [Fraction(t, combo[k]) for t in combo]
            ev = Fraction(ev, combo[k])
            break
        zero_evals.append((m, mu))
    if winner is None:
        err = BudgetExhausted(
            f"examined {limit} candidate(s): {system.rank} independent cusp "
            f"projections, {len(zero_evals)} kernel combination(s) pairing "
            f"to zero against the Eisenstein series")
        err.zero_evaluations = tuple(zero_evals)
        raise err
    entries = {}
    for (m, mu), t in zip(folded, winner):
        if t:
            entries[(m, mu)] = entries[(m, disc.neg(mu))] = t
    lam = lcm(*[t.denominator for t in entries.values()])
    entries = {key: t * lam for key, t in entries.items()}
    const = -sum(t * e(m, mu) for (m, mu), t in entries.items())
    if const != -lam * ev:
        raise ConsistencyError("pairing evaluated two ways disagrees")
    if witt2 and const == 0:
        # repair the constant slot from an invariant vector with nonzero
        # zero-component; the principal part itself is unchanged
        vecs = [v for v in invariants(weil_matrices(disc.negated()))
                if v[0] != 0]
        if not vecs:
            raise HypothesisNotVerified(
                "no invariant vector with a nonzero zero-component exists "
                "to repair the constant slot")
        const = abs(vecs[0][0])
    allowed = set(report.accepted)
    if any(key not in allowed for key in entries):
        raise ConsistencyError("assembled support escapes the admissible set")
    pp = PrincipalPart(disc, entries, const, sign=-1)
    if not pp.integral:
        raise ConsistencyError("integrality scaling failed")
    if pp.const_term == 0:
        raise ConsistencyError("zero constant slot escaped the search")
    if not obstruction_check(pp, fixture).ok:
        raise ConsistencyError(
            "assembled principal part fails the pairing it was built for")
    return pp


def vanish_on(lattice, m, mu, fixture, provider=None, budget=None, pp=None):
    """Non-negative integral principal part with a positive entry at (m, mu).

    Runs prescribe on the singleton-seeded spec, which decides the pair's
    admissibility (with a caller supplied principal part, the pair meets
    ``lattice.admissibility`` without a valuation bound and pp is
    validated), then decomposes; the holomorphic side keeps a positive
    entry at the target because the added series is non-negative with a
    strictly positive window over the whole pole range.
    """
    disc = discriminant_form(lattice)
    m = Fraction(m)
    mu = disc.check(mu)
    if pp is None:
        # a bound the seed meets, so the rule decides everything else
        bound = max([1] + [valuation(m, p) or 0 for p in bad_primes(lattice)])
        seed = AdmissibleSetSpec(bound_a=bound, members=((m, mu),))
        pp = prescribe(lattice, seed, fixture, budget=budget)
    else:
        why = admissibility(lattice, m, mu)
        if why is not None:
            raise NotAdmissible(f"({m}, {mu}): {why}")
        if pp.disc != disc:
            raise IncompatibleDiscriminantForms(
                "principal part lives on a different discriminant form")
        if pp.entries.get((m, mu), Fraction(0)) <= 0:
            raise PreconditionError(
                f"supplied principal part has no positive entry at "
                f"({m}, {mu})")
        if not pp.integral:
            raise PreconditionError(
                "supplied principal part must be integral")
        if not obstruction_check(pp, fixture).ok:
            raise PreconditionError(
                "supplied principal part fails the cusp pairing")
    result = decompose(pp, lattice, provider=provider)
    out = result.f1
    if out.entries.get((m, mu), Fraction(0)) <= 0:
        raise ConsistencyError("target entry did not stay positive")
    if any(v < 0 for v in out.entries.values()) or not out.integral:
        raise ConsistencyError(
            "holomorphic side is not non-negative and integral")
    if not obstruction_check(out, fixture).ok:
        raise ConsistencyError("holomorphic side fails the cusp pairing")
    return out
