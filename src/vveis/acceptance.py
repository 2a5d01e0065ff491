"""Acceptance battery: the checks that gate a release of this package.

Each criterion is an independent function returning a human-readable
detail string and raising CriterionFailure (or any library error) when its
condition does not hold exactly.  run_all wraps them with timing and
produces one PASS/FAIL line per criterion through the supplied logger;
the CLI `battery` subcommand serializes the same records as JSON.

The checks are oracle- and property-based: enumeration oracles for the
analytic machinery, two independent counting paths compared on randomized
instances, sign/growth/positivity laws on a fixed (12,2) lattice, exact
round-trips for the constructive pipeline, generator relations for the
finite Weil representations, and byte-level determinism of the CLI.
"""

import io
import json
import random
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import takewhile
from pathlib import Path

from . import repnums
from .arith import sigma
from .borcherds import (
    AdmissibleSetSpec,
    ModularBasisFixture,
    Provider,
    build_h,
    decompose,
    prescribe,
)
from .eisenstein import (
    context,
    eis_coefficient,
    eis_expansion,
    lower_bound_report,
)
from .formats import (
    canonical_json,
    fixture_doc,
    lattice_doc,
    parse_qseries,
    principal_part_doc,
    qseries_doc,
)
from .lattice import discriminant_form, new_lattice, t_max, theta_counts
from .qseries import PrincipalPart, ScalarQSeries, VVQSeries
from .weilrep import invariants, is_unitary, verify_relations, weil_matrices

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

E7 = [
    [2, -1, 0, 0, 0, 0, 0],
    [-1, 2, -1, 0, 0, 0, 0],
    [0, -1, 2, -1, 0, 0, -1],
    [0, 0, -1, 2, -1, 0, 0],
    [0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, -1, 2, 0],
    [0, 0, -1, 0, 0, 0, 2],
]

D5 = [
    [2, -1, 0, 0, 0],
    [-1, 2, -1, 0, 0],
    [0, -1, 2, -1, -1],
    [0, 0, -1, 2, 0],
    [0, 0, -1, 0, 2],
]

D4 = [
    [2, -1, 0, 0],
    [-1, 2, -1, -1],
    [0, -1, 2, 0],
    [0, -1, 0, 2],
]

U = [[0, 1], [1, 0]]


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


def diag(entries):
    n = len(entries)
    return [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]


FIXTURE_GRAM = direct_sum(E8, D4, [[-2]], [[-2]])
_ZERO = (0, 0, 0, 0)
_MU_A = (0, 0, 0, 1)
_MU_AB = (0, 0, 1, 1)


class CriterionFailure(Exception):
    pass


def _check(cond, message):
    if not cond:
        raise CriterionFailure(message)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    ok: bool
    detail: str
    seconds: float

    @property
    def line(self):
        verdict = "PASS" if self.ok else "FAIL"
        return (f"criterion {self.number} {verdict} "
                f"({self.seconds:.1f}s) {self.name}: {self.detail}")


def _fixture_lattice():
    return new_lattice(FIXTURE_GRAM)


def _weight19_provider(lat):
    base = eis_expansion(lat.negated(), 4)
    e4 = ScalarQSeries({n: 1 if n == 0 else 240 * sigma(3, n)
                        for n in range(5)}, 5)
    fix = ModularBasisFixture(19, (base * (e4 * e4 * e4),), (False,),
                              "weight-7 expansion times E4^3")
    return Provider.fixture(fix)


def criterion_1_enumeration_oracle():
    """E8 coefficients equal exact vector counts for m = 1..8."""
    lat = new_lattice(E8)
    counts = theta_counts(lat, 8)
    _check(counts.get(1) == 240, f"E8 has {counts.get(1)} minimal vectors")
    ctx = context(lat)
    for m in range(1, 9):
        e = eis_coefficient(lat, m, (), ctx=ctx)
        _check(e == counts.get(m, 0),
               f"m={m}: series gives {e}, enumeration gives {counts.get(m)}")
    return "8/8 coefficients equal enumerated vector counts (m=1 count 240)"


def criterion_2_count_paths():
    """Character-sum and exhaustive counts agree on randomized instances."""
    rng = random.Random(20260814)
    checked = 0
    while checked < 200:
        rank = rng.randint(1, 3)
        g = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            g[i][i] = 2 * rng.randint(-3, 3)
            for j in range(i):
                g[i][j] = g[j][i] = rng.randint(-3, 3)
        try:
            lat = new_lattice(g)
        except Exception:
            continue
        disc = discriminant_form(lat)
        mu = rng.choice(disc.elements())
        p = rng.choice([2, 2, 2, 3, 5, 7])
        w = rng.randint(1, 3)
        if p ** w > 343:
            continue
        m = disc.q_value(mu) + rng.randint(-4, 4)
        nv = repnums.count_naive(lat, m, mu, p ** w).count
        gv = repnums.count_gauss(lat, m, mu, p, w).count
        _check(nv == gv,
               f"paths disagree on gram={g}, m={m}, mu={mu}, p^w={p}^{w}: "
               f"naive {nv} vs gauss {gv}")
        checked += 1
    lat = new_lattice(E8)
    nv = repnums.count_naive(lat, 1, (), 8).count
    gv = repnums.count_gauss(lat, 1, (), 2, 3).count
    _check(nv == gv, f"E8 mod 8: naive {nv} vs gauss {gv}")
    return f"200 randomized instances + E8 mod 8 ({nv}) agree exactly"


def criterion_3_rationality_and_sign():
    """All fixture coefficients below exponent 4 are rational, fixed sign."""
    lat = _fixture_lattice()
    ctx = context(lat)
    sign_exp = Fraction(2 * ctx.kappa - lat.sig_pos + lat.sig_neg, 4)
    _check(sign_exp.denominator == 1, f"sign exponent {sign_exp} not integral")
    sign = (-1) ** int(sign_exp)
    series = eis_expansion(lat, 4)
    n_checked = 0
    for exp, mu, c in series.items():
        _check(isinstance(c, Fraction), f"non-rational value at ({exp}, {mu})")
        if exp == 0:
            _check(c == 1 and mu == ctx.disc.zero(),
                   f"constant term {c} at {mu}")
            continue
        _check(sign * c >= 0, f"sign rule fails at ({exp}, {mu}): {c}")
        n_checked += 1
    _check(n_checked >= 40, f"only {n_checked} coefficients examined")
    return (f"{n_checked} nonconstant coefficients exactly rational with "
            f"(-1)^{int(sign_exp)} sign")


def criterion_4_growth():
    """Normalized ratios stay positive and do not collapse with m."""
    lat = _fixture_lattice()
    pairs = [(m, _ZERO) for m in range(1, 13)]
    report = lower_bound_report(lat, pairs, bound_a=3)
    _check(report.all_positive, "a ratio is non-positive")
    ratios = [row.ratio_exact for row in report.rows]
    _check(all(r is not None and r > 0 for r in ratios),
           "exact ratios unavailable or non-positive")
    early = min(ratios[0:6])
    late = min(ratios[6:12])
    _check(late >= Fraction(1, 1000) * early,
           f"late minimum {float(late):.6g} collapsed below "
           f"10^-3 * {float(early):.6g}")
    return (f"12 ratios positive; min[7..12]={float(late):.4g} >= "
            f"10^-3 * min[1..6]={float(early):.4g}")


def criterion_5_window():
    """Auxiliary series is non-negative, positive on the tail window."""
    lat = _fixture_lattice()
    h = build_h(lat.negated(), 1, 5)
    n_nonneg = 0
    for exp, mu, c in h.items():
        _check(c >= 0, f"negative coefficient {c} at ({exp}, {mu})")
        n_nonneg += 1
    t_top = t_max(lat)
    window_checked = 0
    for mu in h.disc.elements():
        for e in takewhile(lambda e: e < h.trunc, h.disc.exponents(mu, t_top - 1)):
            _check(h.coefficient(e, mu) > 0,
                   f"window violation at ({e}, {mu})")
            window_checked += 1
    _check(window_checked >= 60, f"window only had {window_checked} points")
    return (f"{n_nonneg} stored coefficients >= 0; {window_checked} window "
            f"points > 0 on [T-1, 5) with T = {t_top}")


def criterion_6_decompose_round_trip():
    """Mixed-sign input splits into non-negative integral halves, minimally."""
    lat = _fixture_lattice()
    disc = discriminant_form(lat)
    f = PrincipalPart(disc, {(Fraction(3, 4), _MU_A): -3,
                             (Fraction(1, 2), _MU_AB): 5}, 0, sign=-1)
    res = decompose(f, lat, provider=_weight19_provider(lat))
    _check(res.f1.integral and res.f2.integral, "halves are not integral")
    _check(all(v >= 0 for v in res.f1.entries.values()), "f1 has a negative entry")
    _check(all(v >= 0 for v in res.f2.entries.values()), "f2 has a negative entry")
    diff = dict(res.f1.entries)
    for key, v in res.f2.entries.items():
        diff[key] = diff.get(key, Fraction(0)) - v
    _check({k: v for k, v in diff.items() if v != 0} == f.entries,
           "f1 - f2 does not reproduce f")
    _check(res.f1.const_term - res.f2.const_term == f.const_term,
           "constant terms do not subtract")
    hpp = res.h.principal_part().entries
    c1 = res.c - 1
    nonneg = all(cf + c1 * hpp.get(k, Fraction(0)) >= 0
                 for k, cf in f.entries.items())
    integral = all((c1 * ch).denominator == 1 for ch in hpp.values())
    _check(not (nonneg and integral), f"c-1 = {c1} also works; c not minimal")
    return (f"c = {res.c} minimal (c-1 fails), b = {res.b}, halves "
            f"non-negative integral, f1 - f2 = f exactly")


def criterion_7_prescription():
    """First admissible member carries constant term -e(m, mu) exactly.

    The empty cusp basis is a basis only where dim S_kappa = 0, and the
    fixture's S_7 is not zero, so this checks the pipeline's exact
    arithmetic; the output is not a certified Borcherds input."""
    lat = _fixture_lattice()
    ctx = context(lat)
    spec = AdmissibleSetSpec(bound_a=1, members=(
        (1, _ZERO), (2, _ZERO), (3, _ZERO)))
    fixture = ModularBasisFixture(ctx.kappa, (), (), "empty, uncertified")
    pp = prescribe(lat, spec, fixture)
    _check(pp.integral, "entries are not integral")
    allowed = {(Fraction(1), _ZERO), (Fraction(2), _ZERO), (Fraction(3), _ZERO)}
    _check(set(pp.entries) <= allowed, f"support {set(pp.entries)} leaves S")
    e = eis_coefficient(lat, 1, _ZERO, ctx=ctx)
    _check(pp.const_term != 0, "constant term is zero")
    _check(pp.const_term == -pp.entries[(Fraction(1), _ZERO)] * e,
           f"constant term {pp.const_term} is not -lambda * e(1,0) = {-e}")
    return (f"support in S, integral, const_term = {pp.const_term} = "
            f"-e(1,0) exactly")


def criterion_8_weil_relations():
    """Generator relations, exact unitarity, trivial-disc invariants."""
    lats = [
        _fixture_lattice(),
        new_lattice(E8),
        new_lattice(E7),
        new_lattice(D5),
        new_lattice(D4),
        new_lattice(U),
        new_lattice(direct_sum(U, U)),
        new_lattice(direct_sum(U, U, [[-2]])),
        new_lattice([[-2]]),
        new_lattice([[4]]),
        new_lattice(diag([2, -2])),
        new_lattice(diag([-2, -2])),
        new_lattice(diag([2, 2])),
        new_lattice(diag([2, 2, 2, 2])),
    ]
    n_checked = 0
    for lat in lats:
        disc = discriminant_form(lat)
        _check(disc.size <= 16, f"test lattice escaped |disc| <= 16: {disc.size}")
        w = weil_matrices(disc)
        _check(verify_relations(w), f"relations fail for gram {lat.gram}")
        _check(is_unitary(w), f"S not unitary for gram {lat.gram}")
        n_checked += 1
    w8 = weil_matrices(discriminant_form(new_lattice(E8)))
    _check(invariants(w8) == [(Fraction(1),)],
           "trivial disc at signature 8 lacks the constant invariant")
    return (f"{n_checked} discriminant forms pass relations + unitarity; "
            f"trivial disc invariants = constant vector")


def _battery_files(root):
    """Fixed inputs for the CLI determinism run."""
    lat = _fixture_lattice()
    disc = discriminant_form(lat)
    provider = _weight19_provider(lat)
    files = {
        "e8.json": canonical_json(lattice_doc(new_lattice(E8))),
        "uu.json": canonical_json(lattice_doc(new_lattice(direct_sum(U, U)))),
        "m2.json": canonical_json(lattice_doc(new_lattice([[-2]]))),
        "fixture.json": canonical_json(lattice_doc(lat)),
        "w19.json": canonical_json(fixture_doc(provider.fixture)),
        "mixed_pp.json": canonical_json(principal_part_doc(PrincipalPart(
            disc, {(Fraction(3, 4), _MU_A): -3, (Fraction(1, 2), _MU_AB): 5},
            0, sign=-1))),
        "spec.json": canonical_json({
            "bound_a": 1,
            "members": [["1", [0, 0, 0, 0]], ["2", [0, 0, 0, 0]],
                        ["3", [0, 0, 0, 0]]]}),
        "empty_basis.json": canonical_json(
            {"weight": "7", "provenance": "empty", "elements": []}),
        "delta_basis.json": None,  # filled below
        "delta_pp.json": canonical_json(principal_part_doc(PrincipalPart(
            discriminant_form(new_lattice(direct_sum(U, U))),
            {(1, ()): 24, (2, ()): 1}, 0, sign=-1))),
    }
    from .qseries import delta_power
    uu_disc = discriminant_form(new_lattice(direct_sum(U, U)))
    d = delta_power(1, 4)
    delta_series = VVQSeries(uu_disc, 1, 1, 4,
                             {(e, ()): c for e, c in d.items()})
    files["delta_basis.json"] = canonical_json(fixture_doc(
        ModularBasisFixture(12, (delta_series,), (True,), "discriminant form")))
    for name, text in files.items():
        (root / name).write_text(text)


def _cli_invocations(root):
    """One invocation of each lattice subcommand on the ``_battery_files``
    in ``root``."""
    return [
        ["info", str(root / "fixture.json")],
        ["repnum", str(root / "uu.json"), "-m", "1", "-a", "12"],
        ["eis", str(root / "e8.json"), "--max-exp", "3"],
        ["weil", str(root / "m2.json")],
        ["h-series", str(root / "fixture.json"), "-b", "1",
         "--trunc", "2"],
        ["decompose", str(root / "fixture.json"),
         "--pp", str(root / "mixed_pp.json"),
         "--provider", str(root / "w19.json")],
        ["obstruct", str(root / "uu.json"),
         "--pp", str(root / "delta_pp.json"),
         "--fixture", str(root / "delta_basis.json")],
        ["prescribe", str(root / "fixture.json"),
         "--spec", str(root / "spec.json"),
         "--fixture", str(root / "empty_basis.json")],
        ["vanish-on", str(root / "fixture.json"), "-m", "3/4",
         "--mu", "0,0,0,1",
         "--fixture", str(root / "empty_basis.json"),
         "--provider", str(root / "w19.json")],
    ]


def criterion_9_determinism():
    """CLI outputs byte-identical across runs; JSON round-trips losslessly."""
    from . import cli

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        _battery_files(root)
        for argv in _cli_invocations(root):
            outputs = []
            for _ in range(2):
                out, err = io.StringIO(), io.StringIO()
                code = cli.run(argv, stdout=out, stderr=err)
                _check(code == 0,
                       f"{argv[0]} exited {code}: {err.getvalue().strip()}")
                outputs.append(out.getvalue().encode())
            _check(outputs[0] == outputs[1],
                   f"{argv[0]} output differs between runs")
        eis_doc = json.loads(_run_once(cli, [
            "eis", str(root / "e8.json"), "--max-exp", "3"]))
        row = next(r for r in eis_doc["coeffs"] if r["exp"] == "1")
        _check(row["c"] == "240", f"E8 exponent-1 coefficient is {row['c']}")

    rng = random.Random(97)
    discs = [discriminant_form(new_lattice(direct_sum(U, U))),
             discriminant_form(new_lattice([[-2]])),
             discriminant_form(new_lattice([[4]]))]
    import math
    for i in range(50):
        disc = rng.choice(discs)
        sign = rng.choice([1, -1])
        den = math.lcm(*(disc.q_value(mu).denominator
                         for mu in disc.elements()))
        coeffs = {}
        for _ in range(rng.randrange(0, 12)):
            mu = rng.choice(disc.elements())
            exp = sign * disc.q_value(mu) + rng.randrange(-3, 7)
            if exp >= 7:
                continue
            coeffs[(int(exp * den), mu)] = Fraction(
                rng.randrange(-99, 100), rng.randrange(1, 13))
        f = VVQSeries(disc, den, sign, 7, coeffs,
                      hecke_flag=rng.random() < 0.2)
        text = canonical_json(qseries_doc(f))
        g = parse_qseries(json.loads(text), disc)
        _check(g == f and g.hecke_flag == f.hecke_flag,
               f"round-trip changed series {i}")
        _check(canonical_json(qseries_doc(g)) == text,
               f"round-trip changed bytes for series {i}")
    return ("9 subcommands byte-identical across two runs (E8 coefficient "
            "240 at exponent 1); 50 random series round-trip losslessly")


def _run_once(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, stdout=out, stderr=err)
    _check(code == 0, f"{argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


CRITERIA = (
    (1, "enumeration oracle", criterion_1_enumeration_oracle),
    (2, "count-path equivalence", criterion_2_count_paths),
    (3, "rationality and sign", criterion_3_rationality_and_sign),
    (4, "growth of normalized coefficients", criterion_4_growth),
    (5, "auxiliary-series window", criterion_5_window),
    (6, "decomposition round-trip", criterion_6_decompose_round_trip),
    (7, "prescription pipeline", criterion_7_prescription),
    (8, "Weil generator relations", criterion_8_weil_relations),
    (9, "determinism and round-trip", criterion_9_determinism),
)


def run_one(number):
    for num, name, fn in CRITERIA:
        if num == number:
            start = time.perf_counter()
            try:
                detail = fn()
                ok = True
            except Exception as exc:
                detail = f"{type(exc).__name__}: {exc}"
                ok = False
            return CriterionResult(num, name, ok, detail,
                                   time.perf_counter() - start)
    raise ValueError(f"no criterion {number}")


def run_all(numbers=None, log=None):
    selected = [num for num, _, _ in CRITERIA] if numbers is None else numbers
    results = []
    for number in selected:
        result = run_one(number)
        results.append(result)
        if log:
            log(result.line)
    return results
