"""The four benchmark workloads: seeded inputs, job lists and exact checks.

A workload's ``setup(seed, lists, work)`` builds every input from the seed
and warms what a long-running user would have warm.  ``jobs(state, k, twin)``
returns job list ``k`` (0 <= k < lists) as a list of ``Job``; each job is
timed on its own, with the workload's ``clock`` (CPU seconds).  Twin
``t > 0`` of a list is the same work on inputs no cache has seen: traced
runs time a list untraced and its twin traced, to measure the overhead.
``curve_jobs(state)``, where a workload has it, lists jobs that only
traced runs make: the costliest points of the scaling curves, kept out of
the timed passes so that those stay short enough to repeat.
``check(state, records)`` runs after the timed loop and returns a list of
failure messages, one per wrong output.  vveis functions are always looked
up through their module at call time, so traced runs see the wrappers.
"""

import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED_PATH = HERE / "expected.json"


@dataclass
class Job:
    kind: str  # label used by the checks and the CLI miss/hit split
    fn: object  # zero-argument callable, its return value is checked later
    key: object = None  # what the check needs to know about the inputs
    coeffs: int = 0  # Eisenstein coefficients the job computes


def load_expected():
    return json.loads(EXPECTED_PATH.read_text())


def digest(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def sigma3(n):
    return sum(d ** 3 for d in range(1, n + 1) if n % d == 0)


# ---------------------------------------------------------------------------
# Gram matrices


def direct_sum(*grams):
    n = sum(len(g) for g in grams)
    out = [[0] * n for _ in range(n)]
    off = 0
    for g in grams:
        for i, row in enumerate(g):
            out[off + i][off:off + len(row)] = row
        off += len(g)
    return out


def diag(entries):
    return direct_sum(*([[x]] for x in entries))


def _cartan(n, edges):
    g = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        g[i][j] = g[j][i] = -1
    return g


U = [[0, 1], [1, 0]]
A2 = _cartan(2, [(0, 1)])
D4 = _cartan(4, [(0, 1), (1, 2), (1, 3)])
D5 = _cartan(5, [(0, 1), (1, 2), (2, 3), (2, 4)])
E7 = _cartan(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6)])
E8 = _cartan(8, [(0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)])
FIXTURE = direct_sum(E8, D4, [[-2]], [[-2]])  # signature (12,2), disc (Z/2)^4

BASES = {
    "E7": E7,
    "E8": E8,
    "D4": D4,
    "D5": D5,
    "A2^3": direct_sum(A2, A2, A2),
    "U+U": direct_sum(U, U),
    "U+U+<2>": direct_sum(U, U, [[2]]),
    "U+U+A2+<2>": direct_sum(U, U, A2, [[2]]),
    "D4+<-2>^2": direct_sum(D4, [[-2]], [[-2]]),
    "U+U+D4": direct_sum(U, U, D4),
    "E8+<-2>^2": direct_sum(E8, [[-2]], [[-2]]),
    "U+U+E7": direct_sum(U, U, E7),
    "fixture": FIXTURE,
}


def random_unimodular(rng, n):
    """n random transvections col_i += +-col_j, then a column permutation."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        for row in m:
            row[i] += c * row[j]
    perm = list(range(n))
    rng.shuffle(perm)
    return [[row[p] for p in perm] for row in m]


def conjugate(g, u):
    """U^T G U."""
    n = len(g)
    gu = [[sum(g[i][k] * u[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[sum(u[k][i] * gu[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


def children_cpu():
    """CPU seconds used by the ended and reaped child processes."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Workload:
    # CPU time rather than wall time: time spent waiting for a CPU or the
    # disk does not count.
    clock = staticmethod(time.process_time)
    repeats = True  # every pass runs job list 0; otherwise pass k runs list k


# ---------------------------------------------------------------------------
# eis-deep: one warm fixture lattice, orbit coefficients plus deep dyadic ones

DEEP_TRUNC = 4
DEEP_WS = (9, 11)  # Hensel depths w of the seeded deep jobs, two at each
# A single call at w = 13 or 15 takes 0.5-3 s, and the best of a few such
# long calls repeats poorly on a shared host: traced runs only.
CURVE_WS = (13, 15)
# w_p = 1 + 2 ord_2(2 d m) is odd, so no coefficient reaches an even w;
# traced runs call count_gauss there directly, at w_p + 1 for odd w_p.
EVEN_WS = (10, 12, 14)


class EisDeep(Workload):
    name = "eis-deep"
    pass_s = 1.1
    budget_s = 60.0

    def setup(self, seed, lists, work):
        from vveis import eisenstein, lattice, repnums
        lat = lattice.new_lattice(FIXTURE)
        ctx = eisenstein.context(lat)
        disc = ctx.disc
        zero = disc.zero()
        eisenstein.eis_coefficient(lat, 1, zero, ctx=ctx)  # warm-up
        pairs = [(Fraction(0), zero)]
        for mu in disc.elements():
            if disc.neg(mu) < mu:
                continue
            q = disc.q_value(mu)
            m = q if q > 0 else q + 1
            while m < DEEP_TRUNC:
                pairs.append((m, mu))
                m += 1
        rng = _rng(self.name, seed)
        integral = [mu for mu in disc.elements() if disc.q_value(mu) == 0 and mu != zero]

        def deep(w, mu):  # e(2^k u, mu) with Hensel depth w, u odd and seeded
            k = (w - 3) // 2 if mu == zero else (w - 5) // 2
            m = Fraction(2 ** k * rng.randrange(1, 64, 2))
            assert repnums.w_p(m, disc.order_of(mu), 2) == w
            return m, mu
        # At each w one coefficient at mu = 0 and one at a seeded mu != 0 of
        # norm 0 mod 1: the two cost different amounts, so every seed gets
        # one of each.
        nonzero = {w: deep(w, rng.choice(integral)) for w in DEEP_WS + CURVE_WS}
        pairs += [deep(w, zero) for w in DEEP_WS] + [nonzero[w] for w in DEEP_WS]
        rng.shuffle(pairs)
        sign_exp = Fraction(2 * ctx.kappa - lat.sig_pos + lat.sig_neg, 4)
        return {"lat": lat, "ctx": ctx, "pairs": pairs, "deep": nonzero,
                "sign": (-1) ** int(sign_exp), "seed": seed}

    def jobs(self, state, k, twin=0):
        return [self._coefficient(state, m, mu) for m, mu in state["pairs"]]

    @staticmethod
    def _coefficient(state, m, mu):
        from vveis import eisenstein
        lat, ctx = state["lat"], state["ctx"]
        return Job("coefficient", lambda: eisenstein.eis_coefficient(lat, m, mu, ctx=ctx),
                   (m, mu), 1)

    def curve_jobs(self, state):
        """The coefficients at w = 13 and 15, count_gauss at w and w - 1 for
        each even w, and eis_expansion at truncations 4, 8, 16."""
        from vveis import eisenstein, repnums
        lat, disc = state["lat"], state["ctx"].disc
        out = [self._coefficient(state, *state["deep"][w]) for w in CURVE_WS]
        for w in EVEN_WS:
            m, mu = state["deep"][w - 1]
            out += [Job("gauss", lambda m=m, mu=mu, v=v: repnums.count_gauss(
                lat, m, mu, 2, v, disc=disc), (m, mu, v)) for v in (w - 1, w)]
        return out + [
            Job("expansion", lambda t=t: eisenstein.eis_expansion(lat, t, disc=disc), t)
            for t in (4, 8, 16)]

    @staticmethod
    def canonical(records):
        return [[str(r.job.key[0]), list(r.job.key[1]), str(r.out)] for r in records]

    def check(self, state, records):
        bad = []
        values = []
        gauss = {}
        for r in records:
            if r.job.kind == "expansion":
                values += [((exp, mu), c) for exp, mu, c in r.out.items()]
            elif r.job.kind == "gauss":
                gauss[r.job.key] = r.out.count
            else:
                values.append((r.job.key, r.out))
        # Hensel: past w_p, each step of w multiplies the count by p^(rank - 1)
        lift = 2 ** (state["lat"].rank - 1)
        for (m, mu, w), n in gauss.items():
            below = gauss.get((m, mu, w - 1))
            if w % 2 == 0 and below is not None and n != below * lift:
                bad.append(f"N({m}, {mu}; 2^{w}) = {n}, not 2^{lift.bit_length() - 1} "
                           f"times N(2^{w - 1}) = {below}")
        for (m, mu), c in values:
            if not isinstance(c, Fraction):
                bad.append(f"e({m}, {mu}) is {type(c).__name__}, not Fraction")
            elif m == 0 and c != 1:
                bad.append(f"constant term is {c}")
            elif m != 0 and state["sign"] * c < 0:
                bad.append(f"sign rule fails at e({m}, {mu}) = {c}")
        passes = [r for r in records if r.pass_index >= 0]
        bad += _same_every_pass(passes, self.canonical)
        want = load_expected()[self.name].get(str(state["seed"]))
        first = [r for r in passes if r.pass_index == passes[0].pass_index]
        if want and not bad and digest(self.canonical(first)) != want:
            bad.append("coefficient digest differs from expected.json")
        return bad


def _same_every_pass(records, canonical):
    by_pass = {}
    for r in records:
        by_pass.setdefault(r.pass_index, []).append(r)
    docs = [canonical(rs) for _, rs in sorted(by_pass.items())]
    return ["outputs differ between passes"] if any(d != docs[0] for d in docs) else []


# ---------------------------------------------------------------------------
# eis-random: a fresh random GL_n(Z) conjugate per job, no warm-up

RANDOM_TRUNC = 2


def expansion_multiset(series):
    """Sorted (exponent numerator, coefficient) pairs: invariant under a basis change."""
    return sorted([num, str(c)] for (num, _), c in series.coeffs.items())


def sign_twin(gram, t):
    """Twin t of G: D G D for the t-th sign matrix D = diag(+-1) that gives a
    new Gram matrix (D from the binary digits of 0, 1, 2, ...).  The same
    lattice with the same entry sizes, under another cache key."""
    n = len(gram)
    seen = []
    for bits in range(2 ** (n - 1)):  # D and -D give the same matrix
        g = [[-x if (bits >> r ^ bits >> c) & 1 else x for c, x in enumerate(row)]
             for r, row in enumerate(gram)]
        if g not in seen:
            if len(seen) == t:
                return g
            seen.append(g)
    return gram  # fewer twins than asked for (a diagonal Gram matrix)


class EisRandom(Workload):
    name = "eis-random"
    repeats = False
    pass_s = 1.0
    # Completed conjugates take under 0.32 s of CPU; fixture conjugates that
    # take count_naive's object-dtype path take 1.6-5 s.  The budget sits in
    # the middle of that gap (on a log scale), so whether a job overruns does
    # not depend on the host's speed.  Those conjugates count as overruns
    # along with the Smith normal form and count_naive blow-ups, each charged
    # at the budget.
    budget_s = 0.7

    def setup(self, seed, lists, work):
        import vveis  # noqa: F401  (import time belongs to set-up)
        rng = _rng(self.name, seed)
        names = sorted(BASES)
        stream = []
        for _ in range(lists):
            order = names[:]
            rng.shuffle(order)
            stream.append([(nm, conjugate(BASES[nm], random_unimodular(rng, len(BASES[nm]))))
                           for nm in order])
        return {"stream": stream, "ref": load_expected()[self.name]}

    def jobs(self, state, k, twin=0):
        from vveis import eisenstein, lattice

        def job(gram):
            return eisenstein.eis_expansion(lattice.new_lattice(gram), RANDOM_TRUNC)
        return [Job("expansion", lambda g=sign_twin(g, twin): job(g), nm)
                for nm, g in state["stream"][k]]

    def check(self, state, records):
        bad = []
        for r in records:
            r.job.coeffs = len(r.out.coeffs)
            if expansion_multiset(r.out) != state["ref"][r.job.key]:
                bad.append(f"conjugate of {r.job.key}: (exponent, coefficient) "
                           "multiset differs from the base lattice")
        return bad


# ---------------------------------------------------------------------------
# cli-pipeline: the fixture pipeline as fresh vveis processes, miss then hit

def _invocations(state):
    vm, vmu = state["vanish"]
    return [
        ("info", ["info", "fixture.json"]),
        ("eis", ["eis", "fixture.json", "--max-exp", "3"]),
        ("h-series", ["h-series", "fixture.json", "-b", "1", "--trunc", "2"]),
        ("decompose", ["decompose", "fixture.json", "--pp", "pp.json",
                       "--provider", "w19.json"]),
        ("prescribe", ["prescribe", "fixture.json", "--spec", "spec.json",
                       "--fixture", "empty_basis.json"]),
        ("vanish-on", ["vanish-on", "fixture.json", "-m", vm, "--mu", vmu,
                       "--fixture", "empty_basis.json", "--provider", "w19.json"]),
        ("weil", ["weil", "fixture.json"]),
        ("repnum", ["repnum", "fixture.json", "-m", "1", "-a", "4096",
                    "--method", "gauss"]),
    ]


def _weight19_fixture(lat, disc):
    """Weight-19 basis element: the weight-7 series of L^- times E4^3."""
    from vveis import borcherds, eisenstein, qseries
    base = eisenstein.eis_expansion(lat.negated(), 4, disc=disc.negated())
    e4 = qseries.ScalarQSeries({n: 1 if n == 0 else 240 * sigma3(n) for n in range(5)}, 5)
    return borcherds.ModularBasisFixture(19, (base * (e4 * e4 * e4),), (False,),
                                         "weight-7 expansion times E4^3")


def _child_env(cache_dir, extra=None):
    env = {k: v for k, v in os.environ.items() if not k.startswith("VVEIS_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["VVEIS_CACHE_DIR"] = str(cache_dir)
    env.update(extra or {})
    return env


class CliPipeline(Workload):
    name = "cli-pipeline"
    clock = staticmethod(children_cpu)  # the parent only waits
    pass_s = 7.0
    budget_s = 60.0

    def setup(self, seed, lists, work):
        from vveis import formats, lattice, qseries
        lat = lattice.new_lattice(FIXTURE)
        disc = lattice.discriminant_form(lat)
        rng = _rng(self.name, seed)
        # pole terms (m, mu) with 0 < m = Q(mu) mod 1 < 1: the provider's range
        poles = [(disc.q_value(mu), mu) for mu in disc.elements() if disc.q_value(mu) != 0]
        neg_term, pos_term, target = rng.sample(poles, 3)
        pp = qseries.PrincipalPart(disc, {neg_term: -rng.randint(1, 5),
                                          pos_term: rng.randint(1, 5)}, 0, sign=-1)
        files = {
            "fixture.json": formats.lattice_doc(lat),
            "w19.json": formats.fixture_doc(_weight19_fixture(lat, disc)),
            "pp.json": formats.principal_part_doc(pp),
            "spec.json": {"bound_a": 1, "members": [[str(m), [0, 0, 0, 0]] for m in (1, 2, 3)]},
            "empty_basis.json": {"weight": "7", "provenance": "empty", "elements": []},
        }
        for fname, doc in files.items():
            (work / fname).write_text(formats.canonical_json(doc))
        state = {"work": work, "seed": seed, "pp": pp, "disc": disc,
                 "vanish": (str(target[0]), ",".join(map(str, target[1]))),
                 "launcher": None}
        return state

    def jobs(self, state, k, twin=0):
        work = state["work"]
        cache = work / f"cache-{k}-{twin}"
        out = []
        for name, argv in _invocations(state):
            for phase in ("miss", "hit"):
                out.append(Job(phase, lambda argv=argv: self._invoke(state, argv, cache), name))
        return out

    @staticmethod
    def _invoke(state, argv, cache):
        launcher = state["launcher"]
        if launcher is None:
            cmd, extra = [sys.executable, "-m", "vveis.cli", *argv], None
        else:
            cmd, extra = [sys.executable, str(HERE / "launch.py"), *argv], launcher
        try:
            proc = subprocess.run(cmd, cwd=state["work"], env=_child_env(cache, extra),
                                  capture_output=True, timeout=CliPipeline.budget_s)
        except subprocess.TimeoutExpired as exc:  # the child is killed and reaped
            raise TimeoutError(f"vveis {argv[0]} ran past the budget") from exc
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, state, records):
        from vveis import formats
        bad = []
        want = load_expected()[self.name].get(str(state["seed"]), {})
        by_pass = {}
        for r in records:
            by_pass.setdefault((r.pass_index, r.job.key), {})[r.job.kind] = r.out
        for (_, name), outs in sorted(by_pass.items()):
            for phase, (code, stdout, stderr) in sorted(outs.items()):
                if code != 0:
                    bad.append(f"{name} ({phase}) exited {code}: {stderr.decode()[-200:]}")
            if len(outs) != 2 or any(o[0] != 0 for o in outs.values()):
                continue
            miss = outs["miss"][1]
            if outs["hit"][1] != miss:
                bad.append(f"{name}: hit bytes differ from miss bytes")
            if name in want and hashlib.sha256(miss).hexdigest() != want[name]:
                bad.append(f"{name}: output sha256 differs from expected.json")
            if name == "decompose":
                doc = json.loads(miss)
                f1 = formats.parse_principal_part(doc["f1"], state["disc"])
                f2 = formats.parse_principal_part(doc["f2"], state["disc"])
                diff = dict(f1.entries)
                for key, v in f2.entries.items():
                    diff[key] = diff.get(key, 0) - v
                f = state["pp"]
                if ({k: v for k, v in diff.items() if v != 0} != f.entries
                        or f1.const_term - f2.const_term != f.const_term):
                    bad.append("decompose: f1 - f2 != f")
        return bad


# ---------------------------------------------------------------------------
# oracle: self-verification traffic (enumeration, box search, Weil relations)

THETA_MAX = 2
QUERY_RANGE = range(400, 500)  # coset_represents targets
# targets per (lattice, represented?); unrepresented ones search the whole
# certified box, so their cost depends on little but the value's size
QUERIES = {("3sq", False): 12, ("3sq", True): 4, ("A2", False): 24, ("A2", True): 6}
WEIL_GRAMS = {8: diag([2, 2, 2]), 16: diag([2, 2, -2, -2]), 32: diag([2, 2, 2, 2, 2])}
# verify_relations takes 0.6 s at |D| = 16 and ~10 s at 32: traced runs only
WEIL_CURVE = (16, 32)


def three_squares(m):
    """Legendre: m is x^2 + y^2 + z^2 unless m = 4^a (8b + 7)."""
    while m % 4 == 0:
        m //= 4
    return m % 8 != 7


def loeschian(m):
    """m = x^2 - xy + y^2 iff every prime = 2 mod 3 divides m to an even power."""
    p = 2
    while p * p <= m:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if p % 3 == 2 and e % 2:
            return False
        p += 1
    return not (m > 1 and m % 3 == 2)


class Oracle(Workload):
    name = "oracle"
    pass_s = 1.6
    budget_s = 120.0

    def setup(self, seed, lists, work):
        from vveis import lattice
        rng = _rng(self.name, seed)
        lats = {"E8": E8, "3sq": diag([2, 2, 2]), "A2": A2, "U+U": direct_sum(U, U)}
        lats = {k: lattice.new_lattice(g) for k, g in lats.items()}
        zeros = {k: lattice.discriminant_form(lat).zero() for k, lat in lats.items()}
        weil = {d: lattice.discriminant_form(lattice.new_lattice(g))
                for d, g in WEIL_GRAMS.items()}
        queries = []  # values of one size, so every seed asks for the same work
        for lat_name, rule in (("3sq", three_squares), ("A2", loeschian)):
            for want in (True, False):
                pool = [m for m in QUERY_RANGE if rule(m) == want]
                count = QUERIES[lat_name, want]
                queries += [(lat_name, m, want) for m in rng.sample(pool, count)]
        rng.shuffle(queries)
        return {"lats": lats, "zeros": zeros, "weil": weil, "queries": queries,
                "ref": load_expected()[self.name]}

    def jobs(self, state, k, twin=0):
        from vveis import eisenstein, lattice
        lats, weil = state["lats"], state["weil"]
        e8 = lats["E8"]
        out = [Job("theta", lambda: lattice.theta_counts(e8, THETA_MAX))]
        out += [Job("e8", lambda m=m: eisenstein.eis_coefficient(e8, m, ()), m, 1)
                for m in range(1, THETA_MAX + 1)]
        for lat_name, m, want in state["queries"]:
            lat, zero = lats[lat_name], state["zeros"][lat_name]
            out.append(Job("coset", lambda lat=lat, m=m, zero=zero: lattice.coset_represents(
                lat, m, zero), (lat_name, m, want)))
        out.append(Job("witt", lambda: lattice.witt_rank_bounded(lats["U+U"])))
        return out + self._weil(state, [d for d in weil if d not in WEIL_CURVE])

    def curve_jobs(self, state):
        return self._weil(state, WEIL_CURVE)

    @staticmethod
    def _weil(state, sizes):
        from vveis import weilrep
        out, mats = [], {}
        for d in sizes:
            disc = state["weil"][d]
            out += [
                Job("weil_matrices", lambda d=d, disc=disc: mats.__setitem__(
                    d, weilrep.weil_matrices(disc)), d),
                Job("relations", lambda d=d: weilrep.verify_relations(mats[d]), d),
                Job("unitary", lambda d=d: weilrep.is_unitary(mats[d]), d),
                Job("invariants", lambda d=d: weilrep.invariants(mats[d]), d),
            ]
        return out

    def check(self, state, records):
        from vveis import lattice
        bad = []
        theta = {}
        for r in records:
            if r.job.kind == "theta":
                theta = r.out
                want = {Fraction(m): 240 * sigma3(m) for m in range(1, THETA_MAX + 1)}
                if r.out != want:
                    bad.append(f"theta_counts(E8) = {r.out}")
        for r in records:
            kind, key, out = r.job.kind, r.job.key, r.out
            if kind == "e8" and not (out == 240 * sigma3(key) == theta.get(key)):
                bad.append(f"E8 e({key}) = {out}, enumeration gives {theta.get(key)}")
            elif kind == "coset":
                lat_name, m, represented = key
                want = (lattice.RepResult.REPRESENTED if represented
                        else lattice.RepResult.NOT_WITHIN_RADIUS)
                if out is not want:
                    bad.append(f"coset_represents({lat_name}, {m}) = {out}")
            elif kind == "witt" and (out.lower_bound, out.exact) != (2, True):
                bad.append(f"witt_rank_bounded(U+U) = {out}")
            elif kind in ("relations", "unitary") and out is not True:
                bad.append(f"{kind} at |D| = {key} returned {out}")
            elif kind == "invariants":
                got = [[str(x) for x in vec] for vec in out]
                if got != state["ref"]["invariants"][str(key)]:
                    bad.append(f"invariants at |D| = {key} differ from expected.json")
        return bad


WORKLOADS = {w.name: w for w in (EisDeep(), EisRandom(), CliPipeline(), Oracle())}
