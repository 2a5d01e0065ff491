"""Command-line front end: JSON in, canonical JSON out.

Subcommands cover the full pipeline (lattice inspection, representation
counts, Eisenstein expansions, Weil-representation checks, auxiliary
series, decompositions, obstruction tests, prescriptions) plus `battery`,
which runs the acceptance suite and emits a machine-readable report.

Exit codes: 0 success, 1 I/O failure (unreadable or unwritable files),
2 usage or precondition violations (including malformed JSON payloads),
3 exhausted search budgets, 4 internal-consistency failures (also used
when the battery finds a failing criterion).

Configuration lives in an optional JSON file (--config) with the keys
lattice, cache_dir, naive_cap and cross_check, and environment overrides
VVEIS_LATTICE, VVEIS_CACHE_DIR, VVEIS_NAIVE_CAP and VVEIS_CROSSCHECK.
Unknown config keys are rejected; lattice and cache_dir must be strings.
The cross_check key reaches only `repnum --method auto`, whose count()
then compares the naive and Gauss-sum paths on every prime power.  The
variable VVEIS_CROSSCHECK sets that key and is also read by
repnums.local_counts, so it cross-checks every local count behind the
Eisenstein coefficients as well, both through repnums.crosscheck_flag.

When a cache directory is configured, pure computations are content-
addressed by (operation, gram matrix, parameters); every payload is stored
with its own digest, and a tampered or unreadable entry is discarded with
a warning and recomputed.  Entries are written to a private temporary
file and renamed into place, so concurrent writers never mix payloads.
Outputs are deterministic, so hits are byte-identical to misses.
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile
from dataclasses import dataclass, fields
from pathlib import Path

from .borcherds import (
    Provider,
    build_h,
    decompose,
    obstruction_check,
    prescribe,
    vanish_on,
)
from .eisenstein import eis_expansion
from .errors import (
    BudgetError,
    ConsistencyError,
    PreconditionError,
    VveisError,
)
from .formats import (
    canonical_json,
    is_int,
    parse_fixture,
    parse_lattice,
    parse_principal_part,
    parse_rational,
    parse_spec,
    principal_part_doc,
    qseries_doc,
    rational_str,
)
from .lattice import discriminant_form
from .repnums import count, count_gauss, count_naive, crosscheck_flag
from .weilrep import invariants, is_unitary, verify_relations, weil_matrices


@dataclass(frozen=True)
class Config:
    lattice: str = ""
    cache_dir: str = ""
    naive_cap: int = 10 ** 8
    cross_check: bool = False

    def __post_init__(self):
        if self.naive_cap <= 0:
            raise PreconditionError("config naive_cap must be positive")


_ENV_KEYS = {
    "VVEIS_LATTICE": ("lattice", str),
    "VVEIS_CACHE_DIR": ("cache_dir", str),
    "VVEIS_NAIVE_CAP": ("naive_cap", int),
    "VVEIS_CROSSCHECK": ("cross_check", crosscheck_flag),
}


def load_config(path=None, env=None):
    env = os.environ if env is None else env
    values = {}
    if path:
        doc = _read_json(path)
        known = {f.name for f in fields(Config)}
        if not isinstance(doc, dict):
            raise PreconditionError("config must be a JSON object")
        unknown = sorted(set(doc) - known)
        if unknown:
            raise PreconditionError(f"config has unknown keys {unknown}")
        values.update(doc)
    for var, (name, conv) in _ENV_KEYS.items():
        if var not in env:
            continue
        raw = env[var]
        try:
            values[name] = conv(raw)
        except ValueError as err:
            raise PreconditionError(f"{var}={raw!r} is not valid") from err
    for name in ("lattice", "cache_dir"):
        if name in values and not isinstance(values[name], str):
            raise PreconditionError(f"config {name} must be a string")
    if "naive_cap" in values and not is_int(values["naive_cap"]):
        raise PreconditionError("config naive_cap must be an integer")
    if "cross_check" in values and not isinstance(values["cross_check"], bool):
        raise PreconditionError("config cross_check must be a boolean")
    return Config(**values)


def _read_json(path):
    """The parsed file; text that is not UTF-8, not JSON or nested past the
    parser's recursion limit is a precondition error (exit 2)."""
    try:
        return json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as err:
        raise PreconditionError(f"{path} is not valid JSON: {err}") from err


def cached_text(cfg, key_doc, produce, warn=None):
    """Content-addressed text cache; corrupt entries recompute loudly."""
    if not cfg.cache_dir:
        return produce()
    digest = hashlib.sha256(canonical_json(key_doc).encode()).hexdigest()
    root = Path(cfg.cache_dir)
    path = root / f"{digest}.json"
    if path.exists():
        try:
            entry = json.loads(path.read_text())
            text = entry["text"]
            if hashlib.sha256(text.encode()).hexdigest() != entry["sha256"]:
                raise ValueError("stored digest does not match payload")
            return text
        except (OSError, ValueError, KeyError, TypeError, RecursionError) as err:
            if warn:
                warn(f"warning: discarding corrupt cache entry {path.name}: {err}")
    text = produce()
    root.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=root, prefix=f"{digest}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(canonical_json(
                {"sha256": hashlib.sha256(text.encode()).hexdigest(),
                 "text": text}))
        os.replace(tmp, path)
    except OSError:
        Path(tmp).unlink(missing_ok=True)
        raise
    return text


def _load_lattice(args, cfg):
    path = getattr(args, "lattice", None) or cfg.lattice
    if not path:
        raise PreconditionError(
            "no lattice file given (positional argument or config)")
    return parse_lattice(_read_json(path)), path


def _parse_mu(text, disc):
    if text is None:
        return disc.zero()
    parts = [p for p in text.split(",") if p.strip() != ""]
    try:
        mu = tuple(int(p) for p in parts)
    except ValueError as err:
        raise PreconditionError("--mu must be comma-separated integers") from err
    return disc.check(mu)


def _provider_from(args, lat, disc):
    """(provider, document) for --provider, the file read once; the
    Eisenstein provider of the negated lattice and None without it."""
    path = getattr(args, "provider", None)
    if not path:
        return Provider.eisenstein(lat.negated()), None
    doc = _read_json(path)
    return Provider.fixture(parse_fixture(doc, disc.negated())), doc


def _cmd_info(args, cfg, err):
    lat, _ = _load_lattice(args, cfg)
    disc = discriminant_form(lat)
    return canonical_json({
        "rank": lat.rank,
        "signature": [lat.sig_pos, lat.sig_neg],
        "det": lat.det,
        "level": lat.level,
        "disc_group": list(disc.orders),
        "disc_order": disc.size,
    }), 0


def _cmd_repnum(args, cfg, err):
    lat, path = _load_lattice(args, cfg)
    disc = discriminant_form(lat)
    m = parse_rational(args.m, "-m")
    mu = _parse_mu(args.mu, disc)
    if args.a < 1:
        raise PreconditionError("modulus -a must be >= 1")

    def produce():
        if args.method == "naive":
            rc = count_naive(lat, m, mu, args.a, cap=cfg.naive_cap, disc=disc)
        elif args.method == "gauss":
            from .arith import factorize
            fac = factorize(args.a)
            if len(fac) != 1:
                raise PreconditionError(
                    f"--method gauss needs a prime power, got {args.a}")
            ((p, w),) = fac.items()
            rc = count_gauss(lat, m, mu, p, w, disc=disc)
        else:
            rc = count(lat, m, mu, args.a, cap=cfg.naive_cap, disc=disc,
                       crosscheck=cfg.cross_check)
        return canonical_json({
            "m": rational_str(m), "mu": list(mu), "a": args.a,
            "count": rc.count, "method": rc.method,
        })

    key = {"op": "repnum", "gram": lat.gram, "m": rational_str(m),
           "mu": list(mu), "a": args.a, "method": args.method}
    return cached_text(cfg, key, produce, err), 0


def _cmd_eis(args, cfg, err):
    lat, _ = _load_lattice(args, cfg)
    if args.negate:
        lat = lat.negated()
    trunc = parse_rational(args.max_exp, "--max-exp")

    def produce():
        series = eis_expansion(lat, trunc)
        return canonical_json(qseries_doc(series))

    key = {"op": "eis", "gram": lat.gram, "max_exp": rational_str(trunc)}
    return cached_text(cfg, key, produce, err), 0


def _cmd_weil(args, cfg, err):
    lat, _ = _load_lattice(args, cfg)

    def produce():
        w = weil_matrices(discriminant_form(lat))
        doc = {}
        if args.relations or not args.invariants:
            doc["relations"] = verify_relations(w)
            doc["unitary"] = is_unitary(w)
        if args.invariants or not args.relations:
            doc["invariants"] = [[rational_str(x) for x in vec]
                                 for vec in invariants(w)]
        return canonical_json(doc)

    key = {"op": "weil", "gram": lat.gram, "relations": args.relations,
           "invariants": args.invariants}
    return cached_text(cfg, key, produce, err), 0


def _cmd_h_series(args, cfg, err):
    lat, _ = _load_lattice(args, cfg)
    disc = discriminant_form(lat)
    trunc = parse_rational(args.trunc, "--trunc")
    provider, provider_doc = _provider_from(args, lat, disc)

    def produce():
        h = build_h(lat.negated(), args.b, trunc, provider=provider,
                    disc=disc.negated())
        return canonical_json(qseries_doc(h))

    key = {"op": "h-series", "gram": lat.gram, "b": args.b,
           "trunc": rational_str(trunc), "provider": provider_doc}
    return cached_text(cfg, key, produce, err), 0


def _cmd_decompose(args, cfg, err):
    lat, _ = _load_lattice(args, cfg)
    disc = discriminant_form(lat)
    pp_doc = _read_json(args.pp)
    f = parse_principal_part(pp_doc, disc)
    provider, provider_doc = _provider_from(args, lat, disc)

    def produce():
        res = decompose(f, lat, provider=provider, minimal=args.minimal,
                        disc=disc)
        return canonical_json({
            "b": res.b, "c": res.c,
            "f1": principal_part_doc(res.f1),
            "f2": principal_part_doc(res.f2),
        })

    key = {"op": "decompose", "gram": lat.gram, "pp": pp_doc,
           "minimal": args.minimal, "provider": provider.name,
           "provider_doc": provider_doc}
    return cached_text(cfg, key, produce, err), 0


def _cmd_obstruct(args, cfg, err):
    lat, _ = _load_lattice(args, cfg)
    disc = discriminant_form(lat)
    pp = parse_principal_part(_read_json(args.pp), disc)
    fixture = parse_fixture(_read_json(args.fixture), disc)
    report = obstruction_check(pp, fixture)
    return canonical_json({
        "ok": report.ok,
        "values": [rational_str(v) for v in report.values],
        "violations": [[i, rational_str(v)] for i, v in report.violations],
    }), 0


def _cmd_prescribe(args, cfg, err):
    lat, _ = _load_lattice(args, cfg)
    disc = discriminant_form(lat)
    spec_doc = _read_json(args.spec)
    spec = parse_spec(spec_doc)
    fixture_doc_ = _read_json(args.fixture)
    fixture = parse_fixture(fixture_doc_, disc)

    def produce():
        pp = prescribe(lat, spec, fixture, budget=args.budget, disc=disc)
        return canonical_json(principal_part_doc(pp))

    key = {"op": "prescribe", "gram": lat.gram, "spec": spec_doc,
           "fixture": fixture_doc_, "budget": args.budget}
    return cached_text(cfg, key, produce, err), 0


def _cmd_vanish_on(args, cfg, err):
    lat, _ = _load_lattice(args, cfg)
    disc = discriminant_form(lat)
    m = parse_rational(args.m, "-m")
    mu = _parse_mu(args.mu, disc)
    fixture_doc_ = _read_json(args.fixture)
    fixture = parse_fixture(fixture_doc_, disc)
    provider, provider_doc = _provider_from(args, lat, disc)
    pp_doc = _read_json(args.pp) if args.pp else None
    pp = parse_principal_part(pp_doc, disc) if pp_doc else None

    def produce():
        out = vanish_on(lat, m, mu, fixture, provider=provider,
                        budget=args.budget, pp=pp, disc=disc)
        return canonical_json(principal_part_doc(out))

    key = {"op": "vanish-on", "gram": lat.gram, "m": rational_str(m),
           "mu": list(mu), "fixture": fixture_doc_, "pp": pp_doc,
           "budget": args.budget, "provider": provider.name,
           "provider_doc": provider_doc}
    return cached_text(cfg, key, produce, err), 0


def _cmd_battery(args, cfg, err):
    from . import acceptance
    numbers = None
    if args.criteria:
        try:
            numbers = sorted({int(x) for x in args.criteria.split(",")})
        except ValueError as exc:
            raise PreconditionError(
                "--criteria must be comma-separated integers") from exc
        known = {num for num, _, _ in acceptance.CRITERIA}
        bad = sorted(set(numbers) - known)
        if bad:
            raise PreconditionError(f"unknown criterion numbers {bad}")
    results = acceptance.run_all(numbers, log=err)
    doc = {
        "ok": all(r.ok for r in results),
        "criteria": [{
            "number": r.number, "name": r.name, "ok": r.ok,
            "detail": r.detail, "seconds": round(r.seconds, 3),
        } for r in results],
    }
    return canonical_json(doc), 0 if doc["ok"] else 4


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="vveis",
        description="Exact Eisenstein coefficients and holomorphic-product "
                    "input construction for even lattices.")
    parser.add_argument("--config", help="path to a JSON config file")
    parser.add_argument("--out", help="write output to this file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_, lattice_arg=True):
        p = sub.add_parser(name, help=help_)
        if lattice_arg:
            p.add_argument("lattice", nargs="?",
                           help="lattice JSON file {\"gram\": [[...]]}")
        p.set_defaults(handler=handler)
        return p

    add("info", _cmd_info, "signature, determinant, level, group invariants")

    p = add("repnum", _cmd_repnum, "representation count modulo a")
    p.add_argument("-m", required=True, help="target value, rational 'p/q'")
    p.add_argument("--mu", help="coset as comma-separated integers (default 0)")
    p.add_argument("-a", type=int, required=True, help="modulus")
    p.add_argument("--method", choices=("auto", "naive", "gauss"),
                   default="auto")

    p = add("eis", _cmd_eis, "Eisenstein expansion up to an exponent bound")
    p.add_argument("--max-exp", required=True, help="exclusive exponent bound")
    p.add_argument("--negate", action="store_true",
                   help="expand on the sign-flipped lattice")

    p = add("weil", _cmd_weil, "Weil representation checks")
    p.add_argument("--relations", action="store_true")
    p.add_argument("--invariants", action="store_true")

    p = add("h-series", _cmd_h_series,
            "non-negative auxiliary series for a (n,2) lattice")
    p.add_argument("-b", type=int, required=True, help="pole depth")
    p.add_argument("--trunc", required=True, help="exclusive exponent bound")
    p.add_argument("--provider", help="basis fixture JSON for the weight data")

    p = add("decompose", _cmd_decompose,
            "split a principal part into non-negative integral halves")
    p.add_argument("--pp", required=True, help="principal-part JSON file")
    p.add_argument("--provider", help="basis fixture JSON for the weight data")
    p.add_argument("--minimal", action="store_true",
                   help="return f itself when it is already non-negative")

    p = add("obstruct", _cmd_obstruct, "pair a principal part against cusp data")
    p.add_argument("--pp", required=True)
    p.add_argument("--fixture", required=True, help="cusp basis JSON file")

    p = add("prescribe", _cmd_prescribe,
            "principal part with nonzero constant term on an admissible set")
    p.add_argument("--spec", required=True, help="admissible-set JSON file")
    p.add_argument("--fixture", required=True, help="cusp basis JSON file")
    p.add_argument("--budget", type=int)

    p = add("vanish-on", _cmd_vanish_on,
            "non-negative integral input singling out one divisor datum")
    p.add_argument("-m", required=True)
    p.add_argument("--mu")
    p.add_argument("--fixture", required=True, help="cusp basis JSON file")
    p.add_argument("--provider", help="basis fixture JSON for the weight data")
    p.add_argument("--pp", help="start from this principal part")
    p.add_argument("--budget", type=int)

    p = add("battery", _cmd_battery,
            "run the acceptance criteria and report machine-readably",
            lattice_arg=False)
    p.add_argument("--criteria", help="comma-separated criterion numbers")

    return parser


def run(argv, stdout=None, stderr=None):
    out = sys.stdout if stdout is None else stdout
    err = sys.stderr if stderr is None else stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 2

    def warn(message):
        print(message, file=err)

    try:
        cfg = load_config(args.config)
        text, code = args.handler(args, cfg, warn)
    except BudgetError as exc:
        print(f"error (budget): {exc}", file=err)
        return 3
    except ConsistencyError as exc:
        print(f"error (consistency): {exc}", file=err)
        return 4
    except PreconditionError as exc:
        print(f"error (precondition): {exc}", file=err)
        return 2
    except VveisError as exc:
        print(f"error: {exc}", file=err)
        return 4
    except OSError as exc:
        print(f"error (io): {exc}", file=err)
        return 1
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            print(f"error (io): {exc}", file=err)
            return 1
    else:
        out.write(text)
    return code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
