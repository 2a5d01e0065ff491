"""Command-line front end: JSON in, canonical JSON out.

Subcommands cover the full pipeline (lattice inspection, representation
counts, Eisenstein expansions, Weil-representation checks, auxiliary
series, decompositions, obstruction tests, prescriptions) plus `battery`,
which runs the acceptance suite and emits a machine-readable report.

Exit codes: 0 success, 1 I/O failure (unreadable or unwritable files),
2 usage or precondition violations (including malformed JSON payloads),
3 exhausted search budgets, 4 internal-consistency failures (also used
when the battery finds a failing criterion).

Configuration lives in an optional JSON file (--config) with the two file
locations lattice and cache_dir, both strings, and the environment
overrides VVEIS_LATTICE and VVEIS_CACHE_DIR; unknown config keys are
rejected.  VVEIS_CROSSCHECK is no CLI setting: repnums reads it once at
import (repnums.CROSSCHECK), and while it is on every subcommand compares
the naive and Gauss-sum paths on every local count and bypasses the cache.

Every subcommand but `battery` goes through one dispatcher, which reads
the lattice and every document option (--pp, --provider, --fixture,
--spec) once and keys the cache by the subcommand, the Gram matrix, every
other argument as typed and every document.  The discriminant form is
built and the documents are parsed only on a miss.  Each entry stores its
payload's digest; a tampered or unreadable entry is discarded with a
warning and recomputed.  Entries are written to a private temporary file
and renamed into place, so concurrent writers never mix payloads.
Outputs are deterministic and the key holds every input, so a hit
answers exactly as a miss does; entries of an earlier key format miss
once.
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile
from dataclasses import dataclass, fields
from pathlib import Path

from . import repnums
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
from .repnums import count, count_gauss, count_naive
from .weilrep import invariants, is_unitary, verify_relations, weil_matrices


@dataclass(frozen=True)
class Config:
    lattice: str = ""
    cache_dir: str = ""


_ENV_KEYS = {"VVEIS_LATTICE": "lattice", "VVEIS_CACHE_DIR": "cache_dir"}


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
    values.update((name, env[var]) for var, name in _ENV_KEYS.items()
                  if var in env)
    for name, value in values.items():
        if not isinstance(value, str):
            raise PreconditionError(f"config {name} must be a string")
    return Config(**values)


def _read_json(path):
    """The parsed file; text that is not UTF-8, not JSON or nested past the
    parser's recursion limit is a precondition error (exit 2)."""
    try:
        return json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as err:
        raise PreconditionError(f"{path} is not valid JSON: {err}") from err


def cached_text(cfg, key_doc, produce, warn=None):
    """Content-addressed text cache; corrupt entries recompute loudly.  A
    cross-checked run (``repnums.CROSSCHECK``) neither reads nor writes an
    entry, so it is never answered by an unchecked one."""
    if not cfg.cache_dir or repnums.CROSSCHECK:
        return produce()
    try:
        key_text = canonical_json(key_doc)
    except RecursionError:  # a document the decoder took but the encoder cannot
        return produce()
    digest = hashlib.sha256(key_text.encode()).hexdigest()
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


# Options naming a JSON document; the key holds the document, not its path.
_DOCUMENTS = ("pp", "provider", "fixture", "spec")
# Parsed arguments left out of the key's "args": the root flags, the
# dispatch fields and the paths (the lattice and documents enter by content).
_NOT_INPUTS = {"config", "out", "command", "handler", "payload", "lattice",
               *_DOCUMENTS}


def _dispatch(args, cfg, warn):
    """A lattice subcommand's output: its inputs read and keyed once, the
    payload computed (with the discriminant form) only on a cache miss."""
    path = args.lattice or cfg.lattice
    if not path:
        raise PreconditionError(
            "no lattice file given (positional argument or config)")
    lat = parse_lattice(_read_json(path))
    # vars(args) keeps the declaration order: documents are read in the
    # order the subcommand lists its options
    docs = {name: _read_json(value) for name, value in vars(args).items()
            if name in _DOCUMENTS and value is not None}
    key = {
        "command": args.command,
        "gram": lat.gram,
        "args": {k: v for k, v in vars(args).items() if k not in _NOT_INPUTS},
        "documents": docs,
    }

    def produce():
        disc = discriminant_form(lat)
        return canonical_json(args.payload(args, lat, disc, docs))

    return cached_text(cfg, key, produce, warn), 0


def _parse_mu(text, disc):
    if text is None:
        return disc.zero()
    parts = [p for p in text.split(",") if p.strip() != ""]
    try:
        mu = tuple(int(p) for p in parts)
    except ValueError as err:
        raise PreconditionError("--mu must be comma-separated integers") from err
    return disc.check(mu)


def _provider(docs, lat, disc):
    """The --provider fixture's first element, or without it the Eisenstein
    provider of the negated lattice."""
    if "provider" not in docs:
        return Provider.eisenstein(lat.negated())
    return Provider.fixture(parse_fixture(docs["provider"], disc.negated()))


def _info(args, lat, disc, docs):
    return {
        "rank": lat.rank,
        "signature": [lat.sig_pos, lat.sig_neg],
        "det": lat.det,
        "level": lat.level,
        "disc_group": list(disc.orders),
        "disc_order": disc.size,
    }


def _repnum(args, lat, disc, docs):
    m = parse_rational(args.m, "-m")
    mu = _parse_mu(args.mu, disc)
    if args.a < 1:
        raise PreconditionError("modulus -a must be >= 1")
    if args.method == "naive":
        rc = count_naive(lat, m, mu, args.a)
    elif args.method == "gauss":
        from .arith import factorize
        fac = factorize(args.a)
        if len(fac) != 1:
            raise PreconditionError(
                f"--method gauss needs a prime power, got {args.a}")
        ((p, w),) = fac.items()
        rc = count_gauss(lat, m, mu, p, w)
    else:
        rc = count(lat, m, mu, args.a)
    return {"m": rational_str(m), "mu": list(mu), "a": args.a,
            "count": rc.count, "method": rc.method}


def _eis(args, lat, disc, docs):
    trunc = parse_rational(args.max_exp, "--max-exp")
    if args.negate:
        return qseries_doc(eis_expansion(lat.negated(), trunc))
    return qseries_doc(eis_expansion(lat, trunc))


def _weil(args, lat, disc, docs):
    w = weil_matrices(disc)
    doc = {}
    if args.relations or not args.invariants:
        doc["relations"] = verify_relations(w)
        doc["unitary"] = is_unitary(w)
    if args.invariants or not args.relations:
        doc["invariants"] = [[rational_str(x) for x in vec]
                             for vec in invariants(w)]
    return doc


def _h_series(args, lat, disc, docs):
    trunc = parse_rational(args.trunc, "--trunc")
    h = build_h(lat.negated(), args.b, trunc,
                provider=_provider(docs, lat, disc))
    return qseries_doc(h)


def _decompose(args, lat, disc, docs):
    f = parse_principal_part(docs["pp"], disc)
    res = decompose(f, lat, provider=_provider(docs, lat, disc),
                    minimal=args.minimal)
    return {"b": res.b, "c": res.c,
            "f1": principal_part_doc(res.f1),
            "f2": principal_part_doc(res.f2)}


def _obstruct(args, lat, disc, docs):
    pp = parse_principal_part(docs["pp"], disc)
    report = obstruction_check(pp, parse_fixture(docs["fixture"], disc))
    return {
        "ok": report.ok,
        "values": [rational_str(v) for v in report.values],
        "violations": [[i, rational_str(v)] for i, v in report.violations],
    }


def _prescribe(args, lat, disc, docs):
    spec = parse_spec(docs["spec"])
    fixture = parse_fixture(docs["fixture"], disc)
    return principal_part_doc(
        prescribe(lat, spec, fixture, budget=args.budget))


def _vanish_on(args, lat, disc, docs):
    m = parse_rational(args.m, "-m")
    mu = _parse_mu(args.mu, disc)
    fixture = parse_fixture(docs["fixture"], disc)
    provider = _provider(docs, lat, disc)
    pp = parse_principal_part(docs["pp"], disc) if "pp" in docs else None
    return principal_part_doc(vanish_on(
        lat, m, mu, fixture, provider=provider, budget=args.budget, pp=pp))


def _battery(args, cfg, warn):
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
    results = acceptance.run_all(numbers, log=warn)
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

    def add(name, payload, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("lattice", nargs="?",
                       help="lattice JSON file {\"gram\": [[...]]}")
        p.set_defaults(handler=_dispatch, payload=payload)
        return p

    add("info", _info, "signature, determinant, level, group invariants")

    p = add("repnum", _repnum, "representation count modulo a")
    p.add_argument("-m", required=True, help="target value, rational 'p/q'")
    p.add_argument("--mu", help="coset as comma-separated integers (default 0)")
    p.add_argument("-a", type=int, required=True, help="modulus")
    p.add_argument("--method", choices=("auto", "naive", "gauss"),
                   default="auto")

    p = add("eis", _eis, "Eisenstein expansion up to an exponent bound")
    p.add_argument("--max-exp", required=True, help="exclusive exponent bound")
    p.add_argument("--negate", action="store_true",
                   help="expand on the sign-flipped lattice, which keeps "
                        "this lattice's coset labels")

    p = add("weil", _weil, "Weil representation checks")
    p.add_argument("--relations", action="store_true")
    p.add_argument("--invariants", action="store_true")

    p = add("h-series", _h_series,
            "non-negative auxiliary series for a (n,2) lattice")
    p.add_argument("-b", type=int, required=True, help="pole depth")
    p.add_argument("--trunc", required=True, help="exclusive exponent bound")
    p.add_argument("--provider", help="basis fixture JSON for the weight data")

    p = add("decompose", _decompose,
            "split a principal part into non-negative integral halves")
    p.add_argument("--pp", required=True, help="principal-part JSON file")
    p.add_argument("--provider", help="basis fixture JSON for the weight data")
    p.add_argument("--minimal", action="store_true",
                   help="return f itself when it is already non-negative")

    p = add("obstruct", _obstruct, "pair a principal part against cusp data")
    p.add_argument("--pp", required=True)
    p.add_argument("--fixture", required=True, help="cusp basis JSON file")

    p = add("prescribe", _prescribe,
            "principal part with nonzero constant term on an admissible set")
    p.add_argument("--spec", required=True, help="admissible-set JSON file")
    p.add_argument("--fixture", required=True, help="cusp basis JSON file")
    p.add_argument("--budget", type=int)

    p = add("vanish-on", _vanish_on,
            "non-negative integral input singling out one divisor datum")
    p.add_argument("-m", required=True)
    p.add_argument("--mu")
    p.add_argument("--fixture", required=True, help="cusp basis JSON file")
    p.add_argument("--provider", help="basis fixture JSON for the weight data")
    p.add_argument("--pp", help="start from this principal part")
    p.add_argument("--budget", type=int)

    p = sub.add_parser(
        "battery", help="run the acceptance criteria and report machine-readably")
    p.set_defaults(handler=_battery)
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
