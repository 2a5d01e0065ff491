"""Lossless JSON interchange for lattices, q-series, and principal parts.

Every rational travels as a string produced by ``str(Fraction(...))``
("240", "-3/4"), never as a float, so payloads keep every digit.  A parsed
rational may have up to ``MAX_DIGITS`` digits in its numerator and in its
denominator; longer ones are refused from the text, before ``Fraction``
builds them.  Dumps are canonical: fixed key sets, sorted keys, coefficient
lists in the containers' own deterministic order, and a trailing newline.
Two dumps of equal values are byte-identical, which is what makes
content-addressed caching and battery byte-comparison sound.

Document shapes:

  lattice         {"gram": [[...]]}
  q-series        {"den": n, "trunc": "p/q", "sign": "+"|"-",
                   "coeffs": [{"exp": "p/q", "mu": [..], "c": "p/q"}, ...]}
  principal part  {"principal_part": {"sign": "+"|"-", "coeffs": [...]},
                   "const_term": "p/q"}
  basis fixture   {"weight": "p/q", "provenance": str,
                   "elements": [{"cusp": bool, "series": <q-series>}, ...]}
  spec            {"bound_a": n, "members": [["p/q", [..]], ...]}
                  or {"bound_a": n, "ceiling": "p/q"}

Principal-part coefficient rows reuse the q-series row shape with the
actual (negative) exponent, so ``exp = -m`` for an index-m entry.
Parsers take the discriminant form as an argument: element tuples in a
document only name cosets relative to an encoding fixed by the lattice.
"""

import json
from fractions import Fraction

from . import borcherds
from .errors import PreconditionError
from .lattice import new_lattice
from .qseries import PrincipalPart, VVQSeries


def rational_str(x):
    return str(Fraction(x))


def is_int(x):
    """True for a JSON integer (a Python int that is not a bool)."""
    return isinstance(x, int) and not isinstance(x, bool)


# the most digits a parsed numerator or denominator may have; the bound is
# read off the text, since Fraction("1e99999999") builds 10^99999999 before
# anything could look at it, and ints past 4300 digits cannot be printed
MAX_DIGITS = 1000


def _digits(text):
    """The most digits Fraction(text) can give its numerator or denominator,
    counting the digits as written and a decimal exponent e as |e| more."""
    def count(s):
        return sum(c.isdigit() for c in s)

    head, slash, tail = text.partition("/")
    if slash:
        return max(count(head), count(tail))
    mantissa, _, exponent = text.lower().partition("e")
    whole, _, frac = mantissa.partition(".")
    n = count(whole) + count(frac)
    try:
        e = int(exponent or 0) - count(frac)  # the value is int(whole frac) * 10^e
    except ValueError:  # no exponent, or one past int's digit limit
        return n + count(exponent)
    return max(n, n + e, 1 - e)


def parse_rational(value, what="value"):
    if isinstance(value, bool) or isinstance(value, float):
        raise PreconditionError(
            f"{what} must be an integer or a 'p/q' string, got {value!r}")
    if ((isinstance(value, int) and abs(value) >= 10 ** MAX_DIGITS)
            or (isinstance(value, str) and _digits(value) > MAX_DIGITS)):
        raise PreconditionError(
            f"{what} has a numerator or denominator of more than {MAX_DIGITS} digits")
    try:
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError) as err:
        raise PreconditionError(f"{what} is not a rational: {value!r}") from err


def canonical_json(doc):
    """Deterministic text form; equal documents give equal bytes."""
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=True) + "\n"


def _require_keys(doc, required, optional, what):
    if not isinstance(doc, dict):
        raise PreconditionError(f"{what} document must be a JSON object")
    missing = sorted(set(required) - set(doc))
    if missing:
        raise PreconditionError(f"{what} document is missing {missing}")
    unknown = sorted(set(doc) - set(required) - set(optional))
    if unknown:
        raise PreconditionError(f"{what} document has unknown keys {unknown}")


def lattice_doc(lattice):
    return {"gram": [list(row) for row in lattice.gram]}


def parse_lattice(doc):
    _require_keys(doc, ("gram",), (), "lattice")
    gram = doc["gram"]
    if not isinstance(gram, list) or not all(isinstance(r, list) for r in gram):
        raise PreconditionError("gram must be a list of rows")
    for row in gram:
        for x in row:
            if not is_int(x):
                raise PreconditionError(f"gram entries must be integers, got {x!r}")
    return new_lattice(gram)


_SIGN_STR = {1: "+", -1: "-"}
_STR_SIGN = {"+": 1, "-": -1}


def _coeff_row(exp, mu, c):
    return {"exp": rational_str(exp), "mu": list(mu), "c": rational_str(c)}


def _parse_coeff_row(row, i, what):
    _require_keys(row, ("exp", "mu", "c"), (), f"{what} coefficient {i}")
    exp = parse_rational(row["exp"], f"{what} exponent {i}")
    c = parse_rational(row["c"], f"{what} coefficient value {i}")
    mu = row["mu"]
    if not isinstance(mu, list) or not all(map(is_int, mu)):
        raise PreconditionError(f"{what} mu {i} must be a list of integers")
    return exp, tuple(mu), c


def qseries_doc(series):
    doc = {
        "den": series.den,
        "trunc": rational_str(series.trunc),
        "sign": _SIGN_STR[series.sign],
        "coeffs": [_coeff_row(e, mu, c) for e, mu, c in series.items()],
    }
    if series.hecke_flag:
        doc["hecke_boundary"] = True
    return doc


def parse_qseries(doc, disc):
    _require_keys(doc, ("den", "trunc", "sign", "coeffs"),
                  ("hecke_boundary",), "q-series")
    den = doc["den"]
    if not is_int(den) or den < 1:
        raise PreconditionError(f"den must be a positive integer, got {den!r}")
    if doc["sign"] not in _STR_SIGN:
        raise PreconditionError(f"sign must be '+' or '-', got {doc['sign']!r}")
    trunc = parse_rational(doc["trunc"], "trunc")
    if not isinstance(doc["coeffs"], list):
        raise PreconditionError("coeffs must be a list")
    coeffs = {}
    for i, row in enumerate(doc["coeffs"]):
        exp, mu, c = _parse_coeff_row(row, i, "q-series")
        num = exp * den
        if num.denominator != 1:
            raise PreconditionError(
                f"exponent {exp} is not on the 1/{den} grid")
        key = (int(num), mu)
        if key in coeffs:
            raise PreconditionError(f"duplicate coefficient at ({exp}, {mu})")
        coeffs[key] = c
    return VVQSeries(disc, den, _STR_SIGN[doc["sign"]], trunc, coeffs,
                     hecke_flag=bool(doc.get("hecke_boundary", False)))


def principal_part_doc(pp):
    rows = [_coeff_row(-m, mu, c) for (m, mu), c in pp.items()]
    rows.sort(key=lambda r: (Fraction(r["exp"]), r["mu"]))
    return {
        "principal_part": {"sign": _SIGN_STR[pp.sign], "coeffs": rows},
        "const_term": rational_str(pp.const_term),
    }


def parse_principal_part(doc, disc):
    _require_keys(doc, ("principal_part", "const_term"), (), "principal-part")
    body = doc["principal_part"]
    _require_keys(body, ("sign", "coeffs"), (), "principal-part")
    if body["sign"] not in _STR_SIGN:
        raise PreconditionError(f"sign must be '+' or '-', got {body['sign']!r}")
    if not isinstance(body["coeffs"], list):
        raise PreconditionError("coeffs must be a list")
    entries = {}
    for i, row in enumerate(body["coeffs"]):
        exp, mu, c = _parse_coeff_row(row, i, "principal-part")
        if exp >= 0:
            raise PreconditionError(
                f"principal-part exponent {exp} must be negative")
        key = (-exp, mu)
        if key in entries:
            raise PreconditionError(f"duplicate entry at ({exp}, {mu})")
        entries[key] = c
    const = parse_rational(doc["const_term"], "const_term")
    return PrincipalPart(disc, entries, const, sign=_STR_SIGN[body["sign"]])


def fixture_doc(fixture):
    return {
        "weight": rational_str(fixture.weight),
        "provenance": fixture.provenance,
        "elements": [{"cusp": flag, "series": qseries_doc(g)}
                     for g, flag in zip(fixture.elements, fixture.cusp_flags)],
    }


def parse_fixture(doc, disc):
    _require_keys(doc, ("weight", "elements"), ("provenance",), "fixture")
    weight = parse_rational(doc["weight"], "weight")
    if not isinstance(doc["elements"], list):
        raise PreconditionError("elements must be a list")
    elements, flags = [], []
    for i, entry in enumerate(doc["elements"]):
        _require_keys(entry, ("cusp", "series"), (), f"fixture element {i}")
        if not isinstance(entry["cusp"], bool):
            raise PreconditionError(f"cusp flag {i} must be a boolean")
        elements.append(parse_qseries(entry["series"], disc))
        flags.append(entry["cusp"])
    return borcherds.ModularBasisFixture(weight, elements, flags,
                                         doc.get("provenance", ""))


def parse_spec(doc):
    _require_keys(doc, ("bound_a",), ("members", "ceiling"), "spec")
    if not is_int(doc["bound_a"]):
        raise PreconditionError(
            f"spec bound_a must be an integer, got {doc['bound_a']!r}")
    members = None
    if "members" in doc:
        if not isinstance(doc["members"], list):
            raise PreconditionError("spec members must be a list")
        members = []
        for row in doc["members"]:
            if not isinstance(row, list) or len(row) != 2:
                raise PreconditionError("each member must be [m, mu]")
            mu = row[1]
            if not isinstance(mu, list) or not all(map(is_int, mu)):
                raise PreconditionError(
                    f"member mu must be a list of integers, got {mu!r}")
            members.append((parse_rational(row[0], "member index"), tuple(mu)))
    ceiling = parse_rational(doc["ceiling"], "ceiling") \
        if "ceiling" in doc else None
    return borcherds.AdmissibleSetSpec(bound_a=doc["bound_a"], members=members,
                                       ceiling=ceiling)
