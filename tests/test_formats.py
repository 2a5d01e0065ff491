"""JSON interchange: canonical bytes, lossless round-trips, strict parsing."""

import json
import math
import random
from fractions import Fraction

import pytest

from vveis.borcherds import AdmissibleSetSpec, ModularBasisFixture
from vveis.errors import PreconditionError
from vveis.formats import (
    canonical_json,
    fixture_doc,
    lattice_doc,
    parse_fixture,
    parse_lattice,
    parse_principal_part,
    parse_qseries,
    parse_rational,
    parse_spec,
    principal_part_doc,
    qseries_doc,
    rational_str,
)
from vveis.lattice import discriminant_form, new_lattice
from vveis.qseries import PrincipalPart, VVQSeries

U = [[0, 1], [1, 0]]


def _discs():
    return [
        discriminant_form(new_lattice([[0, 1], [1, 0]])),
        discriminant_form(new_lattice([[-2]])),
        discriminant_form(new_lattice([[4]])),
    ]


def random_series(rng, disc, trunc=7):
    sign = rng.choice([1, -1])
    den = math.lcm(*(disc.q_value(mu).denominator
                     for mu in disc.elements()))
    coeffs = {}
    for _ in range(rng.randrange(0, 12)):
        mu = rng.choice(disc.elements())
        exp = sign * disc.q_value(mu) + rng.randrange(-3, 7)
        if exp >= trunc:
            continue
        c = Fraction(rng.randrange(-99, 100), rng.randrange(1, 13))
        coeffs[(int(exp * den), mu)] = c
    return VVQSeries(disc, den, sign, trunc, coeffs,
                     hecke_flag=rng.random() < 0.2)


class TestRationals:
    def test_strings(self):
        assert rational_str(Fraction(240)) == "240"
        assert rational_str(Fraction(-3, 4)) == "-3/4"
        assert parse_rational("-3/4") == Fraction(-3, 4)
        assert parse_rational(7) == 7

    def test_rejections(self):
        for bad in (1.5, True, "abc", "1/0", None, [1]):
            with pytest.raises(PreconditionError):
                parse_rational(bad)


class TestLatticeDoc:
    def test_round_trip(self):
        lat = new_lattice([[2, -1], [-1, 2]])
        again = parse_lattice(json.loads(canonical_json(lattice_doc(lat))))
        assert again.gram == lat.gram

    def test_strict_keys(self):
        with pytest.raises(PreconditionError, match="unknown"):
            parse_lattice({"gram": [[2]], "extra": 1})
        with pytest.raises(PreconditionError, match="missing"):
            parse_lattice({})

    def test_integer_entries_only(self):
        with pytest.raises(PreconditionError):
            parse_lattice({"gram": [[2.0]]})
        with pytest.raises(PreconditionError):
            parse_lattice({"gram": [[True]]})
        with pytest.raises(PreconditionError):
            parse_lattice({"gram": "not rows"})


class TestQSeriesDoc:
    def test_round_trip_values_and_bytes(self):
        rng = random.Random(20260814)
        discs = _discs()
        for _ in range(50):
            disc = rng.choice(discs)
            f = random_series(rng, disc)
            text = canonical_json(qseries_doc(f))
            g = parse_qseries(json.loads(text), disc)
            assert g == f
            assert g.hecke_flag == f.hecke_flag
            assert canonical_json(qseries_doc(g)) == text

    def test_canonical_bytes_ignore_insertion_order(self):
        doc = {"den": 1, "trunc": "3", "sign": "+", "coeffs": []}
        shuffled = {"coeffs": [], "sign": "+", "den": 1, "trunc": "3"}
        assert canonical_json(doc) == canonical_json(shuffled)

    def test_strict_parsing(self):
        disc = _discs()[0]
        base = {"den": 1, "trunc": "3", "sign": "+", "coeffs": []}
        with pytest.raises(PreconditionError, match="unknown"):
            parse_qseries({**base, "weight": "2"}, disc)
        with pytest.raises(PreconditionError, match="sign"):
            parse_qseries({**base, "sign": "plus"}, disc)
        with pytest.raises(PreconditionError, match="positive integer"):
            parse_qseries({**base, "den": 0}, disc)
        row = {"exp": "1/2", "mu": [], "c": "1"}
        with pytest.raises(PreconditionError, match="grid"):
            parse_qseries({**base, "coeffs": [row]}, disc)
        dup = {"exp": "1", "mu": [], "c": "1"}
        with pytest.raises(PreconditionError, match="duplicate"):
            parse_qseries({**base, "coeffs": [dup, dict(dup)]}, disc)

    def test_congruence_still_enforced_on_parse(self):
        disc = _discs()[1]  # q((1,)) = 3/4 on the negated-side grid
        doc = {"den": 4, "trunc": "3", "sign": "+",
               "coeffs": [{"exp": "1/2", "mu": [1], "c": "1"}]}
        with pytest.raises(PreconditionError, match="congruent"):
            parse_qseries(doc, disc)


class TestPrincipalPartDoc:
    def test_round_trip(self):
        disc = discriminant_form(new_lattice([[-2]]))
        pp = PrincipalPart(disc, {(Fraction(3, 4), (1,)): 2, (1, (0,)): -5},
                           Fraction(7, 3), sign=-1)
        doc = principal_part_doc(pp)
        assert doc["const_term"] == "7/3"
        again = parse_principal_part(json.loads(canonical_json(doc)), disc)
        assert again == pp

    def test_exponents_must_be_negative(self):
        disc = _discs()[0]
        doc = {"principal_part": {"sign": "-", "coeffs": [
            {"exp": "1", "mu": [], "c": "1"}]}, "const_term": "0"}
        with pytest.raises(PreconditionError, match="negative"):
            parse_principal_part(doc, disc)

    def test_symmetry_enforced_on_parse(self):
        disc = _discs()[2]
        doc = {"principal_part": {"sign": "-", "coeffs": [
            {"exp": "-1/8", "mu": [1], "c": "1"}]}, "const_term": "0"}
        with pytest.raises(PreconditionError, match="symmetric"):
            parse_principal_part(doc, disc)


class TestFixtureDoc:
    def test_round_trip(self):
        disc = _discs()[0]
        g = VVQSeries(disc, 1, 1, 4, {(1, ()): 1, (2, ()): -24})
        e = VVQSeries(disc, 1, 1, 4, {(0, ()): 1, (1, ()): -24})
        fix = ModularBasisFixture(12, (g, e), (True, False), "hand data")
        doc = fixture_doc(fix)
        again = parse_fixture(json.loads(canonical_json(doc)), disc)
        assert again.weight == 12
        assert again.provenance == "hand data"
        assert again.cusp_flags == (True, False)
        assert list(again.elements) == [g, e]

    def test_cusp_flag_type(self):
        disc = _discs()[0]
        doc = {"weight": "12", "elements": [
            {"cusp": 1, "series": {"den": 1, "trunc": "2", "sign": "+",
                                   "coeffs": []}}]}
        with pytest.raises(PreconditionError, match="boolean"):
            parse_fixture(doc, disc)


class TestSpecDoc:
    def test_shapes(self):
        assert parse_spec({"bound_a": 2, "members": [["3/4", [0, 1]]]}) == \
            AdmissibleSetSpec(bound_a=2, members=((Fraction(3, 4), (0, 1)),))
        assert parse_spec({"bound_a": 1, "ceiling": "5/2"}) == \
            AdmissibleSetSpec(bound_a=1, ceiling=Fraction(5, 2))
