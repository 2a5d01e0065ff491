"""The package's frozen records: fields, construction, repr, equality.

Every record is a ``collections.namedtuple`` class, which costs no import
at start-up.  The contract pinned here is what callers and printed reports
rely on: the field order, the defaults, immutability, the repr text and
value equality.
"""

from fractions import Fraction

import pytest

from vveis import acceptance, borcherds, cli, eisenstein, lattice, repnums, weilrep

# (record, positional sample, the keyword arguments that suffice, the repr
# of the sample); the sample's values are already in normal form
RECORDS = [
    (cli.Config, ("l.json", "cache"), {},
     "Config(lattice='l.json', cache_dir='cache')"),
    (repnums.RepCount, (Fraction(1, 2), (0, 1), 4, 3, "gauss"), None,
     "RepCount(m=Fraction(1, 2), mu=(0, 1), a=4, count=3, method='gauss')"),
    (eisenstein.EisensteinContext,
     ("L", "D", Fraction(7), 2, (2, 3), False, None, Fraction(-1, 61)), None,
     "EisensteinContext(lattice='L', disc='D', kappa=Fraction(7, 1), b_minus=2, "
     "primes=(2, 3), hecke_boundary=False, chi=None, scale=Fraction(-1, 61))"),
    (eisenstein.LowerBoundRow,
     (Fraction(1), (0, 0), Fraction(240), 240.0, Fraction(240)), None,
     "LowerBoundRow(m=Fraction(1, 1), mu=(0, 0), coefficient=Fraction(240, 1), "
     "ratio=240.0, ratio_exact=Fraction(240, 1))"),
    (eisenstein.LowerBoundReport, (Fraction(4), Fraction(3), (), (1.5,)), None,
     "LowerBoundReport(kappa=Fraction(4, 1), exponent=Fraction(3, 1), rows=(), "
     "running_min=(1.5,))"),
    (lattice.WittReport, (2, True), None,
     "WittReport(lower_bound=2, exact=True)"),
    (borcherds.AdmissibleSetSpec, (1, None, None, Fraction(3)),
     {"bound_a": 1, "ceiling": 3},
     "AdmissibleSetSpec(bound_a=1, members=None, predicate=None, "
     "ceiling=Fraction(3, 1))"),
    (borcherds.AdmissibilityReport, (((Fraction(1), (0,)),), ()), None,
     "AdmissibilityReport(accepted=((Fraction(1, 1), (0,)),), rejected=())"),
    (borcherds.DecomposeResult, ("f1", "f2", 3, 1, "h"), None,
     "DecomposeResult(f1='f1', f2='f2', c=3, b=1, h='h')"),
    (borcherds.ObstructionReport, (False, (Fraction(2),), ((0, Fraction(2)),)), None,
     "ObstructionReport(ok=False, values=(Fraction(2, 1),), "
     "violations=((0, Fraction(2, 1)),))"),
    (weilrep.WeilMatrices, ("D", 2, 0, 8, (0, 4), "c"), None,
     "WeilMatrices(disc='D', sig_pos=2, sig_neg=0, order=8, t=(0, 4), c='c')"),
    (acceptance.CriterionResult, (1, "E8", True, "ok", 0.5), None,
     "CriterionResult(number=1, name='E8', ok=True, detail='ok', seconds=0.5)"),
]
FIELDS = {
    "Config": ("lattice", "cache_dir"),
    "RepCount": ("m", "mu", "a", "count", "method"),
    "EisensteinContext": ("lattice", "disc", "kappa", "b_minus", "primes",
                          "hecke_boundary", "chi", "scale"),
    "LowerBoundRow": ("m", "mu", "coefficient", "ratio", "ratio_exact"),
    "LowerBoundReport": ("kappa", "exponent", "rows", "running_min"),
    "WittReport": ("lower_bound", "exact"),
    "AdmissibleSetSpec": ("bound_a", "members", "predicate", "ceiling"),
    "AdmissibilityReport": ("accepted", "rejected"),
    "DecomposeResult": ("f1", "f2", "c", "b", "h"),
    "ObstructionReport": ("ok", "values", "violations"),
    "WeilMatrices": ("disc", "sig_pos", "sig_neg", "order", "t", "c"),
    "CriterionResult": ("number", "name", "ok", "detail", "seconds"),
}
DEFAULTS = {
    "Config": {"lattice": "", "cache_dir": ""},
    "AdmissibleSetSpec": {"members": None, "predicate": None, "ceiling": None},
}


@pytest.mark.parametrize("cls,args,minimal,text", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
class TestRecordContract:
    def test_fields_in_order(self, cls, args, minimal, text):
        assert cls._fields == FIELDS[cls.__name__]

    def test_construction(self, cls, args, minimal, text):
        record = cls(*args)
        assert tuple(getattr(record, f) for f in cls._fields) == args
        assert cls(**dict(zip(cls._fields, args))) == record
        defaults = DEFAULTS.get(cls.__name__, {})
        if defaults:
            short = cls(**minimal)
            assert {f: getattr(short, f) for f in defaults if f not in minimal} \
                == {f: v for f, v in defaults.items() if f not in minimal}
        else:
            with pytest.raises(TypeError):
                cls(*args[:-1])

    def test_fields_cannot_be_assigned(self, cls, args, minimal, text):
        record = cls(*args)
        for name, value in zip(cls._fields, args):
            with pytest.raises(AttributeError):
                setattr(record, name, value)

    def test_repr(self, cls, args, minimal, text):
        assert repr(cls(*args)) == text

    def test_equal_records_hash_equal(self, cls, args, minimal, text):
        a, b = cls(*args), cls(*args)
        assert a == b and hash(a) == hash(b)
        assert a != a._replace(**{cls._fields[-1]: "other"})


def test_only_weil_matrices_keeps_an_instance_dict():
    # its dense views t_mat and s_mat are cached_property values
    for cls, args, *_ in RECORDS:
        assert hasattr(cls(*args), "__dict__") == (cls is weilrep.WeilMatrices)


def test_properties():
    report = eisenstein.LowerBoundReport(Fraction(4), Fraction(3), (
        eisenstein.LowerBoundRow(Fraction(1), (0,), Fraction(1), 1.0, Fraction(1)),
        eisenstein.LowerBoundRow(Fraction(2), (0,), Fraction(-1), -0.5, None)), ())
    assert not report.all_positive
    assert report._replace(rows=report.rows[:1]).all_positive
    assert borcherds.AdmissibilityReport(((1, (0,)),), ()).ok
    assert not borcherds.AdmissibilityReport((), (((1, (0,)), "no"),)).ok
    assert acceptance.CriterionResult(7, "cusp", False, "bad", 1.5).line == \
        "criterion 7 FAIL (1.5s) cusp: bad"


def test_admissible_set_spec_normalises():
    # text and ints in, normal form out; the refusals are in test_borcherds.py
    spec = borcherds.AdmissibleSetSpec(bound_a="2", members=[("3/4", [0, 1])])
    assert spec.bound_a == 2 and type(spec.bound_a) is int
    assert spec.members == ((Fraction(3, 4), (0, 1)),)
    assert type(spec.members[0][0]) is Fraction
    grid = borcherds.AdmissibleSetSpec(1, ceiling="7/2")
    assert grid.ceiling == Fraction(7, 2) and type(grid.ceiling) is Fraction
