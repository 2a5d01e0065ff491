"""Exact arithmetic for vector-valued Eisenstein series on even lattices.

The package computes Fourier coefficients of the weight-kappa Eisenstein
series attached to the Weil representation of an even lattice as exact
rationals, counts coset representations modulo prime powers by two
independent routes, verifies the finite Weil representation's generator
relations, and constructs verified inputs for holomorphic products:
non-negative auxiliary series, decompositions into non-negative integral
halves, obstruction pairings against cusp data, and principal parts with
prescribed support and nonzero constant term.

Everything numeric is a Fraction or an exact cyclotomic; floats appear
only in advisory report fields.  The `vveis` command-line tool (module
vveis.cli) exposes the same operations over canonical JSON.
"""

from .borcherds import (
    AdmissibleSetSpec,
    AdmissibilityReport,
    DecomposeResult,
    ModularBasisFixture,
    ObstructionReport,
    Provider,
    build_h,
    check_admissible,
    constant_term,
    decompose,
    obstruction_check,
    prescribe,
    vanish_on,
)
from .eisenstein import (
    context,
    eis_coefficient,
    eis_expansion,
    lower_bound_report,
)
from .errors import (
    BudgetError,
    ConsistencyError,
    PreconditionError,
    VveisError,
)
from .formats import (
    canonical_json,
    fixture_doc,
    lattice_doc,
    parse_fixture,
    parse_lattice,
    parse_principal_part,
    parse_qseries,
    principal_part_doc,
    qseries_doc,
)
from .lattice import (
    DiscriminantForm,
    EvenLattice,
    RepResult,
    WittReport,
    coset_represents,
    discriminant_form,
    new_lattice,
    t_max,
    t_mu,
    theta_counts,
    witt_rank_bounded,
)
from .qseries import (
    PrincipalPart,
    ScalarQSeries,
    VVQSeries,
    delta_power,
    zero_series,
)
from .repnums import count, count_gauss, count_naive, w_p
from .weilrep import (
    Cyclotomic,
    invariants,
    is_unitary,
    verify_relations,
    weil_matrices,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibleSetSpec", "AdmissibilityReport", "DecomposeResult",
    "ModularBasisFixture", "ObstructionReport", "Provider", "build_h", "check_admissible", "constant_term",
    "decompose", "obstruction_check", "prescribe", "vanish_on",
    "context", "eis_coefficient", "eis_expansion", "lower_bound_report",
    "BudgetError", "ConsistencyError", "PreconditionError", "VveisError",
    "canonical_json", "fixture_doc", "lattice_doc", "parse_fixture",
    "parse_lattice", "parse_principal_part", "parse_qseries",
    "principal_part_doc", "qseries_doc",
    "DiscriminantForm", "EvenLattice", "RepResult", "WittReport",
    "coset_represents", "discriminant_form", "new_lattice", "t_max", "t_mu",
    "theta_counts", "witt_rank_bounded",
    "PrincipalPart", "ScalarQSeries", "VVQSeries", "delta_power",
    "zero_series",
    "count", "count_gauss", "count_naive", "w_p",
    "Cyclotomic", "invariants", "is_unitary", "verify_relations",
    "weil_matrices",
]
