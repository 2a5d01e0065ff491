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

``import vveis`` runs the Eisenstein core (errors, arith, linalg,
lattice, repnums, qseries, eisenstein) and formats.  The Weil
representation (weilrep) and the Borcherds-input layer (borcherds) run on
first use: each is registered with ``importlib.util.LazyLoader``, so it
sits in ``sys.modules`` and on the package from the start and executes
on its first attribute access, and its names are served here through a
module ``__getattr__`` (PEP 562).  A process that computes no Weil or
Borcherds data, a command-line cache hit among them, never compiles
them; tools that read every submodule out of ``sys.modules`` right after
the import still find each one.  No core module imports either layer.
"""

import importlib.util
import sys


def _on_first_use(name):
    """The submodule ``name``, registered to execute on its first attribute
    access (the stdlib lazy-import recipe)."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# bound before formats imports borcherds: ``from . import borcherds`` then
# finds the package attribute and does not trigger the load
weilrep = _on_first_use("weilrep")
borcherds = _on_first_use("borcherds")
# the names re-exported from the two layers, read off them when asked for
_HOME = dict.fromkeys((
    "AdmissibleSetSpec", "AdmissibilityReport", "DecomposeResult",
    "ModularBasisFixture", "ObstructionReport", "Provider", "build_h",
    "check_admissible", "constant_term", "decompose", "obstruction_check",
    "prescribe", "vanish_on"), borcherds) | dict.fromkeys((
    "Cyclotomic", "invariants", "is_unitary", "verify_relations",
    "weil_matrices"), weilrep)


def __getattr__(name):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(module, name)


def __dir__():
    return sorted({*globals(), *_HOME})


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
