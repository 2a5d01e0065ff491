"""Exception hierarchy shared by all modules.

Three broad families matter to callers (and to the CLI exit-code mapping):
precondition violations, exhausted budgets, and internal consistency failures.
"""


class VveisError(Exception):
    """Base class for all library errors."""


class PreconditionError(VveisError):
    """Input violates a documented precondition."""


class BudgetError(VveisError):
    """A configured search/iteration budget was exhausted."""


class ConsistencyError(VveisError):
    """An internal exactness or cross-check assertion failed."""


# -- lattice / discriminant form --

class NotSymmetric(PreconditionError):
    pass


class NotEven(PreconditionError):
    pass


class Singular(PreconditionError):
    pass


class InconclusiveBoundedSearch(BudgetError):
    """Bounded vector search exhausted its radius without deciding."""


# -- local counting --

class NegativeValuation(PreconditionError):
    """p-adic valuation of a quantity required to be p-integral is negative."""


class BudgetExceeded(BudgetError):
    """Enumeration would exceed the configured iteration cap."""


class NonIntegralResult(ConsistencyError):
    """A quantity proved to be a non-negative integer failed the check."""


# -- arithmetic / L-values --

class NonPrimitive(PreconditionError):
    pass


class ParityMismatch(PreconditionError):
    """chi(-1) != (-1)^s, so the Bernoulli closed form does not apply."""


class NonRationalResidue(ConsistencyError):
    """A value proved rational kept a pi-power, radical or root of unity."""


# -- q-series --

class IncompatibleDiscriminantForms(PreconditionError):
    pass


class TruncationInsufficient(PreconditionError):
    pass


# -- eisenstein / borcherds --

class KappaTooSmall(PreconditionError):
    """Weight below 2: outside the convergent-series regime."""


class NotAdmissible(PreconditionError):
    pass


class UnsupportedWeight(PreconditionError):
    """No legal auxiliary-form weight exists for the requested provider."""


class PositivityViolation(ConsistencyError):
    """A coefficient proved non-negative came out negative."""


class HypothesisNotVerified(PreconditionError):
    """A theorem hypothesis (e.g. on Witt rank) could not be certified."""


class BudgetExhausted(BudgetError):
    """Candidate search ended without a witness inside the budget."""


class FixtureNotABasis(PreconditionError):
    pass
