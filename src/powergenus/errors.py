"""Exception hierarchy shared by all powergenus modules."""


class PowerGenusError(Exception):
    """Base class for all errors raised by this package."""


# --- group construction -----------------------------------------------------

class ClosureCapExceeded(PowerGenusError):
    """Permutation closure grew past ``groups.MAX_ORDER`` elements."""


class InvalidParameter(PowerGenusError):
    """Named-family parameter outside its documented validity range."""


class NotAHomomorphism(PowerGenusError):
    pass


class NotAnAutomorphism(PowerGenusError):
    pass


class OrderCapExceeded(PowerGenusError):
    """Group order above the documented practical bound (144)."""


# --- catalog ----------------------------------------------------------------

class UnknownLabel(PowerGenusError):
    pass


class ValidationFailed(PowerGenusError):
    pass


class UnsupportedOrder(PowerGenusError):
    pass


# --- graphs -----------------------------------------------------------------

class InvalidVertex(PowerGenusError):
    pass


class Disconnected(PowerGenusError):
    pass


class InvalidRotation(PowerGenusError):
    """Rotation system inconsistent with the graph it claims to embed."""


class InexactInput(PowerGenusError):
    """Block composition requires exact per-block genus results."""


# --- classifier -------------------------------------------------------------

class UnknownRule(PowerGenusError):
    pass


class InternalContradiction(PowerGenusError):
    """An input violates a proved structural fact (a bug or a counterexample)."""


# --- cli / io ---------------------------------------------------------------

class ParseError(PowerGenusError):
    pass
