"""Exception types shared across the package."""


class LocalPIRError(Exception):
    """Base class for every error this package raises on purpose."""


# --- field ---------------------------------------------------------------

class CompositeModulus(LocalPIRError):
    """The requested modulus is not a prime number."""


class ModulusTooLarge(LocalPIRError):
    """The requested modulus is too large for primality to be decided."""


# --- graphs --------------------------------------------------------------

class SelfLoop(LocalPIRError):
    """An edge joins a vertex to itself."""


class DuplicateEdge(LocalPIRError):
    """The same unordered vertex pair appears twice in the edge list."""


class VertexOutOfRange(LocalPIRError):
    """An edge references a vertex outside 1..n."""


class InvalidFamilyParams(LocalPIRError):
    """Parameters do not describe a member of the requested graph family."""


class IndexOutOfRange(LocalPIRError):
    """A message or server index is outside its valid range."""


# --- scheme --------------------------------------------------------------

class TOutOfRange(LocalPIRError):
    """A per-server subset size t lies outside 1..degree."""


class RoleConflict(LocalPIRError):
    """The role rule cannot assign consistent endpoint roles."""


class NotBipartite(LocalPIRError):
    """The graph is not two-colorable."""


class UnresolvableRef(LocalPIRError):
    """A plan being built cannot be sent: an atom reads outside what its
    server stores or the plan's lengths, or the desired one has none."""


class IncompleteAnswers(LocalPIRError):
    """A decoding recipe read an answer its server never sent."""


class UndecodablePlan(LocalPIRError):
    """A plan's queries cannot recover every symbol of the desired message."""


# --- verify / capacity ---------------------------------------------------

class EnumerationTooLarge(LocalPIRError):
    """The exact privacy search would exceed its node budget."""


class EmptyInput(LocalPIRError):
    """An aggregate was requested over zero parts."""


class UnsupportedFamily(LocalPIRError):
    """No closed-form bounds are on record for this family."""
