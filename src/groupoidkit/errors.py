"""Exception hierarchy for groupoidkit.

Every operational failure raises a subclass of GroupoidKitError; validation
style operations return report values instead of raising.
"""


class GroupoidKitError(Exception):
    """Base class for all groupoidkit errors."""


class SchemaError(GroupoidKitError):
    """An input document does not match one of the documented file schemas."""


class NotComposable(GroupoidKitError):
    """Attempted to compose arrows (or squares, or cubes) with mismatched ends."""


class UnknownObject(GroupoidKitError):
    """An object id is not part of the groupoid."""


class UnknownPoint(GroupoidKitError):
    """A point is not part of the topology's point set."""


class EmptyNotAllowed(GroupoidKitError):
    """A construction that needs at least one object got zero."""


class InvalidMorphism(GroupoidKitError):
    """A map of groupoids does not preserve the structure."""


class IllFormedWord(GroupoidKitError):
    """A word's letters are not consecutively composable or name identities."""


class PartialMap(GroupoidKitError):
    """A map that must be total on the window is missing values."""


class NotLocalMorphism(GroupoidKitError):
    """A window map does not preserve the partial groupoid structure."""


class NotFree(GroupoidKitError):
    """An operation restricted to presentations without relations got one."""


class InvalidPresentationMorphism(GroupoidKitError):
    """A presentation morphism is ill defined (endpoints or relations break)."""


class NotConnected(GroupoidKitError):
    """A connected presentation was required."""


class WrongShape(GroupoidKitError):
    """Pushout data does not have the required span shape."""


class OutOfDomain(GroupoidKitError):
    """A point lies outside the domain of a partial section."""


class NotSectionable(GroupoidKitError):
    """No window-valued bisection passes through the requested arrow."""


class NotFiniteOnInstance(GroupoidKitError):
    """A construction that must be finite on this instance is not."""


class TooSmall(GroupoidKitError):
    """A model generator was asked for fewer segments than it supports."""


class NotACrossedModule(GroupoidKitError):
    """Crossed module axioms fail."""


class NotACube(GroupoidKitError):
    """Six squares do not assemble into a cube shell."""


class NotSpecialDouble(GroupoidKitError):
    """A double groupoid lacks the shape needed for crossed module extraction."""


class RewritingNotConfluent(GroupoidKitError):
    """The instance rewriting system failed its critical pair check."""


class WellDefinednessFailure(GroupoidKitError):
    """A quotient-level map is not constant on classes."""


class CapExceeded(GroupoidKitError, OverflowError):
    """An exhaustive enumeration would pass its documented size cap."""
