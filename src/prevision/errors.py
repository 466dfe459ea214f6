"""Exception types shared across the package."""

import reprlib

# Values echoed into error messages: strings up to 80 characters and
# containers up to 3 levels deep print whole, longer or deeper ones abridged;
# a Fraction as its p/q text, abridged as a string is but unquoted.
_ECHO = reprlib.Repr()
_ECHO.maxstring = 80
_ECHO.maxlevel = 3
_ECHO.repr_Fraction = lambda x, level: _ECHO.repr_str(str(x), level)[1:-1]
abridged = _ECHO.repr


class PrevisionError(Exception):
    """Base class for all library errors."""


class EmptySpace(PrevisionError):
    """No truth assignment survives the declared constraints."""


class SpaceTooLarge(PrevisionError):
    """More atoms declared than a world space may enumerate."""


class UnknownAtom(PrevisionError):
    """A formula references an atom that was never declared."""

    def __init__(self, name):
        super().__init__(f"unknown atom: {abridged(name)}")
        self.name = name


class FormulaError(PrevisionError):
    """A formula could not be parsed."""


class MissingPrevision(PrevisionError):
    """A compound needs a prevision value that was not supplied."""

    def __init__(self, subset):
        self.subset = frozenset(subset)
        pretty = ",".join(str(i) for i in sorted(self.subset))
        super().__init__(f"missing prevision for member subset {{{pretty}}}")


class OutOfRange(PrevisionError):
    """A value that must lie in [0, 1] does not."""


class NotApplicable(PrevisionError):
    """The family does not have the shape this construction requires."""


class InfeasibleSystem(PrevisionError):
    """An optimization was requested over an infeasible system."""


class IncoherentBase(PrevisionError):
    """An extension was requested over an incoherent base assessment."""


class TargetOutOfBounds(PrevisionError):
    """The requested value lies outside the attainable envelope."""
