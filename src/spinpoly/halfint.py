"""Half-integer spin labels, stored exactly as the integer 2j."""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple


class _HalfIntFields(NamedTuple):
    two_j: int


class HalfInt(_HalfIntFields):
    """A nonnegative half-integer j, held as ``two_j = 2j``.

    The matrix dimension for spin j is ``two_j + 1``.  Integer spins
    (bosonic) have even ``two_j``, semi-integer spins (fermionic) odd.
    An immutable NamedTuple, ordered and hashed by two_j.
    """

    __slots__ = ()

    def __new__(cls, two_j: int) -> "HalfInt":
        if not isinstance(two_j, int) or isinstance(two_j, bool):
            raise TypeError(f"two_j must be an int, got {two_j!r}")
        if two_j < 0:
            raise ValueError(f"two_j must be nonnegative, got {two_j}")
        return super().__new__(cls, two_j)

    @classmethod
    def _make(cls, iterable) -> "HalfInt":
        # NamedTuple's _replace builds through _make: check the fields here too
        return cls(*iterable)

    @classmethod
    def parse(cls, text: str) -> "HalfInt":
        """Parse '3/2', '1.5' or '3'.  Anything that is not an exact
        nonnegative half-integer is rejected, never rounded."""
        try:
            value = Fraction(text.strip())
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"not a spin label: {text!r}") from None
        if value.denominator not in (1, 2) or value < 0:
            raise ValueError(f"not a nonnegative half-integer: {text!r}")
        return cls(int(2 * value))

    @property
    def is_integer(self) -> bool:
        return self.two_j % 2 == 0

    def __str__(self) -> str:
        if self.is_integer:
            return str(self.two_j // 2)
        return f"{self.two_j}/2"


def half_integers(max_two_j: int):
    """Yield HalfInt(0), HalfInt(1/2), ... up to two_j = max_two_j."""
    for two_j in range(max_two_j + 1):
        yield HalfInt(two_j)
