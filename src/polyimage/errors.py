"""Exceptions shared across the package.

The CLI maps these onto exit codes: invalid input -> 2, resource cap -> 3.
Any other exception escaping a command is an internal error -> 4, so a crash
never reads as exit 1, a verification failure.
"""


class InvalidInputError(ValueError):
    """Malformed polynomial text, bad modulus, degenerate request."""


class NotSquareFreeError(InvalidInputError):
    """Modulus contains a repeated prime factor."""


class DegenerateInputError(InvalidInputError):
    """Input is valid but carries no structure to analyze (e.g. mean spacing 1)."""


class WildModulusError(InvalidInputError):
    """The prime is too small for the resultant machinery (derivative vanishes
    mod p, or p <= deg f' leaves too few interpolation nodes)."""


class ResourceCapError(RuntimeError):
    """A configured memory or lattice cap would be exceeded."""
