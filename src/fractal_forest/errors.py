"""Exception types shared across the package."""


class CapabilityError(Exception):
    """A request exceeds a hard size/level cap (symbolic blow-up guard)."""


class DecimationSingularError(Exception):
    """The decimation denominator vanished; the rational map is undefined here."""

