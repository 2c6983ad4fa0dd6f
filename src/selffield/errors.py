"""Exception hierarchy shared by all selffield modules."""


class SelfFieldError(Exception):
    """Base class for all numeric / physics errors raised by this package."""


class InvalidVelocityError(SelfFieldError):
    """Relative velocity beta outside the non-relativistic domain (beta >= 1 or < 0)."""


class SingularWavevectorError(SelfFieldError):
    """Operation undefined at q = 0 (transverse projection, 1/q^2 kernels)."""


class NormalizationError(SelfFieldError):
    """A probability density failed its normalization check."""

    def __init__(self, deficit: float):
        self.deficit = deficit
        super().__init__(
            f"density not normalized: 4*pi*int r^2 rho dr deviates from 1 by {deficit:.3e}"
        )


class NoMinimumError(SelfFieldError):
    """The localization functional has no interior minimum (e.g. beta = 0)."""


class NoLocalizationError(SelfFieldError):
    """Screened-atom functional is non-binding: no localization minimum exists."""


class GridMismatchError(SelfFieldError):
    """Packet does not fit the grid (resolution or box-size constraint violated)."""


class TimestepTooLargeError(SelfFieldError):
    """Time step violates the spectral stability guard."""


class ConfigError(SelfFieldError):
    """Run configuration failed strict schema validation."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")
