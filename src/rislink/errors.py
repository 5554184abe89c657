"""Exception types shared across the library.

The CLI maps these onto exit codes: input-side problems (config files,
Touchstone/pattern parsing, frequency selection) are :class:`InputError`
subclasses and exit with code 2, as does an ``OSError`` from a file read or
write; everything else derived from :class:`RislinkError` exits with code 1.
"""


class RislinkError(Exception):
    """Base class for all library-specific failures."""


class InputError(RislinkError):
    """A problem with user-supplied files, options or configuration."""


class ConfigError(InputError):
    """Invalid or incomplete scenario configuration."""


class TouchstoneError(InputError):
    """Malformed Touchstone data.

    Carries the 1-based line number where the problem was detected when
    that is known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class PatternError(InputError):
    """Malformed element pattern table or pattern/port misalignment."""


class PatternCoverageError(PatternError):
    """An azimuth was requested outside the sampled pattern range."""


class FrequencyNotFoundError(InputError):
    """No Touchstone point lies within tolerance of the requested frequency."""


class GeometryError(RislinkError):
    """Geometrically inconsistent scenario data."""


class IllConditionedLoadError(RislinkError):
    """Loaded-port reduction hit a resonant/ill-conditioned system."""

    def __init__(self, condition_number: float):
        self.condition_number = condition_number
        super().__init__(
            "resonant/ill-conditioned loading: condition number "
            f"{condition_number:.3e} of (I - S_ii*Gamma) exceeds the trusted range"
        )


class UnoptimizableError(RislinkError):
    """The load optimizer was handed an input it cannot improve."""
