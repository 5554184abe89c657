"""Exception types shared across the library, and its one check of a number from a caller.

The CLI maps these onto exit codes: input-side problems (config files,
Touchstone/pattern parsing, frequency selection) are :class:`InputError`
subclasses and exit with code 2, as does an ``OSError`` from a file read or
write; everything else derived from :class:`RislinkError` exits with code 1.

A number from a caller is checked once, where it enters a constructor or an
entry function, by :func:`check` against one of :data:`RULES`. The bytes of
every input file become text in :func:`decoded`, whose error names the file.
"""

import math
import operator

#: Largest |angle| from the surface normal: +-90 deg, closed, with rounding slack.
MAX_ANGLE_RAD = math.pi / 2 + 1e-12

#: Rule -> test of a value. The rule is also the wording of the error. A
#: comparison that cannot be made, such as ``complex < float``, breaks the rule.
RULES = {
    "finite": lambda x: -math.inf < x < math.inf,
    "positive and finite": lambda x: 0 < x < math.inf,
    "finite and >= 0": lambda x: 0 <= x < math.inf,
    "within [-pi/2, pi/2]": lambda x: -MAX_ANGLE_RAD <= x <= MAX_ANGLE_RAD,
    "an integer >= 0": lambda x: operator.index(x) >= 0,
    "an integer >= 1": lambda x: operator.index(x) >= 1,
    "an integer >= 10": lambda x: operator.index(x) >= 10,
    "of magnitude <= 1": lambda x: abs(x) <= 1.0,
    "of magnitude <= 1 + 1e-9": lambda x: abs(x) <= 1.0 + 1e-9,
    "of finite magnitude": lambda x: abs(x) < math.inf,
}


def check(name: str, value, rule: str = "finite"):
    """``value`` if it keeps ``rule``, a key of :data:`RULES`; else ValueError("<name> must be <rule>, got <value>")."""
    try:
        kept = RULES[rule](value)
    except TypeError:
        kept = False
    if not kept:
        raise ValueError(f"{name} must be {rule}, got {value}")
    return value


def decoded(data: bytes, error: type["InputError"], where: str = "file is ") -> str:
    """``data`` as UTF-8 text, else ``error("<where>not valid UTF-8 text: <reason>")``."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{where}not valid UTF-8 text: {exc}") from None


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
