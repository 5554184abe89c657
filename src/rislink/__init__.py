"""rislink: far-field S-matrix extrapolation, load optimization and BRCS sweeps.

Given a single multiport scatter matrix of a reconfigurable surface, the
library extrapolates the full Tx-RIS-Rx link matrix for arbitrary antenna
positions, optimizes per-element varactor capacitances for maximum power
transfer and produces bistatic-RCS angle sweeps with a flat-reflector
reference.
"""

__version__ = "0.1.0"

from .brcs import (
    BrcsCurve,
    DBSM_FLOOR,
    brcs_from_coupling,
    export_csv,
    flat_reflector_reference,
    sweep_rx_angle,
)
from .errors import (
    ConfigError,
    FrequencyNotFoundError,
    GeometryError,
    IllConditionedLoadError,
    InputError,
    PatternCoverageError,
    PatternError,
    RislinkError,
    TouchstoneError,
    UnoptimizableError,
)
from .farfield import (
    ElementGeometry,
    ElementPattern,
    ExpDecayCoupling,
    FarFieldValidityWarning,
    SPEED_OF_LIGHT,
    Scenario,
    assemble_full_matrix,
    farfield_limit_distance,
    synth_ris_matrix,
)
from .loads import (
    IDEAL_VARACTOR,
    LoadBounds,
    LoadVector,
    OptimizeResult,
    OptimizerOptions,
    StartTrace,
    VaractorModel,
    cap_to_gamma,
    load_gammas,
    objective,
    objective_gradient,
    optimize,
    phase_gradient_seed,
)
from .network import (
    ReflectionVector,
    ScatterMatrix,
    check_passivity,
    reduce_loaded,
)
from .patterns import parse_pattern_table
from .scenario import (
    PatternsFile,
    PatternsUniform,
    ReflectorSpec,
    RisFile,
    RisSynthesis,
    ScenarioConfig,
    SweepGrid,
    load_scenario,
    read_scenario,
)
from .touchstone import (
    TouchstoneDocument,
    TouchstoneOptions,
    document_from_matrix,
    dumps_touchstone,
    matrix_at_frequency,
    parse_touchstone,
    read_touchstone,
    write_touchstone,
)

__all__ = [name for name in dir() if not name.startswith("_")]
