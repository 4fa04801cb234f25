"""Anchor deployment and localization accuracy for bent-ray acoustics.

The package splits into geometry (the sound-speed profile and position
types), fisher (the batched ray kernel for travel times and Jacobian
rows, noise models, information matrix and CRLB), deployment (the
surface-circle layout, its closed-form objective and optimizer, and the
cube/random baselines), estimation (the batched Gauss-Newton solver with
depth-sensor fusion), and harness (seeded Monte-Carlo sweeps with
CSV/SVG output).  The cli module wires them to the `auvgeom` command.
"""

from .errors import (
    AuvgeomError,
    DegenerateAfterRetries,
    DegenerateGeometry,
    EmptyTable,
    NoConvergedTrials,
    NonPositiveK,
    SingularFim,
    TooFewAnchors,
    UnsupportedCount,
    ZeroDiagonal,
)
from .geometry import Position, SoundSpeedProfile
from .fisher import (
    FimResult,
    NoiseModel,
    diagonal_lower_bound,
    fim,
    noise_variance,
)
from .deployment import (
    KSearchResult,
    OptimizerConfig,
    cube_positions,
    default_box_for,
    default_cube_for,
    grid_search_k,
    k_objective,
    optimize_k,
    random_positions,
    usc_positions,
    usc_trace_crlb_closed_form,
)
from .estimation import EstimatorConfig, estimate_trials
from .harness import (
    Axis,
    Cube,
    FIGURE_SPECS,
    FixedAnchors,
    Random,
    ResultTable,
    RmUsc,
    Row,
    RsUsc,
    Scenario,
    Static,
    SweepSpec,
    Usc,
    csv_text,
    emit_plot,
    export_csv,
    load_csv,
    run_scenario,
    sweep,
)

__version__ = "0.1.0"
