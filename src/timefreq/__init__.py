"""Numerical time-frequency analysis toolkit: dyadic tiles and trees, Gabor
wave-packet frames, variational and maximal-multiplier norms, exceptional-set
constructions, and an ergodic-average experiment lab.
"""

from .grid import Grid, SampledFunction, dft, idft, hl_maximal, lp_norm
from .dyadic import (
    DyadicInterval,
    Forest,
    Interval,
    Tile,
    TileUniverse,
    Tree,
    decay_level,
    is_convex,
    saturation,
    tile_le,
    tiles_from_text,
    tiles_to_text,
    window_partition,
)
from .wavepackets import (
    Kernel,
    ModelFunction,
    Window,
    build_kernel,
    build_window,
    gabor_expand,
    gabor_reconstruct,
    model_function,
)
from .norms import (
    AdaptedBump,
    interval_weight,
    make_adapted_bump,
    maximal_multiplier_lower,
    tile_size,
    variational_norm,
)
from .trees import (
    ForestDecomposition,
    TreePieces,
    select_forests,
    tree_decompose,
    tree_variation_report,
)
from .multipliers import (
    FrequencySet,
    MultiplierFamily,
    covering_intervals,
    growth_scan,
    scale_variation,
)
from .exceptional import (
    GridSet,
    LevelParams,
    ParamLedger,
    ParameterError,
    check_pointwise_bound,
    maximal_exceptional_set,
    overlap_exceptional_set,
    run_pipeline,
    split_tiles,
    variation_exceptional_set,
)
from .ergodic import (
    AverageSeries,
    CircleRotation,
    convergence_diagnostic,
    integral_tail,
    orbit_tail,
    return_times_average,
    single_scale_blowup,
    tail_diagnostics,
)

__version__ = "0.1.0"
