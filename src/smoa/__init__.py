"""Subspace-modulated adapters over frozen weights, at desk scale.

The package splits a frozen weight's singular spectrum into K
energy-balanced subspaces, builds one frozen modulation tensor per
subspace, and trains low-rank factors whose products are Hadamard-
multiplied with the modulation blocks.  Baseline adapters, a
hand-derived-gradient training harness, and a rank sweep harness round
out the toolkit.
"""

from .adapters import (
    FULL_MATRIX,
    METHODS,
    Adapter,
    Block,
    block_layout,
    build_adapter,
    delta,
    load_adapter,
    merge,
    param_count,
    randomize_factors,
    save_adapter,
    smoa_masks,
    subspace_ranks,
)
from .errors import FormatError, NumericalError, SmoaError, ValidationError
from .matrix_io import (
    REPORT_HEADER,
    RunConfig,
    SweepConfig,
    TrainConfig,
    read_matrix,
    read_sweep_config,
    read_train_config,
    write_matrix,
    write_report,
)
from .rank_analysis import (
    RankRecord,
    RankReport,
    numerical_rank,
    rank_sweep,
    theoretical_bound,
)
from .spectral import (
    EmptySubspaceWarning,
    EnergyPartition,
    SpectralDecomposition,
    cumulative_energy,
    decompose,
    modulation_tensor,
    partition,
)
from .training import (
    DivergenceError,
    GradCheckReport,
    Gradients,
    LinearTask,
    backward,
    forward,
    grad_check,
    make_task,
    mse,
    random_weight,
    train,
    train_seeds,
    write_loss_trace,
)

__version__ = "0.1.0"
