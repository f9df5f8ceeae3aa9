"""Training-free adaptive caching for iterative flow samplers.

The package is a desk-scale test bench: an analytic Gaussian-mixture model
whose posterior-mean predictor is exact, a plain Euler sampler over decreasing
timesteps, and two caching layers above it. The step cache measures
low-frequency drift with cheap downsampled trial evaluations and reuses the
previous prediction while accumulated drift stays under a warmup-calibrated
threshold. The block cache replays per-block deltas of a block-decomposed
predictor for the least important blocks. A harness quantifies where
predictions change and what skipping costs, and a CLI turns runs, sweeps, and
trace analyses into reproducible artifacts.
"""

from .config import (
    MODES,
    OutputConfig,
    PredictorConfig,
    RunConfig,
    ScheduleConfig,
    build_predictor,
    build_schedule,
    parse_config,
    require_seeds,
    serialize_config,
)
from .engine import (
    REUSE_PREDICTION,
    REUSE_RESIDUAL,
    REUSE_STRATEGIES,
    BlockCacheConfig,
    BlockCacheState,
    CacheState,
    StepCacheConfig,
    accumulate_decide,
    block_cached_forward,
    block_importance,
    recorded_increments,
    relative_threshold,
    replay_decisions,
    sample_cached,
    select_pivotal,
    trial_lowfreq_diff,
)
from .errors import (
    ConfigError,
    DimensionError,
    DomainError,
    FlowCacheError,
    ScheduleError,
    StateError,
    TraceError,
)
from .harness import (
    DEFAULT_RESOLUTION_FACTORS,
    INFLUENCE_VARIANTS,
    PSNR_CAP_DB,
    AdjacentDiffProfile,
    BlockProfile,
    CostSummary,
    InfluenceProfile,
    ResolutionSensitivity,
    Trajectory,
    adjacent_diff_profile,
    block_profile,
    cost_accounting,
    pearson,
    psnr,
    resolution_sensitivity,
    run_trajectory,
    single_step_skip_influence,
    spearman,
)
from .predictors import (
    ConstantDeltaNet,
    GaussianMixtureSpec,
    MixtureComponent,
    MixturePredictor,
    ToyBlockNet,
    TraceArchive,
    TraceRecord,
    TraceReplayPredictor,
    mixture_posterior_mean,
    mixture_responsibilities,
    mixture_velocity,
    structured_mixture,
    toy_block_forward,
)
from .report import DECISION_FULL, DECISION_SKIP, DECISION_WARMUP, RunReport, StepRecord
from .sampler import (
    SCHEDULE_KINDS,
    TimestepSchedule,
    euler_step,
    make_schedule,
    sample_baseline,
)
from .spectral import (
    DEFAULT_RADIUS_SCALE,
    FrequencyMask,
    SpectrumPair,
    circular_mask,
    default_mask,
    fft2_split,
    highfreq_diff,
    lowfreq_diff,
    splice_bands,
)
from .tensor import (
    DownsampleFactors,
    Tensor4,
    avg_downsample,
    axpy,
    l2_norm,
    mse,
    seeded_normal,
)
from .traceio import parse_trace, read_trace, trace_bytes, write_trace

__version__ = "0.1.0"
