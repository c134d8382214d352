"""Adaptive label smoothing with self-knowledge distillation.

A numpy training library and CLI: per-sample entropy-normalized smoothing
weights, best-checkpoint self-teachers, the combined distillation loss with
analytic gradients, a gradient-rescaling analysis lab, and calibration
metrics, all at desk scale.
"""

from .calibration import (
    CalibrationBin,
    CalibrationReport,
    calibration_report,
)
from .config import DataConfig, ModelConfig, TrainConfig
from .gradlab import (
    FlipCensus,
    GradientReport,
    PropositionReport,
    SamplingExhaustedError,
    flip_region_census,
    gradient_ratio,
    proposition1_validate,
    ratio_consistency_check,
)
from .losses import (
    LossBreakdown,
    adaptive_skd_loss,
    ce_loss,
    confidence_penalty_loss,
    kd_loss,
    label_smoothing_loss,
    linear_alpha_schedule,
    uniform_prior,
    unigram_prior,
)
from .probs import adaptive_alpha, alpha_from_entropy, entropy, softmax
from .registry import (
    CheckpointRegistry,
    CorruptCheckpointError,
    DuplicateEpochError,
    NoTeacherError,
)
from .trainer import (
    DivergenceError,
    EpochDiagnostics,
    TeacherHandle,
    evaluate,
    forward_backward,
    make_task_data,
    train,
)

__version__ = "0.1.0"
