"""Gradient rescaling analysis for the distillation losses.

Closed-form ratios between the distillation and cross-entropy logit
gradients, the predicates for the regime where the distillation gradient
reverses direction, and a Monte Carlo validator for the claim that (under
matched target probabilities and a shared, less-confident teacher) the
higher-entropy sample of a pair always receives the larger mean rescaling
factor.

The validator rejection-samples candidate pairs in fixed-size blocks of
array draws: each block is projected and scored in one pass over all its
rows, then one selection keeps the valid ones. Only the teacher's target
mass enters the mean rescaling factor, so no teacher distribution is
drawn. Its entropies are the trainer's row entropies
(``probs.entropy_rows``), so each pair's smoothing weights are
``adaptive_alpha`` of its students, bit for bit.

Undefined ratios (zero cross-entropy gradient component) are marked with
NaN rather than infinity, and consumers count them separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .artifacts import write_csv
from .config import ConfigError
from .losses import _check_label, mixture_loss_rows
from .probs import (
    alpha_from_entropy,
    check_prob_dist,
    entropy_rows,
    floored_log,
    softmax,
    softmax_rows,
)


class SamplingExhaustedError(RuntimeError):
    """Raised when rejection sampling cannot produce enough valid pairs."""


@dataclass(frozen=True)
class GradientReport:
    """Rescaling ratios of the distillation gradient relative to cross entropy.

    ``ratio_target`` uses the absolute-value closed form
    ``(1-alpha) - alpha * |P(y) - P_t(y)| / |P(y) - 1|``; it is NaN when the
    student already puts probability 1 on the target. ``ratio_nontarget``
    holds ``1 - alpha * P_t(i) / P(i)`` for every class, with NaN at the
    target slot and wherever ``P(i) = 0``. Flip flags mark strictly
    negative ratios (gradient direction reversed); they are False where the
    ratio is undefined.

    ``teacher_less_confident`` records whether ``P_t(y) <= P(y)``, the
    regime in which the absolute-value target form equals the literal
    gradient quotient. Outside it the target ratio is flagged rather than
    reinterpreted.
    """

    ratio_target: float
    ratio_nontarget: np.ndarray
    flip_target: bool
    flip_nontarget: np.ndarray
    teacher_less_confident: bool


def _check_pair(p_student: np.ndarray, p_teacher: np.ndarray, y, alpha: float) -> int:
    """Validate a student/teacher pair's lengths, target and weight; return the target."""
    if p_student.size != p_teacher.size:
        raise ValueError("student and teacher distributions differ in length")
    idx = _check_label(y, p_student.size)
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must lie in [0, 1], got {alpha!r}")
    return idx


def gradient_ratio(p_student, p_teacher, y, alpha: float) -> GradientReport:
    """Closed-form gradient rescaling ratios for one (student, teacher) pair.

    Validates its inputs and returns row 0 of ``gradient_ratio_rows``.
    """
    ps, pt = check_prob_dist(p_student), check_prob_dist(p_teacher)
    idx = _check_pair(ps, pt, y, alpha)
    rows = gradient_ratio_rows(ps[np.newaxis], pt[np.newaxis], [idx], alpha)
    # per-class fields stay arrays; the others become plain floats and bools
    return GradientReport(**{name: row[0] if row.ndim > 1 else row[0].item()
                             for name, row in vars(rows).items()})


def _target_ratio(ps_y, pt_y, alpha):
    """Closed-form target ratio from the target probabilities; negative where it flips."""
    return (1.0 - alpha) - alpha * np.abs(ps_y - pt_y) / np.abs(ps_y - 1.0)


def gradient_ratio_rows(p_student, p_teacher, targets, alphas) -> GradientReport:
    """``gradient_ratio`` of each row of (n, C) student and teacher distributions.

    Unvalidated; ``alphas`` is a scalar or one weight per row. Each field
    of the report gains a leading row axis of length n.
    """
    ps = np.asarray(p_student, dtype=np.float64)
    pt = np.asarray(p_teacher, dtype=np.float64)
    y = np.asarray(targets, dtype=np.int64)
    n = ps.shape[0]
    a = np.broadcast_to(np.asarray(alphas, dtype=np.float64), (n,))
    rows = np.arange(n)
    ps_y, pt_y = ps[rows, y], pt[rows, y]
    # P(y) = 1 and P(i) = 0 divide by zero; those ratios are undefined (NaN)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio_target = _target_ratio(ps_y, pt_y, a)
        ratio_nontarget = 1.0 - a[:, np.newaxis] * pt / ps
    ratio_target[ps_y == 1.0] = np.nan
    ratio_nontarget[ps == 0.0] = np.nan
    ratio_nontarget[rows, y] = np.nan
    # NaN compares False, so undefined ratios never flag a flip
    return GradientReport(
        ratio_target=ratio_target,
        ratio_nontarget=ratio_nontarget,
        flip_target=ratio_target < 0.0,
        flip_nontarget=ratio_nontarget < 0.0,
        teacher_less_confident=pt_y <= ps_y,
    )


class RatioTable(NamedTuple):
    """The columns of ``ratios.csv`` as (n, C) arrays; cell ``[i, k]`` is class ``k``
    of row ``i``. ``literal_ratio`` is ``kd_grad / ce_grad``, NaN where ``ce_grad`` is 0.
    """

    is_target: np.ndarray
    ce_grad: np.ndarray
    kd_grad: np.ndarray
    literal_ratio: np.ndarray
    closed_form_ratio: np.ndarray
    flip: np.ndarray


def ratio_table(p_student, p_teacher, targets, alpha: float) -> RatioTable:
    """``RatioTable`` of (n, C) student and teacher distributions, unvalidated.

    Both gradients come from one ``mixture_loss_rows`` batch: the n rows at
    weight 0, then the n rows at ``alpha``.
    """
    y = np.asarray(targets, dtype=np.int64)
    n, c = p_student.shape
    probs, priors = np.vstack([p_student, p_student]), np.vstack([p_teacher, p_teacher])
    g_ce, g_kd = mixture_loss_rows(probs, floored_log(probs), np.tile(y, 2), priors,
                                   np.repeat([0.0, alpha], n))[3].reshape(2, n, c)
    report = gradient_ratio_rows(p_student, p_teacher, y, alpha)
    is_target = np.arange(c) == y[:, np.newaxis]
    with np.errstate(divide="ignore", invalid="ignore"):
        literal = np.where(g_ce != 0.0, g_kd / g_ce, np.nan)
    return RatioTable(is_target, g_ce, g_kd, literal,
                      np.where(is_target, report.ratio_target[:, np.newaxis], report.ratio_nontarget),
                      np.where(is_target, report.flip_target[:, np.newaxis], report.flip_nontarget))


def sampled_ratio_table(n_draws: int, class_count: int, alpha: float, seed: int) -> RatioTable:
    """``ratio_table`` of ``n_draws`` draws of, in this stream order, standard
    normal student logits, standard normal teacher logits and a target class."""
    if not (0.0 <= alpha <= 1.0) or class_count < 2 or n_draws < 1 or seed < 0:
        raise ConfigError("need alpha in [0, 1], class_count >= 2, n_draws >= 1 and seed >= 0")
    rng = np.random.default_rng(seed)
    c = class_count
    draws = [(rng.normal(size=c), rng.normal(size=c), rng.integers(c)) for _ in range(n_draws)]
    z_s, z_t, y = (np.array(column) for column in zip(*draws))
    p_s, p_t = softmax_rows(np.vstack([z_s, z_t])).reshape(2, n_draws, c)
    return ratio_table(p_s, p_t, y, alpha)


def ratio_consistency_check(z_student, z_teacher, y, alpha: float, atol: float = 1e-9) -> bool:
    """Check the closed-form ratios against the literal gradient quotient.

    One validated row of ``ratio_table``: True when the two agree within
    ``atol`` wherever both are defined. The target component is skipped when
    the teacher is more confident than the student there: the absolute-value
    target form is an identity only in the less-confident-teacher regime.
    """
    ps, pt = softmax(z_student), softmax(z_teacher)
    idx = _check_pair(ps, pt, y, alpha)
    table = ratio_table(ps[np.newaxis], pt[np.newaxis], [idx], alpha)
    off = np.abs(table.literal_ratio[0] - table.closed_form_ratio[0]) > atol  # NaN compares False
    off[idx] &= pt[idx] <= ps[idx]
    return not off.any()


@dataclass(frozen=True)
class PropositionReport:
    """The sampled pairs as columns: trial ``i`` is index ``i`` of each array.

    ``high``/``low`` name the entropy order of a trial's two students, which
    share the target class ``target``: ``alpha_*`` are their smoothing weights,
    ``w_*`` their mean rescaling factors, the closed-form target ratio that
    ``gradient_ratio`` reports. ``violation`` marks ``w_high > w_low`` failing
    by more than ``PROPOSITION_SLACK``; ``violations`` counts it.
    """

    valid_pairs: int
    violations: int
    target: np.ndarray
    alpha_high: np.ndarray
    alpha_low: np.ndarray
    w_high: np.ndarray
    w_low: np.ndarray
    violation: np.ndarray


# Slack on the strict inequality w_high > w_low; differences smaller than
# this are attributed to rounding, not to a counterexample.
PROPOSITION_SLACK = 1e-10


# Candidates drawn per block by the proposition sampler; bounds its working
# set to a few arrays of BLOCK_SIZE x class_count floats. No run draws more
# than MAX_ATTEMPTS candidates.
BLOCK_SIZE = 256
MAX_ATTEMPTS = 10**6


class PairBlock(NamedTuple):
    """The valid candidate pairs of one block, in draw order.

    Row ``i`` holds the shared target class and target probability ``t[i]``
    of two students with strictly ordered entropies, their smoothing
    weights, and the teacher's target mass ``s[i] < t[i]``.
    """

    target: np.ndarray
    alpha_high: np.ndarray
    alpha_low: np.ndarray
    t: np.ndarray
    s: np.ndarray


def _sample_block(rng: np.random.Generator, class_count: int, size: int) -> PairBlock:
    """Draw ``size`` candidate pairs and keep those meeting the preconditions.

    Construction: two simplex points per candidate, the second projected
    to match the first's target probability ``t``; the teacher's target
    mass ``s = t * u`` lies strictly below ``t`` and is shared by both
    samples, matching the shared rescaling bracket the ordering claim
    compares against. The teachers' off-target mass never enters the
    mean rescaling factor, so it is not drawn.

    Every row-wise step runs once over all ``size`` candidates; one index
    at the end keeps the rows that meet the preconditions.
    """
    target = rng.integers(class_count, size=size)
    p_a = rng.dirichlet(np.ones(class_count), size=size)
    p_b = rng.dirichlet(np.ones(class_count), size=size)
    u = rng.uniform(size=size)

    rows = np.arange(size)
    t = p_a[rows, target]
    tb = p_b[rows, target]
    s = t * u
    # a p_b one-hot on the target cannot be projected; its row is dropped
    # below, and the divisor 1.0 only keeps the arithmetic finite
    p_b *= ((1.0 - t) / np.where(tb < 1.0, 1.0 - tb, 1.0))[:, np.newaxis]
    p_b[rows, target] = t

    # The trainer's row entropies: a pair is kept or dropped, and ordered, on
    # the entropies behind ``adaptive_alpha`` of its students, bit for bit.
    h_a = entropy_rows(p_a, floored_log(p_a))
    h_b = entropy_rows(p_b, floored_log(p_b))
    keep = np.flatnonzero((t > 0.0) & (t < 1.0) & (tb < 1.0) & (s < t) & (h_a != h_b))
    h_a, h_b = h_a[keep], h_b[keep]
    return PairBlock(target[keep],
                     alpha_from_entropy(np.maximum(h_a, h_b), class_count),
                     alpha_from_entropy(np.minimum(h_a, h_b), class_count),
                     t[keep], s[keep])


def proposition1_validate(n_trials: int, class_count: int, seed: int) -> PropositionReport:
    """Monte Carlo check of the rescaling-factor ordering on sampled pairs.

    Rejection-samples ``n_trials`` pairs satisfying the preconditions
    (equal student target probability, strict entropy ordering, teacher
    strictly less confident on the target, shared teacher target mass),
    derives each sample's smoothing weight from its own entropy, and counts
    violations of ``w_high > w_low`` beyond ``PROPOSITION_SLACK``.

    Candidates are drawn in blocks of ``BLOCK_SIZE`` and filtered as
    arrays; the first ``n_trials`` valid ones, in draw order, are the
    trials. No more than ``MAX_ATTEMPTS`` candidates are ever drawn, and
    ``SamplingExhaustedError`` is raised if they hold fewer valid pairs.
    Entropies are the trainer's row entropies, so every trial's smoothing
    weights equal ``adaptive_alpha`` of its two students, bit for bit.
    """
    if class_count < 3:
        raise ConfigError(f"class_count must be >= 3, got {class_count!r}")
    if n_trials < 1:
        raise ConfigError(f"n_trials must be >= 1, got {n_trials!r}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed!r}")
    rng = np.random.default_rng(seed)

    blocks = []
    taken = drawn = 0
    while taken < n_trials:
        size = min(BLOCK_SIZE, MAX_ATTEMPTS - drawn)
        if size <= 0:
            raise SamplingExhaustedError(
                f"could not draw {n_trials} valid pairs in {MAX_ATTEMPTS} attempts"
            )
        block = _sample_block(rng, class_count, size)
        drawn += size
        blocks.append([x[:n_trials - taken] for x in (block.target, block.alpha_high,
                                                      block.alpha_low, block.t, block.s)])
        taken += blocks[-1][0].size
    target, a_high, a_low, t, s = (np.concatenate(column) for column in zip(*blocks))
    w_high, w_low = _target_ratio(t, s, a_high), _target_ratio(t, s, a_low)
    violation = ~(w_high > w_low - PROPOSITION_SLACK)
    return PropositionReport(n_trials, int(violation.sum()), target, a_high, a_low,
                             w_high, w_low, violation)


@dataclass(frozen=True)
class FlipCensus:
    """Grid evaluation of the target direction-flip predicate.

    One row per grid cell in the region ``p_teacher <= p_student``:
    the student's target probability, the teacher's, and whether the
    target gradient flips direction at the given smoothing weight.
    """

    p_student: np.ndarray
    p_teacher: np.ndarray
    flip: np.ndarray


def flip_region_census(grid_resolution: int, alpha: float) -> FlipCensus:
    """Evaluate the target-flip inequality on an open-interval grid.

    Cell centers ``(i + 0.5) / R`` keep the grid strictly inside (0, 1);
    cells where the teacher is more confident than the student fall outside
    the analysis hypothesis and are excluded.
    """
    if grid_resolution < 1:
        raise ConfigError(f"grid_resolution must be >= 1, got {grid_resolution!r}")
    if not (0.0 <= alpha <= 1.0):
        raise ConfigError(f"alpha must lie in [0, 1], got {alpha!r}")
    centers = (np.arange(grid_resolution) + 0.5) / grid_resolution
    ps, pt = np.meshgrid(centers, centers, indexing="ij")
    keep = pt <= ps
    ps = ps[keep]
    pt = pt[keep]
    return FlipCensus(p_student=ps, p_teacher=pt,
                      flip=_target_ratio(ps, pt, alpha) < 0.0)


def write_flip_census_csv(census: FlipCensus, path) -> None:
    write_csv(path, {"p_student_target": census.p_student,
                     "p_teacher_target": census.p_teacher,
                     "flip_target": census.flip})


def write_ratios_csv(table: RatioTable, path) -> None:
    n, c = table.ce_grad.shape
    write_csv(path, {"draw": np.repeat(np.arange(n), c), "class_index": np.tile(np.arange(c), n),
                     **{name: column.ravel() for name, column in table._asdict().items()}})


def write_proposition_csv(report: PropositionReport, path) -> None:
    write_csv(path, {
        "trial": np.arange(report.valid_pairs),
        "target": report.target,
        "alpha_high_entropy": report.alpha_high,
        "alpha_low_entropy": report.alpha_low,
        "w_high_entropy": report.w_high,
        "w_low_entropy": report.w_low,
        "violation": report.violation,
    })
