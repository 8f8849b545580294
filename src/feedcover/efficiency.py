"""Efficiency metrics: link, in-flow, delay, cross- and joint-efficiencies.

Reported efficiencies come from the greedy covers, not exact optima.
A greedy cover can in principle be worse than the user's own followee
set, making a ratio exceed 1; such values are clamped to 1 and logged.
"""
from __future__ import annotations

import logging
import math
from dataclasses import astuple, dataclass, field

from . import cover as cover_mod
from .errors import UndefinedMeasure
from .model import SECONDS_PER_DAY, Corpus, CoverResult, EgoContext

log = logging.getLogger(__name__)


def _effective_followees(ctx: EgoContext, covered, corpus: Corpus) -> frozenset[int]:
    """Followees posting at least one covered meme (partial-coverage rule)."""
    return frozenset(
        v for v in ctx.followees
        if corpus.memes_by_user.get(v, frozenset()) & covered
    )


def _clamp(value: float, metric: str, ego: int) -> float:
    if value > 1.0:
        log.warning("clamping %s=%g > 1 for ego %d", metric, value, ego)
        return 1.0
    return value


def link_efficiency(ctx: EgoContext, cov: CoverResult, corpus: Corpus) -> float:
    """Size of the covering set over the (effective) followee count."""
    effective = _effective_followees(ctx, cov.covered, corpus)
    if not effective:
        raise UndefinedMeasure(f"ego {ctx.ego} has no followees posting covered memes")
    return _clamp(len(cov.selected) / len(effective), "link efficiency", ctx.ego)


def inflow_efficiency(ctx: EgoContext, cov: CoverResult, corpus: Corpus) -> float:
    """In-flow of the covering set over the (effective) followees' in-flow."""
    effective = _effective_followees(ctx, cov.covered, corpus)
    if not effective:
        raise UndefinedMeasure(f"ego {ctx.ego} has no followees posting covered memes")
    original = sum(corpus.post_count.get(v, 0) for v in effective)
    if original == 0:
        raise UndefinedMeasure(f"followees of ego {ctx.ego} posted nothing in the window")
    optimized = sum(corpus.post_count.get(v, 0) for v in cov.selected)
    return _clamp(optimized / original, "in-flow efficiency", ctx.ego)


def delay_efficiency(ctx: EgoContext, corpus: Corpus) -> float:
    """1 / (1 + mean days between global first mention and ego receipt)."""
    if not ctx.memes:
        raise UndefinedMeasure(f"ego {ctx.ego} received no memes")
    mean_delay = math.fsum(
        (ctx.receipt_time[m] - corpus.first_mention[m]) / SECONDS_PER_DAY
        for m in ctx.memes
    ) / len(ctx.memes)
    return 1.0 / (1.0 + mean_delay)


def _set_delay_efficiency(corpus: Corpus, selected, universe) -> float:
    mean_delay = cover_mod.set_average_delay_days(corpus, selected, universe)
    return 1.0 / (1.0 + mean_delay)


def _inflow(corpus: Corpus, users) -> int:
    return sum(corpus.post_count.get(v, 0) for v in users)


def _inflow_ratio(corpus: Corpus, users, baseline, ego: int) -> float:
    """In-flow of ``users`` over the in-flow of ``baseline``."""
    denominator = _inflow(corpus, baseline)
    if denominator == 0:
        raise UndefinedMeasure(f"a cover set of ego {ego} posted nothing in the window")
    return _inflow(corpus, users) / denominator


@dataclass(frozen=True)
class CrossEfficiencies:
    """The six ratios relating the three single-metric optimal sets."""

    link_of_inflow_set: float
    link_of_delay_set: float
    inflow_of_link_set: float
    inflow_of_delay_set: float
    delay_of_link_set: float
    delay_of_inflow_set: float


def cross_efficiencies(
    ctx: EgoContext,
    link_cov: CoverResult,
    inflow_cov: CoverResult,
    delay_cov: CoverResult,
    corpus: Corpus,
) -> CrossEfficiencies:
    """Evaluate each optimal set under the other two metrics (full coverage)."""
    return CrossEfficiencies(
        link_of_inflow_set=len(link_cov.selected) / len(inflow_cov.selected),
        link_of_delay_set=len(link_cov.selected) / len(delay_cov.selected),
        inflow_of_link_set=_inflow_ratio(
            corpus, inflow_cov.selected, link_cov.selected, ctx.ego
        ),
        inflow_of_delay_set=_inflow_ratio(
            corpus, inflow_cov.selected, delay_cov.selected, ctx.ego
        ),
        delay_of_link_set=_set_delay_efficiency(corpus, link_cov.selected, ctx.memes),
        delay_of_inflow_set=_set_delay_efficiency(
            corpus, inflow_cov.selected, ctx.memes
        ),
    )


@dataclass(frozen=True)
class JointEfficiencies:
    """The joint-heuristic set evaluated under each single metric."""

    link: float
    inflow: float
    delay: float


def joint_efficiencies(
    ctx: EgoContext,
    joint_cov: CoverResult,
    link_cov: CoverResult,
    inflow_cov: CoverResult,
    corpus: Corpus,
) -> JointEfficiencies:
    return JointEfficiencies(
        link=len(link_cov.selected) / len(joint_cov.selected),
        inflow=_inflow_ratio(corpus, inflow_cov.selected, joint_cov.selected, ctx.ego),
        delay=_set_delay_efficiency(corpus, joint_cov.selected, ctx.memes),
    )


def efficiency_ratio(optimized_value: float, original_value: float) -> float:
    """Optimized/original efficiency; > 1 means the rewiring improved it."""
    if original_value <= 0:
        raise UndefinedMeasure(f"original efficiency {original_value} is not positive")
    return optimized_value / original_value


# Optimized/original ratios, in CrossEfficiencies then JointEfficiencies
# field order: "<metric>_by_<set>_opt" is <metric> of the <set>-optimal set
# over the ego's own <metric> efficiency.
RATIO_KEYS = (
    "link_by_inflow_opt", "link_by_delay_opt",
    "inflow_by_link_opt", "inflow_by_delay_opt",
    "delay_by_link_opt", "delay_by_inflow_opt",
    "link_by_joint_opt", "inflow_by_joint_opt", "delay_by_joint_opt",
)


@dataclass(frozen=True, kw_only=True)
class EfficiencyReport:
    """Everything measured for one ego at one meme kind and coverage level.

    Fields are in report column order; the full-coverage extras are None
    at partial coverage.
    """

    ego: int
    meme_kind: str
    coverage: float
    n_followees: int
    n_memes: int
    e_link: float
    e_inflow: float
    e_delay: float
    link_set_size: int
    inflow_set_size: int
    delay_set_size: int | None = None
    joint_set_size: int | None = None
    followee_inflow: int
    link_set_inflow: int
    inflow_set_inflow: int
    delay_set_inflow: int | None = None
    joint_set_inflow: int | None = None
    cross: CrossEfficiencies | None = None
    joint: JointEfficiencies | None = None
    joint_selected: tuple[int, ...] = ()
    ratios: dict[str, float] = field(default_factory=dict)


def evaluate_ego(
    corpus: Corpus,
    ctx: EgoContext,
    meme_kind: str,
    coverage: float = 1.0,
    alpha: float = 1.0,
    beta: float = 0.5,
    candidates: frozenset[int] | None = None,
) -> EfficiencyReport:
    """Run the covers for one ego and assemble the full report row.

    At coverage < 1 only link and in-flow efficiencies apply; the
    cross-, delay- and joint-metrics need full coverage.
    """
    spec = cover_mod.CoverSpec(
        universe=ctx.memes,
        candidates=candidates,
        coverage=coverage,
        alpha=alpha,
        beta=beta,
    )
    link_cov = cover_mod.greedy_min_cover(corpus, spec)
    inflow_cov = cover_mod.greedy_weighted_cover(corpus, spec)
    e_link = link_efficiency(ctx, link_cov, corpus)
    e_inflow = inflow_efficiency(ctx, inflow_cov, corpus)
    e_delay = delay_efficiency(ctx, corpus)
    base = dict(
        ego=ctx.ego,
        meme_kind=meme_kind,
        coverage=coverage,
        n_followees=len(ctx.followees),
        n_memes=len(ctx.memes),
        e_link=e_link,
        e_inflow=e_inflow,
        e_delay=e_delay,
        link_set_size=len(link_cov.selected),
        inflow_set_size=len(inflow_cov.selected),
        followee_inflow=_inflow(corpus, ctx.followees),
        link_set_inflow=_inflow(corpus, link_cov.selected),
        inflow_set_inflow=_inflow(corpus, inflow_cov.selected),
    )
    if coverage != 1.0:
        return EfficiencyReport(**base)
    delay_cov = cover_mod.delay_optimal_cover(corpus, spec)
    joint_cov = cover_mod.joint_cover(corpus, spec)
    cross = cross_efficiencies(ctx, link_cov, inflow_cov, delay_cov, corpus)
    joint = joint_efficiencies(ctx, joint_cov, link_cov, inflow_cov, corpus)
    originals = {"link": e_link, "inflow": e_inflow, "delay": e_delay}
    optimized = (*astuple(cross), *astuple(joint))
    ratios = {
        key: efficiency_ratio(value, originals[key.split("_", 1)[0]])
        for key, value in zip(RATIO_KEYS, optimized)
    }
    return EfficiencyReport(
        delay_set_size=len(delay_cov.selected),
        delay_set_inflow=_inflow(corpus, delay_cov.selected),
        cross=cross,
        joint=joint,
        joint_set_size=len(joint_cov.selected),
        joint_set_inflow=_inflow(corpus, joint_cov.selected),
        joint_selected=joint_cov.selected,
        ratios=ratios,
        **base,
    )
