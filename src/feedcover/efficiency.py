"""Efficiency metrics: link, in-flow, delay, cross- and joint-efficiencies.

Every efficiency is one set of sources under one metric, measured against
the set optimal for that metric, so the three formulas live in one place,
``_efficiency``: the ego's own measures, the cross-efficiencies and the
joint ones only choose the sets. One ordered table of (metric, set)
letter pairs, ``_MEASURES``, names the nine full-coverage measures and
their ratios; the cross- and joint-efficiencies, ``efficiency_ratios``
and the columns of ``EfficiencyReport`` all iterate it. The set names
of ``cover.ENGINES`` spell out the letters and name the set columns.

Reported efficiencies come from the greedy covers, not exact optima.
A greedy cover can be worse than the user's own followee set, making a
ratio exceed 1: on perfbench's deep_cover and many_small_egos workloads
that happens to 33 % and 30 % of the link and in-flow ratios. Such
values are clamped to 1, and each clamp prints
``clamping <measure>=<value> > 1 for ego <label>`` to stderr, or, once
``logging`` is loaded, logs it as a WARNING on this module's logger.
"""
from __future__ import annotations

import sys
from typing import NamedTuple

from . import cover as cover_mod
from .errors import UndefinedMeasure, warn
from .model import Corpus, CoverResult, EgoContext


def _effective_followees(ctx: EgoContext, covered, corpus: Corpus) -> frozenset[int]:
    """Followees posting at least one covered meme (partial-coverage rule);
    raises UndefinedMeasure when there are none."""
    effective = frozenset(
        v for v in ctx.followees
        if not covered.isdisjoint(corpus.first_post_by_user.get(v, ()))
    )
    if not effective:
        raise UndefinedMeasure("no followees posting covered memes")
    return effective


_CLAMPING = "clamping %s=%g > 1 for ego %s"


def _clamp(value: float, metric: str, label: str) -> float:
    """``value``, or 1 with a warning when it is above 1.

    Once ``logging`` is loaded the warning goes to this module's logger.
    Before that no handler can exist, so ``warn`` writes the line that
    logging's last-resort handler would print, and the run does not pay
    the 5-9 ms of importing ``logging`` for it."""
    if value > 1.0:
        if "logging" in sys.modules:
            import logging
            logging.getLogger(__name__).warning(_CLAMPING, metric, value, label)
        else:
            warn(_CLAMPING % (metric, value, label))
        return 1.0
    return value


# The paper's letters for metrics and optimal sets, named as in cover.ENGINES:
# e<metric>_u<set> is the <metric> efficiency of the <set>-optimal set U_<set>,
# and its ratio to the ego's own <metric> efficiency is ratio_<metric>_by_<set>_opt.
_LEGEND = dict(zip("lfta", cover_mod.ENGINES))
# The nine full-coverage measures in report-column order, name -> (metric,
# set): the cross pairs, then the joint set under each metric; _RATIOS
# names each one's ratio, and _FULL_COVERAGE lists the 18 columns.
_MEASURES = {f"e{metric}_u{s}": (metric, s)
             for metric, s in ("lf", "lt", "fl", "ft", "tl", "tf", "la", "fa", "ta")}
_RATIOS = {name: f"ratio_{_LEGEND[metric]}_by_{_LEGEND[s]}_opt"
           for name, (metric, s) in _MEASURES.items()}
_FULL_COVERAGE = (*_MEASURES, *_RATIOS.values())


def _efficiency(metric: str, corpus: Corpus, ctx: EgoContext, selected, optimal,
                posters: str = "a cover set") -> float:
    """The ``metric`` (``_LEGEND`` letter) efficiency of the users ``selected``
    against ``optimal``, a set optimal for that metric; delay efficiency is
    absolute and ignores ``optimal``. ``posters`` names ``selected`` in the
    error raised when its in-flow is 0."""
    if metric == "l":
        return len(optimal) / len(selected)
    if metric == "f":
        denominator = corpus.inflow(selected)
        if denominator == 0:
            raise UndefinedMeasure(f"{posters} posted nothing in the window")
        return corpus.inflow(optimal) / denominator
    return 1.0 / (1.0 + cover_mod.set_average_delay_days(corpus, selected, ctx.memes))


def link_efficiency(ctx: EgoContext, cov: CoverResult, corpus: Corpus) -> float:
    """Size of the covering set over the (effective) followee count."""
    effective = _effective_followees(ctx, cov.covered, corpus)
    return _clamp(_efficiency("l", corpus, ctx, effective, cov.selected),
                  "link efficiency", corpus.label(ctx.ego))


def inflow_efficiency(ctx: EgoContext, cov: CoverResult, corpus: Corpus) -> float:
    """In-flow of the covering set over the (effective) followees' in-flow."""
    effective = _effective_followees(ctx, cov.covered, corpus)
    return _clamp(_efficiency("f", corpus, ctx, effective, cov.selected, "followees"),
                  "in-flow efficiency", corpus.label(ctx.ego))


def delay_efficiency(ctx: EgoContext, corpus: Corpus) -> float:
    """1 / (1 + mean days between global first mention and ego receipt).

    The ego receives each meme when its first followee posts it, so the
    value is the same at every coverage level."""
    if not ctx.memes:
        raise UndefinedMeasure("received no memes")
    return _efficiency("t", corpus, ctx, ctx.followees, None)


def cross_efficiencies(
    ctx: EgoContext,
    link_cov: CoverResult,
    inflow_cov: CoverResult,
    delay_cov: CoverResult,
    corpus: Corpus,
) -> dict[str, float]:
    """Each optimal set under the other two metrics (full coverage).

    Keys are the paper's names (see ``_MEASURES``): ``el_uf`` is the link
    efficiency of the in-flow-optimal set, measured against the
    link-optimal set.
    """
    sets = {"l": link_cov.selected, "f": inflow_cov.selected, "t": delay_cov.selected}
    return {name: _efficiency(metric, corpus, ctx, sets[s], sets[metric])
            for name, (metric, s) in _MEASURES.items() if s != "a"}


def joint_efficiencies(
    ctx: EgoContext,
    joint_cov: CoverResult,
    link_cov: CoverResult,
    inflow_cov: CoverResult,
    corpus: Corpus,
) -> dict[str, float]:
    """The joint-heuristic set under each single metric, keyed ``e<metric>_ua``."""
    optimal = {"l": link_cov.selected, "f": inflow_cov.selected, "t": None}
    return {name: _efficiency(metric, corpus, ctx, joint_cov.selected, optimal[metric])
            for name, (metric, s) in _MEASURES.items() if s == "a"}


def efficiency_ratio(optimized_value: float, original_value: float) -> float:
    """Optimized/original efficiency; > 1 means the rewiring improved it."""
    if original_value <= 0:
        raise UndefinedMeasure(f"original efficiency {original_value} is not positive")
    return optimized_value / original_value


def efficiency_ratios(measured: dict[str, float], originals: dict[str, float]) -> dict[str, float]:
    """Each ``e<metric>_u<set>`` of ``measured`` over the ego's own <metric>
    efficiency in ``originals`` (keyed by letter), named by ``_RATIOS``,
    in the order of ``measured``."""
    return {_RATIOS[name]: efficiency_ratio(value, originals[_MEASURES[name][0]])
            for name, value in measured.items()}


def original_efficiencies(
    corpus: Corpus, ctx: EgoContext, spec: cover_mod.CoverSpec
) -> tuple[CoverResult, CoverResult, dict[str, float]]:
    """The link and in-flow covers of ``spec``, and the ego's own link,
    in-flow and delay efficiencies keyed by their letters (``_LEGEND``)."""
    link_cov = cover_mod.greedy_min_cover(corpus, spec)
    inflow_cov = cover_mod.greedy_weighted_cover(corpus, spec)
    return link_cov, inflow_cov, {
        "l": link_efficiency(ctx, link_cov, corpus),
        "f": inflow_efficiency(ctx, inflow_cov, corpus),
        "t": delay_efficiency(ctx, corpus),
    }


# Types are strings, as this module's postponed annotations would make them.
EfficiencyReport = NamedTuple("EfficiencyReport", [
    ("ego", "int"), ("meme_kind", "str"), ("coverage", "float"),
    ("n_followees", "int"), ("n_memes", "int"),
    ("e_link", "float"), ("e_inflow", "float"), ("e_delay", "float"),
    *((f"{name}_set_size", "int | None") for name in cover_mod.ENGINES),
    ("followee_inflow", "int"),
    *((f"{name}_set_inflow", "int | None") for name in cover_mod.ENGINES),
    *((name, "float | None") for name in _FULL_COVERAGE),
])
EfficiencyReport.__doc__ = """Everything measured for one ego at one meme kind and coverage level.

    Fields are the report columns, in order; the delay and joint set
    columns and the full-coverage measures are None at partial coverage.
    """


def evaluate_ego(
    corpus: Corpus,
    ctx: EgoContext,
    meme_kind: str,
    coverage: float = 1.0,
    alpha: float = 1.0,
    beta: float = 0.5,
) -> EfficiencyReport:
    """Run the covers for one ego and assemble its report row.

    Below full coverage the delay and joint sets and the 18 measure
    columns are None. ``e_delay`` measures the ego's own timeline, not a
    cover, so it is the same at every coverage level. The joint cover runs
    before any cross- or joint-measure, and those run in column order
    (``_MEASURES``), so the error raised is the first undefined column's,
    as in ``optimize``.
    """
    spec = cover_mod.CoverSpec(universe=ctx.memes, coverage=coverage, alpha=alpha, beta=beta)
    link_cov, inflow_cov, originals = original_efficiencies(corpus, ctx, spec)
    covers = {"l": link_cov, "f": inflow_cov}
    measured = dict.fromkeys(_FULL_COVERAGE)
    if coverage == 1.0:
        covers["t"] = cover_mod.delay_optimal_cover(corpus, spec)
        covers["a"] = cover_mod.joint_cover(corpus, spec)
        measured = {**cross_efficiencies(ctx, link_cov, inflow_cov, covers["t"], corpus),
                    **joint_efficiencies(ctx, covers["a"], link_cov, inflow_cov, corpus)}
        measured.update(efficiency_ratios(measured, originals))
    sets = {name: covers[s].selected if s in covers else None for s, name in _LEGEND.items()}
    return EfficiencyReport(
        ego=ctx.ego, meme_kind=meme_kind, coverage=coverage,
        n_followees=len(ctx.followees), n_memes=len(ctx.memes),
        e_link=originals["l"], e_inflow=originals["f"], e_delay=originals["t"],
        **{f"{name}_set_size": None if selected is None else len(selected)
           for name, selected in sets.items()},
        followee_inflow=corpus.inflow(ctx.followees),
        **{f"{name}_set_inflow": None if selected is None else corpus.inflow(selected)
           for name, selected in sets.items()},
        **measured,
    )
