"""The full owner report: everything the decision needs, in one document.

Chains the library's owner-facing pieces into a single markdown report:
database statistics, the Assess-Risk recipe, the per-item risk profile,
the Similarity-by-Sampling curve, and — when the recipe does not
disclose — a protection plan.  The CLI's ``--full-report`` writes it; it
is also the natural artifact to attach to a data-sharing agreement.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.profile import RiskProfile
from repro.data.database import FrequencySource
from repro.data.frequency import FrequencyGroups
from repro.data.stats import describe
from repro.errors import DataError
from repro.protect.planner import protect_to_tolerance
from repro.recipe.assess import RiskAssessment, assess_risk, interval_space, interval_width
from repro.recipe.similarity import similarity_by_sampling

__all__ = ["full_report"]


def _stats_section(source: FrequencySource) -> list[str]:
    stats = describe(source)
    return [
        "## Data",
        "",
        "```",
        stats.to_text(),
        "```",
        "",
    ]


def _assessment_section(assessment: RiskAssessment) -> list[str]:
    return [
        "## Assess-Risk recipe (Figure 8)",
        "",
        "```",
        assessment.summary(),
        "```",
        "",
    ]


def _similarity_section(
    source: FrequencySource,
    fractions: tuple[float, ...],
    rng: np.random.Generator,
    alpha_max: float | None,
) -> list[str]:
    lines = [
        "## Similarity-by-Sampling (Figure 13)",
        "",
        "| sample size | compliancy alpha | std |",
        "|---|---|---|",
    ]
    warning = None
    for point in similarity_by_sampling(source, fractions, n_samples=5, rng=rng):
        lines.append(
            f"| {point.fraction:.0%} | {point.alpha_mean:.3f} | {point.alpha_std:.3f} |"
        )
        if warning is None and alpha_max is not None and point.alpha_mean >= alpha_max:
            warning = point.fraction
    lines.append("")
    if warning is not None:
        lines.append(
            f"**Warning:** a {warning:.0%} sample of similar data already reaches "
            f"the tolerable compliancy bound alpha_max = {alpha_max:.2f}."
        )
        lines.append("")
    return lines


def full_report(
    source: FrequencySource,
    tolerance: float,
    sample_fractions: tuple[float, ...] = (0.1, 0.3, 0.5),
    protect_strategy: str | None = "quantile",
    top_k: int = 10,
    rng: np.random.Generator | None = None,
) -> str:
    """Render the complete markdown disclosure report for *source*.

    Parameters
    ----------
    source:
        The owner's database or frequency profile.
    tolerance:
        The recipe tolerance ``tau``.
    sample_fractions:
        Sample sizes for the similarity section.
    protect_strategy:
        Strategy for the protection plan appended when the recipe does
        not disclose (``None`` to skip the section).
    top_k:
        Rows in the exposed-items table.
    rng:
        Randomness for the alpha stage, sampling, and protection search.
    """
    rng = np.random.default_rng() if rng is None else rng
    sections: list[str] = [f"# Disclosure decision report (tau = {tolerance})", ""]
    sections += _stats_section(source)

    assessment = assess_risk(source, tolerance, rng=rng)
    sections += _assessment_section(assessment)

    frequencies = source.frequencies()
    delta = interval_width(FrequencyGroups(frequencies), assessment.delta)
    profile = RiskProfile.from_space(interval_space(frequencies, delta))
    sections += [profile.to_markdown(top_k=top_k), ""]

    sections += _similarity_section(source, sample_fractions, rng, assessment.alpha_max)

    if protect_strategy is not None and not assessment.disclose:
        sections.append("## Protection plan")
        sections.append("")
        try:
            plan = protect_to_tolerance(
                source, tolerance, strategy=protect_strategy, delta=assessment.delta
            )
            sections.append(plan.summary())
        except DataError as error:
            sections.append(f"No {protect_strategy} plan meets the tolerance: {error}")
        sections.append("")

    verdict = "**Disclose.**" if assessment.disclose else (
        "**Judgement call** — disclose only if a hacker holding correct "
        f"frequency ranges for {assessment.alpha_max:.0%} of items is implausible."
    )
    sections += ["## Verdict", "", verdict, ""]
    return "\n".join(sections)
