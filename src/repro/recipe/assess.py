"""Assess-Risk — the suggested recipe of Figure 8.

Given the owner's database (or its frequency profile) and a *degree of
tolerance* ``tau`` (the fraction of items the owner can afford to see
cracked), the recipe proceeds through three increasingly realistic hacker
models:

1. **Point-valued** (worst case): expected cracks = ``g``, the number of
   frequency groups (Lemma 3).  If already within tolerance, disclose.
2. **Compliant interval** with half-width ``delta_med`` (the median gap
   between frequency groups): compute the O-estimate.  If within
   tolerance, disclose.
3. **alpha-compliant**: find ``alpha_max``, the largest degree of
   compliancy keeping the expected cracks within tolerance.  The owner
   then judges whether a hacker is plausibly that well-informed —
   Similarity-by-Sampling (Figure 13) helps anchor that judgement.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Any, Callable, Hashable, Iterable, Mapping, Protocol, TypeVar

import numpy as np

from repro.beliefs.builders import uniform_width_belief
from repro.budget import ComputeBudget, PartialEstimate
from repro.core.alpha import alpha_max as compute_alpha_max
from repro.core.oestimate import OEstimateResult, o_estimate
from repro.data.database import FrequencySource
from repro.data.frequency import FrequencyGroups
from repro.errors import BudgetExceeded, GraphError, InfeasibleMatchingError, RecipeError
from repro.graph.bipartite import FrequencyMappingSpace, space_from_frequencies

__all__ = [
    "AttackSummary",
    "Decision",
    "RiskAssessment",
    "StageRunner",
    "assess_risk",
    "interval_space",
    "interval_width",
]

#: The interval rung upgrades from the O-estimate to the exact engine
#: when the plan's cost hint stays below this (see
#: :func:`repro.graph.exact.exact_strategy`); pricier plans keep the
#: historical O-estimate behaviour.
EXACT_COST_BUDGET = 5e7


def _try_exact_interval(
    space: FrequencyMappingSpace,
    interest: frozenset | None,
    budget: ComputeBudget | None = None,
) -> tuple[float | None, str | None]:
    """Exact interval-rung expected cracks, or (None, None) to fall back."""
    from repro.graph.exact import crack_marginals_exact, exact_strategy
    from repro.graph.intervaldp import DEFAULT_BUDGET, DPBudget

    plan = exact_strategy(space)
    if not plan.matchable:
        return 0.0, plan.strategy
    if not plan.feasible or plan.cost_hint > EXACT_COST_BUDGET:
        return None, None
    dp_budget = (
        DEFAULT_BUDGET
        if budget is None
        else DPBudget(
            max_states=DEFAULT_BUDGET.max_states,
            max_ops=DEFAULT_BUDGET.max_ops,
            compute=budget,
        )
    )
    try:
        marginals = crack_marginals_exact(space, budget=dp_budget)
    except BudgetExceeded:
        # Deadline hit inside the exact refinement: it is an optional
        # enrichment of the interval rung, so degrade to the O-estimate
        # alone rather than failing the whole assessment.
        return None, None
    except (GraphError, InfeasibleMatchingError):
        return None, None
    if interest is None:
        return float(marginals.sum()), plan.strategy
    indices = [space.item_index(x) for x in interest]
    return float(marginals[indices].sum()), plan.strategy


@dataclass(frozen=True)
class AttackSummary:
    """What the attacker workbench certifies about the interval rung.

    Produced by the solver's exact edge classification
    (:mod:`repro.graph.refine`): ``forced_pairs`` edges are in *every*
    consistent mapping, of which ``certified_cracks`` coincide with the
    ground truth — a hacker with the interval belief identifies that
    many items with certainty, no matter which consistent mapping they
    pick.  The reduction fields record how much the solver shrinks the
    exact engine's problem (see ``docs/attack.md``).
    """

    forced_pairs: int
    certified_cracks: int
    forbidden_edges: int
    largest_block_before: int
    largest_block_after: int


#: Edge guard for the attack summary: classification needs an explicit
#: adjacency, and the summary is an enrichment, never worth a blow-up.
ATTACK_SUMMARY_MAX_EDGES = 2_000_000


def _attack_summary(
    space: FrequencyMappingSpace,
    budget: ComputeBudget | None = None,
) -> AttackSummary | None:
    """Solver-certified attack facts for the interval rung, or ``None``.

    Skipped (returning ``None``) when the graph is too large for an
    explicit adjacency or the compute budget runs out — like the exact
    enrichment, the summary degrades to absent rather than failing the
    assessment.
    """
    from repro.graph.blocks import decompose
    from repro.graph.refine import classify_edges, reduced_blocks

    try:
        classification = classify_edges(
            space, budget=budget, max_edges=ATTACK_SUMMARY_MAX_EDGES
        )
    except BudgetExceeded:
        return None
    except GraphError:
        return None
    decomposition = decompose(space)
    before = decomposition.largest_block
    if classification.infeasible:
        return AttackSummary(
            forced_pairs=0,
            certified_cracks=0,
            forbidden_edges=classification.n_forbidden,
            largest_block_before=before,
            largest_block_after=0,
        )
    after = max((block.n for block in reduced_blocks(classification)), default=0)
    return AttackSummary(
        forced_pairs=classification.n_forced,
        certified_cracks=classification.forced_cracks(space),
        forbidden_edges=classification.n_forbidden,
        largest_block_before=before,
        largest_block_after=after,
    )


def interval_width(groups: FrequencyGroups, delta: float | None = None) -> float:
    """Step 4's interval half-width: *delta* when given, else ``delta_med``.

    ``delta_med`` is the median gap between frequency groups.  A single
    group has no gaps; its width is ``0`` (the point-valued belief), which
    :func:`assess_risk` refuses in favour of an explicit *delta*.
    """
    if delta is not None:
        return delta
    return groups.median_gap() if len(groups) >= 2 else 0.0


def interval_space(
    frequencies: Mapping[Any, float], delta: float
) -> FrequencyMappingSpace:
    """Steps 3-5's space: the compliant belief of half-width *delta*."""
    return space_from_frequencies(uniform_width_belief(frequencies, delta), frequencies)


class Decision(enum.Enum):
    """The recipe's outcome."""

    DISCLOSE_POINT_VALUED = "disclose: safe even against exact frequency knowledge"
    DISCLOSE_INTERVAL = "disclose: safe against ball-park (median-gap) frequency knowledge"
    ALPHA_BOUND = "judgement call: safe only below the reported alpha_max compliancy"
    INCONCLUSIVE = "inconclusive: the compute budget ran out before a decision rung settled"


@dataclass(frozen=True)
class RiskAssessment:
    """Everything the recipe computed on the way to its decision.

    Attributes
    ----------
    decision:
        Which rung of the recipe settled the matter.
    tolerance:
        The owner's ``tau``.
    n_items:
        Domain size.
    g:
        Number of frequency groups — the point-valued expected cracks
        (Lemma 3).
    delta:
        The interval half-width used (``delta_med`` unless overridden).
    interval_estimate:
        The fully compliant interval O-estimate (step 6), ``None`` when
        the recipe stopped at step 2.
    alpha_max:
        Largest tolerable degree of compliancy (step 9), ``None`` unless
        the recipe reached step 8.
    interest:
        The owner's subset ``I_1`` of items of interest (Lemmas 2 and 4),
        ``None`` when every item counted.
    runs:
        Averaging runs used by the alpha-compliant stage, ``None`` when
        the recipe stopped before step 8.
    exact_cracks:
        Exact expected cracks for the interval-belief space, when the
        structure-exploiting engine (:mod:`repro.graph.exact`) found a
        cheap plan; ``None`` when exact was skipped or infeasible.  The
        decision itself stays on the paper's Figure-8 O-estimate rule;
        the exact value quantifies the O-estimate's known downward bias
        (see EXPERIMENTS.md) so owners can judge the margin.
    exact_strategy:
        Which exact engine ran (``"interval-dp"``, ``"block-ryser"``,
        ...), ``None`` when exact was skipped.
    partial_estimate:
        When the compute budget ran out mid-recipe, the best bounded
        estimate reached before exhaustion (with its standard error and
        ladder rung); ``None`` for a complete assessment.
    attack:
        The attacker workbench's certified facts for the interval-rung
        space (forced pairs, solver-certified minimum cracks, and the
        solver reduction); ``None`` when the recipe stopped at the
        point-valued rung or the summary was skipped.
    """

    decision: Decision
    tolerance: float
    n_items: int
    g: int
    delta: float | None = None
    interval_estimate: OEstimateResult | None = None
    alpha_max: float | None = None
    interest: frozenset | None = None
    runs: int | None = None
    exact_cracks: float | None = None
    exact_strategy: str | None = None
    partial_estimate: PartialEstimate | None = None
    attack: AttackSummary | None = None

    @property
    def disclose(self) -> bool:
        """True when the recipe reached an unconditional disclose."""
        return self.decision in (
            Decision.DISCLOSE_POINT_VALUED,
            Decision.DISCLOSE_INTERVAL,
        )

    @property
    def partial(self) -> bool:
        """True when the budget expired before the recipe could finish."""
        return self.decision is Decision.INCONCLUSIVE

    def summary(self) -> str:
        """A human-readable account of the assessment."""
        lines = [
            f"domain: {self.n_items} items, tolerance tau = {self.tolerance}",
            f"point-valued expected cracks g = {self.g} "
            f"({self.g / self.n_items:.4f} of domain)",
        ]
        if self.interest is not None:
            lines.append(f"interest subset: {len(self.interest)} items")
        if self.delta is not None:
            lines.append(f"interval half-width delta_med = {self.delta:.6g}")
        if self.interval_estimate is not None:
            lines.append(
                f"compliant-interval O-estimate = {self.interval_estimate.value:.2f} "
                f"({self.interval_estimate.fraction:.4f} of domain)"
            )
        if self.exact_cracks is not None:
            lines.append(
                f"exact expected cracks = {self.exact_cracks:.4f} "
                f"(strategy: {self.exact_strategy})"
            )
        if self.attack is not None:
            lines.append(
                f"solver-certified cracks = {self.attack.certified_cracks} "
                f"({self.attack.forced_pairs} forced pairs, "
                f"{self.attack.forbidden_edges} forbidden edges)"
            )
        if self.alpha_max is not None:
            lines.append(f"alpha_max = {self.alpha_max:.3f}")
        if self.partial_estimate is not None:
            pe = self.partial_estimate
            lines.append(
                f"partial estimate = {pe.value:.2f} +/- {pe.std_error:.2f} "
                f"(rung: {pe.rung}, budget: {pe.reason})"
            )
        lines.append(f"decision: {self.decision.value}")
        return "\n".join(lines)


_T = TypeVar("_T")


class StageRunner(Protocol):
    """Runs one named stage of :func:`assess_risk`.

    The stages are ``groups``, ``space``, ``oestimate``, ``exact``,
    ``attack`` and ``alpha``.  *key* identifies the stage's result for a
    fixed source (the interval width, the subset of interest); ``None``
    means the result must not be memoized.  A runner must return what
    ``compute()`` returns, or a result it stored for the same key.
    """

    def __call__(
        self, name: str, key: Hashable | None, compute: Callable[[], _T]
    ) -> _T: ...


def _run_directly(name: str, key: Hashable | None, compute: Callable[[], _T]) -> _T:
    return compute()


def assess_risk(
    source: FrequencySource,
    tolerance: float,
    delta: float | None = None,
    runs: int = 5,
    rng: np.random.Generator | None = None,
    interest: "Iterable | None" = None,
    budget: ComputeBudget | None = None,
    run_stage: StageRunner | None = None,
) -> RiskAssessment:
    """Run the Assess-Risk recipe (Figure 8) on a database or profile.

    Parameters
    ----------
    source:
        The owner's data — a :class:`TransactionDatabase` or
        :class:`FrequencyProfile`.
    tolerance:
        ``tau`` — the fraction of items the owner can tolerate cracked.
    delta:
        Interval half-width override; defaults to the median frequency
        gap ``delta_med`` (step 4).
    runs:
        Averaging runs for the alpha-compliant stage (Section 6.2 uses 5).
    rng:
        Randomness for the alpha-compliant subsets.
    interest:
        Optional subset ``I_1`` of items the owner actually cares about
        (Lemmas 2 and 4 — e.g. the frequent items or those with the
        highest margin).  Every stage then counts expected cracks among
        these items only, against a budget of ``tolerance * |I_1|``.
    budget:
        Optional :class:`~repro.budget.ComputeBudget` polled at every
        stage boundary and threaded into the exact engine.  When it runs
        out *after* a decision rung has produced a bounded estimate, the
        recipe returns an ``INCONCLUSIVE`` assessment carrying a
        :class:`~repro.budget.PartialEstimate` instead of raising; when
        nothing is ready yet, :class:`~repro.errors.BudgetExceeded`
        propagates with ``partial=None``.
    run_stage:
        Optional :class:`StageRunner` through which every stage runs —
        the service engine memoizes and times stages with it.  Without
        one, each stage simply runs.
    """
    if not 0.0 <= tolerance <= 1.0:
        raise RecipeError(f"tolerance must be in [0, 1], got {tolerance}")
    run = _run_directly if run_stage is None else run_stage

    def groups_stage() -> tuple[dict, FrequencyGroups]:
        frequencies = source.frequencies()
        return frequencies, FrequencyGroups(frequencies)

    frequencies, groups = run("groups", (), groups_stage)
    n = len(frequencies)
    g = len(groups)
    if interest is not None:
        interest = frozenset(interest)
        if not interest:
            raise RecipeError("the interest subset must be non-empty")
    basis = n if interest is None else len(interest)

    # Steps 1-2: the point-valued worst case (Lemma 3, or Lemma 4 for a
    # subset of interest).
    if interest is None:
        point_valued = float(g)
    else:
        from repro.core.exact import expected_cracks_point_valued_subset

        point_valued = expected_cracks_point_valued_subset(groups, interest)
    if point_valued <= tolerance * basis:
        return RiskAssessment(
            decision=Decision.DISCLOSE_POINT_VALUED,
            tolerance=tolerance,
            n_items=n,
            g=g,
            interest=interest,
        )

    # Steps 3-5: compliant interval belief with the median-gap width.
    # Nothing is bounded yet, so exhaustion here propagates partial-less.
    if budget is not None:
        budget.poll()
    if delta is None and g < 2:
        raise RecipeError(
            "a single frequency group has no gaps; pass delta explicitly"
        )
    width = interval_width(groups, delta)
    space = run("space", (width,), lambda: interval_space(frequencies, width))

    # Steps 6-7: the fully compliant O-estimate decides (Figure 8); the
    # structure-exploiting engine additionally reports the *exact*
    # expected cracks whenever it has a cheap plan (interval beliefs
    # usually do — see docs/exact.md), exposing the O-estimate's bias.
    estimate = run("oestimate", None, lambda: o_estimate(space, interest=interest))
    exact_cracks, exact_strategy_name = run(
        "exact", (width, interest), lambda: _try_exact_interval(space, interest, budget)
    )
    attack = run("attack", (width,), lambda: _attack_summary(space, budget))
    interval = RiskAssessment(
        decision=Decision.DISCLOSE_INTERVAL,
        tolerance=tolerance,
        n_items=n,
        g=g,
        delta=width,
        interval_estimate=estimate,
        interest=interest,
        exact_cracks=exact_cracks,
        exact_strategy=exact_strategy_name,
        attack=attack,
    )
    if estimate.value <= tolerance * basis:
        return interval

    # Steps 8-9: search for the largest tolerable degree of compliancy.
    # The interval rung's O-estimate is a bounded answer, so exhaustion
    # from here on degrades to an INCONCLUSIVE partial assessment.
    try:
        if budget is not None:
            budget.poll()
        alpha = run(
            "alpha",
            None,
            lambda: compute_alpha_max(
                space, tolerance, runs=runs, rng=rng, interest=interest
            ),
        )
    except BudgetExceeded as exc:
        partial = exc.partial if isinstance(exc.partial, PartialEstimate) else (
            PartialEstimate(
                value=float(estimate.value),
                std_error=0.0,
                sweeps_completed=0,
                rung="o-estimate",
                reason=exc.reason,
            )
        )
        return replace(interval, decision=Decision.INCONCLUSIVE, partial_estimate=partial)
    return replace(interval, decision=Decision.ALPHA_BOUND, alpha_max=alpha, runs=runs)
