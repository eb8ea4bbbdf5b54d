"""Experiment E8 — low J-measure predicts few spurious tuples.

The paper's introduction cites the empirical finding of Kenig et al. [14]
that schemas with low J-measure generally incur few spurious tuples (the
relationship is not monotone, but correlates).  This experiment:

1. plants an exact MVD instance, perturbs it at increasing noise rates,
   and checks the miner recovers the planted schema at noise 0 and tracks
   increasing J / ρ as noise grows;
2. measures the rank correlation (Spearman) between ``J`` and ``ρ``
   across a pool of random schemas and instances — the correlation should
   be strongly positive, reproducing [14]'s observation.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy import stats

from repro.core.evalcontext import EvalContext
from repro.core.random_relations import random_relation
from repro.datasets.noise import perturb
from repro.datasets.synthetic import planted_mvd_relation
from repro.discovery.miner import mine_jointree
from repro.errors import ExperimentError
from repro.jointrees.build import jointree_from_schema


@dataclass(frozen=True)
class RecoveryRow:
    """E8a: miner behaviour at one noise rate."""

    noise: float
    recovered: bool
    mined_j: float
    mined_rho: float
    planted_j: float
    planted_rho: float


def run_recovery(
    *,
    noise_rates: Sequence[float] = (0.0, 0.05, 0.1, 0.2),
    threshold: float = 0.25,
    seed: int = 23,
    strategy: str = "recursive",
) -> list[RecoveryRow]:
    """E8a: plant ``C ↠ A|B``, add noise, mine, compare.

    ``strategy`` selects the discovery engine's search mode (the default
    reproduces the pinned numbers).
    """
    rng = np.random.default_rng(seed)
    planted_tree = jointree_from_schema([{"A", "C"}, {"B", "C"}])
    planted_bags = {frozenset({"A", "C"}), frozenset({"B", "C"})}
    rows = []
    for rate in noise_rates:
        base = planted_mvd_relation(10, 10, 5, rng)
        noisy = perturb(base, rng, insert_rate=rate)
        mined = mine_jointree(noisy, threshold=threshold, strategy=strategy)
        # One evaluation context per instance: the planted-schema J and ρ
        # reuse the entropies the mining run already memoized.
        context = EvalContext.for_relation(noisy)
        rows.append(
            RecoveryRow(
                noise=rate,
                recovered=set(mined.bags) == planted_bags,
                mined_j=mined.j_value,
                mined_rho=mined.rho,
                planted_j=context.j_measure(planted_tree),
                planted_rho=context.spurious_loss(planted_tree),
            )
        )
    return rows


@dataclass(frozen=True)
class CorrelationResult:
    """E8b: J-vs-ρ correlation across a random pool."""

    pairs: tuple[tuple[float, float], ...]
    spearman: float
    p_value: float


def run_j_rho_correlation(
    *, instances: int = 40, seed: int = 29
) -> CorrelationResult:
    """E8b: Spearman correlation between ``J`` and ``ρ`` over random data.

    Instances vary in density and domain sizes under the two-bag MVD
    schema; since ``J`` and ``ρ`` both increase as instances drift from
    conditional independence, the rank correlation should be strongly
    positive (the paper stresses it is *not* a monotone function — only a
    correlation).
    """
    if instances < 4:
        raise ExperimentError(f"need at least 4 instances, got {instances}")
    rng = np.random.default_rng(seed)
    tree = jointree_from_schema([{"A", "C"}, {"B", "C"}])
    pairs = []
    for _ in range(instances):
        d_a = int(rng.integers(4, 14))
        d_b = int(rng.integers(4, 14))
        d_c = int(rng.integers(2, 6))
        total = d_a * d_b * d_c
        n = int(rng.integers(max(4, total // 20), max(5, total // 2)))
        relation = random_relation({"A": d_a, "B": d_b, "C": d_c}, n, rng)
        context = EvalContext.for_relation(relation)
        pairs.append(
            (context.j_measure(tree), context.spurious_loss(tree))
        )
    js = [p[0] for p in pairs]
    rhos = [p[1] for p in pairs]
    corr, p_value = stats.spearmanr(js, rhos)
    return CorrelationResult(
        pairs=tuple(pairs), spearman=float(corr), p_value=float(p_value)
    )


@dataclass(frozen=True)
class StrategyRow:
    """E8c: one strategy's result on a fixed noisy planted instance."""

    strategy: str
    num_bags: int
    j_value: float
    rho: float
    recovered: bool


def run_strategy_comparison(
    *,
    noise: float = 0.1,
    threshold: float = 0.25,
    seed: int = 23,
    strategies: Sequence[str] | None = None,
) -> list[StrategyRow]:
    """E8c: every registered strategy on one noisy planted instance.

    All strategies see the same relation *instance*, so the shared
    entropy memo makes the comparison cheap; rows report how finely each
    strategy decomposed and at what J/ρ cost.
    """
    from repro.discovery.strategies import available_strategies

    if strategies is None:
        strategies = available_strategies()
    rng = np.random.default_rng(seed)
    base = planted_mvd_relation(10, 10, 5, rng)
    noisy = perturb(base, rng, insert_rate=noise)
    planted_bags = {frozenset({"A", "C"}), frozenset({"B", "C"})}
    rows = []
    for name in strategies:
        mined = mine_jointree(noisy, threshold=threshold, strategy=name)
        rows.append(
            StrategyRow(
                strategy=name,
                num_bags=len(mined.bags),
                j_value=mined.j_value,
                rho=mined.rho,
                recovered=set(mined.bags) == planted_bags,
            )
        )
    return rows


def format_strategy_table(rows: Sequence[StrategyRow]) -> str:
    """Render the E8c comparison."""
    header = f"{'strategy':>22} {'bags':>5} {'J':>9} {'rho':>9} {'recovered':>10}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.strategy:>22} {row.num_bags:>5} {row.j_value:>9.4f} "
            f"{row.rho:>9.4f} {'yes' if row.recovered else 'no':>10}"
        )
    return "\n".join(lines)


def format_recovery_table(rows: Sequence[RecoveryRow]) -> str:
    """Render the E8a series."""
    header = (
        f"{'noise':>6} {'recovered':>10} {'mined J':>9} {'mined rho':>10} "
        f"{'planted J':>10} {'planted rho':>12}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.noise:>6.2f} {'yes' if row.recovered else 'no':>10} "
            f"{row.mined_j:>9.4f} {row.mined_rho:>10.4f} "
            f"{row.planted_j:>10.4f} {row.planted_rho:>12.4f}"
        )
    return "\n".join(lines)


def main() -> None:
    """Print the discovery-quality experiment."""
    print("E8a — schema recovery under noise (planted C ↠ A|B)")
    print(format_recovery_table(run_recovery()))
    print()
    corr = run_j_rho_correlation()
    print(
        "E8b — Spearman(J, rho) over "
        f"{len(corr.pairs)} random instances: {corr.spearman:.3f} "
        f"(p = {corr.p_value:.2e})"
    )
    print()
    print("E8c — discovery strategies on one noisy planted instance")
    print(format_strategy_table(run_strategy_comparison()))


if __name__ == "__main__":
    main()
