"""Settlement-level statistics: utilization balance.

These back the paper's qualitative claims in Sections I and VI — the market
produces "significant improvements in overall utilization" and reduces the
shortages/surpluses of traditional allocation — and give the benchmark harness
numbers to print.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.utilization import utilization_spread
from repro.core.settlement import Settlement


def utilization_after_settlement(settlement: Settlement) -> np.ndarray:
    """Projected utilization per pool once winning allocations are provisioned.

    Buyers add load to a pool; sellers free it.  Values are clipped to [0, 1]:
    an allocation cannot push a pool past its physical capacity because the
    auction never allocates more than the operator supply plus seller offers.
    """
    index = settlement.index
    capacities = np.maximum(index.capacities(), 1e-9)
    used = index.utilizations() * capacities + settlement.total_allocated()
    return np.clip(used / capacities, 0.0, 1.0)


def utilization_balance_improvement(settlement: Settlement) -> dict[str, float]:
    """Utilization spread before vs after the settlement (lower after = better balance)."""
    before = utilization_spread(settlement.index.utilizations())
    after = utilization_spread(utilization_after_settlement(settlement))
    return {
        "spread_before": before,
        "spread_after": after,
        "improvement": before - after,
    }
