"""Shared MILP instances for the solver and tracing tests."""

import random

from repro.milp.expr import VarType
from repro.milp.model import Model


def market_split(rows: int, binaries: int, seed: int) -> Model:
    """Small equality-balancing MILP with a large branch-and-bound tree."""
    rng = random.Random(seed)
    model = Model(f"market_split_{rows}x{binaries}_s{seed}")
    x = [model.add_var(f"x{j}", vtype=VarType.BINARY) for j in range(binaries)]
    surplus = [model.add_var(f"sp{i}", lb=0) for i in range(rows)]
    deficit = [model.add_var(f"sm{i}", lb=0) for i in range(rows)]
    for i in range(rows):
        weights = [rng.randrange(100) for _ in range(binaries)]
        target = sum(weights) // 2
        model.add(
            sum(w * xj for w, xj in zip(weights, x))
            + surplus[i] - deficit[i] == target,
            name=f"row{i}",
        )
    model.minimize(sum(surplus) + sum(deficit))
    return model
