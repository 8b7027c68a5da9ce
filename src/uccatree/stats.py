"""Corpus statistics over the discontinuity-repair moves."""

from __future__ import annotations

from typing import Sequence

from .conversion import remove_discontinuities, strip_remotes
from .graph_model import UccaGraph

CATEGORIES = ("ancestor1", "ancestor2", "ancestor3plus", "discontinuous")


def discontinuity_stats(graphs: Sequence[UccaGraph]) -> dict:
    """Distribution of repair-move kinds across a corpus.

    Returns counts, percentages (of all moves, one decimal place worth of
    precision is left to the caller), and the totals.
    """
    counts = {c: 0 for c in CATEGORIES}
    for graph in graphs:
        stripped, _ = strip_remotes(graph)
        _, moves = remove_discontinuities(stripped)
        for move in moves:
            if move.category == "discontinuous":
                counts["discontinuous"] += 1
            else:
                counts[CATEGORIES[min(move.ancestor_distance, 3) - 1]] += 1
    total = sum(counts.values())
    percent = {
        c: (100.0 * counts[c] / total if total else 0.0) for c in CATEGORIES
    }
    return {
        "counts": counts,
        "percent": percent,
        "total_moves": total,
        "graphs": len(graphs),
    }
