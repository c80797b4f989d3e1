"""Level-wise Apriori frequent-itemset mining, the reference for Eclat.

The classic algorithm (Agrawal & Srikant): transactions are stored as
frozensets, and candidate counting uses the standard subset-prune — a
(k+1)-candidate survives only if all of its k-subsets were frequent.  It
scans every transaction once per level, so it is kept here as a test
oracle for :func:`repro.learners.eclat.eclat`, not as a production miner.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Hashable, Iterable, Sequence
from itertools import combinations

from repro.learners.eclat import ItemsetCounts


def _candidates(
    frequent_k: list[frozenset], frequent_set: set[frozenset], k: int
) -> list[frozenset]:
    """Join step + prune step: (k+1)-candidates from frequent k-itemsets."""
    # Canonical sorted-tuple form for prefix joining.
    sorted_items = sorted(tuple(sorted(s)) for s in frequent_k)
    out: list[frozenset] = []
    n = len(sorted_items)
    for i in range(n):
        a = sorted_items[i]
        for j in range(i + 1, n):
            b = sorted_items[j]
            if a[: k - 1] != b[: k - 1]:
                break  # sorted order: no further shared prefix
            candidate = frozenset(a) | frozenset(b)
            # Prune: every k-subset must be frequent.
            if all(
                frozenset(sub) in frequent_set
                for sub in combinations(sorted(candidate), k)
            ):
                out.append(candidate)
    return out


def apriori(
    transactions: Sequence[Iterable[Hashable]],
    min_support: float,
    max_len: int | None = None,
) -> ItemsetCounts:
    """All itemsets with support ≥ ``min_support`` (and size ≤ ``max_len``).

    Support is the fraction of transactions containing the itemset.
    """
    if not 0.0 < min_support <= 1.0:
        raise ValueError(f"min_support must lie in (0, 1], got {min_support}")
    if max_len is not None and max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")

    tx = [frozenset(t) for t in transactions]
    n = len(tx)
    result: dict[frozenset, int] = {}
    if n == 0:
        return ItemsetCounts(counts=result, n_transactions=0)
    min_count = min_support * n

    # L1
    item_counts: dict[Hashable, int] = defaultdict(int)
    for t in tx:
        for item in t:
            item_counts[item] += 1
    frequent = [
        frozenset((item,)) for item, c in item_counts.items() if c >= min_count
    ]
    for s in frequent:
        (item,) = s
        result[s] = item_counts[item]

    k = 1
    while frequent and (max_len is None or k < max_len):
        candidates = _candidates(frequent, set(frequent), k)
        if not candidates:
            break
        counts: dict[frozenset, int] = defaultdict(int)
        for t in tx:
            if len(t) <= k:
                continue
            for c in candidates:
                if c <= t:
                    counts[c] += 1
        frequent = [c for c in candidates if counts[c] >= min_count]
        for c in frequent:
            result[c] = counts[c]
        k += 1

    return ItemsetCounts(counts=result, n_transactions=n)
