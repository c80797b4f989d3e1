"""Depth-first Eclat frequent-itemset mining over transaction-id bitmaps.

The miner behind the association-rule learner.  Items are arbitrary
hashables.  Each frequent item keeps the ids of the transactions that
contain it as one Python-int bitmap (bit ``t`` set when transaction ``t``
holds the item).  An itemset is extended depth-first by ANDing its bitmap
with a sibling's, and its support count is ``int.bit_count()`` of the
result — there is no candidate join/prune step and no pass over the
transactions after the bitmaps are built.

Failure prediction mines *rare* patterns, so ``min_support`` is typically
very low (the paper uses 0.01) and the practical guard is ``max_len`` on
itemset size rather than support pruning alone.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, slots=True)
class ItemsetCounts:
    """Frequent itemsets with absolute counts over ``n_transactions``."""

    counts: dict[frozenset, int]
    n_transactions: int

    def support(self, itemset: Iterable[Hashable]) -> float:
        key = frozenset(itemset)
        if self.n_transactions == 0:
            return 0.0
        return self.counts.get(key, 0) / self.n_transactions

    def __len__(self) -> int:
        return len(self.counts)

    def __contains__(self, itemset: Iterable[Hashable]) -> bool:
        return frozenset(itemset) in self.counts


def _bitmap(tids: list[int], n: int) -> int:
    """The ids in ``tids`` (all ``< n``) as an int with those bits set."""
    mask = np.zeros(n, dtype=bool)
    mask[tids] = True
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


#: One member of an equivalence class: the item that extends the class
#: prefix, the bitmap of transactions holding prefix + item, and its count.
_Member = tuple[Hashable, int, int]


def _extend(
    prefix: frozenset,
    members: list[_Member],
    min_count: float,
    max_len: int | None,
    out: dict[frozenset, int],
) -> None:
    """Record every frequent itemset that extends ``prefix`` by ``members``."""
    grow = max_len is None or len(prefix) + 1 < max_len
    for i, (item, bits, count) in enumerate(members):
        itemset = prefix | {item}
        out[itemset] = count
        if not grow:
            continue
        child: list[_Member] = []
        for other, other_bits, _ in members[i + 1 :]:
            joint = bits & other_bits
            joint_count = joint.bit_count()
            if joint_count >= min_count:
                child.append((other, joint, joint_count))
        if child:
            _extend(itemset, child, min_count, max_len, out)


def eclat(
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

    tids: dict[Hashable, list[int]] = {}
    for tid, t in enumerate(transactions):
        for item in set(t):
            tids.setdefault(item, []).append(tid)
    n = len(transactions)
    result: dict[frozenset, int] = {}
    if n == 0:
        return ItemsetCounts(counts=result, n_transactions=0)
    min_count = min_support * n

    # Rarest items first keeps the deeper equivalence classes small.
    singles = sorted(
        (
            (item, _bitmap(ids, n), len(ids))
            for item, ids in tids.items()
            if len(ids) >= min_count
        ),
        key=lambda member: member[2],
    )
    _extend(frozenset(), singles, min_count, max_len, result)
    return ItemsetCounts(counts=result, n_transactions=n)


def association_rules_from(
    itemsets: ItemsetCounts,
    consequents: Iterable[Hashable],
    min_confidence: float,
) -> list[tuple[frozenset, Hashable, float, float]]:
    """Rules ``antecedent → consequent`` targeted at given consequents.

    Returns ``(antecedent, consequent, support, confidence)`` tuples for
    every frequent itemset containing exactly one consequent item, where
    ``confidence = support(itemset) / support(antecedent)``.  Antecedent
    supports of frequent itemsets are always available by downward
    closure: every subset of a frequent itemset is frequent.
    """
    if not 0.0 < min_confidence <= 1.0:
        raise ValueError(
            f"min_confidence must lie in (0, 1], got {min_confidence}"
        )
    targets = set(consequents)
    out: list[tuple[frozenset, Hashable, float, float]] = []
    for itemset, count in itemsets.counts.items():
        inside = itemset & targets
        if len(inside) != 1:
            continue
        (consequent,) = inside
        antecedent = itemset - {consequent}
        if not antecedent:
            continue
        ante_count = itemsets.counts.get(antecedent)
        if ante_count is None:  # pragma: no cover - guaranteed by closure
            continue
        confidence = count / ante_count
        if confidence >= min_confidence:
            support = count / itemsets.n_transactions
            out.append((antecedent, consequent, support, confidence))
    return out
