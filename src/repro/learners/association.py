"""Association-rule base learner (Section 4.1, first base method).

For every fatal event in the training set, the non-fatal events preceding
it within the rule-generation window ``Wp`` form an *event set* (a
transaction, together with the fatal event itself).  Frequent-itemset
mining over these transactions (depth-first Eclat), with deliberately low
support/confidence thresholds to capture rare failure patterns, yields
rules of the form::

    {networkWarningInterrupt, networkError} -> socketReadFailure: 1.00

The reviser later discards rules that turn out ineffective — the paper's
justification for mining permissively here.
"""

from __future__ import annotations

import numpy as np

from repro.learners.base import BaseLearner
from repro.learners.eclat import association_rules_from, eclat
from repro.learners.rules import AssociationRule, Rule
from repro.raslog.catalog import EventCatalog
from repro.raslog.store import EventLog


class AssociationRuleLearner(BaseLearner):
    """Mines ``{non-fatal precursors} → fatal`` rules with Eclat."""

    name = "association"

    def __init__(
        self,
        catalog: EventCatalog | None = None,
        min_support: float = 0.01,
        min_confidence: float = 0.1,
        max_antecedent: int = 3,
    ) -> None:
        super().__init__(catalog)
        if not 0.0 < min_support <= 1.0:
            raise ValueError(f"min_support must lie in (0, 1], got {min_support}")
        if not 0.0 < min_confidence <= 1.0:
            raise ValueError(
                f"min_confidence must lie in (0, 1], got {min_confidence}"
            )
        if max_antecedent < 1:
            raise ValueError(f"max_antecedent must be >= 1, got {max_antecedent}")
        self.min_support = min_support
        self.min_confidence = min_confidence
        self.max_antecedent = max_antecedent

    def transactions(
        self, log: EventLog, window: float
    ) -> list[frozenset[str]]:
        """One event set per fatal event that has ≥ 1 precursor in ``Wp``.

        Each transaction holds the distinct non-fatal codes observed in
        ``[t_fatal - Wp, t_fatal)`` plus the fatal code itself.
        """
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        fatal = log.fatal(self.catalog)
        nonfatal = log.nonfatal(self.catalog)
        nf_times = nonfatal.timestamps
        out: list[frozenset[str]] = []
        for event in fatal:
            lo = int(np.searchsorted(nf_times, event.timestamp - window, "left"))
            hi = int(np.searchsorted(nf_times, event.timestamp, "left"))
            if hi <= lo:
                continue
            items = {nonfatal[i].entry_data for i in range(lo, hi)}
            items.add(event.entry_data)
            out.append(frozenset(items))
        return out

    def train(self, log: EventLog, window: float) -> list[Rule]:
        tx = self.transactions(log, window)
        if not tx:
            return []
        itemsets = eclat(tx, self.min_support, max_len=self.max_antecedent + 1)
        fatal_codes = {t.code for t in self.catalog.fatal_types()}
        raw = association_rules_from(itemsets, fatal_codes, self.min_confidence)
        rules: list[Rule] = []
        for antecedent, consequent, support, confidence in raw:
            # Antecedents that themselves contain fatal codes are possible
            # when a failure precedes another; the paper's association
            # method correlates *non-fatal* precursors with fatals, so
            # restrict accordingly.
            if antecedent & fatal_codes:
                continue
            rules.append(
                AssociationRule(
                    antecedent=frozenset(antecedent),
                    consequent=str(consequent),
                    support=support,
                    confidence=confidence,
                )
            )
        rules.sort(key=lambda r: (-r.confidence, -r.support, r.key))
        return rules
