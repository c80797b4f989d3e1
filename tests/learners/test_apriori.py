"""Unit and property tests for the frequent-itemset miner.

The production miner is depth-first Eclat; it is checked against a
brute-force enumeration and against the level-wise Apriori oracle in
:mod:`tests.learners.apriori_oracle`, on random transactions and on the
event sets of a real generated trace.
"""

from itertools import chain, combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.learners import AssociationRuleLearner
from repro.learners.eclat import association_rules_from, eclat
from tests.learners.apriori_oracle import apriori as apriori_oracle


def brute_force(transactions, min_support, max_len=None):
    """Reference implementation: enumerate every candidate itemset."""
    tx = [frozenset(t) for t in transactions]
    items = sorted(set(chain.from_iterable(tx)))
    n = len(tx)
    out = {}
    top = len(items) if max_len is None else min(max_len, len(items))
    for k in range(1, top + 1):
        for combo in combinations(items, k):
            s = frozenset(combo)
            count = sum(1 for t in tx if s <= t)
            if count >= min_support * n and count > 0:
                out[s] = count
    return out


class TestAprioriBasics:
    def test_classic_example(self):
        tx = [
            {"bread", "milk"},
            {"bread", "diapers", "beer", "eggs"},
            {"milk", "diapers", "beer", "cola"},
            {"bread", "milk", "diapers", "beer"},
            {"bread", "milk", "diapers", "cola"},
        ]
        result = eclat(tx, min_support=0.6)
        assert result.counts[frozenset({"bread"})] == 4
        assert result.counts[frozenset({"milk", "diapers"})] == 3
        assert frozenset({"beer", "milk"}) not in result.counts  # support 0.4

    def test_support_accessor(self):
        result = eclat([{"a"}, {"a", "b"}], min_support=0.5)
        assert result.support({"a"}) == 1.0
        assert result.support({"a", "b"}) == 0.5
        assert result.support({"zzz"}) == 0.0

    def test_empty_transactions(self):
        result = eclat([], min_support=0.5)
        assert len(result) == 0
        assert result.support({"a"}) == 0.0

    def test_max_len_limits_size(self):
        tx = [{"a", "b", "c"}] * 4
        result = eclat(tx, min_support=0.5, max_len=2)
        assert all(len(s) <= 2 for s in result.counts)
        assert frozenset({"a", "b"}) in result.counts

    def test_min_support_validation(self):
        with pytest.raises(ValueError, match="min_support"):
            eclat([{"a"}], min_support=0.0)

    def test_max_len_validation(self):
        with pytest.raises(ValueError, match="max_len"):
            eclat([{"a"}], min_support=0.5, max_len=0)

    def test_contains(self):
        result = eclat([{"a", "b"}], min_support=0.5)
        assert {"a"} in result
        assert {"c"} not in result

    def test_downward_closure(self):
        tx = [{"a", "b", "c"}, {"a", "b"}, {"a", "c"}, {"b", "c"}]
        result = eclat(tx, min_support=0.25)
        for itemset in result.counts:
            for k in range(1, len(itemset)):
                for sub in combinations(sorted(itemset), k):
                    assert frozenset(sub) in result.counts


@st.composite
def transaction_sets(draw):
    n_items = draw(st.integers(min_value=1, max_value=6))
    items = [f"i{k}" for k in range(n_items)]
    n_tx = draw(st.integers(min_value=1, max_value=15))
    return [
        frozenset(draw(st.sets(st.sampled_from(items), min_size=1, max_size=n_items)))
        for _ in range(n_tx)
    ]


class TestAgainstBruteForce:
    @settings(max_examples=60, deadline=None)
    @given(transaction_sets(), st.floats(min_value=0.05, max_value=1.0))
    def test_matches_reference(self, tx, min_support):
        fast = eclat(tx, min_support)
        slow = brute_force(tx, min_support)
        assert fast.counts == slow

    @settings(max_examples=30, deadline=None)
    @given(transaction_sets(), st.integers(min_value=1, max_value=3))
    def test_matches_reference_with_max_len(self, tx, max_len):
        fast = eclat(tx, 0.1, max_len=max_len)
        slow = brute_force(tx, 0.1, max_len=max_len)
        assert fast.counts == slow



class TestAgainstAprioriOracle:
    @settings(max_examples=80, deadline=None)
    @given(
        transaction_sets(),
        st.floats(min_value=0.01, max_value=1.0),
        st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
    )
    def test_matches_oracle(self, tx, min_support, max_len):
        fast = eclat(tx, min_support, max_len=max_len)
        oracle = apriori_oracle(tx, min_support, max_len=max_len)
        assert fast.counts == oracle.counts
        assert fast.n_transactions == oracle.n_transactions

    @settings(max_examples=60, deadline=None)
    @given(transaction_sets(), st.data())
    def test_support_exactly_at_threshold(self, tx, data):
        """A threshold set exactly at one itemset's support agrees with the
        oracle and keeps that itemset (``count >= min_support * n``)."""
        n = len(tx)
        counts = apriori_oracle(tx, 1 / n).counts
        itemset = data.draw(st.sampled_from(sorted(counts, key=sorted)))
        min_support = counts[itemset] / n
        fast = eclat(tx, min_support)
        assert fast.counts == apriori_oracle(tx, min_support).counts
        if counts[itemset] >= min_support * n:
            assert fast.counts[itemset] == counts[itemset]

    def test_threshold_boundary_example(self):
        tx = [{"a", "b"}, {"a", "b"}, {"a"}, {"c"}]
        result = eclat(tx, min_support=0.5)
        assert result.counts[frozenset({"a", "b"})] == 2  # 2 >= 0.5 * 4
        assert frozenset({"c"}) not in result.counts

    def test_real_trace_event_sets(self, mid_trace):
        learner = AssociationRuleLearner()
        tx = learner.transactions(mid_trace.clean, 3600.0)
        assert len(tx) > 100
        max_len = learner.max_antecedent + 1
        fast = eclat(tx, learner.min_support, max_len=max_len)
        oracle = apriori_oracle(tx, learner.min_support, max_len=max_len)
        assert fast.counts == oracle.counts
        assert any(len(s) == max_len for s in fast.counts)
        fatal = {t.code for t in learner.catalog.fatal_types()}
        rules = association_rules_from(fast, fatal, learner.min_confidence)
        expected = association_rules_from(oracle, fatal, learner.min_confidence)
        assert rules
        assert sorted(rules, key=_rule_order) == sorted(expected, key=_rule_order)


def _rule_order(rule):
    antecedent, consequent, _, _ = rule
    return (consequent, sorted(antecedent))

class TestRuleGeneration:
    def test_targeted_rules(self):
        tx = [
            {"w1", "w2", "FATAL"},
            {"w1", "w2", "FATAL"},
            {"w1", "w3"},
            {"w2", "FATAL"},
        ]
        itemsets = eclat(tx, min_support=0.25)
        rules = association_rules_from(itemsets, {"FATAL"}, min_confidence=0.5)
        as_dict = {(frozenset(a), c): (s, conf) for a, c, s, conf in rules}
        support, confidence = as_dict[(frozenset({"w2"}), "FATAL")]
        assert confidence == pytest.approx(1.0)
        assert support == pytest.approx(0.75)
        # w1 -> FATAL has confidence 2/3
        _, conf_w1 = as_dict[(frozenset({"w1"}), "FATAL")]
        assert conf_w1 == pytest.approx(2 / 3)

    def test_consequent_only_itemsets_excluded(self):
        tx = [{"FATAL"}, {"FATAL"}]
        itemsets = eclat(tx, min_support=0.5)
        rules = association_rules_from(itemsets, {"FATAL"}, min_confidence=0.1)
        assert rules == []

    def test_multi_consequent_itemsets_excluded(self):
        tx = [{"w", "F1", "F2"}] * 3
        itemsets = eclat(tx, min_support=0.5)
        rules = association_rules_from(itemsets, {"F1", "F2"}, 0.1)
        # only single-consequent itemsets produce rules
        assert all(c in ("F1", "F2") for _, c, _, _ in rules)
        assert all(not (a & {"F1", "F2"}) for a, _, _, _ in rules)

    def test_min_confidence_filters(self):
        tx = [{"w", "FATAL"}, {"w"}, {"w"}, {"w"}]
        itemsets = eclat(tx, min_support=0.25)
        none = association_rules_from(itemsets, {"FATAL"}, min_confidence=0.5)
        some = association_rules_from(itemsets, {"FATAL"}, min_confidence=0.2)
        assert none == []
        assert len(some) == 1

    def test_validation(self):
        itemsets = eclat([{"a"}], 0.5)
        with pytest.raises(ValueError, match="min_confidence"):
            association_rules_from(itemsets, {"a"}, 0.0)
