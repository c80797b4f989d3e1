"""Base predictive methods and their rule model (Section 4.1)."""

from repro.learners.association import AssociationRuleLearner
from repro.learners.base import BaseLearner
from repro.learners.counting import CountThresholdLearner
from repro.learners.distribution import DistributionLearner
from repro.learners.eclat import ItemsetCounts, association_rules_from, eclat
from repro.learners.fitting import (
    DISTRIBUTION_FAMILIES,
    FittedDistribution,
    fit_best,
    fit_exponential,
    fit_family,
    fit_lognormal,
    fit_weibull,
)
from repro.learners.registry import (
    DEFAULT_LEARNERS,
    available_learners,
    create_learner,
    register_learner,
)
from repro.learners.rules import (
    ANY_FAILURE,
    AssociationRule,
    CountRule,
    DistributionRule,
    Rule,
    RuleKey,
    StatisticalRule,
    rule_sort_key,
)
from repro.learners.statistical import StatisticalRuleLearner

__all__ = [
    "ANY_FAILURE",
    "DEFAULT_LEARNERS",
    "DISTRIBUTION_FAMILIES",
    "AssociationRule",
    "AssociationRuleLearner",
    "BaseLearner",
    "CountRule",
    "CountThresholdLearner",
    "DistributionLearner",
    "DistributionRule",
    "FittedDistribution",
    "ItemsetCounts",
    "Rule",
    "RuleKey",
    "StatisticalRule",
    "StatisticalRuleLearner",
    "association_rules_from",
    "available_learners",
    "create_learner",
    "eclat",
    "fit_best",
    "fit_exponential",
    "fit_family",
    "fit_lognormal",
    "fit_weibull",
    "register_learner",
    "rule_sort_key",
]
