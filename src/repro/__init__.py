"""repro — dynamic meta-learning for failure prediction in large-scale systems.

A full reproduction of Gu, Zheng, Lan, White, Hocks & Park, *Dynamic
Meta-Learning for Failure Prediction in Large-Scale Systems: A Case
Study* (ICPP 2008), including every substrate the paper depends on:

* :mod:`repro.raslog` — Blue Gene/L RAS event model, the Table 3 event
  catalog, an in-memory event store, a LogHub-format parser, and a
  synthetic workload generator calibrated to the paper's ANL and SDSC
  systems (with pattern drift and the case-study anomalies);
* :mod:`repro.preprocess` — event categorization and temporal/spatial
  filtering (Section 3);
* :mod:`repro.learners` — the three base predictive methods: association
  rules (Eclat from scratch), statistical burst rules, and MLE-fitted
  inter-arrival distributions (Section 4.1);
* :mod:`repro.core` — the meta-learner (mixture of experts), the
  ROC-based reviser (Algorithm 1), the event-driven predictor
  (Algorithm 2), the knowledge repository with churn tracking, and the
  dynamic retraining framework;
* :mod:`repro.evaluation` — precision/recall accounting, weekly
  timelines, Venn coverage and overhead measurement (Section 5);
* :mod:`repro.experiments` — one driver per paper table and figure.

Quickstart::

    from repro import (
        DynamicMetaLearningFramework, FrameworkConfig,
        GeneratorConfig, SDSC_PROFILE, generate_log,
    )

    trace = generate_log(SDSC_PROFILE, GeneratorConfig(weeks=60, seed=1,
                                                       duplicates=False))
    framework = DynamicMetaLearningFramework(FrameworkConfig())
    result = framework.run(trace.clean)
    print(result.overall.precision, result.overall.recall)
"""

from repro import observe
from repro.alerts import FailureWarning
from repro.core import (
    DynamicMetaLearningFramework,
    FrameworkConfig,
    KnowledgeRepository,
    MetaLearner,
    Predictor,
    Reviser,
    RunResult,
    TrainingPolicy,
    dynamic_months,
    dynamic_whole,
    static_initial,
)
from repro.learners import (
    AssociationRuleLearner,
    BaseLearner,
    DistributionLearner,
    StatisticalRuleLearner,
    register_learner,
)
from repro.observe import MetricsRegistry
from repro.preprocess import PreprocessingPipeline
from repro.raslog import (
    ANL_PROFILE,
    SDSC_PROFILE,
    EventCatalog,
    EventLog,
    GeneratorConfig,
    RASEvent,
    SyntheticLog,
    default_catalog,
    generate_log,
    get_profile,
    load_log,
)

__version__ = "1.0.0"

__all__ = [
    "ANL_PROFILE",
    "SDSC_PROFILE",
    "AssociationRuleLearner",
    "BaseLearner",
    "DistributionLearner",
    "DynamicMetaLearningFramework",
    "EventCatalog",
    "EventLog",
    "FailureWarning",
    "FrameworkConfig",
    "GeneratorConfig",
    "KnowledgeRepository",
    "MetaLearner",
    "MetricsRegistry",
    "Predictor",
    "PreprocessingPipeline",
    "RASEvent",
    "Reviser",
    "RunResult",
    "StatisticalRuleLearner",
    "SyntheticLog",
    "TrainingPolicy",
    "__version__",
    "default_catalog",
    "dynamic_months",
    "dynamic_whole",
    "generate_log",
    "get_profile",
    "load_log",
    "observe",
    "register_learner",
    "static_initial",
]
