"""repro — reproduction of "Automatic Detail Extraction from Sustainability
Objectives Using Weak Supervision" (Mahdavi & Debus, EDBT 2026).

Public API tour:

* :class:`repro.core.WeakSupervisionExtractor` — the paper's system: weak
  supervision token labeling (Algorithm 1) + transformer fine-tuning.
* :mod:`repro.datasets` — seeded reconstructions of the Sustainability
  Goals and NetZeroFacts corpora and the deployment report corpus.
* :class:`repro.crf.CrfDetailExtractor`,
  :class:`repro.llm.PromptingExtractor` — the Table 4 baselines.
* :class:`repro.goalspotter.GoalSpotter` — detection + extraction pipeline.
* :class:`repro.storage.ObjectiveStore` — the structured objective database
  with normalized (typed) detail columns.
* :mod:`repro.normalize` — semantic normalization of extracted values.
* :mod:`repro.eval` — the paper's evaluation protocol and metrics.
* :mod:`repro.deploy` — the Section 5 deployment scenarios.
* :mod:`repro.tasks` — the task registry: pluggable workloads (GoalSpotter
  plus three new tenants) over one serving substrate, gated by a shared
  conformance suite.
"""

from repro.core.extractor import ExtractorConfig, WeakSupervisionExtractor
from repro.core.schema import (
    AnnotatedObjective,
    NETZEROFACTS_FIELDS,
    SUSTAINABILITY_FIELDS,
    TAXONOMY_KPI_FIELDS,
)
from repro.nn.precision import pin_blas_threads
from repro.tasks import Task, get_task, register_task, task_names

pin_blas_threads()

__version__ = "1.0.0"

__all__ = [
    "AnnotatedObjective",
    "ExtractorConfig",
    "NETZEROFACTS_FIELDS",
    "SUSTAINABILITY_FIELDS",
    "TAXONOMY_KPI_FIELDS",
    "Task",
    "WeakSupervisionExtractor",
    "__version__",
    "get_task",
    "register_task",
    "task_names",
]
