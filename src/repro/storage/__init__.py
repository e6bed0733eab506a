"""Structured objective database (the paper's motivating use case).

Domain experts "store these structured data in databases to compare
different target companies, monitor their progress toward their
sustainability goals, and evaluate companies" (Section 5.1). This package
provides that database: a SQLite-backed store with a typed schema over the
five key details, plus the monitoring/comparison queries the paper
describes (specificity, deadline timelines, company comparison).
"""

from repro.storage.store import (
    ObjectiveStore,
    SCHEMA_VERSION,
    StoredObjective,
    atomic_store_records,
    record_digest,
)
from repro.storage.monitor import (
    company_comparison,
    deadline_timeline,
    horizon_statistics,
    net_zero_pledges,
    reduction_targets,
    specificity_ranking,
)

__all__ = [
    "ObjectiveStore",
    "SCHEMA_VERSION",
    "StoredObjective",
    "atomic_store_records",
    "company_comparison",
    "deadline_timeline",
    "horizon_statistics",
    "net_zero_pledges",
    "record_digest",
    "reduction_targets",
    "specificity_ranking",
]
