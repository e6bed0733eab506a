"""Output checks and quality scores shared by the workloads."""

from __future__ import annotations

import hashlib
import json
from collections.abc import Sequence

from repro.core.schema import SUSTAINABILITY_FIELDS
from repro.eval.metrics import evaluate_extractions, precision_recall_f1


def records_digest(records: Sequence) -> str:
    """Content digest of pipeline records; scores enter via ``float.hex``,
    so two digests agree only when every score agrees bit for bit."""
    hasher = hashlib.sha256()
    for record in records:
        line = json.dumps(
            [
                record.company,
                record.report_id,
                record.page,
                record.objective,
                sorted(record.details.items()),
                float(record.score).hex(),
                record.status,
                record.reporting_year,
            ]
        )
        hasher.update(line.encode("utf-8") + b"\n")
    return hasher.hexdigest()


def align(reports: Sequence, records: Sequence) -> list[tuple]:
    """Pair every corpus block with the record it produced, or ``None``.

    Without segmentation the pipeline returns one record per detected
    block, in corpus order, so one walk pairs them. Raises ``ValueError``
    when a record matches no block.
    """
    pairs = []
    cursor = 0
    for report in reports:
        for page_index, page in enumerate(report.pages):
            for block in page.blocks:
                record = None
                if cursor < len(records):
                    candidate = records[cursor]
                    if (
                        candidate.report_id == report.report_id
                        and candidate.page == page_index
                        and candidate.objective == block.text
                    ):
                        record = candidate
                        cursor += 1
                pairs.append((block, record))
    if cursor != len(records):
        raise ValueError(
            f"{len(records) - cursor} of {len(records)} records match no "
            "corpus block"
        )
    return pairs


def pipeline_quality(reports: Sequence, records: Sequence) -> tuple[float, float]:
    """``(field_f1, detect_f1)`` of pipeline output against generator gold.

    ``field_f1`` is the paper's value-level micro-F1 end to end: a missed
    objective's details count as false negatives, details extracted from
    a noise block as false positives. ``detect_f1`` is block-level F1 of
    detection against ``is_objective``.
    """
    predicted: list[dict] = []
    gold: list[dict] = []
    tp = fp = fn = 0
    for block, record in align(reports, records):
        if block.is_objective:
            predicted.append(record.details if record is not None else {})
            gold.append(block.details)
            tp += record is not None
            fn += record is None
        elif record is not None:
            predicted.append(record.details)
            gold.append({})
            fp += 1
    field_f1 = evaluate_extractions(predicted, gold, SUSTAINABILITY_FIELDS).f1
    return field_f1, precision_recall_f1(tp, fp, fn)[2]


def extraction_f1(predicted: Sequence[dict], gold: Sequence[dict]) -> float:
    """Value-level micro-F1 of extractions on gold objective texts."""
    return evaluate_extractions(predicted, gold, SUSTAINABILITY_FIELDS).f1


def detection_f1(scores: Sequence[float], labels: Sequence[bool], threshold: float) -> float:
    """Block-level F1 of ``score >= threshold`` against the labels."""
    tp = fp = fn = 0
    for score, label in zip(scores, labels):
        hit = score >= threshold
        tp += hit and label
        fp += hit and not label
        fn += label and not hit
    return precision_recall_f1(tp, fp, fn)[2]
