"""Workload inputs and the one training recipe every set-up uses.

The measured inputs are a pure function of the workload seed: the same
seed gives the same corpus and request stream. Training uses one fixed
draw (:data:`TRAIN_SEED`), so every set-up builds the same models.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.extractor import ExtractorConfig
from repro.datasets import build_sustainability_goals
from repro.datasets.reports import DEPLOYMENT_COMPANIES, build_deployment_corpus
from repro.datasets.sustainability import build_company_panel
from repro.deploy import build_trained_pipeline
from repro.goalspotter.detector import DetectorConfig
from repro.models.training import FineTuneConfig

#: Reporting years of the multi-year panel (``build_company_panel``'s).
PANEL_YEARS = 4

#: The warm-up corpus and stream come from this seed offset, so the
#: timed phase never sees text the warm-up already cached.
WARMUP_SEED_OFFSET = 7919

#: Seed of the training data. Set-up trains on a fixed data draw: at a
#: set-up cost a run can afford (seconds, not minutes) the models are
#: under-trained, and their field F1 swings by a fifth between training
#: draws. With the draw fixed, quality moves only with the measured
#: inputs, which the workload seed generates.
TRAIN_SEED = 0

#: Seed of the serve arrival schedule. Poisson arrivals drawn from the
#: workload seed moved the nominal-rate p99 between 31 and 68 ms across
#: five seeds on one host: the tail measured the draw, not the server.
#: One fixed schedule keeps the tail a property of the server; the
#: workload seed still picks the requests.
SCHEDULE_SEED = 20260


@dataclasses.dataclass(frozen=True)
class Recipe:
    """Sizes and rates of one benchmark configuration."""

    train_objectives: int  # Sustainability Goals objectives the extractor fits
    extractor_finetune: FineTuneConfig
    detector_blocks: int  # labelled blocks the detector fits
    detector_finetune: FineTuneConfig
    corpus_scale: float  # share of Table 5 in the measured corpus
    stream_scale: float  # share of Table 5 behind the serve request stream
    panel_companies: int  # multi-year panel width: goal threads + drift
    warmup_scale: float  # share of Table 5 in the warm-up corpus / stream
    setup_repeats: int  # set-ups per untraced run; setup_s is their median
    min_passes: int  # corpus passes per run, however short --seconds is
    nominal_rps: float  # serve: the fixed nominal request rate
    overload_rps: float  # serve: the fixed overload request rate
    field_f1_floor: float  # every run checks field_f1 against this


#: The configuration the benchmark command measures.
STANDARD = Recipe(
    train_objectives=150,
    extractor_finetune=FineTuneConfig(
        epochs=3, learning_rate=5e-3, batch_size=8
    ),
    detector_blocks=200,
    detector_finetune=FineTuneConfig(epochs=2, learning_rate=3e-3),
    corpus_scale=0.05,
    stream_scale=0.05,
    panel_companies=6,
    warmup_scale=0.004,
    setup_repeats=2,
    min_passes=3,
    nominal_rps=100.0,
    overload_rps=900.0,
    # Seeds 0-14 gave serve 0.43-0.51 and deploy/extract about 0.57; the
    # floor sits below that spread so that it fails only a broken model.
    field_f1_floor=0.3,
)

#: A seconds-scale configuration for the benchmark's own tests.
TINY = Recipe(
    train_objectives=40,
    extractor_finetune=FineTuneConfig(
        epochs=1, learning_rate=5e-3, batch_size=8
    ),
    detector_blocks=60,
    detector_finetune=FineTuneConfig(epochs=1, learning_rate=3e-3),
    corpus_scale=0.004,
    stream_scale=0.004,
    panel_companies=2,
    warmup_scale=0.002,
    setup_repeats=1,
    min_passes=2,
    nominal_rps=100.0,
    overload_rps=400.0,
    field_f1_floor=0.0,
)


def train_pipeline(recipe: Recipe):
    """Weak labels, BPE and both fine-tunes: a ready GoalSpotter."""
    dataset = build_sustainability_goals(
        seed=TRAIN_SEED, size=recipe.train_objectives
    )
    return build_trained_pipeline(
        dataset,
        seed=TRAIN_SEED,
        detector_blocks=recipe.detector_blocks,
        extractor_config=ExtractorConfig(finetune=recipe.extractor_finetune),
        detector_config=DetectorConfig(finetune=recipe.detector_finetune),
    )


def corpus(seed: int, scale: float, panel_companies: int) -> list:
    """A Table 5 corpus plus a multi-year company panel, so the KG gets
    goal threads across years and the panel's injected drift."""
    reports = build_deployment_corpus(seed=seed, scale=scale)
    panel = build_company_panel(seed=seed, num_companies=panel_companies)
    return reports + panel.reports


def expected_counts(scale: float, panel_companies: int) -> tuple[int, int]:
    """Documents and pages :func:`corpus` must hold: Table 5's per-company
    counts at ``scale`` plus two pages per panel report."""
    documents = pages = 0
    for __, num_docs, num_pages, __ in DEPLOYMENT_COMPANIES:
        docs = max(1, int(round(num_docs * scale)))
        documents += docs
        pages += max(docs, int(round(num_pages * scale)))
    panel_reports = panel_companies * PANEL_YEARS
    return documents + panel_reports, pages + 2 * panel_reports


def serve_stream(seed: int, scale: float) -> list[tuple]:
    """Requests from a generated report stream, shuffled by the seed.

    One ``detect`` request per page (that page's blocks, gold
    ``is_objective`` flags) and one ``extract`` request per objective
    block (its text, gold details): ``(kind, texts, gold)``. The corpus
    lists companies in order and each company writes alike, so report
    order would hand each phase one company's requests; shuffled, every
    phase sees the whole corpus's mix. Each kind is shuffled on its own
    and the extract requests are spaced evenly through the stream, so
    every window of it holds the same share of each kind.
    """
    stream: list[tuple] = []
    for report in build_deployment_corpus(seed=seed, scale=scale):
        for page in report.pages:
            stream.append(
                (
                    "detect",
                    tuple(block.text for block in page.blocks),
                    tuple(block.is_objective for block in page.blocks),
                )
            )
            for block in page.blocks:
                if block.is_objective:
                    stream.append(("extract", (block.text,), block.details))
    rng = np.random.default_rng(seed)
    placed = []
    for kind in ("detect", "extract"):
        requests = [request for request in stream if request[0] == kind]
        order = rng.permutation(len(requests))
        placed.extend(
            ((rank + 0.5) / len(requests), kind, requests[index])
            for rank, index in enumerate(order)
        )
    placed.sort(key=lambda entry: entry[:2])
    return [request for __, __, request in placed]
