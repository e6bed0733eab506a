"""The paper's primary contribution: weak-supervision detail extraction.

Pipeline (Figure 2 of the paper):

*Development phase* — objectives with coarse key-value annotations are
word-tokenized; Algorithm 1 (:mod:`repro.core.weak_labeling`) aligns each
annotated value against the token sequence and emits IOB token labels; the
labels are projected onto BPE subword pieces
(:mod:`repro.core.alignment`) and a transformer token classifier is
fine-tuned on them.

*Production phase* — a new objective is tokenized the same way, the model
predicts a label per piece, predictions are folded back to word level, and
IOB spans are decoded into field values (:mod:`repro.core.decoding`).

:class:`repro.core.extractor.WeakSupervisionExtractor` is the public entry
point tying the phases together.
"""

from repro.core.schema import (
    AnnotatedObjective,
    NETZEROFACTS_FIELDS,
    SUSTAINABILITY_FIELDS,
)
from repro.core.iob import LabelScheme, Span, iob_to_spans, spans_to_iob
from repro.core.matching import (
    ExactMatcher,
    FuzzyMatcher,
    LowercaseMatcher,
    TokenMatcher,
)
from repro.core.weak_labeling import (
    WeakLabelingStats,
    weak_token_labels,
    weakly_label_objective,
)
from repro.core.alignment import (
    pieces_to_word_labels,
    word_labels_to_piece_targets,
)
from repro.core.decoding import decode_details
from repro.core.conll import export_weak_labels, format_conll, import_conll
from repro.core.segmentation import segment_objectives
from repro.core.constrained import (
    constrained_decode,
    constrained_decode_batch,
)
from repro.core.base import DetailExtractor
from repro.core.extractor import (
    ExtractorConfig,
    WeakSupervisionExtractor,
)

__all__ = [
    "AnnotatedObjective",
    "DetailExtractor",
    "ExactMatcher",
    "ExtractorConfig",
    "FuzzyMatcher",
    "LabelScheme",
    "LowercaseMatcher",
    "NETZEROFACTS_FIELDS",
    "SUSTAINABILITY_FIELDS",
    "Span",
    "TokenMatcher",
    "WeakLabelingStats",
    "WeakSupervisionExtractor",
    "constrained_decode",
    "constrained_decode_batch",
    "decode_details",
    "export_weak_labels",
    "format_conll",
    "import_conll",
    "iob_to_spans",
    "pieces_to_word_labels",
    "segment_objectives",
    "spans_to_iob",
    "weak_token_labels",
    "weakly_label_objective",
    "word_labels_to_piece_targets",
]
