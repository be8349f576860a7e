"""docmt: corpus construction, cleaning, and evaluation for
document-level machine translation."""

from .corpus import (
    Document,
    ParallelCorpus,
    ParallelDocument,
    read_doc_text,
    read_docs,
    read_records,
    write_doc_text,
    write_docs,
    write_records,
)
from .harness import (
    BigramModel,
    CandidateScore,
    ContrastiveInstance,
    PermutationRecord,
    contrastive_accuracy,
    global_shuffle,
    local_shuffle,
    reference_scorer,
    unshuffle,
)
from .metrics import (
    Label,
    LabeledTestDoc,
    MetricReport,
    SpanConfig,
    TokenizerConfig,
    corpus_bleu,
    d_bleu,
    pearson,
    s_bleu,
    span_metric,
    tcp,
    tokenize,
)
from .mrsplit import (
    MRConfig,
    Segment,
    bucket_by_length,
    build_mr_corpus,
    mr_levels,
    mr_ratio,
    oversample,
    split_document,
)
from .pipeline import (
    AlignmentScore,
    clean_corpus,
    deduplicate,
    ensure_terminal_punctuation,
    filter_by_alignment,
    segment_sentences,
)

__version__ = "0.1.0"
