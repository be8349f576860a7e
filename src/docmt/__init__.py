"""docmt: corpus construction, cleaning, and evaluation for
document-level machine translation.

The exports load lazily (PEP 562): ``import docmt`` imports no submodule,
and ``from docmt import X`` or ``docmt.X`` imports only the module that
defines ``X``. The layer modules resolve the same way, so
``docmt.metrics`` works without ``import docmt.metrics``.
"""

from importlib import import_module

__version__ = "0.1.0"

# Submodule -> the public names it exports here.
_EXPORTS = {
    "corpus": (
        "Document", "ParallelCorpus", "ParallelDocument", "read_doc_text", "read_docs",
        "read_records", "write_doc_text", "write_docs", "write_records",
    ),
    "harness": (
        "BigramModel", "CandidateScore", "ContrastiveInstance", "PermutationRecord",
        "contrastive_accuracy", "global_shuffle", "local_shuffle", "reference_scorer",
        "unshuffle",
    ),
    "metrics": (
        "Label", "LabeledTestDoc", "MetricReport", "SpanConfig", "TokenizerConfig",
        "corpus_bleu", "d_bleu", "pearson", "s_bleu", "span_metric", "span_metrics", "tcp",
        "tokenize",
    ),
    "mrsplit": (
        "MRConfig", "Segment", "bucket_by_length", "build_mr_corpus", "mr_levels",
        "mr_ratio", "oversample", "split_document",
    ),
    "pipeline": (
        "AlignmentScore", "clean_corpus", "deduplicate", "ensure_terminal_punctuation",
        "filter_by_alignment", "segment_sentences",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

# The layers too, so that ``from docmt import *`` binds them as it always has.
__all__ = [*_EXPORTS, *_MODULE_OF]


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)  # binds docmt.<name> as well
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
