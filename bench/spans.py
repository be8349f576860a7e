"""In-process tracing of docmt's public functions for the per-layer metrics.

A traced pass replaces module attributes with timing wrappers (every
module of the package that holds the function, so ``harness.tokenize``
is wrapped along with ``metrics.tokenize``), runs ``docmt.cli.dispatch``
with the workload's arguments, and restores the originals. Spans stay in
memory until the pass ends. Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

# Layer -> public functions timed as spans named "<layer>.<function>".
SPANS = {
    "corpus": ("read_records", "write_records", "read_docs"),
    "pipeline": ("clean_corpus", "deduplicate", "segment_sentences",
                 "ensure_terminal_punctuation", "read_alignment_scores",
                 "filter_by_alignment"),
    "mrsplit": ("build_mr_corpus", "mr_ratio", "oversample"),
    "metrics": ("tokenize", "corpus_bleu", "s_bleu", "d_bleu", "span_metric",
                "read_labeled_docs"),
    "harness": ("local_shuffle", "global_shuffle", "write_permutation_records",
                "read_instances", "read_candidate_scores", "contrastive_accuracy"),
}


@dataclass
class Span:
    pass_id: int
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float = 0.0


@dataclass
class Tracer:
    """Spans and counters of one traced pass."""

    pass_id: int
    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    tokenized: set[str] = field(default_factory=set)
    _stack: list[Span] = field(default_factory=list)

    def call(self, name: str, fn: Callable, *args, **kwargs):
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(self.pass_id, len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def seconds(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def self_seconds(self, prefix: str) -> float:
        """Duration of the spans whose name starts with ``prefix``, minus the
        time their child spans cover."""
        child_time: Counter = Counter()
        for s in self.spans:
            if s.parent_id is not None:
                child_time[s.parent_id] += s.end - s.start
        return sum(s.end - s.start - child_time[s.span_id]
                   for s in self.spans if s.name.startswith(prefix))


def _hooks(tracer: Tracer) -> dict[str, Callable]:
    """Counters taken from a call's arguments and result, by span name."""
    c = tracer.counts

    def read_records(result, path):
        c["corpus.read_records.docs"] += len(result)
        c["corpus.read_records.bytes"] += os.path.getsize(path)

    def write_records(result, corpus, path):
        c["corpus.write_records.docs"] += len(corpus)
        c["corpus.write_records.bytes"] += os.path.getsize(path)

    def clean_corpus(result, corpus, **_):
        cleaned, report = result
        c["pipeline.in_docs"] += len(corpus)
        c["pipeline.kept_docs"] += len(cleaned)
        c["pipeline.removed.duplicate"] += len(report.removed_duplicates)
        c["pipeline.removed.misaligned"] += len(report.removed_misaligned)

    def tokenize(result, text, *_):
        c["metrics.tokenize.calls"] += 1
        c["metrics.tokenize.tokens"] += len(result)
        tracer.tokenized.add(text)

    def segment_sentences(result, *_):
        c["pipeline.segment_sentences.calls"] += 1

    def build_mr_corpus(result, *_):
        c["mrsplit.segments"] += len(result)

    def oversample(result, *_):
        c["mrsplit.oversample.docs"] += len(result)

    def write_permutation_records(result, records, path):
        c["harness.write_permutation_records.bytes"] += os.path.getsize(path)

    def read_instances(result, *_):
        c["harness.instances"] += len(result)

    return {
        "corpus.read_records": read_records,
        "corpus.write_records": write_records,
        "pipeline.clean_corpus": clean_corpus,
        "pipeline.segment_sentences": segment_sentences,
        "mrsplit.build_mr_corpus": build_mr_corpus,
        "mrsplit.oversample": oversample,
        "metrics.tokenize": tokenize,
        "harness.write_permutation_records": write_permutation_records,
        "harness.read_instances": read_instances,
    }


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap the traced functions everywhere the package holds them; returns
    a function that puts the originals back."""
    import docmt
    from docmt import cli, corpus

    package = [m for n, m in sys.modules.items() if n == "docmt" or n.startswith("docmt.")]
    hooks = _hooks(tracer)
    restore: list[tuple[object, str, object]] = []

    def replace(owner, attr, new):
        restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    for layer, names in SPANS.items():
        module = getattr(docmt, layer)
        for fname in names:
            original = getattr(module, fname)
            wrapper = _wrap(tracer, f"{layer}.{fname}", original, hooks.get(f"{layer}.{fname}"))
            for holder in package:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        replace(holder, attr, wrapper)

    post_init = corpus.Document.__post_init__

    def counted_post_init(self):
        tracer.counts["corpus.document_inits"] += 1
        post_init(self)

    replace(corpus.Document, "__post_init__", counted_post_init)

    manifest_write = cli.RunManifest.write

    def counted_manifest_write(self, path):
        # The manifest hashes every input and output it names.
        hashed = {**self.input_digests, **self.output_digests}
        tracer.counts["cli.hashed_bytes"] += sum(os.path.getsize(p) for p in hashed)
        manifest_write(self, path)

    replace(cli.RunManifest, "write", counted_manifest_write)

    def uninstall() -> None:
        for owner, attr, value in reversed(restore):
            setattr(owner, attr, value)

    return uninstall


def _wrap(tracer: Tracer, name: str, fn: Callable, hook: Callable | None) -> Callable:
    def wrapper(*args, **kwargs):
        result = tracer.call(name, fn, *args, **kwargs)
        if hook is not None:
            hook(result, *args, **kwargs)
        return result

    return wrapper


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, commands: tuple[str, ...]) -> dict[str, float]:
    """Per-layer metrics of one traced pass. A layer the workload does not
    use reports 0."""
    c = tracer.counts
    metrics = {f"cli.{cmd}.s": tracer.seconds(f"cli.{cmd}") for cmd in commands}
    metrics["cli.self_s"] = tracer.self_seconds("cli.")
    metrics["cli.hashed_bytes"] = c["cli.hashed_bytes"]
    for layer, names in SPANS.items():
        for name in names:
            metrics[f"{layer}.{name}.s"] = tracer.seconds(f"{layer}.{name}")
    metrics.update({
        "corpus.read_records.docs": c["corpus.read_records.docs"],
        "corpus.write_records.bytes": c["corpus.write_records.bytes"],
        "corpus.document_inits": c["corpus.document_inits"],
        "corpus.document_inits_per_doc": ratio(
            c["corpus.document_inits"], c["corpus.write_records.docs"]),
        "corpus.read_write_ratio": ratio(
            c["corpus.read_records.bytes"], c["corpus.write_records.bytes"]),
        "pipeline.clean_corpus.self_s": tracer.self_seconds("pipeline.clean_corpus"),
        "pipeline.segment_sentences.calls": c["pipeline.segment_sentences.calls"],
        "pipeline.removed.duplicate": c["pipeline.removed.duplicate"],
        "pipeline.removed.misaligned": c["pipeline.removed.misaligned"],
        "pipeline.kept_ratio": ratio(c["pipeline.kept_docs"], c["pipeline.in_docs"]),
        "mrsplit.segments": c["mrsplit.segments"],
        "mrsplit.oversample.docs": c["mrsplit.oversample.docs"],
        "metrics.tokenize.calls": c["metrics.tokenize.calls"],
        "metrics.tokenize.tokens": c["metrics.tokenize.tokens"],
        "metrics.tokenize.repeat_ratio": ratio(
            c["metrics.tokenize.calls"], len(tracer.tokenized)),
        "harness.write_permutation_records.bytes": c["harness.write_permutation_records.bytes"],
        "harness.instances": c["harness.instances"],
    })
    return metrics
