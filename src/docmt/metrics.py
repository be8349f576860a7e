"""Evaluation metrics: tokenization, sentence- and document-level BLEU,
labeled-word span metrics (TC / CP / PT and their TCP aggregate), and
Pearson correlation.

All scores are reported on a 0-100 scale. BLEU is the standard
corpus-level formulation: clipped n-gram precisions pooled over the
corpus, geometric mean over orders 1..max_n, times the brevity penalty
min(1, e^(1 - r/c)). No smoothing: a zero pooled precision at any order
gives BLEU 0.
"""

from __future__ import annotations

import math
import unicodedata
from collections import Counter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from .corpus import Document, InputError, Value, aligned_pairs, paired_docs
from .fileio import read_jsonl, write_jsonl

SPAN_METRICS = {"TENSE": "TC", "CONJ": "CP", "PRON": "PT"}  # category -> its metric
CATEGORIES = tuple(SPAN_METRICS)
LABEL_FIELDS = (("word", str), ("position", int), ("category", object), ("doc_id", str))
METRIC_FIELDS = (
    ("name", str), ("value", float), ("numerator", (int, 0)), ("denominator", (int, 0))
)


class TokenizerConfig(NamedTuple):
    """Shared tokenization regime for all metrics."""

    lowercase: bool = True


class SpanConfig(Value):
    """Half-width, in tokens, of the search window around a label position."""

    __slots__ = ("radius_d",)

    def __init__(self, radius_d: int = 20) -> None:
        if radius_d < 0:
            raise ValueError(f"radius_d must be >= 0, got {radius_d}")
        self.radius_d = radius_d


def _category(category: object) -> str:
    """The entry of ``CATEGORIES`` that equals ``category``, so that labels
    share three strings rather than hold one each."""
    if category not in CATEGORIES:
        raise ValueError(f"category must be one of {CATEGORIES}, got {category!r}")
    return CATEGORIES[CATEGORIES.index(category)]


class Label(Value):
    """A labeled word at a 0-based token position of a flattened reference."""

    __slots__ = ("word", "position", "category")

    def __init__(self, word: str, position: int, category: str) -> None:
        self.category = _category(category)
        if position < 0:
            raise ValueError(f"position must be >= 0, got {position}")
        self.word = word
        self.position = position


class LabeledTestDoc(Value):
    """A reference document plus its labeled (word, position) pairs."""

    __slots__ = ("doc_id", "reference", "labels")

    def __init__(self, doc_id: str, reference: Document, labels: Iterable[Label]) -> None:
        self.doc_id = doc_id
        self.reference = reference
        self.labels = tuple(labels)


class MetricReport(NamedTuple):
    """A named metric value; count metrics also carry their raw counts.

    For count metrics, ``value`` is the percentage 100 * numerator /
    denominator. Non-count metrics (BLEU, Pearson) leave the counts at 0.
    """

    name: str
    value: float
    numerator: int = 0
    denominator: int = 0


def _is_punct(char: str) -> bool:
    return unicodedata.category(char).startswith("P")


def tokenize(text: str, cfg: TokenizerConfig | None = None) -> list[str]:
    """Whitespace tokenization with optional lowercasing; leading and
    trailing punctuation characters are detached into their own tokens."""
    cfg = cfg or TokenizerConfig()
    if cfg.lowercase:
        text = text.lower()
    tokens = []
    for tok in text.split():
        # No alphanumeric character is in a P* category, so a token with
        # alphanumeric edges has no punctuation to detach.
        if tok[0].isalnum() and tok[-1].isalnum():
            tokens.append(tok)
            continue
        trailing = []
        while tok and _is_punct(tok[0]):
            tokens.append(tok[0])
            tok = tok[1:]
        while tok and _is_punct(tok[-1]):
            trailing.append(tok[-1])
            tok = tok[:-1]
        if tok:
            tokens.append(tok)
        tokens.extend(reversed(trailing))
    return tokens


def _bleu(
    name: str, pairs: Iterable[tuple[Sequence[str], Sequence[str]]], max_n: int
) -> MetricReport:
    """BLEU over (hypothesis, reference) token pairs, consumed one pair at
    a time. Its sufficient statistics are summed over the pairs: clipped
    n-gram matches and hypothesis n-gram totals per order 1..max_n, and the
    hypothesis and reference lengths. Orders with no hypothesis n-grams
    drop out of the geometric mean. The sums are kept only for the orders
    that occur, so a huge ``max_n`` costs nothing, and orders enter them in
    ascending order, the order in which the mean adds them up."""
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    correct: Counter = Counter()
    total: Counter = Counter()
    hyp_len = ref_len = units = 0
    for hyp, ref in pairs:
        units += 1
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, min(max_n, len(hyp)) + 1):
            hyp_counts = Counter(zip(*(hyp[i:] for i in range(n))))
            ref_counts = Counter(zip(*(ref[i:] for i in range(n))))
            total[n] += len(hyp) - n + 1
            correct[n] += sum(
                min(count, ref_counts.get(gram, 0)) for gram, count in hyp_counts.items()
            )
    if not units:
        raise InputError("cannot score an empty corpus")
    orders = [(correct[n], t) for n, t in total.items()]
    if not orders or any(c == 0 for c, _ in orders):
        return MetricReport(name, 0.0)
    log_precision = sum(math.log(c / t) for c, t in orders) / len(orders)
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return MetricReport(name, 100.0 * bp * math.exp(log_precision))


def corpus_bleu(
    hypotheses: Sequence[Sequence[str]],
    references: Sequence[Sequence[str]],
    max_n: int = 4,
) -> MetricReport:
    """Corpus-level BLEU over pre-tokenized hypothesis/reference pairs.

    Clipped n-gram counts are pooled over all pairs before the precision
    quotients are taken, so the score is invariant under reordering of
    the corpus. Orders for which the hypotheses contain no n-grams at
    all are vacuous and drop out of the geometric mean, so identical
    corpora score exactly 100 even below max_n tokens.
    """
    if len(hypotheses) != len(references):
        raise ValueError(
            f"hypothesis/reference length mismatch: "
            f"{len(hypotheses)} vs {len(references)}"
        )
    return _bleu("BLEU", zip(hypotheses, references), max_n)


def s_bleu(
    hypotheses: Iterable[Document],
    references: Iterable[Document],
    tok_cfg: TokenizerConfig | None = None,
    max_n: int = 4,
) -> MetricReport:
    """Corpus BLEU with each sentence pair as one unit.

    Documents are paired one at a time, as ``corpus.paired_docs`` pairs
    them, and each pair must have one-to-one sentence correspondence
    (``corpus.aligned_pairs``).
    """
    cfg = tok_cfg or TokenizerConfig()

    def units():
        pairs = paired_docs(hypotheses, references, "hypothesis", "reference")
        for _, hyp, ref in aligned_pairs(pairs, "hypothesis", "reference"):
            for h, r in zip(hyp.sentences, ref.sentences):
                yield tokenize(h, cfg), tokenize(r, cfg)

    return _bleu("s-BLEU", units(), max_n)


def d_bleu(
    hypotheses: Iterable[Document],
    references: Iterable[Document],
    tok_cfg: TokenizerConfig | None = None,
    max_n: int = 4,
) -> MetricReport:
    """Corpus BLEU with each whole flattened document as one unit; the
    documents are paired as for ``s_bleu``."""
    cfg = tok_cfg or TokenizerConfig()
    units = (
        (tokenize(hyp.text, cfg), tokenize(ref.text, cfg))
        for _, hyp, ref in paired_docs(hypotheses, references, "hypothesis", "reference")
    )
    return _bleu("d-BLEU", units, max_n)


def span_metric(
    outputs: Iterable[Document],
    refs: Iterable[LabeledTestDoc],
    category: str,
    span_cfg: SpanConfig | None = None,
) -> MetricReport:
    """Appearance rate of labeled words inside their scaled token windows.

    For a label at reference position p, the window in the output is
    [max(0, floor(a*p - d)), min(len_out - 1, ceil(a*p + d))] where a is
    the output/reference token-count ratio and d the configured radius.
    The label scores a hit when its word occurs at any window index.
    Category TENSE reports TC, CONJ reports CP, PRON reports PT.
    Outputs join their references by doc id, in any order; outputs
    without labels are ignored. An error is raised where it is first
    known: a label that does not fit its reference at once, no labels
    at all once the references end, and the first labeled document
    without an output once the outputs end.
    """
    return _span_reports(outputs, refs, (_category(category),), span_cfg)[0]


def span_metrics(
    outputs: Iterable[Document],
    refs: Iterable[LabeledTestDoc],
    span_cfg: SpanConfig | None = None,
) -> list[MetricReport]:
    """TC, CP and PT (``span_metric`` of each of ``CATEGORIES``) in one
    pass over each input, which tokenizes each labeled reference and its
    output once; it raises as ``span_metric`` does, in any category."""
    return _span_reports(outputs, refs, CATEGORIES, span_cfg)


def _span_reports(
    outputs: Iterable[Document],
    refs: Iterable[LabeledTestDoc],
    categories: Sequence[str],
    span_cfg: SpanConfig | None,
) -> list[MetricReport]:
    """``span_metric`` of each of ``categories``. One pass over ``refs``
    checks the labels against the reference tokens and keeps, by doc id,
    only the labels and the reference token count; one pass over
    ``outputs`` counts the window hits."""
    radius = (span_cfg or SpanConfig()).radius_d
    pending, hits, totals = {}, Counter(), Counter()
    for ref in refs:
        labels = [label for label in ref.labels if label.category in categories]
        if not labels:
            continue
        tokens = tokenize(ref.reference.text)
        for label in labels:
            totals[label.category] += 1
            if label.position >= len(tokens):
                raise InputError(
                    f"label position {label.position} out of range for document "
                    f"{ref.doc_id!r} ({len(tokens)} tokens)"
                )
            if tokens[label.position] != label.word.lower():
                raise InputError(
                    f"label word {label.word!r} does not match reference token "
                    f"{tokens[label.position]!r} at position {label.position} "
                    f"of document {ref.doc_id!r}"
                )
        pending[ref.doc_id] = labels, len(tokens)
    for category in categories:
        if not totals[category]:
            raise InputError(f"no labels of category {category!r} in the test set")
    for out in outputs:
        if out.doc_id in pending:
            labels, ref_len = pending.pop(out.doc_id)
            tokens = tokenize(out.text)
            for label in labels:
                at = len(tokens) / ref_len * label.position
                window = tokens[max(0, math.floor(at - radius)) : math.ceil(at + radius) + 1]
                hits[label.category] += label.word.lower() in window
    for doc_id in pending:
        raise InputError(f"missing output for labeled document {doc_id!r}")
    return [
        MetricReport(SPAN_METRICS[c], 100.0 * hits[c] / totals[c], hits[c], totals[c])
        for c in categories
    ]


def tcp(tc: float, cp: float, pt: float) -> float:
    """Geometric mean of the three span metrics: 0 when one of them is 0,
    the mean's value there. No span metric is negative, so a negative
    input raises ``InputError``."""
    if min(tc, cp, pt) < 0.0:
        raise InputError(f"tcp inputs must not be negative, got ({tc}, {cp}, {pt})")
    return (tc * cp * pt) ** (1.0 / 3.0)


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sample Pearson correlation coefficient."""
    if len(xs) != len(ys):
        raise InputError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise InputError("pearson needs at least two points")
    import statistics  # costly to import, and used only here

    def scaled(values: Sequence[float]) -> list[float]:
        # Scaled by a power of two, so that no sum leaves the float range.
        shift = -math.frexp(max(map(abs, values)))[1]
        return [math.ldexp(v, shift) for v in values]

    try:
        return statistics.correlation(scaled(xs), scaled(ys))
    except statistics.StatisticsError as exc:
        raise InputError(f"degenerate input: {exc}")


def read_labels(labels_path: str | Path) -> dict[str, list[Label]]:
    """The labels of a JSON-lines label file (``LABEL_FIELDS``) by doc id,
    in the order the file first names each document."""
    by_id = {}
    rows = read_jsonl(
        labels_path,
        LABEL_FIELDS,
        lambda word, position, category, doc_id: (doc_id, Label(word, position, category)),
        "label",
    )
    for doc_id, label in rows:
        by_id.setdefault(doc_id, []).append(label)
    return by_id


def labeled_docs(
    references: Iterable[Document], labels: dict[str, list[Label]]
) -> Iterator[LabeledTestDoc]:
    """Join ``labels``, as ``read_labels`` gives them, to reference
    documents taken one at a time: yields each reference that has labels,
    with its labels, in reference order. A document's labels leave
    ``labels`` as it passes; labels left when the references end are for
    unknown documents, an ``InputError``."""
    for doc in references:
        if doc.doc_id in labels:
            yield LabeledTestDoc(doc.doc_id, doc, labels.pop(doc.doc_id))
    if labels:
        raise InputError(f"labels for unknown documents {sorted(labels)}")


def read_labeled_docs(
    references: Iterable[Document], labels_path: str | Path
) -> list[LabeledTestDoc]:
    """``labeled_docs`` of the label file, as a list in the order the file
    first names its documents. Documents without labels are omitted."""
    labels = read_labels(labels_path)
    docs = {doc.doc_id: doc for doc in labeled_docs(references, dict(labels))}
    return [docs[doc_id] for doc_id in labels]


def write_reports(reports: Iterable[MetricReport], path: str | Path) -> None:
    write_jsonl(path, (report._asdict() for report in reports))


def read_reports(path: str | Path) -> list[MetricReport]:
    """The records of a metric file; a name that an earlier line gave is
    an error at the line that repeats it."""
    names: set[str] = set()

    def unique(*fields) -> MetricReport:
        if fields[0] in names:
            raise ValueError(f"duplicate name {fields[0]!r}")
        names.add(fields[0])
        return MetricReport(*fields)

    return list(read_jsonl(path, METRIC_FIELDS, unique, "metric record"))
