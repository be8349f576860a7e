"""Document-corpus cleaning: deduplication, sentence segmentation,
terminal-punctuation repair, and alignment-score filtration.

The stages compose in a fixed order (deduplicate, segment, fix
punctuation, filter by alignment); each is also usable on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import (
    Document,
    ParallelCorpus,
    ParallelDocument,
    field_of,
    finite_of,
    read_jsonl,
)

DEFAULT_TERMINALS = frozenset({".", "!", "?", "。", "！", "？", "…"})
DEFAULT_QUOTE_CLOSERS = frozenset({'"', "'", "”", "’", "»", ")", "」", "』"})
# Sentence-final strings (punctuation included) that do not end a sentence.
DEFAULT_GUARDS = (
    "Dr.", "Mr.", "Mrs.", "Ms.", "Prof.", "St.", "Jr.", "Sr.",
    "vs.", "etc.", "e.g.", "i.e.", "cf.", "Fig.", "No.", "al.",
)


@dataclass(frozen=True)
class AlignmentScore:
    """Alignment confidence for one sentence pair of one document."""

    doc_id: str
    pair_index: int
    score: float

    def __post_init__(self) -> None:
        if self.pair_index < 0:
            raise ValueError(f"pair_index must be >= 0, got {self.pair_index}")
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(
                f"score for ({self.doc_id!r}, {self.pair_index}) out of [0, 1]: "
                f"{self.score}"
            )


@dataclass
class CleanReport:
    """Removal log produced by the cleaning stages."""

    removed_duplicates: list[str] = field(default_factory=list)
    removed_unaligned: list[str] = field(default_factory=list)
    removed_misaligned: dict[str, list[int]] = field(default_factory=dict)

    def records(self) -> list[dict[str, object]]:
        rows: list[dict[str, object]] = []
        for doc_id in self.removed_duplicates:
            rows.append({"stage": "deduplicate", "doc_id": doc_id})
        for doc_id in self.removed_unaligned:
            rows.append({"stage": "segment", "doc_id": doc_id})
        for doc_id, pairs in self.removed_misaligned.items():
            rows.append(
                {"stage": "alignment-filter", "doc_id": doc_id, "pair_indices": pairs}
            )
        return rows


def _fingerprint(doc: ParallelDocument) -> str:
    # Lowercase and collapse whitespace runs; punctuation stays significant.
    return " ".join(" ".join(doc.source.sentences).lower().split())


def deduplicate(corpus: ParallelCorpus) -> tuple[ParallelCorpus, list[str]]:
    """Drop documents whose normalized source content was already seen.

    Keeps the first occurrence in input order. Returns the filtered
    corpus and the removed doc_ids.
    """
    seen: set[str] = set()
    kept = []
    removed = []
    for doc in corpus:
        key = _fingerprint(doc)
        if key in seen:
            removed.append(doc.doc_id)
        else:
            seen.add(key)
            kept.append(doc)
    return corpus.derive(kept), removed


def _is_guarded(text: str, terminal_index: int) -> bool:
    head = text[: terminal_index + 1]
    for guard in DEFAULT_GUARDS:
        if head.endswith(guard):
            start = len(head) - len(guard)
            if start == 0 or head[start - 1].isspace():
                return True
    return False


def _split_paragraph(text: str) -> list[str]:
    sentences: list[str] = []
    start = 0
    i = 0
    n = len(text)
    while i < n:
        if text[i] in DEFAULT_TERMINALS:
            j = i + 1
            while j < n and text[j] in DEFAULT_QUOTE_CLOSERS:
                j += 1
            at_boundary = j >= n or text[j].isspace()
            if at_boundary and not _is_guarded(text, i):
                piece = text[start:j].strip()
                if piece:
                    sentences.append(piece)
                start = j
                i = j
                continue
        i += 1
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


def segment_sentences(paragraphs: Iterable[str]) -> list[str]:
    """Split paragraphs into sentences at unguarded terminal punctuation.

    A boundary is a terminal character, plus any trailing quote closers,
    followed by whitespace or end of paragraph. Abbreviation guards
    (matched as whole sentence-final tokens, punctuation included)
    suppress the split. No character outside boundary whitespace is
    added or dropped.
    """
    sentences: list[str] = []
    for paragraph in paragraphs:
        sentences.extend(_split_paragraph(paragraph))
    return sentences


def ensure_terminal_punctuation(doc: Document, filler: str = ".") -> Document:
    """Append ``filler`` to sentences that do not already end terminally.

    ``filler`` must be a terminal character so the operation is idempotent.
    """
    if filler not in DEFAULT_TERMINALS:
        raise ValueError(f"filler {filler!r} is not a configured terminal character")
    terminal = DEFAULT_TERMINALS | DEFAULT_QUOTE_CLOSERS
    fixed = tuple(s if s[-1] in terminal else s + filler for s in doc.sentences)
    return Document(doc.doc_id, fixed)


def filter_by_alignment(
    corpus: ParallelCorpus,
    scores: Iterable[AlignmentScore],
    threshold: float = 0.40,
) -> tuple[ParallelCorpus, dict[str, list[int]]]:
    """Remove documents containing any pair scored strictly below ``threshold``.

    Every aligned pair must have exactly one score; a missing, duplicate,
    or unknown (doc_id, pair_index) is an error. A pair scoring exactly
    ``threshold`` is kept. Returns the surviving corpus (input order
    preserved, documents untouched) and a map of removed doc_id to the
    offending pair indices.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold out of [0, 1]: {threshold}")
    pair_counts = {doc.doc_id: doc.n_pairs for doc in corpus}
    table: dict[tuple[str, int], float] = {}
    for score in scores:
        key = (score.doc_id, score.pair_index)
        if score.doc_id not in pair_counts:
            raise ValueError(f"score for unknown document {score.doc_id!r}")
        if score.pair_index >= pair_counts[score.doc_id]:
            raise ValueError(
                f"score for unknown pair {score.pair_index} of document "
                f"{score.doc_id!r} ({pair_counts[score.doc_id]} pairs)"
            )
        if key in table:
            raise ValueError(
                f"duplicate score for document {score.doc_id!r}, "
                f"pair {score.pair_index}"
            )
        table[key] = score.score
    kept = []
    removed: dict[str, list[int]] = {}
    for doc in corpus:
        offending = []
        for i in range(doc.n_pairs):
            if (doc.doc_id, i) not in table:
                raise ValueError(
                    f"missing score for document {doc.doc_id!r}, pair {i}"
                )
            if table[(doc.doc_id, i)] < threshold:
                offending.append(i)
        if offending:
            removed[doc.doc_id] = offending
        else:
            kept.append(doc)
    return corpus.derive(kept), removed


def read_alignment_scores(path: str | Path) -> list[AlignmentScore]:
    """Read a JSON-lines alignment-score file; enforces unique pairs."""
    seen: set[tuple[str, int]] = set()

    def parse(record: dict) -> AlignmentScore:
        score = AlignmentScore(
            field_of(record, "doc_id", str),
            field_of(record, "pair_index", int),
            finite_of(record, "score"),
        )
        key = (score.doc_id, score.pair_index)
        if key in seen:
            raise ValueError(f"duplicate score for {key}")
        seen.add(key)
        return score

    return read_jsonl(path, parse, "score")


def clean_corpus(
    corpus: ParallelCorpus,
    *,
    dedup: bool = False,
    segment: bool = False,
    punct_filler: str | None = None,
    scores: Sequence[AlignmentScore] | None = None,
    threshold: float = 0.40,
) -> tuple[ParallelCorpus, CleanReport]:
    """Run the enabled cleaning stages in their fixed order.

    Order: deduplicate, re-segment sentences, repair terminal
    punctuation, filter by alignment score. Re-segmentation treats each
    existing sentence as a paragraph and may change sentence counts, in
    which case the alignment flag is re-derived from the new counts; a
    document that was aligned before re-segmentation and is not after is
    dropped (``removed_unaligned``).
    Alignment scores must cover the corpus as it stands after the
    earlier stages exactly.
    """
    report = CleanReport()
    if dedup:
        corpus, report.removed_duplicates = deduplicate(corpus)
    if segment:
        kept = []
        for doc in corpus:
            resegmented = ParallelDocument.of(
                doc.doc_id,
                segment_sentences(doc.source.sentences),
                segment_sentences(doc.target.sentences),
            )
            if doc.aligned and not resegmented.aligned:
                report.removed_unaligned.append(doc.doc_id)
            else:
                kept.append(resegmented)
        corpus = corpus.derive(kept)
    if punct_filler is not None:
        corpus = corpus.derive(
            ParallelDocument(
                ensure_terminal_punctuation(doc.source, punct_filler),
                ensure_terminal_punctuation(doc.target, punct_filler),
                aligned=doc.aligned,
            )
            for doc in corpus
        )
    if scores is not None:
        corpus, report.removed_misaligned = filter_by_alignment(corpus, scores, threshold)
    return corpus, report
