"""Document-corpus cleaning: deduplication, sentence segmentation,
terminal-punctuation repair, and alignment-score filtration.

The stages compose in a fixed order (deduplicate, segment, fix
punctuation, filter by alignment); each is also usable on its own.
``clean_records`` runs them over a stream of ``Record``s, one document
at a time, and yields ``Record``s; it checks nothing the records reader
checked. The corpus-level functions wrap it.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
from array import array
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .corpus import Document, InputError, ParallelCorpus, Record, Value
from .fileio import read_jsonl

DEFAULT_TERMINALS = frozenset({".", "!", "?", "。", "！", "？", "…"})
DEFAULT_QUOTE_CLOSERS = frozenset({'"', "'", "”", "’", "»", ")", "」", "』"})
# Sentence-final strings (punctuation included) that do not end a sentence.
DEFAULT_GUARDS = (
    "Dr.", "Mr.", "Mrs.", "Ms.", "Prof.", "St.", "Jr.", "Sr.",
    "vs.", "etc.", "e.g.", "i.e.", "cf.", "Fig.", "No.", "al.",
)
_ENDINGS = DEFAULT_TERMINALS | DEFAULT_QUOTE_CLOSERS
_BOUNDARY_RE = re.compile(
    f"[{re.escape(''.join(sorted(DEFAULT_TERMINALS)))}]"
    f"[{re.escape(''.join(sorted(DEFAULT_QUOTE_CLOSERS)))}]*"
    r"(?=\s|\Z)"
)
SCORE_FIELDS = (("doc_id", str), ("pair_index", int), ("score", float))
_NAN = array("d", [math.nan])  # a score table's slot with no score


def check_score(doc_id: str, pair_index: int, score: float) -> None:
    """Raise ``ValueError`` unless ``pair_index`` is >= 0 and ``score``
    is in [0, 1]."""
    if pair_index < 0:
        raise ValueError(f"pair_index must be >= 0, got {pair_index}")
    if not 0.0 <= score <= 1.0:
        raise ValueError(f"score for ({doc_id!r}, {pair_index}) out of [0, 1]: {score}")


class AlignmentScore(Value):
    """Alignment confidence for one sentence pair of one document."""

    __slots__ = ("doc_id", "pair_index", "score")

    def __init__(self, doc_id: str, pair_index: int, score: float) -> None:
        check_score(doc_id, pair_index, score)
        self.doc_id = doc_id
        self.pair_index = pair_index
        self.score = score


class CleanReport:
    """Removal log produced by the cleaning stages."""

    __slots__ = ("removed_duplicates", "removed_unaligned", "removed_misaligned")

    def __init__(self) -> None:
        self.removed_duplicates: list[str] = []
        self.removed_unaligned: list[str] = []
        self.removed_misaligned: dict[str, list[int]] = {}

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


def _fingerprint(sentences: Sequence[str]) -> bytes:
    """The 128-bit BLAKE2b digest of the source text, lowercased and with
    whitespace runs collapsed; punctuation stays significant. Two texts
    share a digest by chance with probability 2**-128, so n documents
    hold any false duplicate with probability about n**2 / 2**129."""
    text = " ".join(" ".join(sentences).lower().split())
    # surrogatepass: a document built in code may hold a lone surrogate.
    data = text.encode("utf-8", "surrogatepass")
    return hashlib.blake2b(data, digest_size=16).digest()


def _deduplicated(records: Iterable[Record], removed: list[str]) -> Iterator[Record]:
    seen: set[bytes] = set()
    for record in records:
        key = _fingerprint(record.src)
        if key in seen:
            removed.append(record.doc_id)
        else:
            seen.add(key)
            yield record


def deduplicate(corpus: ParallelCorpus) -> tuple[ParallelCorpus, list[str]]:
    """Drop documents whose normalized source content was already seen.

    Keeps the first occurrence in input order. Returns the filtered
    corpus and the removed doc_ids.
    """
    removed: list[str] = []
    return corpus.derive(_deduplicated(corpus.records(), removed)), removed


def _is_guarded(text: str, terminal_index: int) -> bool:
    # Compares in place: copying the text up to each boundary would make
    # segmenting one paragraph quadratic in its length.
    end = terminal_index + 1
    if not text.endswith(DEFAULT_GUARDS, 0, end):  # one call rules out most boundaries
        return False
    for guard in DEFAULT_GUARDS:
        if text.endswith(guard, 0, end):
            start = end - len(guard)
            if start == 0 or text[start - 1].isspace():
                return True
    return False


def _split_paragraph(text: str) -> list[str]:
    sentences: list[str] = []
    start = 0
    for boundary in _BOUNDARY_RE.finditer(text):
        if not _is_guarded(text, boundary.start()):
            sentences.append(text[start : boundary.end()].strip())
            start = boundary.end()
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
    return [s for paragraph in paragraphs for s in _split_paragraph(paragraph)]


def _resegmented(records: Iterable[Record], removed: list[str]) -> Iterator[Record]:
    for record in records:
        src = tuple(segment_sentences(record.src))
        tgt = tuple(segment_sentences(record.tgt))
        if record.aligned and len(src) != len(tgt):
            removed.append(record.doc_id)
        else:
            yield Record(record.doc_id, src, tgt, len(src) == len(tgt))


def _punctuated(sentences: tuple[str, ...], filler: str) -> tuple[str, ...]:
    if filler not in DEFAULT_TERMINALS:
        raise ValueError(f"filler {filler!r} is not a configured terminal character")
    return tuple(s if s[-1] in _ENDINGS else s + filler for s in sentences)


def ensure_terminal_punctuation(doc: Document, filler: str = ".") -> Document:
    """Append ``filler`` to sentences that do not already end terminally.

    ``filler`` must be a terminal character so the operation is idempotent.
    """
    return Document(doc.doc_id, _punctuated(doc.sentences, filler))


class ScoreTable(dict):
    """Alignment scores by document: doc_id -> an ``array('d')`` of the
    document's scores, indexed by pair_index, so one doc_id string and 8
    bytes per pair are held. A slot with no score holds NaN, which no
    score is. A document's scores leave the table as the document passes
    the filter (``_alignment_filtered``), so a score left in the table at
    the end is for a document that the records do not hold.

    ``free`` counts the slots that may still be added: 2**16, plus one per
    score the table can be given. Valid scores never need more (each fills
    its own slot), and an absurd pair_index takes no memory."""

    __slots__ = ("free",)

    def __init__(self, scores: int = 0) -> None:
        self.free = scores + 2**16

    def enter(self, score: AlignmentScore) -> AlignmentScore:
        """``score``, written to its slot: past the end of the array, a
        slot within the free ones (NaN fills the gap); inside, an empty
        one. Any other slot raises ``InputError``."""
        pairs = self.get(score.doc_id)
        if pairs is None:
            pairs = self[score.doc_id] = _NAN[:0]
        i = score.pair_index
        gap = i - len(pairs)
        if gap >= 0:
            if gap >= self.free:
                raise InputError(f"pair_index {i} is too large for the number of scores")
            self.free -= gap + 1
            pairs.extend(_NAN * (gap + 1))
        elif pairs[i] == pairs[i]:
            raise InputError(f"duplicate score for {(score.doc_id, i)}")
        pairs[i] = score.score
        return score


def _score_table(scores: Iterable[AlignmentScore]) -> ScoreTable:
    scores = list(scores)  # their count bounds the table
    table = ScoreTable(len(scores))
    for score in scores:
        table.enter(score)
    return table


def _alignment_filtered(
    records: Iterable[Record],
    scores: Callable[[], ScoreTable],
    threshold: float,
    removed: dict[str, list[int]],
) -> Iterator[Record]:
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold out of [0, 1]: {threshold}")
    table = scores()
    for record in records:
        n_pairs = len(record.src) if record.aligned else 0
        pairs = table.pop(record.doc_id, ())
        for i in range(n_pairs, len(pairs)):
            if pairs[i] == pairs[i]:  # not NaN: the lowest pair past the document's
                raise InputError(
                    f"score for unknown pair {i} of document {record.doc_id!r} "
                    f"({n_pairs} pairs)"
                )
        doc_scores = pairs[:n_pairs]
        gap = next((i for i, s in enumerate(doc_scores) if s != s), len(doc_scores))
        if gap < n_pairs:
            raise InputError(f"missing score for document {record.doc_id!r}, pair {gap}")
        offending = [i for i, s in enumerate(doc_scores) if s < threshold]
        if offending:
            removed[record.doc_id] = offending
        else:
            yield record
    for doc_id in table:
        raise InputError(f"score for unknown document {doc_id!r}")


def filter_by_alignment(
    corpus: ParallelCorpus,
    scores: Iterable[AlignmentScore],
    threshold: float = 0.40,
) -> tuple[ParallelCorpus, dict[str, list[int]]]:
    """Remove documents containing any pair scored strictly below ``threshold``.

    Every aligned pair must have exactly one score; a missing, duplicate,
    or unknown (doc_id, pair_index) is an error, raised where it is first
    known: as a document passes, its lowest unknown pair, then its first
    missing one; after the last, the first unknown document in the order
    of the scores. A pair scoring exactly
    ``threshold`` is kept. Returns the surviving corpus (input order
    preserved, documents untouched) and a map of removed doc_id to the
    offending pair indices.
    """
    removed: dict[str, list[int]] = {}
    kept = _alignment_filtered(
        corpus.records(), lambda: _score_table(scores), threshold, removed
    )
    return corpus.derive(kept), removed


def _read_scores(path: str | Path, table: ScoreTable) -> Iterator[AlignmentScore]:
    """The scores of a JSON-lines alignment-score file, each put in
    ``table`` as its line is read, so a pair scored twice is malformed at
    the line that repeats it. The table gets a slot for each score the file
    could hold: its size over the 38 bytes of the shortest score line,
    ``{"doc_id":"","pair_index":0,"score":0}``."""
    table.free += os.stat(path).st_size // 38
    yield from read_jsonl(
        path, SCORE_FIELDS, lambda *fields: table.enter(AlignmentScore(*fields)), "score"
    )


def read_alignment_scores(path: str | Path) -> Iterator[AlignmentScore]:
    """Iterate over a JSON-lines alignment-score file; enforces unique pairs."""
    return _read_scores(path, ScoreTable())


def read_score_table(path: str | Path) -> ScoreTable:
    """A JSON-lines alignment-score file as one ``ScoreTable``, read one
    line at a time; the table is the only copy of the scores held."""
    table = ScoreTable()
    for _ in _read_scores(path, table):
        pass
    return table


def clean_records(
    records: Iterable[Record],
    report: CleanReport,
    *,
    dedup: bool = False,
    segment: bool = False,
    punct_filler: str | None = None,
    scores: Callable[[], ScoreTable] | None = None,
    threshold: float = 0.40,
) -> Iterator[Record]:
    """The enabled cleaning stages over ``records``, one document at a
    time; each removal is logged in ``report`` as it happens.

    Order: deduplicate, re-segment sentences, repair terminal
    punctuation, filter by alignment score. Re-segmentation treats each
    existing sentence as a paragraph and may change sentence counts, in
    which case the alignment flag is re-derived from the new counts; a
    document that was aligned before re-segmentation and is not after is
    dropped (``removed_unaligned``).
    ``scores`` returns the alignment scores (``read_score_table``); it is
    called once, after ``threshold`` is checked, when the first record is
    asked for. The scores must cover the documents as they stand after
    the earlier stages exactly; a score that does not fit raises
    ``InputError``.
    """
    stream: Iterator[Record] = iter(records)
    if dedup:
        stream = _deduplicated(stream, report.removed_duplicates)
    if segment:
        stream = _resegmented(stream, report.removed_unaligned)
    if punct_filler is not None:
        stream = (
            Record(
                r.doc_id,
                _punctuated(r.src, punct_filler),
                _punctuated(r.tgt, punct_filler),
                r.aligned,
            )
            for r in stream
        )
    if scores is not None:
        stream = _alignment_filtered(stream, scores, threshold, report.removed_misaligned)
    return stream


def clean_corpus(
    corpus: ParallelCorpus,
    *,
    dedup: bool = False,
    segment: bool = False,
    punct_filler: str | None = None,
    scores: Sequence[AlignmentScore] | None = None,
    threshold: float = 0.40,
) -> tuple[ParallelCorpus, CleanReport]:
    """Run the enabled cleaning stages in their fixed order over a whole
    corpus (see ``clean_records``); returns the cleaned corpus and the
    removal report."""
    report = CleanReport()
    records = clean_records(
        corpus.records(),
        report,
        dedup=dedup,
        segment=segment,
        punct_filler=punct_filler,
        scores=None if scores is None else lambda: _score_table(scores),
        threshold=threshold,
    )
    return corpus.derive(records), report
