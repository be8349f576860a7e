"""Multi-resolution corpus construction.

A document of M sentences is re-emitted at every power-of-two
granularity: level k splits it into k contiguous parts of near-equal
size, for k = 1, 2, 4, ... up to M (plus a final k = M sentence level
when M is not itself a power of two). An 8-sentence document therefore
yields 15 segments (1 + 2 + 4 + 8). Also provides oversampling and
token-budgeted re-paragraphing for length-bucketed evaluation.

``mr_records`` and ``oversample_records`` take ``Record``s one at a
time, as the records reader checked them, and yield ``Record``s; the
corpus-level functions wrap them.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Sequence

from .corpus import ParallelCorpus, ParallelDocument, Record, Value, require_aligned


class MRConfig(Value):
    """Splitting options: sentence-level fallback and flattening joiner."""

    __slots__ = ("include_singletons", "joiner")

    def __init__(self, include_singletons: bool = True, joiner: str = " ") -> None:
        if "\n" in joiner or "\r" in joiner:
            raise ValueError("joiner must not contain newlines")
        self.include_singletons = include_singletons
        self.joiner = joiner


class Segment(NamedTuple):
    """One contiguous sentence run emitted at a given resolution level."""

    doc_id: str
    level_k: int
    part_index: int
    source_text: str
    target_text: str
    sentence_span: tuple[int, int]


def mr_levels(m: int, cfg: MRConfig | None = None) -> list[int]:
    """Resolution levels for an ``m``-sentence document, ascending.

    Powers of two up to ``m``; when ``m`` is not a power of two and
    singletons are enabled, ``m`` itself is appended so sentence-level
    pairs always exist. Never exceeds ``m``.
    """
    cfg = cfg or MRConfig()
    if m < 1:
        raise ValueError(f"document must have at least one sentence, got {m}")
    levels = [1]
    while levels[-1] * 2 <= m:
        levels.append(levels[-1] * 2)
    if cfg.include_singletons and levels[-1] != m:
        levels.append(m)
    return levels


def _cuts(m: int, cfg: MRConfig) -> Iterator[tuple[int, int, int, int]]:
    """``(k, part, start, end)`` of each segment of an ``m``-sentence
    document, by ascending level, then part: at level k, part sizes differ
    by at most 1, and the first (m mod k) parts get the extra sentence."""
    for k in mr_levels(m, cfg):
        base, remainder = divmod(m, k)
        start = 0
        for part in range(k):
            end = start + base + (part < remainder)
            yield k, part, start, end
            start = end


def split_document(pd: ParallelDocument, cfg: MRConfig | None = None) -> list[Segment]:
    """Emit every resolution level's segments for one aligned document.

    Source and target are cut on the same sentence indices, so the
    document must be aligned.
    """
    cfg = cfg or MRConfig()
    src, tgt = require_aligned(pd).source.sentences, pd.target.sentences
    return [
        Segment(
            doc_id=pd.doc_id,
            level_k=k,
            part_index=part,
            source_text=cfg.joiner.join(src[start:end]),
            target_text=cfg.joiner.join(tgt[start:end]),
            sentence_span=(start, end),
        )
        for k, part, start, end in _cuts(len(src), cfg)
    ]


class MRTally:
    """Source tokens into and out of an MR pass; joiners are not counted."""

    __slots__ = ("input_tokens", "output_tokens")

    def __init__(self) -> None:
        self.input_tokens = 0
        self.output_tokens = 0

    def add(self, sentences: Sequence[str], n_levels: int) -> None:
        """Count a document of source ``sentences`` split at ``n_levels`` levels."""
        tokens = sum(len(sentence.split()) for sentence in sentences)
        self.input_tokens += tokens
        # Every level repeats each sentence exactly once.
        self.output_tokens += n_levels * tokens

    @property
    def ratio(self) -> float:
        return self.output_tokens / self.input_tokens


def mr_records(
    records: Iterable[Record], cfg: MRConfig, tally: MRTally
) -> Iterator[Record]:
    """Each aligned document's segments (as ``split_document`` cuts them)
    as one-sentence aligned records, one document at a time, in input
    order, then ascending level, then part index; each document's source
    tokens are added to ``tally``.

    A segment's id is ``<doc_id>.k<K>.p<P>``. Its two trailing digit runs
    parse back uniquely, so distinct document ids give distinct segment
    ids and no set of output ids is needed.
    """
    join = cfg.joiner.join
    for doc_id, src, tgt, _ in map(require_aligned, records):
        tally.add(src, len(mr_levels(len(src), cfg)))
        for k, part, start, end in _cuts(len(src), cfg):
            source, target = join(src[start:end]), join(tgt[start:end])
            yield Record(f"{doc_id}.k{k}.p{part}", (source,), (target,), True)


def build_mr_corpus(corpus: ParallelCorpus, cfg: MRConfig | None = None) -> ParallelCorpus:
    """Flatten every document's segments into a new training corpus.

    Each segment becomes a one-sentence parallel document whose text is
    the joined run; order is input document order, then ascending level,
    then part index.
    """
    return corpus.derive(mr_records(corpus.records(), cfg or MRConfig(), MRTally()))


def mr_ratio(corpus: ParallelCorpus, cfg: MRConfig | None = None) -> float:
    """Source-token ratio of the multi-resolution corpus to its input.

    Joiners are excluded from the count, so a corpus whose documents all
    have M = 2^L sentences gives exactly L + 1.
    """
    cfg = cfg or MRConfig()
    if not corpus.documents:
        raise ValueError("mr_ratio of an empty corpus is undefined")
    tally = MRTally()
    for record in map(require_aligned, corpus.records()):
        tally.add(record.src, len(mr_levels(len(record.src), cfg)))
    return tally.ratio


def oversample_records(records: Iterable[Record], factor: int) -> Iterator[Record]:
    """Each record ``factor`` times with ids ``<doc_id>.r<R>``, replicas
    adjacent, in input order. The trailing digit run parses back
    uniquely, so distinct ids stay distinct."""
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    return (
        Record(f"{doc_id}.r{r}", src, tgt, aligned)
        for doc_id, src, tgt, aligned in records
        for r in range(factor)
    )


def oversample(corpus: ParallelCorpus, factor: int) -> ParallelCorpus:
    """Replicate every document ``factor`` times with replica-suffixed ids.

    All replicas of a document are adjacent, in input document order.
    """
    return corpus.derive(oversample_records(corpus.records(), factor))


def check_budgets(token_budgets: Sequence[int]) -> None:
    """Raise ``ValueError`` unless budgets are non-empty, positive, strictly ascending."""
    budgets = list(token_budgets)
    if not budgets:
        raise ValueError("token_budgets must be non-empty")
    if any(b < 1 for b in budgets):
        raise ValueError(f"token budgets must be positive: {budgets}")
    if len(set(budgets)) < len(budgets):
        raise ValueError(f"token budgets must not repeat: {budgets}")
    if budgets != sorted(budgets):
        raise ValueError(f"token budgets must be ascending: {budgets}")


def bucket_by_length(
    corpus: ParallelCorpus, token_budgets: Sequence[int]
) -> dict[int, ParallelCorpus]:
    """Re-cut documents into paragraphs under each source-token budget.

    For each budget, consecutive sentences are accumulated greedily until
    adding the next one would exceed the budget; a single over-budget
    sentence forms its own paragraph. Paragraphs never cross document
    boundaries, and every sentence appears exactly once per budget.
    """
    check_budgets(token_budgets)
    buckets: dict[int, ParallelCorpus] = {}
    for budget in token_budgets:
        records = []
        for doc_id, src, tgt, _ in map(require_aligned, corpus.records()):
            counts = [len(s.split()) for s in src]
            paragraphs: list[tuple[int, int]] = []
            start = 0
            running = 0
            for i, count in enumerate(counts):
                if i > start and running + count > budget:
                    paragraphs.append((start, i))
                    start = i
                    running = 0
                running += count
            paragraphs.append((start, len(counts)))
            for j, (a, b) in enumerate(paragraphs):
                record = Record(f"{doc_id}.b{budget}.p{j}", src[a:b], tgt[a:b], True)
                records.append(record)
        buckets[budget] = corpus.derive(records, token_budget=str(budget))
    return buckets
