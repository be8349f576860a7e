"""Robustness probes: seeded sentence-shuffle perturbations with
invertible permutation records, and contrastive-set accuracy over a
pluggable candidate scorer.

Shuffles permute only the source side (targets stay fixed so perturbed
sources can be evaluated against unchanged references); the returned
records allow exact inversion or reference realignment. Each document
draws from its own seed substream, so results do not depend on
traversal order.
"""

from __future__ import annotations

import math
import random
import sys
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .corpus import (
    Document,
    ParallelCorpus,
    ParallelDocument,
    ScoreError,
    field_of,
    finite_of,
    read_jsonl,
    strings_of,
    write_jsonl,
)

# metrics is imported where it is used, so a shuffle does not load it.
if TYPE_CHECKING:
    from .metrics import MetricReport

OVERALL = "overall"


@dataclass(frozen=True)
class PermutationRecord:
    """Where each sentence of a perturbed document originally lived.

    ``mapping[i]`` is the original (doc_id, sentence_index) of the
    sentence now at position i.
    """

    doc_id: str
    mapping: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class ContrastiveInstance:
    """A source with one positive translation and minimally wrong negatives."""

    instance_id: str
    source: str
    candidates: tuple[str, ...]
    positive_index: int
    phenomenon: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "candidates", tuple(self.candidates))
        if len(self.candidates) < 2:
            raise ValueError(
                f"instance {self.instance_id!r} needs at least 2 candidates"
            )
        if len(set(self.candidates)) != len(self.candidates):
            raise ValueError(f"instance {self.instance_id!r} has duplicate candidates")
        if not 0 <= self.positive_index < len(self.candidates):
            raise ValueError(
                f"instance {self.instance_id!r}: positive_index "
                f"{self.positive_index} out of range"
            )


@dataclass(frozen=True)
class CandidateScore:
    """Force-decoding style score for one candidate; higher is more probable."""

    instance_id: str
    candidate_index: int
    score: float


def _substream(seed: int, namespace: str) -> random.Random:
    # String seeding hashes all bits deterministically (no PYTHONHASHSEED
    # dependence), giving every namespace an independent stream.
    return random.Random(f"{seed}:{namespace}")


def _rearrange(
    corpus: ParallelCorpus, mappings: Sequence[Sequence[tuple[str, int]]]
) -> tuple[ParallelCorpus, list[PermutationRecord]]:
    """Rebuild ``corpus`` so that position i of document d holds the source
    sentence at slot ``mappings[d][i]`` (an original (doc_id, index))."""
    sources = {pd.doc_id: pd.source.sentences for pd in corpus}
    documents = []
    records = []
    for pd, mapping in zip(corpus, mappings):
        sentences = tuple(sources[doc_id][i] for doc_id, i in mapping)
        shuffled = Document(pd.doc_id, sentences)
        documents.append(ParallelDocument(shuffled, pd.target, aligned=pd.aligned))
        records.append(PermutationRecord(pd.doc_id, tuple(mapping)))
    return corpus.derive(documents), records


def local_shuffle(
    corpus: ParallelCorpus, seed: int
) -> tuple[ParallelCorpus, list[PermutationRecord]]:
    """Permute source sentences independently inside each document.

    Documents with at least two sentences never receive the identity
    permutation (it is redrawn). Single-sentence documents pass through.
    """
    if not corpus.documents:
        raise ValueError("cannot shuffle an empty corpus")
    mappings = []
    for ordinal, pd in enumerate(corpus):
        m = len(pd.source)
        perm = list(range(m))
        if m >= 2:
            rng = _substream(seed, f"doc:{ordinal}")
            rng.shuffle(perm)
            while perm == sorted(perm):
                rng.shuffle(perm)
        mappings.append([(pd.doc_id, j) for j in perm])
    return _rearrange(corpus, mappings)


def global_shuffle(
    corpus: ParallelCorpus, seed: int
) -> tuple[ParallelCorpus, list[PermutationRecord]]:
    """Pool all source sentences corpus-wide, permute, and redistribute.

    Per-document sentence counts are preserved; sentences migrate across
    documents.
    """
    if not corpus.documents:
        raise ValueError("cannot shuffle an empty corpus")
    pool = [(pd.doc_id, i) for pd in corpus for i in range(len(pd.source))]
    # Shuffling the pool itself draws exactly what shuffling its indices would.
    _substream(seed, "global").shuffle(pool)
    slots = iter(pool)
    return _rearrange(corpus, [list(islice(slots, len(pd.source))) for pd in corpus])


def unshuffle(
    corpus: ParallelCorpus, records: Sequence[PermutationRecord]
) -> ParallelCorpus:
    """Invert a local or global shuffle using its permutation records."""
    if len(records) != len(corpus.documents):
        raise ValueError(
            f"record count {len(records)} != document count {len(corpus.documents)}"
        )
    inverse: dict[str, list[tuple[str, int] | None]] = {
        pd.doc_id: [None] * len(pd.source) for pd in corpus
    }
    for record, pd in zip(records, corpus):
        if record.doc_id != pd.doc_id:
            raise ValueError(
                f"record doc_id {record.doc_id!r} does not match document "
                f"{pd.doc_id!r}"
            )
        if len(record.mapping) != len(pd.source):
            raise ValueError(
                f"record for {pd.doc_id!r} has {len(record.mapping)} entries for "
                f"{len(pd.source)} sentences"
            )
        for position, (orig_doc, orig_index) in enumerate(record.mapping):
            if orig_doc not in inverse or not 0 <= orig_index < len(inverse[orig_doc]):
                raise ValueError(
                    f"record for {pd.doc_id!r} names unknown slot "
                    f"({orig_doc!r}, {orig_index})"
                )
            if inverse[orig_doc][orig_index] is not None:
                raise ValueError(
                    f"records are not a bijection: slot ({orig_doc!r}, {orig_index}) "
                    "assigned twice"
                )
            inverse[orig_doc][orig_index] = (pd.doc_id, position)
    # Equal lengths and no slot assigned twice leave no slot unassigned.
    return _rearrange(corpus, [inverse[pd.doc_id] for pd in corpus])[0]


def contrastive_accuracy(
    instances: Iterable[ContrastiveInstance],
    scores: Iterable[CandidateScore],
) -> dict[str, MetricReport]:
    """Fraction of instances whose positive candidate scores strictly highest.

    Ties with any negative count as incorrect. Returns one report per
    phenomenon plus an ``"overall"`` entry, on a 0-100 scale.

    Both arguments are read once, one item at a time: of each instance
    only its phenomenon, its positive index and one score slot per
    candidate are kept, and instances are decided in input order once
    every score is in. A score for an unknown instance or candidate, a
    second score for a candidate, or a candidate left without one raises
    ``ScoreError``.
    """
    from .metrics import MetricReport
    table: dict[str, tuple[str, int, list[float | None]]] = {}
    for inst in instances:
        if inst.instance_id in table:
            raise ValueError("duplicate instance_id in instance list")
        slots: list[float | None] = [None] * len(inst.candidates)
        # One string per phenomenon, not one per instance.
        phenomenon = sys.intern(inst.phenomenon)
        table[inst.instance_id] = (phenomenon, inst.positive_index, slots)
    for score in scores:
        entry = table.get(score.instance_id)
        if entry is None:
            raise ScoreError(f"score for unknown instance {score.instance_id!r}")
        slots = entry[2]
        if not 0 <= score.candidate_index < len(slots):
            raise ScoreError(
                f"score for unknown candidate {score.candidate_index} of instance "
                f"{score.instance_id!r}"
            )
        if slots[score.candidate_index] is not None:
            key = (score.instance_id, score.candidate_index)
            raise ScoreError(f"duplicate score for {key}")
        slots[score.candidate_index] = score.score
    correct: Counter = Counter()
    total: Counter = Counter()
    for instance_id, (phenomenon, positive_index, slots) in table.items():
        if None in slots:
            raise ScoreError(
                f"missing score for candidate {slots.index(None)} of instance "
                f"{instance_id!r}"
            )
        positive = slots[positive_index]
        hit = all(positive > s for i, s in enumerate(slots) if i != positive_index)
        total[phenomenon] += 1
        total[OVERALL] += 1
        if hit:
            correct[phenomenon] += 1
            correct[OVERALL] += 1
    return {
        phenomenon: MetricReport(
            phenomenon, 100.0 * correct[phenomenon] / count, correct[phenomenon], count
        )
        for phenomenon, count in total.items()
    }


@dataclass(frozen=True)
class BigramModel:
    """Add-one-smoothed bigram statistics over tokenized training text.

    Deterministic stand-in for a neural force decoder: candidate scores
    are sums of within-candidate transition log-probabilities, so bigram
    overlap with the training text ranks candidates.
    """

    unigrams: dict[str, int]
    bigrams: dict[tuple[str, str], int]
    vocab_size: int

    @classmethod
    def fit(cls, text: str) -> "BigramModel":
        from .metrics import tokenize
        tokens = tokenize(text)
        unigrams: Counter = Counter(tokens)
        bigrams: Counter = Counter(zip(tokens, tokens[1:]))
        # One extra vocabulary slot reserves smoothing mass for unseen words.
        return cls(dict(unigrams), dict(bigrams), len(unigrams) + 1)

    def log_prob(self, prev: str, cur: str) -> float:
        numerator = self.bigrams.get((prev, cur), 0) + 1
        denominator = self.unigrams.get(prev, 0) + self.vocab_size
        return math.log(numerator / denominator)

    def score(self, text: str) -> float:
        """Total log-probability of the candidate's internal transitions."""
        from .metrics import tokenize
        tokens = tokenize(text)
        if not tokens:
            raise ValueError("cannot score an empty candidate")
        return sum(self.log_prob(a, b) for a, b in zip(tokens, tokens[1:]))


def reference_scorer(
    instance: ContrastiveInstance, model: BigramModel
) -> list[CandidateScore]:
    """Score every candidate of an instance with the bigram model."""
    return [
        CandidateScore(instance.instance_id, i, model.score(candidate))
        for i, candidate in enumerate(instance.candidates)
    ]


def read_instance_stream(path: str | Path) -> Iterator[ContrastiveInstance]:
    """The instances of a JSON-lines file, each read and checked when the
    iterator reaches its line; an ``instance_id`` that an earlier line
    gave is an error at the line that repeats it."""
    seen: set[str] = set()

    def parse(record: dict) -> ContrastiveInstance:
        instance = ContrastiveInstance(
            field_of(record, "instance_id", str),
            field_of(record, "source", str),
            strings_of(record, "candidates"),
            field_of(record, "positive_index", int),
            field_of(record, "phenomenon", str),
        )
        if instance.instance_id in seen:
            raise ValueError(f"duplicate instance_id {instance.instance_id!r}")
        seen.add(instance.instance_id)
        return instance

    return read_jsonl(path, parse, "instance")


def read_instances(path: str | Path) -> list[ContrastiveInstance]:
    return list(read_instance_stream(path))


def read_candidate_scores(path: str | Path) -> Iterator[CandidateScore]:
    def parse(record: dict) -> CandidateScore:
        return CandidateScore(
            field_of(record, "instance_id", str),
            field_of(record, "candidate_index", int),
            finite_of(record, "score"),
        )

    return read_jsonl(path, parse, "score")


def write_permutation_records(
    records: Iterable[PermutationRecord], path: str | Path
) -> str:
    return write_jsonl(path, map(vars, records))


def read_permutation_records(path: str | Path) -> list[PermutationRecord]:
    def parse(record: dict) -> PermutationRecord:
        doc_id = field_of(record, "doc_id", str)
        mapping = field_of(record, "mapping", list)
        if not all(isinstance(pair, list) and len(pair) == 2 for pair in mapping):
            raise TypeError("'mapping' entries must be [doc_id, index] pairs")
        pairs = tuple((field_of(p, 0, str), field_of(p, 1, int)) for p in mapping)
        return PermutationRecord(doc_id, pairs)

    return list(read_jsonl(path, parse, "record"))
