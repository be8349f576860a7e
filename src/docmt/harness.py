"""Robustness probes: seeded sentence-shuffle perturbations with
invertible permutation records, and contrastive-set accuracy over a
pluggable candidate scorer.

Shuffles permute only the source side (targets stay fixed so perturbed
sources can be evaluated against unchanged references); the returned
records allow exact inversion or reference realignment. Each document
draws from its own seed substream, so results do not depend on
traversal order. Each shuffle takes and yields ``Record``s, as the
records reader checked them, keeping its permutations flat
(``Permutations``), under a wrapper over whole corpora. The global
shuffle's pooled sources and the contrastive instance ids are kept with
no Python object per string (``Strings``, ``IdTable``).
"""

from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_right
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Iterator, NamedTuple, Sequence

from .corpus import InputError, ParallelCorpus, Record, Value
from .fileio import read_jsonl, write_jsonl

# metrics is imported where it is used, so a shuffle does not load it.
if TYPE_CHECKING:
    from .metrics import MetricReport

OVERALL = "overall"
INSTANCE_FIELDS = (
    ("instance_id", str), ("source", str), ("candidates", tuple),
    ("positive_index", int), ("phenomenon", str),
)
CANDIDATE_FIELDS = (("instance_id", str), ("candidate_index", int), ("score", float))


class PermutationRecord(NamedTuple):
    """Where each sentence of a perturbed document originally lived.

    ``mapping[i]`` is the original (doc_id, sentence_index) of the
    sentence now at position i.
    """

    doc_id: str
    mapping: tuple[tuple[str, int], ...]


Shuffled = tuple[ParallelCorpus, list[PermutationRecord]]


class ContrastiveInstance(Value):
    """A source with one positive translation and minimally wrong negatives."""

    __slots__ = ("instance_id", "source", "candidates", "positive_index", "phenomenon")

    def __init__(
        self,
        instance_id: str,
        source: str,
        candidates: Iterable[str],
        positive_index: int,
        phenomenon: str,
    ) -> None:
        candidates = tuple(candidates)
        if len(candidates) < 2:
            raise ValueError(f"instance {instance_id!r} needs at least 2 candidates")
        if len(set(candidates)) != len(candidates):
            raise ValueError(f"instance {instance_id!r} has duplicate candidates")
        if not 0 <= positive_index < len(candidates):
            raise ValueError(
                f"instance {instance_id!r}: positive_index "
                f"{positive_index} out of range"
            )
        self.instance_id = instance_id
        self.source = source
        self.candidates = candidates
        self.positive_index = positive_index
        self.phenomenon = phenomenon


class CandidateScore(NamedTuple):
    """Force-decoding style score for one candidate; higher is more probable."""

    instance_id: str
    candidate_index: int
    score: float


def _substream(seed: int, namespace: str) -> random.Random:
    # String seeding hashes all bits deterministically (no PYTHONHASHSEED
    # dependence), giving every namespace an independent stream.
    return random.Random(f"{seed}:{namespace}")


class Permutations:
    """The permutation records of one shuffle, kept flat while its
    documents stream. Source sentences are numbered corpus-wide in input
    order: document ``d`` holds the numbers ``offsets[d]:offsets[d + 1]``,
    and ``order[p]`` is the number of the sentence now at position ``p``."""

    def __init__(self) -> None:
        self.doc_ids: list[str] = []
        self.offsets = array("q", [0])
        self.order = array("q")

    def records(self) -> Iterator[PermutationRecord]:
        for d, doc_id in enumerate(self.doc_ids):
            numbers = self.order[self.offsets[d] : self.offsets[d + 1]]
            yield PermutationRecord(doc_id, tuple(map(self._slot, numbers)))

    def _slot(self, number: int) -> tuple[str, int]:
        d = bisect_right(self.offsets, number) - 1
        return self.doc_ids[d], number - self.offsets[d]


class Strings:
    """A list of strings with no Python object per string: their UTF-8
    bytes in one buffer and where each ends. A string built in code may
    hold a lone surrogate, so encoding passes surrogates through."""

    def __init__(self) -> None:
        self.text = bytearray()
        self.ends = array("q", [0])  # string n is text[ends[n]:ends[n + 1]]

    def __len__(self) -> int:
        return len(self.ends) - 1

    def __getitem__(self, n: int) -> str:
        return self.text[self.ends[n] : self.ends[n + 1]].decode("utf-8", "surrogatepass")

    def extend(self, strings: Iterable[str]) -> None:
        for string in strings:
            self.text += string.encode("utf-8", "surrogatepass")
            self.ends.append(len(self.text))


class IdTable(Strings):
    """Distinct strings numbered 0, 1, ... in the order they are added:
    ``Strings`` with each string's ``hash()`` and an open-addressing
    array of numbers, at most two-thirds full, that is regrown from the
    stored hashes."""

    def __init__(self) -> None:
        super().__init__()
        self.hashes = array("q")
        self.slots = array("q", [-1]) * 8  # -1 marks an empty slot

    def _slot(self, key: bytes, h: int) -> int:
        """The slot that holds the number of ``key``, or the empty one
        where it would go."""
        slots, hashes, ends, text = self.slots, self.hashes, self.ends, self.text
        mask = len(slots) - 1
        i = h & mask
        while (n := slots[i]) >= 0:
            if hashes[n] == h and text[ends[n] : ends[n + 1]] == key:
                break
            i = (i + 1) & mask
        return i

    def get(self, string: str) -> int:
        """The number of ``string``, or -1 if it was never added."""
        return self.slots[self._slot(string.encode("utf-8", "surrogatepass"), hash(string))]

    def add(self, string: str) -> int:
        """-1 after giving ``string`` the next number, or the number it
        was given when it was added before."""
        key = string.encode("utf-8", "surrogatepass")
        h = hash(string)
        i = self._slot(key, h)
        n = self.slots[i]
        if n < 0:
            self.slots[i] = len(self.hashes)
            self.hashes.append(h)
            self.text += key
            self.ends.append(len(self.text))
            if 3 * len(self.hashes) > 2 * len(self.slots):
                self._regrow()
        return n

    def _regrow(self) -> None:
        self.slots = slots = array("q", [-1]) * (2 * len(self.slots))
        mask = len(slots) - 1
        for n, h in enumerate(self.hashes):
            i = h & mask
            while slots[i] >= 0:
                i = (i + 1) & mask
            slots[i] = n


def local_shuffle_records(
    records: Iterable[Record], seed: int, perms: Permutations
) -> Iterator[Record]:
    """Each record with its source sentences permuted, one at a time, and
    two or more never left in order (the draw is redone); the permutations
    go to ``perms``. No records at all raise ``InputError``."""
    for ordinal, (doc_id, src, tgt, aligned) in enumerate(records):
        perm = list(range(len(src)))
        if len(perm) >= 2:
            rng = _substream(seed, f"doc:{ordinal}")
            rng.shuffle(perm)
            while perm == sorted(perm):
                rng.shuffle(perm)
        perms.doc_ids.append(doc_id)
        perms.order.extend([perms.offsets[-1] + j for j in perm])
        perms.offsets.append(len(perms.order))
        yield Record(doc_id, tuple(src[j] for j in perm), tgt, aligned)
    if not perms.doc_ids:
        raise InputError("cannot shuffle an empty corpus")


def global_shuffle_records(
    records: Iterable[Record], again: Iterable[Record], seed: int, perms: Permutations
) -> Iterator[Record]:
    """Pool all source sentences corpus-wide, permute, and redistribute;
    per-document sentence counts are preserved. Of ``records`` only the
    sources are kept, as ``Strings``; ``again``, a second read of them,
    gives the targets one document at a time, and a document that
    differs, or no records at all, raises ``InputError``."""
    sources = Strings()
    for record in records:
        perms.doc_ids.append(record.doc_id)
        sources.extend(record.src)
        perms.offsets.append(len(sources))
    if not perms.doc_ids:
        raise InputError("cannot shuffle an empty corpus")
    perms.order = array("q", range(len(sources)))
    # Shuffling the numbers draws exactly what shuffling the pool would.
    _substream(seed, "global").shuffle(perms.order)
    changed = "document {} changed between two reads"
    again = iter(again)
    for d, doc_id in enumerate(perms.doc_ids):
        start, end = perms.offsets[d], perms.offsets[d + 1]
        record = next(again, None)
        first_read = (doc_id, [sources[number] for number in range(start, end)])
        if record is None or (record.doc_id, list(record.src)) != first_read:
            raise InputError(changed.format(d))
        shuffled = tuple(sources[number] for number in perms.order[start:end])
        yield Record(doc_id, shuffled, record.tgt, record.aligned)
    if next(again, None) is not None:
        raise InputError(changed.format(len(perms.doc_ids)))


def local_shuffle(corpus: ParallelCorpus, seed: int) -> Shuffled:
    """``local_shuffle_records`` over a whole corpus."""
    perms = Permutations()
    shuffled = corpus.derive(local_shuffle_records(corpus.records(), seed, perms))
    return shuffled, list(perms.records())


def global_shuffle(corpus: ParallelCorpus, seed: int) -> Shuffled:
    """``global_shuffle_records`` over a whole corpus."""
    perms = Permutations()
    again = corpus.records()
    shuffled = global_shuffle_records(corpus.records(), again, seed, perms)
    return corpus.derive(shuffled), list(perms.records())


def unshuffle(
    corpus: ParallelCorpus, records: Sequence[PermutationRecord]
) -> ParallelCorpus:
    """Invert a local or global shuffle using its permutation records."""
    if len(records) != len(corpus.documents):
        raise ValueError(
            f"record count {len(records)} != document count {len(corpus.documents)}"
        )
    # doc_id -> its source sentences, put back in order
    inverse: dict[str, list[str | None]] = {
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
            inverse[orig_doc][orig_index] = pd.source.sentences[position]
    # Equal lengths and no slot assigned twice leave no slot unassigned.
    return corpus.derive(
        Record(pd.doc_id, tuple(inverse[pd.doc_id]), pd.target.sentences, pd.aligned)
        for pd in corpus
    )


def contrastive_accuracy(
    instances: Iterable[ContrastiveInstance],
    scores: Iterable[CandidateScore],
) -> dict[str, MetricReport]:
    """Fraction of instances whose positive candidate scores strictly highest.

    Ties with any negative count as incorrect. Returns one report per
    phenomenon plus an ``"overall"`` entry, on a 0-100 scale.

    Both arguments are read once, one item at a time: of each instance
    only its id (in an ``IdTable``: a reader's stream that has not
    started hands over its own), its phenomenon, its positive index and
    one score slot per candidate are kept, in flat columns (scores as
    64-bit floats), and instances are decided in input order once every
    score is in. A score for an unknown instance or candidate, a second
    score for a candidate, a candidate left without one, or no instances
    at all raises ``InputError``.
    """
    from .metrics import MetricReport
    # A stream that has not started numbers the ids as it reads them.
    checked = isinstance(instances, InstanceStream) and not len(instances.ids)
    ids = instances.ids if checked else IdTable()
    offsets = array("q", [0])  # row r's score slots are offsets[r]:offsets[r + 1]
    positives = array("q")
    codes = array("q")  # row -> index into phenomena
    phenomena: dict[str, int] = {}
    for inst in instances:
        if not checked and ids.add(inst.instance_id) >= 0:
            raise ValueError(f"duplicate instance_id {inst.instance_id!r}")
        positives.append(inst.positive_index)
        codes.append(phenomena.setdefault(inst.phenomenon, len(phenomena)))
        offsets.append(offsets[-1] + len(inst.candidates))
    values = array("d", [0.0]) * offsets[-1]
    filled = bytearray(offsets[-1])  # 1 where a slot holds its score
    last_id, row = None, -1  # a file's scores come instance by instance
    for score in scores:
        if score.instance_id != last_id:
            last_id, row = score.instance_id, ids.get(score.instance_id)
        if row < 0:
            raise InputError(f"score for unknown instance {score.instance_id!r}")
        start = offsets[row]
        if not 0 <= score.candidate_index < offsets[row + 1] - start:
            raise InputError(
                f"score for unknown candidate {score.candidate_index} of instance "
                f"{score.instance_id!r}"
            )
        slot = start + score.candidate_index
        if filled[slot]:
            key = (score.instance_id, score.candidate_index)
            raise InputError(f"duplicate score for {key}")
        filled[slot] = 1
        values[slot] = score.score
    names = list(phenomena)
    correct: Counter = Counter()
    total: Counter = Counter()
    columns = zip(offsets, offsets[1:], positives, codes)
    for row, (start, end, positive_index, code) in enumerate(columns):
        if (missing := filled.find(0, start, end)) >= 0:
            raise InputError(
                f"missing score for candidate {missing - start} of instance "
                f"{ids[row]!r}"
            )
        slot = start + positive_index
        hit = all(values[slot] > values[i] for i in range(start, end) if i != slot)
        phenomenon = names[code]
        total[phenomenon] += 1
        total[OVERALL] += 1
        if hit:
            correct[phenomenon] += 1
            correct[OVERALL] += 1
    if not total:
        raise InputError("no instances")
    return {
        phenomenon: MetricReport(
            phenomenon, 100.0 * correct[phenomenon] / count, correct[phenomenon], count
        )
        for phenomenon, count in total.items()
    }


class BigramModel(NamedTuple):
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


class InstanceStream:
    """The instances of a JSON-lines file, each read and checked when the
    iteration reaches its line; an ``instance_id`` that an earlier line
    gave is an error at the line that repeats it. ``ids`` numbers the
    ids read so far, in input order, for ``contrastive_accuracy``."""

    def __init__(self, path: str | Path) -> None:
        self.ids = ids = IdTable()

        def unseen(*fields: Any) -> ContrastiveInstance:
            instance = ContrastiveInstance(*fields)
            if ids.add(instance.instance_id) >= 0:
                raise ValueError(f"duplicate instance_id {instance.instance_id!r}")
            return instance

        # unseen holds the table, not self: a stream dropped part-way is
        # freed at once, and so is its open file.
        self._instances = read_jsonl(path, INSTANCE_FIELDS, unseen, "instance")

    def __iter__(self) -> Iterator[ContrastiveInstance]:
        return self._instances


def read_instance_stream(path: str | Path) -> InstanceStream:
    return InstanceStream(path)


def read_instances(path: str | Path) -> list[ContrastiveInstance]:
    return list(read_instance_stream(path))


def read_candidate_scores(path: str | Path) -> Iterator[CandidateScore]:
    return read_jsonl(path, CANDIDATE_FIELDS, CandidateScore, "score")


def write_permutation_records(
    records: Iterable[PermutationRecord], path: str | Path
) -> None:
    write_jsonl(path, (record._asdict() for record in records))
