"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import json
import math
import os
import random
import re
import unicodedata
from collections import Counter
from itertools import islice
from typing import Any, Callable, Iterable, Iterator, Sequence

from docmt import (
    AlignmentScore,
    CandidateScore,
    ContrastiveInstance,
    Document,
    MetricReport,
    ParallelCorpus,
    ParallelDocument,
    TokenizerConfig,
)
from docmt.corpus import InputError, Record
from docmt.fileio import read_lines
from docmt.harness import OVERALL, PermutationRecord
from docmt.metrics import Label, LabeledTestDoc
from docmt.pipeline import (
    DEFAULT_GUARDS,
    DEFAULT_QUOTE_CLOSERS,
    DEFAULT_TERMINALS,
    check_score,
)

VOCAB = "the a of and to in cat dog house tree river stone bird cloud ran sat".split()


def make_sentence(rng: random.Random, min_tokens: int = 1, max_tokens: int = 8) -> str:
    n = rng.randint(min_tokens, max_tokens)
    return " ".join(rng.choice(VOCAB) for _ in range(n))


def make_doc_pair(
    doc_id: str, n_sentences: int, rng: random.Random | None = None
) -> ParallelDocument:
    if rng is None:
        src = tuple(f"src {doc_id} sentence {i}" for i in range(n_sentences))
        tgt = tuple(f"tgt {doc_id} sentence {i}" for i in range(n_sentences))
    else:
        src = tuple(make_sentence(rng) for _ in range(n_sentences))
        tgt = tuple(make_sentence(rng) for _ in range(n_sentences))
    return ParallelDocument(Document(doc_id, src), Document(doc_id, tgt), aligned=True)


def make_corpus(
    sizes: Sequence[int], rng: random.Random | None = None
) -> ParallelCorpus:
    docs = tuple(make_doc_pair(f"d{i:03d}", m, rng) for i, m in enumerate(sizes))
    return ParallelCorpus(docs)


def random_corpus(
    rng: random.Random, max_docs: int = 6, max_sentences: int = 9
) -> ParallelCorpus:
    sizes = [rng.randint(1, max_sentences) for _ in range(rng.randint(1, max_docs))]
    return make_corpus(sizes, rng)


def naive_tokenize(text: str, cfg: TokenizerConfig) -> list[str]:
    """Reference tokenizer: every token's edge characters are checked one
    by one with ``unicodedata.category``, with no fast path."""
    if cfg.lowercase:
        text = text.lower()
    tokens: list[str] = []
    for tok in text.split():
        trailing: list[str] = []
        while tok and unicodedata.category(tok[0]).startswith("P"):
            tokens.append(tok[0])
            tok = tok[1:]
        while tok and unicodedata.category(tok[-1]).startswith("P"):
            trailing.append(tok[-1])
            tok = tok[:-1]
        if tok:
            tokens.append(tok)
        tokens.extend(reversed(trailing))
    return tokens


def _naive_is_guarded(text: str, terminal_index: int) -> bool:
    head = text[: terminal_index + 1]
    for guard in DEFAULT_GUARDS:
        if head.endswith(guard):
            start = len(head) - len(guard)
            if start == 0 or head[start - 1].isspace():
                return True
    return False


def naive_split_paragraph(text: str) -> list[str]:
    """Reference segmenter: walks the text one character at a time, with
    no pattern; ``segment_sentences`` must split every paragraph as this
    does."""
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
            if at_boundary and not _naive_is_guarded(text, i):
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


def naive_bleu(
    hyps: Sequence[Sequence[str]], refs: Sequence[Sequence[str]], max_n: int = 4
) -> float:
    """Brute-force corpus BLEU used as an independent cross-check.

    Clipped counts come from nested-loop occurrence counting over n-gram
    lists (no Counter), and the brevity penalty is the explicit
    min(1, e^(1 - r/c)) formula. Orders with no hypothesis n-grams drop
    out of the geometric mean.
    """
    correct = [0] * max_n
    total = [0] * max_n
    c = sum(len(h) for h in hyps)
    r = sum(len(f) for f in refs)
    for hyp, ref in zip(hyps, refs):
        for n in range(1, max_n + 1):
            hyp_ngrams = [tuple(hyp[i : i + n]) for i in range(len(hyp) - n + 1)]
            ref_ngrams = [tuple(ref[i : i + n]) for i in range(len(ref) - n + 1)]
            total[n - 1] += len(hyp_ngrams)
            for gram in set(hyp_ngrams):
                hyp_count = 0
                for other in hyp_ngrams:
                    if other == gram:
                        hyp_count += 1
                ref_count = 0
                for other in ref_ngrams:
                    if other == gram:
                        ref_count += 1
                correct[n - 1] += min(hyp_count, ref_count)
    n_orders = sum(1 for t in total if t > 0)
    if n_orders == 0:
        return 0.0
    precision = 1.0
    for x, t in zip(correct, total):
        if t == 0:
            continue
        if x == 0:
            return 0.0
        precision *= (x / t) ** (1.0 / n_orders)
    bp = min(1.0, math.exp(1.0 - r / c))
    return 100.0 * bp * precision


def naive_contrastive_accuracy(
    instances: Sequence[ContrastiveInstance],
    scores: Iterable[CandidateScore],
) -> dict[str, MetricReport]:
    """Reference contrastive accuracy: holds every instance whole and
    every score in one ``(instance_id, candidate_index)`` table, then
    decides each instance from its list of negatives."""
    by_instance: dict[str, ContrastiveInstance] = {}
    for inst in instances:
        if inst.instance_id in by_instance:
            raise ValueError(f"duplicate instance_id {inst.instance_id!r}")
        by_instance[inst.instance_id] = inst
    table: dict[tuple[str, int], float] = {}
    for score in scores:
        inst = by_instance.get(score.instance_id)
        if inst is None:
            raise InputError(f"score for unknown instance {score.instance_id!r}")
        if not 0 <= score.candidate_index < len(inst.candidates):
            raise InputError(
                f"score for unknown candidate {score.candidate_index} of instance "
                f"{score.instance_id!r}"
            )
        key = (score.instance_id, score.candidate_index)
        if key in table:
            raise InputError(f"duplicate score for {key}")
        table[key] = score.score
    correct: Counter = Counter()
    total: Counter = Counter()
    for inst in instances:
        candidate_scores = []
        for i in range(len(inst.candidates)):
            key = (inst.instance_id, i)
            if key not in table:
                raise InputError(
                    f"missing score for candidate {i} of instance "
                    f"{inst.instance_id!r}"
                )
            candidate_scores.append(table[key])
        positive = candidate_scores[inst.positive_index]
        negatives = [
            s for i, s in enumerate(candidate_scores) if i != inst.positive_index
        ]
        hit = all(positive > neg for neg in negatives)
        total[inst.phenomenon] += 1
        total[OVERALL] += 1
        if hit:
            correct[inst.phenomenon] += 1
            correct[OVERALL] += 1
    if not total:
        raise InputError("no instances")
    return {
        phenomenon: MetricReport(
            phenomenon, 100.0 * correct[phenomenon] / count, correct[phenomenon], count
        )
        for phenomenon, count in total.items()
    }


# The JSON-lines readers' field checks and line parsers as they were before
# each format declared a table of its keys (``docmt.fileio.typed``), kept
# verbatim: the reference the table-driven readers are checked against.

_SURROGATE_ESCAPE_RE = re.compile(r"\\u[dD][89a-fA-F]")
_SURROGATE_RE = re.compile("[\ud800-\udfff]")


def read_jsonl(path, parse: Callable, what: str) -> Iterator:
    """Parse each non-blank line of a JSON-lines file with ``parse``, one
    line at a time, as the iterator reaches it."""
    for lineno, raw in read_lines(path, what):
        if not raw.strip():
            continue
        try:
            value = json.loads(raw)
            # A surrogate left in a decoded string was escaped alone; a
            # pair was joined into one code point. Only lines that hold a
            # backslash (one memchr) and escape a surrogate are searched.
            if "\\" in raw and _SURROGATE_ESCAPE_RE.search(raw):
                lone = _SURROGATE_RE.search(json.dumps(value, ensure_ascii=False))
                if lone:
                    raise ValueError(f"lone surrogate \\u{ord(lone.group()):04x}")
            row = parse(value)
        except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError too
            raise ValueError(
                f"{path}: malformed {what} on line {lineno}: {exc}"
            ) from exc
        yield row


def field_of(record: Any, key: str, kind: type) -> Any:
    """``record[key]``, required to be a ``kind``; a bool is never a number."""
    value = record[key]
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise TypeError(f"{key!r} must be {kind.__name__}, got {type(value).__name__}")
    return value


def finite_of(record: Any, key: str) -> float:
    """``record[key]``, required to be a finite int or float (not a bool)."""
    value = record[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{key!r} must be a number, got {type(value).__name__}")
    try:
        finite = math.isfinite(value)
    except OverflowError:
        raise ValueError(f"{key!r} is an integer beyond the float range") from None
    if not finite:
        raise ValueError(f"{key!r} must be finite, got {value}")
    return value


def strings_of(record: Any, key: str) -> tuple[str, ...]:
    """``record[key]``, required to be a list of strings."""
    value = field_of(record, key, list)
    for i, item in enumerate(value):
        if not isinstance(item, str):
            raise TypeError(f"{key!r}[{i}] must be str, got {type(item).__name__}")
    return tuple(value)


def record_parser(metadata: dict, make: Callable) -> Callable:
    first = True

    def parse(record: Any):
        nonlocal first
        is_metadata = first and isinstance(record, dict) and set(record) == {"metadata"}
        first = False
        if is_metadata:
            for key in field_of(record, "metadata", dict):
                metadata[key] = field_of(record["metadata"], key, str)
            return None
        doc_id = field_of(record, "doc_id", str)
        aligned = record.get("aligned")
        if aligned is not None:
            aligned = field_of(record, "aligned", bool)
        return make(doc_id, strings_of(record, "src"), strings_of(record, "tgt"), aligned)

    return parse


def score_parser(table: dict, make: Callable, path) -> Callable:
    """A parser of the score lines of the file at ``path`` that puts each
    score in ``table``, by doc id and pair index, and finds a repeated
    pair in a set of its own. Each document spans its highest pair index
    plus one; a pair that would take the documents' spans, summed, past
    2**16 plus the file's size over 38 bytes (the shortest score line)
    is refused."""
    keys: set[tuple[str, int]] = set()
    spans: dict[str, int] = {}
    slots = os.stat(path).st_size // 38 + 2**16

    def parse(record: dict) -> object:
        doc_id = field_of(record, "doc_id", str)
        pair_index = field_of(record, "pair_index", int)
        score = finite_of(record, "score")
        made = make(doc_id, pair_index, score)
        if (doc_id, pair_index) in keys:
            raise ValueError(f"duplicate score for {(doc_id, pair_index)}")
        span = max(spans.get(doc_id, 0), pair_index + 1)
        if sum(spans.values()) - spans.get(doc_id, 0) + span > slots:
            raise ValueError(f"pair_index {pair_index} is too large for the number of scores")
        keys.add((doc_id, pair_index))
        spans[doc_id] = span
        table.setdefault(doc_id, {})[pair_index] = score
        return made

    return parse


def parse_label(record: dict) -> tuple[str, Label]:
    label = Label(
        field_of(record, "word", str),
        field_of(record, "position", int),
        record["category"],
    )
    return field_of(record, "doc_id", str), label


def instance_parser(seen: dict) -> Callable:
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
        seen[instance.instance_id] = None
        return instance

    return parse


def parse_candidate_score(record: dict) -> CandidateScore:
    return CandidateScore(
        field_of(record, "instance_id", str),
        field_of(record, "candidate_index", int),
        finite_of(record, "score"),
    )


def parse_metric_record(record: dict) -> MetricReport:
    name = field_of(record, "name", str)
    value = finite_of(record, "value")
    counts = (
        field_of(record, k, int) if k in record else 0
        for k in ("numerator", "denominator")
    )
    return MetricReport(name, value, *counts)


def naive_parse(parse: Callable) -> Callable:
    """``parse`` with two of the table-driven readers' messages: a line
    that is not a JSON object, and a missing key. The parsers above left
    both to Python, whose messages were ``'score'`` for a missing key
    and varied with its version for the rest."""

    def checked(value: Any):
        if not isinstance(value, dict):
            raise TypeError(f"expected a JSON object, got {type(value).__name__}")
        try:
            return parse(value)
        except KeyError as exc:
            raise ValueError(f"missing key {exc}") from None

    return checked


def naive_read_records(path) -> list[Record]:
    """Reference records reader, for files with no metadata line and no
    repeated doc_id: each line becomes a ``ParallelDocument``, whose
    constructors check it, and then a ``Record``."""
    parse = record_parser({}, lambda *fields: ParallelDocument.of(*fields).record)
    return list(read_jsonl(path, naive_parse(parse), "record"))


def naive_read_alignment_scores(path) -> list[AlignmentScore]:
    return list(read_jsonl(path, naive_parse(score_parser({}, AlignmentScore, path)), "score"))


def naive_read_score_table(path) -> dict:
    """Reference score table: ``{doc_id: {pair_index: score}}``, both in
    the order the file first names them."""
    table: dict = {}
    for _ in read_jsonl(path, naive_parse(score_parser(table, check_score, path)), "score"):
        pass
    return table


def score_view(table) -> list[tuple[str, dict[int, float]]]:
    """A score table's ``(doc_id, {pair_index: score})`` items, documents
    in table order, to compare tables by what they hold. A ``ScoreTable``
    keeps a document's scores in an array, with NaN in a slot that has no
    score (and NaN equals nothing, so two arrays with a gap never compare
    equal); a plain dict of dicts, as the reference builds, is taken as it
    is."""
    return [
        (doc_id, pairs if isinstance(pairs, dict)
         else {i: s for i, s in enumerate(pairs) if not math.isnan(s)})
        for doc_id, pairs in table.items()
    ]


def naive_read_labeled_docs(references, labels_path) -> list[LabeledTestDoc]:
    by_id: dict[str, list[Label]] = {}
    for doc_id, label in read_jsonl(labels_path, naive_parse(parse_label), "label"):
        by_id.setdefault(doc_id, []).append(label)
    refs_by_id = {doc.doc_id: doc for doc in references}
    unknown = sorted(set(by_id) - set(refs_by_id))
    if unknown:
        raise InputError(f"labels for unknown documents {unknown}")
    return [
        LabeledTestDoc(doc_id, refs_by_id[doc_id], tuple(labels))
        for doc_id, labels in by_id.items()
    ]


def naive_read_instances(path) -> list[ContrastiveInstance]:
    return list(read_jsonl(path, naive_parse(instance_parser({})), "instance"))


def naive_read_candidate_scores(path) -> list[CandidateScore]:
    return list(read_jsonl(path, naive_parse(parse_candidate_score), "score"))


def naive_read_reports(path) -> list[MetricReport]:
    """Reference metric-file reader: a name given twice is malformed at
    the line that repeats it, once the line is typed."""
    names: set[str] = set()

    def parse(record: dict) -> MetricReport:
        report = parse_metric_record(record)
        if report.name in names:
            raise ValueError(f"duplicate name {report.name!r}")
        names.add(report.name)
        return report

    return list(read_jsonl(path, naive_parse(parse), "metric record"))


def score_rows(scores: Iterable[AlignmentScore]) -> Iterator[dict]:
    """Alignment scores as the rows of a score file."""
    for s in scores:
        yield {"doc_id": s.doc_id, "pair_index": s.pair_index, "score": s.score}


def naive_deduplicated(records: Iterable[Record], removed: list[str]) -> Iterator[Record]:
    """Reference dedup: keeps each document's whole normalized source text
    (lowercased, whitespace runs collapsed) and compares the texts."""
    seen: set[str] = set()
    for record in records:
        key = " ".join(" ".join(record.src).lower().split())
        if key in seen:
            removed.append(record.doc_id)
        else:
            seen.add(key)
            yield record


def naive_alignment_filtered(
    records: Iterable[Record],
    scores: Iterable[AlignmentScore],
    threshold: float,
    removed: dict[str, list[int]],
) -> Iterator[Record]:
    """Reference alignment filter: one ``(doc_id, pair_index)`` table of
    every score. Each fault is raised where it is first known: as each
    document passes, its lowest unclaimed pair, then its first missing
    pair; after the last document, the first unknown document in
    score-file order."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold out of [0, 1]: {threshold}")
    table: dict[tuple[str, int], float] = {}
    for score in scores:
        key = (score.doc_id, score.pair_index)
        if key in table:
            raise InputError(f"duplicate score for {key}")
        table[key] = score.score
    for record in records:
        n_pairs = len(record.src) if record.aligned else 0
        unclaimed = [i for doc_id, i in table if doc_id == record.doc_id and i >= n_pairs]
        if unclaimed:
            raise InputError(
                f"score for unknown pair {min(unclaimed)} of document {record.doc_id!r} "
                f"({n_pairs} pairs)"
            )
        doc_scores = [table.pop((record.doc_id, i), None) for i in range(n_pairs)]
        if None in doc_scores:
            raise InputError(
                f"missing score for document {record.doc_id!r}, pair {doc_scores.index(None)}"
            )
        offending = [i for i, score in enumerate(doc_scores) if score < threshold]
        if offending:
            removed[record.doc_id] = offending
        else:
            yield record
    for doc_id, _ in table:
        raise InputError(f"score for unknown document {doc_id!r}")


def _naive_substream(seed: int, namespace: str) -> random.Random:
    return random.Random(f"{seed}:{namespace}")


def naive_rearrange(
    corpus: ParallelCorpus, mappings: Sequence[Sequence[tuple[str, int]]]
) -> tuple[ParallelCorpus, list[PermutationRecord]]:
    """Rebuild ``corpus`` so that position i of document d holds the source
    sentence at slot ``mappings[d][i]`` (an original (doc_id, index))."""
    sources = {pd.doc_id: pd.source.sentences for pd in corpus}
    shuffled = []
    records = []
    for pd, mapping in zip(corpus, mappings):
        sentences = tuple(sources[doc_id][i] for doc_id, i in mapping)
        shuffled.append(Record(pd.doc_id, sentences, pd.target.sentences, pd.aligned))
        records.append(PermutationRecord(pd.doc_id, tuple(mapping)))
    return corpus.derive(shuffled), records


def naive_local_shuffle(
    corpus: ParallelCorpus, seed: int
) -> tuple[ParallelCorpus, list[PermutationRecord]]:
    """Reference local shuffle: holds the whole corpus and rebuilds it
    from one list of (doc_id, index) slots per document."""
    if not corpus.documents:
        raise InputError("cannot shuffle an empty corpus")
    mappings = []
    for ordinal, pd in enumerate(corpus):
        m = len(pd.source)
        perm = list(range(m))
        if m >= 2:
            rng = _naive_substream(seed, f"doc:{ordinal}")
            rng.shuffle(perm)
            while perm == sorted(perm):
                rng.shuffle(perm)
        mappings.append([(pd.doc_id, j) for j in perm])
    return naive_rearrange(corpus, mappings)


def naive_global_shuffle(
    corpus: ParallelCorpus, seed: int
) -> tuple[ParallelCorpus, list[PermutationRecord]]:
    """Reference global shuffle: shuffles the pool of (doc_id, index)
    slots itself and deals it out by the documents' sentence counts."""
    if not corpus.documents:
        raise InputError("cannot shuffle an empty corpus")
    pool = [(pd.doc_id, i) for pd in corpus for i in range(len(pd.source))]
    _naive_substream(seed, "global").shuffle(pool)
    slots = iter(pool)
    return naive_rearrange(corpus, [list(islice(slots, len(pd.source))) for pd in corpus])


def naive_cmd_shuffle(args) -> None:
    """Reference ``shuffle`` command: reads the whole corpus, shuffles it
    with the reference shuffles, then writes the output and the permutation
    records one after the other. ``cli.dispatch`` checks the paths, hashes
    the files and writes the manifest."""
    from docmt.corpus import read_records, write_records
    from docmt.harness import write_permutation_records

    corpus = read_records(args.input)
    shuffle = naive_local_shuffle if args.mode == "local" else naive_global_shuffle
    shuffled, records = shuffle(corpus, args.seed)
    write_records(shuffled, args.out)
    write_permutation_records(records, args.perm_out)
    print(f"wrote {len(shuffled)} documents ({args.mode} shuffle, seed {args.seed})")
