"""Seeded workloads for the docmt benchmark.

Each workload generates its inputs and their ground truth from a seed,
names the CLI steps of one pass, and checks a pass's outputs against the
ground truth. The ground truth is computed here, from what the generator
built, never by calling docmt.

Document lengths are a fixed multiset in seeded order, so every seed
gives the program the same amount of work and the figures of different
seeds are comparable.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from pathlib import Path
from typing import Callable

Check = tuple[str, Callable[[], None]]

# Syllables of the two made-up languages. Words are 2-4 consonant-vowel
# syllables, so no word can collide with an abbreviation guard of the
# segmenter ("vs.", "etc.", "al.", ...) and no word holds punctuation.
SRC_SYLLABLES = ("ba", "ko", "mi", "tu", "ne", "sa", "ri", "lo", "pe", "gu", "da", "zi")
TGT_SYLLABLES = ("the", "ran", "mol", "ver", "sta", "kin", "por", "lis", "den", "wor")
VOCAB_SIZE = 3000


class CheckFailed(Exception):
    """A pass's output disagrees with the generator's ground truth."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def long_tail_lengths(n: int, rng: random.Random, top: int = 30) -> list[int]:
    """``n`` lengths in 1..top, log-uniform (median about 5), seeded order."""
    lengths = [
        min(top, int(math.exp((i + 0.5) / n * math.log(top + 1)))) for i in range(n)
    ]
    rng.shuffle(lengths)
    return lengths


def make_vocab(rng: random.Random, syllables: tuple[str, ...]) -> list[str]:
    words: set[str] = set()
    while len(words) < VOCAB_SIZE:
        words.add("".join(rng.choice(syllables) for _ in range(rng.randint(2, 4))))
    return sorted(words)


def make_words(rng: random.Random, vocab: list[str], lo: int, hi: int) -> list[str]:
    """Words of one sentence; some carry a comma, which never ends a sentence."""
    words = [rng.choice(vocab) for _ in range(rng.randint(lo, hi))]
    for i in range(len(words) - 1):
        if rng.random() < 0.1:
            words[i] += ","
    words[0] = words[0].capitalize()
    return words


def write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for row in rows:
            handle.write(json.dumps(row, ensure_ascii=False) + "\n")


def read_jsonl(path: Path) -> list:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def count_lines(path: Path) -> int:
    with open(path, "rb") as handle:
        return sum(1 for _ in handle)


def mr_segment_count(m: int) -> int:
    """Segments of one m-sentence document: level k has k parts, levels are
    the powers of two up to m, plus m itself when it is not one."""
    total = 0
    k = 1
    while k <= m:
        total += k
        k *= 2
    return total + (m if m & (m - 1) else 0)


# --------------------------------------------------------------------- build

BUILD_DOCS = 2000
BUILD_DUPLICATES = 100
OVERSAMPLE_FACTOR = 4
MISALIGNED_SHARE = 0.04
AT_THRESHOLD_SHARE = 0.02


class Build:
    """clean -> mr-split -> oversample, the paper's training-data path."""

    name = "build"

    def generate(self, seed: int, out: Path) -> dict:
        rng = random.Random(f"build:{seed}")
        src_vocab = make_vocab(rng, SRC_SYLLABLES)
        tgt_vocab = make_vocab(rng, TGT_SYLLABLES)
        unique = []  # (raw src lines, raw tgt lines, clean src, clean tgt)
        fingerprints: set[str] = set()
        for m in long_tail_lengths(BUILD_DOCS, rng):
            while True:
                doc = self._document(rng, src_vocab, tgt_vocab, m)
                fingerprint = " ".join(" ".join(doc[0]).lower().split())
                if fingerprint not in fingerprints:
                    break
            fingerprints.add(fingerprint)
            unique.append(doc)

        # Exact copies, each placed somewhere after its original.
        order = list(range(len(unique)))
        for _ in range(BUILD_DUPLICATES):
            original = rng.randrange(len(unique))
            order.insert(rng.randint(order.index(original) + 1, len(order)), -1 - original)
        records = []
        kept = []
        duplicate_ids = []
        for position, entry in enumerate(order):
            doc_id = f"d{position:05d}"
            src, tgt, clean_src, clean_tgt = unique[entry if entry >= 0 else -1 - entry]
            records.append({"doc_id": doc_id, "src": src, "tgt": tgt})
            if entry < 0:
                duplicate_ids.append(doc_id)
            else:
                kept.append([doc_id, clean_src, clean_tgt])

        # Alignment scores for the corpus as it stands before the filter.
        scores = []
        misaligned = []
        survivors = []
        for doc_id, clean_src, clean_tgt in kept:
            n_pairs = len(clean_src)
            pair_scores = [round(rng.uniform(0.41, 1.0), 3) for _ in range(n_pairs)]
            draw = rng.random()
            if draw < MISALIGNED_SHARE:
                bad = sorted(rng.sample(range(n_pairs), min(n_pairs, rng.randint(1, 2))))
                for i in bad:
                    pair_scores[i] = round(rng.uniform(0.01, 0.39), 3)
                misaligned.append({"stage": "alignment-filter", "doc_id": doc_id,
                                   "pair_indices": bad})
            else:
                if draw < MISALIGNED_SHARE + AT_THRESHOLD_SHARE:
                    pair_scores[rng.randrange(n_pairs)] = 0.40  # kept: not below
                survivors.append([doc_id, clean_src, clean_tgt])
            scores.extend(
                {"doc_id": doc_id, "pair_index": i, "score": s}
                for i, s in enumerate(pair_scores)
            )

        out.mkdir(parents=True)
        write_jsonl(out / "corpus.jsonl", records)
        write_jsonl(out / "scores.jsonl", scores)
        expected = {
            "kept": survivors,
            "removed": [{"stage": "deduplicate", "doc_id": d} for d in duplicate_ids]
            + misaligned,
            "segments": sum(mr_segment_count(len(src)) for _, src, _ in survivors),
            "oversampled": OVERSAMPLE_FACTOR * len(survivors),
        }
        (out / "expected.json").write_text(json.dumps(expected), encoding="utf-8")
        return expected

    @staticmethod
    def _document(rng, src_vocab, tgt_vocab, m):
        """A raw document whose cleaned form has exactly ``m`` sentence pairs.

        Most raw lines are whole sentences. Some lack terminal punctuation
        (the cleaner appends "."), and some hold two sentences (the
        segmenter splits them); both are mirrored on the two sides.
        """
        src, tgt, clean_src, clean_tgt = [], [], [], []
        while len(clean_src) < m:
            kind = rng.random()
            if kind < 0.05 and m - len(clean_src) >= 2:
                pair = []
                for _ in range(2):
                    end = rng.choice(".!?")
                    s = " ".join(make_words(rng, src_vocab, 3, 12)) + end
                    t = " ".join(make_words(rng, tgt_vocab, 3, 12)) + end
                    pair.append((s, t))
                    clean_src.append(s)
                    clean_tgt.append(t)
                src.append(" ".join(s for s, _ in pair))
                tgt.append(" ".join(t for _, t in pair))
                continue
            end = "" if kind < 0.13 else rng.choice("...!?")
            s = " ".join(make_words(rng, src_vocab, 3, 20)) + end
            t = " ".join(make_words(rng, tgt_vocab, 3, 20)) + end
            src.append(s)
            tgt.append(t)
            clean_src.append(s if end else s + ".")
            clean_tgt.append(t if end else t + ".")
        return src, tgt, clean_src, clean_tgt

    def steps(self, inputs: Path, run: Path, expected: dict) -> list[list[str]]:
        return [
            ["clean", "--in", str(inputs / "corpus.jsonl"), "--out", str(run / "clean.jsonl"),
             "--dedup", "--segment", "--fix-punct", ".",
             "--align-scores", str(inputs / "scores.jsonl"),
             "--report", str(run / "removed.jsonl")],
            ["mr-split", "--in", str(run / "clean.jsonl"), "--out", str(run / "mr.jsonl")],
            ["oversample", "--in", str(run / "clean.jsonl"), "--out", str(run / "os.jsonl"),
             "--factor", str(OVERSAMPLE_FACTOR)],
        ]

    def checks(self, expected: dict, run: Path, seed: int) -> list[Check]:
        def cleaned() -> None:
            got = [[r["doc_id"], r["src"], r["tgt"]] for r in read_jsonl(run / "clean.jsonl")]
            expect(len(got) == len(expected["kept"]),
                   f"clean kept {len(got)} documents, expected {len(expected['kept'])}")
            expect(got == expected["kept"], "cleaned documents differ from the ground truth")

        def report() -> None:
            got = read_jsonl(run / "removed.jsonl")
            for reason in ("deduplicate", "alignment-filter"):
                n_got = sum(1 for r in got if r["stage"] == reason)
                n_exp = sum(1 for r in expected["removed"] if r["stage"] == reason)
                expect(n_got == n_exp, f"{reason}: {n_got} removed, expected {n_exp}")
            expect(got == expected["removed"], "removal report differs from the ground truth")

        def segments() -> None:
            got = count_lines(run / "mr.jsonl")
            expect(got == expected["segments"],
                   f"mr-split wrote {got} segments, expected {expected['segments']}")

        def oversampled() -> None:
            got = count_lines(run / "os.jsonl")
            expect(got == expected["oversampled"],
                   f"oversample wrote {got} documents, expected {expected['oversampled']}")

        return [("clean.kept", cleaned), ("clean.report", report),
                ("mr-split.segments", segments), ("oversample.docs", oversampled)]


# --------------------------------------------------------------------- score

SCORE_DOCS = 160
SCORE_MIN_SENTENCES = 5
SCORE_MAX_SENTENCES = 40
LABELS_PER_DOC = 12
SPAN_RADIUS = 20
CATEGORIES = ("TENSE", "CONJ", "PRON")
CATEGORY_METRIC = {"TENSE": "TC", "CONJ": "CP", "PRON": "PT"}
PINNED_FILE = Path(__file__).resolve().parent / "pinned.json"


def sentence_tokens(words: list[str]) -> list[str]:
    """What docmt's default tokenizer makes of these words: lowercased, with
    trailing punctuation detached."""
    tokens = []
    for word in words:
        if word[-1] in ",.!?":
            tokens += [word[:-1].lower(), word[-1]]
        else:
            tokens.append(word.lower())
    return tokens


def reference_bleu(hyps: list[list[str]], refs: list[list[str]], max_n: int = 4) -> float:
    """Corpus BLEU as the paper defines it: clipped n-gram counts pooled over
    all units, no smoothing, orders without hypothesis n-grams left out."""
    correct = [0] * max_n
    total = [0] * max_n
    hyp_len = ref_len = 0
    for hyp, ref in zip(hyps, refs):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, max_n + 1):
            hyp_grams = Counter(tuple(hyp[i:i + n]) for i in range(len(hyp) - n + 1))
            if not hyp_grams:
                continue
            ref_grams = Counter(tuple(ref[i:i + n]) for i in range(len(ref) - n + 1))
            total[n - 1] += sum(hyp_grams.values())
            correct[n - 1] += sum(min(c, ref_grams[g]) for g, c in hyp_grams.items())
    orders = [(c, t) for c, t in zip(correct, total) if t > 0]
    if not orders or any(c == 0 for c, _ in orders):
        return 0.0
    log_precision = sum(math.log(c / t) for c, t in orders) / len(orders)
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * bp * math.exp(log_precision)


def close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(b))


class Score:
    """bleu (sent, doc) -> tcp -> report, the paper's evaluation path."""

    name = "score"

    def generate(self, seed: int, out: Path) -> dict:
        rng = random.Random(f"score:{seed}")
        vocab = make_vocab(rng, TGT_SYLLABLES)
        n = SCORE_DOCS
        span = SCORE_MAX_SENTENCES - SCORE_MIN_SENTENCES + 1
        lengths = [SCORE_MIN_SENTENCES + (i * span) // n for i in range(n)]
        rng.shuffle(lengths)
        ref_docs, hyp_docs = [], []
        for m in lengths:
            ref = [make_words(rng, vocab, 8, 24) for _ in range(m)]
            for words in ref:
                words[-1] += rng.choice("...!?")
            ref_docs.append(ref)
            hyp_docs.append([self._corrupt(rng, vocab, words) for words in ref])

        labels = []
        label_counts = Counter()
        hits = Counter()
        for index, (ref, hyp) in enumerate(zip(ref_docs, hyp_docs)):
            ref_tokens = [t for words in ref for t in sentence_tokens(words)]
            out_tokens = [t for words in hyp for t in sentence_tokens(words)]
            alpha = len(out_tokens) / len(ref_tokens)
            word_positions = [p for p, t in enumerate(ref_tokens) if t.isalpha()]
            for j, position in enumerate(sorted(rng.sample(word_positions, LABELS_PER_DOC))):
                category = CATEGORIES[j] if index == 0 and j < 3 else rng.choice(CATEGORIES)
                word = ref_tokens[position]
                labels.append({"doc_id": f"{index:06d}", "word": word,
                               "position": position, "category": category})
                label_counts[category] += 1
                lo = max(0, math.floor(alpha * position - SPAN_RADIUS))
                hi = min(len(out_tokens) - 1, math.ceil(alpha * position + SPAN_RADIUS))
                hits[category] += word in out_tokens[lo:hi + 1]

        span_values = {CATEGORY_METRIC[c]: 100.0 * hits[c] / label_counts[c] for c in CATEGORIES}
        expected = {
            "s-BLEU": reference_bleu(
                [sentence_tokens(w) for doc in hyp_docs for w in doc],
                [sentence_tokens(w) for doc in ref_docs for w in doc]),
            "d-BLEU": reference_bleu(
                [[t for w in doc for t in sentence_tokens(w)] for doc in hyp_docs],
                [[t for w in doc for t in sentence_tokens(w)] for doc in ref_docs]),
            "spans": {CATEGORY_METRIC[c]: [hits[c], label_counts[c]] for c in CATEGORIES},
            "TCP": (span_values["TC"] * span_values["CP"] * span_values["PT"]) ** (1.0 / 3.0),
        }
        out.mkdir(parents=True)
        for name, docs in (("ref.txt", ref_docs), ("hyp.txt", hyp_docs)):
            text = "\n\n".join("\n".join(" ".join(words) for words in doc) for doc in docs)
            (out / name).write_text(text + "\n", encoding="utf-8", newline="\n")
        write_jsonl(out / "labels.jsonl", labels)
        (out / "expected.json").write_text(json.dumps(expected), encoding="utf-8")
        return expected

    @staticmethod
    def _corrupt(rng, vocab, words):
        """Seeded token-level noise: substitutions, deletions, insertions.
        Sentence-final punctuation and the sentence count are kept."""
        out = []
        for word in words[:-1]:
            draw = rng.random()
            if draw < 0.04:
                continue
            out.append(rng.choice(vocab) if draw < 0.12 else word)
            if draw > 0.96:
                out.append(rng.choice(vocab))
        out.append(words[-1])
        return out

    def steps(self, inputs: Path, run: Path, expected: dict) -> list[list[str]]:
        hyp_ref = ["--hyp", str(inputs / "hyp.txt"), "--ref", str(inputs / "ref.txt")]
        return [
            ["bleu", *hyp_ref, "--level", "sent", "--out", str(run / "sbleu.jsonl")],
            ["bleu", *hyp_ref, "--level", "doc", "--out", str(run / "dbleu.jsonl")],
            ["tcp", *hyp_ref, "--labels", str(inputs / "labels.jsonl"),
             "--out", str(run / "tcp.jsonl")],
            ["report", str(run / "dbleu.jsonl"), str(run / "tcp.jsonl"),
             "--out", str(run / "table.txt")],
        ]

    def checks(self, expected: dict, run: Path, seed: int) -> list[Check]:
        def value(path: str, name: str) -> dict:
            rows = {r["name"]: r for r in read_jsonl(run / path)}
            expect(name in rows, f"{path} has no {name} record")
            return rows[name]

        def bleu() -> None:
            for path, name in (("sbleu.jsonl", "s-BLEU"), ("dbleu.jsonl", "d-BLEU")):
                got = value(path, name)["value"]
                expect(close(got, expected[name]), f"{name} = {got}, expected {expected[name]}")

        def spans() -> None:
            for name, (hits, count) in expected["spans"].items():
                row = value("tcp.jsonl", name)
                expect(row["denominator"] == count,
                       f"{name} denominator {row['denominator']}, {count} labels")
                expect(row["numerator"] == hits, f"{name} numerator {row['numerator']}, expected {hits}")
            got = value("tcp.jsonl", "TCP")["value"]
            expect(close(got, expected["TCP"]), f"TCP = {got}, expected {expected['TCP']}")

        def table() -> None:
            lines = (run / "table.txt").read_text(encoding="utf-8").splitlines()
            rows = {line.split()[0]: line.split() for line in lines[1:]}
            spans = expected["spans"]
            tc, cp, pt = (100.0 * spans[k][0] / spans[k][1] for k in ("TC", "CP", "PT"))
            want = {
                "dbleu": ["dbleu", f"{expected['d-BLEU']:.2f}", "-", "-", "-", "-"],
                "tcp": ["tcp", "-", f"{tc:.1f}", f"{cp:.1f}", f"{pt:.1f}",
                        f"{(tc * cp * pt) ** (1.0 / 3.0):.1f}"],
            }
            expect(rows == want, f"report table {rows}, expected {want}")

        checks = [("bleu.values", bleu), ("tcp.counts", spans), ("report.table", table)]
        pinned = json.loads(PINNED_FILE.read_text(encoding="utf-8"))
        if seed == pinned["seed"]:
            def pins() -> None:
                for path, name in (("sbleu.jsonl", "s-BLEU"), ("dbleu.jsonl", "d-BLEU"),
                                   ("tcp.jsonl", "TCP")):
                    got = value(path, name)["value"]
                    expect(got == pinned[name], f"{name} = {got}, pinned {pinned[name]}")
            checks.append(("score.pinned", pins))
        return checks


# --------------------------------------------------------------------- probe

PROBE_DOCS = 2000
PROBE_INSTANCES = 20000
PHENOMENA = ("deixis", "lex_cohesion", "ellipsis_infl", "ellipsis_vp")
TIE_SHARE = 0.1
LOSS_SHARE = 0.2


class Probe:
    """shuffle (local, global) -> contrastive, the paper's probes."""

    name = "probe"

    def generate(self, seed: int, out: Path) -> dict:
        rng = random.Random(f"probe:{seed}")
        src_vocab = make_vocab(rng, SRC_SYLLABLES)
        tgt_vocab = make_vocab(rng, TGT_SYLLABLES)
        records = []
        for index, m in enumerate(long_tail_lengths(PROBE_DOCS, rng)):
            records.append({
                "doc_id": f"p{index:05d}",
                "src": [" ".join(make_words(rng, src_vocab, 3, 20)) + "." for _ in range(m)],
                "tgt": [" ".join(make_words(rng, tgt_vocab, 3, 20)) + "." for _ in range(m)],
            })

        instances, scores = [], []
        wins, totals = Counter(), Counter()
        for index in range(PROBE_INSTANCES):
            instance_id = f"i{index:06d}"
            positive = make_words(rng, tgt_vocab, 4, 14)
            candidates = [" ".join(positive)]
            n_candidates = rng.randint(2, 4)
            while len(candidates) < n_candidates:
                negative = list(positive)
                negative[rng.randrange(len(negative))] = rng.choice(tgt_vocab)
                text = " ".join(negative)
                if text not in candidates:
                    candidates.append(text)
            rng.shuffle(candidates)
            positive_index = candidates.index(" ".join(positive))
            phenomenon = rng.choice(PHENOMENA)
            instances.append({
                "instance_id": instance_id,
                "source": " ".join(make_words(rng, src_vocab, 4, 14)) + ".",
                "candidates": candidates,
                "positive_index": positive_index,
                "phenomenon": phenomenon,
            })
            # Scores are multiples of 1/1000 apart by at least 0.5, so the
            # intended ranking survives rounding; a tie is an exact copy.
            best = round(rng.uniform(-80.0, -5.0), 3)
            negatives = [round(best - rng.uniform(0.5, 10.0), 3)
                         for _ in range(len(candidates) - 1)]
            outcome = rng.random()
            if outcome < TIE_SHARE:
                negatives[rng.randrange(len(negatives))] = best
            elif outcome < TIE_SHARE + LOSS_SHARE:
                negatives[rng.randrange(len(negatives))] = round(best + rng.uniform(0.5, 5.0), 3)
            else:
                wins[phenomenon] += 1
            totals[phenomenon] += 1
            rest = iter(negatives)
            for i in range(len(candidates)):
                score = best if i == positive_index else next(rest)
                scores.append({"instance_id": instance_id, "candidate_index": i, "score": score})

        wins["overall"] = sum(wins[p] for p in PHENOMENA)
        totals["overall"] = PROBE_INSTANCES
        out.mkdir(parents=True)
        write_jsonl(out / "corpus.jsonl", records)
        write_jsonl(out / "instances.jsonl", instances)
        write_jsonl(out / "scores.jsonl", scores)
        expected = {
            "accuracy": {p: [wins[p], totals[p]] for p in totals},
            "local_seed": seed * 2 + 1,
            "global_seed": seed * 2 + 2,
        }
        # The expected unshuffled corpus is the input corpus itself.
        (out / "expected.json").write_text(json.dumps(expected), encoding="utf-8")
        return dict(expected, corpus=records)

    def steps(self, inputs: Path, run: Path, expected: dict) -> list[list[str]]:
        corpus = str(inputs / "corpus.jsonl")
        return [
            ["shuffle", "--in", corpus, "--out", str(run / "local.jsonl"), "--mode", "local",
             "--seed", str(expected["local_seed"])],
            ["shuffle", "--in", corpus, "--out", str(run / "global.jsonl"), "--mode", "global",
             "--seed", str(expected["global_seed"])],
            ["contrastive", "--instances", str(inputs / "instances.jsonl"),
             "--scores", str(inputs / "scores.jsonl"), "--out", str(run / "accuracy.jsonl")],
        ]

    def checks(self, expected: dict, run: Path, seed: int) -> list[Check]:
        original = expected["corpus"]

        def unshuffled(mode: str) -> None:
            shuffled = read_jsonl(run / f"{mode}.jsonl")
            perms = read_jsonl(run / f"{mode}.jsonl.perm.jsonl")
            expect(len(shuffled) == len(original) == len(perms),
                   f"{mode}: {len(shuffled)} documents and {len(perms)} records "
                   f"for {len(original)} inputs")
            restored = {doc["doc_id"]: [None] * len(doc["src"]) for doc in original}
            for doc, before, perm in zip(shuffled, original, perms):
                expect(doc["doc_id"] == before["doc_id"] == perm["doc_id"],
                       f"{mode}: document order changed at {before['doc_id']}")
                expect(doc["tgt"] == before["tgt"], f"{mode}: target of {doc['doc_id']} changed")
                expect(len(perm["mapping"]) == len(doc["src"]),
                       f"{mode}: record of {doc['doc_id']} has the wrong length")
                if mode == "local":
                    indices = [i for _, i in perm["mapping"]]
                    expect(all(d == doc["doc_id"] for d, _ in perm["mapping"]),
                           f"local: {doc['doc_id']} took a sentence from another document")
                    expect(len(indices) < 2 or indices != sorted(indices),
                           f"local: {doc['doc_id']} was left in its original order")
                for sentence, (doc_id, i) in zip(doc["src"], perm["mapping"]):
                    expect(restored[doc_id][i] is None, f"{mode}: slot {doc_id}:{i} filled twice")
                    restored[doc_id][i] = sentence
            for doc in original:
                expect(restored[doc["doc_id"]] == doc["src"],
                       f"{mode}: unshuffling does not restore {doc['doc_id']}")

        def accuracy() -> None:
            got = {r["name"]: [r["numerator"], r["denominator"]]
                   for r in read_jsonl(run / "accuracy.jsonl")}
            expect(got == expected["accuracy"],
                   f"contrastive counts {got}, expected {expected['accuracy']}")

        return [("shuffle.local", lambda: unshuffled("local")),
                ("shuffle.global", lambda: unshuffled("global")),
                ("contrastive.wins", accuracy)]
