import contextlib
import io
import json
import random
import time
from collections import Counter

import pytest

from docmt import (
    AlignmentScore,
    Document,
    ParallelCorpus,
    ParallelDocument,
    clean_corpus,
    deduplicate,
    ensure_terminal_punctuation,
    filter_by_alignment,
    segment_sentences,
)
from docmt.cli import dispatch
from docmt.corpus import encode_record, write_jsonl, write_records
from docmt.pipeline import (
    DEFAULT_GUARDS,
    DEFAULT_QUOTE_CLOSERS,
    DEFAULT_TERMINALS,
    CleanReport,
    _score_table,
    clean_records,
    read_alignment_scores,
    read_score_table,
)
from helpers import (
    VOCAB,
    make_corpus,
    naive_alignment_filtered,
    naive_deduplicated,
    naive_split_paragraph,
    random_corpus,
    score_rows,
    score_view,
)


def pair(doc_id, src, tgt=None):
    tgt = tgt if tgt is not None else tuple(f"t{i}" for i in range(len(src)))
    return ParallelDocument(Document(doc_id, src), Document(doc_id, tgt))


class TestDeduplicate:
    def test_exact_duplicate_keeps_earlier(self):
        corpus = ParallelCorpus((pair("d0", ("same text.",)), pair("d1", ("same text.",))))
        cleaned, removed = deduplicate(corpus)
        assert [d.doc_id for d in cleaned] == ["d0"]
        assert removed == ["d1"]

    def test_case_and_space_runs_normalize_away(self):
        # By hand: lowercase + whitespace collapse make the fingerprints equal.
        corpus = ParallelCorpus(
            (pair("d0", ("The  CAT sat.",)), pair("d1", ("the cat SAT.",)))
        )
        cleaned, removed = deduplicate(corpus)
        assert [d.doc_id for d in cleaned] == ["d0"]
        assert removed == ["d1"]

    def test_punctuation_still_distinguishes(self):
        corpus = ParallelCorpus((pair("d0", ("stop.",)), pair("d1", ("stop!",))))
        cleaned, removed = deduplicate(corpus)
        assert len(cleaned) == 2 and removed == []

    def test_distinct_corpus_unchanged(self):
        corpus = make_corpus([2, 3, 1])
        cleaned, removed = deduplicate(corpus)
        assert cleaned.documents == corpus.documents
        assert removed == []

    def test_idempotent(self):
        rng = random.Random(3)
        for _ in range(20):
            corpus = random_corpus(rng)
            once, _ = deduplicate(corpus)
            twice, removed = deduplicate(once)
            assert twice.documents == once.documents
            assert removed == []


class TestSegmenter:
    def test_splits_after_terminals(self):
        assert segment_sentences(["A b. C d?"]) == ["A b.", "C d?"]

    def test_abbreviation_guard_suppresses_split(self):
        assert segment_sentences(["Dr. Smith left."]) == ["Dr. Smith left."]

    def test_quote_closer_extends_boundary(self):
        # Hand trace: the period closes inside the quote, then the closer
        # is attached to the first sentence before the split.
        assert segment_sentences(['He said "Go." Then left.']) == [
            'He said "Go."',
            "Then left.",
        ]

    def test_no_split_without_following_whitespace(self):
        assert segment_sentences(["about 3.5 meters tall."]) == ["about 3.5 meters tall."]

    def test_paragraph_boundaries_always_split(self):
        assert segment_sentences(["one two", "three four."]) == [
            "one two",
            "three four.",
        ]

    def test_cjk_terminals(self):
        assert segment_sentences(["你好。 再见！"]) == ["你好。", "再见！"]

    def test_guard_requires_token_boundary(self):
        assert segment_sentences(["He met Endr. Then left."]) == [
            "He met Endr.",
            "Then left.",
        ]

    def test_non_space_characters_preserved(self):
        rng = random.Random(5)
        pieces = ["a", "b.", "!", "?", '"', "c", " ", "。", "d'", "..."]
        for _ in range(200):
            paragraph = "".join(rng.choice(pieces) for _ in range(rng.randint(1, 40)))
            out = segment_sentences([paragraph])
            assert Counter("".join(out).replace(" ", "")) == Counter(
                paragraph.replace(" ", "")
            )

    def test_time_grows_linearly_with_one_paragraph(self):
        # Copying the text up to each boundary made this quadratic: 8 times
        # the text took about 30 times as long.
        def best_of_3(n):
            paragraph = "a b. " * n
            times = []
            for _ in range(3):
                start = time.perf_counter()
                segment_sentences([paragraph])
                times.append(time.perf_counter() - start)
            return min(times)

        short, long = best_of_3(20_000), best_of_3(160_000)
        assert long < 20 * short, (short, long)


# Pieces of the texts compared with the reference segmenter: every
# terminal, closer and guard, each guard without its final ".", the
# whitespace whose class decides a boundary or a guard (ASCII, the C0
# separators U+001C-U+001F, no-break, line separator, ideographic), and
# letters.
SEGMENTER_PIECES = (
    sorted(DEFAULT_TERMINALS)
    + sorted(DEFAULT_QUOTE_CLOSERS)
    + list(DEFAULT_GUARDS)
    + [guard[:-1] for guard in DEFAULT_GUARDS]
    + [" ", "\t", "\n", "\x1c", "\x1d", "\x1e", "\x1f", "\xa0", "\u2028", "\u3000"]
    + ["a", "Bc"]
)


class TestSegmenterOracle:
    def test_matches_reference_segmenter(self):
        rng = random.Random(17)
        for _ in range(100_000):
            text = "".join(rng.choices(SEGMENTER_PIECES, k=rng.randint(0, 12)))
            assert segment_sentences([text]) == naive_split_paragraph(text), repr(text)

    def test_every_code_point_after_a_terminal(self):
        # The code point after a "." decides whether the "." ends a sentence.
        for first in range(0, 0x110000, 64):
            text = " ".join(f"a.{chr(c)}b" for c in range(first, first + 64))
            assert segment_sentences([text]) == naive_split_paragraph(text), hex(first)

    def test_every_code_point_before_a_guard(self):
        # The code point before "Dr." decides whether it is a guard. Every
        # whitespace code point lies below U+10000, so the texts stop there.
        assert not any(chr(c).isspace() for c in range(0x10000, 0x110000))
        for first in range(0, 0x10000, 64):
            text = " ".join(f"a.{chr(c)}Dr." for c in range(first, first + 64))
            assert segment_sentences([text]) == naive_split_paragraph(text), hex(first)


class TestEnsureTerminalPunctuation:
    def test_appends_filler(self):
        doc = Document("d0", ("hello",))
        assert ensure_terminal_punctuation(doc).sentences == ("hello.",)

    def test_terminal_sentence_unchanged(self):
        doc = Document("d0", ("hello.",))
        assert ensure_terminal_punctuation(doc).sentences == ("hello.",)

    def test_configured_filler(self):
        doc = Document("d0", ("你好",))
        assert ensure_terminal_punctuation(doc, filler="。").sentences == ("你好。",)

    def test_quote_closer_counts_as_terminal(self):
        doc = Document("d0", ('he said "go"',))
        assert ensure_terminal_punctuation(doc).sentences == ('he said "go"',)

    def test_idempotent(self):
        rng = random.Random(9)
        for _ in range(20):
            doc = random_corpus(rng)[0].source
            once = ensure_terminal_punctuation(doc)
            assert ensure_terminal_punctuation(once) == once

    def test_filler_must_be_terminal(self):
        with pytest.raises(ValueError, match="filler"):
            ensure_terminal_punctuation(Document("d0", ("hi",)), filler=",")


class TestAlignmentFilter:
    def corpus(self):
        return ParallelCorpus(
            (
                pair("d0", ("a", "b")),
                pair("d1", ("c", "d")),
                pair("d2", ("e", "f")),
            )
        )

    def scores(self, values):
        return [
            AlignmentScore(doc_id, i, value)
            for doc_id, pair_values in values.items()
            for i, value in enumerate(pair_values)
        ]

    def test_strictly_below_threshold_removes_document(self):
        corpus = ParallelCorpus((pair("d0", ("a", "b")),))
        kept, removed = filter_by_alignment(
            corpus, self.scores({"d0": [0.9, 0.39]}), threshold=0.40
        )
        assert len(kept) == 0
        assert removed == {"d0": [1]}

    def test_exact_threshold_is_kept(self):
        corpus = ParallelCorpus((pair("d0", ("a", "b")),))
        kept, removed = filter_by_alignment(
            corpus, self.scores({"d0": [0.40, 0.40]}), threshold=0.40
        )
        assert [d.doc_id for d in kept] == ["d0"]
        assert removed == {}

    def test_survivors_keep_order_and_content(self):
        corpus = self.corpus()
        kept, removed = filter_by_alignment(
            corpus,
            self.scores({"d0": [1.0, 0.8], "d1": [0.9, 0.1], "d2": [0.5, 0.41]}),
        )
        assert [d.doc_id for d in kept] == ["d0", "d2"]
        assert kept[0] == corpus[0] and kept[1] == corpus[2]
        assert removed == {"d1": [1]}

    def test_missing_score_is_an_error(self):
        with pytest.raises(ValueError, match="missing score.*d0.*pair 1"):
            filter_by_alignment(
                ParallelCorpus((pair("d0", ("a", "b")),)),
                [AlignmentScore("d0", 0, 0.9)],
            )

    def test_unknown_pair_is_an_error(self):
        with pytest.raises(ValueError, match="unknown pair"):
            filter_by_alignment(
                ParallelCorpus((pair("d0", ("a",)),)),
                [AlignmentScore("d0", 0, 0.9), AlignmentScore("d0", 1, 0.9)],
            )

    def test_unknown_document_is_an_error(self):
        with pytest.raises(ValueError, match=r"^score for unknown document 'dX'$"):
            filter_by_alignment(
                ParallelCorpus((pair("d0", ("a",)),)),
                [AlignmentScore("d0", 0, 0.9), AlignmentScore("dX", 0, 0.9)],
            )

    def test_a_missing_score_is_named_before_an_unknown_document(self):
        # d0's missing score is known as d0 passes; dX is known unknown
        # only after the last document.
        with pytest.raises(ValueError, match=r"^missing score for document 'd0', pair 0$"):
            filter_by_alignment(
                ParallelCorpus((pair("d0", ("a",)),)),
                [AlignmentScore("dX", 0, 0.9)],
            )

    def test_duplicate_score_is_an_error(self):
        with pytest.raises(ValueError, match="duplicate"):
            filter_by_alignment(
                ParallelCorpus((pair("d0", ("a",)),)),
                [AlignmentScore("d0", 0, 0.9), AlignmentScore("d0", 0, 0.8)],
            )

    def test_score_range_validated(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            AlignmentScore("d0", 0, 1.5)


class TestBaselineScores:
    def test_score_file_round_trip(self, tmp_path):
        scores = [AlignmentScore("d0", 0, 0.25), AlignmentScore("d1", 3, 1.0)]
        write_jsonl(tmp_path / "s.jsonl", score_rows(scores))
        assert list(read_alignment_scores(tmp_path / "s.jsonl")) == scores


class TestCleanPipeline:
    def test_stages_compose_in_order(self):
        corpus = ParallelCorpus(
            (
                pair("d0", ("hello there",), ("bonjour",)),
                pair("d1", ("HELLO  there",), ("salut",)),
                pair("d2", ("bad pair",), ("mauvais",)),
            )
        )
        scores = [AlignmentScore("d0", 0, 0.9), AlignmentScore("d2", 0, 0.1)]
        cleaned, report = clean_corpus(
            corpus, dedup=True, punct_filler=".", scores=scores
        )
        assert [d.doc_id for d in cleaned] == ["d0"]
        assert cleaned[0].source.sentences == ("hello there.",)
        assert report.removed_duplicates == ["d1"]
        assert report.removed_misaligned == {"d2": [0]}

    def test_segment_stage_resegments_both_sides(self):
        corpus = ParallelCorpus((pair("d0", ("A b. C d?",), ("X y. Z w!",)),))
        cleaned, _ = clean_corpus(corpus, segment=True)
        assert cleaned[0].source.sentences == ("A b.", "C d?")
        assert cleaned[0].target.sentences == ("X y.", "Z w!")
        assert cleaned[0].aligned

    def test_segment_stage_drops_documents_it_unaligns(self):
        corpus = ParallelCorpus(
            (
                pair("d0", ("p q.",), ("r s.",)),
                pair("d1", ("P  Q.",), ("t u.",)),
                pair("d2", ("A b. C d.",), ("X y Z w.",)),
                pair("d3", ("e f.",), ("g h.",)),
                pair("d4", ("E f.", "G h."), ("Y z W v.",)),
            )
        )
        scores = [AlignmentScore("d0", 0, 0.9), AlignmentScore("d3", 0, 0.1)]
        cleaned, report = clean_corpus(corpus, dedup=True, segment=True, scores=scores)
        # d4 was unaligned on input, so it passes through.
        assert [d.doc_id for d in cleaned] == ["d0", "d4"]
        assert report.removed_unaligned == ["d2"]
        assert report.records() == [
            {"stage": "deduplicate", "doc_id": "d1"},
            {"stage": "segment", "doc_id": "d2"},
            {"stage": "alignment-filter", "doc_id": "d3", "pair_indices": [0]},
        ]

    def test_report_records_shape(self):
        corpus = ParallelCorpus((pair("d0", ("x",)), pair("d1", ("x",))))
        _, report = clean_corpus(corpus, dedup=True)
        assert report.records() == [{"stage": "deduplicate", "doc_id": "d1"}]


def near_duplicate(rng, src):
    """``src`` changed in case, in whitespace runs, in where its sentences
    break (all of which dedup normalizes away), or in punctuation (which
    it does not)."""
    words = " ".join(src).split()
    kinds = rng.sample(["case", "space", "split", "punct"], rng.randint(1, 2))
    if "case" in kinds:
        words = [w.upper() if rng.random() < 0.4 else w.title() for w in words]
    if "punct" in kinds:
        i = rng.randrange(len(words))
        words[i] = words[i].rstrip(".!?") + rng.choice([",", "!", "?", ";"])
    cut = rng.randint(1, len(words)) if "split" in kinds else len(words)
    parts = [words[:cut], words[cut:]] if cut < len(words) else [words]
    gap = (lambda: rng.choice(["  ", "\t", " \u3000 "])) if "space" in kinds else (lambda: " ")
    return tuple(gap().join(part) + (" " if "space" in kinds else "") for part in parts)


def oracle_case(rng):
    """Documents with near-duplicates, a score file written document by
    document as an aligner writes it (or, in about 30% of cases, its
    rows shuffled across documents), a threshold, and some of these
    faults: a pair scored twice, a score for an unknown document or an
    unknown pair, a missing score, a threshold out of [0, 1]; returned
    with the names of the faults put in."""
    documents = []
    for i in range(rng.randint(1, 8)):
        if documents and rng.random() < 0.35:
            src = near_duplicate(rng, rng.choice(documents).source.sentences)
        else:
            src = tuple(
                " ".join(rng.choice(VOCAB) for _ in range(rng.randint(1, 4))) + "."
                for _ in range(rng.randint(1, 4))
            )
        n_tgt = len(src) if rng.random() < 0.8 else rng.randint(1, 4)
        tgt = tuple(f"t{i} {j}." for j in range(n_tgt))
        documents.append(ParallelDocument.of(f"d{i}", src, tgt))
    survivors = list(naive_deduplicated((d.record for d in documents), []))
    groups = []
    faults = []
    for record in rng.sample(survivors, len(survivors)):
        n_pairs = len(record.src) if record.aligned else 0
        rows = [(record.doc_id, i, rng.choice([0.0, 0.2, 0.39, 0.4, 0.41, 0.8, 1.0]))
                for i in rng.sample(range(n_pairs), n_pairs)]
        groups.append(rows)
    if rng.random() < 0.15:  # an unknown document: one dedup removed, or none at all
        known = {r.doc_id for r in survivors}
        doc_id = rng.choice([d.doc_id for d in documents if d.doc_id not in known] + ["zz"])
        groups.insert(rng.randint(0, len(groups)),
                      [(doc_id, i, 0.9) for i in range(rng.randint(1, 2))])
        faults.append("unknown document")
    if rng.random() < 0.15:  # an unknown pair, among its document's scores
        record = rng.choice(survivors)
        n_pairs = len(record.src) if record.aligned else 0
        row = (record.doc_id, n_pairs + rng.randint(0, 2), 0.9)
        group = next((g for g in groups if g and g[0][0] == record.doc_id), None)
        if group is None:
            groups.insert(rng.randint(0, len(groups)), [row])
        else:
            group.insert(rng.randint(0, len(group)), row)
        faults.append("unknown pair")
    if rng.random() < 0.2 and any(groups):  # a missing score
        group = rng.choice([g for g in groups if g])
        del group[rng.randrange(len(group))]
        faults.append("missing")
    rows = [row for group in groups for row in group]
    if rng.random() < 0.3:
        rng.shuffle(rows)
    if rng.random() < 0.15 and rows:  # a pair scored twice, the second time anywhere later
        i = rng.randrange(len(rows))
        rows.insert(rng.randint(i + 1, len(rows)), rows[i][:2] + (rng.random(),))
        faults.append("duplicate")
    threshold = rng.choice([0.0, 0.4, 0.4, 0.5, 1.0])
    if rng.random() < 0.08:
        threshold = rng.choice([-0.1, 1.5])
        faults.append("threshold")
    return documents, [AlignmentScore(*row) for row in rows], threshold, faults


def drained(stream):
    """The records ``stream`` yields, and the message it raises, if any."""
    kept = []
    try:
        for record in stream:
            kept.append(record)
    except ValueError as exc:
        return kept, str(exc)
    return kept, None


FAULTS = {
    "threshold": "threshold out of",
    "duplicate": "duplicate score",
    "unknown document": "score for unknown document",
    "unknown pair": "score for unknown pair",
    "missing": "missing score",
}


class TestCompactCleanOracle:
    """The digest dedup and the per-document score table against the
    oracles that kept each normalized text and a key per scored pair."""

    def test_matches_oracles_on_seeded_cases(self):
        rng = random.Random(11)
        first = Counter()
        for _ in range(2000):
            documents, scores, threshold, faults = oracle_case(rng)
            report = CleanReport()
            got = drained(clean_records(
                (d.record for d in documents), report, dedup=True,
                scores=lambda: _score_table(scores), threshold=threshold,
            ))
            expected_report = CleanReport()
            expected = drained(naive_alignment_filtered(
                naive_deduplicated(
                    (d.record for d in documents), expected_report.removed_duplicates
                ),
                scores, threshold, expected_report.removed_misaligned,
            ))
            assert got == expected, (documents, scores, threshold)
            assert report.records() == expected_report.records()
            message = expected[1]
            first[next((k for k, v in FAULTS.items() if message and message.startswith(v)),
                       "none")] += 1
            first["several faults"] += len(faults) > 1
        assert all(first[fault] > 100 for fault in FAULTS), first
        assert first["none"] > 100 and first["several faults"] > 100, first

    def test_matches_oracles_through_the_cli(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rng = random.Random(12)
        for _ in range(200):
            documents, scores, threshold, _ = oracle_case(rng)
            for name in ("out.jsonl", "out.jsonl.manifest.json", "removed.jsonl"):
                (tmp_path / name).unlink(missing_ok=True)
            write_records(ParallelCorpus(tuple(documents)), "in.jsonl")
            write_jsonl("s.jsonl", score_rows(scores))
            report = CleanReport()
            kept, message = drained(naive_alignment_filtered(
                naive_deduplicated((d.record for d in documents), report.removed_duplicates),
                scores, threshold, report.removed_misaligned,
            ))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = dispatch(["clean", "--in", "in.jsonl", "--out", "out.jsonl", "--dedup",
                                 "--align-scores", "s.jsonl",
                                 "--align-threshold", str(threshold),
                                 "--report", "removed.jsonl"])
            if message is None:
                assert (code, err.getvalue()) == (0, "")
                assert out.getvalue() == (
                    f"kept {len(kept)} of {len(documents)} documents "
                    f"({len(report.removed_duplicates)} duplicate, 0 unaligned, "
                    f"{len(report.removed_misaligned)} misaligned)\n"
                )
                lines = (tmp_path / "out.jsonl").read_text(encoding="utf-8")
                assert lines == "".join(map(encode_record, kept))
                assert list(read_jsonl_rows(tmp_path / "removed.jsonl")) == report.records()
                continue
            if message.startswith("threshold"):
                expected = f"error: {message}\n"
            elif message.startswith("duplicate"):
                keys = [(s.doc_id, s.pair_index) for s in scores]
                line = next(i for i, key in enumerate(keys) if key in keys[:i]) + 1
                expected = (f"error: s.jsonl: malformed score on line {line}: "
                            f"duplicate score for {keys[line - 1]}\n")
            else:
                expected = f"error: in.jsonl, s.jsonl: {message}\n"
            assert (code, out.getvalue(), err.getvalue()) == (1, "", expected)
            assert not (tmp_path / "out.jsonl").exists()

    def test_unclaimed_scores_are_reported_by_document(self):
        # d0's unclaimed pair is known as d0 passes, and the unknown dX only
        # after the last document, though dX's line precedes that pair's.
        scores = [AlignmentScore("d0", 0, 0.9), AlignmentScore("dX", 0, 0.9),
                  AlignmentScore("d0", 1, 0.9)]
        with pytest.raises(ValueError, match=r"^score for unknown pair 1 of document "
                                             r"'d0' \(1 pairs\)$"):
            filter_by_alignment(ParallelCorpus((pair("d0", ("a",)),)), scores)

    def test_cli_table_is_the_library_table(self, tmp_path):
        rng = random.Random(13)
        for _ in range(50):
            _, scores, _, _ = oracle_case(rng)
            keys = [(s.doc_id, s.pair_index) for s in scores]
            if len(set(keys)) < len(keys):
                continue
            write_jsonl(tmp_path / "s.jsonl", score_rows(scores))
            table = read_score_table(tmp_path / "s.jsonl")
            # Through the view: arrays with a gap hold NaN, which equals nothing.
            assert score_view(table) == score_view(_score_table(scores))
            assert list(table) == list(dict.fromkeys(s.doc_id for s in scores))


def read_jsonl_rows(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def clean_scored(rows, corpus):
    """``clean --align-scores`` on ``corpus`` in the working directory, with
    a score file of ``rows``: the exit code, stdout and stderr."""
    write_records(corpus, "in.jsonl")
    write_jsonl("s.jsonl", rows)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(["clean", "--in", "in.jsonl", "--out", "out.jsonl",
                         "--align-scores", "s.jsonl", "--report", "removed.jsonl"])
    return code, out.getvalue(), err.getvalue()


class TestScoreOrder:
    """Scores may come in any order; the order changes no output, and of
    a document's unclaimed pairs the lowest is named."""

    @pytest.mark.parametrize("pairs, named", [
        ([(0, 0.9), (5, 0.9), (3, 0.9)], 3),
        ([(0, 0.9), (3, 0.9), (2, -0.0)], 2),
    ])
    def test_the_lowest_unclaimed_pair_is_named(self, pairs, named, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rows = [{"doc_id": "d0", "pair_index": i, "score": score} for i, score in pairs]
        assert clean_scored(rows, ParallelCorpus((pair("d0", ("a.",)),))) == (
            1, "", f"error: in.jsonl, s.jsonl: score for unknown pair {named} of document "
                   "'d0' (1 pairs)\n",
        )
        assert not (tmp_path / "out.jsonl").exists()

    def test_the_order_of_the_scores_changes_no_output(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rng = random.Random(23)
        corpus = make_corpus([rng.randint(1, 12) for _ in range(40)], rng)
        rows = [{"doc_id": d.doc_id, "pair_index": i, "score": rng.choice([0.2, 0.5, 0.9])}
                for d in corpus for i in range(len(d.source))]
        shuffled = rng.sample(rows, len(rows))
        outputs = []
        for order in (rows, rows[::-1], shuffled):
            result = clean_scored(order, corpus)
            outputs.append((result, (tmp_path / "out.jsonl").read_bytes(),
                            (tmp_path / "removed.jsonl").read_bytes()))
        assert outputs[0][0] == (0, "kept 9 of 40 documents (0 duplicate, 0 unaligned, "
                                    "31 misaligned)\n", "")
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_a_long_document_scored_backwards_is_kept(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        n = 100_000
        rows = ({"doc_id": "d0", "pair_index": i, "score": 0.5} for i in reversed(range(n)))
        corpus = ParallelCorpus((pair("d0", tuple(f"s{i}." for i in range(n))),))
        assert clean_scored(rows, corpus) == (
            0, "kept 1 of 1 documents (0 duplicate, 0 unaligned, 0 misaligned)\n", "")
