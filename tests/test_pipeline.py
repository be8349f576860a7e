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
from docmt.corpus import write_jsonl
from docmt.pipeline import (
    DEFAULT_GUARDS,
    DEFAULT_QUOTE_CLOSERS,
    DEFAULT_TERMINALS,
    read_alignment_scores,
)
from helpers import make_corpus, naive_split_paragraph, random_corpus


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
        with pytest.raises(ValueError, match="unknown document"):
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
        write_jsonl(tmp_path / "s.jsonl", map(vars, scores))
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
