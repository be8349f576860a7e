import random
from collections import Counter

import pytest

from docmt import (
    Document,
    MRConfig,
    ParallelCorpus,
    ParallelDocument,
    bucket_by_length,
    build_mr_corpus,
    mr_levels,
    mr_ratio,
    oversample,
    split_document,
)
from docmt.corpus import Record
from docmt.mrsplit import MRTally, mr_records, oversample_records
from helpers import make_corpus, make_doc_pair, random_corpus


class TestLevels:
    def test_power_of_two_document(self):
        assert mr_levels(8) == [1, 2, 4, 8]

    def test_single_sentence(self):
        assert mr_levels(1) == [1]

    def test_non_power_of_two_appends_sentence_level(self):
        levels = mr_levels(6)
        assert levels == [1, 2, 4, 6]
        assert sum(levels) == 13

    def test_no_singletons_keeps_powers_only(self):
        assert mr_levels(6, MRConfig(include_singletons=False)) == [1, 2, 4]

    def test_never_exceeds_sentence_count(self):
        for m in range(1, 300):
            assert all(k <= m for k in mr_levels(m))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            mr_levels(0)


class TestSplitDocument:
    def test_eight_sentences_give_fifteen_segments(self):
        segments = split_document(make_doc_pair("d0", 8))
        assert len(segments) == 15
        by_level = Counter(s.level_k for s in segments)
        assert by_level == {1: 1, 2: 2, 4: 4, 8: 8}

    def test_single_sentence_segment_equals_document(self):
        pd = make_doc_pair("d0", 1)
        segments = split_document(pd)
        assert len(segments) == 1
        assert segments[0].source_text == pd.source.sentences[0]
        assert segments[0].target_text == pd.target.sentences[0]
        assert segments[0].sentence_span == (0, 1)

    def test_five_sentences_by_hand(self):
        # Levels 1/2/4/5; the remainder goes to the leading parts.
        segments = split_document(make_doc_pair("d0", 5))
        assert len(segments) == 12
        sizes = {
            k: [s.sentence_span[1] - s.sentence_span[0] for s in segments if s.level_k == k]
            for k in (1, 2, 4, 5)
        }
        assert sizes == {1: [5], 2: [3, 2], 4: [2, 1, 1, 1], 5: [1, 1, 1, 1, 1]}

    def test_unaligned_document_rejected(self):
        pd = ParallelDocument(Document("d0", ("a", "b")), Document("d0", ("x",)))
        with pytest.raises(ValueError, match="aligned"):
            split_document(pd)

    def test_partition_and_conservation(self):
        rng = random.Random(17)
        for _ in range(100):
            m = rng.randint(1, 64)
            pd = make_doc_pair("d0", m, rng)
            segments = split_document(pd)
            levels = mr_levels(m)
            assert len(segments) == sum(levels)
            for k in levels:
                level_segs = sorted(
                    (s for s in segments if s.level_k == k),
                    key=lambda s: s.part_index,
                )
                assert len(level_segs) == k
                # Spans are ordered, non-overlapping, and cover [0, m).
                cursor = 0
                for seg in level_segs:
                    start, end = seg.sentence_span
                    assert start == cursor and end > start
                    assert end - start in (m // k, m // k + (1 if m % k else 0))
                    cursor = end
                assert cursor == m
                joined = " ".join(s.source_text for s in level_segs)
                assert joined == " ".join(pd.source.sentences)
                joined_tgt = " ".join(s.target_text for s in level_segs)
                assert joined_tgt == " ".join(pd.target.sentences)


class TestBuildCorpus:
    def test_one_document_of_eight_sentences(self):
        built = build_mr_corpus(make_corpus([8]))
        assert len(built) == 15

    def test_single_sentence_passthrough(self):
        corpus = make_corpus([1])
        built = build_mr_corpus(corpus)
        assert len(built) == 1
        assert built[0].source.sentences == (corpus[0].source.sentences[0],)

    def test_output_order_and_ids(self):
        built = build_mr_corpus(make_corpus([2, 1]))
        assert [d.doc_id for d in built] == [
            "d000.k1.p0",
            "d000.k2.p0",
            "d000.k2.p1",
            "d001.k1.p0",
        ]

    def test_token_conservation_for_power_of_two(self):
        rng = random.Random(23)
        for level_exp in range(0, 5):
            m = 2 ** level_exp
            corpus = make_corpus([m, m], rng)
            input_tokens = sum(
                len(s.split()) for d in corpus for s in d.source.sentences
            )
            built = build_mr_corpus(corpus)
            output_tokens = sum(
                len(s.split()) for d in built for s in d.source.sentences
            )
            assert output_tokens == (level_exp + 1) * input_tokens

    def test_records_are_the_split_document_segments(self):
        # mr_records cuts its spans itself, with split_document's cuts.
        rng = random.Random(9)
        for cfg in (MRConfig(), MRConfig(include_singletons=False, joiner=" | ")):
            for _ in range(30):
                corpus = random_corpus(rng, max_sentences=40)
                tally = MRTally()
                expected = [
                    Record(f"{seg.doc_id}.k{seg.level_k}.p{seg.part_index}",
                           (seg.source_text,), (seg.target_text,), True)
                    for pd in corpus for seg in split_document(pd, cfg)
                ]
                assert list(mr_records(corpus.records(), cfg, tally)) == expected
                assert tally.ratio == mr_ratio(corpus, cfg)

    def test_deterministic(self):
        rng1, rng2 = random.Random(4), random.Random(4)
        a = build_mr_corpus(random_corpus(rng1))
        b = build_mr_corpus(random_corpus(rng2))
        assert a == b


class TestRatio:
    def test_uniform_eight_sentence_corpus(self):
        assert mr_ratio(make_corpus([8, 8, 8])) == 4.0

    def test_single_sentence_corpus(self):
        assert mr_ratio(make_corpus([1, 1])) == 1.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            mr_ratio(ParallelCorpus(()))

    def test_at_least_one_with_equality_iff_single_sentences(self):
        rng = random.Random(31)
        for _ in range(50):
            corpus = random_corpus(rng)
            ratio = mr_ratio(corpus)
            assert ratio >= 1.0
            all_single = all(len(d.source) == 1 for d in corpus)
            assert (ratio == 1.0) == all_single


class TestOversample:
    def test_factor_one_only_resuffixes_ids(self):
        corpus = make_corpus([2, 1])
        sampled = oversample(corpus, 1)
        assert [d.doc_id for d in sampled] == ["d000.r0", "d001.r0"]
        assert [d.source.sentences for d in sampled] == [
            d.source.sentences for d in corpus
        ]

    def test_two_documents_six_times(self):
        sampled = oversample(make_corpus([3, 2]), 6)
        assert len(sampled) == 12
        assert [d.doc_id for d in sampled][:7] == [
            "d000.r0", "d000.r1", "d000.r2", "d000.r3", "d000.r4", "d000.r5",
            "d001.r0",
        ]

    def test_token_count_scales_exactly(self):
        corpus = make_corpus([3, 2], random.Random(1))
        tokens = sum(len(s.split()) for d in corpus for s in d.source.sentences)
        sampled = oversample(corpus, 5)
        assert (
            sum(len(s.split()) for d in sampled for s in d.source.sentences)
            == 5 * tokens
        )

    def test_rejects_nonpositive_factor(self):
        with pytest.raises(ValueError):
            oversample(make_corpus([1]), 0)


class TestOutputIds:
    """No set of output ids is held while streaming; unique input ids must
    give unique output ids by construction."""

    ADVERSARIAL = ["a", "a.k1.p0", "a.k1", "a.r0", "a.k1.p0.r0", "a.r0.k1.p0",
                   "a.k2.p1", "a.p0", "a.k", "a.r", "a.k1.p", "a.k1.p0.k1.p0"]

    def corpus(self, ids, rng):
        return ParallelCorpus(
            tuple(make_doc_pair(i, rng.randint(1, 9), rng) for i in ids)
        )

    def assert_unique_outputs(self, corpus):
        for cfg in (MRConfig(), MRConfig(include_singletons=False)):
            ids = [r.doc_id for r in mr_records(corpus.records(), cfg, MRTally())]
            assert len(ids) == len(set(ids))
        for factor in (1, 3, 11):
            ids = [r.doc_id for r in oversample_records(corpus.records(), factor)]
            assert len(ids) == len(set(ids)) == factor * len(corpus)

    def test_adversarial_ids(self):
        self.assert_unique_outputs(self.corpus(self.ADVERSARIAL, random.Random(5)))

    def test_random_ids_built_from_suffix_pieces(self):
        rng = random.Random(17)
        pieces = ["a", ".k1", ".k2", ".k11", ".p0", ".p1", ".p10", ".r0", ".r1", "1", "0", "."]
        for _ in range(50):
            ids = {"".join(rng.choice(pieces) for _ in range(rng.randint(1, 5)))
                   for _ in range(rng.randint(1, 40))}
            self.assert_unique_outputs(self.corpus(sorted(ids), rng))


class TestBuckets:
    def doc(self, doc_id, token_counts):
        src = tuple(" ".join(f"w{i}x{j}" for j in range(n)) for i, n in enumerate(token_counts))
        tgt = tuple(f"t{i}" for i in range(len(token_counts)))
        return ParallelDocument(Document(doc_id, src), Document(doc_id, tgt))

    def test_budget_above_document_size_keeps_one_paragraph(self):
        corpus = ParallelCorpus((self.doc("d0", [3, 3, 3]),))
        buckets = bucket_by_length(corpus, [100])
        assert len(buckets[100]) == 1
        assert len(buckets[100][0].source) == 3

    def test_budget_one_isolates_every_sentence(self):
        corpus = ParallelCorpus((self.doc("d0", [2, 3, 2]),))
        buckets = bucket_by_length(corpus, [1])
        assert [len(d.source) for d in buckets[1]] == [1, 1, 1]

    def test_greedy_rule_by_hand(self):
        # Token lengths 5/5/5 under budget 10 close after two sentences.
        corpus = ParallelCorpus((self.doc("d0", [5, 5, 5]),))
        buckets = bucket_by_length(corpus, [10])
        docs = buckets[10].documents
        assert [d.doc_id for d in docs] == ["d0.b10.p0", "d0.b10.p1"]
        assert [len(d.source) for d in docs] == [2, 1]

    def test_paragraphs_never_cross_documents(self):
        corpus = ParallelCorpus((self.doc("a", [1, 1]), self.doc("b", [1, 1])))
        buckets = bucket_by_length(corpus, [100])
        assert [d.doc_id for d in buckets[100]] == ["a.b100.p0", "b.b100.p0"]

    def test_every_sentence_once_per_budget(self):
        rng = random.Random(41)
        corpus = random_corpus(rng, max_docs=5, max_sentences=12)
        buckets = bucket_by_length(corpus, [4, 16, 64])
        original = [s for d in corpus for s in d.source.sentences]
        for bucket in buckets.values():
            regrouped = [s for d in bucket for s in d.source.sentences]
            assert regrouped == original

    def test_budget_validation(self):
        corpus = make_corpus([2])
        with pytest.raises(ValueError):
            bucket_by_length(corpus, [])
        with pytest.raises(ValueError):
            bucket_by_length(corpus, [64, 32])
        with pytest.raises(ValueError):
            bucket_by_length(corpus, [0, 2])
        with pytest.raises(ValueError, match="must not repeat"):
            bucket_by_length(corpus, [8, 8])
