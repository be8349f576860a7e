import math
import random
import unicodedata
import warnings

import pytest

from docmt import (
    Document,
    Label,
    LabeledTestDoc,
    SpanConfig,
    TokenizerConfig,
    corpus_bleu,
    d_bleu,
    pearson,
    s_bleu,
    span_metric,
    tcp,
    tokenize,
)
from docmt import metrics
from docmt.corpus import InputError
from docmt.metrics import CATEGORIES, read_labeled_docs, span_metrics
from helpers import VOCAB, naive_bleu, naive_tokenize


class TestTokenizer:
    def test_detaches_punctuation_and_lowercases(self):
        assert tokenize("Hello, world.") == ["hello", ",", "world", "."]

    def test_empty_string(self):
        assert tokenize("") == []

    def test_whitespace_collapses(self):
        assert tokenize("A  B") == ["a", "b"]

    def test_cased_mode(self):
        cfg = TokenizerConfig(lowercase=False)
        assert tokenize("Hello, World.", cfg) == ["Hello", ",", "World", "."]

    def test_pure_punctuation_token(self):
        assert tokenize("wait !!!") == ["wait", "!", "!", "!"]

    def test_nested_closers(self):
        assert tokenize('He said "go."') == ["he", "said", '"', "go", ".", '"']

    def test_interior_punctuation_stays(self):
        assert tokenize("don't stop-go") == ["don't", "stop-go"]


# Characters by Unicode class, for the tokenizer equivalence test: letters
# (ASCII, Latin-1, Greek, Cyrillic, a lowercasing that adds a combining
# mark), digits of three kinds, CJK, every P* category, S* symbols and Mn
# combining marks.
TOKEN_CHARS = {
    "letter": "aZéßΩжİ",
    "digit": "07٣²",
    "cjk": "漢字の",
    "Pc": "_‿",
    "Pd": "-—",
    "Ps": "(「",
    "Pe": ")」",
    "Pi": "«“",
    "Pf": "»”",
    "Po": ".!¿、",
    "symbol": "+≤$€^´©☃",
    "mark": "\u0301\u0308",
}
PUNCT_CHARS = "".join(v for k, v in TOKEN_CHARS.items() if k.startswith("P"))


def random_text(rng: random.Random) -> str:
    pools = list(TOKEN_CHARS.values())
    tokens = []
    for _ in range(rng.randint(0, 8)):
        if rng.random() < 0.15:
            body = rng.choices(PUNCT_CHARS, k=rng.randint(1, 3))
        else:
            body = [rng.choice(rng.choice(pools)) for _ in range(rng.randint(1, 6))]
        tokens.append("".join(body))
    return "".join(tok + rng.choice((" ", "  ", "\t", "\n")) for tok in tokens)


class TestTokenizerEquivalence:
    def test_classes_cover_every_punctuation_category(self):
        categories = {unicodedata.category(c) for c in "".join(TOKEN_CHARS.values())}
        assert {"Pc", "Pd", "Ps", "Pe", "Pi", "Pf", "Po"} <= categories
        assert {"Sm", "Sc", "Sk", "So", "Mn", "Nd", "No", "Lo"} <= categories

    @pytest.mark.parametrize("lowercase", [True, False])
    def test_matches_reference_tokenizer(self, lowercase):
        cfg = TokenizerConfig(lowercase=lowercase)
        rng = random.Random(41)
        for _ in range(3000):
            text = random_text(rng)
            assert tokenize(text, cfg) == naive_tokenize(text, cfg), repr(text)


class TestCorpusBleu:
    def test_identity_is_exactly_100(self):
        tokens = [["the", "cat", "sat", "on", "the", "mat"]]
        assert corpus_bleu(tokens, tokens).value == 100.0

    def test_clipping_zeroes_repeated_unigrams(self):
        # Clipped unigram credit for "the" is 1 of 3; bigrams all miss,
        # so unsmoothed BLEU collapses to 0.
        report = corpus_bleu([["the", "the", "the"]], [["the", "cat"]])
        assert report.value == 0.0
        assert naive_bleu([["the", "the", "the"]], [["the", "cat"]]) == 0.0

    def test_brevity_penalty_by_hand(self):
        # All precisions are 1 at half the reference length: 100 * e^(1-2).
        hyp = [["a", "b", "c", "d"]]
        ref = [["a", "b", "c", "d", "e", "f", "g", "h"]]
        expected = 100.0 * math.exp(-1.0)
        assert corpus_bleu(hyp, ref).value == pytest.approx(expected, abs=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = random.Random(13)
        for _ in range(300):
            n_units = rng.randint(1, 4)
            hyps = [
                [rng.choice(VOCAB[:6]) for _ in range(rng.randint(0, 8))]
                for _ in range(n_units)
            ]
            refs = [
                [rng.choice(VOCAB[:6]) for _ in range(rng.randint(1, 8))]
                for _ in range(n_units)
            ]
            assert corpus_bleu(hyps, refs).value == pytest.approx(
                naive_bleu(hyps, refs), abs=1e-9
            )

    def test_invariant_under_corpus_permutation(self):
        rng = random.Random(29)
        hyps = [[rng.choice(VOCAB) for _ in range(5)] for _ in range(6)]
        refs = [[rng.choice(VOCAB) for _ in range(5)] for _ in range(6)]
        base = corpus_bleu(hyps, refs).value
        order = list(range(6))
        rng.shuffle(order)
        assert corpus_bleu([hyps[i] for i in order], [refs[i] for i in order]).value == pytest.approx(base, abs=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            corpus_bleu([["a"]], [["a"], ["b"]])

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            corpus_bleu([], [])


class TestDocumentBleu:
    def docs(self, sentence_lists):
        return [
            Document(f"d{i:03d}", tuple(sentences))
            for i, sentences in enumerate(sentence_lists)
        ]

    def test_identical_documents_score_100_both_ways(self):
        docs = self.docs([("the cat sat.", "a dog ran."), ("one more line.",)])
        assert s_bleu(docs, docs).value == 100.0
        assert d_bleu(docs, docs).value == 100.0

    def test_single_sentence_documents_make_levels_agree(self):
        hyp = self.docs([("the cat sat down.",), ("a dog ran off.",)])
        ref = self.docs([("the cat sat there.",), ("a dog ran home.",)])
        assert s_bleu(hyp, ref).value == pytest.approx(
            d_bleu(hyp, ref).value, abs=1e-12
        )

    def test_swapped_sentences_break_cross_boundary_ngrams(self):
        ref = self.docs([("the cat sat on the mat.", "then a dog ran away fast.")])
        hyp = self.docs([("then a dog ran away fast.", "the cat sat on the mat.")])
        report = d_bleu(hyp, ref)
        assert report.value < 100.0
        cfg = TokenizerConfig()
        expected = naive_bleu(
            [tokenize(hyp[0].text, cfg)], [tokenize(ref[0].text, cfg)]
        )
        assert report.value == pytest.approx(expected, abs=1e-9)
        # Sentence content itself is intact; only the ordering changed.
        assert sorted(hyp[0].sentences) == sorted(ref[0].sentences)

    def test_sentence_count_mismatch_names_document(self):
        hyp = self.docs([("a.", "b."), ("c.",)])
        ref = self.docs([("a.", "b."), ("c.", "d.")])
        with pytest.raises(ValueError, match="document 1"):
            s_bleu(hyp, ref)

    def test_document_count_mismatch(self):
        with pytest.raises(ValueError, match="count mismatch"):
            d_bleu(self.docs([("a.",)]), self.docs([("a.",), ("b.",)]))

    def test_conflicting_doc_ids_are_rejected(self):
        a = Document("a", ("the cat sat.",))
        b = Document("b", ("a dog ran.",))
        message = "document 0: hypothesis doc_id 'b' conflicts with reference doc_id 'a'"
        for level in (s_bleu, d_bleu):
            with pytest.raises(ValueError, match=message):
                level([b, a], [a, b])

    def test_ordinal_default_id_pairs_with_any_id(self):
        sentences = [("the cat sat.",), ("a dog ran.",)]
        headed = [Document(i, s) for i, s in zip(("a", "b"), sentences)]
        plain = [Document(f"{i:06d}", s) for i, s in enumerate(sentences)]
        for level in (s_bleu, d_bleu):
            assert level(plain, headed).value == 100.0
            assert level(headed, plain).value == 100.0


STREAM_WORDS = VOCAB[:6] + ["cat.", "(dog", "the,"]


def random_docs(rng, sizes):
    return [
        Document(
            f"d{i}",
            tuple(
                " ".join(rng.choices(STREAM_WORDS, k=rng.randint(1, 6)))
                for _ in range(m)
            ),
        )
        for i, m in enumerate(sizes)
    ]


class TestStreamedBleu:
    @pytest.mark.parametrize("max_n", [1, 2, 3, 4, 5])
    def test_levels_match_brute_force_oracle(self, max_n):
        rng = random.Random(70 + max_n)
        cfg = TokenizerConfig()
        for _ in range(80):
            sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
            hyp = random_docs(rng, sizes)
            ref = random_docs(rng, sizes)
            sent_hyps = [naive_tokenize(s, cfg) for d in hyp for s in d.sentences]
            sent_refs = [naive_tokenize(s, cfg) for d in ref for s in d.sentences]
            assert s_bleu(hyp, ref, cfg, max_n).value == pytest.approx(
                naive_bleu(sent_hyps, sent_refs, max_n), abs=1e-9
            )
            doc_hyps = [naive_tokenize(d.text, cfg) for d in hyp]
            doc_refs = [naive_tokenize(d.text, cfg) for d in ref]
            assert d_bleu(hyp, ref, cfg, max_n).value == pytest.approx(
                naive_bleu(doc_hyps, doc_refs, max_n), abs=1e-9
            )
            # Documents are taken one at a time, so one-shot iterators do.
            for level in (s_bleu, d_bleu):
                assert level(iter(hyp), iter(ref), cfg, max_n) == level(hyp, ref, cfg, max_n)

    @pytest.mark.parametrize("max_n", [1, 2, 3, 4, 5])
    def test_errors_survive_streaming(self, max_n):
        with pytest.raises(ValueError, match="length mismatch"):
            corpus_bleu([["a"]], [["a"], ["b"]], max_n)
        for score in (corpus_bleu, s_bleu, d_bleu):
            with pytest.raises(ValueError, match="empty corpus"):
                score([], [], max_n=max_n)
            with pytest.raises(ValueError, match="max_n must be >= 1"):
                score([], [], max_n=max_n - 5)


def spaced(words):
    return " ".join(words)


class TestSpanMetric:
    def build_ref(self, doc_id, tokens, labels):
        return LabeledTestDoc(doc_id, Document(doc_id, (spaced(tokens),)), tuple(labels))

    def test_identical_output_scores_100(self):
        tokens = [f"w{i}" for i in range(50)]
        labels = [Label("w10", 10, "TENSE"), Label("w40", 40, "TENSE")]
        ref = self.build_ref("d0", tokens, labels)
        out = Document("d0", (spaced(tokens),))
        report = span_metric([out], [ref], "TENSE")
        assert report.value == 100.0
        assert report.name == "TC"
        assert (report.numerator, report.denominator) == (2, 2)

    def test_window_bounds_at_radius_20(self):
        # Equal lengths give alpha = 1, so position 100 searches [80, 120].
        tokens = [f"w{i}" for i in range(130)]
        ref = self.build_ref("d0", tokens, [Label("w100", 100, "CONJ")])
        for position, expected in [(80, 100.0), (120, 100.0), (79, 0.0), (121, 0.0)]:
            out_tokens = [f"x{i}" for i in range(130)]
            out_tokens[position] = "w100"
            report = span_metric(
                [Document("d0", (spaced(out_tokens),))], [ref], "CONJ"
            )
            assert report.value == expected, f"hit position {position}"

    def test_half_hits_by_hand(self):
        tokens = [f"w{i}" for i in range(60)]
        labels = [Label("w10", 10, "PRON"), Label("w50", 50, "PRON")]
        ref = self.build_ref("d0", tokens, labels)
        out_tokens = [f"x{i}" for i in range(60)]
        out_tokens[15] = "w10"  # inside [0, 30]
        # w50 never appears in the output at all.
        report = span_metric([Document("d0", (spaced(out_tokens),))], [ref], "PRON")
        assert report.value == 50.0

    def test_unbounded_radius_equals_presence_rate(self):
        tokens = [f"w{i}" for i in range(60)]
        labels = [
            Label("w5", 5, "TENSE"),
            Label("w30", 30, "TENSE"),
            Label("w55", 55, "TENSE"),
        ]
        ref = self.build_ref("d0", tokens, labels)
        out_tokens = [f"x{i}" for i in range(60)]
        out_tokens[59] = "w5"   # far outside [0, 25], inside the document
        out_tokens[30] = "w30"  # exact position
        out = Document("d0", (spaced(out_tokens),))
        narrow = span_metric([out], [ref], "TENSE", SpanConfig(radius_d=20))
        assert narrow.value == pytest.approx(100.0 * 1 / 3)
        wide = span_metric([out], [ref], "TENSE", SpanConfig(radius_d=10**9))
        present = sum(1 for label in labels if label.word in out_tokens)
        assert wide.value == 100.0 * present / len(labels)
        assert wide.value == pytest.approx(100.0 * 2 / 3)

    def test_adding_a_hit_never_decreases_score(self):
        tokens = [f"w{i}" for i in range(40)]
        ref = self.build_ref("d0", tokens, [Label("w20", 20, "CONJ")])
        out_tokens = [f"x{i}" for i in range(40)]
        before = span_metric([Document("d0", (spaced(out_tokens),))], [ref], "CONJ")
        out_tokens[20] = "w20"
        after = span_metric([Document("d0", (spaced(out_tokens),))], [ref], "CONJ")
        assert after.value >= before.value

    def test_missing_output_is_an_error(self):
        ref = self.build_ref("d0", ["w0"], [Label("w0", 0, "TENSE")])
        with pytest.raises(ValueError, match="missing output"):
            span_metric([Document("other", ("text",))], [ref], "TENSE")

    def test_label_word_must_match_reference_token(self):
        ref = self.build_ref("d0", ["alpha", "beta"], [Label("beta", 0, "TENSE")])
        with pytest.raises(ValueError, match="does not match"):
            span_metric([Document("d0", ("alpha beta",))], [ref], "TENSE")

    def test_label_casing_follows_tokenizer(self):
        ref = self.build_ref("d0", ["went", "home"], [Label("Went", 0, "TENSE")])
        out = Document("d0", ("went home",))
        assert span_metric([out], [ref], "TENSE").value == 100.0

    def random_case(self, rng):
        """Outputs and labeled references with, at random, a category
        without labels, a missing output, a label past the reference end
        or a label whose word is not the reference token."""
        outputs, refs = [], []
        for d in range(rng.randint(1, 4)):
            tokens = [rng.choice(VOCAB) for _ in range(rng.randint(1, 30))]
            labels = []
            for _ in range(rng.randint(0, 5)):
                position = rng.randrange(len(tokens) + (rng.random() < 0.05))
                word = tokens[position] if position < len(tokens) else "w"
                if rng.random() < 0.05:
                    word = "zz"
                labels.append(Label(word, position, rng.choice(CATEGORIES)))
            refs.append(self.build_ref(f"d{d}", tokens, labels))
            if rng.random() > 0.05:
                out = [rng.choice(VOCAB) for _ in range(rng.randint(1, 30))]
                outputs.append(Document(f"d{d}", (spaced(out),)))
        return outputs, refs

    @staticmethod
    def first_fault(outputs, refs):
        """The fault the one pass names, found apart from it: the first
        label, in reference order, that does not fit its reference; then
        the first category without labels; then the first labeled
        document, in reference order, that no output has."""
        for ref in refs:
            tokens = tokenize(ref.reference.text)
            for label in ref.labels:
                if label.position >= len(tokens):
                    return (f"label position {label.position} out of range for document "
                            f"{ref.doc_id!r} ({len(tokens)} tokens)")
                if tokens[label.position] != label.word.lower():
                    return (f"label word {label.word!r} does not match reference token "
                            f"{tokens[label.position]!r} at position {label.position} "
                            f"of document {ref.doc_id!r}")
        for category in CATEGORIES:
            if not any(label.category == category for ref in refs for label in ref.labels):
                return f"no labels of category {category!r} in the test set"
        have = {out.doc_id for out in outputs}
        for ref in refs:
            if ref.labels and ref.doc_id not in have:
                return f"missing output for labeled document {ref.doc_id!r}"
        return None

    def test_one_pass_matches_one_call_per_category(self):
        # span_metrics raises the fault it knows first, as first_fault
        # finds it, and otherwise returns what one span_metric call per
        # category returns. It reads each input once, and joins the
        # outputs by id, so one-shot iterators, with the outputs reversed,
        # give the same.
        def outcome(call):
            try:
                return call()
            except ValueError as exc:
                return str(exc)

        rng = random.Random(5)
        kinds = {}
        for _ in range(3000):
            outputs, refs = self.random_case(rng)
            cfg = SpanConfig(radius_d=rng.randint(0, 6))
            expected = self.first_fault(outputs, refs) or [
                span_metric(outputs, refs, c, cfg) for c in CATEGORIES
            ]
            assert outcome(lambda: span_metrics(outputs, refs, cfg)) == expected
            assert outcome(lambda: span_metrics(reversed(outputs), iter(refs), cfg)) == expected
            kind = "reports" if isinstance(expected, list) else expected.split(" ")[0]
            kinds[kind] = kinds.get(kind, 0) + 1
        assert kinds.keys() == {"reports", "missing", "label", "no"}, kinds
        assert min(kinds.values()) > 100, kinds

    def test_one_pass_tokenizes_each_labeled_document_once(self, monkeypatch):
        texts = []

        def counted(text, cfg=None):
            texts.append(text)
            return tokenize(text, cfg)

        monkeypatch.setattr(metrics, "tokenize", counted)
        tokens = ["he", "went", "and", "slept"]
        labels = [Label("went", 1, "TENSE"), Label("and", 2, "CONJ"), Label("he", 0, "PRON")]
        refs = [self.build_ref(f"d{d}", tokens, labels) for d in range(3)]
        outputs = [Document(f"d{d}", (f"output {d}",)) for d in range(3)]
        assert [r.denominator for r in span_metrics(outputs, refs)] == [3, 3, 3]
        assert len(texts) == 6 and len(set(texts)) == 4


class TestTcp:
    def test_matches_published_mr_row(self):
        assert tcp(56.9, 25.7, 63.9) == pytest.approx(45.4, abs=0.05)

    def test_constant_inputs(self):
        assert tcp(50.0, 50.0, 50.0) == pytest.approx(50.0, rel=1e-12)

    def test_symmetric(self):
        assert tcp(10.0, 20.0, 30.0) == pytest.approx(tcp(30.0, 10.0, 20.0), rel=1e-12)

    def test_common_rescaling_preserves_ranking(self):
        systems = [(56.9, 25.7, 63.9), (54.0, 25.5, 62.5), (46.7, 24.8, 61.5)]
        base = [tcp(*s) for s in systems]
        scaled = [tcp(*(2.5 * v for v in s)) for s in systems]
        assert sorted(range(3), key=base.__getitem__) == sorted(
            range(3), key=scaled.__getitem__
        )

    def test_a_zero_input_gives_zero_without_a_warning(self):
        # Zero is the geometric mean's value when one factor is 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for values in [(0.0, 50.0, 50.0), (50.0, 0.0, 50.0), (50.0, 50.0, 0.0),
                           (0.0, 0.0, 0.0), (-0.0, 50.0, 50.0)]:
                assert tcp(*values) == 0.0

    def test_a_negative_input_is_a_data_fault(self):
        # No span metric is negative: a negative value is refused, never
        # reinterpreted.
        with pytest.raises(InputError, match=r"^tcp inputs must not be negative, got "
                                             r"\(50\.0, -1\.0, 50\.0\)$"):
            tcp(50.0, -1.0, 50.0)


class TestPearson:
    def test_perfect_positive(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        ys = [2 * x + 3 for x in xs]
        assert pearson(xs, ys) == pytest.approx(1.0, abs=1e-9)

    def test_perfect_negative(self):
        xs = [1.0, 2.0, 3.0]
        assert pearson(xs, [-x for x in xs]) == pytest.approx(-1.0, abs=1e-9)

    def test_closed_form_half(self):
        assert pearson([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5, abs=1e-9)

    def test_affine_invariance(self):
        rng = random.Random(2)
        xs = [rng.random() for _ in range(20)]
        ys = [rng.random() for _ in range(20)]
        base = pearson(xs, ys)
        assert pearson([3 * x + 7 for x in xs], ys) == pytest.approx(base, abs=1e-9)
        assert pearson(xs, [0.5 * y - 2 for y in ys]) == pytest.approx(base, abs=1e-9)

    def test_degenerate_and_mismatched_inputs(self):
        with pytest.raises(ValueError):
            pearson([1, 1, 1], [1, 2, 3])
        with pytest.raises(ValueError):
            pearson([1, 2], [1, 2, 3])
        with pytest.raises(ValueError):
            pearson([1], [2])


class TestLabelFile:
    def test_join_against_references(self, tmp_path):
        (tmp_path / "labels.jsonl").write_text(
            '{"doc_id": "d0", "word": "went", "position": 1, "category": "TENSE"}\n'
            '{"doc_id": "d0", "word": "he", "position": 0, "category": "PRON"}\n',
            encoding="utf-8",
        )
        refs = [Document("d0", ("he went home.",)), Document("d1", ("other text.",))]
        labeled = read_labeled_docs(refs, tmp_path / "labels.jsonl")
        assert len(labeled) == 1
        assert labeled[0].doc_id == "d0"
        assert len(labeled[0].labels) == 2

    def test_unknown_document_rejected(self, tmp_path):
        (tmp_path / "labels.jsonl").write_text(
            '{"doc_id": "ghost", "word": "x", "position": 0, "category": "CONJ"}\n',
            encoding="utf-8",
        )
        with pytest.raises(InputError, match=r"^labels for unknown documents \['ghost'\]$"):
            read_labeled_docs([Document("d0", ("a.",))], tmp_path / "labels.jsonl")

    def test_bad_category_rejected(self):
        with pytest.raises(ValueError, match="category"):
            Label("w", 0, "VERB")

    def test_labels_share_the_category_strings(self, tmp_path):
        # json.loads makes a new string for each value it reads; a label
        # keeps the entry of CATEGORIES instead, so that a label file holds
        # three category strings, not one per label.
        (tmp_path / "labels.jsonl").write_text(
            "".join(
                f'{{"doc_id": "d{i}", "word": "w", "position": 0, "category": "{category}"}}\n'
                for i, category in enumerate(CATEGORIES * 2)
            ),
            encoding="utf-8",
        )
        labels = [label for doc in metrics.read_labels(tmp_path / "labels.jsonl").values()
                  for label in doc]
        assert [label.category for label in labels] == list(CATEGORIES * 2)
        assert all(label.category is CATEGORIES[i % 3] for i, label in enumerate(labels))
