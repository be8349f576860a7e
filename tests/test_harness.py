import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import docmt
from docmt import (
    BigramModel,
    CandidateScore,
    ContrastiveInstance,
    ParallelCorpus,
    ParallelDocument,
    contrastive_accuracy,
    global_shuffle,
    local_shuffle,
    reference_scorer,
    unshuffle,
)
from docmt import cli
from docmt.corpus import InputError, write_jsonl, write_records
from docmt.harness import (
    IdTable,
    PermutationRecord,
    Permutations,
    global_shuffle_records,
    read_candidate_scores,
    read_instance_stream,
    read_instances,
)
from helpers import (
    make_corpus,
    naive_cmd_shuffle,
    naive_contrastive_accuracy,
    naive_global_shuffle,
    naive_local_shuffle,
    random_corpus,
)


class TestLocalShuffle:
    def test_single_sentence_documents_unchanged(self):
        corpus = make_corpus([1, 1, 1])
        shuffled, records = local_shuffle(corpus, seed=5)
        assert shuffled.documents == corpus.documents
        assert all(r.mapping == ((r.doc_id, 0),) for r in records)

    def test_same_seed_reproduces(self):
        corpus = make_corpus([4, 7, 2])
        assert local_shuffle(corpus, 99) == local_shuffle(corpus, 99)

    def test_distinct_seeds_differ(self):
        corpus = make_corpus([6])
        a, _ = local_shuffle(corpus, 1)
        b, _ = local_shuffle(corpus, 2)
        assert a != b

    def test_identity_rejected_for_multi_sentence_documents(self):
        corpus = make_corpus([2, 3, 5])
        for seed in range(30):
            shuffled, _ = local_shuffle(corpus, seed)
            for before, after in zip(corpus, shuffled):
                assert before.source.sentences != after.source.sentences

    def test_per_document_multiset_preserved_and_targets_untouched(self):
        rng = random.Random(8)
        corpus = random_corpus(rng, max_docs=5, max_sentences=10)
        shuffled, _ = local_shuffle(corpus, 7)
        for before, after in zip(corpus, shuffled):
            assert Counter(after.source.sentences) == Counter(before.source.sentences)
            assert after.target == before.target
            assert after.doc_id == before.doc_id

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            local_shuffle(ParallelCorpus(()), 0)


class TestGlobalShuffle:
    def test_single_sentence_single_document_unchanged(self):
        corpus = make_corpus([1])
        shuffled, _ = global_shuffle(corpus, 3)
        assert shuffled.documents == corpus.documents

    def test_corpus_wide_multiset_preserved(self):
        rng = random.Random(12)
        corpus = random_corpus(rng, max_docs=6, max_sentences=8)
        shuffled, _ = global_shuffle(corpus, 21)
        before = Counter(s for d in corpus for s in d.source.sentences)
        after = Counter(s for d in shuffled for s in d.source.sentences)
        assert after == before

    def test_per_document_counts_unchanged(self):
        corpus = make_corpus([3, 1, 6, 2])
        shuffled, _ = global_shuffle(corpus, 4)
        assert [len(d.source) for d in shuffled] == [3, 1, 6, 2]
        assert [d.target for d in shuffled] == [d.target for d in corpus]

    def test_sentences_migrate_across_documents(self):
        corpus = make_corpus([5, 5, 5])
        shuffled, _ = global_shuffle(corpus, 11)
        migrated = any(
            set(after.source.sentences) != set(before.source.sentences)
            for before, after in zip(corpus, shuffled)
        )
        assert migrated

    def test_same_seed_reproduces(self):
        corpus = make_corpus([4, 3])
        assert global_shuffle(corpus, 6) == global_shuffle(corpus, 6)

    def test_a_longer_second_read_is_rejected(self):
        corpus = make_corpus([2, 1])
        again = [*corpus.records(), make_corpus([1, 1, 1])[2].record]
        shuffled = global_shuffle_records(corpus.records(), again, 1, Permutations())
        with pytest.raises(InputError, match=r"^document 2 changed between two reads$"):
            list(shuffled)

    def test_round_trips_non_ascii_and_lone_surrogates(self):
        # The pool holds the sources as UTF-8 bytes; a corpus built in code
        # may hold a lone surrogate, which no file read could give.
        src = [
            ("Grüße aus Köln.", "日本語の文。", "\ud800 alone."),
            ("emoji \U0001f600.",),
            ("a\udfffb.", "ça va.", "plain."),
        ]
        corpus = ParallelCorpus(
            ParallelDocument.of(f"d{i}", sentences, [f"t{i}.{j}" for j in range(len(sentences))])
            for i, sentences in enumerate(src)
        )
        for seed in range(10):
            shuffled, records = global_shuffle(corpus, seed)
            assert Counter(s for pd in shuffled for s in pd.source.sentences) == Counter(
                s for sentences in src for s in sentences
            )
            assert unshuffle(shuffled, records) == corpus
        changed = [*corpus.records()]
        changed[2] = changed[2]._replace(src=("a\udffeb.", "ça va.", "plain."))
        shuffled = global_shuffle_records(corpus.records(), changed, 1, Permutations())
        with pytest.raises(InputError, match=r"^document 2 changed between two reads$"):
            list(shuffled)


class TestIdTable:
    """``IdTable`` numbers strings as a dict of each string to its
    insertion order does."""

    @staticmethod
    def check(ids, absent):
        table, oracle = IdTable(), {}
        for string in ids:
            earlier = oracle.get(string, -1)
            if earlier < 0:
                oracle[string] = len(oracle)
            assert table.add(string) == earlier, string
            assert 3 * len(table) <= 2 * len(table.slots)
        assert len(table) == len(oracle)
        for string, row in oracle.items():
            assert (table.get(string), table[row]) == (row, string)
        for string in absent:
            assert string not in oracle and table.get(string) == -1, string
        return table

    def test_matches_a_dict_on_seeded_id_sets(self):
        rng = random.Random(53)
        alphabet = ["a", "b", "1", "0", "é", "語", "\U0001f600", "\ud800", "\udfff", " "]
        for _ in range(300):
            pool = ["", "i1", "i10", "i100", "\ud83d", "é", "e\u0301"]
            pool += ["".join(rng.choices(alphabet, k=rng.randint(0, 4)))
                     for _ in range(rng.randint(0, 30))]
            ids = rng.choices(pool, k=rng.randint(0, 60))
            absent = [s for s in [*pool, "i", "i1000", "\udc00", "é\x00"] if s not in ids]
            self.check(ids, absent)

    def test_tells_apart_ids_of_equal_hash(self):
        class Colliding(str):
            def __hash__(self):
                return -7

        ids = [Colliding(s) for s in ["i1", "i10", "", "é", "i1", "\ud800", "i10", "x"]]
        self.check(ids, [Colliding(s) for s in ["i", "i100", "e"]])

    def test_regrows_from_the_stored_hashes(self):
        rng = random.Random(59)
        ids = [f"i{n}" for n in range(5_000)] + ["語" * n for n in range(1, 100)]
        rng.shuffle(ids)
        ids += rng.choices(ids, k=2_000)
        table = self.check(ids, ["i5000", "i-1", "語" * 100, ""])
        assert len(table.slots) == 8_192  # 8 slots at first, doubled ten times


class TestUnshuffle:
    def test_inverts_local_shuffle(self):
        rng = random.Random(31)
        for seed in range(20):
            corpus = random_corpus(rng)
            shuffled, records = local_shuffle(corpus, seed)
            assert unshuffle(shuffled, records) == corpus

    def test_inverts_global_shuffle(self):
        rng = random.Random(37)
        for seed in range(20):
            corpus = random_corpus(rng)
            shuffled, records = global_shuffle(corpus, seed)
            assert unshuffle(shuffled, records) == corpus

    def test_record_count_mismatch_rejected(self):
        corpus = make_corpus([2, 2])
        shuffled, records = local_shuffle(corpus, 1)
        with pytest.raises(ValueError, match="record count"):
            unshuffle(shuffled, records[:1])

    def test_wrong_doc_id_rejected(self):
        corpus = make_corpus([2, 2])
        shuffled, records = local_shuffle(corpus, 1)
        swapped = [records[1], records[0]]
        with pytest.raises(ValueError):
            unshuffle(shuffled, swapped)

    def test_mapping_of_the_wrong_length_rejected(self):
        corpus = make_corpus([2])
        shuffled, records = local_shuffle(corpus, 1)
        short = [PermutationRecord("d000", records[0].mapping[:1])]
        with pytest.raises(ValueError, match=r"^record for 'd000' has 1 entries for 2 sentences$"):
            unshuffle(shuffled, short)

    def test_non_bijection_rejected(self):
        corpus = make_corpus([2])
        shuffled, _ = local_shuffle(corpus, 1)
        bad = [PermutationRecord("d000", (("d000", 0), ("d000", 0)))]
        with pytest.raises(ValueError, match="bijection"):
            unshuffle(shuffled, bad)

    def test_unknown_slot_rejected(self):
        corpus = make_corpus([2])
        shuffled, _ = local_shuffle(corpus, 1)
        bad = [PermutationRecord("d000", (("d000", 0), ("ghost", 1)))]
        with pytest.raises(ValueError, match="unknown slot"):
            unshuffle(shuffled, bad)



SENTENCE_POOL = tuple(f"sentence {k}." for k in range(12))


def random_shuffle_corpus(rng):
    """0-8 documents of 1-30 source sentences drawn from a small pool, so
    strings repeat within and across documents. Some documents are
    flagged unaligned, with their own target count; some corpora carry
    metadata. No documents gives the empty-corpus error."""
    documents = []
    for d in range(0 if rng.random() < 0.05 else rng.randint(1, 8)):
        source = [rng.choice(SENTENCE_POOL) for _ in range(rng.randint(1, 30))]
        if rng.random() < 0.25:
            target = [rng.choice(SENTENCE_POOL) for _ in range(rng.randint(1, 30))]
            documents.append(ParallelDocument.of(f"doc{d}", source, target, aligned=False))
        else:
            target = [rng.choice(SENTENCE_POOL) for _ in source]
            documents.append(ParallelDocument.of(f"doc{d}", source, target))
    metadata = {"lang": "de-en", "split": str(rng.randint(0, 9))} if rng.random() < 0.5 else {}
    return ParallelCorpus(tuple(documents), metadata)


def shuffle_outcome(shuffle, corpus, seed):
    """The shuffled corpus and its records, or the message of the error."""
    try:
        return shuffle(corpus, seed)
    except ValueError as exc:
        return str(exc)


class TestShuffleOracle:
    """The shuffles stream; they must give what the reference shuffles,
    which hold the whole corpus and its slot pool, give."""

    def test_matches_reference_on_seeded_corpora(self):
        rng = random.Random(47)
        kinds = Counter()
        for _ in range(1_000):
            corpus = random_shuffle_corpus(rng)
            seed = rng.randrange(1_000)
            for shuffle, reference in (
                (local_shuffle, naive_local_shuffle), (global_shuffle, naive_global_shuffle)
            ):
                expected = shuffle_outcome(reference, corpus, seed)
                assert shuffle_outcome(shuffle, corpus, seed) == expected
            kinds["empty" if not corpus.documents else "documents"] += 1
            kinds["metadata"] += bool(corpus.metadata)
            kinds["unaligned"] += any(not pd.aligned for pd in corpus)
        assert min(kinds.values()) > 30, kinds

    def test_command_matches_reference_byte_for_byte(self, tmp_path, monkeypatch, capsys):
        rng = random.Random(53)
        for case in range(100):
            corpus = random_shuffle_corpus(rng)
            argv = ["shuffle", "--in", "in.jsonl", "--out", "out.jsonl",
                    "--mode", rng.choice(["local", "global"]), "--seed", str(rng.randrange(100))]
            results = []
            for side in ("stream", "reference"):
                work = tmp_path / f"{case}-{side}"
                work.mkdir()
                write_records(corpus, work / "in.jsonl")
                monkeypatch.chdir(work)
                if side == "reference":
                    monkeypatch.setattr(cli, "_cmd_shuffle", naive_cmd_shuffle)
                code = cli.dispatch(argv)
                monkeypatch.undo()
                files = {p.name: p.read_bytes() for p in sorted(work.iterdir())}
                results.append((code, capsys.readouterr(), files))
            assert results[0] == results[1], argv
            if corpus.documents:
                assert len(results[0][2]) == 4  # in, out, perm and manifest


def instance(iid, positive, negatives, phenomenon="deixis"):
    candidates = [positive] + list(negatives)
    return ContrastiveInstance(iid, f"source {iid}", tuple(candidates), 0, phenomenon)


def scores_for(iid, values):
    return [CandidateScore(iid, i, v) for i, v in enumerate(values)]


class TestContrastiveAccuracy:
    def test_positive_on_top_everywhere(self):
        instances = [instance(f"i{k}", "good", [f"bad{k}"]) for k in range(4)]
        scores = [s for k in range(4) for s in scores_for(f"i{k}", [1.0, -1.0])]
        results = contrastive_accuracy(instances, scores)
        assert results["deixis"].value == 100.0
        assert results["overall"].value == 100.0

    def test_tie_counts_as_incorrect(self):
        instances = [instance("i0", "good", ["bad"])]
        results = contrastive_accuracy(instances, scores_for("i0", [0.5, 0.5]))
        assert results["overall"].value == 0.0

    def test_seven_of_ten_by_enumeration(self):
        instances = []
        scores = []
        for k in range(10):
            instances.append(instance(f"i{k}", "good", ["worse", "alt"], "lex.c"))
            if k < 7:
                scores += scores_for(f"i{k}", [0.0, -1.0, -2.0])
            elif k < 9:
                scores += scores_for(f"i{k}", [-3.0, -1.0, -2.0])
            else:
                scores += scores_for(f"i{k}", [-1.0, -1.0, -2.0])  # tie
        results = contrastive_accuracy(instances, scores)
        assert results["lex.c"].value == 70.0
        assert (results["lex.c"].numerator, results["lex.c"].denominator) == (7, 10)

    def test_grouped_by_phenomenon(self):
        instances = [
            instance("i0", "a", ["b"], "deixis"),
            instance("i1", "a", ["b"], "deixis"),
            instance("i2", "a", ["b"], "ell.infl"),
        ]
        scores = (
            scores_for("i0", [1.0, 0.0])
            + scores_for("i1", [0.0, 1.0])
            + scores_for("i2", [1.0, 0.0])
        )
        results = contrastive_accuracy(instances, scores)
        assert results["deixis"].value == 50.0
        assert results["ell.infl"].value == 100.0
        assert results["overall"].value == pytest.approx(100.0 * 2 / 3)

    def test_invariant_under_increasing_transform(self):
        instances = [
            instance("i0", "a", ["b", "c"]),
            instance("i1", "a", ["b", "c"]),
        ]
        scores = scores_for("i0", [0.3, 0.1, 0.2]) + scores_for("i1", [-2.0, -1.0, -3.0])
        base = contrastive_accuracy(instances, scores)["overall"].value
        warped = [
            CandidateScore(s.instance_id, s.candidate_index, math.exp(3 * s.score))
            if s.instance_id == "i0"
            else s
            for s in scores
        ]
        assert contrastive_accuracy(instances, warped)["overall"].value == base

    def test_missing_duplicate_and_unknown_scores_rejected(self):
        instances = [instance("i0", "a", ["b"])]
        with pytest.raises(ValueError, match="missing score"):
            contrastive_accuracy(instances, scores_for("i0", [1.0]))
        with pytest.raises(ValueError, match="duplicate"):
            contrastive_accuracy(
                instances, scores_for("i0", [1.0, 0.0]) + [CandidateScore("i0", 0, 1.0)]
            )
        with pytest.raises(ValueError, match="unknown instance"):
            contrastive_accuracy(instances, scores_for("ghost", [1.0, 0.0]))
        with pytest.raises(ValueError, match="unknown candidate"):
            contrastive_accuracy(
                instances, scores_for("i0", [1.0, 0.0]) + [CandidateScore("i0", 5, 1.0)]
            )

    def test_a_repeated_instance_id_is_named(self):
        instances = [instance("i0", "a", ["b"]), instance("i0", "c", ["d"])]
        with pytest.raises(ValueError, match=r"^duplicate instance_id 'i0'$"):
            contrastive_accuracy(instances, [])

    def test_instance_validation(self):
        with pytest.raises(ValueError, match="at least 2"):
            ContrastiveInstance("i0", "src", ("only",), 0, "deixis")
        with pytest.raises(ValueError, match="duplicate"):
            ContrastiveInstance("i0", "src", ("same", "same"), 0, "deixis")
        with pytest.raises(ValueError, match="out of range"):
            ContrastiveInstance("i0", "src", ("a", "b"), 2, "deixis")


PHENOMENA = ("deixis", "lex.c", "ell.infl", "ell.VP")
FAULTS = ("duplicate instance_id", "unknown instance", "unknown candidate",
          "duplicate score", "missing score")


def random_instance_set(rng):
    """1-8 instances of 2-5 candidates over a few phenomena, and one score
    per candidate in shuffled order. Scores are drawn from five values,
    so ties and losses are common."""
    instances, scores = [], []
    for k in range(rng.randint(1, 8)):
        n = rng.randint(2, 5)
        candidates = tuple(f"candidate {j}" for j in range(n))
        instances.append(ContrastiveInstance(
            f"i{k}", f"source {k}", candidates, rng.randrange(n), rng.choice(PHENOMENA)
        ))
        scores += scores_for(f"i{k}", [float(rng.randint(-2, 2)) for _ in range(n)])
    rng.shuffle(scores)
    return instances, scores


def add_fault(rng, instances, scores):
    fault = rng.choice(FAULTS)
    inst = rng.choice(instances)
    if fault == "duplicate instance_id":
        twin = ContrastiveInstance(inst.instance_id, "other", ("x", "y"), 1, "deixis")
        instances.insert(rng.randint(0, len(instances)), twin)
        return
    if fault == "unknown instance":
        extra = CandidateScore("ghost", 0, 0.0)
    elif fault == "unknown candidate":
        index = rng.choice([-1, len(inst.candidates), len(inst.candidates) + 3])
        extra = CandidateScore(inst.instance_id, index, 0.0)
    elif fault == "duplicate score":
        extra = rng.choice(scores)
    else:
        del scores[rng.randrange(len(scores))]
        return
    scores.insert(rng.randint(0, len(scores)), extra)


def outcome(accuracy, instances, scores):
    """The reports in order, or the message of the first error."""
    try:
        return list(accuracy(instances, scores).items())
    except ValueError as exc:
        return str(exc)


class TestContrastiveOracle:
    """``contrastive_accuracy`` keeps only a compact table; it must decide
    and fail as the reference that holds every instance whole does."""

    def test_matches_reference_on_seeded_sets(self):
        rng = random.Random(41)
        verdicts = Counter()  # 1 a win, 0 a tie, -1 a loss
        for _ in range(2_000):
            instances, scores = random_instance_set(rng)
            expected = outcome(naive_contrastive_accuracy, instances, scores)
            assert outcome(contrastive_accuracy, iter(instances), iter(scores)) == expected
            rows = {}
            for score in scores:
                rows.setdefault(score.instance_id, {})[score.candidate_index] = score.score
            for inst in instances:
                row = rows[inst.instance_id]
                positive = row.pop(inst.positive_index)
                best_negative = max(row.values())
                verdicts[(positive > best_negative) - (positive < best_negative)] += 1
        assert min(verdicts[v] for v in (1, 0, -1)) > 500, verdicts

    def test_first_error_matches_reference(self):
        rng = random.Random(43)
        first = Counter()
        for _ in range(2_000):
            instances, scores = random_instance_set(rng)
            for _ in range(rng.randint(1, 2)):
                add_fault(rng, instances, scores)
            expected = outcome(naive_contrastive_accuracy, instances, scores)
            assert outcome(contrastive_accuracy, iter(instances), iter(scores)) == expected
            if isinstance(expected, str):
                first[next(fault for fault in FAULTS if fault in expected)] += 1
        assert set(first) == set(FAULTS), first
        assert min(first.values()) > 100, first


class TestInstanceStream:
    def write(self, path, ids):
        with open(path, "w", encoding="utf-8") as handle:
            for iid in ids:
                row = {"instance_id": iid, "source": "s", "candidates": ["a", "b"],
                       "positive_index": 0, "phenomenon": "deixis"}
                handle.write(json.dumps(row) + "\n")

    def test_contrastive_accuracy_numbers_rows_in_the_readers_table(self, tmp_path):
        ids = ["i1", "i10", "", "é"]
        self.write(tmp_path / "inst.jsonl", ids)
        scores = [s for k, iid in enumerate(ids) for s in scores_for(iid, [k % 2, 0.5])]
        expected = contrastive_accuracy(read_instances(tmp_path / "inst.jsonl"), scores)
        stream = read_instance_stream(tmp_path / "inst.jsonl")
        assert contrastive_accuracy(stream, scores) == expected
        assert [stream.ids[row] for row in range(len(stream.ids))] == ids
        # A stream read part-way before is not handed over: its table
        # numbers rows that contrastive_accuracy never sees.
        stream = read_instance_stream(tmp_path / "inst.jsonl")
        next(iter(stream))
        assert contrastive_accuracy(stream, scores[2:]) == contrastive_accuracy(
            read_instances(tmp_path / "inst.jsonl")[1:], scores[2:]
        )

    def test_a_repeated_id_is_malformed_at_its_line(self, tmp_path):
        self.write(tmp_path / "inst.jsonl", ["i1", "i10", "i1"])
        with pytest.raises(ValueError, match=r"malformed instance on line 3: "
                           r"duplicate instance_id 'i1'$"):
            list(read_instance_stream(tmp_path / "inst.jsonl"))


class TestBigramModel:
    TRAINING = "The cat sat on the mat. The dog ran"  # 10 tokens once tokenized

    def test_hand_derived_scores(self):
        # Counts by hand: "the" appears 3 times, ("the","cat") once, and
        # 8 distinct tokens + 1 unseen slot give vocabulary 9. So the seen
        # transition scores log(2/12) and an unseen one log(1/12).
        model = BigramModel.fit(self.TRAINING)
        seen = model.score("the cat")
        unseen = model.score("the cax")
        assert seen == pytest.approx(math.log(1 / 6), abs=1e-12)
        assert unseen == pytest.approx(math.log(1 / 12), abs=1e-12)
        assert seen > unseen

    def test_identical_candidates_identical_scores(self):
        model = BigramModel.fit(self.TRAINING)
        assert model.score("the dog ran") == model.score("the dog ran")

    def test_extension_never_raises_score(self):
        model = BigramModel.fit(self.TRAINING)
        prefix = "the cat"
        for extension in ["sat", "zebra", "."]:
            assert model.score(f"{prefix} {extension}") <= model.score(prefix)

    def test_empty_candidate_rejected(self):
        model = BigramModel.fit(self.TRAINING)
        with pytest.raises(ValueError, match="empty"):
            model.score("")

    def test_reference_scorer_covers_all_candidates(self):
        model = BigramModel.fit(self.TRAINING)
        inst = instance("i0", "the cat sat", ["the cax sat", "the cat zat"])
        scores = reference_scorer(inst, model)
        assert [s.candidate_index for s in scores] == [0, 1, 2]
        results = contrastive_accuracy([inst], scores)
        assert results["overall"].value == 100.0


class TestHarnessFiles:
    def test_instance_file_round_trip(self, tmp_path):
        instances = [
            instance("i0", "cand a", ["cand b"], "deixis"),
            instance("i1", "x", ["y", "z"], "ell.VP"),
        ]
        path = tmp_path / "instances.jsonl"
        import json

        with open(path, "w", encoding="utf-8") as handle:
            for inst in instances:
                handle.write(
                    json.dumps(
                        {
                            "instance_id": inst.instance_id,
                            "source": inst.source,
                            "candidates": list(inst.candidates),
                            "positive_index": inst.positive_index,
                            "phenomenon": inst.phenomenon,
                        }
                    )
                    + "\n"
                )
        assert read_instances(path) == instances

    def test_score_file_round_trip(self, tmp_path):
        scores = scores_for("i0", [0.25, -1.5])
        write_jsonl(tmp_path / "scores.jsonl", (score._asdict() for score in scores))
        assert list(read_candidate_scores(tmp_path / "scores.jsonl")) == scores


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # The instance id table probes by hash(), which PYTHONHASHSEED varies.
    corpus = make_corpus([3, 1, 4, 1, 5], random.Random(61))
    write_records(corpus, tmp_path / "in.jsonl")
    rng = random.Random(67)
    with open(tmp_path / "inst.jsonl", "w", encoding="utf-8") as inst, open(
        tmp_path / "sc.jsonl", "w", encoding="utf-8"
    ) as sc:
        for n in range(300):
            row = {"instance_id": f"i{n}", "source": "s", "candidates": ["a", "b", "c"],
                   "positive_index": n % 3, "phenomenon": ["deixis", "lex.c"][n % 2]}
            inst.write(json.dumps(row) + "\n")
            for j in range(3):
                score = {"instance_id": f"i{n}", "candidate_index": j, "score": rng.random()}
                sc.write(json.dumps(score) + "\n")
    steps = [
        ["shuffle", "--in", "in.jsonl", "--out", "g.jsonl", "--mode", "global", "--seed", "7"],
        ["contrastive", "--instances", "inst.jsonl", "--scores", "sc.jsonl", "--out", "acc.jsonl"],
    ]
    outputs = ["g.jsonl", "g.jsonl.perm.jsonl", "g.jsonl.manifest.json",
               "acc.jsonl", "acc.jsonl.manifest.json"]
    seen = []
    for hash_seed in ("0", "1"):
        for argv in steps:
            result = subprocess.run(
                [sys.executable, "-m", "docmt", *argv],
                cwd=tmp_path,
                env={**os.environ, "PYTHONHASHSEED": hash_seed,
                     "PYTHONPATH": str(Path(docmt.__file__).resolve().parent.parent)},
                capture_output=True,
            )
            assert (result.returncode, result.stderr) == (0, b"")
        seen.append([(tmp_path / name).read_bytes() for name in outputs])
        for name in outputs:
            os.remove(tmp_path / name)
    assert seen[0] == seen[1]
