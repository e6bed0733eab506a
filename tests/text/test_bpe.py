"""Tests for the trainable BPE tokenizer."""

import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.text.bpe import (
    BpeTokenizer,
    END_OF_WORD,
    SubwordEncoding,
    _merge_symbols,
    _word_to_symbols,
    train_bpe,
)

CORPUS = (
    "reduce reduce reduce reducing reduced emissions emissions emission "
    "by by by by 2030 2030 water water use consumption consumption"
).split()


def reference_train_bpe(words, num_merges=1000, min_pair_count=2):
    """The full-recount trainer: recount every pair before every merge.

    ``train_bpe`` keeps its pair statistics incrementally and must return
    exactly this merge list.
    """
    word_counts = Counter(word for word in words if word)
    word_symbols = {
        _word_to_symbols(word): count for word, count in word_counts.items()
    }
    merges = []
    for _ in range(num_merges):
        pairs = Counter()
        for symbols, count in word_symbols.items():
            for left, right in zip(symbols, symbols[1:]):
                pairs[(left, right)] += count
        if not pairs:
            break
        best_pair, best_count = max(
            pairs.items(), key=lambda item: (item[1], item[0])
        )
        if best_count < min_pair_count:
            break
        merges.append(best_pair)
        word_symbols = {
            _merge_symbols(symbols, best_pair): count
            for symbols, count in word_symbols.items()
        }
    return merges


@pytest.fixture(scope="module")
def tokenizer() -> BpeTokenizer:
    return BpeTokenizer.train(CORPUS, num_merges=100)


class TestTrainBpe:
    def test_learns_frequent_pairs_first(self):
        merges = train_bpe(["aaab"] * 10 + ["xy"], num_merges=5)
        assert merges[0] == ("a", "a")

    def test_respects_num_merges(self):
        merges = train_bpe(CORPUS, num_merges=3)
        assert len(merges) <= 3

    def test_min_pair_count_stops_early(self):
        merges = train_bpe(["abcdef"], num_merges=100, min_pair_count=2)
        assert merges == []

    def test_empty_corpus(self):
        assert train_bpe([], num_merges=10) == []

    def test_equal_counts_merge_the_larger_pair_first(self):
        # ("c", "d</w>") and ("a", "b</w>") both occur twice.
        assert train_bpe(["ab", "cd", "ab", "cd"], num_merges=2) == [
            ("c", "d</w>"),
            ("a", "b</w>"),
        ]

    def test_overlapping_pair_in_a_run(self):
        # "a a a a</w>": the first merge takes only the left "a a" (the
        # right one overlaps "a a</w>"); the second settles a 3-vs-3 tie
        # between ("aa", "a") and ("a", "a</w>") lexicographically.
        words = ["aaaa"] * 3
        expected = [("a", "a"), ("aa", "a"), ("aaa", "a</w>")]
        assert train_bpe(words, num_merges=10) == expected
        assert reference_train_bpe(words, num_merges=10) == expected

    def test_word_to_symbols_marks_end(self):
        assert _word_to_symbols("ab") == ("a", "b" + END_OF_WORD)

    def test_word_to_symbols_rejects_empty(self):
        with pytest.raises(ValueError):
            _word_to_symbols("")


class TestBpeTokenizer:
    def test_frequent_word_is_single_piece(self, tokenizer):
        pieces = tokenizer.encode_word("by")
        assert pieces == ("by" + END_OF_WORD,)

    def test_encode_decode_roundtrip(self, tokenizer):
        words = ["reduce", "emissions", "by", "2030"]
        encoding = tokenizer.encode(words)
        assert tokenizer.decode(encoding) == words

    def test_unseen_word_degrades_to_pieces(self, tokenizer):
        pieces = tokenizer.encode_word("zebra")
        assert tokenizer.decode_word(pieces) == "zebra"

    def test_word_ids_are_monotone(self, tokenizer):
        encoding = tokenizer.encode(["reduce", "consumption", "by"])
        assert list(encoding.word_ids) == sorted(encoding.word_ids)
        assert set(encoding.word_ids) == {0, 1, 2}

    def test_every_word_produces_a_piece(self, tokenizer):
        words = ["water", "use", "x"]
        encoding = tokenizer.encode(words)
        assert set(encoding.word_ids) == {0, 1, 2}

    def test_known_pieces_not_unk(self, tokenizer):
        encoding = tokenizer.encode(["reduce"])
        assert all(i != tokenizer.vocab.unk_id for i in encoding.ids)

    def test_encoding_lengths_parallel(self, tokenizer):
        encoding = tokenizer.encode(["emissions", "by"])
        assert len(encoding.pieces) == len(encoding.ids) == len(
            encoding.word_ids
        )

    def test_subword_encoding_validates(self):
        with pytest.raises(ValueError):
            SubwordEncoding(("a",), (1, 2), (0,))

    def test_save_load_roundtrip(self, tokenizer, tmp_path):
        tokenizer.save(tmp_path / "bpe.json")
        loaded = BpeTokenizer.load(tmp_path / "bpe.json")
        words = ["reducing", "water", "2030"]
        assert loaded.encode(words).pieces == tokenizer.encode(words).pieces
        assert len(loaded.vocab) == len(tokenizer.vocab)

    def test_cache_is_consistent(self, tokenizer):
        first = tokenizer.encode_word("consumption")
        second = tokenizer.encode_word("consumption")
        assert first == second


class TestConcurrentEncode:
    """Serving engine threads share one tokenizer and its LRU memo."""

    THREADS = 8
    ROUNDS = 10

    def test_shared_tokenizer_matches_sequential_under_eviction(self):
        from repro.datasets.generator import ObjectiveGenerator

        objectives = ObjectiveGenerator(seed=0).generate_many(20)
        words = [
            word for objective in objectives for word in objective.text.split()
        ]
        trained = BpeTokenizer.train(words, num_merges=200)
        expected = trained.encode(words).ids
        # A memo far smaller than the word list evicts on nearly every miss.
        shared = BpeTokenizer(trained.merges, trained.vocab, cache_size=8)
        assert len(set(words)) > 4 * shared.cache_size
        barrier = threading.Barrier(self.THREADS)
        results: list[list[tuple[int, ...]]] = [
            [] for _ in range(self.THREADS)
        ]
        errors: list[BaseException] = []

        def worker(index: int) -> None:
            try:
                barrier.wait()
                for _ in range(self.ROUNDS):
                    results[index].append(shared.encode(words).ids)
            except BaseException as error:  # surfaced by the assert below
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(self.THREADS)
        ]
        # Switch threads as often as possible so a lost counter update or
        # a torn LRU reorder has many chances to show.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        for per_thread in results:
            assert per_thread == [expected] * self.ROUNDS
        info = shared.cache_info()
        lookups = self.THREADS * self.ROUNDS * len(words)
        assert info["hits"] + info["misses"] == lookups
        assert info["size"] <= shared.cache_size


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.text(
            alphabet=st.characters(min_codepoint=33, max_codepoint=126),
            min_size=1,
            max_size=12,
        ).filter(lambda w: "<" not in w and ">" not in w),
        min_size=1,
        max_size=30,
    )
)
def test_bpe_roundtrip_property(words):
    """encode -> decode recovers the exact word sequence."""
    tokenizer = BpeTokenizer.train(words, num_merges=50)
    encoding = tokenizer.encode(words)
    assert tokenizer.decode(encoding) == words


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.sampled_from(CORPUS),
        min_size=1,
        max_size=20,
    )
)
def test_word_ids_cover_all_words(words):
    tokenizer = BpeTokenizer.train(CORPUS, num_merges=60)
    encoding = tokenizer.encode(words)
    assert set(encoding.word_ids) == set(range(len(words)))


@settings(max_examples=200, deadline=None)
@given(
    words=st.lists(
        st.text(alphabet="ab", min_size=1, max_size=8),
        min_size=0,
        max_size=25,
    ),
    num_merges=st.integers(min_value=0, max_value=40),
    min_pair_count=st.sampled_from([0, 1, 2, 3]),
)
def test_train_bpe_matches_full_recount(words, num_merges, min_pair_count):
    """Runs, overlapping pairs and count ties are common on two letters;
    ``num_merges`` reaches past the point where no pair is left."""
    assert train_bpe(words, num_merges, min_pair_count) == (
        reference_train_bpe(words, num_merges, min_pair_count)
    )


def test_train_bpe_matches_full_recount_at_corpus_scale():
    """The extractor's own word stream at its own merge budget."""
    from repro.core.extractor import ExtractorConfig, WeakSupervisionExtractor
    from repro.datasets.sustainability import build_sustainability_goals

    dataset = build_sustainability_goals(seed=0, size=150)
    extractor = WeakSupervisionExtractor(ExtractorConfig(num_merges=600))
    word_sequences, __ = extractor.prepare_weak_labels(dataset.objectives)
    words = [word for sequence in word_sequences for word in sequence]
    merges = train_bpe(words, num_merges=600)
    assert len(merges) == 600
    assert merges == reference_train_bpe(words, num_merges=600)
