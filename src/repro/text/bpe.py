"""Trainable Byte-Pair Encoding subword tokenizer.

Implements the subword mechanism of Sennrich et al. (2016) that the paper
relies on (Section 3.2): merges are learned greedily from corpus statistics,
and encoding applies them in learned order. Every emitted piece remembers the
index of the word it came from (``word_ids``), which is what lets the weak
supervision pipeline project word-level IOB labels onto subword pieces and
back (see ``repro.core.alignment``).

Pieces use an explicit end-of-word marker (``</w>``) appended to the final
character of each word, so decoding is exact and unknown words degrade
gracefully to character pieces instead of a single ``<unk>``.
"""

from __future__ import annotations

import dataclasses
import heapq
import json
import threading
from collections import Counter, OrderedDict, defaultdict
from collections.abc import Iterable, Sequence
from pathlib import Path

from repro.text.vocab import Vocabulary

END_OF_WORD = "</w>"


@dataclasses.dataclass(frozen=True)
class SubwordEncoding:
    """The result of encoding a word sequence into subword pieces.

    Attributes:
        pieces: subword strings, e.g. ``["redu", "ce</w>", "20%</w>"]``.
        ids: vocabulary ids, aligned with ``pieces``.
        word_ids: for each piece, the index of the source word it belongs to.
    """

    pieces: tuple[str, ...]
    ids: tuple[int, ...]
    word_ids: tuple[int, ...]

    def __post_init__(self) -> None:
        if not (len(self.pieces) == len(self.ids) == len(self.word_ids)):
            raise ValueError("pieces, ids and word_ids must be parallel")

    def __len__(self) -> int:
        return len(self.pieces)


def _word_to_symbols(word: str) -> tuple[str, ...]:
    """Split a word into its initial symbol sequence (chars + eow marker)."""
    if not word:
        raise ValueError("cannot encode an empty word")
    chars = list(word)
    chars[-1] += END_OF_WORD
    return tuple(chars)


def _merge_symbols(
    symbols: tuple[str, ...], pair: tuple[str, str]
) -> tuple[str, ...]:
    merged: list[str] = []
    i = 0
    while i < len(symbols):
        if (
            i + 1 < len(symbols)
            and symbols[i] == pair[0]
            and symbols[i + 1] == pair[1]
        ):
            merged.append(symbols[i] + symbols[i + 1])
            i += 2
        else:
            merged.append(symbols[i])
            i += 1
    return tuple(merged)


class _Descending:
    """Heap key that orders merge pairs from largest to smallest."""

    __slots__ = ("pair",)

    def __init__(self, pair: tuple[str, str]) -> None:
        self.pair = pair

    def __lt__(self, other: "_Descending") -> bool:
        return self.pair > other.pair


def train_bpe(
    words: Iterable[str],
    num_merges: int = 1000,
    min_pair_count: int = 2,
) -> list[tuple[str, str]]:
    """Learn a ranked list of BPE merges from a word stream.

    Each step merges the most frequent adjacent pair, ties going to the
    lexicographically largest pair. Pair counts are built once, with an
    index from each pair to the word types containing it; a merge re-pairs
    only the indexed words and adjusts only the counts those words lose or
    gain, and the next pair comes off a max-heap whose entries are skipped
    unless they match the live count. The cost per merge is therefore
    proportional to the words the merge touches, not to the corpus.

    Args:
        words: corpus word stream (duplicates matter — they are counted).
        num_merges: maximum number of merges to learn.
        min_pair_count: stop once the most frequent pair falls below this.

    Returns:
        Merges in learned (priority) order.
    """
    word_counts = Counter(word for word in words if word)
    word_symbols = [_word_to_symbols(word) for word in word_counts]
    frequencies = list(word_counts.values())
    pair_counts: Counter[tuple[str, str]] = Counter()
    pair_words: defaultdict[tuple[str, str], set[int]] = defaultdict(set)
    for index, symbols in enumerate(word_symbols):
        for pair in zip(symbols, symbols[1:]):
            pair_counts[pair] += frequencies[index]
            pair_words[pair].add(index)
    heap = [(-count, _Descending(pair)) for pair, count in pair_counts.items()]
    heapq.heapify(heap)

    merges: list[tuple[str, str]] = []
    while heap and len(merges) < num_merges:
        negated_count, key = heapq.heappop(heap)
        best_pair = key.pair
        if pair_counts.get(best_pair) != -negated_count:
            continue  # stale: the pair's count changed after this push
        if -negated_count < min_pair_count:
            break
        merges.append(best_pair)
        deltas: Counter[tuple[str, str]] = Counter()
        # The index may name words that have since lost the pair; their
        # symbols come back unchanged and are skipped.
        for index in pair_words.pop(best_pair):
            symbols = word_symbols[index]
            merged = _merge_symbols(symbols, best_pair)
            if len(merged) == len(symbols):
                continue
            word_symbols[index] = merged
            frequency = frequencies[index]
            for pair in zip(symbols, symbols[1:]):
                deltas[pair] -= frequency
            for pair in zip(merged, merged[1:]):
                deltas[pair] += frequency
                pair_words[pair].add(index)
        for pair, delta in deltas.items():
            if not delta:
                continue
            count = pair_counts[pair] + delta
            if count:
                pair_counts[pair] = count
                heapq.heappush(heap, (-count, _Descending(pair)))
            else:
                del pair_counts[pair]
                pair_words.pop(pair, None)
    return merges


class BpeTokenizer:
    """Applies learned BPE merges and maps pieces to vocabulary ids.

    Construct via :meth:`train` (learn merges + build vocabulary from a
    corpus) or directly from a merge list. BPE is deterministic per word and
    report corpora repeat words heavily, so encoding memoizes ``word ->
    (pieces, ids)`` in a bounded LRU (``cache_size`` entries); hit/miss
    counters are exposed via :meth:`cache_info` for throughput reporting.
    """

    def __init__(
        self,
        merges: Sequence[tuple[str, str]],
        vocab: Vocabulary | None = None,
        cache_size: int = 65536,
    ) -> None:
        if cache_size <= 0:
            raise ValueError("cache_size must be positive")
        self.merges = [tuple(merge) for merge in merges]
        self._merge_ranks: dict[tuple[str, str], int] = {
            tuple(merge): rank for rank, merge in enumerate(self.merges)
        }
        self.cache_size = cache_size
        self._word_cache: OrderedDict[
            str, tuple[tuple[str, ...], tuple[int, ...]]
        ] = OrderedDict()
        # Concurrent serving workers share one tokenizer; the OrderedDict
        # reorder/evict operations are not atomic, so every cache touch
        # (including the hit/miss counters) happens under this lock.
        self._cache_lock = threading.Lock()
        self._cache_hits = 0
        self._cache_misses = 0
        if vocab is None:
            vocab = self._build_vocab_from_merges()
        self.vocab = vocab

    def __getstate__(self) -> dict:
        # A tokenizer crossing a process boundary (parallel shard workers)
        # ships its merges/vocab but starts with a cold cache and a fresh
        # lock — caches are value-transparent, so results are unaffected.
        state = self.__dict__.copy()
        del state["_cache_lock"]
        state["_word_cache"] = OrderedDict()
        state["_cache_hits"] = 0
        state["_cache_misses"] = 0
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._cache_lock = threading.Lock()

    # -- construction -----------------------------------------------------

    @classmethod
    def train(
        cls,
        words: Iterable[str],
        num_merges: int = 1000,
        min_pair_count: int = 2,
    ) -> "BpeTokenizer":
        """Learn merges from ``words`` and build the piece vocabulary."""
        word_list = [word for word in words if word]
        merges = train_bpe(word_list, num_merges, min_pair_count)
        tokenizer = cls(merges, vocab=None)
        # Extend the vocabulary with every piece observed on the training
        # corpus, so frequent whole words unreachable via merge products
        # (single-character words etc.) are still in-vocabulary.
        pieces: list[str] = []
        seen: set[str] = set(tokenizer.vocab.tokens)
        for word in word_list:
            for piece in tokenizer.encode_word(word):
                if piece not in seen:
                    seen.add(piece)
                    pieces.append(piece)
        tokenizer.vocab = Vocabulary(tokenizer._base_pieces() + pieces)
        # Cached ids were resolved against the pre-extension vocabulary.
        tokenizer.clear_cache()
        return tokenizer

    def _base_pieces(self) -> list[str]:
        """Alphabet pieces + merge products, deterministically ordered."""
        alphabet: list[str] = []
        seen: set[str] = set()
        for left, right in self.merges:
            for symbol in (left, right, left + right):
                if symbol not in seen:
                    seen.add(symbol)
                    alphabet.append(symbol)
        # Cover printable ASCII as single-char fallbacks (with and without
        # the end-of-word marker) so any input degrades to char pieces.
        for code in range(32, 127):
            for symbol in (chr(code), chr(code) + END_OF_WORD):
                if symbol not in seen:
                    seen.add(symbol)
                    alphabet.append(symbol)
        return alphabet

    def _build_vocab_from_merges(self) -> Vocabulary:
        return Vocabulary(self._base_pieces())

    # -- encoding ----------------------------------------------------------

    def _apply_merges(self, word: str) -> tuple[str, ...]:
        symbols = _word_to_symbols(word)
        while len(symbols) > 1:
            candidate_ranks = [
                (self._merge_ranks.get((left, right)), index)
                for index, (left, right) in enumerate(
                    zip(symbols, symbols[1:])
                )
            ]
            applicable = [
                (rank, index)
                for rank, index in candidate_ranks
                if rank is not None
            ]
            if not applicable:
                break
            rank, __ = min(applicable)
            pair = self.merges[rank]
            symbols = _merge_symbols(symbols, pair)
        return symbols

    def _encode_word_cached(
        self, word: str
    ) -> tuple[tuple[str, ...], tuple[int, ...]]:
        with self._cache_lock:
            cached = self._word_cache.get(word)
            if cached is not None:
                self._word_cache.move_to_end(word)
                self._cache_hits += 1
                return cached
        # Compute fully before touching the cache or its counters: a fault
        # raised mid-encode (e.g. an injected error, or a vocabulary swap)
        # must leave no partial entry and no phantom miss behind. Two
        # threads may both miss and compute the same word — the entries
        # are identical, so last-writer-wins is harmless.
        pieces = self._apply_merges(word)
        entry = (pieces, tuple(self.vocab.id_of(piece) for piece in pieces))
        with self._cache_lock:
            self._cache_misses += 1
            self._word_cache[word] = entry
            if len(self._word_cache) > self.cache_size:
                self._word_cache.popitem(last=False)
        return entry

    def encode_word(self, word: str) -> tuple[str, ...]:
        """Encode one word into subword piece strings."""
        return self._encode_word_cached(word)[0]

    def encode(self, words: Sequence[str]) -> SubwordEncoding:
        """Encode a word sequence, tracking piece -> word provenance."""
        pieces: list[str] = []
        ids: list[int] = []
        word_ids: list[int] = []
        for word_index, word in enumerate(words):
            word_pieces, word_piece_ids = self._encode_word_cached(word)
            pieces.extend(word_pieces)
            ids.extend(word_piece_ids)
            word_ids.extend([word_index] * len(word_pieces))
        return SubwordEncoding(tuple(pieces), tuple(ids), tuple(word_ids))

    # -- cache bookkeeping ---------------------------------------------------

    def clear_cache(self) -> None:
        """Drop memoized encodings (required after replacing ``vocab``)."""
        with self._cache_lock:
            self._word_cache.clear()
            self._cache_hits = 0
            self._cache_misses = 0

    def cache_info(self) -> dict[str, int]:
        """Hit/miss counters and occupancy of the per-word LRU memo."""
        with self._cache_lock:
            return {
                "hits": self._cache_hits,
                "misses": self._cache_misses,
                "size": len(self._word_cache),
                "maxsize": self.cache_size,
            }

    def decode_word(self, pieces: Sequence[str]) -> str:
        """Reassemble a word from its pieces (inverse of encode_word)."""
        return "".join(pieces).replace(END_OF_WORD, "")

    def decode(self, encoding: SubwordEncoding) -> list[str]:
        """Reassemble the word sequence from an encoding."""
        words: list[str] = []
        current: list[str] = []
        current_word = None
        for piece, word_id in zip(encoding.pieces, encoding.word_ids):
            if current_word is None:
                current_word = word_id
            if word_id != current_word:
                words.append(self.decode_word(current))
                current = []
                current_word = word_id
            current.append(piece)
        if current:
            words.append(self.decode_word(current))
        return words

    # -- persistence --------------------------------------------------------

    def save(self, path: str | Path) -> None:
        payload = {
            "merges": [list(merge) for merge in self.merges],
            "vocab": self.vocab.tokens[5:],  # strip special tokens
        }
        Path(path).write_text(json.dumps(payload), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "BpeTokenizer":
        """Restore a tokenizer saved with :meth:`save`.

        A missing, unreadable, or malformed file raises a typed
        :class:`~repro.runtime.errors.ArtifactError` (lazy import — this
        module sits below the runtime package in the import graph).
        """
        from repro.runtime.errors import ArtifactError

        path = Path(path)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except OSError as error:
            raise ArtifactError(
                f"cannot read tokenizer: {error}", path=str(path)
            ) from error
        except ValueError as error:
            raise ArtifactError(
                f"tokenizer is not valid JSON ({error})", path=str(path)
            ) from error
        merges = payload.get("merges") if isinstance(payload, dict) else None
        vocab = payload.get("vocab") if isinstance(payload, dict) else None
        if (
            not isinstance(merges, list)
            or not isinstance(vocab, list)
            or not all(isinstance(piece, str) for piece in vocab)
            or not all(
                isinstance(merge, list)
                and len(merge) == 2
                and all(isinstance(symbol, str) for symbol in merge)
                for merge in merges
            )
        ):
            raise ArtifactError(
                "tokenizer payload must be a JSON object with a 'merges' "
                "list of string pairs and a 'vocab' list of strings",
                path=str(path),
            )
        return cls(merges, Vocabulary(vocab))
