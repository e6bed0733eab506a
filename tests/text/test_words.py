"""Tests for the offset-preserving word tokenizer."""

import pytest
from hypothesis import given, strategies as st

from repro.text.words import Token, WordTokenizer


@pytest.fixture
def tokenizer() -> WordTokenizer:
    return WordTokenizer()


class TestWordTokenizer:
    def test_paper_table3_granularity(self, tokenizer):
        # Table 3 splits "co-founded" into co / - / founded and
        # "net-zero" into net / - / zero.
        words = tokenizer.words("We co-founded it to reach net-zero.")
        assert words == [
            "We", "co", "-", "founded", "it", "to", "reach",
            "net", "-", "zero", ".",
        ]

    def test_percent_kept_with_number(self, tokenizer):
        assert tokenizer.words("by 20% by") == ["by", "20%", "by"]

    def test_decimal_numbers(self, tokenizer):
        assert tokenizer.words("8.1% in 1,000") == ["8.1%", "in", "1,000"]

    def test_years(self, tokenizer):
        assert tokenizer.words("by 2040.") == ["by", "2040", "."]

    def test_alphanumeric_words(self, tokenizer):
        assert tokenizer.words("CO2 emissions") == ["CO2", "emissions"]

    def test_offsets_roundtrip(self, tokenizer):
        text = "Reduce energy consumption by 20% by 2025 (baseline 2017)."
        for token in tokenizer.tokenize(text):
            assert text[token.start : token.end] == token.text

    def test_empty_text(self, tokenizer):
        assert tokenizer.tokenize("") == []

    def test_whitespace_only(self, tokenizer):
        assert tokenizer.tokenize("   \t\n ") == []

    def test_punctuation_is_isolated(self, tokenizer):
        assert tokenizer.words("(baseline 2017).") == [
            "(", "baseline", "2017", ")", ".",
        ]

    def test_currency(self, tokenizer):
        assert tokenizer.words("$50 million") == ["$", "50", "million"]

    def test_token_span_validation(self):
        with pytest.raises(ValueError):
            Token("x", -1, 0)
        with pytest.raises(ValueError):
            Token("x", 5, 3)

    @given(st.text(max_size=300))
    def test_offsets_always_match_source(self, text):
        tokenizer = WordTokenizer()
        for token in tokenizer.tokenize(text):
            assert text[token.start : token.end] == token.text

    @given(st.text(max_size=300))
    def test_tokens_are_ordered_and_disjoint(self, text):
        tokens = WordTokenizer().tokenize(text)
        for left, right in zip(tokens, tokens[1:]):
            assert left.end <= right.start

    @given(st.text(alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd")), max_size=100))
    def test_no_alnum_char_is_dropped(self, text):
        tokens = WordTokenizer().tokenize(text)
        covered = sum(token.end - token.start for token in tokens)
        assert covered == len(text)


@given(
    st.text(
        alphabet=st.one_of(
            st.characters(),
            st.sampled_from(list(" \t\n.,;:%-/()'\"0123456789aZ")),
        ),
        max_size=80,
    )
)
def test_words_are_the_token_surface_forms(text):
    tokenizer = WordTokenizer()
    assert tokenizer.words(text) == [
        token.text for token in tokenizer.tokenize(text)
    ]
