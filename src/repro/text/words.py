"""Word-level tokenization with character offsets.

Algorithm 1 in the paper aligns tokenized annotation values against the
tokenized objective text. For that alignment to be projected back onto the
source string (so extracted values can be returned verbatim), every token must
carry its character span. Table 3 of the paper shows the expected granularity:
``co-founded`` becomes ``co``, ``-``, ``founded`` and ``net-zero`` becomes
``net``, ``-``, ``zero`` — i.e. punctuation splits words.
"""

from __future__ import annotations

import dataclasses
import re
from collections.abc import Iterator

# A token is a run of alphanumerics (possibly with internal digits, e.g.
# "CO2"), a number with optional decimal part, or a single punctuation mark.
_TOKEN_RE = re.compile(
    r"""
    \d+(?:[.,]\d+)*%?      # numbers: 2040, 8.1%, 1,000
    | [A-Za-z]+\d*         # words, incl. trailing digits: CO2, SBTi2
    | [^\sA-Za-z\d]        # any single punctuation / symbol character
    """,
    re.VERBOSE,
)


@dataclasses.dataclass(frozen=True)
class Token:
    """A word-level token with its span in the source text.

    Attributes:
        text: the token surface form.
        start: index of the first character in the source string.
        end: index one past the last character (``source[start:end] == text``).
    """

    text: str
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise ValueError(f"invalid token span [{self.start}, {self.end})")


class WordTokenizer:
    """Splits text into word-level tokens while retaining offsets.

    The tokenizer is deterministic and lossless with respect to non-space
    characters: concatenating the token texts with the gaps from the source
    string reconstructs the source exactly.

    Example:
        >>> [t.text for t in WordTokenizer().tokenize("net-zero by 2040.")]
        ['net', '-', 'zero', 'by', '2040', '.']
    """

    def __init__(self, split_percent: bool = True) -> None:
        # When True, "20%" tokenizes as ["20%"] (kept together: percent
        # amounts are atomic annotation values in the paper's Table 1).
        self.split_percent = split_percent

    def tokenize(self, text: str) -> list[Token]:
        """Tokenize ``text`` into :class:`Token` objects with offsets."""
        return list(self.iter_tokens(text))

    def iter_tokens(self, text: str) -> Iterator[Token]:
        for match in _TOKEN_RE.finditer(text):
            yield Token(match.group(), match.start(), match.end())

    def words(self, text: str) -> list[str]:
        """Tokenize and return only the surface forms."""
        # The pattern has no capture groups, so findall yields whole matches.
        return _TOKEN_RE.findall(text)


#: Shared default instance (tokenization is stateless).
DEFAULT_WORD_TOKENIZER = WordTokenizer()
