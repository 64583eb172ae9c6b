"""Per-class description documents -> token streams, vocabulary, term counts.

Documents are one-per-class plain text. Tokenization lowercases and splits
on any non-alphanumeric character; stop words and empty fragments are
dropped. No stemming is applied so that raw terms stay usable as word
embedding lookup keys.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError

# \w minus underscore: unicode letters and digits only
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


@dataclass(frozen=True)
class TokenDoc:
    """One class's document after tokenization. Token order is kept for
    provenance only; downstream encoders are order-insensitive."""

    class_id: int
    tokens: tuple[str, ...]

    def __len__(self):
        return len(self.tokens)


@dataclass(frozen=True)
class Vocabulary:
    """Distinct terms in lexicographic order plus term -> position index."""

    terms: tuple[str, ...]
    index: dict

    @property
    def size(self) -> int:
        return len(self.terms)

    def __contains__(self, term) -> bool:
        return term in self.index


@dataclass(frozen=True)
class TermDocMatrix:
    """Term frequencies, one column per class document.

    counts[i, j] is the multiplicity of vocabulary term i in document j,
    so each column is the raw-count semantic representation of a class.
    """

    counts: np.ndarray  # (n_terms, n_docs) int64
    class_ids: tuple[int, ...]

    @property
    def n_docs(self) -> int:
        return self.counts.shape[1]


def tokenize(text: str, stopwords: Iterable[str] = (), class_id: int = 0) -> TokenDoc:
    """Lowercase, split on non-alphanumeric boundaries, drop stop words.

    Empty input yields an empty token list rather than an error.
    """
    stop = stopwords if isinstance(stopwords, (set, frozenset)) else frozenset(stopwords)
    tokens = tuple(t for t in _TOKEN_RE.findall(text.lower()) if t not in stop)
    return TokenDoc(class_id=class_id, tokens=tokens)


def build_vocabulary(docs: Sequence[TokenDoc]) -> Vocabulary:
    """Union of all tokens across documents, sorted lexicographically.

    Sorting makes term-document columns reproducible byte for byte.
    """
    if not docs:
        raise ValueError("cannot build a vocabulary from zero documents")
    terms = sorted(set().union(*(set(d.tokens) for d in docs)))
    if not terms:
        raise DataError("all documents are empty after tokenization")
    return Vocabulary(terms=tuple(terms), index={t: i for i, t in enumerate(terms)})


def term_document_matrix(docs: Sequence[TokenDoc], vocab: Vocabulary) -> TermDocMatrix:
    """Count term multiplicities per document into a terms x docs matrix."""
    counts = np.zeros((vocab.size, len(docs)), dtype=np.int64)
    for j, doc in enumerate(docs):
        for token in doc.tokens:
            i = vocab.index.get(token)
            if i is None:
                raise DataError(
                    f"token {token!r} of class {doc.class_id} is not in the vocabulary"
                )
            counts[i, j] += 1
    return TermDocMatrix(counts=counts, class_ids=tuple(d.class_id for d in docs))


def load_stopwords(path) -> frozenset:
    """Read a stop-word file: one term per line, blank lines ignored."""
    words = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        term = line.strip().lower()
        if term:
            words.append(term)
    return frozenset(words)


def default_stopwords() -> frozenset:
    """The packaged list of common English function words."""
    text = resources.files("zslkit").joinpath("data/stopwords.txt").read_text("utf-8")
    return frozenset(t.strip().lower() for t in text.splitlines() if t.strip())
