import numpy as np
import pytest
from hypothesis import given, strategies as st

from zslkit.corpus import (
    TokenDoc,
    build_vocabulary,
    default_stopwords,
    load_stopwords,
    term_document_matrix,
    tokenize,
)
from zslkit.errors import DataError

words = st.text(alphabet="abcdefghij", min_size=1, max_size=6)


class TestTokenize:
    def test_empty_input(self):
        assert tokenize("").tokens == ()

    def test_stop_words_removed(self):
        assert tokenize("Apply the lipstick", {"the"}).tokens == ("apply", "lipstick")

    def test_multiplicity_and_punctuation(self):
        assert tokenize("Skiing, skiing fast!", set()).tokens == ("skiing", "skiing", "fast")

    def test_lowercases(self):
        assert tokenize("JUMP Jump jUmP").tokens == ("jump", "jump", "jump")

    def test_splits_on_any_non_alphanumeric(self):
        assert tokenize("rock-climbing_indoor/outdoor").tokens == (
            "rock",
            "climbing",
            "indoor",
            "outdoor",
        )

    def test_class_id_carried(self):
        assert tokenize("x", class_id=7).class_id == 7

    @given(st.text(max_size=200))
    def test_idempotent_on_own_output(self, text):
        once = tokenize(text)
        again = tokenize(" ".join(once.tokens))
        assert again.tokens == once.tokens

    @given(st.text(max_size=200), st.sets(words, max_size=5))
    def test_no_stopword_or_empty_survives(self, text, stop):
        doc = tokenize(text, stop)
        assert all(t and t not in stop for t in doc.tokens)


class TestVocabulary:
    def test_union_of_tokens(self):
        docs = [TokenDoc(0, ("a", "b")), TokenDoc(1, ("b", "c"))]
        vocab = build_vocabulary(docs)
        assert vocab.terms == ("a", "b", "c")
        assert vocab.size == 3

    def test_singleton(self):
        vocab = build_vocabulary([TokenDoc(0, ("x",))])
        assert vocab.terms == ("x",)
        assert vocab.size == 1

    def test_disjoint_docs_sum_sizes(self):
        docs = [TokenDoc(0, ("a", "b")), TokenDoc(1, ("c", "d", "e"))]
        assert build_vocabulary(docs).size == 5

    def test_index_is_bijection(self):
        vocab = build_vocabulary([TokenDoc(0, ("z", "a", "m", "a"))])
        assert sorted(vocab.index.values()) == list(range(vocab.size))
        assert all(vocab.terms[i] == t for t, i in vocab.index.items())

    def test_lexicographic_order(self):
        vocab = build_vocabulary([TokenDoc(0, ("pear", "apple", "plum"))])
        assert list(vocab.terms) == sorted(vocab.terms)

    def test_all_empty_docs_error(self):
        with pytest.raises(DataError):
            build_vocabulary([TokenDoc(0, ()), TokenDoc(1, ())])

    def test_no_docs_error(self):
        with pytest.raises(ValueError):
            build_vocabulary([])


class TestTermDocMatrix:
    def test_direct_counting(self):
        docs = [TokenDoc(0, ("jump", "jump", "high")), TokenDoc(1, ("high", "kick"))]
        vocab = build_vocabulary(docs)
        assert vocab.terms == ("high", "jump", "kick")
        td = term_document_matrix(docs, vocab)
        assert td.counts.tolist() == [[1, 1], [2, 0], [0, 1]]

    def test_empty_doc_zero_column(self):
        docs = [TokenDoc(0, ("a",)), TokenDoc(1, ())]
        td = term_document_matrix(docs, build_vocabulary(docs))
        assert td.counts[:, 1].tolist() == [0]

    def test_out_of_vocabulary_token(self):
        vocab = build_vocabulary([TokenDoc(0, ("a",))])
        with pytest.raises(DataError, match="zzz"):
            term_document_matrix([TokenDoc(0, ("a", "zzz"))], vocab)

    @given(st.lists(st.lists(words, max_size=8), min_size=1, max_size=5).filter(
        lambda dd: any(d for d in dd)
    ))
    def test_total_count_and_permutation_invariance(self, token_lists):
        docs = [TokenDoc(i, tuple(t)) for i, t in enumerate(token_lists)]
        vocab = build_vocabulary(docs)
        td = term_document_matrix(docs, vocab)
        assert td.counts.sum() == sum(len(d.tokens) for d in docs)
        for j, d in enumerate(docs):
            assert td.counts[:, j].sum() == len(d.tokens)
        rng = np.random.default_rng(0)
        shuffled = [
            TokenDoc(d.class_id, tuple(np.array(d.tokens)[rng.permutation(len(d.tokens))]))
            if d.tokens
            else d
            for d in docs
        ]
        td2 = term_document_matrix(shuffled, vocab)
        assert np.array_equal(td.counts, td2.counts)


class TestStopwordFiles:
    def test_default_list_has_expected_words(self):
        stop = default_stopwords()
        assert {"is", "you", "of"} <= stop
        assert 150 <= len(stop) <= 200

    def test_load_stopwords(self, tmp_path):
        p = tmp_path / "stop.txt"
        p.write_text("The\nof\n\n  a  \n", encoding="utf-8")
        assert load_stopwords(p) == {"the", "of", "a"}
