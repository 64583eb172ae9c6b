import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from zslkit.corpus import TokenDoc, build_vocabulary, term_document_matrix
from zslkit.encoders import (
    VectorBag,
    WordVectorTable,
    average_encode,
    encode_class_set,
    fisher_encode,
    load_word_vectors,
    lookup_word_vectors,
)
from zslkit.errors import DataError
from zslkit.gmm import DiagGmm, log_likelihood


def naive_fisher(weights, means, variances, vectors):
    """Independent scalar-loop evaluation of the Fisher encoding."""
    K, D = len(weights), len(means[0])
    gammas = []
    for v in vectors:
        joint = []
        for k in range(K):
            dens = 1.0
            for d in range(D):
                dens *= math.exp(
                    -0.5 * (v[d] - means[k][d]) ** 2 / variances[k][d]
                ) / math.sqrt(2 * math.pi * variances[k][d])
            joint.append(weights[k] * dens)
        total = sum(joint)
        gammas.append([j / total for j in joint])
    out = []
    for k in range(K):  # mean blocks
        for d in range(D):
            acc = sum(
                gammas[i][k] * (vectors[i][d] - means[k][d]) / math.sqrt(variances[k][d])
                for i in range(len(vectors))
            )
            out.append(acc / math.sqrt(weights[k]))
    for k in range(K):  # deviation blocks
        for d in range(D):
            acc = sum(
                gammas[i][k]
                * ((vectors[i][d] - means[k][d]) ** 2 / variances[k][d] - 1.0)
                for i in range(len(vectors))
            )
            out.append(acc / math.sqrt(2 * weights[k]))
    return np.array(out)


def random_gmm(rng, k, d):
    return DiagGmm(
        weights=rng.dirichlet(np.ones(k) * 5),
        means=rng.normal(size=(k, d)),
        variances=rng.uniform(0.3, 2.0, size=(k, d)),
    )


def fd_gradient_identity(gmm, bag, h=1e-5):
    """Rescaled central-difference gradient of the bag log-likelihood with
    respect to means and deviations, laid out like the Fisher encoding."""
    K, D = gmm.n_components, gmm.dim
    sigma = np.sqrt(gmm.variances)
    out = np.empty(2 * K * D)
    for k in range(K):
        for d in range(D):
            for block, scale in ((0, sigma[k, d] / math.sqrt(gmm.weights[k])),
                                 (1, sigma[k, d] / math.sqrt(2 * gmm.weights[k]))):
                def ll_at(eps):
                    means = gmm.means.copy()
                    variances = gmm.variances.copy()
                    if block == 0:
                        means[k, d] += eps
                    else:
                        variances[k, d] = (sigma[k, d] + eps) ** 2
                    shifted = DiagGmm(weights=gmm.weights, means=means, variances=variances)
                    return log_likelihood(shifted, bag.vectors)

                grad = (ll_at(h) - ll_at(-h)) / (2 * h)
                out[block * K * D + k * D + d] = scale * grad
    return out


class TestLookup:
    table = WordVectorTable({"jump": np.array([1.0, 0.0]), "high": np.array([0.0, 2.0])}, 2)

    def test_single_token(self):
        bag, skipped = lookup_word_vectors(TokenDoc(0, ("jump",)), self.table)
        assert bag.vectors.tolist() == [[1.0, 0.0]]
        assert skipped == 0

    def test_multiplicity_kept(self):
        bag, _ = lookup_word_vectors(TokenDoc(0, ("jump", "jump")), self.table)
        assert bag.size == 2
        assert bag.vectors.tolist() == [[1.0, 0.0], [1.0, 0.0]]

    def test_missing_token_skipped_and_counted(self):
        bag, skipped = lookup_word_vectors(TokenDoc(0, ("jump", "zzz")), self.table)
        assert bag.vectors.tolist() == [[1.0, 0.0]]
        assert skipped == 1

    def test_all_tokens_missing(self):
        with pytest.raises(DataError):
            lookup_word_vectors(TokenDoc(3, ("zzz", "qqq")), self.table)


class TestAverageEncode:
    def test_singleton_identity(self):
        assert average_encode(VectorBag(0, [[1.0, 3.0]])).tolist() == [1.0, 3.0]

    def test_midpoint(self):
        bag = VectorBag(0, [[1.0, 3.0], [3.0, 5.0]])
        assert average_encode(bag).tolist() == [2.0, 4.0]

    def test_empty_bag(self):
        with pytest.raises(ValueError):
            average_encode(VectorBag(0, np.zeros((0, 2))))

    @given(st.integers(0, 2**32 - 1))
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=(6, 3))
        a = average_encode(VectorBag(0, v))
        b = average_encode(VectorBag(0, v[rng.permutation(6)]))
        np.testing.assert_allclose(a, b, atol=1e-12)

    @given(
        st.integers(0, 2**32 - 1),
        st.floats(-3, 3, allow_nan=False).filter(lambda a: abs(a) > 1e-3),
        st.floats(-3, 3, allow_nan=False),
    )
    def test_affine_equivariance(self, seed, a, b):
        v = np.random.default_rng(seed).normal(size=(5, 2))
        lhs = average_encode(VectorBag(0, a * v + b))
        rhs = a * average_encode(VectorBag(0, v)) + b
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


class TestFisherEncode:
    def test_hand_value_standard_normal(self):
        gmm = DiagGmm(weights=[1.0], means=[[0.0]], variances=[[1.0]])
        fv = fisher_encode(gmm, VectorBag(0, [[0.0], [1.0]]))
        np.testing.assert_allclose(fv, [1.0, -1.0 / math.sqrt(2.0)], atol=1e-12)

    def test_symmetric_cancellation(self):
        gmm = DiagGmm(weights=[1.0], means=[[0.0]], variances=[[1.0]])
        fv = fisher_encode(gmm, VectorBag(0, [[1.0], [-1.0]]))
        np.testing.assert_allclose(fv, [0.0, 0.0], atol=1e-12)

    def test_bag_at_mean(self):
        # mu block vanishes, sigma block is -n/sqrt(2) per dimension
        gmm = DiagGmm(weights=[1.0], means=[[2.0, -1.0]], variances=[[1.5, 0.5]])
        n = 7
        fv = fisher_encode(gmm, VectorBag(0, np.tile([2.0, -1.0], (n, 1))))
        np.testing.assert_allclose(fv[:2], 0.0, atol=1e-12)
        np.testing.assert_allclose(fv[2:], -n / math.sqrt(2.0), atol=1e-12)

    def test_dimension_is_2dk(self):
        rng = np.random.default_rng(0)
        for d in (2, 300, 1024):
            for k in range(1, 6):
                gmm = random_gmm(rng, k, d)
                fv = fisher_encode(gmm, VectorBag(0, rng.normal(size=(3, d))))
                assert fv.shape == (2 * d * k,)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(123)
        for _ in range(25):
            k = int(rng.integers(1, 4))
            d = int(rng.integers(1, 6))
            n = int(rng.integers(1, 21))
            gmm = random_gmm(rng, k, d)
            vectors = rng.normal(size=(n, d))
            fv = fisher_encode(gmm, VectorBag(0, vectors))
            oracle = naive_fisher(
                gmm.weights.tolist(),
                gmm.means.tolist(),
                gmm.variances.tolist(),
                vectors.tolist(),
            )
            np.testing.assert_allclose(fv, oracle, rtol=1e-10, atol=1e-12)

    def test_gradient_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            gmm = random_gmm(rng, 2, 3)
            bag = VectorBag(0, rng.normal(size=(8, 3)))
            fv = fisher_encode(gmm, bag)
            fd = fd_gradient_identity(gmm, bag)
            np.testing.assert_allclose(fv, fd, rtol=1e-4, atol=1e-6)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        gmm = random_gmm(rng, 3, 2)
        v = rng.normal(size=(10, 2))
        a = fisher_encode(gmm, VectorBag(0, v))
        b = fisher_encode(gmm, VectorBag(0, v[rng.permutation(10)]))
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_dimension_mismatch(self):
        gmm = DiagGmm(weights=[1.0], means=[[0.0, 0.0]], variances=[[1.0, 1.0]])
        with pytest.raises(ValueError):
            fisher_encode(gmm, VectorBag(0, [[1.0]]))

    def test_empty_bag(self):
        gmm = DiagGmm(weights=[1.0], means=[[0.0]], variances=[[1.0]])
        with pytest.raises(ValueError):
            fisher_encode(gmm, VectorBag(0, np.zeros((0, 1))))

    def test_normalized_output_is_unit_length(self):
        rng = np.random.default_rng(11)
        gmm = random_gmm(rng, 2, 4)
        bag = VectorBag(0, rng.normal(size=(6, 4)))
        fv = fisher_encode(gmm, bag, normalize=True)
        assert np.linalg.norm(fv) == pytest.approx(1.0)
        raw = fisher_encode(gmm, bag)
        assert not np.allclose(raw, fv)


class TestEncodeClassSet:
    def bags(self, rng, n_classes=3, d=4, n=8):
        return [VectorBag(c, rng.normal(size=(n, d)) + c) for c in range(n_classes)]

    def test_average_metric_and_shape(self):
        space = encode_class_set(self.bags(np.random.default_rng(0)), "average")
        assert space.metric == "euclidean"
        assert space.reps.shape == (3, 4)
        assert space.class_ids == (0, 1, 2)

    def test_fisher_dims_sweep(self):
        rng = np.random.default_rng(1)
        for k in range(1, 6):
            space = encode_class_set(self.bags(rng, d=3), "fisher", k=k, seed=0)
            assert space.metric == "cosine"
            assert space.reps.shape == (3, 2 * 3 * k)

    def test_fisher_gmm_is_pooled(self):
        # encoding against the pooled fit differs from per-bag fits:
        # verify by checking a bag far from the pool still gets a
        # representation driven by the shared mixture
        rng = np.random.default_rng(2)
        bags = self.bags(rng)
        space = encode_class_set(bags, "fisher", k=1, seed=0)
        from zslkit.gmm import fit_diag_gmm

        pool = np.vstack([b.vectors for b in bags])
        gmm = fit_diag_gmm(pool, 1, seed=0)
        expected = np.vstack([fisher_encode(gmm, b) for b in bags])
        np.testing.assert_allclose(space.reps, expected, atol=1e-12)

    def test_td_passthrough(self):
        docs = [TokenDoc(0, ("jump", "jump")), TokenDoc(1, ("kick",))]
        td = term_document_matrix(docs, build_vocabulary(docs))
        space = encode_class_set(td, "td")
        assert space.metric == "cosine"
        assert space.reps.shape == (2, 2)
        np.testing.assert_array_equal(space.reps, td.counts.T)

    def test_error_names_offending_class(self):
        bags = [VectorBag(0, [[1.0]]), VectorBag(5, np.zeros((0, 1)))]
        for method in ("average", "fisher"):
            with pytest.raises(DataError, match="class 5"):
                encode_class_set(bags, method)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            encode_class_set([VectorBag(0, [[1.0]])], "vlad")


class TestWordVectorFiles:
    def make_table(self):
        rng = np.random.default_rng(4)
        return WordVectorTable(
            {w: rng.normal(size=3) for w in ("alpha", "beta", "gamma")}, 3
        )

    def test_text_round_trip(self, tmp_path):
        table = self.make_table()
        path = tmp_path / "vecs.txt"
        lines = [f"{len(table)} {table.dim}"] + [
            term + " " + " ".join(repr(float(x)) for x in table.vectors[term])
            for term in sorted(table.vectors)
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        loaded = load_word_vectors(path)
        assert set(loaded.vectors) == set(table.vectors)
        for w in table.vectors:
            np.testing.assert_allclose(loaded[w], table[w], atol=0)

    def test_binary_round_trip(self, tmp_path):
        table = self.make_table()
        path = tmp_path / "vecs.bin"
        records = [
            term.encode("utf-8") + b" " + table.vectors[term].astype("<f4").tobytes() + b"\n"
            for term in sorted(table.vectors)
        ]
        path.write_bytes(f"{len(table)} {table.dim}\n".encode("utf-8") + b"".join(records))
        loaded = load_word_vectors(path)
        assert loaded.dim == 3
        for w in table.vectors:
            np.testing.assert_allclose(loaded[w], table[w], atol=1e-6)  # float32 payload

    def test_bad_header(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("not a header\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_word_vectors(path)

    def test_truncated_binary(self, tmp_path):
        path = tmp_path / "vecs.bin"
        path.write_bytes(b"1 4\nword " + b"\x00" * 7)
        with pytest.raises(DataError):
            load_word_vectors(path)
