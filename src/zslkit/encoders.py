"""Class-level semantic representations from bags of vectors.

Three encoder families are provided:

* raw term-count columns passed through from a term-document matrix,
* the bag average (one D-dim vector per class),
* Fisher encoding over a shared diagonal GMM (one 2*D*K vector per class):
  the gradient of the bag's log-likelihood with respect to the component
  means and deviations, rescaled per component.

Distances between class representations use Euclidean metric for averages
and cosine for Fisher and term-count representations.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import TermDocMatrix, TokenDoc
from .errors import DataError
from .gmm import DiagGmm, fit_diag_gmm, gmm_posteriors


@dataclass(frozen=True)
class VectorBag:
    """An unordered set of D-dimensional vectors attached to one class."""

    class_id: int
    vectors: np.ndarray  # (n, D)

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.vectors, dtype=np.float64))
        object.__setattr__(self, "vectors", v)

    @property
    def size(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True)
class SemanticSpace:
    """Per-class representation vectors plus the metric used to compare them."""

    class_ids: tuple[int, ...]
    reps: np.ndarray  # (C, dim)
    metric: str  # "cosine" | "euclidean"

    def __post_init__(self):
        reps = np.atleast_2d(np.asarray(self.reps, dtype=np.float64))
        ids = tuple(int(c) for c in self.class_ids)
        if reps.shape[0] != len(ids):
            raise ValueError(
                f"{len(ids)} class ids but {reps.shape[0]} representation rows"
            )
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate class ids in semantic space")
        if self.metric not in ("cosine", "euclidean"):
            raise ValueError(f"unknown metric {self.metric!r}")
        object.__setattr__(self, "class_ids", ids)
        object.__setattr__(self, "reps", reps)

    @property
    def dim(self) -> int:
        return self.reps.shape[1]


class WordVectorTable:
    """term -> D-dimensional vector lookup, loaded from a table file."""

    def __init__(self, vectors: dict, dim: int):
        self.vectors = vectors
        self.dim = int(dim)
        for term, vec in vectors.items():
            if vec.shape != (self.dim,):
                raise ValueError(f"vector for {term!r} has shape {vec.shape}")

    def __contains__(self, term) -> bool:
        return term in self.vectors

    def __getitem__(self, term) -> np.ndarray:
        return self.vectors[term]

    def __len__(self) -> int:
        return len(self.vectors)


def _parse_table_header(line: bytes, path) -> tuple[int, int]:
    parts = line.split()
    if len(parts) != 2:
        raise DataError(f"bad word-vector table header in {path}: {line!r}")
    try:
        count, dim = int(parts[0]), int(parts[1])
    except ValueError as e:
        raise DataError(f"bad word-vector table header in {path}: {line!r}") from e
    if count < 1 or dim < 1:
        raise DataError(f"word-vector table {path} declares {count} x {dim}")
    return count, dim


def _load_word_vectors_text(text: str, count: int, dim: int, path) -> dict:
    vectors = {}
    records = [ln for ln in text.splitlines() if ln.strip()]
    if len(records) != count:
        raise DataError(
            f"word-vector table {path} declares {count} records, found {len(records)}"
        )
    for ln in records:
        fields = ln.split()
        if len(fields) != dim + 1:
            raise DataError(f"record {fields[0]!r} in {path} has {len(fields) - 1} values")
        try:
            vectors[fields[0]] = np.array([float(x) for x in fields[1:]], dtype=np.float64)
        except ValueError as e:
            raise DataError(f"record {fields[0]!r} in {path}: {e}") from e
    return vectors


def _load_word_vectors_binary(payload: bytes, count: int, dim: int, path) -> dict:
    vectors = {}
    rec_bytes = 4 * dim
    pos = 0
    for _ in range(count):
        while pos < len(payload) and payload[pos : pos + 1] in (b"\n", b"\r", b" "):
            pos += 1
        end = payload.find(b" ", pos)
        if end < 0:
            raise DataError(f"truncated word record in binary table {path}")
        term = payload[pos:end].decode("utf-8")
        pos = end + 1
        chunk = payload[pos : pos + rec_bytes]
        if len(chunk) != rec_bytes:
            raise DataError(f"truncated vector for {term!r} in binary table {path}")
        vectors[term] = np.frombuffer(chunk, dtype="<f4").astype(np.float64)
        pos += rec_bytes
    return vectors


def load_word_vectors(path) -> WordVectorTable:
    """Load a word-embedding table.

    Two layouts are accepted, both starting with an ASCII header line
    "count dim": a text layout with one "term v1 ... vD" record per line,
    and the common binary layout with the term, a space, then D
    little-endian float32 values per record. A payload that decodes as
    UTF-8 and whose first record has the right field count is committed to
    as text (malformed values then fail loudly rather than being re-read
    as binary); anything else is parsed as binary.
    """
    path = Path(path)
    with open(path, "rb") as f:
        header = f.readline()
        count, dim = _parse_table_header(header, path)
        payload = f.read()
    try:
        text = payload.decode("utf-8")
    except UnicodeDecodeError:
        text = None
    if text is not None:
        first = next((ln for ln in text.splitlines() if ln.strip()), "")
        if len(first.split()) == dim + 1:
            return WordVectorTable(_load_word_vectors_text(text, count, dim, path), dim)
    return WordVectorTable(_load_word_vectors_binary(payload, count, dim, path), dim)


def lookup_word_vectors(doc: TokenDoc, table: WordVectorTable) -> tuple[VectorBag, int]:
    """Convert a token document to a bag of word vectors.

    Tokens occurring more than once contribute one vector per occurrence.
    Tokens missing from the table are skipped; the skip count is returned
    alongside the bag. A document whose tokens are all missing is an error.
    """
    if len(table) == 0:
        raise ValueError("word-vector table is empty")
    found = [table[t] for t in doc.tokens if t in table]
    skipped = len(doc.tokens) - len(found)
    if not found:
        raise DataError(
            f"no token of class {doc.class_id} is present in the word-vector table"
        )
    return VectorBag(class_id=doc.class_id, vectors=np.vstack(found)), skipped


def average_encode(bag: VectorBag) -> np.ndarray:
    """Mean of the bag's vectors."""
    if bag.size == 0:
        raise ValueError(f"cannot encode empty bag for class {bag.class_id}")
    return bag.vectors.mean(axis=0)


def fisher_encode(gmm: DiagGmm, bag: VectorBag, *, normalize: bool = False) -> np.ndarray:
    """Fisher encoding of a bag under a diagonal GMM.

    Returns the 2*D*K vector

        [G_mu_1, ..., G_mu_K, G_sigma_1, ..., G_sigma_K]

    with, per component k and element-wise over dimensions,

        G_mu_k    = pi_k**-0.5     * sum_i gamma_ki (v_i - mu_k) / sigma_k
        G_sigma_k = (2 pi_k)**-0.5 * sum_i gamma_ki ((v_i - mu_k)^2 / sigma_k^2 - 1)

    where gamma_ki is the posterior of component k for vector v_i. This
    equals the gradient of the bag's total log-likelihood with respect to
    mu_k and sigma_k, rescaled element-wise by sigma_k/sqrt(pi_k) and
    sigma_k/sqrt(2 pi_k).

    With normalize=True the raw encoding is signed-square-rooted and then
    L2-normalized; the default leaves it raw.
    """
    if bag.size == 0:
        raise ValueError(f"cannot encode empty bag for class {bag.class_id}")
    if bag.dim != gmm.dim:
        raise ValueError(
            f"bag dimension {bag.dim} does not match mixture dimension {gmm.dim}"
        )
    gamma = gmm_posteriors(gmm, bag.vectors)  # (n, K)
    # The sums over i expand into the posterior-weighted first and second
    # moments s1 = gamma^T v and s2 = gamma^T v^2, taken about the mixture
    # mean so that the expansion keeps its digits.
    centre = gmm.weights @ gmm.means
    Vc = bag.vectors - centre
    mu_c = gmm.means - centre  # (K, D)
    nk = gamma.sum(axis=0)[:, None]  # (K, 1)
    s1 = gamma.T @ Vc
    s2 = gamma.T @ (Vc * Vc)

    g_mu = (s1 - nk * mu_c) / np.sqrt(gmm.variances)
    g_mu /= np.sqrt(gmm.weights)[:, None]
    g_sigma = (s2 - 2.0 * mu_c * s1 + nk * mu_c * mu_c) / gmm.variances - nk
    g_sigma /= np.sqrt(2.0 * gmm.weights)[:, None]

    fv = np.concatenate([g_mu.ravel(), g_sigma.ravel()])
    if normalize:
        fv = np.sign(fv) * np.sqrt(np.abs(fv))
        norm = np.linalg.norm(fv)
        if norm > 0:
            fv = fv / norm
    return fv


def encode_class_set(
    bags,
    method: str,
    *,
    k: int = 1,
    seed: int = 0,
    normalize: bool = False,
    max_iter: int = 300,
) -> SemanticSpace:
    """Encode one representation per class into a SemanticSpace.

    method "average" or "fisher" takes a list of VectorBag, one per class;
    method "td" takes a TermDocMatrix and passes its columns through. For
    "fisher", a single GMM with `k` components is fitted on the vectors of
    all bags pooled together, then every bag is encoded against it.

    Metrics follow the encoding: Euclidean for averages, cosine for Fisher
    and term-count representations.
    """
    if method == "td":
        if not isinstance(bags, TermDocMatrix):
            raise ValueError("method 'td' requires a TermDocMatrix")
        return SemanticSpace(
            class_ids=bags.class_ids,
            reps=bags.counts.T.astype(np.float64),
            metric="cosine",
        )

    bags = list(bags)
    if not bags:
        raise ValueError("no bags to encode")
    ids = [b.class_id for b in bags]
    if len(set(ids)) != len(ids):
        raise ValueError("bags must carry distinct class ids")
    dims = {b.dim for b in bags}
    if len(dims) != 1:
        raise DataError(f"bags disagree on vector dimension: {sorted(dims)}")

    if method == "average":
        encode, metric = average_encode, "euclidean"
    elif method == "fisher":
        pool = np.vstack([b.vectors for b in bags if b.size > 0])
        gmm = fit_diag_gmm(pool, k, max_iter=max_iter, seed=seed)
        encode, metric = lambda bag: fisher_encode(gmm, bag, normalize=normalize), "cosine"
    else:
        raise ValueError(f"unknown encoding method {method!r}")
    reps = []
    for bag in bags:
        try:
            reps.append(encode(bag))
        except ValueError as e:
            raise DataError(f"class {bag.class_id}: {e}") from e
    return SemanticSpace(class_ids=tuple(ids), reps=np.vstack(reps), metric=metric)
