"""Zero-shot action recognition toolkit.

Class-level semantic representations from texts and image-feature bags
(term counts, bag averages, Fisher encodings over a diagonal GMM), a
two-stage latent embedding (supervised locality-preserving projection plus
landmark Sammon mapping), and conventional / generalised / transductive
recognition protocols with per-class accuracy reporting.
"""

from .corpus import TokenDoc, Vocabulary, TermDocMatrix, build_vocabulary, term_document_matrix, tokenize
from .encoders import (
    SemanticSpace,
    VectorBag,
    WordVectorTable,
    average_encode,
    encode_class_set,
    fisher_encode,
    load_word_vectors,
    lookup_word_vectors,
)
from .gmm import DiagGmm, fit_diag_gmm, gmm_posteriors, log_likelihood
from .embedding import (
    AffinityGraph,
    LatentModel,
    StressTrace,
    class_landmarks,
    knn_affinity,
    lsm_embed,
    project,
    semantic_distance_matrix,
    slpp_fit,
)
from .zsl_eval import (
    EvalReport,
    SearchSpace,
    classify_nn,
    gzsl_scores,
    harmonic_mean,
    kmeans,
    optimal_assignment,
    per_class_accuracy,
    transductive_predict,
)
from .data_io import (
    ClassSplit,
    Dataset,
    GzslPartition,
    average_segments,
    cv_folds,
    generate_class_splits,
    gzsl_holdout,
    load_dataset,
    load_matrix,
    save_matrix,
    subsample_bag,
)
from .pipeline import EvalConfig, evaluate_split, run_evaluation
from .synth import SynthSpec, make_synthetic

__version__ = "0.1.0"
