"""weakstat: uniform concentration bounds, interaction seminorms and
closed-form or Monte-Carlo complexity terms for nonlinear statistics of
independent samples, with robust trimmed clustering and certificate-backed
ranking selection built on top."""

from .applications import (
    ClusteringResult,
    RankingSelection,
    center_matching_error,
    clustering_certificate,
    gaussian_mixture_with_noise,
    linear_ranker_class,
    select_ranker,
    trimmed_kmeans,
    two_block_ranking_space,
    two_block_second_moment,
    weighted_rank_kmeans,
)
from .bounds import (
    BoundCertificate,
    CertifiedBoundError,
    InapplicableCertificateError,
    mcdiarmid_tail,
    symmetrization_bound,
    uniform_bound,
)
from .complexity import (
    ComplexityEstimate,
    LinearClass,
    class_complexity,
    gaussian_average,
    gaussian_from_rademacher,
    linear_gaussian_complexity,
    rademacher_average,
)
from .core import (
    Domain,
    DomainViolationError,
    FunctionClass,
    RawSpace,
    SeededRng,
    Statistic,
    box,
    evaluate_class,
    symmetric_interval,
    uniform_raw_space,
    unit_interval,
)
from .oracle import (
    CheckResult,
    FkDecomposition,
    fk_decompose,
    fk_difference_check,
    fk_term,
    jlip_lemma_check,
    lstat_condition_check,
    lstat_condition_counts,
    sup_deviation_estimate,
    vk_vector,
)
from .seminorms import (
    SeminormReport,
    analytic_seminorms_auc,
    analytic_seminorms_lstat,
    analytic_seminorms_ustat,
    derivative_seminorms,
    double_difference,
    empirical_seminorms,
    partial_difference,
)
from .statistics import (
    Kernel,
    LossFunction,
    RidgeProblem,
    WeightFunction,
    auc_statistic,
    constant_weight,
    f_zeta,
    f_zeta_weight,
    indicator_loss,
    l_statistic,
    lstat_statistic,
    mean_statistic,
    nearest_center_losses,
    product_kernel,
    ramp_loss,
    ridge_error,
    ridge_error_statistic,
    ridge_solution,
    sample_mean,
    smoothed_auc,
    u_stat_statistic,
    u_statistic,
    v_stat_statistic,
    v_statistic,
)

__version__ = "0.1.0"
