"""Exact ell-adic measure calculus and the L-functions built from it."""

from .padic import (
    PadicNum,
    is_odd_prime,
    one_unit_pow,
    residue_mod,
    smallest_regularizer,
    teichmuller,
    unit_decompose,
)
from .bernoulli import bernoulli_number, bernoulli_poly, gen_bernoulli
from .measures import (
    CongruenceReport,
    Factor,
    MeasureTower,
    Word,
    bernoulli_measure,
    bernoulli_unit_integral,
    congruence_check,
    dirac_tower,
    integrate,
    pushforward_linear,
    random_bounded_tower,
    raw_word_integral,
    restrict,
    tower_from_json,
    tower_to_json,
)
from .transforms import (
    IwasawaSeries,
    f_transform,
    measure_from_p_series,
    p_series_to_f,
    p_transform,
)
from .ncseries import (
    NcSeries,
    ReducedSeries,
    bch,
    bch_reduced,
    bch_scaled_pair,
    bernoulli_kernel,
    gamma_series,
    inversion_closed_form,
    inversion_pipeline,
)
from .lfunctions import (
    DirichletCharacter,
    SigmaDependentError,
    classical_dirichlet_special,
    dirichlet_l,
    dirichlet_node,
    hurwitz_l,
    hurwitz_node,
    interpolation_weight,
    kl_node,
    kl_node_rational,
    kubota_leopoldt,
    minus_one_l,
    zinv_l,
    zinv_node,
    zinv_report,
)

__version__ = "0.1.0"
