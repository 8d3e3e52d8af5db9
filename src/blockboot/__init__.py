"""Block bootstrap inference for dependent functional time series."""

__version__ = "0.1.0"

from .bootstrap import (
    BlockPlan,
    block_length_schedule,
    bootstrap_distribution,
    bootstrap_replicate,
    empirical_quantile,
    long_run_variance_estimate,
    two_sample_test,
)
from .generators import ProcessConfig, generate_functional, generate_real
from .hilbert import (
    GridFunction,
    HilbertSample,
    inner_product,
    norm,
    sample_mean,
    trapezoid_weights,
)
from .io import read_sample, write_sample
from .rng import derive_stream
from .vmstat import (
    CvmSpec,
    Kernel,
    cvm_kernel,
    cvm_statistic,
    cvm_test,
    degeneracy_diagnostic,
    empirical_cdf,
    gaussian_kernel,
    make_cvm_spec,
    product_kernel,
    v_statistic,
    vstat_test,
)

__all__ = [
    "__version__",
    "BlockPlan",
    "CvmSpec",
    "GridFunction",
    "HilbertSample",
    "Kernel",
    "ProcessConfig",
    "block_length_schedule",
    "bootstrap_distribution",
    "bootstrap_replicate",
    "cvm_kernel",
    "cvm_statistic",
    "cvm_test",
    "degeneracy_diagnostic",
    "derive_stream",
    "empirical_cdf",
    "empirical_quantile",
    "gaussian_kernel",
    "generate_functional",
    "generate_real",
    "inner_product",
    "long_run_variance_estimate",
    "make_cvm_spec",
    "norm",
    "product_kernel",
    "read_sample",
    "sample_mean",
    "trapezoid_weights",
    "two_sample_test",
    "v_statistic",
    "vstat_test",
    "write_sample",
]
