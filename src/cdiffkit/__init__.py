"""cdiffkit: exact c-differential uniformity and Walsh-transform analysis
of functions over GF(p^n)."""

__version__ = "0.1.0"

from .cdiff import (
    AConvention,
    SpectrumReport,
    UniformityResult,
    c_derivative,
    cross_solution_check,
    ddt_c,
    dual_convention_max,
    spectrum,
    uniformity,
)
from .field import FieldSpec, build_field, find_default_modulus
from .functions import (
    FunctionTable,
    from_monomial,
    from_polynomial,
    inverse_table,
    load_table,
    raw_table,
    save_table,
    table_from_json_dict,
    table_to_json_dict,
)
from .numth import (
    TrinomialOutcome,
    chebyshev_eval,
    chebyshev_is_permutation,
    gcd_power_formula,
    solve_quadratic,
    trinomial_roots,
)
from .theorems import ClaimVerdict, sweep, verify
from .walsh import (
    CyclotomicInt,
    WalshTable,
    apcn_statistic,
    convolution_statistic,
    derivative_walsh_statistic,
    pcn_power_sum,
    walsh_table,
    walsh_value,
)

__all__ = [
    "AConvention", "ClaimVerdict", "CyclotomicInt", "FieldSpec",
    "FunctionTable", "SpectrumReport", "TrinomialOutcome", "UniformityResult",
    "WalshTable", "apcn_statistic", "build_field", "c_derivative",
    "chebyshev_eval", "chebyshev_is_permutation", "convolution_statistic",
    "cross_solution_check", "ddt_c", "derivative_walsh_statistic",
    "dual_convention_max", "find_default_modulus", "from_monomial",
    "from_polynomial", "gcd_power_formula", "inverse_table", "load_table",
    "pcn_power_sum", "raw_table", "save_table", "solve_quadratic", "spectrum",
    "sweep", "table_from_json_dict", "table_to_json_dict", "trinomial_roots",
    "uniformity", "verify", "walsh_table", "walsh_value",
]
