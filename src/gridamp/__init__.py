"""Single-amplitude simulator for grid quantum circuits.

Builds an undirected graphical model of <x|C|0...0>, contracts it by
variable elimination under an explicit 2^degree cost model, and
parallelizes by fixing variable values into 2^t independent subtasks.
Ships with the random grid-circuit generator and the digital-error-model
fidelity estimator.  Importing it before numpy pins BLAS to one thread
unless the environment sets a count: the engine's matmuls are many and
small, and it runs its own worker threads.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .circuit import (  # noqa: E402
    Circuit,
    CircuitError,
    CircuitParseError,
    CustomGate,
    CycleConflictError,
    Gate,
    GateKind,
    QubitBoundsError,
    parse_circuit,
    serialize_circuit,
)
from .elimination import (
    CostEstimate,
    CostStep,
    Ordering,
    contract,
    eliminate_variable,
    estimate_cost,
)
from .fidelity import (
    ErrorRates,
    FidelityReport,
    alpha_from_formulas,
    alpha_general,
    alpha_square,
    fidelity_report,
    g1_formula,
    g2_formula,
)
from .generator import GenParams, cz_layer, count_gates, generate
from .graph_model import (
    GraphModel,
    TooManyVariablesError,
    build_model,
    export_dot,
    model_value_bruteforce,
)
from .oracle import TooManyQubitsError, amplitude_of, simulate
from .ordering import (
    OrderingBudget,
    min_fill_ordering,
    search_ordering,
    vertical_ordering,
)
from .partition import (
    AmplitudeResult,
    BudgetUnreachableError,
    CostBudget,
    FixPlan,
    fix_variable,
    run_partitioned,
    select_fix_set,
)
from .tensor import (
    DEFAULT_MAX_RANK,
    MissingAxisError,
    RankOverflowError,
    Tensor,
    multiply_all,
    sum_out,
)

__version__ = "0.1.0"
