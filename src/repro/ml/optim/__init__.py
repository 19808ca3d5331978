"""Numerical optimisers.

The paper runs logistic regression with "10 iterations of L-BFGS" — the same
optimiser mlpack uses.  This subpackage implements L-BFGS from scratch
(two-loop recursion with a strong-Wolfe line search).  The linear models'
``solver="sgd"`` path streams chunks through its own update loop in
:mod:`repro.ml.linear_model.sgd_streaming`.
"""

from repro.ml.optim.objective import (
    DifferentiableObjective,
    FunctionObjective,
    QuadraticObjective,
    RosenbrockObjective,
)
from repro.ml.optim.result import OptimizationResult
from repro.ml.optim.line_search import wolfe_line_search
from repro.ml.optim.lbfgs import LBFGS

__all__ = [
    "DifferentiableObjective",
    "FunctionObjective",
    "QuadraticObjective",
    "RosenbrockObjective",
    "OptimizationResult",
    "wolfe_line_search",
    "LBFGS",
]
