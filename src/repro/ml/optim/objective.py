"""Objective-function abstractions for the optimisers.

An objective exposes ``value_and_gradient(params)``; optimisers never need
anything else.  For data-dependent objectives (logistic regression's negative
log-likelihood, for example) the implementation streams over row chunks of the
design matrix, which keeps memory bounded and produces the sequential access
pattern that memory mapping rewards.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Tuple

import numpy as np


class DifferentiableObjective(ABC):
    """A differentiable scalar function of a parameter vector."""

    @abstractmethod
    def value_and_gradient(self, params: np.ndarray) -> Tuple[float, np.ndarray]:
        """Return ``(f(params), ∇f(params))``."""

    def value(self, params: np.ndarray) -> float:
        """Objective value only (default: discard the gradient)."""
        return self.value_and_gradient(params)[0]

    def gradient(self, params: np.ndarray) -> np.ndarray:
        """Gradient only (default: discard the value)."""
        return self.value_and_gradient(params)[1]

    @property
    @abstractmethod
    def num_parameters(self) -> int:
        """Dimensionality of the parameter vector."""

    def initial_point(self) -> np.ndarray:
        """Default starting point (zeros)."""
        return np.zeros(self.num_parameters)


class FunctionObjective(DifferentiableObjective):
    """Wraps plain Python callables into an objective.

    Parameters
    ----------
    fn:
        Callable returning the objective value.
    grad:
        Callable returning the gradient.
    dim:
        Parameter dimensionality.
    """

    def __init__(
        self,
        fn: Callable[[np.ndarray], float],
        grad: Callable[[np.ndarray], np.ndarray],
        dim: int,
    ) -> None:
        self._fn = fn
        self._grad = grad
        self._dim = dim

    def value_and_gradient(self, params: np.ndarray) -> Tuple[float, np.ndarray]:
        return float(self._fn(params)), np.asarray(self._grad(params), dtype=np.float64)

    @property
    def num_parameters(self) -> int:
        return self._dim


class QuadraticObjective(DifferentiableObjective):
    """The convex quadratic ``f(x) = 0.5 xᵀ A x − bᵀ x``.

    Its unique minimiser is the solution of ``A x = b``, which makes it the
    canonical correctness check for any optimiser.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray) -> None:
        A = np.asarray(A, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got shape {A.shape}")
        if b.shape != (A.shape[0],):
            raise ValueError(f"b must have shape ({A.shape[0]},), got {b.shape}")
        if not np.allclose(A, A.T):
            raise ValueError("A must be symmetric")
        self.A = A
        self.b = b

    def value_and_gradient(self, params: np.ndarray) -> Tuple[float, np.ndarray]:
        Ax = self.A @ params
        value = 0.5 * float(params @ Ax) - float(self.b @ params)
        return value, Ax - self.b

    @property
    def num_parameters(self) -> int:
        return self.A.shape[0]

    def minimizer(self) -> np.ndarray:
        """The exact solution ``A⁻¹ b``."""
        return np.linalg.solve(self.A, self.b)


class RosenbrockObjective(DifferentiableObjective):
    """The classic non-convex Rosenbrock banana function (n-dimensional).

    Minimum value 0 at the all-ones vector.  Used to exercise the optimisers'
    line searches on a genuinely curved landscape.
    """

    def __init__(self, dim: int = 2, a: float = 1.0, b: float = 100.0) -> None:
        if dim < 2:
            raise ValueError("Rosenbrock needs at least 2 dimensions")
        self.dim = dim
        self.a = a
        self.b = b

    def value_and_gradient(self, params: np.ndarray) -> Tuple[float, np.ndarray]:
        x = np.asarray(params, dtype=np.float64)
        lead, tail = x[:-1], x[1:]
        value = float(np.sum(self.b * (tail - lead ** 2) ** 2 + (self.a - lead) ** 2))
        grad = np.zeros_like(x)
        grad[:-1] += -4.0 * self.b * lead * (tail - lead ** 2) - 2.0 * (self.a - lead)
        grad[1:] += 2.0 * self.b * (tail - lead ** 2)
        return value, grad

    @property
    def num_parameters(self) -> int:
        return self.dim

    def initial_point(self) -> np.ndarray:
        return np.full(self.dim, -1.2)
