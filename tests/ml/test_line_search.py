"""Tests for the strong-Wolfe line search L-BFGS uses."""

import numpy as np
import pytest

from repro.ml.optim.line_search import wolfe_line_search


def quadratic_oracle(x0, direction):
    """Directional oracle for f(x) = 0.5 ||x||^2."""

    def oracle(alpha):
        x = x0 + alpha * direction
        value = 0.5 * float(x @ x)
        slope = float(x @ direction)
        return value, slope

    return oracle


class TestWolfe:
    def test_satisfies_armijo_and_decreases(self):
        x0 = np.array([3.0, -2.0])
        direction = -x0
        f0 = 0.5 * float(x0 @ x0)
        g0 = float(x0 @ direction)
        step, value, _ = wolfe_line_search(quadratic_oracle(x0, direction), f0, g0)
        assert value <= f0 + 1e-4 * step * g0
        assert step > 0

    def test_curvature_condition_on_quadratic(self):
        x0 = np.array([2.0])
        direction = np.array([-2.0])
        f0 = 2.0
        g0 = float(x0 @ direction)
        step, _, _ = wolfe_line_search(quadratic_oracle(x0, direction), f0, g0, c2=0.5)
        x_new = x0 + step * direction
        new_slope = float(x_new @ direction)
        assert abs(new_slope) <= 0.5 * abs(g0) + 1e-8

    def test_expands_small_initial_step(self):
        x0 = np.array([10.0])
        direction = np.array([-1.0])
        f0 = 50.0
        g0 = -10.0
        step, value, _ = wolfe_line_search(
            quadratic_oracle(x0, direction), f0, g0, initial_step=0.5
        )
        assert value < f0
        assert step >= 0.5

    def test_non_descent_direction_rejected(self):
        with pytest.raises(ValueError):
            wolfe_line_search(lambda a: (0.0, 0.0), 1.0, 1.0)

    def test_accepts_unit_step_on_well_scaled_problem(self):
        # The exact minimiser along d sits at alpha = 1: one evaluation.
        x0 = np.array([1.0, 1.0])
        direction = -x0
        f0 = 0.5 * float(x0 @ x0)
        g0 = float(x0 @ direction)
        step, value, evals = wolfe_line_search(quadratic_oracle(x0, direction), f0, g0)
        assert step == 1.0
        assert value == 0.0
        assert evals == 1

    def test_zooms_into_overly_large_step(self):
        x0 = np.array([1.0])
        direction = np.array([-100.0])
        f0 = 0.5
        g0 = float(x0 @ direction)
        step, value, _ = wolfe_line_search(quadratic_oracle(x0, direction), f0, g0)
        assert 0.0 < step < 1.0
        assert value <= f0 + 1e-4 * step * g0
