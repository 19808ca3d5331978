"""The line search L-BFGS uses.

:func:`wolfe_line_search` is a bracketing/zoom search satisfying the strong
Wolfe conditions, which L-BFGS requires for its curvature pairs to keep the
inverse-Hessian approximation positive definite.  It operates purely through
a directional oracle, so it is oblivious to where the underlying data lives.
"""

from __future__ import annotations

from typing import Callable, Tuple

#: Signature of the oracle handed to the line search: maps a step length
#: ``alpha`` to ``(f(x + alpha * d), ∇f(x + alpha * d) · d)``.
DirectionalOracle = Callable[[float], Tuple[float, float]]


def wolfe_line_search(
    oracle: DirectionalOracle,
    f0: float,
    g0: float,
    initial_step: float = 1.0,
    c1: float = 1e-4,
    c2: float = 0.9,
    max_steps: int = 25,
    max_step: float = 1e10,
) -> Tuple[float, float, int]:
    """Strong-Wolfe line search (Nocedal & Wright, Algorithm 3.5/3.6).

    Returns ``(step, value, evaluations)``.  Falls back to the best Armijo
    point found if the zoom phase fails to satisfy the curvature condition.
    """
    if g0 >= 0:
        raise ValueError(f"not a descent direction: directional derivative {g0} >= 0")

    evaluations = 0

    def evaluate(alpha: float) -> Tuple[float, float]:
        nonlocal evaluations
        evaluations += 1
        return oracle(alpha)

    def zoom(lo: float, f_lo: float, g_lo: float, hi: float, f_hi: float) -> Tuple[float, float]:
        """Bisection-based zoom between a low (good) and high bracket end."""
        for _ in range(max_steps):
            alpha = 0.5 * (lo + hi)
            value, slope = evaluate(alpha)
            if value > f0 + c1 * alpha * g0 or value >= f_lo:
                hi, f_hi = alpha, value
            else:
                if abs(slope) <= -c2 * g0:
                    return alpha, value
                if slope * (hi - lo) >= 0:
                    hi, f_hi = lo, f_lo
                lo, f_lo, g_lo = alpha, value, slope
        return lo, f_lo

    prev_alpha, prev_value = 0.0, f0
    alpha = min(initial_step, max_step)
    for iteration in range(max_steps):
        value, slope = evaluate(alpha)
        if value > f0 + c1 * alpha * g0 or (iteration > 0 and value >= prev_value):
            step, final_value = zoom(prev_alpha, prev_value, g0 if iteration == 0 else slope, alpha, value)
            return step, final_value, evaluations
        if abs(slope) <= -c2 * g0:
            return alpha, value, evaluations
        if slope >= 0:
            step, final_value = zoom(alpha, value, slope, prev_alpha, prev_value)
            return step, final_value, evaluations
        prev_alpha, prev_value = alpha, value
        alpha = min(2.0 * alpha, max_step)

    return prev_alpha, prev_value, evaluations
