"""Dormand-Prince 5(4) stepper with quartic dense output.

The embedded pair of Dormand and Prince (J. Comput. Appl. Math. 6, 1980)
with Shampine's quartic interpolant and the elementary step-size controller
of Hairer, Norsett and Wanner (Solving ODEs I, sec. II.4).  Every operation
is the one scipy 1.17's ``RK45`` performs, in the same order and on arrays
of the same layout, so accepted steps, states and dense output agree with it
to the last bit; ``tests/test_geodesic.py`` keeps that promise with scipy
as the oracle.  The stepper integrates forward in t only.
"""

import warnings

import numpy as np

EPS = np.finfo(float).eps
SAFETY = 0.9
MIN_FACTOR = 0.2      # smallest step-size decrease
MAX_FACTOR = 10       # largest step-size increase
ERROR_EXPONENT = -1 / 5
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."

C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]
])
B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525,
              1/40])
# Shampine's optimal c_6 interpolant: y(t_old + x h) = y_old + h Q p(x),
# with Q = K^T P and p(x) = (x, x^2, x^3, x^4)
P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
_STAGES = [(A[s, :s], C[s]) for s in range(1, 6)]


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


class DormandPrince:
    """One integration of y' = fun(t, y) from t0 toward t_bound > t0.

    ``fun`` returns a float array shaped like ``y``.  ``step`` advances one
    accepted step and returns None, or sets ``status`` to "failed" and
    returns the reason; ``status`` is "finished" once ``t`` reaches
    ``t_bound``.  After a step, ``t_old``/``y_old`` hold its start and
    ``dense_Q`` its interpolant coefficients.
    """

    def __init__(self, fun, t0, y0, t_bound, rtol, atol, max_step=np.inf):
        y0 = np.asarray(y0, dtype=float)
        if y0.ndim != 1:
            raise ValueError("`y0` must be 1-dimensional.")
        if not np.isfinite(y0).all():
            raise ValueError(
                "All components of the initial state `y0` must be finite.")
        if not t_bound > t0:
            raise ValueError("`t_bound` must exceed `t0`.")
        if max_step <= 0:
            raise ValueError("`max_step` must be positive.")
        if rtol < 100 * EPS:
            warnings.warn("At least one element of `rtol` is too small. "
                          f"Setting `rtol = np.maximum(rtol, {100 * EPS})`.",
                          stacklevel=2)
            rtol = np.maximum(rtol, 100 * EPS)
        if np.any(np.asarray(atol) < 0):
            raise ValueError("`atol` must be positive.")
        self.fun = fun
        self.t, self.y, self.t_bound = t0, y0, t_bound
        self.t_old = self.y_old = None
        self.rtol, self.atol, self.max_step = rtol, atol, max_step
        self.f = fun(t0, y0)
        self.h_abs = self._initial_step()
        self.K = np.empty((7, y0.size))
        self.status = "running"

    def _initial_step(self):
        t0, y0, f0 = self.t, self.y, self.f
        interval_length = self.t_bound - t0
        scale = self.atol + np.abs(y0) * self.rtol
        d0 = _rms(y0 / scale)
        d1 = _rms(f0 / scale)
        if d0 < 1e-5 or d1 < 1e-5:
            h0 = 1e-6
        else:
            h0 = 0.01 * d0 / d1
        h0 = min(h0, interval_length)
        f1 = self.fun(t0 + h0, y0 + h0 * f0)
        d2 = _rms((f1 - f0) / scale) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / 5)
        return min(100 * h0, h1, interval_length, self.max_step)

    def _rk_step(self, t, y, h):
        K = self.K
        K[0] = self.f
        for s, (a, c) in enumerate(_STAGES, start=1):
            dy = np.dot(K[:s].T, a) * h
            K[s] = self.fun(t + c * h, y + dy)
        y_new = y + h * np.dot(K[:-1].T, B)
        f_new = self.fun(t + h, y_new)
        K[-1] = f_new
        return y_new, f_new

    def step(self):
        if self.status != "running":
            raise RuntimeError("Attempt to step on a failed or finished "
                               "solver.")
        t, y = self.t, self.y
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        if self.h_abs > self.max_step:
            h_abs = self.max_step
        elif self.h_abs < min_step:
            h_abs = min_step
        else:
            h_abs = self.h_abs
        rejected = False
        while True:
            if h_abs < min_step:
                self.status = "failed"
                return TOO_SMALL_STEP
            t_new = min(t + h_abs, self.t_bound)
            h = t_new - t
            h_abs = np.abs(h)
            y_new, f_new = self._rk_step(t, y, h)
            scale = (self.atol
                     + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol)
            error_norm = _rms(np.dot(self.K.T, E) * h / scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR,
                                 SAFETY * error_norm ** ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True
        self.t_old, self.y_old = t, y
        self.t, self.y, self.f, self.h_abs = t_new, y_new, f_new, h_abs
        if t_new >= self.t_bound:
            self.status = "finished"
        return None

    def dense_Q(self):
        """Interpolant coefficients Q of the last accepted step."""
        return self.K.T.dot(P)
