"""Dormand-Prince 5(4) stepper with quartic dense output, on rows.

The embedded pair of Dormand and Prince (J. Comput. Appl. Math. 6, 1980)
with Shampine's quartic interpolant and the elementary step-size controller
of Hairer, Norsett and Wanner (Solving ODEs I, sec. II.4).  Every operation
is the one scipy 1.17's ``RK45`` performs, in the same order and on arrays
of the same layout, so accepted steps, states and dense output agree with it
to the last bit; ``tests/test_geodesic.py`` keeps that promise with scipy
as the oracle.  The stepper integrates forward in t only.

One stepper advances R independent rows at once, each under its own step
control: its own t, step size, error norm, accept/reject decision and
rejection flag, so a row takes exactly the steps it takes alone; a single
integration is one row.  ``restart_rows`` starts rows afresh, as new
steppers would, from one right-hand-side call and one initial-step
estimate over all of them; each row gets the bits of its one-row
restart.  The rows are stacked along the state axis:
the stages form one (7, R d) array, and the stage, B, E and P products are
one ``np.dot`` over it.  That gives every row the bits of its lone (7, d)
product only because the BLAS kernel computes each output element the same
way wherever it lies; with OpenBLAS's x86-64 gemv kernels this holds for
row widths d that are multiples of 4 (the geodesic's 4 and the Jacobi
flow's 4 + 4m) but not for d = 2, and ``tests/test_fan_batch.py`` checks
it on the builtin fans.  Per-row norms use ``np.matmul`` on
(R, 1, d) @ (R, d, 1), which gives ``np.linalg.norm``'s bits.  The step
controller runs per row on Python floats, the scalar code it always was:
its powers must be float pow, since numpy's array ``**`` differs from the
scalar pow in the last bit on a few percent of inputs.
"""

import math
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
_STAGES = [A[s, :s] for s in range(1, 6)]


def _rms(x):
    """Root mean square of each row of x: ``np.linalg.norm(row) / d ** 0.5``
    to the last bit."""
    sq = np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0]
    return np.sqrt(sq) / x.shape[1] ** 0.5


class DormandPrince:
    """Integrations of y' = fun(t, y) from t0 toward t_bound > t0, on rows.

    ``t0`` holds one start time per row and ``y0`` is (R, d);
    ``fun(t, y, rows)`` returns the (k, d) derivatives at the times t and
    states y of the rows with indices ``rows``.  ``step_rows`` makes one
    attempt on every running row.  The per-row lists ``ts``, ``ts_old``,
    ``running`` and ``failed`` and the (R, d) arrays ``ys`` and ``ys_old``
    hold the result, ``dense_Q`` the interpolant coefficients of the last
    accepted steps, and ``restart_rows`` starts rows afresh.
    """

    def __init__(self, fun, t0, y0, t_bound, rtol, atol, max_step=np.inf):
        if np.ndim(t0) != 1:
            raise ValueError("`t0` must hold one start time per row.")
        t0 = list(t0)
        y0 = np.asarray(y0, dtype=float)
        if y0.ndim != 2 or len(y0) != len(t0):
            raise ValueError("`y0` must hold one row per entry of `t0`.")
        if not np.isfinite(y0).all():
            raise ValueError(
                "All components of the initial state `y0` must be finite.")
        if not all(t_bound > t for t in t0):
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
        self.rtol, self.atol, self.max_step = rtol, atol, max_step
        self.t_bound = t_bound
        R = len(y0)
        self.ts, self.ys = t0, y0.copy()
        self.ts_old = [None] * R
        self.ys_old = np.full(y0.shape, np.nan)
        self.running = [True] * R
        self.failed = [False] * R
        # whether the step each row is in has been rejected at least once
        self.rejected = [False] * R
        everyone = np.arange(R)
        self.fs = self.fun(np.array(t0, dtype=float), self.ys, everyone)
        # the step-size proposal of each row
        self.h_abs = self._initial_steps(everyone)
        self._K = None              # stages of the last attempt
        self._at = []               # places in _K of the rows it accepted

    def restart_rows(self, rows, Y):
        """Start the rows ``rows`` afresh at their current t from the states
        ``Y``, as new steppers would: new f and a new initial step for each,
        from one call of ``fun`` and one ``_initial_steps`` over them, so
        every row gets the bits of its own one-row restart."""
        Y = np.asarray(Y, dtype=float)
        if not np.isfinite(Y).all():
            raise ValueError(
                "All components of the initial state `y0` must be finite.")
        rows = np.asarray(rows)
        self.ys[rows] = Y
        self.fs[rows] = self.fun(np.take(self.ts, rows), Y, rows)
        for r, h in zip(rows.tolist(), self._initial_steps(rows)):
            self.h_abs[r] = h
            self.running[r] = True
            self.rejected[r] = False

    def _initial_steps(self, rows):
        t0 = np.array([self.ts[r] for r in rows], dtype=float)
        y0, f0 = self.ys[rows], self.fs[rows]
        scale = self.atol + np.abs(y0) * self.rtol
        d0s = _rms(y0 / scale).tolist()
        d1s = _rms(f0 / scale).tolist()
        h0s = []
        for t, d0, d1 in zip(t0.tolist(), d0s, d1s):
            if d0 < 1e-5 or d1 < 1e-5:
                h0 = 1e-6
            else:
                h0 = 0.01 * d0 / d1
            h0s.append(min(h0, self.t_bound - t))
        h0 = np.array(h0s)
        f1 = self.fun(t0 + h0, y0 + h0[:, None] * f0, rows)
        d2s = (_rms((f1 - f0) / scale) / h0).tolist()
        out = []
        for t, h0, d1, d2 in zip(t0.tolist(), h0s, d1s, d2s):
            if d1 <= 1e-15 and d2 <= 1e-15:
                h1 = max(1e-6, h0 * 1e-3)
            else:
                h1 = (0.01 / max(d1, d2)) ** (1 / 5)
            out.append(min(100 * h0, h1, self.t_bound - t, self.max_step))
        return out

    def _rk_step(self, rows, t, y, h):
        k, d = y.shape
        K = np.empty((7, k * d))
        K[0] = self.fs[rows].ravel()
        # each row's h on each of its d entries, and the stage times
        # t + c h, row by row; the last is t + h (c = 1)
        h_entries = h.repeat(d)
        tc = t + C[1:, None] * h
        yf = y.ravel()
        for s, a in enumerate(_STAGES, start=1):
            dy = K[:s].T.dot(a) * h_entries
            K[s] = self.fun(tc[s - 1], (yf + dy).reshape(k, d), rows).ravel()
        y_new = (yf + h_entries * K[:-1].T.dot(B)).reshape(k, d)
        f_new = self.fun(tc[-1], y_new, rows)
        K[-1] = f_new.ravel()
        return y_new, f_new, K, h_entries

    def step_rows(self):
        """One attempt on every running row.  Returns the lists of the rows
        that accepted a step and of the rows that failed; a rejected row
        shrinks its step and tries again on the next call."""
        rows, t_old, t_new, hs, failed = [], [], [], [], []
        for r, running in enumerate(self.running):
            if not running:
                continue
            t = self.ts[r]
            min_step = 10 * abs(math.nextafter(t, math.inf) - t)
            h_abs = self.h_abs[r]
            if not self.rejected[r]:
                # a fresh step starts from the last proposal, clamped
                if h_abs > self.max_step:
                    h_abs = self.max_step
                elif h_abs < min_step:
                    h_abs = min_step
            if h_abs < min_step:
                self.running[r] = False
                self.failed[r] = True
                failed.append(r)
                continue
            rows.append(r)
            t_old.append(t)
            t_new.append(min(t + h_abs, self.t_bound))
            hs.append(t_new[-1] - t)
        self._at = []
        if not rows:
            return rows, failed
        idx = np.array(rows)
        t = np.array(t_old, dtype=float)
        h = np.array(hs)
        y = self.ys[idx]
        y_new, f_new, K, h_entries = self._rk_step(idx, t, y, h)
        scale = self.atol + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol
        errors = _rms((K.T.dot(E) * h_entries).reshape(y.shape) / scale)
        done = []
        for j, (r, step, error_norm) in enumerate(
                zip(rows, hs, errors.tolist())):
            h_abs = abs(step)
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR,
                                 SAFETY * error_norm ** ERROR_EXPONENT)
                if self.rejected[r]:
                    factor = min(1, factor)
                self.h_abs[r] = h_abs * factor
                self.rejected[r] = False
                self.ts_old[r] = t_old[j]
                self.ts[r] = t_new[j]
                self.running[r] = t_new[j] < self.t_bound
                done.append(r)
                self._at.append(j)
            else:
                self.h_abs[r] = h_abs * max(
                    MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
                self.rejected[r] = True
        if len(done) < len(rows):
            at = self._at
            y, y_new, f_new = y[at], y_new[at], f_new[at]
            idx = np.array(done, dtype=int)
        self.ys_old[idx] = y
        self.ys[idx] = y_new
        self.fs[idx] = f_new
        self._K = K
        return done, failed

    def dense_Q(self):
        """Interpolant coefficients Q, (k, d, 4), of the last attempt's
        accepted steps, for its k accepted rows in order."""
        Q = self._K.T.dot(P).reshape(-1, self.ys.shape[1], 4)
        return Q if len(self._at) == len(Q) else Q[self._at]
