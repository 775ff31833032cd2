"""Backward agent trajectories through a solved field.

With the field U known, the path of a representative agent observed at x1
when a time interval t1 remains solves

    dx/dt = F(x, U(t, x)),

integrated backward from t = t1 down to t = t_min, and the value carried
along the path obeys du/dt = G(x, u). For planning limits the path converges
to the target linearly in the remaining time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .characteristics import rk4_step
from .errors import ConfigError, IntegrationError, TrajectoryExitError
from .model import ModelSpec

CONVERGENCE_SLACK = 0.25  # relative margin over the fitted linear-in-t distance


@dataclass(eq=False)
class Trajectory:
    """Sampled backward paths: times descending, states and field values."""

    times: np.ndarray
    states: np.ndarray  # (K, *start.shape): (K, d) for one path, (K, N, d) for N
    values: np.ndarray  # like states

    def path(self, i) -> Trajectory:
        """Path i of a batch, as a single-path Trajectory."""
        return Trajectory(times=self.times, states=self.states[:, i], values=self.values[:, i])

    def _require_one_path(self, what):
        """Raise ConfigError naming what when this is a batch of paths."""
        if self.states.ndim != 2:
            raise ConfigError(f"{what} takes one path, not a batch of {self.states.shape[1]}: "
                              "pass path(i)")


def integrate_backward(U, m: ModelSpec, x1, t1, t_min, steps=200) -> Trajectory:
    """RK4 march of dx/dt = F(x, U(t,x)) from (t1, x1) down to t_min.

    x1 is one start (d,) or a batch (N, d) marched together, with one U.eval
    per stage. U is a time-indexed field (eval(t, pts)); an attached box, if
    any, bounds the march: when a path leaves it, TrajectoryExitError names the
    first such start and carries every path up to the last step inside. A
    non-finite state raises IntegrationError with last_state (t, x).
    """
    if m.lam > 0:
        raise ConfigError("trajectories require lambda = 0")
    if not (0 <= t_min < t1):
        raise ConfigError("need 0 <= t_min < t1")
    if steps < 1:
        raise ConfigError("steps must be >= 1")
    x = np.atleast_2d(np.asarray(x1, dtype=float)).copy()
    if x.ndim != 2 or x.shape[1] != m.d:
        raise ConfigError(f"starts must be one point or rows of {m.d} coordinates")
    shape = x.shape if np.ndim(x1) == 2 else (m.d,)
    box = getattr(U, "box", None)
    h = (t1 - t_min) / steps

    def velocity(t, xx):
        return np.asarray(m.eval_F(xx, U.eval(t, xx)), dtype=float)

    times, states, values = [t1], [x], [U.eval(t1, x)]

    def trajectory():
        return Trajectory(times=np.asarray(times),
                          states=np.asarray(states).reshape(-1, *shape),
                          values=np.asarray(values).reshape(-1, *shape))

    for k in range(steps):
        k1 = np.asarray(m.eval_F(x, values[-1]), dtype=float)  # U(t, x) was recorded
        x = rk4_step(velocity, times[-1], x, -h, k1=k1)
        t = t1 - (k + 1) * h
        # inside a box means finite (nan compares False), so one test per step
        ok = np.isfinite(x) if box is None else (x >= box.lo) & (x <= box.hi)
        if not ok.all():
            if not np.isfinite(x).all():
                raise IntegrationError(f"trajectory became non-finite at t={t:.6g}",
                                       last_state=(times[-1], states[-1].reshape(shape)))
            i = int(np.argmin(ok.all(axis=1)))  # the first start outside
            raise TrajectoryExitError(
                f"trajectory {i} (start {', '.join(f'{v:.6g}' for v in states[0][i])}) "
                f"left the box at t={t:.6g}", t_exit=t, partial=trajectory())
        times.append(t)
        states.append(x)
        values.append(U.eval(t, x))
    return trajectory()


@dataclass
class PlanningConvergence:
    """Distance to target at t_min against the linear-in-t reference."""

    distance: float
    slope: float
    passed: bool


def check_planning_convergence(traj: Trajectory, x0) -> PlanningConvergence:
    """Check |x(t_min) - x0| <= (1 + CONVERGENCE_SLACK) * c * t_min, c fitted upstream.

    The slope c of |x(t) - x0| ~ c t is fitted on the early (larger-t) half of
    the path, where the numerical field is most accurate.
    """
    traj._require_one_path("check_planning_convergence")
    x0 = np.asarray(x0, dtype=float)
    dist = np.linalg.norm(traj.states - x0, axis=1)
    t = traj.times
    upper = t >= 0.5 * (t[0] + t[-1])
    slope = float(np.sum(dist[upper] * t[upper]) / np.sum(t[upper] ** 2))
    final = float(dist[-1])
    return PlanningConvergence(distance=final, slope=slope,
                               passed=final <= (1.0 + CONVERGENCE_SLACK) * slope * t[-1])


def check_value_consistency(traj: Trajectory, m: ModelSpec) -> float:
    """Max defect |du/dt - G(x, u)| along the path (centered differences)."""
    traj._require_one_path("check_value_consistency")
    t = traj.times
    if len(t) < 3:
        raise ConfigError("need at least 3 samples along the trajectory")
    dudt = (traj.values[2:] - traj.values[:-2]) / (t[2:] - t[:-2])[:, None]
    g = m.eval_G(traj.states[1:-1], traj.values[1:-1])
    return float(np.max(np.linalg.norm(dudt - g, axis=1)))
