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

from .errors import ConfigError, IntegrationError, TrajectoryExitError
from .model import ModelSpec


@dataclass(eq=False)
class Trajectory:
    """Sampled backward path: times descending, states and field values."""

    times: np.ndarray
    states: np.ndarray  # (K, d)
    values: np.ndarray  # (K, d)

    def final_distance(self, x0) -> float:
        return float(np.linalg.norm(self.states[-1] - np.asarray(x0, dtype=float)))


def integrate_backward(U, m: ModelSpec, x1, t1, t_min, steps=200) -> Trajectory:
    """RK4 march of dx/dt = F(x, U(t,x)) from (t1, x1) down to t_min.

    U is a time-indexed field (eval(t, pts); an attached box, if any, bounds
    the march: leaving it raises TrajectoryExitError with the partial path).
    """
    if m.lam > 0:
        raise ConfigError("trajectories require lambda = 0")
    if not (0 <= t_min < t1):
        raise ConfigError("need 0 <= t_min < t1")
    if steps < 1:
        raise ConfigError("steps must be >= 1")
    box = getattr(U, "box", None)
    x = np.asarray(x1, dtype=float).reshape(-1).copy()
    h = (t1 - t_min) / steps

    def drift(xx, u):
        return np.asarray(m.eval_F(xx[None, :], u[None, :]), dtype=float)[0]

    def vel(t, xx):
        return drift(xx, U.eval(t, xx[None, :])[0])

    times = [t1]
    states = [x.copy()]
    values = [U.eval(t1, x[None, :])[0]]
    t = t1
    for k in range(steps):
        k1 = drift(x, values[-1])  # U at (t, x) was recorded with the state
        k2 = vel(t - 0.5 * h, x - 0.5 * h * k1)
        k3 = vel(t - 0.5 * h, x - 0.5 * h * k2)
        k4 = vel(t - h, x - h * k3)
        x = x - (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t = t1 - (k + 1) * h
        if not np.all(np.isfinite(x)):
            raise IntegrationError(f"trajectory became non-finite at t={t:.6g}",
                                   last_state=(t, states[-1]))
        if box is not None and not bool(box.contains(x[None, :])[0]):
            partial = Trajectory(times=np.asarray(times), states=np.asarray(states),
                                 values=np.asarray(values))
            raise TrajectoryExitError(f"trajectory left the box at t={t:.6g}",
                                      t_exit=t, partial=partial)
        times.append(t)
        states.append(x.copy())
        values.append(U.eval(t, x[None, :])[0])
    return Trajectory(times=np.asarray(times), states=np.asarray(states),
                      values=np.asarray(values))


@dataclass
class PlanningConvergence:
    """Distance to target at t_min against the linear-in-t reference."""

    distance: float
    slope: float
    passed: bool


def check_planning_convergence(traj: Trajectory, x0, slack=0.25) -> PlanningConvergence:
    """Check |x(t_min) - x0| <= (1 + slack) * c * t_min with c fitted upstream.

    The slope c of |x(t) - x0| ~ c t is fitted on the early (larger-t) half of
    the path, where the numerical field is most accurate.
    """
    x0 = np.asarray(x0, dtype=float)
    dist = np.linalg.norm(traj.states - x0, axis=1)
    t = traj.times
    upper = t >= 0.5 * (t[0] + t[-1])
    slope = float(np.sum(dist[upper] * t[upper]) / np.sum(t[upper] ** 2))
    final = float(dist[-1])
    return PlanningConvergence(distance=final, slope=slope,
                               passed=final <= (1.0 + slack) * slope * t[-1])


def check_value_consistency(traj: Trajectory, m: ModelSpec) -> float:
    """Max defect |du/dt - G(x, u)| along the path (centered differences)."""
    t = traj.times
    if len(t) < 3:
        raise ConfigError("need at least 3 samples along the trajectory")
    dudt = (traj.values[2:] - traj.values[:-2]) / (t[2:] - t[:-2])[:, None]
    g = m.eval_G(traj.states[1:-1], traj.values[1:-1])
    return float(np.max(np.linalg.norm(dudt - g, axis=1)))
