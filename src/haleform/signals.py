"""Input signals u: R+ -> R^m for the driven system variant.

All kinds are piecewise-defined and Lebesgue measurable by construction;
evaluation at jump points is right-continuous (the integrator aligns its mesh
with the jumps). The essential sup norm over [0, T) is computable for any T.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, PreconditionError

ZERO = "zero"
CONSTANT = "constant"
PIECEWISE_CONSTANT = "piecewise-constant"
SINUSOID = "sinusoid"
TABLE = "table"


@dataclass(frozen=True)
class InputSignal:
    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in (ZERO, CONSTANT, PIECEWISE_CONSTANT, SINUSOID, TABLE):
            raise PreconditionError(f"unknown input kind {self.kind!r}")

    @property
    def m(self) -> int:
        if self.kind == ZERO:
            return int(self.params["m"])
        if self.kind == CONSTANT:
            return np.atleast_1d(self.params["value"]).shape[0]
        if self.kind == PIECEWISE_CONSTANT:
            return np.atleast_2d(self.params["values"]).shape[1]
        if self.kind == SINUSOID:
            return np.atleast_1d(self.params["amplitude"]).shape[0]
        return np.atleast_2d(self.params["values"]).shape[1]

    def eval(self, t, side: str = "+") -> np.ndarray:
        scalar = np.isscalar(t) or np.ndim(t) == 0
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        if self.kind == ZERO:
            out = np.zeros((ts.size, self.m))
        elif self.kind == CONSTANT:
            out = np.broadcast_to(
                np.atleast_1d(self.params["value"]), (ts.size, self.m)
            ).copy()
        elif self.kind == PIECEWISE_CONSTANT:
            times = np.asarray(self.params["times"], dtype=float)
            values = np.atleast_2d(np.asarray(self.params["values"], dtype=float))
            side_kw = "right" if side == "+" else "left"
            idx = np.clip(np.searchsorted(times, ts, side=side_kw) - 1, 0, values.shape[0] - 1)
            out = values[idx]
        elif self.kind == SINUSOID:
            amp = np.atleast_1d(self.params["amplitude"])
            omega = float(self.params["omega"])
            phase = float(self.params.get("phase", 0.0))
            out = np.outer(np.sin(omega * ts + phase), amp)
        else:
            times = np.asarray(self.params["times"], dtype=float)
            values = np.atleast_2d(np.asarray(self.params["values"], dtype=float))
            out = np.stack(
                [np.interp(ts, times, values[:, j]) for j in range(values.shape[1])],
                axis=1,
            )
        return out[0] if scalar else out

    def __call__(self, t):
        return self.eval(t)

    def jump_times(self, horizon: float) -> np.ndarray:
        """Times in (0, horizon) where the signal is discontinuous or kinked."""
        if self.kind == PIECEWISE_CONSTANT or self.kind == TABLE:
            times = np.asarray(self.params["times"], dtype=float)
            return times[(times > 0.0) & (times < horizon)]
        return np.empty(0)

    def sup_norm(self, horizon: float) -> float:
        """Essential sup of |u| over [0, horizon)."""
        if horizon <= 0.0 or self.kind == ZERO:
            return 0.0
        if self.kind == CONSTANT:
            return float(np.linalg.norm(np.atleast_1d(self.params["value"])))
        if self.kind == PIECEWISE_CONSTANT:
            times = np.asarray(self.params["times"], dtype=float)
            values = np.atleast_2d(np.asarray(self.params["values"], dtype=float))
            active = times < horizon
            active[0] = True
            return float(np.max(np.linalg.norm(values[active], axis=1)))
        grid = np.linspace(0.0, horizon, 4097)[:-1]
        extra = self.jump_times(horizon)
        pts = np.sort(np.concatenate([grid, extra])) if extra.size else grid
        return float(np.max(np.linalg.norm(self.eval(pts), axis=1)))

    def cumulative_sup(self, times: np.ndarray) -> np.ndarray:
        """sup of |u| over [0, t) for each t in `times` (nondecreasing)."""
        times = np.asarray(times, dtype=float)
        if self.kind == ZERO:
            return np.zeros_like(times)
        if self.kind == CONSTANT:
            c = float(np.linalg.norm(np.atleast_1d(self.params["value"])))
            return np.where(times > 0.0, c, 0.0)
        if self.kind == PIECEWISE_CONSTANT:  # a running maximum of the pieces' norms
            values = np.atleast_2d(np.asarray(self.params["values"], dtype=float))
            running = np.maximum.accumulate(np.linalg.norm(values, axis=1))
            active = np.searchsorted(np.asarray(self.params["times"], dtype=float), times)
            return np.where(times > 0.0, running[np.maximum(active, 1) - 1], 0.0)
        return np.array([self.sup_norm(t) for t in times])

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, m: int) -> "InputSignal":
        return cls(ZERO, {"m": int(m)})

    @classmethod
    def constant(cls, value) -> "InputSignal":
        return cls(CONSTANT, {"value": np.atleast_1d(np.asarray(value, float))})

    @classmethod
    def piecewise_constant(cls, times, values) -> "InputSignal":
        times = np.asarray(times, dtype=float)
        values = np.atleast_2d(np.asarray(values, dtype=float))
        if times.ndim != 1 or times.size != values.shape[0]:
            raise DimensionError("need one value row per switching time")
        if times[0] != 0.0 or not np.all(np.diff(times) > 0):
            raise PreconditionError("switching times must start at 0 and increase")
        return cls(PIECEWISE_CONSTANT, {"times": times, "values": values})

    @classmethod
    def sinusoid(cls, amplitude, omega: float, phase: float = 0.0) -> "InputSignal":
        return cls(
            SINUSOID,
            {
                "amplitude": np.atleast_1d(np.asarray(amplitude, float)),
                "omega": float(omega),
                "phase": float(phase),
            },
        )

    @classmethod
    def from_table(cls, times, values) -> "InputSignal":
        times = np.asarray(times, dtype=float)
        values = np.atleast_2d(np.asarray(values, dtype=float))
        if times.size != values.shape[0]:
            raise DimensionError("need one value row per table time")
        if not np.all(np.diff(times) > 0):
            raise PreconditionError("table times must be increasing")
        return cls(TABLE, {"times": times, "values": values})
