"""Input signals u: R+ -> R^m for the driven system variant.

All kinds are piecewise-defined and Lebesgue measurable by construction;
evaluation at jump points is right-continuous (the integrator aligns its mesh
with the jumps). The essential sup norm over [0, T) is exact for any T.

A signal is read once, when it is built, into pieces: switching or table
times and one value row per time, copied and frozen. Zero and constant
signals are one-piece step signals from t = 0, evaluated, bounded and jumped
exactly as piecewise-constant ones; a sinusoid's one row is its amplitude.
`params` is copied, its arrays frozen, since a signal file holds it whole.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, PreconditionError
from .histories import _freeze, _own

ZERO = "zero"
CONSTANT = "constant"
PIECEWISE_CONSTANT = "piecewise-constant"
SINUSOID = "sinusoid"
TABLE = "table"

_PIECES = {  # kind -> (times, value rows) of its params
    ZERO: lambda p: ([0.0], np.zeros((1, int(p["m"])))),
    CONSTANT: lambda p: ([0.0], np.atleast_1d(p["value"])[None]),
    PIECEWISE_CONSTANT: lambda p: (p["times"], np.atleast_2d(p["values"])),
    SINUSOID: lambda p: ([0.0], np.atleast_1d(p["amplitude"])[None]),
    TABLE: lambda p: (p["times"], np.atleast_2d(p["values"])),
}


@dataclass(frozen=True)
class InputSignal:
    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _PIECES:
            raise PreconditionError(f"unknown input kind {self.kind!r}")
        object.__setattr__(self, "params", _own(self.params))
        times, values = _PIECES[self.kind](self.params)
        values = _freeze(values)
        # the pieces' norms, then each the sup so far; a constant's is the vector norm
        # of its value, which norm(axis=1) of its row can miss in the last bit for m >= 2
        norms = np.linalg.norm(values)[None] if self.kind == CONSTANT else np.linalg.norm(values, axis=1)
        object.__setattr__(self, "_times", _freeze(times))
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "_running", _freeze(np.maximum.accumulate(norms)))
        if self.kind == SINUSOID:
            wave = float(self.params["omega"]), float(self.params.get("phase", 0.0))
            object.__setattr__(self, "_wave", wave)

    @property
    def m(self) -> int:
        return self._values.shape[1]

    def eval(self, t, side: str = "+") -> np.ndarray:
        scalar = np.isscalar(t) or np.ndim(t) == 0
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        if self.kind == SINUSOID:
            # sin(omega t + phase) by angle addition: summing a phase large beside omega t
            # first would round omega t to the phase's last bit and make u a staircase
            omega, phase = self._wave
            wt = omega * ts
            out = np.outer(np.sin(phase) * np.cos(wt) + np.cos(phase) * np.sin(wt), self._values[0])
        elif self.kind == TABLE:
            out = np.stack([np.interp(ts, self._times, column) for column in self._values.T], axis=1)
        else:
            side_kw = "right" if side == "+" else "left"
            idx = np.clip(np.searchsorted(self._times, ts, side=side_kw) - 1, 0, len(self._values) - 1)
            out = self._values[idx]
        return out[0] if scalar else out

    def __call__(self, t):
        return self.eval(t)

    def jump_times(self, horizon: float) -> np.ndarray:
        """Times in (0, horizon) where the signal is discontinuous or kinked."""
        times = self._times
        return times[(times > 0.0) & (times < horizon)]

    def sup_norm(self, horizon: float) -> float:
        """Essential sup of |u| over [0, horizon)."""
        return float(self.cumulative_sup(np.asarray(horizon, dtype=float)))

    def cumulative_sup(self, times: np.ndarray) -> np.ndarray:
        """sup of |u| over [0, t) for each t in `times`, exact: the largest piece begun before t;
        on a table the largest |u| at 0, at the nodes in (0, t) and at t, as |u| is convex on each
        panel; on a sinusoid |amplitude| once the phase has passed a peak, else |u| at 0 or t."""
        times = np.asarray(times, dtype=float)
        active = np.searchsorted(self._times, times)  # the pieces or nodes that start before t
        if self.kind in (SINUSOID, TABLE):
            ends = np.linalg.norm(self.eval(np.append(0.0, times)), axis=1)
            ends = np.maximum(ends[0], ends[1:].reshape(times.shape))
        if self.kind == SINUSOID:  # the phases, in half turns past the peak at pi / 2
            omega, phase = self._wave
            a, b = ((x - 0.5 * np.pi) / np.pi for x in (phase, omega * times + phase))
            out = np.where(np.ceil(np.minimum(a, b)) <= np.floor(np.maximum(a, b)), self._running[0], ends)
        elif self.kind == TABLE:
            nodes = np.maximum.accumulate(np.linalg.norm(self._values, axis=1) * (self._times > 0.0))
            out = np.maximum(ends, np.append(0.0, nodes)[active])
        else:
            out = self._running[np.maximum(active, 1) - 1]
        return np.where(times > 0.0, out, 0.0)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, m: int) -> "InputSignal":
        return cls(ZERO, {"m": int(m)})

    @classmethod
    def constant(cls, value) -> "InputSignal":
        return cls(CONSTANT, {"value": np.atleast_1d(np.array(value, float))})

    @classmethod
    def piecewise_constant(cls, times, values) -> "InputSignal":
        times = np.array(times, dtype=float)
        values = np.atleast_2d(np.array(values, dtype=float))
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
                "amplitude": np.atleast_1d(np.array(amplitude, float)),
                "omega": float(omega),
                "phase": float(phase),
            },
        )

    @classmethod
    def from_table(cls, times, values) -> "InputSignal":
        times = np.array(times, dtype=float)
        values = np.atleast_2d(np.array(values, dtype=float))
        if times.size != values.shape[0]:
            raise DimensionError("need one value row per table time")
        if not np.all(np.diff(times) > 0):
            raise PreconditionError("table times must be increasing")
        return cls(TABLE, {"times": times, "values": values})
