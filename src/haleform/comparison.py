"""Comparison functions (class K, K-infinity, KL, L) and envelope fitting.

Parametric forms cover power laws c*s^q and linear maps c*s; class-L decay is
exponential exp(-lam*t); monotone piecewise-linear tables hold the envelopes
that the fitting code builds around sample clouds.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError
from .histories import _freeze, _own

K = "K"
K_INF = "Kinf"
KL = "KL"
L = "L"

_POWER = "power"
_LINEAR = "linear"
_EXP_DECAY = "exp-decay"
_TABLE = "table"
_PRODUCT = "product"

TAIL_HOLD = "hold"
TAIL_EXTRAPOLATE = "extrapolate"


@dataclass(frozen=True)
class ComparisonFunction:
    """One comparison function; call it like a plain function.

    kind is one of K / Kinf / KL / L. KL functions take two arguments (s, t)
    and are represented as a product of a K factor in s and an L factor in t.
    """

    kind: str
    form: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in (K, K_INF, KL, L):
            raise PreconditionError(f"unknown comparison class {self.kind!r}")
        object.__setattr__(self, "params", _own(self.params))
        check = getattr(self, f"_check_{self.form.replace('-', '_')}", None)
        if check is None:
            raise PreconditionError(f"unknown representation {self.form!r}")
        check()

    # -- representation checks ------------------------------------------------

    def _check_power(self):
        c, q = self.params["c"], self.params["q"]
        if c <= 0 or q <= 0:
            raise PreconditionError("power form needs c > 0 and q > 0")

    def _check_linear(self):
        if self.params["c"] <= 0:
            raise PreconditionError("linear form needs c > 0")

    def _check_exp_decay(self):
        if self.kind != L:
            raise PreconditionError("exponential decay is a class-L representation")
        if self.params["lam"] <= 0:
            raise PreconditionError("decay rate must be positive")

    def _check_table(self):
        xs = np.asarray(self.params["x"], dtype=float)
        ys = np.asarray(self.params["y"], dtype=float)
        if xs.shape != ys.shape or xs.ndim != 1 or xs.shape[0] < 2:
            raise PreconditionError("table needs matching 1d x/y with >= 2 knots")
        if not np.all(np.diff(xs) > 0):
            raise PreconditionError("table x must be strictly increasing")
        if self.kind in (K, K_INF):
            if xs[0] != 0.0 or ys[0] != 0.0:
                raise PreconditionError("class-K table must start at (0, 0)")
            if not np.all(np.diff(ys) > 0):
                raise PreconditionError("class-K table must be strictly increasing")
            if self.kind == K_INF and self.tail != TAIL_EXTRAPOLATE:
                raise PreconditionError("class-Kinf table must extrapolate its tail")
        if self.kind == L:
            if not np.all(np.diff(ys) < 0) or np.any(ys < 0):
                raise PreconditionError("class-L table must be decreasing and >= 0")

    def _check_product(self):
        kf, lf = self.params["k_factor"], self.params["l_factor"]
        if self.kind != KL:
            raise PreconditionError("product form is the KL representation")
        if kf.kind not in (K, K_INF) or lf.kind != L:
            raise PreconditionError("KL product needs a K factor and an L factor")

    # -- evaluation ------------------------------------------------------------

    @property
    def tail(self) -> str:
        return self.params.get("tail", TAIL_HOLD)

    def __call__(self, s, t=None):
        if self.kind == KL:
            if t is None:
                raise PreconditionError("KL functions take (s, t)")
            return self.params["k_factor"](s) * self.params["l_factor"](t)
        s = np.asarray(s, dtype=float)
        if self.form == _POWER:
            out = self.params["c"] * np.power(s, self.params["q"])
        elif self.form == _LINEAR:
            out = self.params["c"] * s
        elif self.form == _EXP_DECAY:
            out = np.exp(-self.params["lam"] * s)
        else:
            xs = np.asarray(self.params["x"], dtype=float)
            ys = np.asarray(self.params["y"], dtype=float)
            out = np.interp(s, xs, ys)
            if self.tail == TAIL_EXTRAPOLATE:
                slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
                out = np.where(s > xs[-1], ys[-1] + slope * (s - xs[-1]), out)
        return float(out) if out.ndim == 0 else out

    # -- constructors ----------------------------------------------------------

    @classmethod
    def power(cls, c: float, q: float, kind: str = K_INF) -> "ComparisonFunction":
        return cls(kind, _POWER, {"c": float(c), "q": float(q)})

    @classmethod
    def linear(cls, c: float, kind: str = K_INF) -> "ComparisonFunction":
        return cls(kind, _LINEAR, {"c": float(c)})

    @classmethod
    def exp_decay(cls, lam: float) -> "ComparisonFunction":
        return cls(L, _EXP_DECAY, {"lam": float(lam)})

    @classmethod
    def table(cls, x, y, kind: str = K, tail: str = TAIL_HOLD) -> "ComparisonFunction":
        return cls(
            kind,
            _TABLE,
            {"x": _freeze(x), "y": _freeze(y), "tail": tail},
        )

    @classmethod
    def kl_product(
        cls, k_factor: "ComparisonFunction", l_factor: "ComparisonFunction"
    ) -> "ComparisonFunction":
        return cls(KL, _PRODUCT, {"k_factor": k_factor, "l_factor": l_factor})

    @classmethod
    def exponential_bound(cls, gain: float, rate: float) -> "ComparisonFunction":
        """KL bound gain * s * exp(-rate * t)."""
        return cls.kl_product(cls.linear(gain), cls.exp_decay(rate))


def monotone_envelope(
    x, y, side: str, headroom: float = 0.0, kind: str = K, tail: str = TAIL_HOLD
) -> ComparisonFunction:
    """Fit a monotone piecewise-linear table around a sample cloud.

    side "lower": greatest nondecreasing table with table(x_i) <= y_i for every
    sample, scaled down by `headroom`. side "upper": least nondecreasing table
    with table(x_i) >= y_i, scaled up by `headroom`. A (0, 0) knot is always
    prepended, and flats are broken by a tiny ramp, of an ulp at least, in the
    safe direction so the table qualifies as class K at table resolution.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size == 0:
        raise PreconditionError("cannot fit an envelope to an empty cloud")
    if np.any(x < 0) or np.any(y < 0):
        raise PreconditionError("envelope clouds must be nonnegative")
    order = np.argsort(x)
    xs, ys = x[order], y[order]
    keep = np.r_[np.diff(xs) > 1e-12 * max(1.0, xs[-1]), True]  # the last sample of each run of equal x
    starts = np.r_[0, np.flatnonzero(keep)[:-1] + 1]
    agg = (np.minimum if side == "lower" else np.maximum).reduceat(ys, starts)
    xs = xs[keep]
    if side == "lower":
        env = np.minimum.accumulate(agg[::-1])[::-1] * (1.0 - headroom)
    elif side == "upper":
        env = np.maximum.accumulate(agg) * (1.0 + headroom)
    else:
        raise PreconditionError("side must be 'lower' or 'upper'")
    if xs[0] > 0.0:
        xs = np.r_[0.0, xs]
        env = np.r_[0.0, env]
    else:
        env[0] = 0.0
    # break flats: shrink earlier knots (lower) or grow later knots (upper), by an ulp at least
    eps = 1e-9 * max(1.0, float(np.max(env)))
    if side == "lower":
        for i in range(env.size - 2, -1, -1):
            env[i] = min(env[i], env[i + 1] - eps * (xs[i + 1] - xs[i]), np.nextafter(env[i + 1], -np.inf))
        env = np.maximum(env, 0.0)
        env[0] = 0.0
        ok = np.all(np.diff(env) > 0)
    else:
        for i in range(1, env.size):
            env[i] = max(env[i], env[i - 1] + eps * (xs[i] - xs[i - 1]), np.nextafter(env[i - 1], np.inf))
        ok = True
    if not ok:
        raise PreconditionError("lower envelope is not positive on its domain")
    return ComparisonFunction.table(xs, env, kind=kind, tail=tail)
