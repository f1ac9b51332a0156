"""File schemas and deterministic JSON emission.

All artifacts are JSON: system descriptions, histories, input signals,
functional and constants specs, and reports. Reports are rendered through
`canonical_json`, which sorts keys and prints floats with 17 significant
digits, so identical inputs yield byte-identical files.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .comparison import ComparisonFunction
from .errors import SchemaError
from .functionals import (
    DopNormFunctional,
    DopSemiNorm,
    EndpointSemiNorm,
    Functional,
    IntegralQuadraticFunctional,
    L2SemiNorm,
    QuadraticDopFunctional,
    SemiNorm,
    SupNormFunctional,
    WeightedCompositeFunctional,
    WeightedSemiNorm,
)
from .histories import HistorySegment
from .operators import (
    DifferenceOperator,
    DistributedTerm,
    InputTerm,
    LinearTerm,
    NfdeSystem,
    NonlinearTerm,
    RhsMap,
)
from .signals import InputSignal

SCHEMA_VERSION = 1


def _clean(obj):
    if isinstance(obj, dict):
        return {str(k): _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _clean(obj.tolist())
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if obj is None or isinstance(obj, str):
        return obj
    raise SchemaError(f"cannot serialize object of type {type(obj).__name__}")


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""

    def render(v, indent):
        pad = "  " * indent
        if isinstance(v, dict):
            if not v:
                return "{}"
            items = [
                f'{pad}  "{k}": {render(v[k], indent + 1)}' for k in sorted(v)
            ]
            return "{\n" + ",\n".join(items) + "\n" + pad + "}"
        if isinstance(v, list):
            if not v:
                return "[]"
            flat = all(not isinstance(x, (dict, list)) for x in v)
            if flat:
                return "[" + ", ".join(render(x, indent) for x in v) + "]"
            items = [f"{pad}  {render(x, indent + 1)}" for x in v]
            return "[\n" + ",\n".join(items) + "\n" + pad + "]"
        if isinstance(v, bool):
            return "true" if v else "false"
        if v is None:
            return "null"
        if isinstance(v, float):
            if not np.isfinite(v):
                raise SchemaError("non-finite float in a report")
            return format(v, ".17g")
        if isinstance(v, int):
            return str(v)
        return json.dumps(v)

    return render(_clean(obj), 0) + "\n"


def write_json(path, obj) -> None:
    Path(path).write_text(canonical_json(obj), encoding="utf-8")


def read_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except OSError as exc:
        raise SchemaError(f"{path}: {exc.strerror or exc}")


def _require(d: dict, key: str, where: str):
    if key not in d:
        raise SchemaError(f"{where}: missing field {key!r}")
    return d[key]


# -- histories ---------------------------------------------------------------------

def history_to_dict(phi: HistorySegment) -> dict:
    out = {
        "delta": phi.delta,
        "grid": phi.grid,
        "values": phi.values,
        "interp": phi.interp,
    }
    if phi.slopes is not None:
        out["slopes"] = phi.slopes
    if phi.kink_times.size:
        out["kink_times"] = phi.kink_times
    return _clean(out)


def history_from_dict(d: dict) -> HistorySegment:
    return HistorySegment(
        float(_require(d, "delta", "history")),
        np.asarray(_require(d, "grid", "history"), float),
        np.asarray(_require(d, "values", "history"), float),
        d.get("interp", "cubic-hermite"),
        np.asarray(d["slopes"], float) if "slopes" in d else None,
        np.asarray(d["kink_times"], float) if "kink_times" in d else None,
    )


# -- systems -----------------------------------------------------------------------

def _term_to_dict(term) -> dict:
    if isinstance(term, LinearTerm):
        return {"type": "linear", "delay": term.delay, "matrix": term.matrix}
    if isinstance(term, NonlinearTerm):
        return {
            "type": "nonlinear",
            "delay": term.delay,
            "fn": term.fn,
            "matrix": term.matrix,
            "params": term.params,
        }
    if isinstance(term, DistributedTerm):
        return {"type": "distributed", "grid": term.grid, "kernel": term.kernel}
    if isinstance(term, InputTerm):
        out = {"type": "input", "matrix": term.matrix}
        if term.fn:
            out["fn"] = term.fn
            out["params"] = term.params
        return out
    raise SchemaError(f"unknown term type {type(term).__name__}")


def _term_from_dict(d: dict):
    kind = _require(d, "type", "rhs term")
    if kind == "linear":
        return LinearTerm(float(d.get("delay", 0.0)), np.asarray(_require(d, "matrix", "linear term"), float))
    if kind == "nonlinear":
        return NonlinearTerm(
            float(d.get("delay", 0.0)),
            _require(d, "fn", "nonlinear term"),
            np.asarray(_require(d, "matrix", "nonlinear term"), float),
            d.get("params", {}),
        )
    if kind == "distributed":
        return DistributedTerm(
            np.asarray(_require(d, "grid", "distributed term"), float),
            np.asarray(_require(d, "kernel", "distributed term"), float),
        )
    if kind == "input":
        return InputTerm(
            np.asarray(_require(d, "matrix", "input term"), float),
            d.get("fn"),
            d.get("params", {}),
        )
    raise SchemaError(f"unknown rhs term type {kind!r}")


def system_to_dict(system: NfdeSystem) -> dict:
    return _clean(
        {
            "n": system.n,
            "m": system.m,
            "delta": system.delta,
            "dop": {
                "delays": system.dop.delays,
                "matrices": system.dop.matrices,
            },
            "rhs": {"terms": [_term_to_dict(t) for t in system.rhs.terms]},
        }
    )


def system_from_dict(d: dict) -> NfdeSystem:
    n = int(_require(d, "n", "system"))
    m = int(d.get("m", 0))
    dop_d = _require(d, "dop", "system")
    dop = DifferenceOperator(
        np.asarray(_require(dop_d, "delays", "dop"), float),
        np.asarray(_require(dop_d, "matrices", "dop"), float),
    )
    terms = tuple(_term_from_dict(t) for t in _require(d, "rhs", "system").get("terms", []))
    rhs = RhsMap(n=n, m=m, terms=terms)
    return NfdeSystem(dop, rhs, float(d["delta"]) if "delta" in d else None)


# -- input signals -------------------------------------------------------------------

def signal_to_dict(sig: InputSignal) -> dict:
    return _clean({"kind": sig.kind, "params": sig.params})


def signal_from_dict(d: dict) -> InputSignal:
    kind = _require(d, "kind", "input signal")
    p = d.get("params", {})
    if kind == "zero":
        return InputSignal.zero(int(_require(p, "m", "zero signal")))
    if kind == "constant":
        return InputSignal.constant(np.asarray(_require(p, "value", "constant signal"), float))
    if kind == "piecewise-constant":
        return InputSignal.piecewise_constant(
            np.asarray(_require(p, "times", "signal"), float),
            np.asarray(_require(p, "values", "signal"), float),
        )
    if kind == "sinusoid":
        return InputSignal.sinusoid(
            np.asarray(_require(p, "amplitude", "signal"), float),
            float(_require(p, "omega", "signal")),
            float(p.get("phase", 0.0)),
        )
    if kind == "table":
        return InputSignal.from_table(
            np.asarray(_require(p, "times", "signal"), float),
            np.asarray(_require(p, "values", "signal"), float),
        )
    raise SchemaError(f"unknown input kind {kind!r}")


# -- functionals and semi-norms --------------------------------------------------------

def functional_to_dict(V: Functional) -> dict:
    if isinstance(V, QuadraticDopFunctional):
        return _clean({"kind": V.kind, "P": V.P})
    if isinstance(V, IntegralQuadraticFunctional):
        return _clean(
            {"kind": V.kind, "P": V.P, "kernel_grid": V._term.grid, "kernel": V._term.kernel}
        )
    if isinstance(V, SupNormFunctional):
        return {"kind": V.kind, "c": V.c}
    if isinstance(V, DopNormFunctional):
        return {"kind": V.kind, "c": V.c}
    if isinstance(V, WeightedCompositeFunctional):
        return _clean(
            {
                "kind": V.kind,
                "weights": V.weights,
                "parts": [functional_to_dict(p) for p in V.parts],
            }
        )
    if V.kind == "converse":
        return _clean(
            {"kind": "converse", "rate": V.rate, "horizon": V.horizon,
             "step": getattr(V.step, "step", V.step)}
        )
    raise SchemaError(f"cannot serialize functional kind {V.kind!r}")


def functional_from_dict(d: dict, system: NfdeSystem | None = None) -> Functional:
    kind = _require(d, "kind", "functional")
    if kind in ("point-quadratic", "integral-quadratic", "dop-norm", "converse") and system is None:
        raise SchemaError(f"functional kind {kind!r} needs a system")
    if kind == "point-quadratic":
        return QuadraticDopFunctional(system.dop, np.asarray(_require(d, "P", "functional"), float))
    if kind == "integral-quadratic":
        return IntegralQuadraticFunctional(
            system.dop,
            np.asarray(_require(d, "P", "functional"), float),
            np.asarray(_require(d, "kernel_grid", "functional"), float),
            np.asarray(_require(d, "kernel", "functional"), float),
        )
    if kind == "sup-norm":
        return SupNormFunctional(float(_require(d, "c", "functional")))
    if kind == "dop-norm":
        return DopNormFunctional(system.dop, float(d.get("c", 1.0)))
    if kind == "weighted-composite":
        parts = [functional_from_dict(p, system) for p in _require(d, "parts", "functional")]
        return WeightedCompositeFunctional(parts, _require(d, "weights", "functional"))
    if kind == "converse":
        from .certify import ConverseFunctional

        return ConverseFunctional(
            system,
            float(_require(d, "rate", "functional")),
            float(_require(d, "horizon", "functional")),
            step=d.get("step"),
        )
    raise SchemaError(f"unknown functional kind {kind!r}")


def seminorm_to_dict(s: SemiNorm) -> dict:
    if isinstance(s, DopSemiNorm):
        return {"kind": s.kind}
    if isinstance(s, EndpointSemiNorm):
        return {"kind": s.kind}
    if isinstance(s, L2SemiNorm):
        return {"kind": s.kind, "delta": s.delta}
    if isinstance(s, WeightedSemiNorm):
        return _clean(
            {"kind": s.kind, "weights": s.weights,
             "parts": [seminorm_to_dict(p) for p in s.parts]}
        )
    raise SchemaError(f"cannot serialize semi-norm kind {s.kind!r}")


def seminorm_from_dict(d: dict, system: NfdeSystem | None = None) -> SemiNorm:
    kind = _require(d, "kind", "seminorm")
    if kind == "dop-seminorm":
        if system is None:
            raise SchemaError("dop-seminorm needs a system")
        return DopSemiNorm(system.dop)
    if kind == "endpoint":
        return EndpointSemiNorm()
    if kind == "l2":
        return L2SemiNorm(float(d.get("delta", system.delta if system else 1.0)))
    if kind == "weighted":
        parts = [seminorm_from_dict(p, system) for p in _require(d, "parts", "seminorm")]
        return WeightedSemiNorm(parts, _require(d, "weights", "seminorm"))
    raise SchemaError(f"unknown seminorm kind {kind!r}")


# -- comparison functions and constants ------------------------------------------------

def comparison_to_dict(c: ComparisonFunction) -> dict:
    if c.form == "product":
        return {
            "kind": c.kind,
            "form": c.form,
            "k_factor": comparison_to_dict(c.params["k_factor"]),
            "l_factor": comparison_to_dict(c.params["l_factor"]),
        }
    return _clean({"kind": c.kind, "form": c.form, "params": c.params})


def comparison_from_dict(d: dict) -> ComparisonFunction:
    form = _require(d, "form", "comparison function")
    if form == "product":
        return ComparisonFunction.kl_product(
            comparison_from_dict(_require(d, "k_factor", "comparison")),
            comparison_from_dict(_require(d, "l_factor", "comparison")),
        )
    params = dict(d.get("params", {}))
    for key in ("x", "y"):
        if key in params:
            params[key] = np.asarray(params[key], float)
    return ComparisonFunction(_require(d, "kind", "comparison"), form, params)


def constants_to_dict(c) -> dict:
    out = {"variant": c.variant}
    for name in ("a1", "a2", "a3", "a4"):
        if getattr(c, name) is not None:
            out[name] = getattr(c, name)
    for name in ("alpha1", "alpha2", "alpha3"):
        if getattr(c, name) is not None:
            out[name] = comparison_to_dict(getattr(c, name))
    if c.seminorm is not None:
        out["seminorm"] = seminorm_to_dict(c.seminorm)
    return _clean(out)


def constants_from_dict(d: dict, system: NfdeSystem | None = None):
    from .certify import CertificateConstants

    variant = _require(d, "variant", "constants")
    kwargs = {}
    for name in ("a1", "a2", "a3", "a4"):
        if name in d:
            kwargs[name] = float(d[name])
    for name in ("alpha1", "alpha2", "alpha3"):
        if name in d:
            kwargs[name] = comparison_from_dict(d[name])
    if "seminorm" in d:
        kwargs["seminorm"] = seminorm_from_dict(d["seminorm"], system)
    return CertificateConstants(variant, **kwargs)


# -- reports -----------------------------------------------------------------------------

def report_to_dict(report) -> dict:
    out = {
        "samples_checked": report.samples_checked,
        "violations": report.violations,
        "inconclusive": report.inconclusive,
        "passed": report.passed,
        "conditions": [
            {
                "name": c.name,
                "checked": c.checked,
                "violations": c.violations,
                "inconclusive": c.inconclusive,
                "worst_margin": c.worst_margin if np.isfinite(c.worst_margin) else None,
            }
            for c in report.conditions
        ],
        "counterexamples": len(report.counterexamples),
    }
    if report.fitted is not None:
        out["fitted"] = constants_to_dict(report.fitted)
    if report.lipschitz_estimate is not None:
        out["lipschitz_estimate"] = report.lipschitz_estimate
    if report.failure is not None:
        out["failure"] = report.failure
    return _clean(out)
