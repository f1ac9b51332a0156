"""File schemas and deterministic JSON emission.

All artifacts are JSON: system descriptions, histories, input signals,
functional and constants specs, and reports. Each file type is stated once,
as its constructor:

- A family of tagged types is one table from tag to constructor: rhs terms by
  "type"; input signals, functionals and semi-norms by "kind"; comparison
  functions by "form". Histories, difference operators and constants are
  families of one untagged type.
- The constructor is the schema. Its parameters are the file's keys and the
  attributes the encoder reads; one without a default is a required key. The
  decoder passes a file's values through unconverted, since the constructors
  coerce and check their arguments.
- A parameter named `dop` or `system` is filled from the system the file is
  loaded against, never read from the file; a type with one needs a system.
- A key that defaults to None is left out of a file while it holds nothing
  (None or an empty array).
- An input signal's keys sit in its "params" object, which is written whole.
- A family's nested keys (`parts`, a product's factors, the gas comparison
  functions, the semi-norm) hold files of another family, or of its own.
- Where a constructor's signature differs from the file, a thin adapter takes
  its place in the table.

Malformed input raises `SchemaError` naming the type and the key. The system
and the report are written by hand: neither is tagged, and a system nests its
operator and terms. Reports are rendered through `canonical_json`, which sorts
keys and prints floats with 17 significant digits, so identical inputs yield
byte-identical files.
"""
from __future__ import annotations

import inspect
import json
from pathlib import Path
from typing import Callable

import numpy as np

from .certify import CertificateConstants, ConverseFunctional
from .comparison import KL, ComparisonFunction
from .errors import SchemaError
from .functionals import (
    DopNormFunctional,
    DopSemiNorm,
    EndpointSemiNorm,
    IntegralQuadraticFunctional,
    L2SemiNorm,
    QuadraticDopFunctional,
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
                raise SchemaError("non-finite float (inf or NaN): JSON has no value for it")
            return format(v + 0.0, ".17g")  # -0.0 as 0, which reads back as the same value
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


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"{where}: expected an object, got {type(value).__name__}")
    return value


# what a constructor raises on a value of the wrong type or shape
_MALFORMED = (TypeError, ValueError, AttributeError, IndexError, OverflowError)
_REQUIRED = object()


def _read_field(d: dict, key: str, where: str, cast: Callable | None = None, default=_REQUIRED):
    """d[key] through `cast` (int, float or a reader of a list of numbers); `default`
    where absent, if given, or where null, if None. A missing or malformed value
    raises `SchemaError` naming `where` and the key."""
    if key not in d:
        if default is _REQUIRED:
            raise SchemaError(f"{where}: missing field {key!r}")
        return default
    value = d[key]
    if cast is None or value is None and default is None:
        return value
    try:
        return cast(value)
    except _MALFORMED:
        what = "a number" if cast in (int, float) else "a list of numbers"
        raise SchemaError(f"{where}: field {key!r} must be {what}, got {value!r}") from None


# -- the schema table ---------------------------------------------------------------

_CONTEXT = ("dop", "system")


class _Schema:
    """A constructor read as a file type, its keys derived once."""

    def __init__(self, build: Callable):
        params = inspect.signature(build).parameters.values()
        self.build = build
        self.keys = tuple(p.name for p in params if p.name not in _CONTEXT)  # in signature order
        self.required = {p.name for p in params if p.default is p.empty}
        self.optional = {p.name for p in params if p.default is None}  # left out while empty
        self.context = next((p.name for p in params if p.name in _CONTEXT), None)


class _Family:
    """The file types under one tag key; `nested` maps a key to the family of
    the files it holds (None: this one). Untagged types sit under tag None."""

    def __init__(self, what: str, tag: str | None, table: dict, nested=(), in_params=False):
        self.what, self.tag, self.in_params = what, tag, in_params
        self.table = {name: _Schema(build) for name, build in table.items()}
        self.nested = {key: family or self for key, family in dict(nested).items()}

    def _label(self, tag) -> str:
        return f"{self.what} {self.tag} {tag!r}" if self.tag else self.what

    def _schema_of(self, tag, action: str) -> _Schema:
        try:
            return self.table[tag]
        except (KeyError, TypeError):
            raise SchemaError(f"{action} {self._label(tag)}") from None

    def decode(self, d: dict, system: NfdeSystem | None = None):
        d = _object(d, self.what)
        tag = _read_field(d, self.tag, self.what) if self.tag else None
        schema, label = self._schema_of(tag, "unknown"), self._label(tag)
        if schema.context in schema.required and system is None:
            raise SchemaError(f"{label} needs a system")
        fields = _object(d.get("params", {}), f"{label}: params") if self.in_params else d
        kwargs = {}
        for key in schema.keys:
            if key in fields:
                kwargs[key] = self._decode_nested(key, fields[key], system)
            elif key in schema.required:
                raise SchemaError(f"{label}: missing field {key!r}")
        given = ", ".join(kwargs)
        if schema.context and system is not None:
            kwargs[schema.context] = system if schema.context == "system" else system.dop
        try:
            return schema.build(**kwargs)
        except KeyError as exc:
            raise SchemaError(f"{label}: missing field {exc}") from None
        except _MALFORMED as exc:
            raise SchemaError(f"{label}: {exc} (fields {given})") from None

    def _decode_nested(self, key: str, value, system):
        family = self.nested.get(key)
        if family is None:
            return value
        if isinstance(value, list):
            return [family.decode(v, system) for v in value]
        return family.decode(value, system)

    def encode(self, obj) -> dict:
        tag = getattr(obj, self.tag, None) if self.tag else None
        schema = self._schema_of(tag, "cannot serialize")
        out = {self.tag: tag} if self.tag else {}
        if self.in_params:
            out["params"] = obj.params
        for key in () if self.in_params else schema.keys:
            value = getattr(obj, key) if hasattr(obj, key) else obj.params[key]  # a product's factors
            if key in schema.optional and (value is None or isinstance(value, np.ndarray) and not value.size):
                continue
            family = self.nested.get(key)
            if family is not None:
                value = [family.encode(v) for v in value] if isinstance(value, list) else family.encode(value)
            out[key] = value
        return _clean(out)


def _l2(delta=None, system=None) -> L2SemiNorm:
    """The l2 semi-norm over the file's delta, or else over the system's horizon."""
    if delta is None and system is None:
        raise SchemaError("seminorm kind 'l2' needs a system or a delta")
    return L2SemiNorm(system.delta if delta is None else delta)


_HISTORY = _Family("history", None, {None: HistorySegment})
_DOP = _Family("dop", None, {None: DifferenceOperator})
_TERMS = _Family("rhs term", "type", {
    "linear": lambda matrix, delay=0.0: LinearTerm(delay, matrix),
    "nonlinear": lambda fn, matrix, delay=0.0, params=None: NonlinearTerm(delay, fn, matrix, params or {}),
    "distributed": DistributedTerm,
    "input": InputTerm,
})
_SIGNALS = _Family("input signal", "kind", {
    "zero": InputSignal.zero,
    "constant": InputSignal.constant,
    "piecewise-constant": InputSignal.piecewise_constant,
    "sinusoid": InputSignal.sinusoid,
    "table": InputSignal.from_table,
}, in_params=True)
_FUNCTIONALS = _Family("functional", "kind", {
    "point-quadratic": QuadraticDopFunctional,
    "integral-quadratic": IntegralQuadraticFunctional,
    "sup-norm": SupNormFunctional,
    "dop-norm": DopNormFunctional,
    "weighted-composite": WeightedCompositeFunctional,
    "converse": ConverseFunctional,
}, nested={"parts": None})
_SEMINORMS = _Family("seminorm", "kind", {
    "dop-seminorm": DopSemiNorm,
    "endpoint": lambda: EndpointSemiNorm(),  # inspect parses object's text signature: 3 ms
    "l2": _l2,
    "weighted": WeightedSemiNorm,
}, nested={"parts": None})
_COMPARISONS = _Family("comparison function", "form", {
    "power": ComparisonFunction,
    "linear": ComparisonFunction,
    "exp-decay": ComparisonFunction,
    "table": ComparisonFunction,
    "product": lambda k_factor, l_factor, kind=KL: ComparisonFunction(
        kind, "product", {"k_factor": k_factor, "l_factor": l_factor}),
}, nested={"k_factor": None, "l_factor": None})
_CONSTANTS = _Family("constants", None, {None: CertificateConstants}, nested={
    "alpha1": _COMPARISONS, "alpha2": _COMPARISONS, "alpha3": _COMPARISONS, "seminorm": _SEMINORMS,
})

history_to_dict, history_from_dict = _HISTORY.encode, _HISTORY.decode
signal_to_dict, signal_from_dict = _SIGNALS.encode, _SIGNALS.decode
functional_to_dict, functional_from_dict = _FUNCTIONALS.encode, _FUNCTIONALS.decode
seminorm_to_dict, seminorm_from_dict = _SEMINORMS.encode, _SEMINORMS.decode
comparison_to_dict, comparison_from_dict = _COMPARISONS.encode, _COMPARISONS.decode
constants_to_dict, constants_from_dict = _CONSTANTS.encode, _CONSTANTS.decode


# -- systems and reports -------------------------------------------------------------

def system_to_dict(system: NfdeSystem) -> dict:
    return _clean(
        {
            "n": system.n,
            "m": system.m,
            "delta": system.delta,
            "dop": _DOP.encode(system.dop),
            "rhs": {"terms": [_TERMS.encode(t) for t in system.rhs.terms]},
        }
    )


def system_from_dict(d: dict) -> NfdeSystem:
    d = _object(d, "system")
    n = _read_field(d, "n", "system", int)
    dop = _DOP.decode(_read_field(d, "dop", "system"))
    terms = _object(_read_field(d, "rhs", "system"), "system: rhs").get("terms", [])
    if not isinstance(terms, list):
        raise SchemaError(f"system: rhs terms must be a list, got {type(terms).__name__}")
    rhs = RhsMap(n=n, m=_read_field(d, "m", "system", int, 0), terms=tuple(_TERMS.decode(t) for t in terms))
    return NfdeSystem(dop, rhs, _read_field(d, "delta", "system", float, None))


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
