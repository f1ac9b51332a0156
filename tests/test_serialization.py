import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from haleform import (
    CertificateConstants,
    ComparisonFunction,
    ConverseFunctional,
    DifferenceOperator,
    DistributedTerm,
    DopNormFunctional,
    DopSemiNorm,
    EndpointSemiNorm,
    HistorySegment,
    InputSignal,
    InputTerm,
    IntegralQuadraticFunctional,
    L2SemiNorm,
    LinearTerm,
    NfdeSystem,
    NonlinearTerm,
    QuadraticDopFunctional,
    RhsMap,
    SchemaError,
    SupNormFunctional,
    WeightedCompositeFunctional,
    WeightedSemiNorm,
    rhs_eval,
    sample_history,
)
from haleform import serialization as S
from haleform.serialization import (
    canonical_json,
    comparison_from_dict,
    comparison_to_dict,
    constants_from_dict,
    constants_to_dict,
    functional_from_dict,
    functional_to_dict,
    history_from_dict,
    history_to_dict,
    seminorm_from_dict,
    seminorm_to_dict,
    signal_from_dict,
    signal_to_dict,
    system_from_dict,
    system_to_dict,
)


def test_canonical_json_is_deterministic_and_sorted():
    a = canonical_json({"b": 1.5, "a": [1, 2.0, True, None]})
    b = canonical_json({"a": [1, 2.0, True, None], "b": 1.5})
    assert a == b
    assert a.index('"a"') < a.index('"b"')


def test_canonical_json_17_digit_floats():
    s = canonical_json({"x": 0.1})
    assert "0.10000000000000001" in s
    assert canonical_json({"x": 1.0}) == '{\n  "x": 1\n}\n'


def test_canonical_json_rejects_nonfinite():
    with pytest.raises(SchemaError):
        canonical_json({"x": float("nan")})


def test_history_round_trip():
    phi = sample_history(2, 1.5, 1.0, 3, seed=21)
    again = history_from_dict(history_to_dict(phi))
    assert np.array_equal(phi.grid, again.grid)
    assert np.array_equal(phi.values, again.values)
    assert np.array_equal(phi.slopes, again.slopes)
    pts = np.linspace(-1.5, 0.0, 31)
    assert np.array_equal(phi.eval(pts), again.eval(pts))


def test_system_round_trip(neutral_system, cubic_system, input_system, planar_system):
    for system in (neutral_system, cubic_system, input_system, planar_system):
        d = system_to_dict(system)
        again = system_from_dict(d)
        assert again.n == system.n and again.m == system.m
        assert again.delta == system.delta
        assert np.array_equal(again.dop.delays, system.dop.delays)
        assert np.array_equal(again.dop.matrices, system.dop.matrices)
        phi = sample_history(system.n, system.delta, 1.0, 3, seed=1)
        u = np.ones(system.m) if system.m else None
        assert np.allclose(rhs_eval(system.rhs, phi, u), rhs_eval(again.rhs, phi, u), atol=0)


def test_signal_round_trip():
    sigs = [
        InputSignal.zero(2),
        InputSignal.constant([1.0, -2.0]),
        InputSignal.piecewise_constant([0.0, 1.0], [[1.0], [0.5]]),
        InputSignal.sinusoid([2.0], omega=3.0, phase=0.5),
        InputSignal.from_table([0.0, 1.0, 2.0], [[0.0], [1.0], [0.0]]),
    ]
    ts = np.linspace(0.0, 2.0, 17)
    for sig in sigs:
        again = signal_from_dict(signal_to_dict(sig))
        assert again.kind == sig.kind
        assert np.allclose(sig.eval(ts), again.eval(ts), atol=0)


def test_functional_round_trip(neutral_system):
    V = WeightedCompositeFunctional(
        [QuadraticDopFunctional(neutral_system.dop, [[2.0]]), SupNormFunctional(0.5)],
        [1.0, 3.0],
    )
    again = functional_from_dict(functional_to_dict(V), neutral_system)
    phi = sample_history(1, 1.0, 1.0, 2, seed=2)
    assert again(phi) == pytest.approx(V(phi), rel=1e-15)


def test_functional_requiring_system_without_one():
    with pytest.raises(SchemaError):
        functional_from_dict({"kind": "point-quadratic", "P": [[1.0]]})


def test_comparison_round_trip():
    fns = [
        ComparisonFunction.power(0.5, 2.0),
        ComparisonFunction.linear(3.0),
        ComparisonFunction.table([0.0, 1.0, 2.0], [0.0, 0.5, 2.0]),
        ComparisonFunction.exponential_bound(2.0, 0.7),
    ]
    for fn in fns:
        again = comparison_from_dict(comparison_to_dict(fn))
        if fn.kind == "KL":
            assert again(1.5, 2.0) == pytest.approx(fn(1.5, 2.0), rel=1e-15)
        else:
            for s in (0.0, 0.3, 1.7):
                assert again(s) == pytest.approx(fn(s), rel=1e-15)


def test_constants_round_trip(neutral_system):
    c = CertificateConstants("ges", a1=0.5, a2=2.0, a3=0.1)
    again = constants_from_dict(constants_to_dict(c))
    assert (again.a1, again.a2, again.a3) == (0.5, 2.0, 0.1)

    sn = DopSemiNorm(neutral_system.dop)
    c2 = CertificateConstants("ges-seminorm", a1=1.0, a2=1.0, a3=1.0, a4=1.5, seminorm=sn)
    again2 = constants_from_dict(constants_to_dict(c2), neutral_system)
    phi = sample_history(1, 1.0, 1.0, 2, seed=3)
    assert again2.seminorm(phi) == pytest.approx(sn(phi), rel=1e-15)

    c3 = CertificateConstants(
        "gas",
        alpha1=ComparisonFunction.power(0.5, 2.0),
        alpha2=ComparisonFunction.power(2.0, 2.0),
        alpha3=ComparisonFunction.power(1.0, 2.0, kind="K"),
    )
    again3 = constants_from_dict(constants_to_dict(c3))
    assert again3.alpha1(2.0) == pytest.approx(2.0)


def test_seminorm_round_trip(neutral_system):
    from haleform import L2SemiNorm, WeightedSemiNorm

    sn = WeightedSemiNorm(
        [DopSemiNorm(neutral_system.dop), L2SemiNorm(1.0)], [0.5, 0.25]
    )
    again = seminorm_from_dict(seminorm_to_dict(sn), neutral_system)
    phi = sample_history(1, 1.0, 1.0, 3, seed=4)
    assert again(phi) == pytest.approx(sn(phi), rel=1e-12)


SYSTEM = {"n": 1, "dop": {"delays": [1.0], "matrices": [[[0.5]]]}, "rhs": {"terms": []}}
FAMILIES = [family for family in vars(S).values() if isinstance(family, S._Family)]


@pytest.mark.parametrize("decode, bad, message", [
    (system_from_dict, {"n": 1}, "system: missing field 'dop'"),
    (system_from_dict, {**SYSTEM, "m": [1]}, "system: field 'm' must be a number, got [1]"),
    (system_from_dict, {**SYSTEM, "rhs": {"terms": {}}}, "system: rhs terms must be a list, got dict"),
    (system_from_dict, {**SYSTEM, "dop": {"delays": [1.0]}}, "dop: missing field 'matrices'"),
    (history_from_dict, {"grid": [-1.0, 0.0]}, "history: missing field 'delta'"),
    (system_from_dict, {**SYSTEM, "rhs": {"terms": [{"type": "linear"}]}},
     "rhs term type 'linear': missing field 'matrix'"),
    (signal_from_dict, {"kind": "zero"}, "input signal kind 'zero': missing field 'm'"),
    (signal_from_dict, {"kind": "chirp"}, "unknown input signal kind 'chirp'"),
    (functional_from_dict, [], "functional: expected an object, got list"),
    (functional_from_dict, {"kind": "dop-norm"}, "functional kind 'dop-norm' needs a system"),
    (seminorm_from_dict, {"kind": "weighted", "weights": [1.0]}, "seminorm kind 'weighted': missing field 'parts'"),
    (comparison_from_dict, {"kind": "K", "form": "power", "params": {"c": 1.0}},
     "comparison function form 'power': missing field 'q'"),
    (constants_from_dict, {"a1": 1.0}, "constants: missing field 'variant'"),
], ids=["system", "system-m", "system-terms", "dop", "history", "rhs-term", "signal", "signal-kind",
        "functional", "functional-system", "seminorm", "comparison", "constants"])
def test_schema_errors_carry_field_names(decode, bad, message):
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
        decode(bad)


def test_a_constructor_error_names_the_type_and_its_fields():
    with pytest.raises(SchemaError, match=r"^functional kind 'sup-norm': .* \(fields c\)$"):
        functional_from_dict({"kind": "sup-norm", "c": "x"})


def test_l2_seminorm_needs_a_system_or_a_delta(neutral_system):
    with pytest.raises(SchemaError, match="needs a system"):
        seminorm_from_dict({"kind": "l2"})
    assert seminorm_from_dict({"kind": "l2"}, neutral_system).delta == neutral_system.delta
    assert seminorm_from_dict({"kind": "l2", "delta": 2.5}).domination_constant() == np.sqrt(2.5)


# -- a round trip for every tag of every family ------------------------------------------

NEUTRAL = NfdeSystem(DifferenceOperator([1.0], [[[0.5]]]), RhsMap(n=1, terms=(LinearTerm(0.0, [[-1.0]]),)))
POSITIVE = st.floats(0.05, 5.0)
REAL = st.floats(-5.0, 5.0)


def _arrays(*shape):
    return st.lists(REAL, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))).map(
        lambda xs: np.reshape(xs, shape))


def _increasing(size, start=None):
    """`size` strictly increasing reals, the first one `start` if given."""
    steps = st.lists(POSITIVE, min_size=size, max_size=size).map(np.cumsum)
    if start is None:
        return st.tuples(REAL, steps).map(lambda a: a[0] + a[1] - a[1][0])
    return steps.map(lambda xs: start + xs - xs[0])


@st.composite
def _history(draw):
    n, k, delta = draw(st.integers(1, 2)), draw(st.integers(2, 6)), draw(POSITIVE)
    u = draw(_increasing(k, 0.0))
    interp = draw(st.sampled_from(["linear", "cubic-hermite"]))
    slopes = draw(st.none() | _arrays(k, n)) if interp == "cubic-hermite" else None
    kinks = draw(st.none() | st.lists(st.floats(-delta, 0.0), min_size=1, max_size=3))
    return HistorySegment(delta, delta * (u / u[-1] - 1.0), draw(_arrays(k, n)), interp, slopes, kinks)


def _matrices(n):
    return _arrays(n, n)


def _psd(n):
    return _matrices(n).map(lambda a: a @ a.T)


@st.composite
def _distributed(draw):
    n, k = draw(st.integers(1, 2)), draw(st.integers(2, 5))
    grid = -draw(_increasing(k, 0.0))[::-1]
    return DistributedTerm(grid, draw(_arrays(k, n, n)))


@st.composite
def _input_term(draw):
    n, m = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    fn = draw(st.sampled_from([None, "saturation", "sine"]))
    params = draw(st.fixed_dictionaries({}, optional={"limit": POSITIVE})) if fn else None
    return InputTerm(draw(_arrays(n, m)), fn, params)


@st.composite
def _table(draw, kind):
    """A comparison table of the given class on 2 to 5 knots."""
    k, tail = draw(st.integers(2, 5)), draw(st.sampled_from(["hold", "extrapolate"]))
    x, y = draw(_increasing(k, 0.0)), draw(_increasing(k, 0.0))
    if kind == "L":
        return ComparisonFunction.table(x, y[::-1], kind, tail)
    return ComparisonFunction.table(x, y, kind, "extrapolate" if kind == "Kinf" else tail)


K_FUNCTIONS = st.one_of(
    st.builds(ComparisonFunction.power, POSITIVE, POSITIVE, st.sampled_from(["K", "Kinf"])),
    st.builds(ComparisonFunction.linear, POSITIVE, st.sampled_from(["K", "Kinf"])),
    _table("K"), _table("Kinf"),
)
KINF_FUNCTIONS = st.one_of(
    st.builds(ComparisonFunction.power, POSITIVE, POSITIVE, st.just("Kinf")),
    st.builds(ComparisonFunction.linear, POSITIVE, st.just("Kinf")), _table("Kinf"),
)
L_FUNCTIONS = st.one_of(st.builds(ComparisonFunction.exp_decay, POSITIVE), _table("L"))
BASIC_FUNCTIONALS = st.one_of(
    st.builds(QuadraticDopFunctional, st.just(NEUTRAL.dop), _psd(1)),
    st.builds(SupNormFunctional, POSITIVE),
)
BASIC_SEMINORMS = st.one_of(
    st.builds(DopSemiNorm, st.just(NEUTRAL.dop)), st.builds(EndpointSemiNorm),
    st.builds(L2SemiNorm, POSITIVE),
)
WEIGHTS = st.lists(POSITIVE, min_size=1, max_size=3)


def _weighted(cls, parts):
    return WEIGHTS.flatmap(lambda ws: st.builds(
        cls, st.lists(parts, min_size=len(ws), max_size=len(ws)), st.just(ws)))


@st.composite
def _signal_table(draw, factory, start=None):
    k, m = draw(st.integers(1, 4)), draw(st.integers(1, 2))
    return factory(draw(_increasing(k, start)), draw(_arrays(k, m)))


@st.composite
def _integral_quadratic(draw):
    k = draw(st.integers(2, 5))
    grid = -draw(_increasing(k, 0.0))[::-1]
    kernel = np.stack([draw(_psd(1)) for _ in range(k)])
    return IntegralQuadraticFunctional(NEUTRAL.dop, draw(_psd(1)), grid, kernel)


STRATEGIES = {
    "history": {None: _history()},
    "dop": {None: st.integers(1, 3).flatmap(lambda p: st.builds(
        DifferenceOperator, _increasing(p, 0.25), _arrays(p, 2, 2)))},
    "rhs term": {
        "linear": st.builds(LinearTerm, st.floats(0.0, 2.0), st.integers(1, 2).flatmap(_matrices)),
        "nonlinear": st.builds(
            NonlinearTerm, st.floats(0.0, 2.0), st.sampled_from(["saturation", "sine", "cubic"]),
            st.integers(1, 2).flatmap(_matrices), st.fixed_dictionaries({}, optional={"limit": POSITIVE})),
        "distributed": _distributed(),
        "input": _input_term(),
    },
    "input signal": {
        "zero": st.builds(InputSignal.zero, st.integers(1, 3)),
        "constant": st.builds(InputSignal.constant, st.lists(REAL, min_size=1, max_size=3)),
        "piecewise-constant": _signal_table(InputSignal.piecewise_constant, 0.0),
        "sinusoid": st.builds(InputSignal.sinusoid, st.lists(REAL, min_size=1, max_size=3), REAL, REAL),
        "table": _signal_table(InputSignal.from_table),
    },
    "functional": {
        "point-quadratic": st.builds(QuadraticDopFunctional, st.just(NEUTRAL.dop), _psd(1)),
        "integral-quadratic": _integral_quadratic(),
        "sup-norm": st.builds(SupNormFunctional, POSITIVE),
        "dop-norm": st.builds(DopNormFunctional, st.just(NEUTRAL.dop), POSITIVE),
        "weighted-composite": _weighted(WeightedCompositeFunctional, BASIC_FUNCTIONALS),
        "converse": st.builds(ConverseFunctional, st.just(NEUTRAL), POSITIVE, POSITIVE, st.none() | POSITIVE),
    },
    "seminorm": {
        "dop-seminorm": st.builds(DopSemiNorm, st.just(NEUTRAL.dop)),
        "endpoint": st.builds(EndpointSemiNorm),
        "l2": st.builds(L2SemiNorm, POSITIVE),
        "weighted": _weighted(WeightedSemiNorm, BASIC_SEMINORMS),
    },
    "comparison function": {
        "power": st.builds(ComparisonFunction.power, POSITIVE, POSITIVE, st.sampled_from(["K", "Kinf"])),
        "linear": st.builds(ComparisonFunction.linear, POSITIVE, st.sampled_from(["K", "Kinf"])),
        "exp-decay": st.builds(ComparisonFunction.exp_decay, POSITIVE),
        "table": st.one_of(_table("K"), _table("Kinf"), _table("L")),
        "product": st.builds(ComparisonFunction.kl_product, K_FUNCTIONS, L_FUNCTIONS),
    },
    "constants": {None: st.one_of(
        st.builds(CertificateConstants, st.just("ges"), POSITIVE, POSITIVE, POSITIVE),
        st.builds(CertificateConstants, st.just("ges-seminorm"), POSITIVE, POSITIVE, POSITIVE, POSITIVE,
                  seminorm=st.one_of(BASIC_SEMINORMS, _weighted(WeightedSemiNorm, BASIC_SEMINORMS))),
        st.builds(CertificateConstants, st.just("gas"), alpha1=KINF_FUNCTIONS, alpha2=KINF_FUNCTIONS,
                  alpha3=K_FUNCTIONS),
    )},
}


@pytest.mark.parametrize(
    "family, tag", [(f, tag) for f in FAMILIES for tag in f.table],
    ids=lambda v: v.what if isinstance(v, S._Family) else str(v),
)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_every_tag_round_trips_byte_identically(family, tag, data):
    _assert_round_trips(family, data.draw(STRATEGIES[family.what][tag]))


def _assert_round_trips(family, obj):
    """decode(encode(obj)) encodes to the same dict, and a file written, read
    back and written again keeps its bytes."""
    d = family.encode(obj)
    assert canonical_json(family.encode(family.decode(d, NEUTRAL))) == canonical_json(d)
    text = canonical_json(d)
    assert canonical_json(family.encode(family.decode(json.loads(text), NEUTRAL))) == text


@settings(max_examples=20, deadline=None)
@given(dop=STRATEGIES["dop"][None])
@example(dop=DifferenceOperator([1.0], [[[0.0, -0.0], [-0.0, 0.5]]]))
def test_negative_zero_round_trips_byte_identically(dop):
    """-0.0 is written as 0, which reads back as the integer 0 and writes as 0 again."""
    _assert_round_trips(S._DOP, dop)
    assert "-0" not in canonical_json({"a": [0.0, -0.0], "b": -0.0})


def test_every_family_has_a_round_trip_strategy():
    assert set(STRATEGIES) == {f.what for f in FAMILIES}
