import math

import numpy as np
import pytest

from pspect.weights import Weight

from reference import weight_at


def test_constant_and_poly_eval():
    m = Weight.constant(2.5)
    assert m(0.3) == 2.5
    m2 = Weight.poly([1.0, -2.0])
    rs = np.linspace(0, 1, 11)
    assert np.allclose(m2(rs), 1 - 2 * rs, rtol=0, atol=0)
    assert m2(0.25) == 0.5


def test_piecewise_continuity_enforced():
    # two linear pieces that disagree at the breakpoint
    with pytest.raises(ValueError, match="discontinuous"):
        Weight((0.0, 0.5, 1.0), ((0.0, 1.0), (0.7, -1.0)))
    # agreeing pieces pass
    w = Weight((0.0, 0.5, 1.0), ((0.0, 1.0), (0.5, -1.0)))
    assert abs(w(0.5) - 0.5) < 1e-15


def test_breakpoint_validation():
    with pytest.raises(ValueError):
        Weight((0.0, 0.5), ((1.0,), (1.0,)))
    with pytest.raises(ValueError):
        Weight((0.1, 1.0), ((1.0,),))
    with pytest.raises(ValueError):
        Weight((0.0, 0.6, 0.4, 1.0), ((1.0,), (1.0,), (1.0,)))


def test_sign_partition_linear():
    m = Weight.poly([1.0, -2.0])  # positive on [0, 0.5), negative after
    (a, b), = m.positive_intervals
    assert abs(a) < 1e-12 and abs(b - 0.5) < 1e-12
    (c, d), = m.negative_intervals
    assert abs(c - 0.5) < 1e-12 and abs(d - 1.0) < 1e-12
    assert abs(sum(b - a for a, b in m.positive_intervals) - 0.5) < 1e-12
    assert m.in_M()
    assert m.negated().in_M()


def test_sign_partition_cosine():
    m = Weight.from_function(lambda r: math.cos(3 * math.pi * r))
    pos = m.positive_intervals
    assert len(pos) == 2
    assert abs(pos[0][1] - 1 / 6) < 1e-9
    assert abs(pos[1][0] - 1 / 2) < 1e-9 and abs(pos[1][1] - 5 / 6) < 1e-9
    assert abs(sum(b - a for a, b in pos) - 0.5) < 1e-9


def test_from_function_interpolation_accuracy():
    m = Weight.from_function(lambda r: math.cos(3 * math.pi * r))
    rs = np.linspace(0, 1, 1777)
    assert np.max(np.abs(m(rs) - np.cos(3 * math.pi * rs))) < 1e-12


def test_negated_scaled_shifted():
    m = Weight.poly([1.0, -2.0])
    rs = np.linspace(0, 1, 101)
    assert np.allclose(m.negated()(rs), -(1 - 2 * rs), atol=0)
    assert np.allclose(m.scaled(3.0)(rs), 3 * (1 - 2 * rs), atol=0)
    assert np.allclose(m.shifted(0.5)(rs), 1.5 - 2 * rs, atol=0)


def test_difference_on_the_union_of_breakpoints():
    cos = Weight.from_function(lambda r: math.cos(3 * math.pi * r), n_pieces=16)
    quad = Weight((0.0, 0.3, 1.0), ((1.0, 2.0), (1.6, 2.0, -1.0)))
    d = cos - quad
    assert d.breakpoints == tuple(sorted(set(cos.breakpoints) | {0.3}))
    rs = np.linspace(0, 1, 1001)
    assert np.max(np.abs(d(rs) - (cos(rs) - quad(rs)))) < 1e-14
    same = cos - cos
    assert same.positive_intervals == same.negative_intervals == ()
    # the spike of m1 above m2 = 2 on (0.49999, 0.50001) is found exactly
    m1 = Weight((0, 0.49998, 0.5, 0.50002, 1), ((1.0,), (1.0, 1e5), (3.0, -1e5), (1.0,)))
    (a, b), = (Weight.constant(2.0) - m1).negative_intervals
    assert abs(a - 0.49999) < 1e-12 and abs(b - 0.50001) < 1e-12


def test_constant_sign_weight_not_in_M_when_negative():
    m = Weight.constant(-1.0)
    assert not m.in_M()
    assert m.negated().in_M()


def test_narrow_positive_part_is_admissible():
    # positive only on (0.49999, 0.50001), narrower than a 10,000-point grid's spacing
    hat = Weight((0, 0.49998, 0.5, 0.50002, 1), ((-1,), (-1, 1e5), (1, -1e5), (-1,)))
    (a, b), = hat.positive_intervals
    assert abs(a - 0.49999) < 1e-12 and abs(b - 0.50001) < 1e-12
    assert hat.in_M()


def test_tiny_weight_is_admissible():
    # mu_k(c m) = mu_k(m) / c: scaling a weight down keeps it admissible
    assert Weight.constant(1e-15).in_M()
    assert Weight.poly([1e-15, -2e-15]).in_M()


def test_from_spec_forms_and_rejections():
    m = Weight.from_spec({"expr": "poly", "coeffs": [1.0, -2.0]})
    assert m(0.0) == 1.0
    m2 = Weight.from_spec(
        {"breakpoints": [0.0, 0.5, 1.0], "coeffs": [[0.0, 1.0], [0.5, -1.0]]}
    )
    assert abs(m2(0.75) - 0.25) < 1e-15
    with pytest.raises(ValueError, match="unknown weight expr"):
        Weight.from_spec({"expr": "fourier", "coeffs": [1.0]})
    with pytest.raises(ValueError, match="unknown weight keys"):
        Weight.from_spec({"expr": "poly", "coeffs": [1.0], "degree": 3})
    with pytest.raises(ValueError):
        Weight.from_spec({"coeffs": [[1.0]]})


def test_fingerprint_deterministic_and_distinct():
    a = Weight.poly([1.0, -2.0])
    b = Weight.poly([1.0, -2.0])
    c = Weight.poly([1.0, -2.0000001])
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != c.fingerprint()


# Weight.__call__ reads the kernel's weight(), which runs Horner in the
# reference's order on the same piece: same bits, the sign of a zero
# included, on any shape of r, outside [0, 1] and at NaN
COS3 = Weight.from_function(lambda r: math.cos(3 * math.pi * r))
R_READS = np.concatenate((np.linspace(0.0, 1.0, 37), COS3.breakpoints[1:9],
                          [-0.0, -1e-300, -0.25, -3.0, 1.0 + 2**-52, 1.5, 40.0, math.nan]))


@pytest.mark.parametrize("m", [
    Weight.constant(0.7),
    Weight.poly([1.0, -2.0]),
    Weight.poly([0.5, 1.0, -3.0]),
    Weight.poly([0.3, 0.0, 2.0, -1.0]),
    Weight.poly([0.86, -0.18, 0.10, -0.94]),
    Weight.poly([1.0, -0.5, -2.0, 0.3, 0.2]),
    Weight.from_function(lambda r: math.cos(3 * math.pi * r), n_pieces=16),
    COS3,
], ids=["constant", "1-2r", "quadratic", "cubic", "cubic2", "quartic", "cos3-16", "cos3-64"])
def test_call_is_the_reference_weight_on_any_shape(m):
    want = np.array([weight_at(m, r) for r in R_READS.tolist()])
    got = m(R_READS)
    assert got.shape == R_READS.shape and got.tobytes() == want.tobytes()
    grid = R_READS[:48].reshape(6, 8)
    assert m(grid).shape == (6, 8) and m(grid).tobytes() == want[:48].tobytes()
    assert m(grid.T).tobytes() == want[:48].reshape(6, 8).T.copy().tobytes()
    for r, v in zip(R_READS.tolist(), want.tolist()):
        for arg in (r, np.float64(r), np.array(r)):
            got = m(arg)
            assert type(got) is float
            assert np.array(got).tobytes() == np.array(v).tobytes()
    assert np.isnan(m(math.nan))
