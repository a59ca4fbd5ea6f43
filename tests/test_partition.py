"""Two-state partition functions, the enumeration oracle and the binary term format."""

import io
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from motifspectra import figures, partition, spectrum
import oracles


def test_hs_small_values():
    assert oracles.terms(partition.hs_partition(2)) == {0: 1, 1: 3}
    assert oracles.terms(partition.hs_partition(4)) == {4: 1, 6: 4, 7: 6, 10: 5}


def test_fi_small_values():
    qp = partition.fi_partition(3, 3)
    assert qp.scale == 1
    assert oracles.terms(qp) == {3: 2, 8: 2, 11: 4}


def test_repr_is_the_constructor_call():
    qp = partition.fi_partition(3, Fraction(5, 2))
    names = {"QPolynomial": partition.QPolynomial, "array": np.array, "uint64": np.uint64}
    assert eval(repr(qp), names) == qp


def test_normalization_counts_all_states():
    for N in range(1, 31):
        assert partition.hs_partition(N).value_at_one() == 2**N
        assert partition.fi_partition(N, 3).value_at_one() == 2**N
        assert partition.fi_partition(N, Fraction(5, 2)).value_at_one() == 2**N


def test_fi_scale_follows_alpha_denominator():
    assert partition.fi_partition(4, Fraction(5, 2)).scale == 2
    assert partition.fi_partition(4, Fraction(7, 3)).scale == 3
    with pytest.raises(ValueError):
        partition.fi_partition(4, 0)


def test_hs_odd_sizes_have_even_exponents():
    for N in (5, 7, 9, 11):
        assert all(e % 2 == 0 for e in oracles.terms(partition.hs_partition(N)))


def test_recursion_matches_enumeration():
    for N in range(1, 13):
        disp = spectrum.HSDispersion(N)
        assert oracles.terms(partition.hs_partition(N)) == oracles.enumerated_partition(N, 0, 2, disp)[0]
    # a large alpha numerator or denominator spreads few terms over a wide range
    for alpha in (3, Fraction(5, 2), 10**9, Fraction(10**9 + 7, 1000), Fraction(3183, 10000)):
        for N in range(1, 13):
            disp = spectrum.FIDispersion(N, alpha)
            got = partition.fi_partition(N, alpha)
            terms, scale = oracles.enumerated_partition(N, 0, 2, disp)
            assert oracles.terms(got) == terms
            assert got.scale == scale


def test_reflection_recovers_bosonic_levels():
    for N in (4, 7, 10):
        disp = spectrum.HSDispersion(N)
        pivot = oracles.ground_state_energy(disp)
        reflected = oracles.reflected(oracles.terms(partition.hs_partition(N)), pivot)
        # hs_partition runs the packed kernel in (2, 0): take that side from the sparse kernel
        exponents, totals = spectrum._sparse_level_polynomial(N, 2, 0, spectrum._band(disp)[0])
        assert sorted(reflected.items()) == list(zip(exponents.tolist(), totals.tolist()))


def test_enumerated_partition_rejects_numeric():
    disp = spectrum.NumericDispersion(3, (1.0, 2.0))
    with pytest.raises(TypeError):
        oracles.enumerated_partition(3, 0, 2, disp)


def test_level_summary():
    s = partition.levels(partition.hs_partition(4))
    assert s.count == 4
    assert s.max_degeneracy == 6
    assert s.average == Fraction(16, 4)
    with pytest.raises(ValueError):
        partition.levels(oracles.polynomial({}))


def test_energies_respect_scale():
    qp = partition.fi_partition(3, Fraction(5, 2))
    # the scaled exponents reproduce the exact level values
    disp = spectrum.FIDispersion(3, Fraction(5, 2))
    want = sorted(e for e, _ in spectrum.level_set(3, 0, 2, disp))
    assert [Fraction(e, qp.scale) for e in sorted(oracles.terms(qp))] == want


def test_qpolynomial_validation():
    with pytest.raises(ValueError, match="^need scale >= 1, got 0$"):
        oracles.polynomial({0: 1}, scale=0)


def test_dump_load_round_trip():
    for qp in (
        partition.hs_partition(12),
        partition.fi_partition(9, Fraction(5, 2)),
        oracles.polynomial({0: 1, 10**40: 2**200}),
        # negative exponents of 1 to 8 bytes, sign-extended on load; -2^63 takes 9 bytes
        oracles.polynomial({-129: 1, -128: 2, -1: 3, 0: 4, 127: 5, 2**62: 6, -(2**63) + 1: 7}),
        oracles.polynomial({-(2**63): 2**64, 2**63 - 1: 2**64 - 1}),
    ):
        buf = io.BytesIO()
        partition.dump_terms(qp, buf)
        buf.seek(0)
        back = partition.load_terms(buf)
        assert oracles.terms(back) == oracles.terms(qp)
        assert back.scale == qp.scale
        assert back == qp


def _dump(qp):
    buf = io.BytesIO()
    partition.dump_terms(qp, buf)
    return buf.getvalue()


@given(
    st.dictionaries(st.integers(-(2**70), 2**70), st.integers(1, 2**130), max_size=20),
    st.integers(1, 2**64 - 1),
)
def test_dump_load_round_trip_random(terms, scale):
    qp = oracles.polynomial(terms, scale)
    assert partition.load_terms(io.BytesIO(_dump(qp))) == qp


def _edge_terms() -> dict:
    """Exponents either side of each signed byte edge, coefficients either side of each unsigned one."""
    terms = {}
    for k in (1, 2, 3, 8, 9, 16, 17, 24):
        edge = 2 ** (8 * k - 1)
        for e in (-edge - 1, -edge, -edge + 1, edge - 1, edge):
            terms[e] = 2 ** (8 * k) - 1 + len(terms) % 2
    return terms


@pytest.mark.parametrize(
    "qp",
    [
        pytest.param(oracles.polynomial({}), id="empty"),
        pytest.param(oracles.polynomial({0: 1}, 2**64 - 1), id="max-scale"),
        pytest.param(
            oracles.polynomial({-128: 1, -129: 255, -127: 256, 127: 2**64, 128: 2**64 - 1}), id="one-byte-edges"
        ),
        pytest.param(
            oracles.polynomial({-(2**63): 2**64, 2**63 - 1: 2**64 - 1, 2**63: 1, -(2**63) - 1: 2}), id="int64-edges"
        ),
        pytest.param(oracles.polynomial({-(2**63): 3, 0: 1, 2**63 - 1: 2}), id="int64-min"),
        pytest.param(oracles.polynomial({0: 1, 10**40: 2**200}), id="past-int64"),
        pytest.param(oracles.polynomial({-(2**127): 2**128, 2**130 + 5: 2**128 - 1, 3: 2**129}), id="past-2^128"),
        pytest.param(oracles.polynomial(_edge_terms(), 3), id="byte-edges"),
        pytest.param(partition.fi_partition(12, Fraction(5, 2)), id="fi-12"),
        # more terms than one record chunk
        pytest.param(oracles.polynomial({e: e * e + 1 for e in range(-(2**15), 2**15, 3)}), id="chunks"),
    ],
)
def test_dump_matches_per_term_encoder(qp):
    assert _dump(qp) == oracles.dumped_terms(qp)


_EXPONENTS = st.one_of(st.integers(-300, 300), st.integers(-(2**140), 2**140))
_COEFFICIENTS = st.one_of(st.integers(1, 300), st.integers(1, 2**200))


@given(st.dictionaries(_EXPONENTS, _COEFFICIENTS, max_size=30), st.integers(1, 2**64 - 1))
def test_dump_matches_per_term_encoder_random(terms, scale):
    qp = oracles.polynomial(terms, scale)
    assert _dump(qp) == oracles.dumped_terms(qp)


_DUMP = _dump(oracles.polynomial({0: 1, 4362: 296}))
_HEADER = 4 + 17  # magic plus <BQQ


@pytest.mark.parametrize(
    "data",
    [
        pytest.param(_DUMP[:10], id="short-header"),
        pytest.param(_DUMP[: _HEADER + 2], id="cut-length-prefix"),
        pytest.param(_DUMP[:-1], id="cut-record"),  # 296 would load as 40
        pytest.param(_DUMP + b"\x00", id="trailing-bytes"),
        pytest.param(_DUMP[: _HEADER - 16] + struct.pack("<QQIBI", 1, 1, 1, 5, 0), id="empty-coefficient"),
        pytest.param(_DUMP[: _HEADER - 16] + struct.pack("<QQIBIH", 1, 1, 1, 5, 2, 0), id="zero-coefficient"),
    ],
)
def test_load_rejects_corrupt_dump(data):
    with pytest.raises(ValueError):
        partition.load_terms(io.BytesIO(data))


def _unordered_dump(exponents):
    """A dump whose records hold these exponents in this order, each with coefficient 7."""
    body = b"".join(_dump(oracles.polynomial({e: 7}))[_HEADER:] for e in exponents)
    return _DUMP[: _HEADER - 16] + struct.pack("<QQ", len(exponents), 1) + body


@pytest.mark.parametrize(
    "exponents",
    [(5, 3, 3), (0, 4, 4), (4362, 0), (0, 2**70, 5)],
    # a wide exponent between narrow ones must not pick the int64 array
    ids=["falling", "repeated", "descending", "wide-between"],
)
def test_load_rejects_exponents_that_do_not_ascend(exponents):
    # dump_terms writes strictly ascending exponents; a later record must not overwrite or reorder
    ascending = _unordered_dump(sorted(set(exponents)))
    assert oracles.terms(partition.load_terms(io.BytesIO(ascending))) == dict.fromkeys(exponents, 7)
    with pytest.raises(ValueError, match="strictly ascend"):
        partition.load_terms(io.BytesIO(_unordered_dump(exponents)))


def test_load_keeps_the_fewest_limbs():
    # a coefficient written with high zero bytes loads as the value itself
    data = _DUMP[: _HEADER - 16] + struct.pack("<QQIBI", 1, 1, 1, 5, 17) + (7).to_bytes(17, "little")
    qp = partition.load_terms(io.BytesIO(data))
    assert qp == oracles.polynomial({5: 7})
    assert qp.coefficients.shape == (1, 1)


def test_load_rejects_bad_magic():
    with pytest.raises(ValueError):
        partition.load_terms(io.BytesIO(b"NOPE" + b"\x00" * 32))


def test_big_size_stays_exact():
    qp = partition.hs_partition(50)
    assert qp.value_at_one() == 2**50
    assert max(oracles.terms(qp)) == oracles.ground_state_energy(spectrum.HSDispersion(50))
    buf = io.BytesIO()
    partition.dump_terms(qp, buf)
    buf.seek(0)
    assert oracles.terms(partition.load_terms(buf)) == oracles.terms(qp)


def test_figure_level_counts_match_partition_term_counts():
    sizes = (4, 9, 12)
    fig3 = {s.label: dict(zip(s.xs, s.ys)) for s in figures.degeneracy_growth(max_sites=12)}
    fig5 = figures.level_count_bounds(max_sites=12)
    fig5_counts = {x: y for s in fig5 if s.label.startswith("count") for x, y in zip(s.xs, s.ys)}
    for N in sizes:
        hs = partition.hs_partition(N).term_count()
        fi = partition.fi_partition(N, 3).term_count()
        assert fig3["trigonometric average"][N] == 2**N / hs
        assert fig3["hyperbolic average (a = 3)"][N] == 2**N / fi
        assert fig5_counts[N] == hs
        sym = oracles.level_count_by_enumeration(N, 2, 0, spectrum.SymbolicAlphaDispersion(N))
        assert fig3["hyperbolic average (generic a)"][N] == 2**N / sym


@pytest.mark.parametrize(
    "N, alpha",
    [(63, None), (64, None), (65, None), (10, 10**9), (4, 10**30)],
    # hs 64 and 65 cross from 8- to 9-byte slots; alpha = 10^9 takes the sparse
    # fallback, and alpha = 10^30 sums its band past int64 there too
    ids=["hs-63", "hs-64", "hs-65", "fi-wide-10", "fi-past-int64-4"],
)
def test_limb_form_matches_python_ints(N, alpha):
    qp = partition.hs_partition(N) if alpha is None else partition.fi_partition(N, alpha)
    if alpha is not None:
        band = spectrum._band(spectrum.FIDispersion(N, alpha))[0]
        assert (sum(band) + 1) * 8 * spectrum._slot_bytes(N, 0, 2) > spectrum._PACKED_BOUND
    # the su(0|2) band sum is the largest exponent: object exponents exactly past int64
    assert qp.exponents.dtype == (object if qp.exponents[-1] >= 2**63 else np.int64)
    terms = qp.sorted_terms()
    coeffs = [c for _, c in terms]
    assert [e for e, _ in terms] == sorted(e for e, _ in terms)
    assert qp.value_at_one() == sum(coeffs) == 2**N
    assert qp.max_coefficient() == max(coeffs)
    assert partition.levels(qp) == partition.LevelSummary(len(coeffs), max(coeffs), Fraction(2**N, len(coeffs)))
    # one form: the kernel's arrays equal those built from the Python ints, with the fewest limbs
    assert qp == oracles.polynomial(dict(terms), qp.scale)
    assert qp.coefficients.shape == (len(coeffs), -(-max(coeffs).bit_length() // 64))
    assert _dump(qp) == oracles.dumped_terms(qp)
    assert partition.load_terms(io.BytesIO(_dump(qp))) == qp


@pytest.mark.parametrize(
    "coeffs",
    [
        pytest.param([2**64 - 1] * 5000, id="one-limb-sum-past-2^64"),
        pytest.param([2**32 - 1, 1, 2**32, 2**64 - 2**32, 2**32 - 1], id="half-carries"),
        pytest.param([2**64 - 1, 2**64, 1, 2**64 - 2], id="2^64"),
        pytest.param([2**64 + 5, 2**64 + 7, 2**64 + 6], id="low-limb-decides"),
        pytest.param([2**65 + 1, 2**64 + 2**63, 2**64 - 1], id="high-limb-decides"),
        pytest.param([2**128 - 1] * 3 + [2**128, 2**96 + 2**32 - 1], id="three-limbs"),
    ],
)
def test_limb_max_and_sum(coeffs):
    qp = oracles.polynomial(dict(enumerate(coeffs)))
    assert qp.value_at_one() == sum(coeffs)
    assert qp.max_coefficient() == max(coeffs)
    assert qp.sorted_terms() == list(enumerate(coeffs))
    assert qp.coefficients.shape == (len(coeffs), -(-max(coeffs).bit_length() // 64))
