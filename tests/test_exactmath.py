"""Exact arithmetic in Q(sqrt 5), Fibonacci/Lucas helpers, closed forms."""
import math
import operator
import pickle
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ultraseq import exactmath
from ultraseq.exactmath import (
    PHI,
    PSI,
    SQRT5,
    QuadExt,
    closed_form_affine,
    closed_form_affine_row,
    fib,
    lucas,
    quad_pow,
    two_point_constants,
)

fractions = st.fractions(
    min_value=-50, max_value=50, max_denominator=12)
quads = st.builds(QuadExt, fractions, fractions)
scalars = st.one_of(st.integers(min_value=-50, max_value=50), fractions)


def _fib_linear(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


@dataclass(frozen=True)
class _FracQuad:
    """Oracle: a + b*sqrt(5) as a pair of Fractions, each operation done
    componentwise in Fraction arithmetic."""

    a: Fraction
    b: Fraction

    def __init__(self, a, b=0):
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))

    @staticmethod
    def _coerce(other):
        return other if isinstance(other, _FracQuad) else _FracQuad(other)

    def __add__(self, other):
        o = self._coerce(other)
        return _FracQuad(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return _FracQuad(-self.a, -self.b)

    def __sub__(self, other):
        o = self._coerce(other)
        return _FracQuad(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        return _FracQuad(self.a * o.a + 5 * self.b * o.b,
                         self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def inverse(self):
        norm = self.a * self.a - 5 * self.b * self.b
        if norm == 0:
            raise ZeroDivisionError("zero element of Q(sqrt 5)")
        return _FracQuad(self.a / norm, -self.b / norm)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    @property
    def is_rational(self):
        return self.b == 0

    @property
    def is_integer(self):
        return self.b == 0 and self.a.denominator == 1

    def as_integer(self):
        if not self.is_integer:
            raise ValueError(f"{self!r} is not an integer")
        return int(self.a)

    def __float__(self):
        return float(self.a) + float(self.b) * 5 ** 0.5

    def __repr__(self):
        return f"QuadExt({self.a}, {self.b})"


def _frac_pow(x: _FracQuad, n: int) -> _FracQuad:
    if n < 0:
        raise ValueError("quad_pow requires n >= 0")
    result = _FracQuad(1)
    for _ in range(n):
        result = result * x
    return result


def _agrees(x: QuadExt, o: _FracQuad) -> bool:
    """Same value, stored in canonical form: d > 0, gcd(p, q, d) = 1."""
    return ((x.a, x.b) == (o.a, o.b) and x.d > 0
            and math.gcd(x.p, x.q, x.d) == 1)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ZeroDivisionError, ValueError) as exc:
        return type(exc), str(exc)


def _same(got, want) -> bool:
    """The same value, or the same exception type and message."""
    if isinstance(want, _FracQuad):
        return isinstance(got, QuadExt) and _agrees(got, want)
    return got == want


def _count_muls(monkeypatch):
    """Count every QuadExt multiplication made from now on."""
    calls = [0]
    mul = QuadExt.__mul__

    def counting(self, other):
        calls[0] += 1
        return mul(self, other)

    monkeypatch.setattr(QuadExt, "__mul__", counting)
    monkeypatch.setattr(QuadExt, "__rmul__", counting)
    return calls


class TestQuadExt:
    def test_golden_ratio_identities(self):
        assert PHI + PSI == QuadExt(1)
        assert PHI - PSI == SQRT5
        assert PHI * PSI == QuadExt(-1)
        assert PHI * PHI == PHI + 1

    def test_integer_coercion(self):
        x = QuadExt(3, 1)
        assert x + 2 == QuadExt(5, 1)
        assert 2 + x == QuadExt(5, 1)
        assert 2 - x == QuadExt(-1, -1)
        assert x * 2 == QuadExt(6, 2)

    def test_rational_detection(self):
        assert QuadExt(Fraction(7, 2)).is_rational
        assert not PHI.is_rational
        assert QuadExt(4).is_integer
        assert not QuadExt(Fraction(1, 2)).is_integer
        assert QuadExt(9).as_integer() == 9
        with pytest.raises(ValueError):
            PHI.as_integer()

    def test_float_value(self):
        assert float(PHI) == pytest.approx((1 + 5 ** 0.5) / 2)

    @given(quads, quads, quads)
    def test_ring_axioms(self, x, y, z):
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z

    @given(quads)
    def test_additive_inverse(self, x):
        assert x + (-x) == QuadExt(0)
        assert x - x == QuadExt(0)

    @given(quads)
    def test_multiplicative_inverse(self, x):
        if x == QuadExt(0):
            with pytest.raises(ZeroDivisionError):
                x.inverse()
        else:
            assert x * x.inverse() == QuadExt(1)
            assert (QuadExt(1) / x) * x == QuadExt(1)

    @given(quads, quads)
    def test_division_roundtrip(self, x, y):
        if y != QuadExt(0):
            assert (x / y) * y == x

    @given(quads, st.integers(min_value=0, max_value=24))
    def test_quad_pow_matches_repeated_product(self, x, n):
        expected = QuadExt(1)
        for _ in range(n):
            expected = expected * x
        assert quad_pow(x, n) == expected

    @given(st.integers(min_value=0, max_value=200))
    def test_phi_powers_expand_in_fibonacci(self, n):
        assert quad_pow(PHI, n) == QuadExt(fib(n - 1)) + QuadExt(fib(n)) * PHI


class TestAgainstFractionOracle:
    """Every operation of the integer-backed QuadExt against _FracQuad."""

    @given(fractions, fractions)
    def test_construction_and_predicates(self, a, b):
        x, o = QuadExt(a, b), _FracQuad(a, b)
        assert _agrees(x, o)
        assert repr(x) == repr(o)
        assert x.is_rational == o.is_rational
        assert x.is_integer == o.is_integer
        assert _outcome(x.as_integer) == _outcome(o.as_integer)
        assert float(x) == float(o)
        assert _same(_outcome(x.inverse), _outcome(o.inverse))

    @given(fractions, fractions, fractions, fractions)
    def test_binary_operations(self, a, b, c, e):
        x, y = QuadExt(a, b), QuadExt(c, e)
        ox, oy = _FracQuad(a, b), _FracQuad(c, e)
        for op in (operator.add, operator.sub, operator.mul,
                   operator.truediv):
            assert _same(_outcome(op, x, y), _outcome(op, ox, oy))
        assert _agrees(-x, -ox)
        assert (x == y) == (ox == oy)

    @given(fractions, fractions, scalars)
    def test_mixed_operations_with_scalars(self, a, b, s):
        x, o = QuadExt(a, b), _FracQuad(a, b)
        for op in (operator.add, operator.sub, operator.mul,
                   operator.truediv):
            for args, oargs in (((x, s), (o, s)), ((s, x), (s, o))):
                assert _same(_outcome(op, *args), _outcome(op, *oargs))
        assert (x == s) == (o == s)

    @given(fractions, fractions, st.integers(min_value=-3, max_value=30))
    def test_powers(self, a, b, n):
        x, o = QuadExt(a, b), _FracQuad(a, b)
        want = _outcome(_frac_pow, o, n)
        assert _same(_outcome(quad_pow, x, n), want)
        assert _same(_outcome(pow, x, n), want)

    def test_zero_and_negative_power_errors(self):
        zero = QuadExt(0)
        with pytest.raises(ZeroDivisionError, match="zero element"):
            zero.inverse()
        with pytest.raises(ZeroDivisionError):
            PHI / zero
        with pytest.raises(ZeroDivisionError):
            1 / zero
        with pytest.raises(ValueError, match="n >= 0"):
            quad_pow(PHI, -1)

    @given(quads, quads)
    def test_equal_values_hash_equal(self, x, y):
        paths = [x + y - y, (x - y) + y, -(-x)]
        if y != QuadExt(0):
            paths += [x * y / y, (x / y) * y]
        for z in paths:
            assert z == x and hash(z) == hash(x)
            assert (z.p, z.q, z.d) == (x.p, x.q, x.d)

    def test_equal_values_by_different_paths_hash_equal(self):
        pairs = [(PHI * PHI, PHI + 1), (PHI + PSI, QuadExt(1)),
                 (QuadExt(Fraction(2, 4), Fraction(3, 3)),
                  QuadExt(Fraction(1, 2), 1)),
                 (SQRT5 * SQRT5, QuadExt(5)), (quad_pow(PHI, 10), PHI ** 10),
                 (PHI ** 5 * PSI ** 5, QuadExt(-1))]
        for u, v in pairs:
            assert u == v and hash(u) == hash(v)
        assert len({u for pair in pairs for u in pair}) == len(pairs)

    def test_immutable_and_picklable(self):
        x = QuadExt(Fraction(3, 4), -2)
        with pytest.raises(AttributeError):
            x.p = 1
        with pytest.raises(AttributeError):
            x.a = 1
        assert pickle.loads(pickle.dumps(x)) == x
        assert (x.p, x.q, x.d) == (3, -8, 4)


class TestFibLucas:
    def test_known_values(self):
        assert [fib(n) for n in range(11)] == [0, 1, 1, 2, 3, 5, 8, 13, 21,
                                               34, 55]
        assert [lucas(n) for n in range(8)] == [2, 1, 3, 4, 7, 11, 18, 29]

    def test_negative_indices(self):
        assert fib(-4) == -3
        assert [fib(-n) for n in range(1, 7)] == [1, -1, 2, -3, 5, -8]
        assert lucas(-1) == -1
        assert [lucas(-n) for n in range(1, 6)] == [-1, 3, -4, 7, -11]

    @given(st.integers(min_value=0, max_value=500))
    def test_fast_doubling_matches_linear(self, n):
        assert fib(n) == _fib_linear(n)

    @given(st.integers(min_value=0, max_value=300))
    def test_negative_reflection(self, n):
        assert fib(-n) == (-1) ** (n + 1) * fib(n)
        assert lucas(-n) == (-1) ** n * lucas(n)

    @given(st.integers(min_value=-200, max_value=200))
    def test_recurrences(self, n):
        assert fib(n) == fib(n - 1) + fib(n - 2)
        assert lucas(n) == fib(n - 1) + fib(n + 1)


class TestTwoPointConstants:
    @given(st.integers(min_value=-40, max_value=40),
           st.integers(min_value=-40, max_value=40))
    def test_reconstructs_any_two_term_sequence(self, l0, l1):
        b, c = two_point_constants(l0, l1)
        seq = [l0, l1]
        for _ in range(10):
            seq.append(seq[-1] + seq[-2])
        for n, expected in enumerate(seq):
            got = b * quad_pow(PHI, n) + c * quad_pow(PSI, n)
            assert got == QuadExt(expected)


#: c in the row's multiplication bound 2*(hi - lo) + c*bit_length(hi)
ROW_LOG_MULS = 8


def _affine_iteration(a0, a1, eps, hi):
    seq = [a0, a1]
    while len(seq) <= hi:
        seq.append(seq[-1] + seq[-2] + eps)
    return seq


def naive_affine_row(a0, a1, eps, lo, hi):
    """The per-index ``QuadExt`` row: x = beta*phi^lo and y = gamma*psi^lo,
    then one reduced multiplication by phi and one by psi per index."""
    beta, gamma = two_point_constants(a0 + eps, a1 + eps)
    x, y = beta * quad_pow(PHI, lo), gamma * quad_pow(PSI, lo)
    row = []
    for _ in range(lo, hi + 1):
        row.append((x + y - eps).as_integer())
        x, y = x * PHI, y * PSI
    return row


class TestClosedFormAffine:
    @given(st.integers(min_value=-30, max_value=30),
           st.integers(min_value=-30, max_value=30),
           st.integers(min_value=-10, max_value=10),
           st.integers(min_value=0, max_value=60))
    def test_matches_direct_iteration(self, a0, a1, eps, n):
        assert closed_form_affine(a0, a1, eps, n) == \
            _affine_iteration(a0, a1, eps, n)[n]

    def test_known_row(self):
        assert [closed_form_affine(5, 2, 2, n) for n in range(6)] == \
            [5, 2, 9, 13, 24, 39]

    @given(st.integers(min_value=-30, max_value=30),
           st.integers(min_value=-30, max_value=30),
           st.integers(min_value=-10, max_value=10),
           st.integers(min_value=0, max_value=60),
           st.integers(min_value=0, max_value=30))
    def test_row_matches_scalar_and_iteration(self, a0, a1, eps, lo, extra):
        hi = lo + extra
        row = closed_form_affine_row(a0, a1, eps, lo, hi)
        assert row == _affine_iteration(a0, a1, eps, hi)[lo:hi + 1]
        assert row == [closed_form_affine(a0, a1, eps, n)
                       for n in range(lo, hi + 1)]

    @pytest.mark.parametrize("lo, hi", [(0, 0), (0, 25), (9, 9), (13, 40)])
    def test_row_bounds(self, lo, hi):
        row = closed_form_affine_row(-7, 3, -4, lo, hi)
        assert row == _affine_iteration(-7, 3, -4, hi)[lo:hi + 1]

    @pytest.mark.parametrize("lo, hi", [(-1, 3), (5, 4)])
    def test_row_rejects_bad_bounds(self, lo, hi):
        with pytest.raises(ValueError):
            closed_form_affine_row(1, 2, 2, lo, hi)

    @pytest.mark.parametrize("shift", [SQRT5 / 7, QuadExt(Fraction(1, 3))])
    def test_perturbed_constant_raises(self, monkeypatch, shift):
        """Each value goes through the exactness check, so a wrong constant
        is caught rather than rounded away."""
        real = exactmath.two_point_constants

        def perturbed(l0, l1):
            beta, gamma = real(l0, l1)
            return beta + shift, gamma

        monkeypatch.setattr(exactmath, "two_point_constants", perturbed)
        with pytest.raises(ValueError, match="not an integer"):
            closed_form_affine_row(5, 2, 2, 3, 8)

    @pytest.mark.parametrize("beta_shift, gamma_shift", [
        # whole rational parts, a sqrt 5 part of L_n: only that check fires
        (2 * SQRT5, QuadExt(0)),
        # no sqrt 5 part, a rational part of L_n / 3: only the remainder
        (QuadExt(Fraction(1, 3)), QuadExt(Fraction(1, 3)))])
    def test_each_exactness_check_catches_alone(self, monkeypatch,
                                                beta_shift, gamma_shift):
        real = exactmath.two_point_constants

        def perturbed(l0, l1):
            beta, gamma = real(l0, l1)
            return beta + beta_shift, gamma + gamma_shift

        monkeypatch.setattr(exactmath, "two_point_constants", perturbed)
        with pytest.raises(ValueError, match="not an integer"):
            closed_form_affine_row(5, 2, 2, 0, 8)

    @pytest.mark.parametrize("lo, hi", [(0, 1), (0, 200), (37, 45),
                                        (150, 151), (300, 900), (1000, 1000)])
    def test_row_multiplications_are_linear_plus_log(self, monkeypatch, lo,
                                                     hi):
        calls = _count_muls(monkeypatch)
        closed_form_affine_row(7, 2, 2, lo, hi)
        assert calls[0] <= 2 * (hi - lo) + ROW_LOG_MULS * hi.bit_length()

    @given(st.integers(-40, 40), st.integers(-40, 40), st.integers(-12, 12),
           st.integers(0, 300), st.integers(0, 60))
    def test_row_matches_the_per_index_quadext_row(self, a0, a1, eps, lo,
                                                   width):
        assert closed_form_affine_row(a0, a1, eps, lo, lo + width) == \
            naive_affine_row(a0, a1, eps, lo, lo + width)

    @pytest.mark.parametrize("lo", [0, 1, 37, 300])
    def test_row_length_costs_no_quadext_multiplication(self, monkeypatch,
                                                        lo):
        calls = _count_muls(monkeypatch)
        closed_form_affine_row(-7, 3, -4, lo, lo)
        one = calls[0]
        calls[0] = 0
        closed_form_affine_row(-7, 3, -4, lo, lo + 500)
        assert calls[0] == one

    def test_per_index_powers_exceed_the_row_bound(self, monkeypatch):
        calls = _count_muls(monkeypatch)
        lo, hi = 0, 200
        beta, gamma = two_point_constants(9, 4)
        for n in range(lo, hi + 1):
            beta * quad_pow(PHI, n) + gamma * quad_pow(PSI, n)
        assert calls[0] > 2 * (hi - lo) + ROW_LOG_MULS * hi.bit_length()


class TestFixedPoint:
    @pytest.mark.parametrize("x, places, text", [
        (321, 3, "321.000"), (Fraction(3266, 3), 3, "1088.667"),
        (Fraction(1, 8), 2, "0.12"), (Fraction(3, 8), 2, "0.38"),
        (Fraction(5, 2), 0, "2"), (Fraction(7, 2), 0, "4"),
        (Fraction(-1, 8), 2, "-0.12"), (Fraction(-3, 8), 2, "-0.38"),
        (Fraction(-1, 2000), 3, "0.000"), (Fraction(-3, 2000), 3, "-0.002"),
        (Fraction(-22, 7), 3, "-3.143"), (0, 3, "0.000"), (-5, 1, "-5.0"),
        (Fraction(1, 3), 12, "0.333333333333"),
    ])
    def test_rounds_half_to_even_on_the_exact_value(self, x, places, text):
        assert exactmath.fixed_point(x, places) == text

    @given(st.fractions(max_denominator=10 ** 6), st.integers(0, 6))
    def test_agrees_with_decimal(self, x, places):
        exact = Context(prec=200)
        want = exact.divide(x.numerator, x.denominator).quantize(
            Decimal(1).scaleb(-places), ROUND_HALF_EVEN, exact)
        # the renderer writes no negative zero
        assert exactmath.fixed_point(x, places) == str(abs(want) if want == 0
                                                       else want)

    def test_a_value_past_float_range(self):
        big = 7 ** 500  # 423 digits
        x = Fraction(3 * big + 1, 3)
        assert exactmath.fixed_point(x, 3) == f"{big}.333"
        assert exactmath.fixed_point(-x, 3) == f"-{big}.333"
        # ties: big is odd, so big + 1/2 rounds up to the even neighbour
        assert exactmath.fixed_point(Fraction(2 * big + 1, 2), 0) == str(big + 1)
        assert exactmath.fixed_point(Fraction(2000 * big + 1, 2000),
                                     3) == f"{big}.000"
        assert exactmath.fixed_point(Fraction(2000 * big + 3, 2000),
                                     3) == f"{big}.002"
