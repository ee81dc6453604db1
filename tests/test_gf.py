import itertools

import numpy as np
import pytest

from qeuler import (
    DimensionError,
    Field,
    NotAPrimePowerError,
    cyclic_latin,
    mols_construct,
    prime_power_decompose,
)

import frozen
import oracles


def test_prime_predicate_small_range():
    primes = [n for n in range(60) if prime_power_decompose(n) == (n, 1)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_prime_power_decomposition():
    assert prime_power_decompose(8) == (2, 3)
    assert prime_power_decompose(49) == (7, 2)
    assert prime_power_decompose(7) == (7, 1)
    for not_pp in (1, 6, 10, 12, 36, 0, -4):
        assert prime_power_decompose(not_pp) is None


@pytest.mark.parametrize(
    "order, call",
    [
        (9, prime_power_decompose),
        (8, Field),
        (5, cyclic_latin),
        (9, mols_construct),
    ],
)
def test_orders_must_be_integers(order, call):
    # a float order used to pass through: prime_power_decompose(7.5) was
    # (7.5, 1), cyclic_latin(2.5) held 0.5 and 1.5, and mols_construct(9.0)
    # and Field(7.5) raised a bare TypeError
    for bad in (order + 0.5, float(order), str(order), None):
        with pytest.raises(DimensionError, match="must be an int"):
            call(bad)
    got, want = call(np.int64(order)), call(order)
    if call is Field:
        assert (got.p, got.n, got.modulus) == (want.p, want.n, want.modulus)
    else:
        assert np.array_equal(got, want)


def test_moduli_are_the_frozen_smallest_irreducibles():
    for q, coeffs in frozen.FIELD_MODULI.items():
        f = Field(q)
        assert f.modulus == coeffs
        assert f.modulus == oracles.smallest_irreducible(f.p, f.n)


def test_gf4_multiplication_table_entry():
    # x * x reduces to x + 1 under the modulus x**2 + x + 1
    f = Field(4)
    x = f.element(2)
    assert (x * x).label == 3


def test_gf7_inverse_of_three_is_five():
    f = Field(7)
    assert f.element(3).inverse().label == 5
    assert (f.element(3) * f.element(5)).label == 1


def test_nonexistent_fields_are_rejected():
    for q in (1, 6, 10, 12, 15, 36):
        with pytest.raises(NotAPrimePowerError):
            Field(q)


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        Field(9).zero.inverse()


def test_element_label_round_trip_and_range():
    f = Field(27)
    for label in range(27):
        assert f.element(label).label == label
    with pytest.raises(ValueError):
        f.element(27)
    with pytest.raises(ValueError):
        f.element(-1)
    # a label that is not an integer used to pass: element(1.5) had
    # coefficients (1.5, 0.0) in GF(4), and element(True) was the one
    for bad in (1.5, 2.0, True, "1", None):
        with pytest.raises(ValueError, match="label must be an int"):
            Field(4).element(bad)
    assert f.element(np.int64(26)).label == 26


def test_cross_field_arithmetic_is_rejected():
    with pytest.raises(TypeError):
        Field(4).one + Field(8).one


def test_field_equality_and_hash():
    assert Field(9) == Field(9)
    assert Field(9) != Field(27)
    assert hash(Field(4)) == hash(Field(4))


def test_every_nonzero_element_has_order_dividing_q_minus_one():
    # a**(q-1) == 1 for all nonzero a, checked exhaustively up to q = 49
    for q in frozen.PRIME_POWERS_TO_49:
        f = Field(q)
        one = f.one
        for a in f.elements()[1:]:
            acc = one
            for _ in range(q - 1):
                acc = acc * a
            assert acc == one, f"GF({q}): {a} fails a^(q-1) = 1"


def test_inverses_multiply_to_one_exhaustively():
    for q in frozen.PRIME_POWERS_TO_49:
        f = Field(q)
        for a in f.elements()[1:]:
            assert a * a.inverse() == f.one, f"GF({q}): bad inverse for {a}"


def test_ring_axioms_exhaustive_small_fields():
    for q in (2, 3, 4, 5, 7, 8, 9):
        f = Field(q)
        els = f.elements()
        for a, b in itertools.product(els, repeat=2):
            assert a + b == b + a
            assert a * b == b * a
        for a, b, c in itertools.product(els, repeat=3):
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


def test_ring_axioms_sampled_larger_fields():
    import random

    chooser = random.Random(7)
    for q in (16, 25, 27, 32, 49, 64):
        f = Field(q)
        for _ in range(200):
            a = f.element(chooser.randrange(q))
            b = f.element(chooser.randrange(q))
            c = f.element(chooser.randrange(q))
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + (-a) == f.zero
            assert a - b == a + (-b)
