import itertools
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from koszul.combinat import enumerate_tuples, insertion_sign


def test_enumerate_3_2_explicit():
    got = enumerate_tuples(3, 2)
    assert got == [(1, 2), (1, 3), (2, 3)]


def test_enumerate_4_2_length():
    assert len(enumerate_tuples(4, 2)) == 6


def test_rank_of_245_in_5_3():
    # oracle: position in the brute-force lexicographic enumeration
    listed = enumerate_tuples(5, 3)
    assert listed.index((2, 4, 5)) == 8


def test_empty_tuple_supported():
    ts = enumerate_tuples(3, 0)
    assert len(ts) == 1
    assert ts[0] == ()


@pytest.mark.parametrize("m,k", [(0, 0), (-1, 1), (3, 4), (3, -1)])
def test_enumerate_rejects_bad_arguments(m, k):
    with pytest.raises(ValueError):
        enumerate_tuples(m, k)


@given(st.integers(1, 8), st.data())
def test_enumerate_length_and_order(m, data):
    k = data.draw(st.integers(0, m))
    ts = enumerate_tuples(m, k)
    assert len(ts) == comb(m, k)
    assert ts == sorted(ts)
    assert ts == list(itertools.combinations(range(1, m + 1), k))


def test_insertion_sign_examples():
    assert insertion_sign(1, (2, 3)) == 1
    assert insertion_sign(3, (1, 2)) == 1
    assert insertion_sign(2, (1, 3)) == -1
    assert insertion_sign(2, (1, 2)) == 0


@given(st.integers(1, 8), st.data())
def test_insertion_sign_is_unimodular_or_zero(m, data):
    k = data.draw(st.integers(0, m))
    j = data.draw(st.integers(1, m))
    for sigma in enumerate_tuples(m, k):
        s = insertion_sign(j, sigma)
        if j in sigma:
            assert s == 0
        else:
            assert s * s == 1
