import numpy as np
import pytest

from qeuler import OrthogonalLatinPair, mols_construct, ols_to_permutation

import frozen


@pytest.fixture
def classic_pair():
    """The classic order-3 Graeco-Latin pair, 0-based symbols."""
    return OrthogonalLatinPair(
        ranks=frozen.CLASSIC3_RANKS.copy(), suits=frozen.CLASSIC3_SUITS.copy()
    )


@pytest.fixture
def p9(classic_pair):
    """Card encoding of the classic pair: a 2-unitary order-9 permutation."""
    return ols_to_permutation(classic_pair)


@pytest.fixture(params=[3, 4, 5, 7])
def field_pair(request):
    """The first two finite-field squares of order 3, 4, 5 or 7."""
    squares = mols_construct(request.param)
    return OrthogonalLatinPair(ranks=squares[0], suits=squares[1])


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)


def random_unitary(n, rng):
    """Haar-ish unitary for invariance tests: QR of a Ginibre sample."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_state_vector(total, rng):
    v = rng.standard_normal(total) + 1j * rng.standard_normal(total)
    return v / np.linalg.norm(v)
