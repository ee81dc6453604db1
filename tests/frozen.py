"""Frozen expected values shared by the test modules.

Every non-obvious constant here was computed once with the reference code in
oracles.py (or by hand for the small index gymnastics) and is committed as a
literal so regressions show up as value changes, not just property failures.
"""

import numpy as np

# order-4 matrix holding 1..16 row-major, the common reordering example
COUNT_4 = np.arange(1, 17).reshape(4, 4)

# reshuffle moves entry (a*2+i, b*2+j) to (a*2+b, i*2+j)
RESHUFFLE_COUNT_4 = np.array(
    [
        [1, 2, 5, 6],
        [3, 4, 7, 8],
        [9, 10, 13, 14],
        [11, 12, 15, 16],
    ]
)

# dual variant sends the same entry to (j*2+i, b*2+a)
RESHUFFLE_COUNT_4_DUAL = np.array(
    [
        [1, 9, 3, 11],
        [5, 13, 7, 15],
        [2, 10, 4, 12],
        [6, 14, 8, 16],
    ]
)

# partial transpose of the second factor: (a*2+i, b*2+j) -> (a*2+j, b*2+i)
PT_COUNT_4_SECOND = np.array(
    [
        [1, 5, 3, 7],
        [2, 6, 4, 8],
        [9, 13, 11, 15],
        [10, 14, 12, 16],
    ]
)

# partial transpose of the first factor: (a*2+i, b*2+j) -> (b*2+i, a*2+j)
PT_COUNT_4_FIRST = np.array(
    [
        [1, 2, 9, 10],
        [5, 6, 13, 14],
        [3, 4, 11, 12],
        [7, 8, 15, 16],
    ]
)

# classic order-3 Graeco-Latin pair: cell (r,c) holds ((r+c)%3, (r+2c)%3)
CLASSIC3_RANKS = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
CLASSIC3_SUITS = np.array([[0, 2, 1], [1, 0, 2], [2, 1, 0]])

# its card encoding: row v*3+s holds its 1 in column P9_ONE_COLS[row];
# equivalently column r*3+c holds its 1 in row P9_ONE_ROWS[col]
P9_ONE_COLS = [0, 7, 5, 8, 3, 1, 4, 2, 6]
P9_ONE_ROWS = [0, 5, 7, 4, 6, 2, 8, 1, 3]

# nonzero flat amplitude indices of the four-qutrit state built from the
# classic pair, index ((r*3+c)*3+v)*3+s, all with amplitude 1/3
AME33_NONZERO = [0, 14, 25, 31, 42, 47, 62, 64, 75]

# smallest irreducible monic modulus per prime power, little-endian coeffs
FIELD_MODULI = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    9: (1, 0, 1),
    16: (1, 1, 0, 0, 1),
    25: (2, 0, 1),
    27: (1, 2, 0, 1),
    32: (1, 0, 1, 0, 0, 1),
    49: (1, 0, 1),
    64: (1, 1, 0, 0, 0, 0, 1),
}

PRIME_POWERS_TO_49 = [
    2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25,
    27, 29, 31, 32, 37, 41, 43, 47, 49,
]

# card lists of the built-in base permutations at orders 2 and 6: cell
# (r, c), column r*d + c of the base, holds its 1 in row BASE_CARDS[d][r*d + c]
BASE_CARDS = {
    2: [1, 2, 0, 3],
    6: [
        30, 26, 7, 17, 21, 4, 1, 23, 32, 28, 12, 9,
        22, 0, 27, 31, 11, 14, 29, 33, 16, 6, 2, 19,
        15, 10, 5, 20, 25, 35, 8, 13, 18, 3, 34, 24,
    ],
}
