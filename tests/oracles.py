"""Slow, loop-based reference implementations used to pin expected values.

Everything in this file trades speed for obviousness: explicit index loops,
no reshape tricks, and no code shared with the package under test. Tests use
these to freeze expected values and to cross-check the fast implementations
on random inputs.
"""

import itertools
import math

import numpy as np


# ---------------------------------------------------------------------------
# bipartite reorderings, entry by entry


def reshuffle_by_enumeration(m, d, dual=False):
    """Reshuffle an order d*d matrix by moving one entry at a time.

    Standard variant: entry at (a*d+i, b*d+j) lands at (a*d+b, i*d+j).
    Dual variant: the same entry lands at (j*d+i, b*d+a).
    """
    m = np.asarray(m)
    out = np.zeros_like(m)
    for a in range(d):
        for i in range(d):
            for b in range(d):
                for j in range(d):
                    if dual:
                        out[j * d + i, b * d + a] = m[a * d + i, b * d + j]
                    else:
                        out[a * d + b, i * d + j] = m[a * d + i, b * d + j]
    return out


def partial_transpose_by_enumeration(m, d, side="second"):
    """Partial transpose by explicit loops.

    side="second": entry at (a*d+i, b*d+j) lands at (a*d+j, b*d+i).
    side="first":  entry at (a*d+i, b*d+j) lands at (b*d+i, a*d+j).
    """
    m = np.asarray(m)
    out = np.zeros_like(m)
    for a in range(d):
        for i in range(d):
            for b in range(d):
                for j in range(d):
                    if side == "second":
                        out[a * d + j, b * d + i] = m[a * d + i, b * d + j]
                    else:
                        out[b * d + i, a * d + j] = m[a * d + i, b * d + j]
    return out


def flattenings_by_enumeration(t):
    """The three balanced unfoldings of a four-index tensor, looped entrywise."""
    t = np.asarray(t)
    d = t.shape[0]
    x = np.zeros((d * d, d * d), dtype=t.dtype)
    y = np.zeros_like(x)
    z = np.zeros_like(x)
    for i, j, k, l in itertools.product(range(d), repeat=4):
        x[i * d + j, k * d + l] = t[i, j, k, l]
        y[i * d + k, j * d + l] = t[i, j, k, l]
        z[i * d + l, k * d + j] = t[i, j, k, l]
    return x, y, z


def unfolding_by_row_axes(t, d, n_axes, row_axes):
    """Matrix unfolding of a 2M-index tensor with the given axes as rows."""
    t = np.asarray(t).reshape((d,) * n_axes)
    col_axes = [q for q in range(n_axes) if q not in row_axes]
    half = len(row_axes)
    mat = np.zeros((d**half, d ** (n_axes - half)), dtype=t.dtype)
    for idx in itertools.product(range(d), repeat=n_axes):
        r = 0
        for q in row_axes:
            r = r * d + idx[q]
        c = 0
        for q in col_axes:
            c = c * d + idx[q]
        mat[r, c] = t[idx]
    return mat


def unitarity_defect_by_integers(m):
    """||B^T B - I||_F of a matrix B of 0s and 1s, in integer arithmetic.

    sqrt(int(sum((B^T B - I)**2))): only the final square root rounds.
    """
    b = np.asarray(m)
    if np.iscomplexobj(b):
        b = b.real
    b = b.astype(np.int64)
    g = b.T @ b - np.eye(b.shape[0], dtype=np.int64)
    return math.sqrt(int((g * g).sum()))


def is_unitary_matrix(m, tol=1e-10):
    m = np.asarray(m, dtype=complex)
    g = np.conj(m.T) @ m
    return bool(np.linalg.norm(g - np.eye(m.shape[0])) <= tol)


# ---------------------------------------------------------------------------
# quantum square conditions by explicit summation


def _gram_residual_by_loops(vectors):
    """sqrt(sum |<v_a, v_b> - delta_ab|**2) over a list of vectors."""
    total = 0.0
    for a, va in enumerate(vectors):
        for b, vb in enumerate(vectors):
            g = sum(x.conjugate() * y for x, y in zip(va, vb)) - (a == b)
            total += abs(g) ** 2
    return math.sqrt(total)


def qols_residuals_by_loops(cells):
    """Residuals of the quantum Latin and orthogonal Latin conditions, looped.

    cells[r][c] is a vector of length d*d, read for Q2/Q3 as the d x d
    coefficient matrix X[p][q] = cells[r][c][p*d + q]. Returns a dict:
      "rows", "columns"   lists of the Gram residual of each row / column,
      "Q1", "Q1-completeness"   (residual, ()),
      "Q2-rows-trB", "Q2-rows-trA", "Q3-cols-trB", "Q3-cols-trA"
          (worst residual, its pair (i, j)), the first worst pair in
          row-major order, plus the residual of every pair under the same
          key with "-pairs" appended, as a d x d list.
    For a pair (i, j) of rows, trB sums X Y* over the d cells k of the two
    rows (X in row i, Y in row j) and trA sums X^T conj(Y); the residual is
    the Frobenius distance of that d x d sum from delta_ij times the
    identity. Q3 does the same for columns.
    """
    cells = np.asarray(cells, dtype=complex).tolist()
    d = len(cells)
    out = {
        "rows": [_gram_residual_by_loops(cells[r]) for r in range(d)],
        "columns": [
            _gram_residual_by_loops([cells[r][c] for r in range(d)]) for c in range(d)
        ],
    }
    all_cells = [cells[r][c] for r in range(d) for c in range(d)]
    out["Q1"] = (_gram_residual_by_loops(all_cells), ())
    total = 0.0
    for a in range(d * d):
        for b in range(d * d):
            g = sum(v[a] * v[b].conjugate() for v in all_cells) - (a == b)
            total += abs(g) ** 2
    out["Q1-completeness"] = (math.sqrt(total), ())

    def cell(family, k, i):
        return cells[i][k] if family.startswith("Q2") else cells[k][i]

    for family in ("Q2-rows-trB", "Q2-rows-trA", "Q3-cols-trB", "Q3-cols-trA"):
        pairs = [[0.0] * d for _ in range(d)]
        worst, where = -1.0, None
        for i in range(d):
            for j in range(d):
                total = 0.0
                for p in range(d):
                    for r in range(d):
                        m = 0j
                        for k in range(d):
                            x, y = cell(family, k, i), cell(family, k, j)
                            for q in range(d):
                                if family.endswith("trB"):
                                    m += x[p * d + q] * y[r * d + q].conjugate()
                                else:
                                    m += x[q * d + p] * y[q * d + r].conjugate()
                        if i == j and p == r:
                            m -= 1
                        total += abs(m) ** 2
                pairs[i][j] = math.sqrt(total)
                if pairs[i][j] > worst:
                    worst, where = pairs[i][j], (i, j)
        out[family] = (worst, where)
        out[family + "-pairs"] = pairs
    return out


# ---------------------------------------------------------------------------
# density matrices by brute-force index summation


def reduced_density_by_loops(amps, dims, keep):
    """Reduced density matrix of a pure state, summing indices explicitly."""
    amps = np.asarray(amps, dtype=complex)
    n = len(dims)
    keep = tuple(sorted(keep))
    rest = tuple(q for q in range(n) if q not in keep)
    dk = 1
    for q in keep:
        dk *= dims[q]

    def flat(idx):
        f = 0
        for q in range(n):
            f = f * dims[q] + idx[q]
        return f

    def kept_flat(vals):
        f = 0
        for pos, q in enumerate(keep):
            f = f * dims[q] + vals[pos]
        return f

    rho = np.zeros((dk, dk), dtype=complex)
    kept_ranges = [range(dims[q]) for q in keep]
    rest_ranges = [range(dims[q]) for q in rest]
    for row_vals in itertools.product(*kept_ranges):
        for col_vals in itertools.product(*kept_ranges):
            acc = 0j
            for tr in itertools.product(*rest_ranges):
                left = [0] * n
                right = [0] * n
                for pos, q in enumerate(keep):
                    left[q] = row_vals[pos]
                    right[q] = col_vals[pos]
                for pos, q in enumerate(rest):
                    left[q] = tr[pos]
                    right[q] = tr[pos]
                acc += amps[flat(left)] * np.conj(amps[flat(right)])
            rho[kept_flat(row_vals), kept_flat(col_vals)] = acc
    return rho


def schmidt_lambdas_by_density(amps, dims, left):
    """Schmidt spectrum from the eigenvalues of the left reduced density matrix.

    Independent of any SVD route: diagonalizes rho_left instead.
    """
    rho = reduced_density_by_loops(amps, dims, left)
    vals = np.linalg.eigvalsh(rho)
    vals = np.clip(vals[::-1], 0.0, None)
    return vals


# ---------------------------------------------------------------------------
# polynomial arithmetic over GF(p), little-endian coefficient tuples


def poly_trim(c):
    c = list(c)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return poly_trim(out)


def poly_mod(a, mod, p):
    """Remainder of a modulo the monic polynomial mod, by long division."""
    a = list(a)
    deg_m = len(mod) - 1
    while len(a) - 1 >= deg_m and poly_trim(a) != (0,):
        if a[-1] == 0:
            a.pop()
            continue
        shift = len(a) - 1 - deg_m
        lead = a[-1]
        for i, ci in enumerate(mod):
            a[shift + i] = (a[shift + i] - lead * ci) % p
        a.pop()
    return poly_trim(a)


def monic_polys(p, deg):
    """All monic polynomials of the given degree, in base-p counter order."""
    out = []
    for k in range(p**deg):
        coeffs = []
        kk = k
        for _ in range(deg):
            coeffs.append(kk % p)
            kk //= p
        out.append(tuple(coeffs) + (1,))
    return out


def poly_is_irreducible(poly, p):
    """Trial division by every monic polynomial of degree 1..deg//2."""
    deg = len(poly) - 1
    if deg < 1:
        return False
    for div_deg in range(1, deg // 2 + 1):
        for div in monic_polys(p, div_deg):
            if poly_mod(poly, div, p) == (0,):
                return False
    return True


def smallest_irreducible(p, n):
    """First irreducible monic degree-n polynomial in base-p counter order."""
    for cand in monic_polys(p, n):
        if poly_is_irreducible(cand, p):
            return cand
    raise AssertionError("no irreducible polynomial found; impossible")


def mols_by_field_loops(q):
    """The q - 1 squares of GF(q) cell by cell: a*x + y in cell (x, y).

    Elements are little-endian coefficient tuples over GF(p), labelled
    sum(c_i * p**i), multiplied modulo the smallest irreducible polynomial
    of degree n (q = p**n). Square number a takes the nonzero labels
    a = 1..q-1 in order; int64 cells.
    """
    p = next(f for f in range(2, q + 1) if q % f == 0)
    n = 1
    while p**n < q:
        n += 1
    modulus = smallest_irreducible(p, n)

    def coeffs(label):
        return tuple(label // p**i % p for i in range(n))

    squares = []
    for a in range(1, q):
        sq = np.zeros((q, q), dtype=np.int64)
        for x in range(q):
            ax = poly_mod(poly_mul(coeffs(a), coeffs(x), p), modulus, p)
            ax = ax + (0,) * (n - len(ax))
            for y in range(q):
                total = tuple((u + v) % p for u, v in zip(ax, coeffs(y)))
                sq[x, y] = sum(c * p**i for i, c in enumerate(total))
        squares.append(sq)
    return squares


def int_is_prime(m):
    if m < 2:
        return False
    f = 2
    while f * f <= m:
        if m % f == 0:
            return False
        f += 1
    return True


# ---------------------------------------------------------------------------
# combinatorial design checks by exhaustion


def latin_violations_by_loops(cells):
    """List of (axis, index, symbol) for every repeated symbol in a line."""
    cells = np.asarray(cells)
    d = cells.shape[0]
    bad = []
    for r in range(d):
        for sym in range(d):
            if sum(1 for c in range(d) if cells[r, c] == sym) != 1:
                bad.append(("row", r, sym))
    for c in range(d):
        for sym in range(d):
            if sum(1 for r in range(d) if cells[r, c] == sym) != 1:
                bad.append(("column", c, sym))
    return bad


def pair_is_orthogonal_by_loops(ranks, suits):
    """Exhaustive check of the three Graeco-Latin conditions."""
    ranks = np.asarray(ranks)
    suits = np.asarray(suits)
    d = ranks.shape[0]
    if latin_violations_by_loops(ranks) or latin_violations_by_loops(suits):
        return False
    seen = set()
    for r in range(d):
        for c in range(d):
            seen.add((int(ranks[r, c]), int(suits[r, c])))
    return len(seen) == d * d


def distinct_pair_count(ranks, suits):
    ranks = np.asarray(ranks)
    suits = np.asarray(suits)
    return len({(int(v), int(s)) for v, s in zip(ranks.flat, suits.flat)})


def all_latin_squares(d):
    """Every Latin square of order d by row-by-row backtracking (tiny d only)."""
    rows = list(itertools.permutations(range(d)))
    out = []

    def extend(chosen):
        if len(chosen) == d:
            out.append(np.array(chosen))
            return
        for cand in rows:
            if all(
                cand[c] != prev[c] for prev in chosen for c in range(d)
            ):
                extend(chosen + [cand])

    extend([])
    return out


def card_encoded_orthogonal_pairs(d):
    """Card encodings of every ordered orthogonal Latin pair of order d, sorted.

    Each pair (ranks, suits) becomes the one-positions per column of its
    permutation matrix: column r*d + c holds its 1 in row
    ranks[r, c]*d + suits[r, c].
    """
    squares = all_latin_squares(d)
    return sorted(
        tuple(int(ranks[r, c] * d + suits[r, c]) for r in range(d) for c in range(d))
        for ranks in squares
        for suits in squares
        if len({(ranks[r, c], suits[r, c]) for r in range(d) for c in range(d)})
        == d * d
    )


def oa_rows_by_loops(cells):
    """The runs (r, c, cells[r, c]) of a square, row by row, as int64."""
    cells = np.asarray(cells)
    d = cells.shape[0]
    runs = [(r, c, int(cells[r, c])) for r in range(d) for c in range(d)]
    return np.array(runs, dtype=np.int64)


# The classical verifiers as they counted before they became one balance
# count. Each returns the fields of its DesignReport: (kind, passed, tol,
# max_residual, [(condition, where, residual), ...], family_residuals).


def _combinatorial_report(kind, violations):
    max_residual = max([0.0] + [res for _, _, res in violations])
    return (kind, not violations, 0.0, float(max_residual), violations, {})


def _line_violations_by_counts(lines, axis_name):
    """Every (line, symbol) not seen exactly once in its line, line by line."""
    d = len(lines)
    counts = np.zeros((d, d), dtype=np.int64)  # [line, symbol]
    for i in range(d):
        for sym in lines[i]:
            counts[i, sym] += 1
    return [
        (axis_name, (i, sym), float(abs(counts[i, sym] - 1)))
        for i in range(d)
        for sym in range(d)
        if counts[i, sym] != 1
    ]


def _out_of_range_cells(cells):
    d = len(cells)
    return [(r, c) for r in range(d) for c in range(d) if not 0 <= cells[r, c] < d]


def verify_latin_by_counts(cells):
    cells = np.asarray(cells)
    violations = [("symbol-range", rc, 0.0) for rc in _out_of_range_cells(cells)]
    if not violations:
        violations += _line_violations_by_counts(cells, "row")
        violations += _line_violations_by_counts(cells.T, "column")
    return _combinatorial_report("ls", violations)


def verify_orthogonal_pair_by_counts(ranks, suits):
    ranks, suits = np.asarray(ranks), np.asarray(suits)
    d = len(ranks)
    violations = [
        ("symbol-range", (name,) + rc, 0.0)
        for name, arr in (("ranks", ranks), ("suits", suits))
        for rc in _out_of_range_cells(arr)
    ]
    if violations:
        return _combinatorial_report("ols", violations)
    for name, arr in (("ranks", ranks), ("suits", suits)):
        for _, where, res in _line_violations_by_counts(arr, "row"):
            violations.append(("C2", (name,) + where, res))
        for _, where, res in _line_violations_by_counts(arr.T, "column"):
            violations.append(("C3", (name,) + where, res))
    counts = np.zeros((d, d), dtype=np.int64)
    for v, s in zip(ranks.flat, suits.flat):
        counts[v, s] += 1
    for v in range(d):
        for s in range(d):
            if counts[v, s] != 1:
                violations.append(("C1", (v, s), float(abs(counts[v, s] - 1))))
    return _combinatorial_report("ols", violations)


def oa_verify_by_loops(rows, levels, k):
    """Fields of oa_verify's report; 1 <= k <= the number of columns."""
    rows = np.asarray(rows)
    r, n_cols = rows.shape
    for t in range(r):
        for c in range(n_cols):
            if not 0 <= rows[t, c] < levels:
                return _combinatorial_report("oa", [("symbol-range", (t, c), 0.0)])
    lam, rem = divmod(r, levels**k)
    if rem != 0 or lam < 1:
        return _combinatorial_report("oa", [("divisibility", (r, levels**k), 0.0)])
    violations = []
    for subset, counts in oa_counts_by_loops(rows, levels, k).items():
        for key in itertools.product(range(levels), repeat=k):
            got = counts.get(key, 0)
            if got != lam:
                violations.append(("balance", subset + key, float(abs(got - lam))))
    return _combinatorial_report("oa", violations)


def oa_counts_by_loops(rows, levels, k):
    """Tuple counts for every k-column projection of a symbol array."""
    rows = np.asarray(rows)
    n_cols = rows.shape[1]
    result = {}
    for subset in itertools.combinations(range(n_cols), k):
        counts = {}
        for row in rows:
            key = tuple(int(row[c]) for c in subset)
            counts[key] = counts.get(key, 0) + 1
        result[subset] = counts
    return result


# ---------------------------------------------------------------------------
# near-orthogonal Latin pairs by set-counting local search


def intercalate_flips_by_loops(sq):
    """Every (r1, r2, c1, c2), r1 < r2, c1 < c2, whose 2x2 subsquare is an
    intercalate, in lexicographic order."""
    d = sq.shape[0]
    out = []
    for r1, r2 in itertools.combinations(range(d), 2):
        for c1, c2 in itertools.combinations(range(d), 2):
            if sq[r1, c1] == sq[r2, c2] and sq[r1, c2] == sq[r2, c1]:
                out.append((r1, r2, c1, c2))
    return out


def random_latin_by_permutations(d, rng):
    """The cyclic square of order d with rows, columns and symbols permuted."""
    sq = np.array([[(r + c) % d for c in range(d)] for r in range(d)])
    sq = sq[rng.permutation(d), :][:, rng.permutation(d)]
    return rng.permutation(d)[sq]


def near_ols_squares_by_sets(d, seed, restarts):
    """Best Latin pair of order d found by greedy intercalate flips.

    Runs every one of the restarts from numpy's default generator seeded
    with seed. Each restart draws a random ranks and suits square, then
    repeats passes over ranks then suits until a pass over both improves
    nothing; a pass shuffles the square's flip list and keeps a flip only
    when the distinct-pair count, recounted as a set each time, rises.
    Returns (ranks, suits, count) of the first restart with the highest
    count.
    """
    rng = np.random.default_rng(seed)

    def swap(sq, flip):
        r1, r2, c1, c2 = flip
        sq[r1, c1], sq[r1, c2] = sq[r1, c2], sq[r1, c1]
        sq[r2, c1], sq[r2, c2] = sq[r2, c2], sq[r2, c1]

    best = None
    for _ in range(restarts):
        ranks = random_latin_by_permutations(d, rng)
        suits = random_latin_by_permutations(d, rng)
        count = distinct_pair_count(ranks, suits)
        improved = True
        while improved:
            improved = False
            for sq in (ranks, suits):
                flips = intercalate_flips_by_loops(sq)
                rng.shuffle(flips)
                for flip in flips:
                    swap(sq, flip)
                    new_count = distinct_pair_count(ranks, suits)
                    if new_count > count:
                        count = new_count
                        improved = True
                    else:
                        swap(sq, flip)
        if best is None or count > best[2]:
            best = (ranks.copy(), suits.copy(), count)
    return best


def repaired_card_matrix_by_loops(ranks, suits):
    """Card encoding of a Latin pair with its duplicate pairs refilled.

    Scanning cells row by row, a cell whose pair was already seen is a hole;
    the k-th hole gets the k-th smallest pair that no cell holds.
    """
    d = ranks.shape[0]
    seen = set()
    holes = []
    out = np.zeros((d * d, d * d), dtype=np.int64)
    for r in range(d):
        for c in range(d):
            pair = (int(ranks[r, c]), int(suits[r, c]))
            if pair in seen:
                holes.append((r, c))
            else:
                seen.add(pair)
                out[pair[0] * d + pair[1], r * d + c] = 1
    missing = [(v, s) for v in range(d) for s in range(d) if (v, s) not in seen]
    for (r, c), (v, s) in zip(holes, missing):
        out[v * d + s, r * d + c] = 1
    return out


# ---------------------------------------------------------------------------
# reference constructions for the order-3 classic


def classic_ols3_squares():
    """The classic Graeco-Latin square of order 3, 0-based.

    Cell (r, c) holds the pair ((r + c) mod 3, (r + 2c) mod 3).
    """
    ranks = np.zeros((3, 3), dtype=np.int64)
    suits = np.zeros((3, 3), dtype=np.int64)
    for r in range(3):
        for c in range(3):
            ranks[r, c] = (r + c) % 3
            suits[r, c] = (r + 2 * c) % 3
    return ranks, suits


def card_matrix_by_loops(ranks, suits):
    """Permutation encoding: 1 at (v*d+s, r*d+c) for each cell, looped."""
    ranks = np.asarray(ranks)
    suits = np.asarray(suits)
    d = ranks.shape[0]
    out = np.zeros((d * d, d * d), dtype=np.int64)
    for r in range(d):
        for c in range(d):
            out[int(ranks[r, c]) * d + int(suits[r, c]), r * d + c] += 1
    return out


def ame4_amplitudes_by_loops(ranks, suits):
    """Four-party state amplitudes 1/d at |r, c, v, s> for each cell."""
    ranks = np.asarray(ranks)
    suits = np.asarray(suits)
    d = ranks.shape[0]
    amps = np.zeros(d**4, dtype=complex)
    for r in range(d):
        for c in range(d):
            v = int(ranks[r, c])
            s = int(suits[r, c])
            amps[((r * d + c) * d + v) * d + s] = 1.0 / d
    return amps


def classical_cells_by_loops(ranks, suits):
    """Quantum square whose cell (r, c) is the basis vector |v*d + s>."""
    ranks = np.asarray(ranks)
    suits = np.asarray(suits)
    d = ranks.shape[0]
    cells = np.zeros((d, d, d * d), dtype=complex)
    for r in range(d):
        for c in range(d):
            cells[r, c, int(ranks[r, c]) * d + int(suits[r, c])] = 1.0
    return cells


def qoa_states_by_loops(cells):
    """One run |i>|j>|cells[i, j]> per cell, entry by entry."""
    d = cells.shape[0]
    n = d * d
    states = np.zeros((n, n * n), dtype=complex)
    for i in range(d):
        for j in range(d):
            for x in range(n):
                states[i * d + j, (i * d + j) * n + x] = cells[i, j, x]
    return states


def function_tables_by_loops(ranks, suits):
    """f1[r, c] = (v, s), f2[s, c] = (v, r) and f3[s, r] = (v, c), cell by cell."""
    d = ranks.shape[0]
    f1 = np.zeros((d, d, 2), dtype=np.int64)
    f2 = np.zeros((d, d, 2), dtype=np.int64)
    f3 = np.zeros((d, d, 2), dtype=np.int64)
    for r in range(d):
        for c in range(d):
            v = int(ranks[r, c])
            s = int(suits[r, c])
            f1[r, c] = (v, s)
            f2[s, c] = (v, r)
            f3[s, r] = (v, c)
    return f1, f2, f3
