"""Reference greedy matcher that forms the whole |a_i - b_j| table.

This is the matcher's original implementation, kept only so tests can
require the production matcher to return the same pairs in the same
order. It costs O(n*m) time and, for dense inputs, a Python loop over
every candidate pair.
"""

import numpy as np

# the |a_i - b_j| table is built in blocks of this many entries
TABLE_CHUNK = 4_000_000


def quadratic_greedy_match(a, b, tolerance):
    """Candidates with |a_i - b_j| <= tolerance, taken in (d, i, j) order."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if len(a) == 0 or len(b) == 0:
        return []
    pairs_i = []
    pairs_j = []
    dists = []
    chunk = max(1, TABLE_CHUNK // max(len(b), 1))
    for lo in range(0, len(a), chunk):
        # inf - inf gives NaN, never a candidate; huge differences overflow to inf
        with np.errstate(invalid="ignore", over="ignore"):
            block = np.abs(a[lo : lo + chunk, None] - b[None, :])
        ii, jj = np.nonzero(block <= tolerance)
        pairs_i.append(ii + lo)
        pairs_j.append(jj)
        dists.append(block[ii, jj])
    cand_i = np.concatenate(pairs_i)
    cand_j = np.concatenate(pairs_j)
    cand_d = np.concatenate(dists)
    order = np.lexsort((cand_j, cand_i, cand_d))
    used_a = np.zeros(len(a), dtype=bool)
    used_b = np.zeros(len(b), dtype=bool)
    matches = []
    for idx in order:
        i = cand_i[idx]
        j = cand_j[idx]
        if not used_a[i] and not used_b[j]:
            used_a[i] = True
            used_b[j] = True
            matches.append((int(i), int(j)))
    return matches
