"""A fixed pure-Python kernel that measures how fast the host runs now.

opchild.py runs it in every op process, after the interpreter has started
and before singval is imported.  The kernel does the kind of work singval
does, exact row reduction over big integers and a walk over a dict keyed by
lattice points, with builtins only: it imports nothing, so it leaves the
set-up time of the import that follows as it was, and its time moves with
the host and never with the program.
"""

REPS = 3


def kernel() -> int:
    """Fraction-free (Bareiss) elimination of a fixed 24 x 30 integer
    matrix, then a dict walk over a 40 x 40 x 8 box."""
    n, m = 24, 30
    rows = [[(i * 7 + j * 13) % 11 - 5 + (i == j) for j in range(m)] for i in range(n)]
    prev, rank = 1, 0
    for col in range(m):
        piv = next((r for r in range(rank, n) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank][col]
        for r in range(rank + 1, n):
            f = rows[r][col]
            rows[r] = [(p * a - f * b) // prev for a, b in zip(rows[r], rows[rank])]
        prev, rank = p, rank + 1
    walk: dict[tuple[int, int, int], int] = {}
    for i in range(40):
        for j in range(40):
            for k in range(8):
                walk[(i, j, k)] = walk.get((i - 1, j, k), 0) + walk.get((i, j - 1, k), 1) % 1009
    return rank + len(walk)


def measure(clock) -> float:
    """Median time of REPS runs of the kernel, read from `clock`."""
    times = []
    for _ in range(REPS):
        t0 = clock()
        kernel()
        times.append(clock() - t0)
    return sorted(times)[REPS // 2]
