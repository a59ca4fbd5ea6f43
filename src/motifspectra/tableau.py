"""Spin configurations, their descent map onto motifs, and fiber dimensions.

A configuration s = (s_1, ..., s_N) takes values in {-n, ..., m-1}; negative
values are fermionic.  Its motif has d_i = 1 exactly when s_{i+1} < s_i or
s_i = s_{i+1} < 0.  The number of configurations mapping onto a motif is the
dimension of the degenerate multiplet attached to it, and summing those
dimensions over all valid motifs recovers (m+n)^N.  The table of fiber
dimensions is the level polynomial of `spectrum`'s sparse transfer-matrix
kernel over a binary band, whose energies are the motif words; no
configuration is listed.  It stays one read-only int64 array of (word,
dimension) rows, words ascending, and every reader takes its two columns
as they are: `module_dimension` and the CLI's table of every motif; level
sets run the kernel themselves.  The tests check it against a count of
configurations by descent.

A configuration also fills a border strip, which `tableau_lines` draws:
each descent starts a new column, read right to left, so the positions of
the motif's 1 bits cut (1, ..., N) into the column heights.
"""

from __future__ import annotations

import functools
from itertools import pairwise

import numpy as np

from . import spectrum
from .motif import InfeasibleSizeError, Motif, _check_context

__all__ = [
    "FIBER_CAP",
    "validate_spins",
    "motif_of_spins",
    "dual_spins",
    "module_dimension",
    "tableau_lines",
]

FIBER_CAP = spectrum._TABLE_CAP  # bound on (m+n)^N, the configurations the table sums
_CELL_WIDTH = 4  # characters per cell of tableau_lines


def validate_spins(spins, m: int, n: int) -> tuple[int, ...]:
    _check_context(m, n)
    s = tuple(spins)
    if not s:
        raise ValueError("need at least one spin")
    for x in s:
        if not -n <= x <= m - 1:
            raise ValueError(f"spin {x} outside {{-{n}, ..., {m - 1}}}")
    return s


def motif_of_spins(spins, m: int, n: int) -> Motif:
    """Motif of a spin configuration: descents, with ties breaking by sign."""
    s = validate_spins(spins, m, n)
    bits = [1 if (b < a or (a == b and a < 0)) else 0 for a, b in pairwise(s)]
    return Motif.from_bits(bits)


def dual_spins(spins) -> tuple[int, ...]:
    """s -> -s - 1; conjugates the context (m, n) -> (n, m) and the motif."""
    return tuple(-x - 1 for x in spins)


@functools.lru_cache(maxsize=16)
def _fiber_cache(N: int, m: int, n: int) -> np.ndarray:
    """The fiber table: a read-only (motifs, 2) int64 array of (word, dimension) rows, words ascending.

    It is the transpose of the sparse kernel's two arrays stacked, so `.T`
    unpacks it into a contiguous word column and dimension column.
    """
    spectrum._transfer_cuts(N, m, n)  # bad context or N fails before the cap
    total = (m + n) ** N
    if total > FIBER_CAP:
        raise InfeasibleSizeError(f"(m+n)^N = {total} exceeds cap {FIBER_CAP}")
    # eps(j) = 2^(N-1-j) is rapidity j's bit in the word: a motif's energy is its word
    # sparse kernel: valid motifs occupy a vanishing share of the 2^(N-1) packed slots
    columns = np.stack(spectrum._sparse_level_polynomial(N, m, n, [1 << (N - 1 - j) for j in range(1, N)]))
    columns.flags.writeable = False  # every caller shares the cached table
    return columns.T


def module_dimension(motif: Motif, m: int, n: int) -> int:
    """Multiplet dimension of a motif, bisected from the table's words; 0 when the motif is invalid for (m, n)."""
    words, dims = _fiber_cache(motif.sites, m, n).T
    i = np.searchsorted(words, motif.word)
    return int(dims[i]) if i < words.size and words[i] == motif.word else 0


def tableau_lines(spins, m: int, n: int) -> list[str]:
    """Debug rendering of the border-strip filling defined by a spin sequence."""
    s = validate_spins(spins, m, n)
    row = col = 0
    cells = {(0, 0): s[0]}
    for a, b in pairwise(s):
        if b > a or (a == b and a >= 0):
            row += 1
        else:
            col += 1
        cells[(row, col)] = b
    ncols = col + 1
    nrows = row + 1
    lines = []
    for r in range(nrows):
        slots = []
        for c in range(ncols - 1, -1, -1):
            slots.append(f"{cells[(r, c)]:>{_CELL_WIDTH}}" if (r, c) in cells else " " * _CELL_WIDTH)
        lines.append("".join(slots).rstrip())
    return lines
