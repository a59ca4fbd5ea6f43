"""Figure data series and a small deterministic SVG line-plot renderer.

Each figure builder returns plain (x, y) series so the CLI can emit both a
CSV table and a self-contained SVG.  The renderer depends on nothing outside
the standard library and formats every coordinate explicitly, so repeated
runs produce byte-identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import fibnum, oracle, partition, spectrum

__all__ = [
    "Series",
    "render_svg",
    "elliptic_average_vs_minimum",
    "degeneracy_growth",
    "supersymmetric_elliptic",
    "level_count_bounds",
    "FIGURES",
]

_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)


@dataclass(frozen=True)
class Series:
    """One labeled polyline: parallel x and y tuples plus marker style."""

    label: str
    xs: tuple[float, ...] = field(default_factory=tuple)
    ys: tuple[float, ...] = field(default_factory=tuple)
    marker: str = "circle"
    dashed: bool = False

    def __post_init__(self) -> None:
        if len(self.xs) != len(self.ys):
            raise ValueError(f"series {self.label!r}: {len(self.xs)} xs vs {len(self.ys)} ys")
        if self.marker not in ("circle", "square", "triangle", "none"):
            raise ValueError(f"unknown marker {self.marker!r}")


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _linear_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if mag * mult >= raw:
            step = mag * mult
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _marker_svg(marker: str, x: float, y: float, color: str) -> str:
    if marker == "circle":
        return f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3.5" fill="{color}"/>'
    if marker == "square":
        return (
            f'<rect x="{_fmt(x - 3)}" y="{_fmt(y - 3)}" width="6" height="6" '
            f'fill="{color}"/>'
        )
    if marker == "triangle":
        pts = f"{_fmt(x)},{_fmt(y - 4)} {_fmt(x - 3.5)},{_fmt(y + 3)} {_fmt(x + 3.5)},{_fmt(y + 3)}"
        return f'<polygon points="{pts}" fill="{color}"/>'
    return ""


def render_svg(
    series: list[Series],
    title: str,
    xlabel: str,
    ylabel: str,
    logy: bool = False,
) -> str:
    """Render the series as a self-contained 800 x 600 SVG document."""
    width, height = 800, 600
    left, right, top, bottom = 75, 170, 45, 55
    px0, px1 = left, width - right
    py0, py1 = height - bottom, top

    pts = [(x, y) for s in series for x, y in zip(s.xs, s.ys)]
    if not pts:
        raise ValueError("nothing to plot")
    if logy and any(y <= 0 for _, y in pts):
        raise ValueError("log scale needs strictly positive values")

    xlo = min(x for x, _ in pts)
    xhi = max(x for x, _ in pts)
    if xhi == xlo:
        xlo, xhi = xlo - 1, xhi + 1
    yvals = [math.log10(y) for _, y in pts] if logy else [y for _, y in pts]
    ylo, yhi = min(yvals), max(yvals)
    if yhi == ylo:
        ylo, yhi = ylo - 1, yhi + 1
    pad = 0.04 * (yhi - ylo)
    ylo, yhi = ylo - pad, yhi + pad

    def sx(x: float) -> float:
        return px0 + (x - xlo) / (xhi - xlo) * (px1 - px0)

    def sy(y: float) -> float:
        v = math.log10(y) if logy else y
        return py0 + (v - ylo) / (yhi - ylo) * (py1 - py0)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
        f'font-family="sans-serif">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{(px0 + px1) // 2}" y="25" text-anchor="middle" font-size="16">'
        f"{title}</text>",
    ]

    if logy:
        ticks = list(range(math.ceil(ylo), math.floor(yhi) + 1))
        tick_pairs = [(10.0**e, f"{10.0 ** e:.6g}") for e in ticks]
    else:
        tick_pairs = [(t, f"{t:.6g}") for t in _linear_ticks(ylo, yhi)]
    for val, label in tick_pairs:
        y = sy(val)
        out.append(
            f'<line x1="{px0}" y1="{_fmt(y)}" x2="{px1}" y2="{_fmt(y)}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{px0 - 8}" y="{_fmt(y + 4)}" text-anchor="end" font-size="12">'
            f"{label}</text>"
        )
    for t in _linear_ticks(xlo, xhi, 8):
        x = sx(t)
        out.append(
            f'<line x1="{_fmt(x)}" y1="{py0}" x2="{_fmt(x)}" y2="{py0 + 5}" '
            f'stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(x)}" y="{py0 + 20}" text-anchor="middle" font-size="12">'
            f"{t:.6g}</text>"
        )

    out.append(
        f'<line x1="{px0}" y1="{py0}" x2="{px1}" y2="{py0}" stroke="black" stroke-width="1.5"/>'
    )
    out.append(
        f'<line x1="{px0}" y1="{py0}" x2="{px0}" y2="{py1}" stroke="black" stroke-width="1.5"/>'
    )
    out.append(
        f'<text x="{(px0 + px1) // 2}" y="{height - 15}" text-anchor="middle" '
        f'font-size="14">{xlabel}</text>'
    )
    out.append(
        f'<text x="20" y="{(py0 + py1) // 2}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 20 {(py0 + py1) // 2})">{ylabel}</text>'
    )

    for k, s in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        dash = ' stroke-dasharray="6 4"' if s.dashed else ""
        if len(s.xs) > 1:
            path = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in zip(s.xs, s.ys))
            out.append(
                f'<polyline points="{path}" fill="none" stroke="{color}" '
                f'stroke-width="1.8"{dash}/>'
            )
        for x, y in zip(s.xs, s.ys):
            out.append(_marker_svg(s.marker, sx(x), sy(y), color))
        ly = py1 + 18 * k
        out.append(
            f'<line x1="{px1 + 12}" y1="{ly}" x2="{px1 + 40}" y2="{ly}" '
            f'stroke="{color}" stroke-width="1.8"{dash}/>'
        )
        out.append(_marker_svg(s.marker, px1 + 26, ly, color))
        out.append(
            f'<text x="{px1 + 46}" y="{ly + 4}" font-size="12">{s.label}</text>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"


def elliptic_average_vs_minimum(max_sites: int = 10, ksq: float = 0.5) -> list[Series]:
    """Numerical average degeneracy of elliptic chains against the motif floor.

    The su(3|0) and su(2|1) families stay at 6 and 7 sites; the su(2|0)
    family runs over even sizes up to max_sites.
    """
    out: list[Series] = []
    families = [
        (2, 0, list(range(6, max_sites + 1, 2))),
        (3, 0, [6, 7]),
        (2, 1, [6, 7]),
    ]
    markers = ("circle", "square", "triangle")
    for (m, n, sizes), marker in zip(families, markers):
        avg = []
        floor = []
        for N in sizes:
            chain = oracle.ChainSpec("elliptic", N, m, n, ksq=ksq)
            avg.append(float(oracle.numeric_average_degeneracy(chain)))
            floor.append(float(fibnum.min_avg_degeneracy(N, m, n)))
        xs = tuple(float(N) for N in sizes)
        out.append(Series(f"su({m}|{n}) average", xs, tuple(avg), marker))
        out.append(Series(f"su({m}|{n}) minimum", xs, tuple(floor), marker, dashed=True))
    return out


def degeneracy_growth(max_sites: int = 30) -> list[Series]:
    """Average degeneracies of the su(2) chains against both lower bounds.

    All series are exact: level counts come from the q-polynomial
    partition functions, the closed rational level-count formula, or direct motif
    enumeration for the size-independent dispersion.
    """
    sizes = list(range(4, max_sites + 1))
    hs_avg = []
    pf_avg = []
    fi_avg = []
    trans_floor = []
    generic_floor = []
    for N in sizes:
        states = 2**N
        hs_avg.append(states / partition.hs_partition(N).term_count())
        pf_avg.append(states / ((N * N - N % 2) // 4 + 1))
        fi_avg.append(states / partition.fi_partition(N, 3).term_count())
        trans_floor.append(float(fibnum.min_avg_degeneracy_translational(N, 2, 0)))
        generic_floor.append(float(fibnum.min_avg_degeneracy(N, 2, 0)))
    sym_sizes = [N for N in sizes if N <= 26]
    sym_avg = []
    for N in sym_sizes:
        count = spectrum.level_count_by_enumeration(N, 2, 0, spectrum.SymbolicAlphaDispersion(N))
        sym_avg.append(2**N / count)
    xs = tuple(float(N) for N in sizes)
    return [
        Series("trigonometric average", xs, tuple(hs_avg), "circle"),
        Series("rational average", xs, tuple(pf_avg), "square"),
        Series("hyperbolic average (a = 3)", xs, tuple(fi_avg), "triangle"),
        Series(
            "hyperbolic average (generic a)",
            tuple(float(N) for N in sym_sizes),
            tuple(sym_avg),
            "none",
        ),
        Series("translational minimum", xs, tuple(trans_floor), "none", dashed=True),
        Series("generic minimum", xs, tuple(generic_floor), "none", dashed=True),
    ]


def supersymmetric_elliptic(max_sites: int = 14, ksq: float = 0.5) -> list[Series]:
    """su(1|1) elliptic average degeneracy against the translational floor.

    The level count comes from the closed single-particle dispersion built
    out of the coupling table, evaluated over all motifs.
    """
    sizes = list(range(4, max_sites + 1))
    avg = []
    trans_floor = []
    for N in sizes:
        chain = oracle.ChainSpec("elliptic", N, 1, 1, ksq=ksq)
        disp = spectrum.dispersion_from_coupling(oracle.coupling_table(chain))
        count = spectrum.level_count_by_enumeration(N, 1, 1, disp)
        avg.append(2**N / count)
        trans_floor.append(float(fibnum.min_avg_degeneracy_translational(N, 1, 1)))
    xs = tuple(float(N) for N in sizes)
    return [
        Series("elliptic average", xs, tuple(avg), "circle"),
        Series("translational minimum", xs, tuple(trans_floor), "none", dashed=True),
        Series("generic minimum", xs, tuple(2.0 for _ in sizes), "none", dashed=True),
    ]


def level_count_bounds(max_sites: int = 30) -> list[Series]:
    """Exact trigonometric su(2) level counts against the cubic bounds."""
    even = [N for N in range(4, max_sites + 1) if N % 2 == 0]
    odd = [N for N in range(5, max_sites + 1) if N % 2 == 1]
    counts_even = [float(partition.hs_partition(N).term_count()) for N in even]
    counts_odd = [float(partition.hs_partition(N).term_count()) for N in odd]
    bound_even = [N * (N * N + 2) / 12 + 1 for N in even]
    bound_odd = [N * (N * N - 1) / 24 + 1 for N in odd]
    return [
        Series("count, even sizes", tuple(map(float, even)), tuple(counts_even), "circle"),
        Series("count, odd sizes", tuple(map(float, odd)), tuple(counts_odd), "square"),
        Series("bound, even sizes", tuple(map(float, even)), tuple(bound_even), "none", dashed=True),
        Series("bound, odd sizes", tuple(map(float, odd)), tuple(bound_odd), "none", dashed=True),
    ]


FIGURES = {
    "fig2": (
        elliptic_average_vs_minimum,
        "Elliptic chains: average degeneracy vs motif minimum",
        "sites",
        "degeneracy",
        True,
    ),
    "fig3": (
        degeneracy_growth,
        "su(2) chains: average degeneracy growth and bounds",
        "sites",
        "degeneracy",
        True,
    ),
    "fig4": (
        supersymmetric_elliptic,
        "su(1|1) elliptic chain: average degeneracy",
        "sites",
        "degeneracy",
        True,
    ),
    "fig5": (
        level_count_bounds,
        "Trigonometric su(2) level counts and cubic bounds",
        "sites",
        "level count",
        True,
    ),
}
