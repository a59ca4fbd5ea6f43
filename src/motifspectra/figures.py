"""Figure data series and a small deterministic SVG line-plot renderer.

Each figure builder returns plain (x, y) series so the CLI can emit both a
CSV table and a self-contained SVG.  Every series is one `_series` call: a
quantity y(N) sampled as a float over a range of chain sizes N.  The
renderer depends on nothing outside the standard library and formats every
coordinate explicitly, so repeated runs produce byte-identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import fibnum, oracle, spectrum

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


def _linear_ticks(lo: float, hi: float) -> list[float]:
    """About eight round tick values covering [lo, hi]."""
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / 8
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


def render_svg(series: list[Series], title: str, xlabel: str, ylabel: str) -> str:
    """Render the series as a self-contained 800 x 600 SVG document, y on a log scale."""
    width, height = 800, 600
    left, right, top, bottom = 75, 170, 45, 55
    px0, px1 = left, width - right
    py0, py1 = height - bottom, top

    pts = [(x, y) for s in series for x, y in zip(s.xs, s.ys)]
    if not pts:
        raise ValueError("nothing to plot")
    empty = [s.label for s in series if not s.xs]
    if empty:
        raise ValueError(f"no points in series {', '.join(map(repr, empty))}")
    if any(y <= 0 for _, y in pts):
        raise ValueError("log scale needs strictly positive values")

    xlo = min(x for x, _ in pts)
    xhi = max(x for x, _ in pts)
    if xhi == xlo:
        xlo, xhi = xlo - 1, xhi + 1
    yvals = [math.log10(y) for _, y in pts]
    ylo, yhi = min(yvals), max(yvals)
    if yhi == ylo:
        ylo, yhi = ylo - 1, yhi + 1
    pad = 0.04 * (yhi - ylo)
    ylo, yhi = ylo - pad, yhi + pad

    def sx(x: float) -> float:
        return px0 + (x - xlo) / (xhi - xlo) * (px1 - px0)

    def sy(y: float) -> float:
        return py0 + (math.log10(y) - ylo) / (yhi - ylo) * (py1 - py0)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
        f'font-family="sans-serif">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{(px0 + px1) // 2}" y="25" text-anchor="middle" font-size="16">'
        f"{title}</text>",
    ]

    for e in range(math.ceil(ylo), math.floor(yhi) + 1):
        val = 10.0**e
        label = f"{val:.6g}"
        y = sy(val)
        out.append(
            f'<line x1="{px0}" y1="{_fmt(y)}" x2="{px1}" y2="{_fmt(y)}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{px0 - 8}" y="{_fmt(y + 4)}" text-anchor="end" font-size="12">'
            f"{label}</text>"
        )
    for t in _linear_ticks(xlo, xhi):
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


def _series(label: str, sizes: range, y, marker: str = "none", dashed: bool = False) -> Series:
    """The series of y(N), as a float, over the chain sizes N."""
    xs = tuple(float(N) for N in sizes)
    return Series(label, xs, tuple(float(y(N)) for N in sizes), marker, dashed)


def elliptic_average_vs_minimum(max_sites: int = 10, ksq: float = 0.5) -> list[Series]:
    """Numerical average degeneracy of elliptic chains against the motif floor.

    The su(3|0) and su(2|1) families stay at 6 and 7 sites; the su(2|0)
    family runs over even sizes up to max_sites.
    """

    def family(m: int, n: int, sizes: range, marker: str) -> list[Series]:
        def average(N: int):
            return oracle.numeric_average_degeneracy(oracle.ChainSpec("elliptic", N, m, n, ksq=ksq))

        label = f"su({m}|{n})"
        return [
            _series(label + " average", sizes, average, marker),
            _series(label + " minimum", sizes, lambda N: fibnum.min_avg_degeneracy(N, m, n), marker, dashed=True),
        ]

    return (
        family(2, 0, range(6, max_sites + 1, 2), "circle")
        + family(3, 0, range(6, 8), "square")
        + family(2, 1, range(6, 8), "triangle")
    )


def _hs_level_count(N: int) -> int:
    return spectrum.level_count(N, 0, 2, spectrum.HSDispersion(N))


def degeneracy_growth(max_sites: int = 30) -> list[Series]:
    """Average degeneracies of the su(2) chains against both lower bounds.

    All series are exact: level counts come from the packed transfer kernel
    `spectrum.level_count` (the generic-alpha series through its symbolic
    band) or from the closed rational level count, `spectrum.level_bounds`.
    """
    sizes = range(4, max_sites + 1)
    return [
        _series("trigonometric average", sizes, lambda N: 2**N / _hs_level_count(N), "circle"),
        _series(
            "rational average",
            sizes,
            lambda N: 2**N / spectrum.level_bounds(spectrum.PFDispersion(N), 2, 0),
            "square",
        ),
        _series(
            "hyperbolic average (a = 3)",
            sizes,
            lambda N: 2**N / spectrum.level_count(N, 0, 2, spectrum.FIDispersion(N, 3)),
            "triangle",
        ),
        # the kernel reaches past 26 sites; the cap keeps fig3's data unchanged
        _series(
            "hyperbolic average (generic a)",
            range(4, min(max_sites, 26) + 1),
            lambda N: 2**N / spectrum.level_count(N, 2, 0, spectrum.SymbolicAlphaDispersion(N)),
        ),
        _series(
            "translational minimum",
            sizes,
            lambda N: fibnum.min_avg_degeneracy_translational(N, 2, 0),
            dashed=True,
        ),
        _series("generic minimum", sizes, lambda N: fibnum.min_avg_degeneracy(N, 2, 0), dashed=True),
    ]


def supersymmetric_elliptic(max_sites: int = 14, ksq: float = 0.5) -> list[Series]:
    """su(1|1) elliptic average degeneracy against the translational floor.

    The level count comes from the chain's closed single-particle
    dispersion, `oracle.formula_dispersion`, evaluated over all motifs.
    """

    def average(N: int) -> float:
        disp = oracle.formula_dispersion(oracle.ChainSpec("elliptic", N, 1, 1, ksq=ksq))
        return 2**N / spectrum.level_count_by_enumeration(N, 1, 1, disp)

    sizes = range(4, max_sites + 1)
    return [
        _series("elliptic average", sizes, average, "circle"),
        _series(
            "translational minimum",
            sizes,
            lambda N: fibnum.min_avg_degeneracy_translational(N, 1, 1),
            dashed=True,
        ),
        _series("generic minimum", sizes, lambda N: 2.0, dashed=True),
    ]


def level_count_bounds(max_sites: int = 30) -> list[Series]:
    """Exact trigonometric su(2) level counts against the cubic bounds."""
    even, odd = range(4, max_sites + 1, 2), range(5, max_sites + 1, 2)

    def bound(N: int) -> int:
        return spectrum.level_bounds(spectrum.HSDispersion(N), 2, 0)

    return [
        _series("count, even sizes", even, _hs_level_count, "circle"),
        _series("count, odd sizes", odd, _hs_level_count, "square"),
        _series("bound, even sizes", even, bound, dashed=True),
        _series("bound, odd sizes", odd, bound, dashed=True),
    ]


FIGURES = {
    "fig2": (
        elliptic_average_vs_minimum,
        "Elliptic chains: average degeneracy vs motif minimum",
        "sites",
        "degeneracy",
    ),
    "fig3": (
        degeneracy_growth,
        "su(2) chains: average degeneracy growth and bounds",
        "sites",
        "degeneracy",
    ),
    "fig4": (
        supersymmetric_elliptic,
        "su(1|1) elliptic chain: average degeneracy",
        "sites",
        "degeneracy",
    ),
    "fig5": (
        level_count_bounds,
        "Trigonometric su(2) level counts and cubic bounds",
        "sites",
        "level count",
    ),
}
