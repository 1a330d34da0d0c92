"""Self-contained SVG line/scatter charts, byte-deterministic for identical
input.  No styling dependencies; axes, tick labels and a config-echo
comment are embedded in the file."""
from __future__ import annotations

WIDTH, HEIGHT = 640, 420
MARGIN = 56
COLOR = "#1f77b4"


def _f(x: float) -> str:
    return f"{x:.3f}".rstrip("0").rstrip(".")


def emit_svg(name: str, pts: list[tuple[float, float]],
             title: str = "", config_echo: str = "") -> str:
    """Render one named (x, y) series as a chart; rejects an empty series."""
    if not pts:
        raise ValueError(f"series {name!r} has no points")
    xs = [x for x, _ in pts]
    ys = [y for _, y in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x0, x1 = x0 - 1.0, x1 + 1.0
    if y1 == y0:
        y0, y1 = y0 - 1.0, y1 + 1.0

    def sx(x: float) -> float:
        return MARGIN + (x - x0) / (x1 - x0) * (WIDTH - 2 * MARGIN)

    def sy(y: float) -> float:
        return HEIGHT - MARGIN - (y - y0) / (y1 - y0) * (HEIGHT - 2 * MARGIN)

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
           f'viewBox="0 0 {WIDTH} {HEIGHT}">']
    if config_echo:
        out.append(f"<!-- config: {config_echo} -->")
    out.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    ax = (f'M {MARGIN} {MARGIN} L {MARGIN} {HEIGHT - MARGIN} '
          f'L {WIDTH - MARGIN} {HEIGHT - MARGIN}')
    out.append(f'<path d="{ax}" stroke="black" fill="none" stroke-width="1"/>')
    for t in range(5):
        fx = x0 + (x1 - x0) * t / 4
        fy = y0 + (y1 - y0) * t / 4
        px, py = sx(fx), sy(fy)
        out.append(f'<line x1="{_f(px)}" y1="{HEIGHT - MARGIN}" x2="{_f(px)}" '
                   f'y2="{HEIGHT - MARGIN + 5}" stroke="black"/>')
        out.append(f'<text x="{_f(px)}" y="{HEIGHT - MARGIN + 18}" font-size="11" '
                   f'text-anchor="middle">{_f(fx)}</text>')
        out.append(f'<line x1="{MARGIN - 5}" y1="{_f(py)}" x2="{MARGIN}" '
                   f'y2="{_f(py)}" stroke="black"/>')
        out.append(f'<text x="{MARGIN - 8}" y="{_f(py + 4)}" font-size="11" '
                   f'text-anchor="end">{_f(fy)}</text>')
    if title:
        out.append(f'<text x="{WIDTH // 2}" y="24" font-size="14" '
                   f'text-anchor="middle">{title}</text>')
    if len(pts) > 1:
        path = " ".join(f"{_f(sx(x))},{_f(sy(y))}" for x, y in pts)
        out.append(f'<polyline points="{path}" fill="none" stroke="{COLOR}" '
                   f'stroke-width="1.5"/>')
    for x, y in pts:
        out.append(f'<circle cx="{_f(sx(x))}" cy="{_f(sy(y))}" r="3" fill="{COLOR}"/>')
    out.append(f'<text x="{WIDTH - MARGIN + 4}" y="{MARGIN + 4}" '
               f'font-size="11" fill="{COLOR}">{name}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
