"""Hand-emitted SVG chart for sensitivity curves.

No plotting dependency: the byte stream must be a pure function of the
inputs so repeated runs compare equal. One path element draws the
curve; one rect appears per shaded region (none when the combined
region is absent or infeasible).
"""

from __future__ import annotations

import math

from .bounds import Interval
from .sensitivity import SensitivityCurve, trace0_from_trace

_W = 800.0
_H = 600.0
_LEFT = 80.0
_RIGHT = 24.0
_TOP = 24.0
_BOTTOM = 64.0


def _fnum(v: float) -> str:
    return f"{v:.2f}"


def _tick(v: float) -> str:
    """Axis label text: digits, a sign, a point or an exponent, so it
    needs no XML escaping."""
    return f"{v:.4g}"


def render_chart(curve: SensitivityCurve, combined: Interval | None = None) -> str:
    """Render a curve (and optional combined region) to SVG text.

    Horizontal axis: implied reactive-group effect. Vertical axis: the
    assumed non-reactive effect. Whisker lines show the pointwise band,
    circles mark where the trimming bounds sit on the line, and the
    shaded rect spans the combined region when one exists.
    """
    rows = curve.rows
    trim = curve.trim_bounds

    xs = [r.trace_hat for r in rows] + [r.ci_lo for r in rows] + [r.ci_hi for r in rows]
    xs += [trim.lo, trim.hi]
    if combined is not None:
        xs += [v for v in (combined.lo, combined.hi) if math.isfinite(v)]
    ys = [r.trace0 for r in rows]

    # where the trimming bounds land on the line, for the markers
    markers: list[tuple[float, float]] = []
    if curve.p_hat < 1.0:
        for bx in (trim.lo, trim.hi):
            markers.append((bx, trace0_from_trace(curve.te_hat, curve.p_hat, bx)))
        ys += [my for _, my in markers]

    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    x_pad = (x_max - x_min) * 0.05 or 1.0
    y_pad = (y_max - y_min) * 0.05 or 1.0
    x_min -= x_pad
    x_max += x_pad
    y_min -= y_pad
    y_max += y_pad

    pw = _W - _LEFT - _RIGHT
    ph = _H - _TOP - _BOTTOM

    def px(v: float) -> float:
        return _LEFT + (v - x_min) / (x_max - x_min) * pw

    def py(v: float) -> float:
        return _TOP + (y_max - v) / (y_max - y_min) * ph

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {int(_W)} {int(_H)}" '
        f'width="{int(_W)}" height="{int(_H)}" font-family="sans-serif" font-size="13">'
    )

    if combined is not None:
        cl = max(combined.lo, x_min)
        ch = min(combined.hi, x_max)
        if ch >= cl:
            # a point region still shades a hairline band
            width = max(px(ch) - px(cl), 1.0)
            parts.append(
                f'<rect x="{_fnum(px(cl))}" y="{_fnum(_TOP)}" '
                f'width="{_fnum(width)}" height="{_fnum(ph)}" '
                f'fill="#7aa6c2" fill-opacity="0.25"/>'
            )

    # axes
    x0 = px(x_min)
    x1 = px(x_max)
    y0 = py(y_min)
    y1 = py(y_max)
    parts.append(f'<line x1="{_fnum(x0)}" y1="{_fnum(y0)}" x2="{_fnum(x1)}" y2="{_fnum(y0)}" stroke="#333" stroke-width="1"/>')
    parts.append(f'<line x1="{_fnum(x0)}" y1="{_fnum(y0)}" x2="{_fnum(x0)}" y2="{_fnum(y1)}" stroke="#333" stroke-width="1"/>')

    # tick marks and labels at the grid endpoints
    for gv in (rows[0].trace0, rows[-1].trace0):
        gy = py(gv)
        parts.append(f'<line x1="{_fnum(x0 - 5)}" y1="{_fnum(gy)}" x2="{_fnum(x0)}" y2="{_fnum(gy)}" stroke="#333" stroke-width="1"/>')
        parts.append(
            f'<text x="{_fnum(x0 - 9)}" y="{_fnum(gy + 4)}" text-anchor="end">{_tick(gv)}</text>'
        )
    for tv in (x_min, x_max):
        tx = px(tv)
        parts.append(f'<line x1="{_fnum(tx)}" y1="{_fnum(y0)}" x2="{_fnum(tx)}" y2="{_fnum(y0 + 5)}" stroke="#333" stroke-width="1"/>')
        parts.append(
            f'<text x="{_fnum(tx)}" y="{_fnum(y0 + 20)}" text-anchor="middle">{_tick(tv)}</text>'
        )

    # pointwise band whiskers
    for r in rows:
        wy = py(r.trace0)
        parts.append(
            f'<line x1="{_fnum(px(r.ci_lo))}" y1="{_fnum(wy)}" x2="{_fnum(px(r.ci_hi))}" y2="{_fnum(wy)}" '
            f'stroke="#b0b0b0" stroke-width="1"/>'
        )

    # the curve itself: exactly one path element
    d = " ".join(
        f"{'M' if i == 0 else 'L'} {_fnum(px(r.trace_hat))} {_fnum(py(r.trace0))}"
        for i, r in enumerate(rows)
    )
    parts.append(f'<path d="{d}" fill="none" stroke="#1f4e79" stroke-width="2"/>')

    # trimming-bound markers
    for mx, my in markers:
        parts.append(
            f'<circle cx="{_fnum(px(mx))}" cy="{_fnum(py(my))}" r="4" fill="#2e7d32"/>'
        )

    # axis titles
    parts.append(
        f'<text x="{_fnum(_LEFT + pw / 2)}" y="{_fnum(_H - 16)}" text-anchor="middle">'
        "implied effect among reactive units</text>"
    )
    parts.append(
        f'<text x="18" y="{_fnum(_TOP + ph / 2)}" text-anchor="middle" '
        f'transform="rotate(-90 18 {_fnum(_TOP + ph / 2)})">assumed effect among non-reactive units</text>'
    )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
