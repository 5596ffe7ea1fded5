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


def _el(tag: str, text: str | None = None, close: bool = True, **attrs) -> str:
    """One SVG element: a float attribute printed by :func:`_fnum`, an int
    or str as given, and ``_`` in a keyword written as ``-``. It wraps
    ``text``, or else closes itself, or is left open (the root)."""
    cells = " ".join(f'{k.replace("_", "-")}="{_fnum(v) if isinstance(v, float) else v}"' for k, v in attrs.items())
    if text is not None:
        return f"<{tag} {cells}>{text}</{tag}>"
    return f"<{tag} {cells}{'/' if close else ''}>"


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

    parts = [
        _el("svg", close=False, xmlns="http://www.w3.org/2000/svg", viewBox=f"0 0 {int(_W)} {int(_H)}",
            width=int(_W), height=int(_H), font_family="sans-serif", font_size=13)
    ]

    if combined is not None:
        cl = max(combined.lo, x_min)
        ch = min(combined.hi, x_max)
        if ch >= cl:
            # a point region still shades a hairline band
            width = max(px(ch) - px(cl), 1.0)
            parts.append(_el("rect", x=px(cl), y=_TOP, width=width, height=ph, fill="#7aa6c2", fill_opacity=0.25))

    # axes, then tick marks and labels at the grid endpoints and the x range's ends
    axis = {"stroke": "#333", "stroke_width": 1}
    x0, x1, y0, y1 = px(x_min), px(x_max), py(y_min), py(y_max)
    parts += [_el("line", x1=x0, y1=y0, x2=x1, y2=y0, **axis), _el("line", x1=x0, y1=y0, x2=x0, y2=y1, **axis)]
    for v in (rows[0].trace0, rows[-1].trace0):
        gy = py(v)
        parts.append(_el("line", x1=x0 - 5, y1=gy, x2=x0, y2=gy, **axis))
        parts.append(_el("text", _tick(v), x=x0 - 9, y=gy + 4, text_anchor="end"))
    for v in (x_min, x_max):
        tx = px(v)
        parts.append(_el("line", x1=tx, y1=y0, x2=tx, y2=y0 + 5, **axis))
        parts.append(_el("text", _tick(v), x=tx, y=y0 + 20, text_anchor="middle"))

    # pointwise band whiskers
    for r in rows:
        wy = py(r.trace0)
        parts.append(_el("line", x1=px(r.ci_lo), y1=wy, x2=px(r.ci_hi), y2=wy, stroke="#b0b0b0", stroke_width=1))

    # the curve itself: exactly one path element
    d = " ".join(
        f"{'M' if i == 0 else 'L'} {_fnum(px(r.trace_hat))} {_fnum(py(r.trace0))}"
        for i, r in enumerate(rows)
    )
    parts.append(_el("path", d=d, fill="none", stroke="#1f4e79", stroke_width=2))

    # trimming-bound markers
    parts += [_el("circle", cx=px(mx), cy=py(my), r=4, fill="#2e7d32") for mx, my in markers]

    # axis titles, the vertical one turned about its anchor
    mid = _TOP + ph / 2
    parts.append(_el("text", "implied effect among reactive units", x=_LEFT + pw / 2, y=_H - 16, text_anchor="middle"))
    turn = f"rotate(-90 18 {_fnum(mid)})"
    parts.append(_el("text", "assumed effect among non-reactive units", x=18, y=mid, text_anchor="middle", transform=turn))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
