"""The bytes of the chart, from hand-built curves.

No bootstrap runs here, so a numpy whose draws differ cannot move these
digests; each is of the SVG that ``render_chart`` wrote for the same
curve before its marks shared one element writer.
"""

import hashlib
import math

import pytest

from tracebounds.bounds import BoundKind, Interval
from tracebounds.chart import render_chart
from tracebounds.sensitivity import CurveRow, SensitivityCurve, trace_from_trace0


def _curve(grid, te_hat, p_hat, trim) -> SensitivityCurve:
    rows = []
    for i, t0 in enumerate(grid):
        point = trace_from_trace0(te_hat, p_hat, t0)
        rows.append(CurveRow(t0, point, point - 0.3 - 0.05 * i, point + 0.25 + 0.1 * i, trim.contains(point)))
    return SensitivityCurve(tuple(rows), te_hat, p_hat, trim)


_TRIM = Interval(-0.45, 1.2, BoundKind.NO_ASSUMPTION)
_GRID = [-1.0, -0.5, 0.0, 0.5, 1.0]


@pytest.mark.parametrize(
    "curve, combined, digest",
    [
        (
            _curve(_GRID, 0.35, 0.4, _TRIM),
            Interval(0.1, 0.6, BoundKind.COMBINED),
            "09493e89afa949be2754288b894a6e764bdc2e96918193e9ed770445378bde67",
        ),
        (_curve([0.25], 0.35, 1.0, _TRIM), None, "2e048af83b221f742811f27112fb5090728238ec8463a060a577b682cda482b2"),
        (
            _curve(_GRID, -2.5, 0.7, _TRIM),
            Interval(0.3, 0.3, BoundKind.COMBINED),
            "cd846b08fafec66c3aeec1c5c0fdfd71ae69d62315ac689b59844c4066c619cd",
        ),
        (
            _curve(_GRID, 0.35, 0.4, _TRIM),
            Interval(-math.inf, 0.2, BoundKind.COMBINED),
            "677344e8e20a57a37d6b6d6e92efd6ce702b25fd35ce81c0a57ce8da6001e9d9",
        ),
        (
            _curve(_GRID, 0.35, 0.4, _TRIM),
            Interval(-math.inf, math.inf, BoundKind.COMBINED),
            "ca296d35181324a0d426a818b49f289d0b7570f314ab809c6e9e46401863e9e3",
        ),
    ],
    ids=["a region, both markers, negative ticks", "one row, no region, no marker", "a point region", "a half-line region", "the whole line"],
)
def test_the_chart_bytes_are_unchanged(curve, combined, digest):
    svg = render_chart(curve, combined)
    assert hashlib.sha256(svg.encode()).hexdigest() == digest
