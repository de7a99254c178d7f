"""The metrics row format and the SVG coordinates against their scalar forms.

``metrics.csv`` rows are written with one ``%`` format per row, and the
plot coordinates are computed as arrays. Each must give the bytes of the
per-field writer it replaced: a ``csv.writer`` fed ``str`` and
``.17g`` fields, and the per-point ``px``/``py`` formulas formatted one
point at a time. Those old forms are kept here as the reference.
"""

import csv
import io
import re

from hypothesis import example, given, settings, strategies as st

from agfed.harness import _csv_fields, _csv_header, _csv_row_format
from agfed.server import RoundReport
from agfed.svgplot import (
    _HEIGHT,
    _MARGIN_B,
    _MARGIN_L,
    _MARGIN_R,
    _MARGIN_T,
    _WIDTH,
    _axis_range,
    write_line_plot,
)

EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
               1.7976931348623157e308, float("inf"), float("-inf"), float("nan"))
FLOATS = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS))


def _reference_row(r: RoundReport) -> list[str]:
    return (
        [str(r.round)]
        + [f"{v:.17g}" for v in r.per_domain_loss]
        + [f"{v:.17g}" for v in r.lam]
        + [f"{r.worst_domain_loss:.17g}"]
        + [f"{v:.17g}" for v in r.model_summary]
        + [str(r.comm_params_cumulative), str(int(r.degenerate))]
    )


def _reference_csv(p: int, names: list[str], reports: list[RoundReport]) -> str:
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    writer.writerow(_csv_header(p, names))
    for r in reports:
        writer.writerow(_reference_row(r))
    return fh.getvalue()


@st.composite
def _reports(draw):
    p = draw(st.integers(1, 6))
    width = draw(st.integers(1, 6))
    n = draw(st.integers(1, 4))
    reports = [
        RoundReport(
            round=draw(st.integers(0, 2**31)),
            per_domain_loss=tuple(draw(st.lists(FLOATS, min_size=p, max_size=p))),
            lam=tuple(draw(st.lists(FLOATS, min_size=p, max_size=p))),
            worst_domain_loss=draw(FLOATS),
            model_summary=tuple(draw(st.lists(FLOATS, min_size=width, max_size=width))),
            comm_params_cumulative=draw(st.integers(0, 2**62)),
            degenerate=draw(st.booleans()),
        )
        for _ in range(n)
    ]
    return p, width, reports


@settings(max_examples=300, deadline=None)
@given(_reports())
def test_row_format_writes_the_csv_writer_bytes(case):
    p, width, reports = case
    names = [f"s_{i}" for i in range(width)]
    row = _csv_row_format(p, width)
    ours = ",".join(_csv_header(p, names)) + "\r\n" + "".join(row % _csv_fields(r)
                                                               for r in reports)
    assert ours == _reference_csv(p, names, reports)


def _reference_marks(x, series):
    """Axis tick labels and each series' (points, data-values), point by point."""
    x_lo, x_hi = _axis_range([float(v) for v in x])
    y_lo, y_hi = _axis_range([float(v) for _, values in series for v in values])
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(v: float) -> float:
        return _MARGIN_L + (v - x_lo) / (x_hi - x_lo) * plot_w

    def py(v: float) -> float:
        return _MARGIN_T + (y_hi - v) / (y_hi - y_lo) * plot_h

    ticks = [f"{v:.6g}" for v in (x_lo, x_hi, y_lo, y_hi)]
    return ticks, [(" ".join(f"{px(float(a)):.2f},{py(float(v)):.2f}"
                             for a, v in zip(x, values)),
                    " ".join(f"{float(v):.17g}" for v in values))
                   for _, values in series]


def _plotted_marks(path):
    text = path.read_text()
    return (re.findall(r'font-size="11">([^<]*)</text>', text)[:4],
            re.findall(r'points="([^"]*)" data-series="[^"]*" data-values="([^"]*)"', text))


@st.composite
def _plots(draw):
    n = draw(st.integers(1, 30))
    x = draw(st.one_of(st.just(list(range(1, n + 1))),
                       st.lists(FLOATS, min_size=n, max_size=n)))
    series = [(f"s{i}", draw(st.one_of(st.lists(FLOATS, min_size=n, max_size=n),
                                        FLOATS.map(lambda v, n=n: [v] * n))))
              for i in range(draw(st.integers(1, 4)))]
    return x, series


@settings(max_examples=200, deadline=None)
@given(_plots())
@example(([1], [("one", [0.25])]))
@example(([1, 2, 3], [("flat", [2.0, 2.0, 2.0]), ("zero", [-0.0, -0.0, -0.0])]))
def test_array_coordinates_format_as_the_scalar_formulas(tmp_path_factory, case):
    x, series = case
    path = tmp_path_factory.mktemp("plot") / "plot.svg"
    write_line_plot(path, x, series, title="t")
    assert _plotted_marks(path) == _reference_marks(x, series)
