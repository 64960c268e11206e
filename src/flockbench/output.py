"""
Result persistence: CSV files and static SVG trend charts.

Every result file is a table of the four per-step metrics; their columns
and chart titles come from the fields of `metrics.MetricsRecord`, in order.

Floats are rendered with 17 significant digits so reruns can be compared
byte-for-byte; a missing diameter (all agents isolated) is an empty CSV
field, never a sentinel number.  The SVG charts are generated directly as
strings, so identical inputs produce identical bytes.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import math
import operator
import os

from .metrics import MetricsRecord

__all__ = [
    "STEP_FIELDS",
    "COMPARISON_SUMMARY_FIELDS",
    "NOISE_SUMMARY_FIELDS",
    "METRIC_COLUMNS",
    "format_value",
    "write_steps_csv",
    "write_final_state_csv",
    "write_summary_csv",
    "read_summary_csv",
    "render_line_chart",
    "emit_plots",
]

_METRICS = dataclasses.fields(MetricsRecord)
_metric_values = operator.attrgetter(*(f.name for f in _METRICS))

STEP_FIELDS = ("model", "run_id", "step", *(f.name for f in _METRICS))

# metric column -> chart title
METRIC_COLUMNS = {f"mean_{f.name}": f.metadata["title"] for f in _METRICS}

# the keys harness._metric_means fills, in order: each metric's mean, and
# after the diameter's the count of all-isolated configurations left out
_SUMMARY_COLUMNS = tuple(
    column
    for mean in METRIC_COLUMNS
    for column in (mean, "max_diameter_none_count")
    if column == mean or mean == "mean_max_diameter"
)

COMPARISON_SUMMARY_FIELDS = ("model", "step", *_SUMMARY_COLUMNS)

NOISE_SUMMARY_FIELDS = ("model", "level", "sigma_x", "sigma_v", *_SUMMARY_COLUMNS)


def format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        raise TypeError("no boolean fields in result CSVs")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_rows(path, header, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_value(value) for value in row])


def write_steps_csv(path, records_by_model) -> None:
    """Per-step metrics, one row per (model, run, step)."""
    rows = (
        (tag, rec.run_id, step, *_metric_values(metric))
        for tag, records in records_by_model.items()
        for rec in records
        for step, metric in enumerate(rec.metrics)
    )
    _write_rows(path, STEP_FIELDS, rows)


def write_final_state_csv(path, config) -> None:
    """One row per agent: its index, then its position and velocity
    components."""
    m = config.dimension
    header = ["agent"] + [f"x{k}" for k in range(m)] + [f"v{k}" for k in range(m)]
    rows = ((i, *config.positions[i], *config.velocities[i]) for i in range(config.n))
    _write_rows(path, header, rows)


def write_summary_csv(path, rows, fields) -> None:
    _write_rows(path, fields, ([row[name] for name in fields] for row in rows))


def read_summary_csv(path):
    """Read a summary CSV back; numeric fields parsed, empty fields -> None.

    An empty key field (model, run_id, step or level), or a value that does
    not parse or is not finite, raises `ValueError` naming its line and
    column."""
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        fields = tuple(reader.fieldnames or ())
        rows = []
        for raw in reader:
            if None in raw or None in raw.values():
                raise ValueError(f"{path}: line {reader.line_num} does not have "
                                 f"the header's {len(fields)} fields")
            row = {}
            for key, value in raw.items():
                if value == "":
                    if key in ("model", "run_id", "step", "level"):
                        raise ValueError(f"{path}: line {reader.line_num} has "
                                         f"an empty {key!r} field")
                    row[key] = None
                elif key in ("model",):
                    row[key] = value
                else:
                    counts = ("step", "level", "run_id", "max_diameter_none_count")
                    parse = int if key in counts else float
                    try:
                        row[key] = parse(value)
                        if not math.isfinite(row[key]):
                            raise ValueError(f"{value!r} is not finite")
                    except (ValueError, OverflowError) as exc:
                        raise ValueError(f"{path}: line {reader.line_num}, "
                                         f"column {key!r}: {exc}") from None
            rows.append(row)
    return fields, rows


# --------------------------------------------------------------------------
# SVG line charts
# --------------------------------------------------------------------------

_PALETTE = (
    "#1f77b4",
    "#ff7f0e",
    "#2ca02c",
    "#d62728",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
)

_WIDTH, _HEIGHT = 720, 420
_LEFT, _RIGHT, _TOP, _BOTTOM = 64, 190, 36, 48


def _ticks(lo, hi, count=5):
    # a range whose step is 0 (constant, or a few subnormals wide) is padded
    # by 10 % of |lo| on each side, then by 1 if the step is still 0
    for pad in (abs(lo) * 0.1, 1.0):
        if (hi - lo) / (count - 1) != 0:
            break
        lo, hi = lo - pad, hi + pad
    if not math.isfinite(float(hi) - float(lo)):
        raise ValueError(f"axis span {lo:.4g} to {hi:.4g} is not finite")
    step = (hi - lo) / (count - 1)
    return lo, hi, [lo + k * step for k in range(count)]


def _fmt_tick(v: float) -> str:
    return f"{v:.4g}"


def _escape(text: str) -> str:
    """text as XML character data: &, < and > escaped, as
    `xml.sax.saxutils.escape` does.  That module is not imported because it
    pulls in `urllib.request` and `ssl`, megabytes of memory for three
    replacements."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _line(x1, y1, x2, y2, stroke) -> str:
    """One `<line>`; `stroke` is its stroke attributes."""
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" {stroke}/>'


def _text(x, y, size, text, anchor="middle", extra="") -> str:
    """One sans-serif `<text>` holding `text`, escaped.  `anchor=None` drops
    `text-anchor`; `extra` holds the attributes after the font size."""
    anchor = "" if anchor is None else f' text-anchor="{anchor}"'
    extra = extra and f" {extra}"
    return (
        f'<text x="{x}" y="{y}"{anchor} font-family="sans-serif" '
        f'font-size="{size}"{extra}>{_escape(text)}</text>'
    )


def render_line_chart(series, title, x_label, y_label) -> str:
    """Build one SVG line chart.

    `series` is a list of (name, points) with points = [(x, y-or-None)].
    Each run of points between None values is one polyline, and a run of
    one point, with no drawn neighbour, is a short horizontal dash.  Output
    is a plain SVG string; the title, axis labels and series names are
    XML-escaped, so any text gives a well-formed document.  An axis whose
    span overflows (e.g. -1e308 to 1e308) is a ValueError.
    """
    xs = [x for _, pts in series for x, _ in pts]
    ys = [y for _, pts in series for _, y in pts if y is not None]
    if not xs:
        raise ValueError("cannot render a chart without points")
    if not ys:
        ys = [0.0]
    x_lo, x_hi, x_ticks = _ticks(min(xs), max(xs))
    y_lo, y_hi, y_ticks = _ticks(min(ys), max(ys))
    plot_w = _WIDTH - _LEFT - _RIGHT
    plot_h = _HEIGHT - _TOP - _BOTTOM
    bottom = _TOP + plot_h
    mid_x = f"{_LEFT + plot_w / 2:.1f}"
    mid_y = f"{_TOP + plot_h / 2:.1f}"

    def px(x):
        return _LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return bottom - (y - y_lo) / (y_hi - y_lo) * plot_h

    axis_style = 'stroke="#333" stroke-width="1"'
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        _text(mid_x, 20, 14, title),
        _line(_LEFT, bottom, _LEFT + plot_w, bottom, axis_style),
        _line(_LEFT, _TOP, _LEFT, bottom, axis_style),
    ]
    for tx in x_ticks:
        x = f"{px(tx):.2f}"
        parts.append(_line(x, bottom, x, bottom + 5, axis_style))
        parts.append(_text(x, bottom + 18, 11, _fmt_tick(tx)))
    for ty in y_ticks:
        y = py(ty)
        parts.append(_line(_LEFT - 5, f"{y:.2f}", _LEFT, f"{y:.2f}", axis_style))
        parts.append(_text(_LEFT - 8, f"{y + 4:.2f}", 11, _fmt_tick(ty), "end"))
    parts.append(_text(mid_x, _HEIGHT - 10, 12, x_label))
    parts.append(
        _text(16, mid_y, 12, y_label, extra=f'transform="rotate(-90 16 {mid_y})"')
    )

    for k, (name, pts) in enumerate(series):
        stroke = f'stroke="{_PALETTE[k % len(_PALETTE)]}" stroke-width="1.5"'
        for gap, run in itertools.groupby(pts, key=lambda p: p[1] is None):
            if gap:
                continue
            seg = [(px(x), py(y)) for x, y in run]
            if len(seg) == 1:
                x0, y0 = seg[0]
                seg = [(x0 - 3, y0), (x0 + 3, y0)]
            coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in seg)
            parts.append(f'<polyline fill="none" {stroke} points="{coords}"/>')
        ly = _TOP + 14 + 18 * k
        lx = _LEFT + plot_w + 14
        parts.append(_line(lx, ly - 4, lx + 22, ly - 4, stroke))
        parts.append(_text(lx + 28, ly, 11, name, None, 'class="legend"'))
    parts.append("</svg>")
    return "\n".join(parts)


def emit_plots(summary_rows, out_dir, x_key: str = "step") -> list:
    """One SVG per metric from summary rows; series keyed by model.

    Returns the written paths.  Rows missing a metric (e.g. diameter when
    every component is a singleton) break the line of that series; a point
    left with no drawn neighbour is drawn as a short dash.  Every chart is
    rendered before out_dir is made and any file written, so a chart that
    cannot be drawn is a ValueError naming its column, and nothing is
    written.
    """
    if not summary_rows:
        raise ValueError("cannot plot an empty summary")
    models = dict.fromkeys(row["model"] for row in summary_rows)
    charts = {}
    for column, title in METRIC_COLUMNS.items():
        series = []
        for model in models:
            pts = [
                (row[x_key], row[column])
                for row in summary_rows
                if row["model"] == model
            ]
            pts.sort(key=lambda p: p[0])
            series.append((model, pts))
        try:
            svg = render_line_chart(series, title=title, x_label=x_key, y_label=title)
        except ValueError as err:
            raise ValueError(f"column {column!r}: {err}") from None
        charts[os.path.join(out_dir, f"{column.removeprefix('mean_')}.svg")] = svg
    os.makedirs(out_dir, exist_ok=True)
    for path, svg in charts.items():
        with open(path, "w") as handle:
            handle.write(svg)
    return list(charts)
