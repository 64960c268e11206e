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
    """Read a summary CSV back; numeric fields parsed, empty fields -> None."""
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
                    row[key] = None
                elif key in ("model",):
                    row[key] = value
                elif key in ("step", "level", "run_id", "max_diameter_none_count"):
                    row[key] = int(value)
                else:
                    row[key] = float(value)
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
    if lo == hi:
        pad = 1.0 if lo == 0 else abs(lo) * 0.1
        lo, hi = lo - pad, hi + pad
    span = hi - lo
    step = span / (count - 1)
    return lo, hi, [lo + k * step for k in range(count)]


def _fmt_tick(v: float) -> str:
    return f"{v:.4g}"


def _escape(text: str) -> str:
    """text as XML character data: &, < and > escaped, as
    `xml.sax.saxutils.escape` does.  That module is not imported because it
    pulls in `urllib.request` and `ssl`, megabytes of memory for three
    replacements."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_line_chart(series, title, x_label, y_label) -> str:
    """Build one SVG line chart.

    `series` is a list of (name, points) with points = [(x, y-or-None)];
    None values break the polyline.  Output is a plain SVG string; the
    title, axis labels and series names are XML-escaped, so any text gives
    a well-formed document.
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

    def px(x):
        return _LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return _TOP + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_LEFT + plot_w / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{_escape(title)}</text>',
    ]
    axis_style = 'stroke="#333" stroke-width="1"'
    parts.append(
        f'<line x1="{_LEFT}" y1="{_TOP + plot_h}" x2="{_LEFT + plot_w}" '
        f'y2="{_TOP + plot_h}" {axis_style}/>'
    )
    parts.append(
        f'<line x1="{_LEFT}" y1="{_TOP}" x2="{_LEFT}" y2="{_TOP + plot_h}" '
        f"{axis_style}/>"
    )
    for tx in x_ticks:
        x = px(tx)
        parts.append(
            f'<line x1="{x:.2f}" y1="{_TOP + plot_h}" x2="{x:.2f}" '
            f'y2="{_TOP + plot_h + 5}" {axis_style}/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{_TOP + plot_h + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt_tick(tx)}</text>'
        )
    for ty in y_ticks:
        y = py(ty)
        parts.append(
            f'<line x1="{_LEFT - 5}" y1="{y:.2f}" x2="{_LEFT}" y2="{y:.2f}" '
            f"{axis_style}/>"
        )
        parts.append(
            f'<text x="{_LEFT - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt_tick(ty)}</text>'
        )
    parts.append(
        f'<text x="{_LEFT + plot_w / 2:.1f}" y="{_HEIGHT - 10}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="12">'
        f"{_escape(x_label)}</text>"
    )
    parts.append(
        f'<text x="16" y="{_TOP + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {_TOP + plot_h / 2:.1f})">'
        f"{_escape(y_label)}</text>"
    )

    for k, (name, pts) in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        segment = []
        segments = []
        for x, y in pts:
            if y is None:
                if len(segment) >= 2:
                    segments.append(segment)
                segment = []
            else:
                segment.append((px(x), py(y)))
        if len(segment) >= 2:
            segments.append(segment)
        elif len(segment) == 1 and not segments:
            # lone point: draw a short horizontal dash so the series shows
            x0, y0 = segment[0]
            segments.append([(x0 - 3, y0), (x0 + 3, y0)])
        for seg in segments:
            coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in seg)
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                f'points="{coords}"/>'
            )
        ly = _TOP + 14 + 18 * k
        lx = _LEFT + plot_w + 14
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
            f'font-size="11" class="legend">{_escape(name)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def emit_plots(summary_rows, out_dir, x_key: str = "step") -> list:
    """One SVG per metric from summary rows; series keyed by model.

    Returns the written paths.  Rows missing a metric (e.g. diameter when
    every component is a singleton) leave a gap in that series.
    """
    if not summary_rows:
        raise ValueError("cannot plot an empty summary")
    models = []
    for row in summary_rows:
        if row["model"] not in models:
            models.append(row["model"])
    paths = []
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
        svg = render_line_chart(series, title=title, x_label=x_key, y_label=title)
        path = os.path.join(out_dir, f"{column.removeprefix('mean_')}.svg")
        with open(path, "w") as handle:
            handle.write(svg)
        paths.append(path)
    return paths
