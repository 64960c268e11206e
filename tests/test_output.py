import hashlib
import itertools
import xml.dom.minidom
import xml.sax.saxutils
import xml.etree.ElementTree as ET

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flockbench import ExperimentConfig, default_model_spec, mix_seed
from flockbench.harness import (
    aggregate_finals,
    aggregate_steps,
    run_batch,
    run_noise_sweep,
)
from flockbench.output import (
    COMPARISON_SUMMARY_FIELDS,
    NOISE_SUMMARY_FIELDS,
    emit_plots,
    format_value,
    read_summary_csv,
    render_line_chart,
    write_steps_csv,
    write_summary_csv,
)

STEP_HEADER = (
    "model,run_id,step,num_components,max_diameter,velocity_convergence,irregularity"
)


def tiny_records(runs=1, steps=2):
    cfg = ExperimentConfig(
        model=default_model_spec("reynolds"), n=3, steps=steps, base_seed=5
    )
    seeds = [mix_seed(cfg.base_seed, j) for j in range(runs)]
    return {"reynolds": run_batch(cfg, seeds)}


# --------------------------------------------------------------------------
# CSV
# --------------------------------------------------------------------------


def test_format_value():
    assert format_value(None) == ""
    assert format_value(3) == "3"
    assert format_value("reynolds") == "reynolds"
    assert format_value(1.0) == "1"
    third = format_value(1.0 / 3.0)
    assert third == "0.33333333333333331"  # 17 significant digits round-trips
    assert float(third) == 1.0 / 3.0
    with pytest.raises(TypeError):
        format_value(True)


def test_empty_records_write_header_only(tmp_path):
    path = tmp_path / "steps.csv"
    write_steps_csv(path, {})
    assert path.read_text() == STEP_HEADER + "\n"


def test_steps_csv_rows_and_order(tmp_path):
    path = tmp_path / "steps.csv"
    write_steps_csv(path, tiny_records(runs=1, steps=2))
    lines = path.read_text().splitlines()
    assert lines[0] == STEP_HEADER
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "reynolds" and first[1] == "0" and first[2] == "0"
    assert lines[2].split(",")[2] == "1"


def test_none_diameter_serialized_empty(tmp_path):
    cfg = ExperimentConfig(
        model=default_model_spec("reynolds"),
        n=2,
        steps=1,
        base_seed=5,
        init_position_box=((-500.0, 500.0),) * 2,  # agents far apart
    )
    records = {"reynolds": run_batch(cfg, [42])}
    assert records["reynolds"][0].metrics[0].max_diameter is None
    path = tmp_path / "steps.csv"
    write_steps_csv(path, records)
    row = path.read_text().splitlines()[1].split(",")
    assert row[4] == ""
    # the summary's diameter reads back as None, and its chart still renders
    summary = tmp_path / "summary.csv"
    write_summary_csv(summary, aggregate_steps(records), COMPARISON_SUMMARY_FIELDS)
    _, parsed = read_summary_csv(summary)
    assert [row["mean_max_diameter"] for row in parsed] == [None]
    charts = emit_plots(parsed, tmp_path, x_key="step")
    assert str(tmp_path / "max_diameter.svg") in map(str, charts)
    ET.parse(tmp_path / "max_diameter.svg")


def test_csv_byte_identical_rerun(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_steps_csv(a, tiny_records(runs=2, steps=3))
    write_steps_csv(b, tiny_records(runs=2, steps=3))
    assert a.read_bytes() == b.read_bytes()


def test_summary_roundtrip(tmp_path):
    rows = aggregate_steps(tiny_records(runs=2, steps=2))
    path = tmp_path / "summary.csv"
    write_summary_csv(path, rows, COMPARISON_SUMMARY_FIELDS)
    fields, parsed = read_summary_csv(path)
    assert fields == COMPARISON_SUMMARY_FIELDS
    assert len(parsed) == len(rows)
    assert parsed[0]["model"] == "reynolds"
    assert parsed[0]["step"] == 0
    assert parsed[0]["mean_num_components"] == pytest.approx(
        rows[0]["mean_num_components"]
    )


def test_summary_rows_fill_the_summary_columns_in_order():
    rows = aggregate_steps(tiny_records(runs=2, steps=2))
    assert [tuple(row) for row in rows] == [COMPARISON_SUMMARY_FIELDS] * 2
    cfg = ExperimentConfig(
        model=default_model_spec("reynolds"), n=3, steps=2, runs=2, base_seed=5
    )
    rows = aggregate_finals(run_noise_sweep(cfg, [cfg.model], [0, 1]))
    assert [tuple(row) for row in rows] == [NOISE_SUMMARY_FIELDS] * 2


# --------------------------------------------------------------------------
# SVG charts
# --------------------------------------------------------------------------


def test_constant_series_renders_horizontal_polyline():
    svg = render_line_chart(
        [("mymodel", [(0, 2.0), (1, 2.0), (2, 2.0)])],
        title="demo",
        x_label="step",
        y_label="value",
    )
    root = ET.fromstring(svg)  # valid XML
    ns = "{http://www.w3.org/2000/svg}"
    polylines = [
        el for el in root.iter(f"{ns}polyline") if el.get("fill") == "none"
    ]
    assert len(polylines) >= 1
    pts = [p.split(",") for p in polylines[0].get("points").split()]
    ys = {y for _, y in pts}
    assert len(ys) == 1  # horizontal


def test_chart_has_one_legend_entry_per_model():
    series = [
        (f"model{k}", [(0, float(k)), (1, float(k) + 0.5)]) for k in range(6)
    ]
    svg = render_line_chart(series, title="t", x_label="x", y_label="y")
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    legend = [el for el in root.iter(f"{ns}text") if el.get("class") == "legend"]
    assert [el.text for el in legend] == [f"model{k}" for k in range(6)]


def test_chart_gaps_break_polyline():
    svg = render_line_chart(
        [("m", [(0, 1.0), (1, 1.5), (2, None), (3, 2.0), (4, 2.5)])],
        title="t",
        x_label="x",
        y_label="y",
    )
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    series_lines = [
        el for el in root.iter(f"{ns}polyline") if el.get("fill") == "none"
    ]
    assert len(series_lines) == 2


def test_chart_of_series_without_y_values_draws_no_line():
    # no y value at all: the y axis spans 0 padded by 1, as a zero series
    svg = render_line_chart([("m", [(0, None), (1, None)])], "t", "x", "y")
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    assert not [el for el in root.iter(f"{ns}polyline") if el.get("fill") == "none"]
    ticks = [el.text for el in root.iter(f"{ns}text") if el.get("text-anchor") == "end"]
    assert ticks == ["-1", "-0.5", "0", "0.5", "1"]


@pytest.mark.parametrize("series", [[], [("m", [])], [("a", []), ("b", [])]])
def test_chart_without_points_is_refused(series):
    with pytest.raises(ValueError, match="^cannot render a chart without points$"):
        render_line_chart(series, "t", "x", "y")


_maybe_y = st.one_of(st.none(), st.floats(-100, 100, allow_nan=False))


@settings(max_examples=200, deadline=None)
@given(
    steps=st.lists(
        st.lists(st.tuples(st.integers(1, 5), _maybe_y), min_size=1, max_size=9),
        min_size=1,
        max_size=8,
    ),
    start=st.integers(-10, 10),
)
# a constant subnormal y: 10 % of it underflows to 0, so the pad is 1
@example(steps=[[(1, 5e-324)]], start=0)
def test_chart_draws_each_run_of_a_series(steps, start):
    # x increases along each series; None values cut it into runs
    series = []
    for k, pts in enumerate(steps):
        xs = itertools.accumulate((dx for dx, _ in pts), initial=start)
        series.append((f"s{k}", [(x, y) for x, (_, y) in zip(xs, pts)]))
    root = ET.fromstring(render_line_chart(series, "t", "x", "y"))
    ns = "{http://www.w3.org/2000/svg}"
    x_axis, y_axis, *lines = root.iter(f"{ns}line")
    colours = [el.get("stroke") for el in lines if el.get("stroke-width") == "1.5"]
    assert len(set(colours)) == len(series)

    def span(values):
        lo, hi = min(values), max(values)
        if lo == hi:
            pad = abs(lo) * 0.1 or 1.0
            lo, hi = lo - pad, hi + pad
        return lo, hi

    x_lo, x_hi = span([x for _, pts in series for x, _ in pts])
    ys = [y for _, pts in series for _, y in pts if y is not None]
    y_lo, y_hi = span(ys or [0.0])
    left, right = float(x_axis.get("x1")), float(x_axis.get("x2"))
    top, bottom = float(y_axis.get("y1")), float(y_axis.get("y2"))

    def pixel(x, y):
        return (
            left + (x - x_lo) / (x_hi - x_lo) * (right - left),
            bottom - (y - y_lo) / (y_hi - y_lo) * (bottom - top),
        )

    polylines = list(root.iter(f"{ns}polyline"))
    for (_, pts), colour in zip(series, colours):
        runs = [
            list(run)
            for gap, run in itertools.groupby(pts, key=lambda p: p[1] is None)
            if not gap
        ]
        drawn = [
            [float(v) for xy in el.get("points").split() for v in xy.split(",")]
            for el in polylines
            if el.get("stroke") == colour
        ]
        assert len(drawn) == len(runs)
        for run, coords in zip(runs, drawn):
            want = [pixel(x, y) for x, y in run]
            if len(run) == 1:
                (x0, y0), = want
                want = [(x0 - 3, y0), (x0 + 3, y0)]
            assert coords == pytest.approx([v for xy in want for v in xy], abs=0.011)


def test_chart_deterministic_bytes():
    series = [("a", [(0, 1.0), (1, 2.0)]), ("b", [(0, 2.0), (1, 1.0)])]
    one = render_line_chart(series, title="t", x_label="x", y_label="y")
    two = render_line_chart(series, title="t", x_label="x", y_label="y")
    assert one == two


# chart branches the golden charts do not reach: (series, title, x label,
# y label, polylines drawn, sha256 of the SVG)
EDGE_CHARTS = {
    # the series' one point is drawn as a 6-px dash
    "lone_point": (
        [("lone", [(0, None), (1, 2.0)]), ("ramp", [(0, 0.0), (2, 4.0)])],
        "t", "x", "y", 2,
        "38317827565f1402d64c216efaba70fd94fc6f6e4239130e8d4b96384d8fe970",
    ),
    # a lone point after a drawn segment is a dash too
    "lone_point_after_segment": (
        [("m", [(0, 1.0), (1, 2.0), (2, None), (3, 3.0)])],
        "t", "x", "y", 2,
        "27eb34afc1f6d3753ef806c010e2bf9c63e0f609e065daced64509d9621026d9",
    ),
    # a lone point before a gap: the same bytes as "lone_point", as the
    # trailing gap moves no axis
    "lone_point_before_gap": (
        [("lone", [(0, None), (1, 2.0), (2, None)]), ("ramp", [(0, 0.0), (2, 4.0)])],
        "t", "x", "y", 2,
        "38317827565f1402d64c216efaba70fd94fc6f6e4239130e8d4b96384d8fe970",
    ),
    "lone_point_between_gaps": (
        [("m", [(0, 1.0), (1, 2.0), (2, None), (3, 3.0), (4, None), (5, 0.5),
                (6, 1.0)])],
        "t", "x", "y", 3,
        "810f15d525b2a230ee07982e18266927c521749f0aa5cd35763cd9234e920e62",
    ),
    # constant series: the y range is padded by 10 %, or by 1 where that is 0
    "constant_zero": (
        [("zero", [(0, 0.0), (1, 0.0), (2, 0.0)])],
        "t", "x", "y", 1,
        "a59437849ab286904d42093bee5a707e92c8e16a2d01f7e56a0a70aeb35c6cf3",
    ),
    "constant_negative": (
        [("c", [(0, -4.0), (5, -4.0)])],
        "t", "x", "y", 1,
        "58ac33f7064a91aef77d06453f8b038be29f276d53682d0e489e6eccfa3b51a8",
    ),
    # 10 % of a subnormal underflows to 0: padded by 1, as at 0
    "constant_subnormal": (
        [("s0", [(0, 5e-324)])],
        "t", "x", "y", 1,
        "bc4cef7fdc7485b29628298f16ea9f7da6b0bbbf33c92cf9b1c73ac809a2c962",
    ),
    # 10 % of 5e-323 is one subnormal, which leaves the step 0: padded by 1
    # as well, the same bytes as "constant_subnormal"
    "constant_subnormal_padded_twice": (
        [("s0", [(0, 5e-323)])],
        "t", "x", "y", 1,
        "bc4cef7fdc7485b29628298f16ea9f7da6b0bbbf33c92cf9b1c73ac809a2c962",
    ),
    # a span of one subnormal: its step underflows to 0, so it is padded as
    # a constant range is, not drawn as five ticks at one pixel
    "subnormal_span": (
        [("a", [(0, 5e-324), (1, 1e-323)])],
        "t", "x", "y", 1,
        "dfa1392f36a207c4ad98349ab73a6e593dce80aa180dd0c634560e57c0d528c2",
    ),
    "negative_x": (
        [("m", [(-10.5, 1.0), (-3, -2.0), (0, 0.5)])],
        "t", "x", "y", 1,
        "bef9be9028d16bd91244d26147c364e2a031bff15c1ebf143772777005ca3e83",
    ),
    # ten series: colours and legend rows wrap after the palette's eight
    "palette_wraps": (
        [(f"m{k}", [(0, float(k)), (1, k + 0.5)]) for k in range(10)],
        "t", "x", "y", 10,
        "82fa7e25b4a6b2771408e766899d2d164e1a52e0fa4b6669c8bfeb3e8a2b0f0c",
    ),
    "markup": (
        [("a&b<c>", [(0, 1.0), (1, 2.0)]), ('"q"', [(0, 2.0), (1, 1.0)])],
        "t<1> & 'u'", "x&", "<y>", 2,
        "2136c224883195e0a89eb97556f6b56e33ceb1469fc33d500612c8b7dd8198b6",
    ),
}


@pytest.mark.parametrize("case", EDGE_CHARTS)
def test_chart_edge_case_bytes(case):
    series, title, x_label, y_label, drawn, digest = EDGE_CHARTS[case]
    svg = render_line_chart(series, title=title, x_label=x_label, y_label=y_label)
    root = ET.fromstring(svg)
    assert len(list(root.iter("{http://www.w3.org/2000/svg}polyline"))) == drawn
    assert hashlib.sha256(svg.encode()).hexdigest() == digest


def test_emit_plots_writes_one_file_per_metric(tmp_path):
    rows = aggregate_steps(tiny_records(runs=1, steps=3))
    paths = emit_plots(rows, tmp_path, x_key="step")
    assert len(paths) == 4
    for path in paths:
        ET.parse(path)  # strict XML parse
    names = {p.split("/")[-1] for p in map(str, paths)}
    assert names == {
        "num_components.svg",
        "max_diameter.svg",
        "velocity_convergence.svg",
        "irregularity.svg",
    }


def test_chart_text_with_markup_characters_parses(tmp_path):
    # model names come from a user CSV in `flockbench plot`
    name = "a&b<c>"
    svg = render_line_chart(
        [(name, [(0, 1.0), (1, 2.0)])], title="t<1>", x_label="x&", y_label='"y"'
    )
    texts = [
        node.firstChild.data
        for node in xml.dom.minidom.parseString(svg).getElementsByTagName("text")
    ]
    assert {name, "t<1>", "x&", '"y"'} <= set(texts)
    assert f'class="legend">{xml.sax.saxutils.escape(name)}</text>' in svg
    rows = aggregate_steps(tiny_records(runs=1, steps=3))
    for row in rows:
        row["model"] = name
    for path in emit_plots(rows, tmp_path, x_key="step"):
        legend = xml.dom.minidom.parse(str(path)).getElementsByTagName("text")[-1]
        assert legend.firstChild.data == name


def test_emit_plots_rejects_empty_summary(tmp_path):
    with pytest.raises(ValueError):
        emit_plots([], tmp_path)


@pytest.mark.parametrize("axis", ["x", "y", "integer x"])
def test_chart_rejects_an_axis_span_that_overflows(axis):
    # both ends are finite, but hi - lo is inf: the ticks would be nan
    ends = [(0, -1e308), (1, 1e308)]
    if axis != "y":
        ends = [(y, x) for x, y in ends]
    if axis == "integer x":  # a summary's steps and levels are integers
        ends = [(int(x), y) for x, y in ends]
    with pytest.raises(ValueError, match="axis span -1e\\+308 to 1e\\+308 is not finite"):
        render_line_chart([("a", ends)], title="t", x_label="x", y_label="y")


def test_emit_plots_writes_nothing_when_a_chart_cannot_be_drawn(tmp_path):
    rows = aggregate_steps(tiny_records(runs=1, steps=2))
    rows[0]["mean_velocity_convergence"] = -1e308
    rows[1]["mean_velocity_convergence"] = 1e308
    out = tmp_path / "charts"
    with pytest.raises(ValueError, match="^column 'mean_velocity_convergence': axis"):
        emit_plots(rows, out, x_key="step")
    assert not out.exists()
