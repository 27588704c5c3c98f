import os
import xml.etree.ElementTree as ET

import pytest

from qlab.errors import ReportError
from qlab.metrics import MetricRecord, MetricsStore, record_to_row
from qlab.report import Series, cmd_report, svg_plot


def polylines(svg_text):
    root = ET.fromstring(svg_text)
    ns = "{http://www.w3.org/2000/svg}"
    return root.findall(f".//{ns}polyline")


def test_svg_single_series_structure():
    svg = svg_plot(
        [Series("a", [1, 2, 3], [0.5, 0.4, 0.3])],
        title="loss", xlabel="tokens", ylabel="ce",
    )
    lines = polylines(svg)
    assert len(lines) == 1
    assert "loss" in svg and "tokens" in svg and "ce" in svg


def test_svg_polyline_per_series_with_overlay():
    svg = svg_plot(
        [
            Series("a", [1, 2, 3], [0.5, 0.4, 0.3]),
            Series("b", [1, 2, 3], [0.6, 0.5, 0.2]),
            Series("lr", [1, 2, 3], [1e-3, 1e-3, 0.0], dotted=True, secondary=True),
        ],
        y2label="lr",
    )
    lines = polylines(svg)
    assert len(lines) == 3
    dashed = [p for p in lines if p.get("stroke-dasharray")]
    assert len(dashed) == 1


def test_svg_log_axis():
    svg = svg_plot([Series("a", [10, 100, 1000], [1, 2, 3])], logx=True)
    assert len(polylines(svg)) == 1
    with pytest.raises(ReportError):
        svg_plot([Series("a", [0, -1], [1, 2])], logx=True)


def test_svg_rejects_empty():
    with pytest.raises(ReportError):
        svg_plot([])


def make_run(tmp_path, name, n=4):
    run_dir = tmp_path / name
    run_dir.mkdir()
    store = MetricsStore(str(run_dir / "metrics.csv"))
    for i in range(1, n + 1):
        store.upsert(record_to_row(
            MetricRecord(
                name, i * 10, tokens_seen=i * 1000, lr=1e-3 * (n - i) / n,
                val_ce_fp=3.0 / i, rel_ce_err={3: 0.1 * i},
            )
        ))
    store.save()
    return str(run_dir)


def test_cmd_report_writes_svg_and_csv(tmp_path):
    r1 = make_run(tmp_path, "runA")
    r2 = make_run(tmp_path, "runB")
    out = str(tmp_path / "fig.svg")
    svg_path, csv_path = cmd_report([r1, r2], "val_ce_fp", out=out)
    assert os.path.exists(svg_path) and os.path.exists(csv_path)
    text = open(svg_path).read()
    # one polyline per run plus one dotted lr overlay per run
    assert len(polylines(text)) == 4
    merged = open(csv_path).read().strip().splitlines()
    assert merged[0] == "run_id,tokens_seen,val_ce_fp,lr"
    assert len(merged) == 9


def test_cmd_report_unknown_column(tmp_path):
    r1 = make_run(tmp_path, "runC")
    with pytest.raises(ReportError):
        cmd_report([r1], "no_such_metric", out=str(tmp_path / "x.svg"))
    assert not os.path.exists(tmp_path / "x.svg")


@pytest.mark.parametrize("axes", [dict(x="run_id"), dict(metric="run_id")])
def test_cmd_report_refuses_the_text_column(tmp_path, axes):
    from qlab.cli import main

    r1 = make_run(tmp_path, "runE")
    out = str(tmp_path / "t.svg")
    args = {"metric": "val_ce_fp", "x": "tokens_seen", **axes}
    with pytest.raises(ReportError):
        cmd_report([r1], args["metric"], x=args["x"], out=out)
    assert main(["report", "--run", r1, "--metric", args["metric"], "--x", args["x"],
                 "--out", out]) == 2
    assert not os.path.exists(out) and not os.path.exists(tmp_path / "t.csv")


def test_cmd_report_empty_data_writes_nothing(tmp_path):
    run_dir = tmp_path / "empty"
    run_dir.mkdir()
    MetricsStore(str(run_dir / "metrics.csv")).save()
    out = str(tmp_path / "y.svg")
    with pytest.raises(ReportError):
        cmd_report([str(run_dir)], "val_ce_fp", out=out)
    assert not os.path.exists(out)


def test_cmd_report_x_axis_step(tmp_path):
    r1 = make_run(tmp_path, "runD")
    out = str(tmp_path / "step.svg")
    svg_path, _ = cmd_report([r1], "rel_ce_err3", x="step", lr_overlay=False, out=out)
    assert len(polylines(open(svg_path).read())) == 1
