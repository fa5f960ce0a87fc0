"""Tests of the benchmark itself: tracer arithmetic and output checks.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer  # noqa: E402


def test_self_time_of_nested_calls():
    now = [0.0]
    t = tracer.Tracer(clock=lambda: now[0])

    def inner(step):
        now[0] += step

    inner = t.wrap("layer.inner", inner)

    def outer():
        now[0] += 1.0
        inner(2.0)
        now[0] += 1.0
        inner(3.0)
        now[0] += 2.0

    outer = t.wrap("layer.outer", outer)
    outer()
    report = t.report(-1.0, 10.0)
    spans = report["spans"]
    assert spans["layer.outer"] == {"calls": 1, "total_s": 9.0, "self_s": 4.0}
    assert spans["layer.inner"] == {"calls": 2, "total_s": 5.0, "self_s": 5.0}
    assert report["coverage"] == pytest.approx(9.0 / 11.0)
    assert report["layer_coverage"] == pytest.approx(5.0 / 9.0)


def test_overlapping_children_are_subtracted_once():
    spans = [(1, 0, "child", 2.0, 6.0), (2, 0, "child", 4.0, 8.0),
             (0, None, "parent", 0.0, 10.0)]
    out = tracer.summarize(spans, 0.0, 10.0)["spans"]
    assert out["parent"]["self_s"] == pytest.approx(4.0)
    assert out["child"]["total_s"] == pytest.approx(8.0)


def test_worker_thread_span_parents_to_open_main_span():
    t = tracer.Tracer()
    leaf = t.wrap("layer.leaf", lambda: None)

    def spawn():
        worker = threading.Thread(target=leaf)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    t.wrap("layer.root", spawn)()
    by_name = {name: (span_id, parent) for span_id, parent, name, _, _ in t.spans}
    assert by_name["layer.leaf"][1] == by_name["layer.root"][0]
    assert by_name["layer.root"][1] is None


def test_counters_come_from_arguments():
    t = tracer.Tracer()

    class Params:
        alpha, beta = 0.0, 0.5

    def build_rule(params, order):
        return order

    traced = t.wrap("quadrature.build_rule", build_rule,
                    tracer.COUNTERS["quadrature.build_rule"])
    for order in (40, 80, 40):
        traced(Params(), order=order)
    counters = t.report(0.0, 1.0)["counters"]
    assert counters["quadrature.build_rule.distinct"] == 2
    assert counters["quadrature.build_rule.max_order"] == 80


def test_counter_on_changed_signature_keeps_the_span():
    t = tracer.Tracer()
    traced = t.wrap("quadrature.build_rule", lambda params, degree: degree,
                    tracer.COUNTERS["quadrature.build_rule"])
    assert traced(None, degree=3) == 3
    report = t.report(0.0, 1.0)
    assert report["spans"]["quadrature.build_rule"]["calls"] == 1
    assert report["missing"] == ["quadrature.build_rule counter"]


def test_install_traces_calls_through_every_binding(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"params": [[0.0, 0.0]], "sizes": [8, 16],
                                  "t_grid": {"count": 12}}))
    summary = tmp_path / "summary.json"
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "tracer.py"), str(summary), "operators",
         "--config", str(config), "--out", str(tmp_path / "out")],
        env=run.child_env(), capture_output=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(summary.read_text())
    assert report["missing"] == []
    # cmd_operators is reached through cli._COMMANDS, variation_batch through
    # the name cli imported from jhl.paths.
    assert report["spans"]["cli.cmd_operators"]["calls"] == 1
    assert report["spans"]["paths.variation_batch"]["calls"] == 1
    assert report["counters"]["paths.variation_batch.path_len"] == 12
    assert report["coverage"] > 0.9


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


VERIFY = run.Workload("verify", 2, {}, {"stable": 2})
NORMS = run.Workload("norms", 1, {}, {"rows": 2})
KERNEL = run.Workload("kernel", 1, {}, {"size": 2, "times": 1})


def _verify_out(root: Path, verdict: str = "stable") -> Path:
    _write(root / "verify" / "summary.csv",
           "estimate,alpha,beta,verdict,constant,stability_ratio\n"
           "kernel_decay,0,0,stable,1.5,1.01\n"
           f"dt_sup,0,0,{verdict},2.5,1.02\n"
           "negative_control,-0.5,-0.5,growing,9.0,1.9\n")
    return root


def _norms_out(root: Path, value: str = "0.75") -> Path:
    header = "params,operator,p,weight,size,norm_estimate,weak11_estimate,stability_ratio\n"
    _write(root / "norms" / "norms.csv",
           header + "alpha0_beta0,variation,2,constant,16,1.25,0.5,1.01\n"
           f"alpha0_beta0,variation,2,constant,32,1.25,{value},1.01\n")
    return root


def _kernel_out(root: Path, lines: int = 5) -> Path:
    for k in range(run.PARAM_DIRS):
        tag = root / "kernel" / f"alpha{k}_beta0"
        _write(tag / "report.json",
               json.dumps({"defects": {"markov": [1e-14], "cross_method": [2e-13]}}))
        for stem in ("kernel", "kernel_dt"):
            _write(tag / f"{stem}_00.csv", "row,col,value\n" + "0,0,1\n" * (lines - 1))
    return root


def test_checks_accept_well_formed_outputs(tmp_path):
    assert run.check_output(VERIFY, _verify_out(tmp_path / "v"), 0) == []
    assert run.check_output(NORMS, _norms_out(tmp_path / "n"), 0) == []
    assert run.check_output(KERNEL, _kernel_out(tmp_path / "k"), 0) == []


def test_checks_reject_nonzero_exit(tmp_path):
    assert run.check_output(VERIFY, _verify_out(tmp_path), 4) == ["exit code 4"]


def test_checks_reject_corrupted_files(tmp_path):
    assert run.check_output(VERIFY, _verify_out(tmp_path / "v", "growing"), 0)
    assert run.check_output(NORMS, _norms_out(tmp_path / "n", "nan"), 0)
    assert run.check_output(KERNEL, _kernel_out(tmp_path / "k", lines=4), 0)
    truncated = _norms_out(tmp_path / "t")
    csv_path = truncated / "norms" / "norms.csv"
    csv_path.write_text(csv_path.read_text()[:-40])
    assert run.check_output(NORMS, truncated, 0)
    missing = _kernel_out(tmp_path / "m")
    (missing / "kernel" / "alpha1_beta0" / "kernel_dt_00.csv").unlink()
    assert run.check_output(KERNEL, missing, 0)


def test_kernel_check_rejects_large_defect(tmp_path):
    out = _kernel_out(tmp_path)
    report = out / "kernel" / "alpha0_beta0" / "report.json"
    report.write_text(json.dumps({"defects": {"markov": [1.0], "cross_method": [0.0]}}))
    assert run.check_output(KERNEL, out, 0)


def test_digest_ignores_untracked_files(tmp_path):
    out = _norms_out(tmp_path)
    before = run.data_digest(out)
    _write(out / "norms" / "timings.json", "{}")
    assert run.data_digest(out) == before
    _write(out / "norms" / "norms.csv", "changed\n")
    assert run.data_digest(out) != before


def test_repeat_stops_before_overrunning(monkeypatch):
    now = [0.0]
    monkeypatch.setattr(run.time, "perf_counter", lambda: now[0])

    def step():
        now[0] += 3.0

    # Three steps end at 9 s; a fourth would end at 12 s, past the 10 s.
    assert len(run.repeat(step, 10.0, 2)) == 3
    now[0] = 0.0
    assert len(run.repeat(step, 1.0, 2)) == 2


def test_benchmark_json_matches_emitted_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert all(m["unit"] == run.END_TO_END_UNITS[m["name"]] for m in spec["end_to_end"])
    summary = {"spans": {}, "counters": {}, "coverage": 1.0, "layer_coverage": 1.0}
    emitted = list(run.layer_metrics(summary)) + list(run.RUN_LEVEL_LAYER_METRICS)
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(emitted)
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])
