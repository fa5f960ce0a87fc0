"""End-to-end tests for the jhl command line and its run configuration."""

import concurrent.futures
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import jhl._format17
import jhl._memo
import jhl.cli
import jhl.quadrature
import jhl.semigroup
import jhl.verify
from jhl.basis import JacobiParams
from jhl._format17 import CHUNK, format_17g
from jhl.cli import (
    _run_task,
    _write_csv,
    _write_matrix_csv,
    main,
)
from jhl.config import OPERATOR_NAMES, RunConfig, load_config
from jhl.errors import ConfigError
from jhl.semigroup import clear_caches, kernel_tensor, weight_at_one


def _base_config(**overrides):
    cfg = {
        "params": [[0.0, 0.0]],
        "sizes": [8, 12],
        "t_grid": {"t_min": 1e-2, "t_max": 10.0, "count": 16},
        "norms_t_grid": {"t_min": 1e-2, "t_max": 100.0, "count": 16},
        "lacunary": {"ratio": 2.0, "window": 2},
        "lambdas": [0.25, 1.0],
        "p_values": [2.0],
        "weights": [{"kind": "constant"}],
        "kernel_times": [1e-12, 1.0],
        "estimates": ["poly_bound"],
        "operators": ["variation"],
    }
    cfg.update(overrides)
    return cfg


def _write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# Any JSON value, biased towards the section keys and enum values a config uses.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from(["explicit", "delta", "ones", "power", "file", "variation"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["t_min", "t_max", "count", "geometric", "ratio", "window",
                         "kind", "values", "index", "exponent", "path"])
        | st.text(max_size=4), inner, max_size=4),
    max_leaves=12)
_CONFIG_KEYS = tuple(RunConfig().to_dict())


def _data_files(root):
    """Bytes of every data file under root; config and timings are not data."""
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*"))
            if path.is_file() and path.name not in ("config.json", "timings.json")}


class _PoolSpy:
    """Stands in for ProcessPoolExecutor and records the worker counts built."""

    def __init__(self, monkeypatch):
        self.built = []
        real = concurrent.futures.ProcessPoolExecutor

        def build(max_workers, **kwargs):
            self.built.append(max_workers)
            return real(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", build)


def _assert_workers_agree(tmp_path, command, cfg):
    """Run command with one worker, then, on a cold memo, with two; every data
    file must be byte-identical."""
    out1, out2 = tmp_path / "a", tmp_path / "b"
    p1 = _write_config(tmp_path, {**cfg, "out_dir": str(out1)}, "c1.json")
    p2 = _write_config(tmp_path, {**cfg, "out_dir": str(out2)}, "c2.json")
    assert main([command, "--config", p1]) == 0
    clear_caches()  # the forked workers must not inherit the first run's memo
    assert main([command, "--config", p2, "--workers", "2"]) == 0
    first, second = _data_files(out1), _data_files(out2)
    assert first
    assert first == second


def _read_matrix(path, size):
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    mat = np.zeros((size, size))
    mat[data[:, 0].astype(int), data[:, 1].astype(int)] = data[:, 2]
    return mat


class TestConfig:
    def test_round_trip(self):
        default = RunConfig()
        rebuilt = RunConfig.from_dict(default.to_dict())
        assert rebuilt == default
        assert rebuilt.to_dict() == default.to_dict()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            RunConfig.from_dict({"sizes": [8, 12], "verbosity": 3})
        with pytest.raises(ConfigError, match="unknown keys"):
            RunConfig.from_dict({"t_grid": {"t_min": 0.1, "t_max": 1.0, "points": 4}})

    def test_value_validation(self):
        with pytest.raises(ConfigError, match="increasing"):
            RunConfig.from_dict({"sizes": [12, 8]})
        with pytest.raises(ConfigError, match="at least 1"):
            RunConfig.from_dict({"p_values": [0.5]})
        with pytest.raises(ConfigError, match="seed"):
            RunConfig.from_dict({"seed": 2 ** 64})
        with pytest.raises(ConfigError, match="integer"):
            RunConfig.from_dict({"seed": "zero"})
        with pytest.raises(ConfigError, match="list"):
            RunConfig.from_dict({"sizes": "all"})
        with pytest.raises(ConfigError, match="list"):
            RunConfig.from_dict({"lambdas": 0.5})
        with pytest.raises(ConfigError, match="kernel_times"):
            RunConfig.from_dict({"kernel_times": [0.0, 1.0]})
        with pytest.raises(ConfigError, match="estimates"):
            RunConfig.from_dict({"estimates": ["kernel_decay", "sharpness"]})

    def test_load_config(self, tmp_path):
        path = _write_config(tmp_path, _base_config())
        config = load_config(path)
        assert config.sizes == (8, 12)
        assert config.p_values == (2.0,)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(raw=_JSON | st.dictionaries(st.sampled_from(_CONFIG_KEYS), _JSON, max_size=5))
    def test_any_json_value_loads_or_raises_config_error(self, raw):
        try:
            config = RunConfig.from_dict(raw)
        except ConfigError:
            return
        assert isinstance(config, RunConfig)
        assert RunConfig.from_dict(config.to_dict()) == config

    def test_load_config_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="valid JSON"):
            load_config(str(bad))


class TestMainErrors:
    def test_bad_config_exits_two(self, tmp_path, capsys):
        path = _write_config(tmp_path, {"sizes": "all"})
        code = main(["verify", "--config", path])
        assert code == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "config"
        assert record["message"]

    @pytest.mark.parametrize("override", [
        {"t_grid": {"t_min": 1e-2, "t_max": 10.0, "count": "abc"}},
        {"t_grid": {"t_min": 1e-2, "t_max": 10.0, "count": 2.9}},
        {"norms_t_grid": {"t_min": 1e-2, "t_max": 100.0, "count": 16.0}},
        {"t_grid": {"t_min": 1e-2, "t_max": 10.0, "geometric": "no"}},
        {"norms_t_grid": {"t_min": 1e-2, "t_max": 100.0, "geometric": 0}},
        {"lacunary": {"ratio": 2.0, "window": "3"}},
        {"lacunary": {"ratio": 2.0, "window": True}},
        {"signal": {"kind": "delta", "index": 1.5}},
        {"signal": {"kind": "delta", "index": "0"}},
    ], ids=["count-str", "count-float", "norms-count-float", "geometric-str",
            "geometric-int", "window-str", "window-bool", "index-float", "index-str"])
    def test_malformed_scalars_exit_two(self, tmp_path, capsys, override):
        path = _write_config(tmp_path, _base_config(out_dir=str(tmp_path / "o"),
                                                    **override))
        assert main(["kernel", "--config", path]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "config"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("override", [
        {"t_grid": 5},
        {"lacunary": []},
        {"bcoef": 3},
        {"weights": [5]},
        {"signal": {"kind": "explicit", "values": 5}},
        {"bcoef": {"kind": "explicit", "values": "12"}},
        {"estimates": [[1]]},
        {"operators": [{"name": "jump"}]},
        {"signal": {"kind": "explicit", "values": [1.0], "index": 0}},
        {"bcoef": {"kind": "ones", "values": [1.0]}},
    ], ids=["t-grid-int", "lacunary-list", "bcoef-int", "weight-int", "signal-values-int",
            "bcoef-values-str", "estimate-list", "operator-dict", "explicit-signal-index",
            "ones-bcoef-values"])
    def test_wrong_section_types_exit_two(self, tmp_path, capsys, override):
        path = _write_config(tmp_path, _base_config(out_dir=str(tmp_path / "o"),
                                                    **override))
        assert main(["kernel", "--config", path]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("override", [
        {"kernel_times": [math.nan]},
        {"kernel_times": [1.0, math.inf]},
        {"quad_tol": math.nan},
        {"quad_tol": math.inf},
        {"t_grid": {"t_min": 1e-2, "t_max": math.inf, "count": 16}},
        {"rho": math.nan},
        {"rho": 10 ** 400},
        {"params": [[math.nan, 0.0]]},
        {"lambdas": [-math.inf]},
    ], ids=["kernel-times-nan", "kernel-times-inf", "quad-tol-nan", "quad-tol-inf",
            "t-max-inf", "rho-nan", "rho-overflow", "alpha-nan", "lambda-minus-inf"])
    def test_nonfinite_numbers_exit_two(self, tmp_path, capsys, monkeypatch, override):
        # a NaN that got through would never meet the stopping test: keep the cap low
        monkeypatch.setattr(jhl.quadrature, "MAX_ORDER", 64)
        path = _write_config(tmp_path, _base_config(out_dir=str(tmp_path / "o"),
                                                    **override))
        assert main(["kernel", "--config", path]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "config"
        assert "finite" in record["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("weight, contents", [
        ({"kind": "file", "path": "missing.txt"}, None),
        ({"kind": "file", "path": "w.txt"}, "1.0\nheavy\n"),
        ({"kind": "file", "path": "w.txt"}, "1.0\n" * 11),
        ({"kind": "file", "path": "w.txt"}, "1.0\n" * 11 + "nan\n"),
        ({"kind": "file", "path": "w.txt"}, "1.0\n" * 11 + "0.0\n"),
        ({"kind": "explicit", "values": [1.0] * 11}, None),
        ({"kind": "explicit", "values": [1.0] * 11 + [-2.0]}, None),
        # keys the kind never reads
        ({"kind": "constant", "exponent": 2}, None),
        ({"kind": "explicit", "values": [1.0] * 12, "exponent": 1.0}, None),
        ({"kind": "power", "exponent": 1.0, "values": [1.0] * 12}, None),
        ({"kind": "file", "path": "w.txt", "values": [1.0] * 12}, "1.0\n" * 12),
        ({"kind": "constant", "path": "w.txt"}, "1.0\n" * 12),
        ({"kind": "explicit", "values": [1.0] * 12, "path": "w.txt"}, "1.0\n" * 12),
    ], ids=["file-missing", "file-not-numeric", "file-short", "file-nan",
            "file-zero", "explicit-short", "explicit-negative", "constant-exponent",
            "explicit-exponent", "power-values", "file-values", "constant-path",
            "explicit-path"])
    def test_bad_weights_exit_two_at_load(self, tmp_path, capsys, weight, contents):
        if contents is not None:
            (tmp_path / weight["path"]).write_text(contents)
        if "path" in weight:
            weight = {**weight, "path": str(tmp_path / weight["path"])}
        path = _write_config(tmp_path, _base_config(out_dir=str(tmp_path / "o"),
                                                    weights=[weight]))
        assert main(["norms", "--config", path]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("lacunary", [
        {"ratio": 2.0, "window": 1100},
        {"ratio": 1e160, "window": 1},
    ], ids=["window-underflow", "ratio-overflow"])
    def test_lacunary_without_valid_sequence_exits_two(self, tmp_path, capsys, lacunary):
        path = _write_config(tmp_path, _base_config(out_dir=str(tmp_path / "o"),
                                                    lacunary=lacunary))
        assert main(["operators", "--config", path]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "config"
        assert "lacunary" in record["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, reader", [
        ("operators", {"operators": ["s_star"]}),
        ("norms", {"operators": ["s_star"]}),
        ("verify", {"estimates": ["qn_bounds"]}),
    ], ids=["operators", "norms", "verify"])
    @pytest.mark.parametrize("reads, code", [(True, 2), (False, 0)], ids=["read", "unread"])
    def test_bcoef_mismatch_fails_only_commands_that_read_it(self, tmp_path, capsys,
                                                             command, reader, reads, code):
        # window 2 spans 6 lacunary steps; bcoef is resolved only where s_star
        # or a window estimate reads it
        overrides = {"bcoef": {"kind": "explicit", "values": [1.0] * 4}}
        if reads:
            overrides.update(reader)
        path = _write_config(tmp_path, _base_config(out_dir=str(tmp_path / "o"),
                                                    **overrides))
        assert main([command, "--config", path]) == code
        if code == 2:
            record = json.loads(capsys.readouterr().err)
            assert record["error"] == "config"
            assert "bcoef" in record["message"]

    @pytest.mark.parametrize("command", ["verify", "norms"])
    def test_one_size_exits_two(self, tmp_path, capsys, command):
        # the sweeps rate growth between sizes, so one size is a config error
        path = _write_config(tmp_path, _base_config(out_dir=str(tmp_path / "o"), sizes=[16]))
        assert main([command, "--config", path]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "config"
        assert "sizes" in record["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, key", [("operators", "t_grid"),
                                              ("norms", "norms_t_grid")])
    @pytest.mark.parametrize("t_max, code", [(1.5, 2), (2.0, 0)], ids=["narrow", "factor-2"])
    def test_oscillation_grid_spans_a_factor_of_two(self, tmp_path, capsys, command, key,
                                                    t_max, code):
        # below a factor of 2 the grid holds one dyadic band edge
        grid = {"t_min": 1.0, "t_max": t_max, "count": 8}
        path = _write_config(tmp_path, _base_config(
            out_dir=str(tmp_path / "o"), operators=["oscillation"],
            t_grid=grid, norms_t_grid=grid))
        assert main([command, "--config", path]) == code
        if code == 2:
            record = json.loads(capsys.readouterr().err)
            assert record["error"] == "config"
            assert record["message"].split()[0] == key
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("override", [
        {"out_dir": None},
        {"out_dir": ""},
        {"out_dir": 5},
        {"weights": [{"kind": "file", "path": 5}]},
        {"weights": [{"kind": "constant", "path": None}]},
    ], ids=["out-dir-null", "out-dir-empty", "out-dir-int", "weight-path-int",
            "weight-path-null"])
    def test_non_string_paths_exit_two(self, tmp_path, capsys, monkeypatch, override):
        monkeypatch.chdir(tmp_path)
        path = _write_config(tmp_path, _base_config(**override))
        assert main(["norms", "--config", path]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"
        assert sorted(os.listdir(tmp_path)) == ["config.json"]
        with pytest.raises(ConfigError):
            RunConfig.from_dict(override)

    def test_file_weight_read_at_load(self, tmp_path):
        weights = tmp_path / "w.txt"
        weights.write_text("".join(f"{n + 1}\n" for n in range(12)))
        config = load_config(_write_config(tmp_path, _base_config(
            weights=[{"kind": "file", "path": str(weights)}])))
        weights.unlink()
        assert_allclose(config.weights[0].resolve(12), np.arange(1.0, 13.0))
        assert config.to_dict()["weights"] == [{"kind": "file", "path": str(weights)}]

    def test_bad_seed_override(self, tmp_path):
        path = _write_config(tmp_path, _base_config())
        assert main(["verify", "--config", path, "--seed", "-1"]) == 2

    def test_bad_worker_override(self, tmp_path):
        path = _write_config(tmp_path, _base_config())
        assert main(["verify", "--config", path, "--workers", "0"]) == 2

    @pytest.mark.parametrize("command", ["kernel", "operators", "verify", "norms"])
    def test_uncreatable_out_dir_exits_two_before_computing(self, tmp_path, capsys,
                                                            monkeypatch, command):
        def computed(*args, **kwargs):
            raise AssertionError("computed before the output directory was made")

        for name in ("kernel_matrix", "_operator_table", "_run_tasks"):
            monkeypatch.setattr(jhl.cli, name, computed)
        blocker = tmp_path / "file"
        blocker.write_text("")
        path = _write_config(tmp_path, _base_config())
        assert main([command, "--config", path, "--out", str(blocker / "sub")]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "config"
        assert "output directory" in record["message"]

    def test_numeric_failure_exits_three(self, tmp_path, monkeypatch, capsys):
        clear_caches()
        monkeypatch.setattr(jhl.quadrature, "MAX_ORDER", 8)
        path = _write_config(tmp_path, _base_config(
            out_dir=str(tmp_path / "o"), quad_tol=1.1e-12))
        code = main(["kernel", "--config", path])
        clear_caches()
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"] == "numeric"


def _scipy_modules_after(tmp_path, command, cfg):
    """Names of the scipy modules a fresh interpreter holds after
    `jhl <command>` on cfg, which must exit 0."""
    path = _write_config(tmp_path, cfg, f"{command}.json")
    code = ("import json, sys\nfrom jhl.cli import main\n"
            f"assert main([{command!r}, '--config', {path!r}]) == 0\n"
            "print(json.dumps(sorted(m for m in sys.modules\n"
            "                        if m.partition('.')[0] == 'scipy')))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(jhl.__file__)))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, timeout=120, check=True,
                            env={**os.environ, "PYTHONPATH": src})
    return json.loads(result.stdout)


class TestKernelCommand:
    def test_outputs_and_identity(self, tmp_path):
        out = tmp_path / "run"
        path = _write_config(tmp_path, _base_config(out_dir=str(out)))
        assert main(["kernel", "--config", path]) == 0
        tag = out / "kernel" / "alpha0_beta0"
        near_identity = _read_matrix(tag / "kernel_00.csv", 12)
        off = near_identity - np.eye(12)
        assert np.abs(off).max() < 1e-9
        report = json.loads((tag / "report.json").read_text())
        assert report["size"] == 12
        assert max(report["defects"]["cross_method"]) < 1e-8
        assert max(report["defects"]["markov"]) < 1e-8
        assert max(report["defects"]["semigroup"]) < 1e-8
        assert (out / "kernel" / "timings.json").exists()

    def test_timings_charge_csv_writing_to_its_own_entry(self, tmp_path):
        out = tmp_path / "run"
        path = _write_config(tmp_path, _base_config(
            out_dir=str(out), params=[[0.0, 0.0], [0.5, -0.5]]))
        assert main(["kernel", "--config", path]) == 0
        cells = json.loads((out / "kernel" / "timings.json").read_text())["cells"]
        assert set(cells) == {f"{tag}{part}" for tag in ("alpha0_beta0", "alpha0.5_beta-0.5")
                              for part in ("", "/write", "/spectral")}
        for tag in ("alpha0_beta0", "alpha0.5_beta-0.5"):
            assert 0.0 < cells[f"{tag}/write"] <= cells[tag]
            assert cells[f"{tag}/spectral"] > 0.0
            assert cells[f"{tag}/write"] + cells[f"{tag}/spectral"] <= cells[tag]

    def test_report_routes_each_time(self, tmp_path):
        # At size 64, t = 1e4 is past 64^2 / 4 and takes the Gauss-Laguerre
        # route, whose entry in "orders" is null; t = 0.1 keeps its
        # Gauss-Jacobi order.
        cfg = _base_config(params=[[3.0, -0.9]], sizes=[16, 64], kernel_times=[0.1, 1e4])
        out = tmp_path / "run"
        path = _write_config(tmp_path, {**cfg, "out_dir": str(out)})
        assert main(["kernel", "--config", path]) == 0
        report = json.loads((out / "kernel" / "alpha3_beta-0.9" / "report.json").read_text())
        assert report["routes"] == ["jacobi", "laguerre"]
        assert report["orders"] == [79, None]
        path = _write_config(tmp_path, {**cfg, "kernel_times": [1e4], "out_dir": str(out)})
        assert main(["kernel", "--config", path]) == 0
        report = json.loads((out / "kernel" / "alpha3_beta-0.9" / "report.json").read_text())
        assert report["routes"] == ["laguerre"] and report["orders"] == [None]

    def test_report_orders_are_those_of_each_time(self, tmp_path):
        # Each time's kernel is built at its own order, not at the order of
        # the largest Gauss-Jacobi time.
        out = tmp_path / "run"
        path = _write_config(tmp_path, {"params": [[0, 0]], "sizes": [32, 64],
                                        "kernel_times": [0.1, 500], "out_dir": str(out)})
        assert main(["kernel", "--config", path]) == 0
        report = json.loads((out / "kernel" / "alpha0_beta0" / "report.json").read_text())
        assert report["routes"] == ["jacobi", "jacobi"]
        assert report["orders"] == [79, 151]

    def test_defects_are_those_of_the_written_kernel(self, tmp_path):
        # At quad_tol 1e-8 the t = 15 kernel is built at order 31, against 32
        # at the default tolerance, and the two disagree in the markov defect
        # from its 13th digit: the report must measure the kernel written.
        out = tmp_path / "run"
        path = _write_config(tmp_path, {"params": [[0, 0]], "sizes": [16], "quad_tol": 1e-8,
                                        "kernel_times": [15.0], "out_dir": str(out)})
        assert main(["kernel", "--config", path]) == 0
        tag = out / "kernel" / "alpha0_beta0"
        defects = json.loads((tag / "report.json").read_text())["defects"]
        # A C-contiguous copy: rows of the strided column view give other dot bits.
        data = np.loadtxt(tag / "kernel_00.csv", delimiter=",", skiprows=1)
        written = np.ascontiguousarray(data[:, 2].reshape(16, 16))
        v = weight_at_one(JacobiParams(0.0, 0.0), 16)
        markov = max(float(abs(written[n] @ v - v[n]) / v[n]) for n in range(5))
        half = kernel_tensor(JacobiParams(0.0, 0.0), [7.5], 16, 1e-8)[0]
        semigroup = float(np.abs((half[:4] @ half)[:, :4] - written[:4, :4]).max())
        assert defects["markov"] == [markov]
        assert defects["semigroup"] == [semigroup]

    def test_reruns_are_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        p1 = _write_config(tmp_path, _base_config(out_dir=str(out1)), "c1.json")
        p2 = _write_config(tmp_path, _base_config(out_dir=str(out2)), "c2.json")
        assert main(["kernel", "--config", p1]) == 0
        assert main(["kernel", "--config", p2]) == 0
        for name in ("kernel_00.csv", "kernel_01.csv", "kernel_dt_00.csv",
                     "report.json"):
            a = (out1 / "kernel" / "alpha0_beta0" / name).read_bytes()
            b = (out2 / "kernel" / "alpha0_beta0" / name).read_bytes()
            assert a == b, name

    def test_each_params_writes_what_it_writes_alone(self, tmp_path):
        # The same files as runs of one params each, on an empty memo.
        cfg = _base_config(params=[[0.0, 0.0], [0.5, -0.5]])
        out1, out2 = tmp_path / "a", tmp_path / "b"
        clear_caches()
        path = _write_config(tmp_path, {**cfg, "out_dir": str(out1)}, "c1.json")
        assert main(["kernel", "--config", path]) == 0
        for params in cfg["params"]:
            clear_caches()
            path = _write_config(tmp_path, {**cfg, "params": [params],
                                            "out_dir": str(out2)}, "c2.json")
            assert main(["kernel", "--config", path]) == 0
        assert _data_files(out1) == _data_files(out2)


    def test_eigensolver_failure_exits_three(self, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        path = _write_config(tmp_path, _base_config(out_dir=str(tmp_path / "o")))
        assert main(["kernel", "--config", path]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "numeric"


class TestParamsTasks:
    """kernel and operators run their params through the same tasks as verify
    and norms."""

    @pytest.mark.parametrize("command", ["kernel", "operators"])
    def test_parallel_matches_sequential(self, tmp_path, monkeypatch, command):
        spy = _PoolSpy(monkeypatch)
        _assert_workers_agree(tmp_path, command, _base_config(
            params=[[0.0, 0.0], [0.5, -0.5]], operators=list(OPERATOR_NAMES)))
        assert spy.built == [2]


def _task_builds(monkeypatch, argv):
    """Run `jhl <argv>` with one worker; per task, in task order, the
    (alpha, beta, times, derivative) of every kernel tensor it built."""
    quad_kernels, run_task = jhl.semigroup._quad_kernels, jhl.cli._run_task
    tasks = []

    def recording(params, times, size, tol, derivative=False):
        tasks[-1].append((params.alpha, params.beta, tuple(times.tolist()), derivative))
        return quad_kernels(params, times, size, tol, derivative)

    def task(function, *args):
        tasks.append([])
        return run_task(function, *args)

    monkeypatch.setattr(jhl.semigroup, "_quad_kernels", recording)
    monkeypatch.setattr(jhl.cli, "_run_task", task)
    assert main([*argv, "--workers", "1"]) in (0, 4)
    return tasks


# The benchmark's verify estimates: all but cotlar.
BENCH_ESTIMATES = ["kernel_decay", "kernel_smoothness", "dt_sup", "qn_bounds",
                   "lacunary_tail", "poly_bound"]


class TestTaskKernels:
    """A task builds each kernel tensor its estimates or operators read once,
    and no other, and passes it to them; nothing else builds one."""

    @pytest.mark.parametrize("command, overrides, reads", [
        ("verify", {"estimates": ["poly_bound", "qn_bounds"]}, [("lacunary", False)]),
        ("verify", {"estimates": ["dt_sup"]}, [("t_grid", True)]),
        ("verify", {"estimates": ["kernel_smoothness", "poly_bound"]},
         [("t_grid", False), ("t_grid", True)]),
        ("verify", {"estimates": ["cotlar", "kernel_decay", "lacunary_tail"]},
         [("lacunary", False), ("t_grid", False), ("t_grid", True)]),
        ("norms", {"operators": ["s_star"]}, [("lacunary", False)]),
        ("norms", {"operators": ["jump"]}, [("norms_t_grid", False)]),
        ("norms", {"operators": ["oscillation", "s_star"]},
         [("lacunary", False), ("norms_t_grid", False)]),
        ("operators", {"operators": ["s_star"]}, [("lacunary", False)]),
        ("operators", {"operators": ["variation", "jump"]}, [("t_grid", False)]),
        ("operators", {"operators": list(OPERATOR_NAMES)},
         [("lacunary", False), ("t_grid", False)]),
    ])
    def test_each_task_builds_what_it_reads_once(self, tmp_path, monkeypatch, command,
                                                 overrides, reads):
        cfg = _base_config(params=[[0.0, 0.0], [0.5, -0.5]], out_dir=str(tmp_path / "o"),
                           **overrides)
        config = RunConfig.from_dict(cfg)
        times = {"t_grid": config.t_grid.build().times,
                 "norms_t_grid": config.norms_t_grid.build().times,
                 "lacunary": config.lacunary.build().values}
        tasks = _task_builds(monkeypatch, [command, "--config", _write_config(tmp_path, cfg)])
        if command == "verify":
            assert tasks.pop(0) == [(-0.5, -0.5, tuple(times["norms_t_grid"].tolist()), False)]
        assert [sorted(task) for task in tasks] == [
            sorted((alpha, beta, tuple(times[grid].tolist()), derivative)
                   for grid, derivative in reads)
            for alpha, beta in cfg["params"]]

    @pytest.mark.parametrize("command, overrides, total", [
        ("verify", {"estimates": BENCH_ESTIMATES}, 10),
        ("norms", {}, 6),
        ("operators", {}, 6),
        ("kernel", {}, 36),
    ])
    def test_build_totals_of_the_benchmark_runs(self, tmp_path, monkeypatch, command,
                                                 overrides, total):
        # The benchmark's workloads run the default config at larger sizes;
        # the tensors built do not depend on the sizes. jhl kernel builds K,
        # dK and K at t/2 for each of its 4 times.
        path = _write_config(tmp_path, {"sizes": [8, 16], "out_dir": str(tmp_path / "o"),
                                        **overrides})
        tasks = _task_builds(monkeypatch, [command, "--config", path])
        assert sum(len(task) for task in tasks) == total
        assert all(len(set(task)) == len(task) for task in tasks)

    def test_kernel_keeps_no_earlier_time(self, tmp_path, monkeypatch):
        # When a time's CSVs are written, no K or dK built for an earlier
        # time (its own or at half of it) is still held.
        kernel_times = [0.1, 1.0, 10.0]
        index = {**{t: i for i, t in enumerate(kernel_times)},
                 **{t / 2.0: i for i, t in enumerate(kernel_times)}}
        quad_kernels, write = jhl.semigroup._quad_kernels, jhl.cli._write_matrix_csv
        built, held = [], []

        def recording(params, times, size, tol, derivative=False):
            out = quad_kernels(params, times, size, tol, derivative)
            built.append((index[float(times[0])], weakref.ref(out)))
            return out

        def writing(path, matrix):
            now = int(os.path.basename(path).split("_")[-1].split(".")[0])
            held.append([i for i, ref in built if i < now and ref() is not None])
            write(path, matrix)

        monkeypatch.setattr(jhl.semigroup, "_quad_kernels", recording)
        monkeypatch.setattr(jhl.cli, "_write_matrix_csv", writing)
        path = _write_config(tmp_path, _base_config(
            out_dir=str(tmp_path / "o"), kernel_times=kernel_times))
        assert main(["kernel", "--config", path]) == 0
        assert len(built) == 9
        assert held == [[]] * 6


class TestScipyFreeCommands:
    @pytest.mark.parametrize("command", ["kernel", "verify", "norms", "operators"])
    def test_run_leaves_scipy_unimported(self, tmp_path, command):
        # Importing scipy.linalg costs each process about 0.3 s and 28 MB;
        # both kernel routes and kernel's spectral cross-check need only numpy.
        out = tmp_path / "run"
        cfg = _base_config(out_dir=str(out),
                           params=[[-0.5, -0.5], [0.0, 0.0], [2.5, 0.5], [3.0, -0.9]])
        assert _scipy_modules_after(tmp_path, command, cfg) == []
        if command == "kernel":
            # The cross-check still agrees with quadrature.
            reports = sorted((out / "kernel").glob("*/report.json"))
            assert len(reports) == 4
            for report in reports:
                assert max(json.loads(report.read_text())["defects"]["cross_method"]) < 1e-8


class TestMatrixWriter:
    VALUES = [-0.0, 5e-324, 1e-300, 1e308, 1.0, 1e16, 0.1]
    FALLBACK = [0.0, -0.0, 5e-324, np.inf, np.nan, 1e300]  # values only `%` formats

    def _matrices(self):
        rng = np.random.default_rng(11)
        for value in self.VALUES:
            yield np.array([[value]])
        for shape in ((7, 7), (3, 5)):
            matrix = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
            matrix.flat[:len(self.VALUES)] = self.VALUES
            yield matrix
        yield np.array([[0.0, -0.0, 1.0], [-0.0, 0.0, -0.0]])
        yield rng.choice(rng.standard_normal(4), size=(9, 6))  # repeats across rows and columns
        matrix = rng.standard_normal((5, 8))
        yield matrix.T
        matrix.setflags(write=False)
        yield matrix
        yield np.zeros((0, 0))
        yield np.zeros((0, 3))
        yield kernel_tensor(JacobiParams(0.0, 0.0), [1.0], 64)[0]  # bitwise symmetric

    def test_matches_generic_writer(self, tmp_path):
        ref, new = tmp_path / "ref.csv", tmp_path / "new.csv"
        for matrix in self._matrices():
            rows, cols = matrix.shape
            _write_csv(str(ref), ("row", "col", "value"),
                       ((r, c, matrix[r, c]) for r in range(rows) for c in range(cols)))
            _write_matrix_csv(str(new), matrix)
            assert new.read_bytes() == ref.read_bytes(), matrix.shape

    @staticmethod
    def _assert_formats_like_percent(values):
        values = np.asarray(values, dtype=np.float64)
        values = np.concatenate([values, -values])
        expected = [b"%.17g" % v for v in values.tolist()]
        got = format_17g(values).tolist()
        wrong = [(v, g, e) for v, g, e in zip(values.tolist(), got, expected) if g != e]
        assert not wrong, wrong[:5]

    def test_formats_powers_of_ten_and_their_neighbours(self):
        powers = np.array([float(f"1e{e}") for e in range(-300, 301)])
        self._assert_formats_like_percent(np.concatenate([
            powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)]))

    def test_formats_exact_ties(self):
        # N / 8 and N / 16 for odd N near 2^50 end in a 5 at the 18th digit.
        odd = 2.0 ** 50 + np.arange(-999, 1000, 2)
        self._assert_formats_like_percent(np.concatenate([odd / 8, odd / 16]))

    def test_formats_edges(self):
        switch = np.array([1e-5, 1e-4])
        self._assert_formats_like_percent([
            9.99999999999999999e-5, 99999999999999999.0,  # round up across 10^k
            *switch, *np.nextafter(switch, 0.0), *np.nextafter(switch, 1.0),
            0.0, 5e-324, np.finfo(np.float64).tiny, 1e308, np.inf, np.nan,
            1e16, np.nextafter(1e16, 0.0), 1e-290, np.nextafter(1e-290, 0.0),
            0.1, 1.0 / 3.0, 123456.789, 2.0 ** 53, 2.0 ** 53 + 2.0])
        assert format_17g(np.array([9.99999999999999999e-5]))[0] == b"0.0001"

    def test_formats_random_bit_patterns(self):
        rng = np.random.default_rng(24)
        bits = rng.integers(0, 2 ** 64, 100_000, dtype=np.uint64, endpoint=False)
        self._assert_formats_like_percent(bits.view(np.float64))
        # and values in the range the digit arithmetic covers
        self._assert_formats_like_percent(
            rng.random(100_000) * 10.0 ** rng.integers(-290, 16, 100_000))

    @pytest.mark.parametrize("params", RunConfig().params, ids=str)
    def test_fallback_formats_under_one_percent_of_a_kernel(self, tmp_path, monkeypatch,
                                                           params):
        # A digit path that quietly stopped certifying would still write the
        # right bytes, only slower; this makes it fail.
        fallback = []
        percent = jhl._format17.percent_17g

        def spy(values):
            fallback.extend(values)
            return percent(values)

        monkeypatch.setattr(jhl._format17, "percent_17g", spy)
        matrix = kernel_tensor(params, [1.0], 64)[0]
        _write_matrix_csv(str(tmp_path / "kernel.csv"), matrix)
        assert len(fallback) < 0.01 * np.unique(matrix).size

    @pytest.mark.parametrize("size", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
    def test_formats_across_chunk_boundaries(self, monkeypatch, size):
        rng = np.random.default_rng(size)
        values = rng.standard_normal(size) * 10.0 ** rng.integers(-290, 16, size)
        # fallback values at the first and last slot of every chunk
        ends = [i for start in range(0, size, CHUNK)
                for i in (start, min(start + CHUNK, size) - 1)]
        values[ends] = rng.choice(self.FALLBACK, len(ends))
        whole_chunk = size > 2 * CHUNK
        if whole_chunk:  # one chunk of fallback values only: `_round17` gets an empty k
            values[CHUNK:2 * CHUNK] = np.resize(self.FALLBACK, CHUNK)
        sizes = []
        round17 = jhl._format17._round17

        def spy(x, k):
            sizes.append(k.size)
            return round17(x, k)

        monkeypatch.setattr(jhl._format17, "_round17", spy)
        assert format_17g(values).tolist() == [b"%.17g" % v for v in values.tolist()]
        assert len(sizes) == -(-size // CHUNK)
        assert not whole_chunk or sizes[1] == 0

    def test_memory_does_not_grow_with_the_vector(self):
        # 32,896 distinct values: formatting them all at once takes about 9 MB
        # of temporaries; a chunk's take under 1 MB, next to the ~2 MB
        # of bytes objects returned.
        matrix = kernel_tensor(JacobiParams(0.0, 0.0), [1.0], 256)[0]
        values = np.unique(matrix.view(np.int64)).view(np.float64)
        tracemalloc.start()
        try:
            format_17g(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4e6, peak


class TestOperatorsCommand:
    def test_table_and_margin(self, tmp_path):
        out = tmp_path / "run"
        path = _write_config(tmp_path, _base_config(out_dir=str(out),
                                                    operators=list(OPERATOR_NAMES)))
        assert main(["operators", "--config", path]) == 0
        table = out / "operators" / "alpha0_beta0" / "operators.csv"
        header = table.read_text().splitlines()[0].split(",")
        assert header[:3] == ["n", "variation", "oscillation"]
        assert header[-2:] == ["s_star", "margin"]
        assert "jump_lam0.25" in header and "jump_lam1" in header
        data = np.loadtxt(table, delimiter=",", skiprows=1)
        assert data.shape[0] == 12
        assert np.all(data[:, -1] >= 0.0)
        report = json.loads(
            (out / "operators" / "alpha0_beta0" / "report.json").read_text())
        assert report["min_margin"] >= 0.0
        assert 0 <= report["argmax_variation"] < 12

    def test_narrow_grid_without_oscillation(self, tmp_path):
        # the factor-2 span is the oscillation bands' need only
        out = tmp_path / "run"
        path = _write_config(tmp_path, {"operators": ["variation"], "params": [[0.0, 0.0]],
                                        "sizes": [8, 16], "out_dir": str(out),
                                        "t_grid": {"t_min": 1, "t_max": 1.5}})
        assert main(["operators", "--config", path]) == 0
        tag_dir = out / "operators" / "alpha0_beta0"
        assert (tag_dir / "operators.csv").read_text().splitlines()[0] == "n,variation"
        report = json.loads((tag_dir / "report.json").read_text())
        assert set(report) == {"alpha", "beta", "size", "argmax_variation"}

    @pytest.mark.parametrize("operators", [["jump", "variation"], ["s_star"],
                                           ["oscillation", "jump"]])
    def test_listed_operators_are_columns_of_the_full_table(self, tmp_path, operators):
        tables = {}
        for name, listed in (("full", list(OPERATOR_NAMES)), ("part", operators)):
            out = tmp_path / name
            path = _write_config(tmp_path, _base_config(out_dir=str(out), operators=listed))
            assert main(["operators", "--config", path]) == 0
            tag_dir = out / "operators" / "alpha0_beta0"
            lines = (tag_dir / "operators.csv").read_text().splitlines()
            columns = list(zip(*(line.split(",") for line in lines)))
            tables[name] = ({column[0]: column for column in columns},
                            json.loads((tag_dir / "report.json").read_text()))
        (full, full_report), (part, part_report) = tables["full"], tables["part"]
        expected = [name for name in full if name == "n" or any(
            name == op or name.startswith(f"{op}_lam") for op in operators)]
        if {"variation", "jump"} <= set(operators):
            expected.append("margin")
        assert list(part) == expected
        assert all(part[name] == full[name] for name in part)
        assert part_report == {key: value for key, value in full_report.items()
                               if key in ("alpha", "beta", "size")
                               or (key == "argmax_variation" and "variation" in operators)
                               or (key == "min_margin" and "margin" in part)}

    def test_empty_signal_writes_header_only(self, tmp_path):
        out = tmp_path / "run"
        cfg = _base_config(out_dir=str(out),
                           signal={"kind": "explicit", "values": []})
        path = _write_config(tmp_path, cfg)
        assert main(["operators", "--config", path]) == 0
        lines = (out / "operators" / "alpha0_beta0" /
                 "operators.csv").read_text().splitlines()
        assert len(lines) == 1

    def test_oversized_signal_rejected(self, tmp_path):
        cfg = _base_config(out_dir=str(tmp_path / "o"),
                           signal={"kind": "explicit", "values": [1.0] * 13})
        path = _write_config(tmp_path, cfg)
        assert main(["operators", "--config", path]) == 2


class TestVerifyCommand:
    def test_summary_and_reports(self, tmp_path):
        out = tmp_path / "run"
        path = _write_config(tmp_path, _base_config(out_dir=str(out)))
        assert main(["verify", "--config", path]) == 0
        base = out / "verify"
        lines = (base / "summary.csv").read_text().splitlines()
        assert lines[0] == "estimate,alpha,beta,verdict,constant,stability_ratio"
        assert len(lines) == 3  # one estimate cell plus the negative control
        assert lines[-1].startswith("negative_control,")
        report = json.loads((base / "alpha0_beta0" / "poly_bound.json").read_text())
        assert "runtime" not in report
        assert report["verdict"] in ("stable", "growing")
        control = json.loads((base / "negative_control.json").read_text())
        assert control["name"] == "theorem_norms_variation"
        assert json.loads((base / "timings.json").read_text())["cells"]

    def test_timings_charge_kernels_to_their_own_entry(self, tmp_path):
        out = tmp_path / "run"
        path = _write_config(tmp_path, _base_config(
            out_dir=str(out), estimates=["kernel_decay", "dt_sup"]))
        assert main(["verify", "--config", path]) in (0, 4)
        cells = json.loads((out / "verify" / "timings.json").read_text())["cells"]
        assert set(cells) == {"alpha0_beta0/kernels", "alpha0_beta0/kernel_decay",
                              "alpha0_beta0/dt_sup", "negative_control/kernels",
                              "negative_control"}
        assert all(seconds >= 0.0 for seconds in cells.values())

    def test_parallel_matches_sequential(self, tmp_path, monkeypatch):
        spy = _PoolSpy(monkeypatch)
        _assert_workers_agree(tmp_path, "verify", _base_config(
            params=[[0.0, 0.0], [0.5, -0.5]], estimates=["poly_bound", "dt_sup"]))
        assert spy.built == [2]

    def test_numeric_failure_in_worker_exits_three(self, tmp_path, monkeypatch, capsys):
        # the forked workers inherit the lowered cap, so every rule search fails there
        spy = _PoolSpy(monkeypatch)
        clear_caches()
        monkeypatch.setattr(jhl.quadrature, "MAX_ORDER", 8)
        path = _write_config(tmp_path, _base_config(
            out_dir=str(tmp_path / "o"), estimates=["kernel_decay"]))
        code = main(["verify", "--config", path, "--workers", "2"])
        clear_caches()
        assert spy.built == [2]
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"] == "numeric"

    def test_run_task_empties_memo(self):
        # A process that kept one task's memo for the next would reach a peak
        # memory that depends on which tasks it was given and in what layout.
        def task(fail):
            jhl._memo.memo(("probe",), lambda: 1)
            if fail:
                raise ValueError("task failed")
            return 2

        clear_caches()
        assert _run_task(task, False) == 2
        assert not jhl._memo._cache
        with pytest.raises(ValueError):
            _run_task(task, True)
        assert not jhl._memo._cache

    @pytest.mark.parametrize("command", ["kernel", "operators", "verify", "norms"])
    def test_one_worker_builds_no_pool(self, tmp_path, monkeypatch, command):
        def refuse(*args, **kwargs):
            raise AssertionError("a process pool was built for one worker")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        path = _write_config(tmp_path, _base_config(
            out_dir=str(tmp_path / "o"), params=[[0.0, 0.0], [0.5, -0.5]]))
        assert main([command, "--config", path, "--workers", "1"]) == 0
        assert main([command, "--config", path]) == 0


class TestNormsCommand:
    def test_table_layout(self, tmp_path):
        out = tmp_path / "run"
        path = _write_config(tmp_path, _base_config(out_dir=str(out)))
        assert main(["norms", "--config", path]) == 0
        lines = (out / "norms" / "norms.csv").read_text().splitlines()
        assert lines[0] == ("params,operator,p,weight,size,norm_estimate,"
                            "weak11_estimate,stability_ratio")
        # one params x one operator x (configured pair + critical-power pair)
        # x two sizes
        assert len(lines) == 5
        body = [line.split(",") for line in lines[1:]]
        assert body == sorted(body, key=lambda r: (r[0], r[1], float(r[2]),
                                                   r[3], int(r[4])))
        weights_seen = {row[3] for row in body}
        assert weights_seen == {"const", "pow2"}
        assert all(float(row[5]) > 0.0 and float(row[6]) > 0.0 for row in body)

    def test_linear_time_grids(self, tmp_path):
        # "geometric": false builds evenly spaced grids; norms runs on them
        # and reports only finite values.
        out = tmp_path / "run"
        grids = {"t_grid": {"t_min": 1e-2, "t_max": 10.0, "count": 24, "geometric": False},
                 "norms_t_grid": {"t_min": 1e-2, "t_max": 1e3, "count": 24,
                                  "geometric": False}}
        path = _write_config(tmp_path, _base_config(out_dir=str(out), **grids))
        config = load_config(path)
        for key, grid in (("t_grid", config.t_grid), ("norms_t_grid", config.norms_t_grid)):
            spec = grids[key]
            assert np.array_equal(grid.build().times,
                                  np.linspace(spec["t_min"], spec["t_max"], spec["count"]))
        assert main(["norms", "--config", path]) == 0
        rows = [line.split(",") for line in
                (out / "norms" / "norms.csv").read_text().splitlines()[1:]]
        assert len(rows) == 4
        assert all(math.isfinite(float(value)) for row in rows for value in row[5:])

    @pytest.mark.parametrize("operator", ["variation", "jump"])
    def test_non_finite_image_exits_three(self, tmp_path, monkeypatch, capsys, operator):
        # a NaN in one family's images ends the run instead of dropping that
        # family from the max
        images_of = jhl.verify.operator_images

        def poisoned(*args):
            images = images_of(*args)
            images[(-1,) * images.ndim] = np.nan
            return images

        monkeypatch.setattr(jhl.verify, "operator_images", poisoned)
        out = tmp_path / "run"
        path = _write_config(tmp_path, _base_config(out_dir=str(out), operators=[operator]))
        assert main(["norms", "--config", path]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "numeric"
        assert not (out / "norms" / "norms.csv").exists()

    @pytest.mark.parametrize("command", ["operators", "norms"])
    def test_non_finite_kernel_exits_three(self, tmp_path, monkeypatch, capsys, command):
        # a NaN kernel entry ends the run where the tensor is built, so no
        # jump column is written next to NaN variation ones
        quad_kernels = jhl.semigroup._quad_kernels

        def poisoned(*args, **kwargs):
            out = quad_kernels(*args, **kwargs)
            out[-1, 0, 0] = np.nan
            return out

        clear_caches()
        monkeypatch.setattr(jhl.semigroup, "_quad_kernels", poisoned)
        out = tmp_path / "run"
        path = _write_config(tmp_path, _base_config(out_dir=str(out), operators=["jump"]))
        code = main([command, "--config", path])
        clear_caches()
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"] == "numeric"
        assert not list(out.rglob("*.csv"))

    def test_timings_charge_kernels_to_their_own_entry(self, tmp_path):
        out = tmp_path / "run"
        path = _write_config(tmp_path, _base_config(
            out_dir=str(out), operators=["variation", "s_star"]))
        assert main(["norms", "--config", path]) == 0
        cells = json.loads((out / "norms" / "timings.json").read_text())["cells"]
        assert set(cells) == {"alpha0_beta0/kernels", "alpha0_beta0/variation",
                              "alpha0_beta0/s_star"}
        assert all(seconds >= 0.0 for seconds in cells.values())

    @pytest.mark.parametrize("override", [
        {"weights": [{"kind": "power", "exponent": 400}]},
        {"weights": [{"kind": "power", "exponent": -400}]},
        {"p_values": [400]},
    ], ids=["power-overflow", "power-underflow", "critical-power-overflow"])
    def test_power_weight_out_of_range_exits_two(self, tmp_path, capsys, override):
        # 12^400 overflows and 12^-400 underflows; the (n+1)^p pair added for
        # each p overflows the same way
        path = _write_config(tmp_path, _base_config(out_dir=str(tmp_path / "o"), **override))
        assert main(["norms", "--config", path]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "config"
        assert record["message"].startswith("weight pow")
        assert not (tmp_path / "o").exists()

    def test_pairing_mismatch_rejected(self, tmp_path):
        cfg = _base_config(out_dir=str(tmp_path / "o"), p_values=[2.0, 1.5])
        path = _write_config(tmp_path, cfg)
        assert main(["norms", "--config", path]) == 2

    def test_env_parallelism_is_deterministic(self, tmp_path, monkeypatch):
        spy = _PoolSpy(monkeypatch)
        _assert_workers_agree(tmp_path, "norms", _base_config(
            params=[[0.0, 0.0], [0.5, -0.5]], operators=["variation", "oscillation"]))
        assert spy.built == [2]
