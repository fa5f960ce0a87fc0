"""End-to-end tests for the jhl command line and its run configuration."""

import concurrent.futures
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import jhl._memo
import jhl.quadrature
from jhl.basis import JacobiParams
from jhl.cli import _run_task, _write_csv, _write_matrix_csv, main
from jhl.config import RunConfig, load_config
from jhl.errors import ConfigError
from jhl.semigroup import clear_caches, kernel_matrix


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
    ], ids=["t-grid-int", "lacunary-list", "bcoef-int", "weight-int", "signal-values-int",
            "bcoef-values-str", "estimate-list", "operator-dict"])
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
    ], ids=["file-missing", "file-not-numeric", "file-short", "file-nan",
            "file-zero", "explicit-short", "explicit-negative"])
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

    def test_numeric_failure_exits_three(self, tmp_path, monkeypatch, capsys):
        clear_caches()
        monkeypatch.setattr(jhl.quadrature, "MAX_ORDER", 8)
        path = _write_config(tmp_path, _base_config(
            out_dir=str(tmp_path / "o"), quad_tol=1.1e-12))
        code = main(["kernel", "--config", path])
        clear_caches()
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"] == "numeric"


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

    def test_memo_released_after_each_params(self, tmp_path):
        cfg = _base_config(params=[[0.0, 0.0], [0.5, -0.5]])
        out1, out2 = tmp_path / "a", tmp_path / "b"
        clear_caches()
        path = _write_config(tmp_path, {**cfg, "out_dir": str(out1)}, "c1.json")
        assert main(["kernel", "--config", path]) == 0
        tensor_kinds = {"K", "dK", "kernel", "eig", "rule", "table"}
        assert not [key for key in jhl._memo._cache if key[0] in tensor_kinds]
        # The same files as runs that each start on an empty memo.
        for params in cfg["params"]:
            clear_caches()
            path = _write_config(tmp_path, {**cfg, "params": [params],
                                            "out_dir": str(out2)}, "c2.json")
            assert main(["kernel", "--config", path]) == 0
        assert _data_files(out1) == _data_files(out2)


    def test_run_leaves_scipy_special_unimported(self, tmp_path):
        # Importing scipy.special adds about 4 MB to peak RSS; the quadrature
        # order certificate computes its Bessel tails without it.
        path = _write_config(tmp_path, _base_config(out_dir=str(tmp_path / "run")))
        code = ("import sys\nfrom jhl.cli import main\n"
                f"assert main(['kernel', '--config', {path!r}]) == 0\n"
                "print('scipy.special' in sys.modules)\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(jhl.__file__)))
        result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                text=True, timeout=120, check=True,
                                env={**os.environ, "PYTHONPATH": src})
        assert result.stdout.strip() == "False"


class TestMatrixWriter:
    VALUES = [-0.0, 5e-324, 1e-300, 1e308, 1.0, 1e16, 0.1]

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
        yield kernel_matrix(JacobiParams(0.0, 0.0), 1.0, 64).entries  # bitwise symmetric

    def test_matches_generic_writer(self, tmp_path):
        ref, new = tmp_path / "ref.csv", tmp_path / "new.csv"
        for matrix in self._matrices():
            rows, cols = matrix.shape
            _write_csv(str(ref), ("row", "col", "value"),
                       ((r, c, matrix[r, c]) for r in range(rows) for c in range(cols)))
            _write_matrix_csv(str(new), matrix)
            assert new.read_bytes() == ref.read_bytes(), matrix.shape


class TestOperatorsCommand:
    def test_table_and_margin(self, tmp_path):
        out = tmp_path / "run"
        path = _write_config(tmp_path, _base_config(out_dir=str(out)))
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

    @pytest.mark.parametrize("command", ["verify", "norms"])
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

    def test_pairing_mismatch_rejected(self, tmp_path):
        cfg = _base_config(out_dir=str(tmp_path / "o"), p_values=[2.0, 1.5])
        path = _write_config(tmp_path, cfg)
        assert main(["norms", "--config", path]) == 2

    def test_env_parallelism_is_deterministic(self, tmp_path, monkeypatch):
        spy = _PoolSpy(monkeypatch)
        _assert_workers_agree(tmp_path, "norms", _base_config(
            params=[[0.0, 0.0], [0.5, -0.5]], operators=["variation", "oscillation"]))
        assert spy.built == [2]
