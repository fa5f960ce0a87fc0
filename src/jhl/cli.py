"""Command line harness: kernel tables, operator tables, verification sweeps.

Exit codes: 0 success, 2 configuration error, 3 numeric failure, 4 verification
failure. All data files are byte-stable for a fixed config and seed; wall-clock
measurements go only to timings.json.

`--workers N` (or the `workers` config key) is a count of worker processes
for `verify` and `norms`. With N > 1 their independent tasks run in processes
forked from this one, so scipy is not imported again; results come back in
submission order and a worker's exception is raised here, so the data files
and the exit code are the same for any N. With N = 1 every task runs in this
process and no process is started.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import sys
import time

import numpy as np

from .basis import JacobiParams
from .config import OPERATOR_NAMES, RunConfig, load_config
from .errors import ConfigError, NumericFailure
from .semigroup import (
    clear_caches,
    kernel_dt_tensor,
    kernel_matrix,
    markov_defect,
    semigroup_defect,
)
from .verify import (
    operator_images,
    verify_cotlar,
    verify_dt_sup,
    verify_kernel_decay,
    verify_kernel_smoothness,
    verify_lacunary_tail,
    verify_poly_bound,
    verify_qn_bounds,
    verify_theorem_norms,
)
from .weights import WeightSpec

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4

POLY_SIZES = (100, 200, 400)
COTLAR_WINDOW = 4
COTLAR_Q = 1.5
COTLAR_RANDOM = 20


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % float(value)


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(_fmt(v) if not isinstance(v, str) else v
                                   for v in row) + "\n")


def _write_matrix_csv(path: str, matrix: np.ndarray) -> None:
    """The bytes `_write_csv` writes for the (row, col, value) entries of a
    matrix in row-major order, written one row at a time.

    Each distinct float64 bit pattern is formatted once, so a symmetric kernel
    formats about half its entries. Keying on bits, not values, keeps -0.0 and
    0.0 apart."""
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    bits, inverse = np.unique(matrix.view(np.int64).ravel(), return_inverse=True)
    cells = np.array(("%.17g\n" * bits.size % tuple(bits.view(np.float64).tolist()))
                     .split("\n"), dtype=object)
    text = cells[inverse.reshape(matrix.shape)]
    # One "%s" slot per column. Joined with the row label as separator, the
    # leading "" puts that label in front of every line of the row.
    slots = ["", *(f",{col},%s\n" for col in range(matrix.shape[1]))]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("row,col,value\n")
        for row in range(matrix.shape[0]):
            handle.write(str(row).join(slots) % tuple(text[row].tolist()))


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _ensure_dir(path: str) -> None:
    os.makedirs(path, exist_ok=True)


def cmd_kernel(config: RunConfig) -> int:
    """Write heat-kernel and time-derivative matrices with defect sidecars."""
    base = os.path.join(config.out_dir, "kernel")
    _ensure_dir(base)
    _write_json(os.path.join(base, "config.json"), config.to_dict())
    times = list(config.kernel_times)
    size = max(config.sizes)
    timings = {}
    for params in config.params:
        started = time.perf_counter()
        tag_dir = os.path.join(base, params.tag())
        _ensure_dir(tag_dir)
        defects: dict = {"markov": [], "semigroup": [], "cross_method": []}
        for idx, t in enumerate(times):
            quad = kernel_matrix(params, t, size, method="quadrature",
                                 quad_tol=config.quad_tol)
            spectral = kernel_matrix(params, t, size, method="spectral",
                                     quad_tol=config.quad_tol)
            dkt = kernel_dt_tensor(params, np.array([t]), size, config.quad_tol)[0]
            _write_matrix_csv(os.path.join(tag_dir, f"kernel_{idx:02d}.csv"),
                              quad.entries)
            _write_matrix_csv(os.path.join(tag_dir, f"kernel_dt_{idx:02d}.csv"), dkt)
            defects["markov"].append(max(
                markov_defect(params, t, n, size) for n in range(size // 4 + 1)))
            defects["semigroup"].append(
                semigroup_defect(params, t / 2.0, t / 2.0, size))
            defects["cross_method"].append(
                float(np.abs(quad.entries - spectral.entries).max()))
        order = kernel_matrix(params, max(times), size, method="quadrature",
                              quad_tol=config.quad_tol).order_info
        _write_json(os.path.join(tag_dir, "report.json"), {
            "alpha": params.alpha,
            "beta": params.beta,
            "size": size,
            "method": "quadrature",
            "order": order,
            "times": times,
            "defects": defects,
        })
        # Every memo key carries (alpha, beta), so no later params reads these.
        clear_caches()
        timings[params.tag()] = time.perf_counter() - started
    _write_json(os.path.join(base, "timings.json"),
                {"command": "kernel", "cells": timings})
    return EXIT_OK


def _operator_table(config: RunConfig, params: JacobiParams):
    grid = config.t_grid.build()
    size = max(config.sizes)
    f = config.signal.resolve(size)
    header = ["n", "variation", "oscillation"]
    header += [f"jump_lam{lam:g}" for lam in config.lambdas]
    header += ["s_star", "margin"]
    if f.size == 0:
        return header, [], {}
    if f.size > size:
        raise ConfigError(
            f"signal has {f.size} entries, larger than the truncation size {size}")
    f = np.pad(f, (0, size - f.size))
    lac = config.lacunary.build()
    b = config.bcoef.resolve(lac)
    var, osc, jumps, sstar = (
        operator_images(params, operator, size, grid, config.rho, config.lambdas, lac, b,
                        config.lacunary.window, f, config.quad_tol)
        for operator in OPERATOR_NAMES)
    margin = 2.0 ** (1.0 + 1.0 / config.rho) * var - jumps.max(axis=0)
    rows = [[n, var[n], osc[n], *jumps[:, n], sstar[n], margin[n]] for n in range(size)]
    report = {
        "size": size,
        "argmax_variation": int(np.argmax(var)),
        "min_margin": float(margin.min()),
    }
    return header, rows, report


def cmd_operators(config: RunConfig) -> int:
    """Write per-index path-functional tables for the configured signal."""
    base = os.path.join(config.out_dir, "operators")
    _ensure_dir(base)
    _write_json(os.path.join(base, "config.json"), config.to_dict())
    timings = {}
    for params in config.params:
        started = time.perf_counter()
        tag_dir = os.path.join(base, params.tag())
        _ensure_dir(tag_dir)
        header, rows, report = _operator_table(config, params)
        _write_csv(os.path.join(tag_dir, "operators.csv"), header, rows)
        _write_json(os.path.join(tag_dir, "report.json"),
                    {"alpha": params.alpha, "beta": params.beta, **report})
        timings[params.tag()] = time.perf_counter() - started
    _write_json(os.path.join(base, "timings.json"),
                {"command": "operators", "cells": timings})
    return EXIT_OK


NEGATIVE_CONTROL_PARAMS = JacobiParams(-0.5, -0.5)
NEGATIVE_CONTROL_P = 2.0


def _verify_cell(config: RunConfig, params: JacobiParams, estimate: str):
    grid = config.t_grid.build()
    if estimate == "kernel_decay":
        return verify_kernel_decay(params, config.sizes, grid, config.rho,
                                   config.quad_tol)
    if estimate == "kernel_smoothness":
        return verify_kernel_smoothness(params, config.sizes, grid, config.rho,
                                        config.quad_tol)
    if estimate == "dt_sup":
        return verify_dt_sup(params, config.sizes, grid, config.quad_tol)
    if estimate == "qn_bounds":
        lac = config.lacunary.build()
        return verify_qn_bounds(params, lac, config.bcoef.resolve(lac),
                                config.lacunary.window, config.sizes,
                                config.quad_tol)
    if estimate == "lacunary_tail":
        lac = config.lacunary.build()
        return verify_lacunary_tail(params, lac, config.bcoef.resolve(lac),
                                    config.sizes, config.quad_tol)
    if estimate == "cotlar":
        m_range = min(COTLAR_WINDOW, config.lacunary.window)
        lac = config.lacunary.build()
        return verify_cotlar(params, m_range, lac, config.bcoef.resolve(lac),
                             COTLAR_Q, config.sizes, config.seed, COTLAR_RANDOM,
                             config.quad_tol)
    if estimate == "poly_bound":
        return verify_poly_bound(params, POLY_SIZES)
    raise ConfigError(f"unknown estimate {estimate!r}")


def _verify_params(config: RunConfig, params: JacobiParams) -> list:
    return [_verify_cell(config, params, estimate) for estimate in config.estimates]


def _negative_control(config: RunConfig):
    return verify_theorem_norms(
        NEGATIVE_CONTROL_PARAMS, "variation", NEGATIVE_CONTROL_P,
        WeightSpec("power", exponent=NEGATIVE_CONTROL_P), config.sizes,
        grid=config.norms_t_grid.build(), rho=config.rho,
        lambdas=config.lambdas, seed=config.seed, quad_tol=config.quad_tol)


def cmd_verify(config: RunConfig) -> int:
    """Run the estimate verifiers plus the growing-weight negative control."""
    base = os.path.join(config.out_dir, "verify")
    _ensure_dir(base)
    _write_json(os.path.join(base, "config.json"), config.to_dict())
    # The control is the longest task, so it goes to the pool first.
    control, *groups = _run_tasks(
        [(_negative_control, config)]
        + [(_verify_params, config, params) for params in config.params],
        config.workers or 1)
    timings = {}
    summary_rows = []
    exit_code = EXIT_OK
    for params, reports in zip(config.params, groups):
        tag_dir = os.path.join(base, params.tag())
        _ensure_dir(tag_dir)
        for estimate, report in zip(config.estimates, reports):
            _write_json(os.path.join(tag_dir, f"{estimate}.json"), report.to_dict())
            timings[f"{params.tag()}/{estimate}"] = report.runtime
            summary_rows.append([estimate, params.alpha, params.beta, report.verdict,
                                 report.constants[-1], report.stability_ratio])
            if report.verdict in ("failed", "growing"):
                exit_code = EXIT_VERIFY
    _write_json(os.path.join(base, "negative_control.json"), control.to_dict())
    timings["negative_control"] = control.runtime
    summary_rows.append(["negative_control", NEGATIVE_CONTROL_PARAMS.alpha,
                         NEGATIVE_CONTROL_PARAMS.beta, control.verdict,
                         control.constants[-1], control.stability_ratio])
    if control.verdict == "failed":
        exit_code = EXIT_VERIFY
    _write_csv(os.path.join(base, "summary.csv"),
               ("estimate", "alpha", "beta", "verdict", "constant",
                "stability_ratio"), summary_rows)
    _write_json(os.path.join(base, "timings.json"),
                {"command": "verify", "cells": timings})
    return exit_code


def _norm_pairs(config: RunConfig) -> list:
    """The configured (p, weight) pairs, then each p with the power weight n^p."""
    pairs = list(zip(config.p_values, config.weights))
    return pairs + [(p, WeightSpec("power", exponent=p)) for p in config.p_values]


def _norms_params(config: RunConfig, params: JacobiParams) -> list:
    """(strong, weak11) reports for every (operator, p, weight) cell of one
    params. The cells share its memoised kernels and operator images, so they
    stay in one task."""
    grid = config.norms_t_grid.build()
    lac = config.lacunary.build()
    b = config.bcoef.resolve(lac)

    def sweep(operator, p, wspec, mode):
        return verify_theorem_norms(
            params, operator, p, wspec, config.sizes, grid=grid, rho=config.rho,
            lambdas=config.lambdas, lac=lac, bcoef=b,
            m_range=config.lacunary.window, seed=config.seed, mode=mode,
            quad_tol=config.quad_tol)

    return [(sweep(operator, p, wspec, "strong"), sweep(operator, 1.0, wspec, "weak11"))
            for operator in config.operators for p, wspec in _norm_pairs(config)]


def cmd_norms(config: RunConfig) -> int:
    """Sweep weighted operator norms for every configured (p, weight) pair."""
    if len(config.p_values) != len(config.weights):
        raise ConfigError("p_values and weights must have equal length for norms")
    base = os.path.join(config.out_dir, "norms")
    _ensure_dir(base)
    _write_json(os.path.join(base, "config.json"), config.to_dict())
    pairs = _norm_pairs(config)
    cells = [(params, operator, p, wspec) for params in config.params
             for operator in config.operators for p, wspec in pairs]
    results = [result for group in _run_tasks(
        [(_norms_params, config, params) for params in config.params],
        config.workers or 1) for result in group]
    timings = {}
    rows = []
    for (params, operator, p, wspec), (strong, weak) in zip(cells, results):
        timings[f"{params.tag()}/{operator}/p{p:g}/{wspec.label()}"] = \
            strong.runtime + weak.runtime
        for i, size in enumerate(config.sizes):
            rows.append([params.tag(), operator, p, wspec.label(), size,
                         strong.constants[i], weak.constants[i],
                         strong.stability_ratio])
    rows.sort(key=lambda r: (r[0], r[1], r[2], r[3], r[4]))
    _write_csv(os.path.join(base, "norms.csv"),
               ("params", "operator", "p", "weight", "size", "norm_estimate",
                "weak11_estimate", "stability_ratio"), rows)
    _write_json(os.path.join(base, "timings.json"),
                {"command": "norms", "cells": timings})
    return EXIT_OK


def _run_task(function, *args):
    """function(*args), after which the memo is emptied. Every task covers one
    params and every memo key but the Bessel tails carries (alpha, beta), so a
    later task reads almost none of it. Kept, it made a pool worker's peak
    memory depend on which tasks the scheduler gave it, and a serial run's peak
    on the layout of the memory earlier tasks had freed, which varies with
    address randomisation and the string hash seed."""
    try:
        return function(*args)
    finally:
        clear_caches()


def _run_tasks(tasks: list, workers: int) -> list:
    """Results of `function(*args)` for each `(function, *args)` task, in task
    order. With more than one worker and task, the tasks run in that many
    processes forked from this one (spawn or forkserver would import scipy
    again in each); the functions must be module-level and the arguments and
    results picklable. A task's exception is raised here and the tasks not yet
    started are cancelled. Each task ends by emptying its process's memo.

    Forking is safe because this process runs no other thread when the pool
    starts, and from Python 3.11 the executor forks every worker before it
    starts its own thread."""
    workers = min(workers, len(tasks))
    if workers <= 1:
        return [_run_task(*task) for task in tasks]
    # Looked up here, so a run that builds no pool never imports multiprocessing.
    import multiprocessing

    pool = concurrent.futures.ProcessPoolExecutor(
        max_workers=workers, mp_context=multiprocessing.get_context("fork"))
    try:
        futures = [pool.submit(_run_task, *task) for task in tasks]
        return [future.result() for future in futures]
    finally:
        pool.shutdown(cancel_futures=True)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jhl",
        description="Heat-semigroup kernels, path operators, and estimate "
                    "verification for Jacobi expansions.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (("kernel", "write kernel and derivative matrices"),
                      ("operators", "write per-index path-functional tables"),
                      ("verify", "run the estimate verification sweeps"),
                      ("norms", "sweep weighted operator-norm estimates")):
        cmd = sub.add_parser(name, help=doc)
        cmd.add_argument("--config", help="path to a JSON run configuration")
        cmd.add_argument("--out", help="output directory (overrides config)")
        cmd.add_argument("--seed", type=int, help="probe seed (overrides config)")
        cmd.add_argument("--workers", type=int,
                         help="worker processes for verify and norms "
                              "(overrides config; default 1)")
    return parser


_COMMANDS = {
    "kernel": cmd_kernel,
    "operators": cmd_operators,
    "verify": cmd_verify,
    "norms": cmd_norms,
}


def _error_record(kind: str, message: str) -> None:
    json.dump({"error": kind, "message": message}, sys.stderr)
    sys.stderr.write("\n")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config) if args.config else RunConfig()
        overrides = {}
        if args.out is not None:
            overrides["out_dir"] = args.out
        if args.seed is not None:
            if not (0 <= args.seed < 2 ** 64):
                raise ConfigError("seed must fit in an unsigned 64-bit integer")
            overrides["seed"] = args.seed
        if args.workers is not None:
            if args.workers < 1:
                raise ConfigError("workers must be at least 1")
            overrides["workers"] = args.workers
        if overrides:
            config = RunConfig.from_dict({**config.to_dict(), **overrides})
        return _COMMANDS[args.command](config)
    except ConfigError as exc:
        _error_record("config", str(exc))
        return EXIT_CONFIG
    except NumericFailure as exc:
        _error_record("numeric", str(exc))
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
