"""Command line harness: kernel tables, operator tables, verification sweeps.

Exit codes: 0 success, 2 configuration error, 3 numeric failure, 4 verification
failure. All data files are byte-stable for a fixed config and seed; wall-clock
measurements go only to timings.json.

Every command runs one task per (alpha, beta) params, and `verify` one more
for its negative control. `--workers N` (or the `workers` config key) is a
count of worker processes. With N > 1 the tasks run in processes forked from
this one, so numpy and jhl are not imported again; results come back in
submission order and a worker's exception is raised here, so the data files
and the exit code are the same for any N. With N = 1 every task runs in this
process and no process is started.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from .basis import JacobiParams
from .config import OPERATOR_NAMES, RunConfig, load_config
from .errors import ConfigError, NumericFailure
from .quadrature import auto_order
from .semigroup import (
    clear_caches,
    kernel_dt_tensor,
    kernel_matrix,
    kernel_tensor,
    laguerre_split,
    markov_defect,
    semigroup_defect,
)
from .verify import (
    operator_images,
    s_star_kernels,
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
    # Imported here, so that only runs that write a matrix compile it.
    from ._format17 import format_17g

    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    bits, inverse = np.unique(matrix.view(np.int64).ravel(), return_inverse=True)
    text = format_17g(bits.view(np.float64))[inverse.reshape(matrix.shape)]
    # One "%s" slot per column. Joined with the row label as separator, the
    # leading b"" puts that label in front of every line of the row.
    slots = [b"", *(b",%d,%%s\n" % col for col in range(matrix.shape[1]))]
    with open(path, "wb") as handle:
        handle.write(b"row,col,value\n")
        for row in range(matrix.shape[0]):
            handle.write((b"%d" % row).join(slots) % tuple(text[row].tolist()))


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _ensure_dir(*parts: str) -> str:
    """Create and return the joined path. An output directory that cannot be
    created is a configuration error; a command creates its own before it
    computes anything."""
    path = os.path.join(*parts)
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory: {exc}") from exc
    return path


def _timed(function, *args) -> tuple:
    """function(*args) and the seconds it took."""
    started = time.perf_counter()
    return function(*args), time.perf_counter() - started


def _run_command(config: RunConfig, command: str, task, first: tuple = ()) -> list:
    """The one path of every command. Create <out>/<command>/ and write
    config.json; run the `first` tasks, then `task(config, params)` for each
    params, through `_run_tasks`; write the timings cells each task returns
    to timings.json. Every task returns (cells, rows); the rows are returned
    in task order."""
    base = _ensure_dir(config.out_dir, command)
    _write_json(os.path.join(base, "config.json"), config.to_dict())
    results = _run_tasks([*first, *((task, config, params) for params in config.params)],
                         config.workers or 1)
    timings = {}
    for cells, _ in results:
        timings.update(cells)
    _write_json(os.path.join(base, "timings.json"), {"command": command, "cells": timings})
    return [rows for _, rows in results]


def _kernel_params(config: RunConfig, params: JacobiParams) -> tuple:
    """Write one params' heat-kernel and time-derivative matrices and its
    report.json, with the route, Gauss-Jacobi order (null for Gauss-Laguerre)
    and defects of each time, measured on the kernels written, all built at
    `quad_tol`."""
    started = time.perf_counter()
    tag = params.tag()
    tag_dir = _ensure_dir(config.out_dir, "kernel", tag)
    times = list(config.kernel_times)
    size = max(config.sizes)
    defects: dict = {"markov": [], "semigroup": [], "cross_method": []}
    write_s = spectral_s = 0.0
    for idx, t in enumerate(times):
        # Each time's matrices replace the last time's, so no earlier time's
        # kernel is alive while this one's are written.
        quad = kernel_tensor(params, [t], size, config.quad_tol)[0]
        dkt = kernel_dt_tensor(params, [t], size, config.quad_tol)[0]
        half = kernel_tensor(params, [t / 2.0], size, config.quad_tol)[0]
        solved = time.perf_counter()
        spectral = kernel_matrix(params, t, size, config.quad_tol)
        spectral_s += time.perf_counter() - solved
        written = time.perf_counter()
        _write_matrix_csv(os.path.join(tag_dir, f"kernel_{idx:02d}.csv"), quad)
        _write_matrix_csv(os.path.join(tag_dir, f"kernel_dt_{idx:02d}.csv"), dkt)
        write_s += time.perf_counter() - written
        defects["markov"].append(markov_defect(params, quad[:size // 4 + 1]))
        defects["semigroup"].append(semigroup_defect(half, half, quad))
        defects["cross_method"].append(
            float(np.abs(quad - spectral).max()))
    split = laguerre_split(params, size)
    _write_json(os.path.join(tag_dir, "report.json"), {
        "alpha": params.alpha,
        "beta": params.beta,
        "size": size,
        "method": "quadrature",
        "orders": [auto_order(size - 1, t, config.quad_tol) if t < split else None
                   for t in times],
        "routes": ["jacobi" if t < split else "laguerre" for t in times],
        "times": times,
        "defects": defects,
    })
    return {tag: time.perf_counter() - started, f"{tag}/write": write_s,
            f"{tag}/spectral": spectral_s}, []


def cmd_kernel(config: RunConfig) -> int:
    """Write heat-kernel and time-derivative matrices with defect sidecars."""
    _run_command(config, "kernel", _kernel_params)
    return EXIT_OK


def _operator_kernels(config: RunConfig, params: JacobiParams, grid) -> dict:
    """Each listed operator's kernels at max(sizes), as `operator_images`
    takes them: from one K tensor over the lacunary times, built if s_star is
    listed, and one over the grid, built if a heat-path operator is."""
    size = max(config.sizes)
    kernels = {}
    if "s_star" in config.operators:
        lac = config.lacunary.build()
        kernels["s_star"] = s_star_kernels(
            kernel_tensor(params, lac.values, size, config.quad_tol), lac,
            config.bcoef.resolve(lac), config.lacunary.window)
    heat = [operator for operator in config.operators if operator != "s_star"]
    if heat:
        kernels.update(dict.fromkeys(heat, kernel_tensor(params, grid.times, size,
                                                         config.quad_tol)))
    return kernels


def _operator_table(config: RunConfig, params: JacobiParams):
    """Header, rows, report and kernel build time of one params' operators
    table: a column per listed operator (one per lambda for jump), in
    `OPERATOR_NAMES` order, then the margin 2^(1 + 1/rho) variation -
    max_lambda jump where both are listed."""
    grid = config.t_grid.build()
    size = max(config.sizes)
    f = config.signal.resolve(size)
    listed = [operator for operator in OPERATOR_NAMES if operator in config.operators]
    with_margin = "variation" in listed and "jump" in listed
    header = ["n"]
    for operator in listed:
        header += ([f"jump_lam{lam:g}" for lam in config.lambdas] if operator == "jump"
                   else [operator])
    if with_margin:
        header.append("margin")
    if f.size == 0:
        return header, [], {}, 0.0
    if f.size > size:
        raise ConfigError(
            f"signal has {f.size} entries, larger than the truncation size {size}")
    f = np.pad(f, (0, size - f.size))
    kernels, built = _timed(_operator_kernels, config, params, grid)
    images = {operator: operator_images(operator, kernels[operator], f, grid, config.rho,
                                        config.lambdas)
              for operator in listed}
    columns = [images[operator].reshape(-1, size) for operator in listed]
    report = {"size": size}
    if "variation" in images:
        report["argmax_variation"] = int(np.argmax(images["variation"]))
    if with_margin:
        margin = 2.0 ** (1.0 + 1.0 / config.rho) * images["variation"] \
            - images["jump"].max(axis=0)
        columns.append(margin[None])
        report["min_margin"] = float(margin.min())
    table = np.concatenate(columns)
    rows = [[n, *table[:, n]] for n in range(size)]
    return header, rows, report, built


def _operators_params(config: RunConfig, params: JacobiParams) -> tuple:
    """Write one params' operators.csv and report.json."""
    started = time.perf_counter()
    tag = params.tag()
    tag_dir = _ensure_dir(config.out_dir, "operators", tag)
    header, rows, report, built = _operator_table(config, params)
    _write_csv(os.path.join(tag_dir, "operators.csv"), header, rows)
    _write_json(os.path.join(tag_dir, "report.json"),
                {"alpha": params.alpha, "beta": params.beta, **report})
    return {tag: time.perf_counter() - started, f"{tag}/kernels": built}, []


def cmd_operators(config: RunConfig) -> int:
    """Write per-index path-functional tables for the configured signal."""
    grid = config.t_grid
    if "oscillation" in config.operators and grid.t_max < 2.0 * grid.t_min:
        raise ConfigError("t_grid must span a factor of 2 for the oscillation bands")
    _run_command(config, "operators", _operators_params)
    return EXIT_OK


NEGATIVE_CONTROL_PARAMS = JacobiParams(-0.5, -0.5)
NEGATIVE_CONTROL_P = 2.0


# The estimates that read K, and those that read dK, over the verify grid, and
# those that read K over the lacunary times.
_READS_K = {"kernel_decay", "kernel_smoothness"}
_READS_DK = _READS_K | {"dt_sup"}
_READS_LACUNARY = {"qn_bounds", "lacunary_tail", "cotlar"}


def _verify_inputs(config: RunConfig, params: JacobiParams) -> dict:
    """The `_verify_cell` arguments that the configured estimates read, each
    built once at max(sizes): K and dK over the verify grid's times, and the
    lacunary sequence, its coefficients and K over its times (the stack)."""
    estimates = set(config.estimates)
    size = max(config.sizes)
    times = config.t_grid.build().times
    inputs = {"times": times}
    if estimates & _READS_K:
        inputs["kt"] = kernel_tensor(params, times, size, config.quad_tol)
    if estimates & _READS_DK:
        inputs["dkt"] = kernel_dt_tensor(params, times, size, config.quad_tol)
    if estimates & _READS_LACUNARY:
        lac = config.lacunary.build()
        inputs.update(lac=lac, b=config.bcoef.resolve(lac),
                      stack=kernel_tensor(params, lac.values, size, config.quad_tol))
    return inputs


def _verify_cell(config: RunConfig, params: JacobiParams, estimate: str, times=None,
                 kt=None, dkt=None, lac=None, b=None, stack=None):
    """One estimate's report, from the `_verify_inputs` it reads."""
    sizes = config.sizes
    if estimate == "kernel_decay":
        return verify_kernel_decay(params, sizes, kt, dkt, times, config.rho)
    if estimate == "kernel_smoothness":
        return verify_kernel_smoothness(params, sizes, kt, dkt, times, config.rho)
    if estimate == "dt_sup":
        return verify_dt_sup(params, sizes, dkt)
    if estimate == "qn_bounds":
        return verify_qn_bounds(params, lac, b, config.lacunary.window, sizes, stack)
    if estimate == "lacunary_tail":
        return verify_lacunary_tail(params, lac, b, sizes, stack)
    if estimate == "cotlar":
        return verify_cotlar(params, min(COTLAR_WINDOW, config.lacunary.window), lac, b,
                             COTLAR_Q, sizes, stack, config.seed, COTLAR_RANDOM)
    if estimate == "poly_bound":
        return verify_poly_bound(params, POLY_SIZES)
    raise ConfigError(f"unknown estimate {estimate!r}")


def _summary_row(estimate: str, params: JacobiParams, report) -> list:
    return [estimate, params.alpha, params.beta, report.verdict, report.constants[-1],
            report.stability_ratio]


def _verify_params(config: RunConfig, params: JacobiParams) -> tuple:
    """Build what the configured estimates read (`_verify_inputs`), then run
    and write one report per estimate of one params; return the summary
    rows. `<params>/kernels` times the build, which no estimate's runtime
    includes."""
    tag = params.tag()
    tag_dir = _ensure_dir(config.out_dir, "verify", tag)
    inputs, built = _timed(_verify_inputs, config, params)
    cells = {f"{tag}/kernels": built}
    rows = []
    for estimate in config.estimates:
        report = _verify_cell(config, params, estimate, **inputs)
        _write_json(os.path.join(tag_dir, f"{estimate}.json"), report.to_dict())
        cells[f"{tag}/{estimate}"] = report.runtime
        rows.append(_summary_row(estimate, params, report))
    return cells, rows


def _negative_control(config: RunConfig) -> tuple:
    """Run and write the growing-weight negative control; return its summary row."""
    cell = (NEGATIVE_CONTROL_P, WeightSpec("power", exponent=NEGATIVE_CONTROL_P), "strong")
    grid = config.norms_t_grid.build()
    kernels, built = _timed(kernel_tensor, NEGATIVE_CONTROL_PARAMS, grid.times,
                            max(config.sizes), config.quad_tol)
    control = verify_theorem_norms(NEGATIVE_CONTROL_PARAMS, "variation", [cell],
                                   config.sizes, kernels, grid, config.rho, config.lambdas,
                                   seed=config.seed)[0]
    _write_json(os.path.join(config.out_dir, "verify", "negative_control.json"),
                control.to_dict())
    return ({"negative_control/kernels": built, "negative_control": control.runtime},
            [_summary_row("negative_control", NEGATIVE_CONTROL_PARAMS, control)])


def cmd_verify(config: RunConfig) -> int:
    """Run the estimate verifiers plus the growing-weight negative control."""
    if len(config.sizes) < 2:
        raise ConfigError("verify needs at least two sizes")
    # The control is the longest task, so it goes to the pool first.
    (control,), *groups = _run_command(config, "verify", _verify_params,
                                       first=((_negative_control, config),))
    rows = [row for group in groups for row in group]
    _write_csv(os.path.join(config.out_dir, "verify", "summary.csv"),
               ("estimate", "alpha", "beta", "verdict", "constant",
                "stability_ratio"), rows + [control])
    # The control is expected to grow, so only its failure fails the run.
    if control[3] == "failed" or any(row[3] in ("failed", "growing") for row in rows):
        return EXIT_VERIFY
    return EXIT_OK


def _norm_pairs(config: RunConfig) -> list:
    """The configured (p, weight) pairs, then each p with the power weight n^p."""
    pairs = list(zip(config.p_values, config.weights))
    return pairs + [(p, WeightSpec("power", exponent=p)) for p in config.p_values]


def _norms_params(config: RunConfig, params: JacobiParams) -> tuple:
    """Build the kernels the configured operators read (`_operator_kernels`),
    then run one sweep per operator of one params over the strong and weak11
    cells of every (p, weight) pair; return one norms.csv row per (operator,
    pair, size). `<params>/kernels` times the build, which no sweep's runtime
    includes; each sweep takes its operator's images once per size and
    reduces them over all its cells."""
    grid = config.norms_t_grid.build()
    kernels, built = _timed(_operator_kernels, config, params, grid)
    tag = params.tag()
    cells = {f"{tag}/kernels": built}
    pairs = _norm_pairs(config)
    sweep = [cell for p, wspec in pairs
             for cell in ((p, wspec, "strong"), (1.0, wspec, "weak11"))]
    rows = []
    for operator in config.operators:
        reports = verify_theorem_norms(params, operator, sweep, config.sizes,
                                       kernels[operator], grid, config.rho,
                                       config.lambdas, seed=config.seed)
        cells[f"{tag}/{operator}"] = reports[0].runtime
        for (p, wspec), strong, weak in zip(pairs, reports[::2], reports[1::2]):
            for i, n in enumerate(config.sizes):
                rows.append([tag, operator, p, wspec.label(), n, strong.constants[i],
                             weak.constants[i], strong.stability_ratio])
    return cells, rows


def cmd_norms(config: RunConfig) -> int:
    """Sweep weighted operator norms for every configured (p, weight) pair."""
    if len(config.p_values) != len(config.weights):
        raise ConfigError("p_values and weights must have equal length for norms")
    if len(config.sizes) < 2:
        raise ConfigError("norms needs at least two sizes")
    grid = config.norms_t_grid
    if "oscillation" in config.operators and grid.t_max < 2.0 * grid.t_min:
        raise ConfigError("norms_t_grid must span a factor of 2 for the oscillation bands")
    # a power weight is increasing or decreasing in n, so if it is finite and
    # positive at the largest size it is at every size
    size = max(config.sizes)
    for p, wspec in _norm_pairs(config):
        try:
            wspec.resolve(size)
        except ValueError as exc:
            raise ConfigError(
                f"weight {wspec.label()} (p = {p:g}) at size {size}: {exc}") from exc
    groups = _run_command(config, "norms", _norms_params)
    rows = sorted((row for group in groups for row in group), key=lambda r: r[:5])
    _write_csv(os.path.join(config.out_dir, "norms", "norms.csv"),
               ("params", "operator", "p", "weight", "size", "norm_estimate",
                "weak11_estimate", "stability_ratio"), rows)
    return EXIT_OK


def _run_task(function, *args):
    """function(*args), after which the memo is emptied: the one place a
    command empties it. A task's kernel tensors are its own values and go
    when it returns. Every task covers one params, and every memo key
    carries alpha: the eigen-rows ("rows") and the Laguerre orders
    ("laguerre_order") carry beta too, the Gauss-Laguerre rule ("laguerre",
    alpha, order) does not, so a later task reads almost none of it. Kept,
    it made a pool worker's peak memory depend on which tasks the scheduler
    gave it, and a serial run's peak on the layout of the memory earlier
    tasks had freed, which varies with address randomisation and the string
    hash seed."""
    try:
        return function(*args)
    finally:
        clear_caches()


def _run_tasks(tasks: list, workers: int) -> list:
    """Results of `function(*args)` for each `(function, *args)` task, in task
    order. With more than one worker and task, the tasks run in that many
    processes forked from this one (spawn or forkserver would import numpy
    and jhl again in each); the functions must be module-level and the
    arguments and results picklable. A task's exception is raised here and
    the tasks not yet started are cancelled. Each task ends by emptying its
    process's memo.

    Forking is safe because this process runs no other thread when the pool
    starts, and from Python 3.11 the executor forks every worker before it
    starts its own thread."""
    workers = min(workers, len(tasks))
    if workers <= 1:
        return [_run_task(*task) for task in tasks]
    # Imported here, so a run that builds no pool imports neither.
    import concurrent.futures
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
                         help="worker processes (overrides config; default 1)")
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
            overrides["seed"] = args.seed
        if args.workers is not None:
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
