"""Acceptance gate: nine go/no-go checks with pinned tolerances and budgets.

Each check prints exactly one `acceptance <k> <name>: PASS/FAIL` line on the
real stdout (bypassing capture) and then asserts, so the run log always shows
the verdict per criterion.
"""

import itertools
import json
import sys
import time

import numpy as np

from jhl.basis import JacobiParams, coeff_a, coeff_b, ortho_table
from jhl.cli import _verify_cell, _verify_inputs, main
from jhl.config import RunConfig
from jhl.paths import (
    LacunarySequence,
    TimeGrid,
    default_bands,
    jump_count_batch,
    oscillation_batch,
    variation_batch,
)
from jhl.semigroup import kernel_matrix, kernel_tensor, markov_defect, semigroup_defect
from jhl.verify import s_star_kernels, verify_theorem_norms
from jhl.weights import WeightSpec
from oracles import brute_jump_count, brute_variation, build_generator, golub_welsch

ALL_PAIRS = (
    JacobiParams(-0.5, -0.5),
    JacobiParams(0.0, 0.0),
    JacobiParams(0.5, -0.5),
    JacobiParams(2.5, 0.5),
)
DEFAULT = RunConfig()


def _report(capfd, num: int, name: str, ok: bool, elapsed: float,
            budget: float) -> None:
    ok = bool(ok) and elapsed < budget
    line = f"acceptance {num} {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s)\n"
    # fd-level capture redirects fd 1 itself, so the write only reaches the
    # run log while capture is suspended
    with capfd.disabled():
        sys.stdout.write(line)
        sys.stdout.flush()
    assert ok, f"criterion {num} ({name}) failed after {elapsed:.1f}s (budget {budget}s)"


def test_1_orthonormality(capfd):
    started = time.perf_counter()
    worst = 0.0
    for params in ALL_PAIRS:
        rule = golub_welsch(params, 51)
        table = ortho_table(params, 50, rule.nodes)
        gram = (table * rule.weights) @ table.T
        worst = max(worst, float(np.abs(gram - np.eye(51)).max()))
    _report(capfd, 1, "orthonormality", worst <= 1e-10,
            time.perf_counter() - started, 10.0)


def test_2_eigenrelation(capfd):
    started = time.perf_counter()
    size = 200
    x_grid = np.linspace(-0.9, 0.9, 5)
    worst = 0.0
    for params in ALL_PAIRS:
        gen = build_generator(params, size)
        table = ortho_table(params, size - 1, x_grid)
        for col, x in enumerate(x_grid):
            p = table[:, col]
            image = gen @ p
            target = (x - 1.0) * p
            rel = np.abs(image[:199] - target[:199]).max() / np.abs(target[:199]).max()
            worst = max(worst, float(rel))
    _report(capfd, 2, "eigenrelation", worst <= 1e-9, time.perf_counter() - started, 5.0)


def test_3_flat_measure_coefficients(capfd):
    started = time.perf_counter()
    params = JacobiParams(-0.5, -0.5)
    errs = [abs(coeff_a(params, 0) - 1.0 / np.sqrt(2.0))]
    for n in range(1, 61):
        errs.append(abs(coeff_a(params, n) - 0.5))
    for n in range(61):
        errs.append(abs(coeff_b(params, n) + 1.0))
    _report(capfd, 3, "flat_measure_coefficients", max(errs) <= 1e-14,
            time.perf_counter() - started, 1.0)


def test_4_kernel_oracles(capfd):
    started = time.perf_counter()
    ok = True
    for params in ALL_PAIRS:
        for t in (0.1, 1.0, 10.0):
            quad = kernel_tensor(params, [t], 30)[0]
            spec = kernel_matrix(params, t, 30)
            ok &= float(np.abs(quad - spec).max()) <= 1e-8
        half = kernel_tensor(params, [0.5], 256)[0]
        ok &= semigroup_defect(half, half, kernel_tensor(params, [1.0], 256)[0]) <= 1e-8
        # all four pairs sit in the alpha >= beta >= -1/2 positivity regime
        for t in (0.1, 1.0, 10.0):
            ok &= float(kernel_tensor(params, [t], 64)[0].min()) >= -1e-12
    # the row-sum identity is checked where its tolerance is calibrated: the
    # flat pair, where p_m(1) stays O(1) and the 400-term sum does not amplify
    # entry roundoff
    flat = JacobiParams(0.0, 0.0)
    for t in (0.1, 1.0, 5.0):
        ok &= markov_defect(flat, kernel_tensor(flat, [t], 400)[0][:21]) <= 1e-8
    _report(capfd, 4, "kernel_oracles", ok, time.perf_counter() - started, 60.0)


def test_5_path_functional_oracles(capfd):
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    ok = True
    rhos = (1.5, 2.0, 3.0)
    for i in range(1000):
        length = int(rng.integers(2, 13))
        values = rng.standard_normal(length)
        rho = rhos[i % 3]
        dp = float(variation_batch(values, rho))
        brute = brute_variation(values, rho)
        ok &= abs(dp - brute) <= 1e-12 * max(1.0, abs(brute))
    for length in range(2, 11):
        combos = np.array(list(itertools.product((-1.0, 1.0), repeat=length)))
        for lam in (1.0, 2.0):
            greedy = jump_count_batch(combos, lam)
            ok &= all(int(greedy[k]) == brute_jump_count(combos[k], lam)
                      for k in range(combos.shape[0]))
    _report(capfd, 5, "path_functional_oracles", ok, time.perf_counter() - started, 30.0)


def test_6_inequality_suite(capfd):
    started = time.perf_counter()
    grid = DEFAULT.t_grid.build()
    bands = default_bands(grid)
    rho = DEFAULT.rho
    factor = 2.0 ** (1.0 + 1.0 / rho)
    violations = 0
    for params in DEFAULT.params:
        kt = kernel_tensor(params, grid.times, 64)
        paths = kt[:, :, :33].transpose(1, 2, 0)
        v_rho = variation_batch(paths, rho)
        v_two = variation_batch(paths, 2.0)
        osc = oscillation_batch(grid.times, paths, bands)
        violations += int((osc > v_two + 1e-12).sum())
        for lam in DEFAULT.lambdas:
            jf = lam * jump_count_batch(paths, lam) ** (1.0 / rho)
            violations += int((jf > factor * v_rho + 1e-12).sum())
    _report(capfd, 6, "inequality_suite", violations == 0,
            time.perf_counter() - started, 60.0)


def test_7_estimate_stability(capfd):
    started = time.perf_counter()
    verdicts = []
    for params in DEFAULT.params:
        inputs = _verify_inputs(DEFAULT, params)
        for estimate in DEFAULT.estimates:
            report = _verify_cell(DEFAULT, params, estimate, **inputs)
            verdicts.append(report.verdict)
    _report(capfd, 7, "estimate_stability", all(v == "stable" for v in verdicts),
            time.perf_counter() - started, 900.0)


def test_8_theorem_sweeps(capfd):
    started = time.perf_counter()
    params = JacobiParams(-0.5, -0.5)
    sizes = (64, 128, 256)
    grid = TimeGrid.geometric(1e-3, 1e5, 96)
    operators = ("variation", "oscillation", "jump", "s_star")
    cells = [(2.0, WeightSpec("constant")),
             (1.5, WeightSpec("power", exponent=0.3)),
             (3.0, WeightSpec("power", exponent=1.5))]
    ok = True
    weak = (1.0, WeightSpec("power", exponent=-0.5), "weak11")
    # s_star: unit coefficients on the 15 steps of the dyadic times 2^j, j = -7..8
    lac = LacunarySequence.geometric(2.0, -7, 8)
    heat = kernel_tensor(params, grid.times, sizes[-1])
    kernels = {"s_star": s_star_kernels(kernel_tensor(params, lac.values, sizes[-1]), lac,
                                        np.ones(15), 6)}
    args = (grid, DEFAULT.rho, DEFAULT.lambdas)
    for operator in operators:
        reps = verify_theorem_norms(params, operator,
                                    [(p, wspec, "strong") for p, wspec in cells] + [weak],
                                    sizes, kernels.get(operator, heat), *args)
        ok &= all(rep.verdict == "stable" for rep in reps)
    control, = verify_theorem_norms(params, "variation",
                                    [(2.0, WeightSpec("power", exponent=2.0), "strong")],
                                    sizes, heat, *args)
    ok &= control.verdict == "growing"
    _report(capfd, 8, "theorem_sweeps", ok, time.perf_counter() - started, 1200.0)


def test_9_determinism(tmp_path, capfd):
    started = time.perf_counter()
    out = tmp_path / "run"
    config = {
        "params": [[0.0, 0.0]],
        "sizes": [16, 32],
        "t_grid": {"t_min": 1e-3, "t_max": 50.0, "count": 24},
        "norms_t_grid": {"t_min": 1e-3, "t_max": 1e3, "count": 24},
        "lacunary": {"ratio": 2.0, "window": 2},
        "lambdas": [0.25, 1.0],
        "p_values": [2.0],
        "weights": [{"kind": "constant"}],
        "kernel_times": [1e-12, 1.0],
        "estimates": ["dt_sup", "poly_bound"],
        "operators": ["variation", "jump"],
        "out_dir": str(out),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    commands = ("kernel", "operators", "verify", "norms")

    def run_all():
        codes = [main([cmd, "--config", str(cfg_path)]) for cmd in commands]
        snapshot = {}
        for path in sorted(out.rglob("*")):
            if path.is_file() and path.name != "timings.json":
                snapshot[str(path.relative_to(out))] = path.read_bytes()
        return codes, snapshot

    codes_a, snap_a = run_all()
    codes_b, snap_b = run_all()
    compare_started = time.perf_counter()
    identical = codes_a == codes_b and snap_a == snap_b
    compare_overhead = time.perf_counter() - compare_started
    ok = identical and all(c in (0, 4) for c in codes_a) and compare_overhead < 1.0
    _report(capfd, 9, "determinism", ok, time.perf_counter() - started, 120.0)
