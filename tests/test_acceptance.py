"""Acceptance gate: one test per shipped guarantee, printed pass/fail lines.

Expected values marked with the source used to freeze them live next to the
assertions; random suites use fixed seeds and independent brute-force oracles.
"""

import os
import time
from pathlib import Path

import numpy as np

from symtoc import (GridSpec, SampledFlow, StateSet,
                    TargetSpec, double_integrator,
                    integrate, reach_step, simulate, solve_optimistic,
                    solve_pessimistic, target_under, unicycle)
from symtoc import formats

from helpers import (aggregated_pair, brute_force_optimistic, build_system,
                     brute_force_pessimistic, entry_time, lift_targets, line_grid,
                     parse_trace, post, random_boxes, random_system, random_target)


def _report(name):
    print(f"\nACCEPTANCE {name}: PASS")


# 1 ------------------------------------------------------------------------

def test_oracle_equivalence_exact():
    """solve_pessimistic / solve_optimistic equal brute-force min-max / min-min
    game values on 200 random systems, exactly, in under 10 seconds."""
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    for i in range(200):
        density = 0.15 + 0.7 * (i % 8) / 7
        s = random_system(rng, max_states=12, max_inputs=3, density=density)
        W = random_target(rng, s.num_states)
        pes = solve_pessimistic(s, W)
        opt = solve_optimistic(s, W)
        bf_pes = brute_force_pessimistic(s, W.indices())
        bf_opt = brute_force_optimistic(s, W.indices())
        for x in range(s.num_states):
            assert entry_time(pes, x) == bf_pes[x]
            assert entry_time(opt, x) == bf_opt[x]
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"
    _report("oracle equivalence (200 random systems, exact)")


# 2 ------------------------------------------------------------------------

def test_entry_time_bound_ordering():
    """Aggregation abstractions bracket the true optimum: optimistic on the
    outer target cover <= true <= pessimistic on the inner cover, for every
    related initial pair; the upper inequality also holds for nondeterministic
    concrete systems. Zero violations."""
    rng = np.random.default_rng(77)
    for i in range(100):
        sys_a, sys_b, group_of, w_b = aggregated_pair(rng, deterministic=True)
        under, over = lift_targets(group_of, sys_a.num_states, w_b)
        pes = solve_pessimistic(sys_a, StateSet(sys_a.num_states, under))
        opt = solve_optimistic(sys_a, StateSet(sys_a.num_states, over))
        true = brute_force_pessimistic(sys_b, w_b)
        for s in range(sys_b.num_states):
            a = int(group_of[s])
            assert entry_time(opt, a) <= true[s] <= entry_time(pes, a), (i, s)
    for i in range(100):
        sys_a, sys_b, group_of, w_b = aggregated_pair(rng, deterministic=False)
        under, _ = lift_targets(group_of, sys_a.num_states, w_b)
        pes = solve_pessimistic(sys_a, StateSet(sys_a.num_states, under))
        true = brute_force_pessimistic(sys_b, w_b)
        for s in range(sys_b.num_states):
            assert true[s] <= entry_time(pes, int(group_of[s])), (i, s)
    _report("entry-time bound ordering (100 deterministic + 100 nondeterministic)")


# 3 ------------------------------------------------------------------------

def test_double_integrator_benchmark(di_bundle):
    """Full-scale double integrator: builds fast, certification chain holds at
    every reference start, achieved times and bound rows match the reference
    table (±2 steps / ±20%)."""
    b = di_bundle
    assert b.build_seconds < 300.0, f"abstraction took {b.build_seconds:.0f}s"
    assert b.system.num_states == 40401
    starts = [(-6.1, 6.1), (-6.0, 6.0), (-5.85, 5.85), (3.1, 0.1), (3.0, 0.0), (2.85, -0.1)]
    ref_symbolic = [14, 14, 13, 3, 3, 3]   # reference simulation row
    ref_upper = [29, 29, 29, 7, 7, 7]      # reference upper-bound row
    ref_lower = [9, 9, 9, 2, 2, 2]         # reference lower-bound row
    for x0, sym, up, lo in zip(starts, ref_symbolic, ref_upper, ref_lower):
        trace = simulate(b.model, b.rc, np.array(x0), b.cfg.target,
                         b.cfg.max_steps, lower=b.lower.entry_times())
        cell = int(b.quantizer.cell_index(np.array(x0)))
        upper_here = entry_time(b.controller, cell)
        lower_here = entry_time(b.lower, cell)
        assert trace.reason == "reached-target", x0
        assert trace.certified, x0
        assert lower_here <= trace.achieved <= upper_here, x0
        assert abs(trace.achieved - sym) <= 2, (x0, trace.achieved)
        assert abs(upper_here - up) <= 0.2 * up, (x0, upper_here)
        assert abs(lower_here - lo) <= 0.2 * lo, (x0, lower_here)
    _report("double integrator benchmark (certified, table within bands)")


def test_double_integrator_cli_traces(tmp_path):
    """The same benchmark driven end to end through the command line: every
    reference start produces a trace with a passing certificate."""
    from symtoc import cli
    cfg = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "configs", "double_integrator.cfg")
    out = str(tmp_path / "di")
    assert cli.main(["abstract", "--config", cfg, "--out", out, "--no-timestamp"]) == 0
    assert cli.main(["synthesize", "--config", cfg, "--out", out, "--no-timestamp"]) == 0
    assert cli.main(["simulate", "--config", cfg, "--out", out, "--no-timestamp"]) == 0
    report = Path(out, "double_integrator_report.csv").read_text().splitlines()
    verdicts = [line.split(",")[-1] for line in report[1:]]
    assert verdicts == ["pass"] * 6
    for i in range(1, 7):
        rows, reason, achieved = parse_trace(
            os.path.join(out, f"double_integrator_trace_{i}.csv"))
        assert reason == "reached-target"
        assert achieved == len(rows)
    _report("double integrator pipeline via CLI (six certified traces)")


# 4 ------------------------------------------------------------------------

def test_grid_refinement_never_raises_upper_bound():
    """Rebuilding on a reduced domain with a three times finer grid never
    increases the upper bound at any coarse cell center. Zero violations."""
    model = double_integrator()
    target = None
    uppers = {}
    quantizers = {}
    for eta in (0.3, 0.1):
        grid = GridSpec(tau=1.0, eta=eta, mu=0.1,
                        domain_lower=[-10, -10], domain_upper=[10, 10],
                        input_lower=[-1], input_upper=[1])
        system, quantizer = build_system(model, grid, input_margin=True)
        target = TargetSpec.ball([0.0, 0.0], 1.0)
        w_under = target_under(grid, target)
        table = solve_pessimistic(system, w_under)
        uppers[eta] = table.entry_times()
        quantizers[eta] = quantizer
    coarse_q, fine_q = quantizers[0.3], quantizers[0.1]
    violations = 0
    for cell in range(coarse_q.num_cells):
        center = coarse_q.center(cell)
        fine_cell = int(fine_q.cell_index(center))
        if uppers[0.1][fine_cell] > uppers[0.3][cell]:
            violations += 1
    assert violations == 0
    _report("grid refinement monotonicity (fine upper <= coarse upper everywhere)")


# 5 ------------------------------------------------------------------------

def test_unicycle_safe_reach_benchmark(unicycle_bundle):
    """Shipped obstacle course: certified safe reach from (1.5, 1, 0), no
    obstacle-cell visits, achieved time inside its own bound bracket and
    inside the 30-60 s sanity band."""
    b = unicycle_bundle
    x0 = b.cfg.initial_states[1]
    trace = simulate(b.model, b.rc, x0, b.cfg.target, b.cfg.max_steps,
                     lower=b.lower.entry_times())
    assert trace.reason == "reached-target"
    visits = sum(1 for s in trace.steps if s.cell in b.unsafe)
    assert visits == 0
    cell = int(b.quantizer.cell_index(x0))
    lower_here = entry_time(b.lower, cell)
    upper_here = entry_time(b.controller, cell)
    assert lower_here <= trace.achieved <= upper_here
    assert trace.certified
    seconds = trace.achieved * b.cfg.grid.tau
    assert 30.0 <= seconds <= 60.0, f"achieved {seconds}s"
    _report(f"unicycle safe reach ({seconds:.1f}s inside [{lower_here*0.5:.1f}s, "
            f"{upper_here*0.5:.1f}s] bracket, no obstacle visits)")


# 6 ------------------------------------------------------------------------

def _soundness_sweep(bundle, samples, rng):
    grid = bundle.cfg.grid
    q = bundle.quantizer
    system = bundle.system
    inputs = grid.input_values()
    half = 0.5 * grid.eta
    checked = 0
    while checked < samples:
        cell = int(rng.integers(0, q.num_cells))
        u = int(rng.integers(0, system.num_inputs))
        succ = post(system, cell, u)
        if succ.size == 0:
            continue
        x = q.center(cell) + rng.uniform(-half, half)
        nxt = integrate(bundle.model, bundle.flow, x, inputs[u])
        assert int(q.cell_index(nxt)) in succ, (cell, u, x.tolist())
        checked += 1


def test_abstraction_soundness_monte_carlo(di_bundle, unicycle_bundle):
    """10^4 random (state, input) samples per example model: the concrete
    one-period successor's cell is always in the abstract successor set."""
    _soundness_sweep(di_bundle, 10_000, np.random.default_rng(5150))
    _soundness_sweep(unicycle_bundle, 10_000, np.random.default_rng(6021))
    _report("abstraction soundness Monte-Carlo (2 x 10^4 samples, zero violations)")


# 7 ------------------------------------------------------------------------

def test_property_suites(tmp_path):
    """Module-invariant property suites: predecessor-operator monotonicity,
    fixed points within |X| iterations, serialization round-trips, integrator
    order factor in [8, 32]."""
    rng = np.random.default_rng(31337)
    for _ in range(60):
        s = random_system(rng)
        W = random_target(rng, s.num_states)
        z1 = random_target(rng, s.num_states)
        z2 = z1 | random_target(rng, s.num_states)
        assert reach_step(s, W, z1) <= reach_step(s, W, z2)
        for table in (solve_pessimistic(s, W), solve_optimistic(s, W)):
            assert table.iterations <= s.num_states
    for i in range(25):
        boxes = random_boxes(rng, line_grid(int(rng.integers(1, 13)), int(rng.integers(1, 4))))
        path = tmp_path / f"rt_{i}.sts"
        formats.write_system(path, boxes, timestamp=False)
        parsed, _ = formats.parse_system(path)
        assert parsed == boxes.expand()
    model = unicycle()
    x0 = np.array([0.2, -0.1, 0.4])
    u = np.array([0.5, 1.3])
    ref = integrate(model, SampledFlow(2.0, substeps=512), x0, u)
    e4 = np.abs(integrate(model, SampledFlow(2.0, substeps=4), x0, u) - ref).max()
    e8 = np.abs(integrate(model, SampledFlow(2.0, substeps=8), x0, u) - ref).max()
    assert 8.0 <= e4 / e8 <= 32.0
    _report("property suites (monotonicity, iteration bound, round-trips, integrator order)")
