import os
import time
from types import SimpleNamespace

import pytest

from symtoc import (RefinedController, SampledFlow, build_abstraction,
                    solve_optimistic, solve_pessimistic, extract_controller,
                    synthesize_safe_reach, target_over, target_under)
from symtoc.config import parse_config

CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


def _margin(cfg):
    return 0.5 * cfg.grid.mu if cfg.input_margin else None


@pytest.fixture(scope="session")
def di_bundle():
    """Full-scale double integrator benchmark from the shipped config."""
    cfg = parse_config(os.path.join(CONFIG_DIR, "double_integrator.cfg"))
    model = cfg.build_model()
    flow = SampledFlow(cfg.grid.tau)
    t0 = time.perf_counter()
    system, quantizer = build_abstraction(model, cfg.grid, flow, input_margin=_margin(cfg))
    build_seconds = time.perf_counter() - t0
    w_under = target_under(cfg.grid, quantizer, cfg.target)
    w_over = target_over(cfg.grid, quantizer, cfg.target)
    table = solve_pessimistic(system, w_under)
    controller = extract_controller(system, w_under, table)
    lower = solve_optimistic(system, w_over)
    return SimpleNamespace(cfg=cfg, model=model, flow=flow, system=system,
                           quantizer=quantizer, w_under=w_under, w_over=w_over,
                           controller=controller, lower=lower,
                           build_seconds=build_seconds)


@pytest.fixture(scope="session")
def unicycle_bundle():
    """Safety-composed unicycle benchmark from the shipped config."""
    cfg = parse_config(os.path.join(CONFIG_DIR, "unicycle.cfg"))
    model = cfg.build_model()
    flow = SampledFlow(cfg.grid.tau)
    t0 = time.perf_counter()
    system, quantizer = build_abstraction(model, cfg.grid, flow, input_margin=_margin(cfg))
    build_seconds = time.perf_counter() - t0
    w_under = target_under(cfg.grid, quantizer, cfg.target)
    w_over = target_over(cfg.grid, quantizer, cfg.target)
    unsafe = target_over(cfg.grid, quantizer, cfg.obstacles)
    result = synthesize_safe_reach(system, ~unsafe, w_under)
    lower = solve_optimistic(result.restricted, w_over)
    rc = RefinedController(result.controller, quantizer)
    return SimpleNamespace(cfg=cfg, model=model, flow=flow, system=system,
                           quantizer=quantizer, w_under=w_under, w_over=w_over,
                           unsafe=unsafe, result=result, lower=lower, rc=rc,
                           build_seconds=build_seconds)
