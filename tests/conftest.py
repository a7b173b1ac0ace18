import os
import time
from types import SimpleNamespace

import pytest

from symtoc import (RefinedController, SampledFlow, build_abstraction, synthesize,
                    target_over, target_under)
from symtoc.config import parse_config

CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


def _bundle(name):
    """The shipped config `name` abstracted and synthesized, one call per stage."""
    cfg = parse_config(os.path.join(CONFIG_DIR, name))
    model = cfg.build_model()
    t0 = time.perf_counter()
    boxes, quantizer = build_abstraction(model, cfg.grid, input_margin=cfg.input_margin)
    system = boxes.expand()
    build_seconds = time.perf_counter() - t0
    w_under = target_under(cfg.grid, cfg.target)
    w_over = target_over(cfg.grid, cfg.target)
    unsafe = target_over(cfg.grid, cfg.obstacles) if cfg.obstacles is not None else None
    controller, lower = synthesize(system, w_under, w_over, unsafe)
    return SimpleNamespace(cfg=cfg, model=model, flow=SampledFlow(cfg.grid.tau),
                           boxes=boxes, system=system, quantizer=quantizer, w_under=w_under,
                           w_over=w_over, unsafe=unsafe, controller=controller,
                           lower=lower, rc=RefinedController(controller, quantizer),
                           build_seconds=build_seconds)


@pytest.fixture(scope="session")
def di_bundle():
    """Full-scale double integrator benchmark from the shipped config."""
    return _bundle("double_integrator.cfg")


@pytest.fixture(scope="session")
def unicycle_bundle():
    """Safety-composed unicycle benchmark from the shipped config."""
    return _bundle("unicycle.cfg")
