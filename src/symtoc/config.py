"""Problem configuration files: line oriented `section.key = value` text.

Values are booleans (true/false), numbers, number lists in square brackets,
or bare strings (ids and file names). Unknown keys are errors; every field
is validated with a message naming the key. Full-line comments start with #.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

import numpy as np

from .abstraction import GridSpec, TargetSpec
from .dynamics import MODEL_REGISTRY, Model, make_model


class ConfigError(ValueError):
    """Configuration file is malformed or inconsistent."""


def _parse_value(text: str, lineno: int):
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            raise ConfigError(f"line {lineno}: unterminated list '{text}'")
        inner = text[1:-1].replace(",", " ").split()
        try:
            numbers = [float(t) for t in inner]
        except ValueError:
            raise ConfigError(f"line {lineno}: non-numeric list entry in '{text}'") from None
    elif text in ("true", "false"):
        return text == "true"
    else:
        try:
            numbers = [float(text)]  # also 'nan', 'inf' and decimals past the float range
        except ValueError:
            return text  # bare string
    if not np.isfinite(numbers).all():
        raise ConfigError(f"line {lineno}: non-finite number in '{text}'")
    if text.startswith("["):
        return numbers
    return numbers[0] if ("." in text or "e" in text or "E" in text) else int(text)


def _read_pairs(text: str):
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got '{line}'")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        pairs[key] = (_parse_value(value, lineno), lineno)
    return pairs


_OUTPUT_KEYS = ("system", "controller", "bounds", "trace_prefix", "plot", "report")


@dataclass
class ProblemConfig:
    """Validated problem description shared by all pipeline commands."""
    model_id: str | None = None
    model_params: dict = field(default_factory=dict)
    grid: GridSpec | None = None
    input_margin: bool = False
    target: TargetSpec | None = None
    obstacles: TargetSpec | None = None
    initial_states: dict = field(default_factory=dict)  # k of simulate.initial.<k> -> state
    max_steps: int = 1000
    outputs: dict = field(default_factory=dict)

    def build_model(self) -> Model:
        if self.model_id is None:
            raise ConfigError("config has no model.id")
        return make_model(self.model_id, self.model_params)

    def output_path(self, kind: str) -> str:
        return self.outputs[kind]

    def check_dimensions(self, grid: GridSpec):
        """The grid must quantize the named model's state space (`GridSpec.check_model`),
        and target, obstacles and start states must have the grid's state dimension."""
        if self.model_id is not None:
            try:
                grid.check_model(self.build_model())
            except ValueError as e:
                raise ConfigError(f"grid: {e}") from None
        for spec, keys in ((self.target, "target.*"), (self.obstacles, "obstacle.<k>.*")):
            if spec is not None and spec.dim != grid.dim:
                raise ConfigError(f"keys '{keys}' have wrong dimension {spec.dim} "
                                  f"(the grid has {grid.dim})")
        for k, x0 in self.initial_states.items():
            if x0.size != grid.dim:
                raise ConfigError(f"key 'simulate.initial.{k}' has wrong dimension "
                                  f"{x0.size} (the grid has {grid.dim})")


def _want(pairs, key, typ, required=False, default=None):
    if key not in pairs:
        if required:
            raise ConfigError(f"missing required key '{key}'")
        return default
    value, lineno = pairs.pop(key)
    names = {"number": (int, float), "number or list": (int, float, list), "int": int,
             "list": list, "string": str, "bool": bool}
    if isinstance(value, bool) != (typ == "bool") or not isinstance(value, names[typ]):
        raise ConfigError(f"line {lineno}: key '{key}' expects a {typ}")
    return value


def _ints(key, values):
    """The entries of the list under `key` as ints; a fraction is an error."""
    for v in values:
        if not float(v).is_integer():
            raise ConfigError(f"key '{key}': {v!r} is not an integer")
    return [int(v) for v in values]


def _member_from_pairs(pairs, prefix) -> TargetSpec:
    shape = _want(pairs, f"{prefix}.shape", "string", default="box")
    free = _ints(f"{prefix}.free", _want(pairs, f"{prefix}.free", "list", default=[]))
    if shape == "box":
        make, fields = TargetSpec.box, (("lower", "list"), ("upper", "list"))
    elif shape == "ball":
        make, fields = TargetSpec.ball, (("center", "list"), ("radius", "number"))
    else:
        raise ConfigError(f"key '{prefix}.shape': unknown shape '{shape}'")
    known = {f"{prefix}.{name}" for name, _ in fields}
    for key, (_, lineno) in pairs.items():
        if key.startswith(prefix + ".") and key not in known:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
    args = [_want(pairs, f"{prefix}.{name}", typ, required=True) for name, typ in fields]
    try:
        return make(*args, free=free)
    except ValueError as e:
        raise ConfigError(f"key '{prefix}': {e}") from None


def _numbered_prefixes(pairs, section):
    """(k, prefix) for every `<section>.<k>` key prefix, by k; a number with a
    leading zero is no member number, so its keys stay unknown."""
    nums = set()
    head = section + "."
    for key in pairs:
        if key.startswith(head):
            first = key[len(head):].split(".", 1)[0]
            if first.isdecimal() and first == str(int(first)):
                nums.add(int(first))
    return [(k, f"{section}.{k}") for k in sorted(nums)]


def parse_config_text(text: str) -> ProblemConfig:
    pairs = _read_pairs(text)
    cfg = ProblemConfig()

    cfg.model_id = _want(pairs, "model.id", "string")
    if cfg.model_id is not None and cfg.model_id not in MODEL_REGISTRY:
        raise ConfigError(f"key 'model.id': unknown model '{cfg.model_id}'")
    for key in [k for k in pairs if k.startswith("model.param.")]:
        cfg.model_params[key[len("model.param."):]] = _want(pairs, key, "number")
    if cfg.model_id is not None:
        signature = inspect.signature(MODEL_REGISTRY[cfg.model_id])
        try:
            signature.bind(**cfg.model_params)
        except TypeError as e:
            unknown = [n for n in cfg.model_params if n not in signature.parameters]
            where = f"key 'model.param.{unknown[0]}': " if unknown else ""
            raise ConfigError(f"{where}model '{cfg.model_id}': {e}") from None

    grid_keys = [k for k in pairs if k.startswith("grid.")]
    if grid_keys:
        tau = _want(pairs, "grid.tau", "number", required=True)
        eta = _want(pairs, "grid.eta", "number or list", required=True)
        mu = _want(pairs, "grid.mu", "number", required=True)
        dlo = _want(pairs, "grid.domain_lower", "list", required=True)
        dhi = _want(pairs, "grid.domain_upper", "list", required=True)
        ilo = _want(pairs, "grid.input_lower", "list", required=True)
        ihi = _want(pairs, "grid.input_upper", "list", required=True)
        cfg.input_margin = bool(_want(pairs, "grid.input_margin", "bool", default=False))
        periodic = ()
        if cfg.model_id is not None:
            model = cfg.build_model()
            periodic = tuple(k in model.angular_dims for k in range(len(dlo)))
            if cfg.input_margin and model.input_sensitivity is None:
                raise ConfigError(f"key 'grid.input_margin': model '{cfg.model_id}' declares "
                                  "no input_sensitivity, so an input margin cannot be covered")
        try:
            cfg.grid = GridSpec(tau=tau, eta=eta, mu=mu,
                                domain_lower=np.array(dlo), domain_upper=np.array(dhi),
                                input_lower=np.array(ilo), input_upper=np.array(ihi),
                                periodic=periodic)
        except ValueError as e:
            raise ConfigError(f"grid: {e}") from None

    if any(k.startswith("target.") for k in pairs):
        if pairs.get("target.shape", ("box", 0))[0] == "union":
            pairs.pop("target.shape")
            members = []
            for _, prefix in _numbered_prefixes(pairs, "target"):
                members.append(_member_from_pairs(pairs, prefix))
            if not members:
                raise ConfigError("target.shape = union needs numbered members")
            cfg.target = TargetSpec.union(*members)
        else:
            cfg.target = _member_from_pairs(pairs, "target")

    obstacle_members = []
    for _, prefix in _numbered_prefixes(pairs, "obstacle"):
        obstacle_members.append(_member_from_pairs(pairs, prefix))
    if obstacle_members:
        cfg.obstacles = TargetSpec.union(*obstacle_members)

    for k, prefix in _numbered_prefixes(pairs, "simulate.initial"):
        x0 = _want(pairs, prefix, "list")  # None if only longer keys, left unknown, exist
        if x0 is not None:
            cfg.initial_states[k] = np.asarray(x0, dtype=float)
    cfg.max_steps = int(_want(pairs, "simulate.max_steps", "int", default=1000))
    if cfg.max_steps < 0:
        raise ConfigError("key 'simulate.max_steps' must be nonnegative")

    stem = cfg.model_id or "problem"
    defaults = {"system": f"{stem}.sts", "controller": f"{stem}.ctl",
                "bounds": f"{stem}_bounds.csv", "trace_prefix": f"{stem}_trace",
                "plot": f"{stem}_plot.csv", "report": f"{stem}_report.csv"}
    for kind in _OUTPUT_KEYS:
        cfg.outputs[kind] = _want(pairs, f"output.{kind}", "string", default=defaults[kind])

    if pairs:
        key, (_, lineno) = next(iter(pairs.items()))
        raise ConfigError(f"line {lineno}: unknown key '{key}'")

    if cfg.grid:
        cfg.check_dimensions(cfg.grid)
    return cfg


def parse_config(path) -> ProblemConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as e:
        raise ConfigError(f"config {path} is not UTF-8 text: {e}") from None
    return parse_config_text(text)
