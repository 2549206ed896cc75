"""Run configuration: dataclasses, JSON mapping, stable hashing.

A run is fully described by one nested dict; the hash of its canonical
JSON form identifies result rows. CLI flags and config files both feed
through `from_dict`, so every entry point validates identically.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, is_dataclass
from functools import reduce
from pathlib import Path
from typing import Any, Iterator, get_args, get_type_hints

from .dists import DecodeConfig, KdeConfig
from .world import TASK_KINDS, ShiftSpec

POLICY_KINDS = ("mixture", "diffusion", "expert")
PROMPT_KINDS = ("point", "box", "detector")
TRACKER_KINDS = ("exact", "nearest")
INPAINT_KINDS = ("constant", "mean", "diffusion")
METHODS = ("baseline", "pcd")


@dataclass(frozen=True)
class PolicyConfig:
    kind: str = "mixture"
    lam: float = 0.6
    sharpness: float = 6.0
    bins: int = 21
    diffusion_steps: int = 120

    def __post_init__(self) -> None:
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if not (0.0 <= self.lam <= 1.0):
            raise ValueError("lambda must lie in [0, 1]")
        if not (self.sharpness > 0.0):
            raise ValueError("sharpness must be > 0")
        if self.bins < 2:
            raise ValueError("bins must be >= 2")
        if self.diffusion_steps < 1:
            raise ValueError("diffusion_steps must be >= 1")


@dataclass(frozen=True)
class MaskConfig:
    """Annotation, tracking, and inpainting choices for the masked branch."""

    prompt: str = "detector"
    tracker: str = "nearest"
    inpaint: str = "mean"
    miss_prob: float = 0.0
    jitter: int = 0
    constant_value: float = 0.0
    diffusion_iterations: int = 25

    def __post_init__(self) -> None:
        if self.prompt not in PROMPT_KINDS:
            raise ValueError(f"unknown prompt kind {self.prompt!r}")
        if self.tracker not in TRACKER_KINDS:
            raise ValueError(f"unknown tracker {self.tracker!r}")
        if self.inpaint not in INPAINT_KINDS:
            raise ValueError(f"unknown inpaint strategy {self.inpaint!r}")
        if not (0.0 <= self.miss_prob <= 1.0):
            raise ValueError("miss_prob must lie in [0, 1]")
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")
        if not (0.0 <= self.constant_value <= 1.0):
            raise ValueError("constant_value must lie in [0, 1]")
        if self.diffusion_iterations < 1:
            raise ValueError("diffusion_iterations must be >= 1")


@dataclass(frozen=True)
class PcdRunConfig:
    method: str = "pcd"
    task_kind: str = "reach"
    max_steps: int | None = None
    shift: ShiftSpec = field(default_factory=ShiftSpec)
    decode: DecodeConfig = field(default_factory=DecodeConfig)
    kde: KdeConfig = field(default_factory=KdeConfig)
    mask: MaskConfig = field(default_factory=MaskConfig)
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    trials: int = 100
    base_seed: int = 0
    both_metrics: bool = False

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.task_kind not in TASK_KINDS:
            raise ValueError(f"unknown task kind {self.task_kind!r}")
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


# The JSON form names a few attributes differently or nests them deeper;
# every other attribute path is its own JSON path.
_JSON_RENAMES = {
    "task_kind": "task.kind",
    "max_steps": "task.max_steps",
    "shift.kind": "shift.variant",
    "policy.lam": "policy.lambda",
    "policy.diffusion_steps": "policy.diffusion.steps",
    "base_seed": "seed",
}


def _attr_paths(obj: Any, prefix: str = "") -> Iterator[tuple[str, tuple[type, ...]]]:
    """(attribute path, the types its annotation names) for every field."""
    hints = get_type_hints(type(obj))
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            yield from _attr_paths(value, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name, get_args(hints[f.name]) or (hints[f.name],)


# (JSON path, attribute path, leaf types) for every field: the one map
# between the two forms.
_FIELDS: tuple[tuple[str, str, tuple[type, ...]], ...] = tuple(
    (_JSON_RENAMES.get(attr, attr), attr, kinds) for attr, kinds in _attr_paths(PcdRunConfig())
)

_JSON_NAMES = {
    bool: "a boolean",
    int: "an integer",
    float: "a number",
    str: "a string",
    type(None): "null",
}


def to_dict(cfg: PcdRunConfig) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for json_path, attr_path, _ in _FIELDS:
        *sections, key = json_path.split(".")
        node = out
        for section in sections:
            node = node.setdefault(section, {})
        node[key] = reduce(getattr, attr_path.split("."), cfg)
    return out


def _merged(raw: Any, base: dict[str, Any], where: str) -> dict[str, Any]:
    """base with raw's values laid over it, checking raw against base's keys."""
    if raw is None:
        return base
    if not isinstance(raw, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(raw).__name__}")
    unknown = set(raw) - set(base)
    if unknown:
        raise ValueError(f"unknown {where} keys: {sorted(unknown)}")
    return {
        key: _merged(raw.get(key), value, key if where == "config" else f"{where}.{key}")
        if isinstance(value, dict)
        else raw.get(key, value)
        for key, value in base.items()
    }


def _build(cls: type, values: dict[str, Any]) -> Any:
    """cls(**values), where a dotted attribute path fills a nested dataclass."""
    kwargs: dict[str, Any] = {}
    nested: dict[str, dict[str, Any]] = {}
    for path, value in values.items():
        head, _, rest = path.partition(".")
        if rest:
            nested.setdefault(head, {})[rest] = value
        else:
            kwargs[head] = value
    default = cls()
    for head, sub in nested.items():
        kwargs[head] = _build(type(getattr(default, head)), sub)
    return cls(**kwargs)


def _leaf(tree: dict[str, Any], path: str, kinds: tuple[type, ...]) -> Any:
    """The value at path, which must have a JSON type its field admits.

    JSON has one number type, so a float field takes an integer too; true
    and false are not numbers, though Python's bool is an int. Nothing is
    coerced.
    """
    value = reduce(dict.__getitem__, path.split("."), tree)
    admitted = kinds + (int,) if float in kinds else kinds
    if isinstance(value, bool) != (bool in kinds) or not isinstance(value, admitted):
        expected = " or ".join(_JSON_NAMES[k] for k in kinds)
        raise ValueError(f"{path} must be {expected}, got {value!r}")
    return value


def from_dict(raw: dict[str, Any]) -> PcdRunConfig:
    tree = _merged(raw, to_dict(PcdRunConfig()), "config")
    return _build(
        PcdRunConfig, {attr: _leaf(tree, path, kinds) for path, attr, kinds in _FIELDS}
    )


def merge(base: dict[str, Any], override: dict[str, Any]) -> dict[str, Any]:
    """Deep-merge override into base without mutating either."""
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = merge(out[key], value)
        else:
            out[key] = value
    return out


def config_hash(cfg: PcdRunConfig) -> str:
    canonical = json.dumps(to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def load_config(path: str | Path) -> PcdRunConfig:
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    return from_dict(raw)
