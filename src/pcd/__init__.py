"""Training-free contrastive action decoding for visuomotor policies.

The package pairs a policy's action distribution on the true observation
with its distribution on a counterfactual observation whose task-relevant
objects have been masked out, then reweights actions by how much more
likely they are with the objects present. Everything a policy still
prefers without the objects is, by construction, driven by something
task-irrelevant.

The top level holds what the README's library examples use; everything
else is in the submodules.
"""

from .config import (
    MaskConfig,
    PcdRunConfig,
    PolicyConfig,
    config_hash,
    from_dict,
    load_config,
    to_dict,
)
from .dists import DecodeConfig, KdeConfig
from .harness import (
    BatchResult,
    EpisodeRecord,
    build_policy,
    evaluate_batch,
    paired_bootstrap_pvalue,
    run_episode,
)
from .world import ShiftSpec, World, make_task

__version__ = "0.1.0"

__all__ = [
    "BatchResult",
    "DecodeConfig",
    "EpisodeRecord",
    "KdeConfig",
    "MaskConfig",
    "PcdRunConfig",
    "PolicyConfig",
    "ShiftSpec",
    "World",
    "build_policy",
    "config_hash",
    "evaluate_batch",
    "from_dict",
    "load_config",
    "make_task",
    "paired_bootstrap_pvalue",
    "run_episode",
    "to_dict",
]
