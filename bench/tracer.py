"""Outside-in span tracer for the pcd benchmark.

The tracer never edits the package. It replaces a function at the binding
its caller resolves (a module global such as ``pcd.harness.track``, or a
method on a class such as ``World.step``) with a wrapper that records a
span, and puts every original back on ``uninstall``. A binding that a
later refactor removed is skipped and listed in ``missing`` instead of
failing the run.

Spans are kept in memory as parallel typed arrays (name, start, end,
parent span, episode id) and written out by ``write`` when the run ends.
Self time is computed as spans close: a span's duration minus the time
covered by its children. One thread runs the workload, so children never
overlap and that difference is exact.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from array import array
from pathlib import Path
from typing import Callable

# (span name, bindings as "module:attribute path"). The span name's prefix
# before the first dot is the layer it is charged to.
SPANS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("harness.episode", ("pcd.harness:run_baseline_episode", "pcd.harness:run_pcd_episode")),
    ("world.reset", ("pcd.world:World.reset",)),
    ("world.step", ("pcd.world:World.step",)),
    ("world.render", ("pcd.world:World.render",)),
    ("world.ground_truth_mask", ("pcd.world:World.ground_truth_mask",)),
    (
        "raster.cell_centers",
        ("pcd.policies:cell_centers", "pcd.world:cell_centers", "pcd.raster:cell_centers"),
    ),
    ("raster.disk_mask", ("pcd.world:disk_mask", "pcd.raster:disk_mask")),
    ("seeding.substream", ("pcd.harness:substream", "pcd.world:substream")),
    ("policies.sample", ("pcd.policies:MixtureDiffusionPolicy.sample",)),
    ("policies.denoise_step", ("pcd.policies:denoise_step",)),
    # The closure returned by this factory is what denoise_step calls.
    ("policies.noise_prediction", ("pcd.policies:mixture_noise_prediction",)),
    ("policies.target_mixture", ("pcd.policies:MixtureDiffusionPolicy.target_mixture",)),
    ("policies.predict", ("pcd.policies:SpuriousMixturePolicy.predict",)),
    ("policies.find_gripper", ("pcd.policies:find_gripper",)),
    ("policies.find_class_blob", ("pcd.policies:find_class_blob",)),
    ("policies.find_light_peak", ("pcd.policies:find_light_peak",)),
    ("dists.kde_estimate_multi", ("pcd.harness:kde_estimate_multi",)),
    (
        "dists.contrastive_combine",
        ("pcd.harness:contrastive_combine", "pcd.harness:contrastive_combine_multi"),
    ),
    ("dists.select", ("pcd.harness:select_action", "pcd.harness:select_index")),
    ("masking.inpaint", ("pcd.harness:inpaint",)),
    ("masking.track", ("pcd.harness:track",)),
    ("masking.annotate_initial", ("pcd.harness:annotate_initial",)),
)

SPAN_NAMES = tuple(name for name, _ in SPANS)
LAYERS = tuple(dict.fromkeys(name.split(".", 1)[0] for name in SPAN_NAMES))

_EPISODE_SPAN = "harness.episode"
_FACTORY_SPAN = "policies.noise_prediction"
_TRACK_SPAN = "masking.track"


class Tracer:
    """Records spans around the package's public calls while installed."""

    def __init__(self) -> None:
        self._ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.calls = [0] * len(SPAN_NAMES)
        self.self_s = [0.0] * len(SPAN_NAMES)
        # nearest-tracker calls, and those that handed back the previous mask
        self.track_nearest = 0
        self.track_fallback = 0
        self.missing: list[str] = []
        self._name = array("H")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._episode = array("i")
        self._stack: list[list] = []  # [span index, name id, start, child time]
        self._current_episode = -1
        self._episodes = 0
        self._undo: list[Callable[[], None]] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name_id: int) -> None:
        index = len(self._name)
        self._name.append(name_id)
        self._parent.append(self._stack[-1][0] if self._stack else -1)
        self._episode.append(self._current_episode)
        self._end.append(0.0)
        start = time.perf_counter()
        self._start.append(start)
        self._stack.append([index, name_id, start, 0.0])

    def _close(self) -> None:
        end = time.perf_counter()
        index, name_id, start, child = self._stack.pop()
        self._end[index] = end
        duration = end - start
        self.calls[name_id] += 1
        self.self_s[name_id] += duration - child
        if self._stack:
            self._stack[-1][3] += duration

    def _spanned(self, name: str, fn: Callable) -> Callable:
        name_id = self._ids[name]

        def wrapper(*args, **kwargs):
            self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()

        return wrapper

    def _episode_wrapper(self, fn: Callable) -> Callable:
        inner = self._spanned(_EPISODE_SPAN, fn)

        def wrapper(*args, **kwargs):
            self._current_episode = self._episodes
            self._episodes += 1
            try:
                return inner(*args, **kwargs)
            finally:
                self._current_episode = -1

        return wrapper

    def _factory_wrapper(self, factory: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            return self._spanned(_FACTORY_SPAN, factory(*args, **kwargs))

        return wrapper

    def _track_wrapper(self, fn: Callable) -> Callable:
        inner = self._spanned(_TRACK_SPAN, fn)

        def wrapper(state, *args, **kwargs):
            previous = getattr(state, "last_mask", None)
            result = inner(state, *args, **kwargs)
            if getattr(state, "mode", None) == "nearest":
                self.track_nearest += 1
                if result is previous:
                    self.track_fallback += 1
            return result

        return wrapper

    def _wrap(self, name: str, fn: Callable) -> Callable:
        if name == _EPISODE_SPAN:
            return self._episode_wrapper(fn)
        if name == _FACTORY_SPAN:
            return self._factory_wrapper(fn)
        if name == _TRACK_SPAN:
            return self._track_wrapper(fn)
        return self._spanned(name, fn)

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        for name, bindings in SPANS:
            for binding in bindings:
                if not self._patch(binding, name):
                    self.missing.append(binding)

    def _patch(self, binding: str, name: str) -> bool:
        module_name, path = binding.split(":")
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return False
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        original = getattr(owner, attr, None)
        if not callable(original):
            return False
        owned = vars(owner).get(attr)
        setattr(owner, attr, self._wrap(name, original))

        def undo() -> None:
            if owned is not None:
                setattr(owner, attr, owned)
            else:
                delattr(owner, attr)

        self._undo.append(undo)
        return True

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results ----------------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Call counts by span name, plus the tracker counters."""
        out = dict(zip(SPAN_NAMES, self.calls))
        out["track.nearest"] = self.track_nearest
        out["track.fallback"] = self.track_fallback
        return out

    def missing_spans(self) -> list[str]:
        """Span names none of whose bindings could be wrapped."""
        return [
            name
            for name, bindings in SPANS
            if all(binding in self.missing for binding in bindings)
        ]

    def write(self, path: Path, header: dict) -> None:
        """Write every span as one JSON line, gzipped, after a header line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({**header, "span_names": list(SPAN_NAMES)}) + "\n")
            for row in zip(self._name, self._start, self._end, self._parent, self._episode):
                fh.write("[%d,%r,%r,%d,%d]\n" % row)
