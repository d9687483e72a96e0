"""In-memory spans recorded at the boundaries between hdmac modules.

A span is opened by the benchmark around each call it makes into the
library, and by a wrapper around each public function that one hdmac module
calls in another (for example ``verify`` calling ``gaussian.pdf_joint_region``).
Calls a module makes to its own functions are not wrapped, so a span is
always a crossing from one layer into the next.  Wrappers are installed only
for a traced round and removed afterwards, so untraced rounds run the
library unmodified.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

# (module, public function) pairs whose cross-module calls get a span
LAYER_FUNCTIONS = {
    "gaussian": ("pdf_joint_region", "pdf_separate_region", "pdf_partial_user_region",
                 "df_region", "gaussian_outer_region", "degraded_outer_region",
                 "baseline_region"),
    "core": ("polygon_from_constraints",),
    "optimize": ("frontier", "optimize_scheme", "scheme_region", "region_contains",
                 "weighted_best_vertex", "sample_allocation"),
    "dmc": ("pdf_joint_region", "pdf_separate_region", "df_region", "outer_region",
            "mutual_information"),
    "muser": ("muser_achievable_constraints", "muser_outer_constraints"),
    "verify": ("verify_joint_dominates_separate",),
}


class Tracer:
    """Collects spans (name, start, end, parent) for one benchmark process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.workload = ""
        self.spans: List[list] = []   # [name, start, end, parent index, workload]
        self._stack: List[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called ``name``."""
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        span = [name, time.perf_counter(), 0.0, parent, self.workload]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def _wrapper(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> List[Tuple[object, str, object]]:
        """Wrap every cross-module binding of LAYER_FUNCTIONS; returns the
        bindings to hand back to ``uninstall``."""
        modules = {name[len("hdmac."):]: mod for name, mod in sys.modules.items()
                   if name.startswith("hdmac.")}
        restore = []
        for layer, fns in LAYER_FUNCTIONS.items():
            for fn_name in fns:
                original = getattr(modules[layer], fn_name)
                wrapped = self._wrapper(f"{layer}.{fn_name}", original)
                for mod_name, mod in modules.items():
                    if mod_name != layer and getattr(mod, fn_name, None) is original:
                        restore.append((mod, fn_name, original))
                        setattr(mod, fn_name, wrapped)
        return restore

    @staticmethod
    def uninstall(restore) -> None:
        for mod, fn_name, original in restore:
            setattr(mod, fn_name, original)

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, total time and self time (total minus
        the time covered by child spans)."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _, _) in enumerate(self.spans):
            rec = out[name]
            rec["calls"] += 1
            rec["total_s"] += end - start
            rec["self_s"] += end - start - child_time[i]
        return out

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines, one object per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, wl in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "workload": wl,
                                     "run_id": self.run_id}) + "\n")
