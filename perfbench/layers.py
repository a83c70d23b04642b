"""Charge a profiled run's host self time to the program's layers.

The layers are the ``src/repro`` packages, with the modules that carry
a known hot path split out.  :data:`LAYER_MAP` is the whole mapping:
a profiled function belongs to the entry for ``<pkg>/<module>.py`` if
there is one, else to the entry for ``<pkg>``.  Code in ``src/repro``
that no entry names (``adios``, ``exec``, ``serve``, the package
``__init__``) is charged to ``other`` so attribution gaps show.

Functions outside ``src/repro`` (numpy, builtins, the standard library)
have no layer of their own: their self time goes to the layer that
called them, split by the profiler's per-caller records and followed up
through further non-program callers.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, Tuple

#: ``<pkg>`` or ``<pkg>/<module>.py`` under ``src/repro`` -> layer name
LAYER_MAP = {
    "sim": "sim",
    "hpc/network.py": "hpc.network",
    "hpc/lustre.py": "hpc.lustre",
    "hpc/memtrack.py": "hpc.memtrack",
    "hpc": "hpc",
    "transport": "transport",
    "mpi": "mpi",
    "staging/ndarray.py": "staging.ndarray",
    "staging/batch.py": "staging.batch",
    "staging": "staging",
    "kernels": "kernels",
    "workflows": "workflows",
    "core/runcache.py": "core.runcache",
    "core/forkpoint.py": "core.forkpoint",
    "core": "core",
    "chaos": "chaos",
}

OTHER = "other"

#: every layer the traced run reports, in report order
LAYERS = tuple(dict.fromkeys(LAYER_MAP.values())) + (OTHER,)

_MARK = os.sep + os.path.join("src", "repro") + os.sep

Func = Tuple[str, int, str]


def layer_of_file(filename: str) -> str:
    """The layer owning a program source file, ``other`` if none does.

    Returns ``""`` for a file outside ``src/repro``.
    """
    at = filename.replace("/", os.sep).rfind(_MARK)
    if at < 0:
        return ""
    rel = filename[at + len(_MARK):].replace(os.sep, "/")
    pkg = rel.split("/", 1)[0]
    return LAYER_MAP.get(rel) or (LAYER_MAP.get(pkg) if "/" in rel else None) or OTHER


def self_time_by_layer(stats: Dict[Func, tuple]) -> Dict[str, float]:
    """Self seconds per layer from ``pstats.Stats(...).stats``."""
    memo: Dict[Func, Dict[str, float]] = {}

    def share(func: Func, visiting: frozenset) -> Dict[str, float]:
        # The layer mix of the time spent *inside* ``func``'s callees.
        if func in memo:
            return memo[func]
        layer = layer_of_file(func[0])
        if layer:
            return {layer: 1.0}
        if func in visiting or func not in stats:
            return {OTHER: 1.0}
        callers = stats[func][4]
        total = sum(entry[3] for entry in callers.values())
        if not callers or total <= 0:
            mix = {OTHER: 1.0}
        else:
            mix = {}
            for caller, entry in callers.items():
                for name, frac in share(caller, visiting | {func}).items():
                    mix[name] = mix.get(name, 0.0) + frac * entry[3] / total
        memo[func] = mix
        return mix

    totals = {name: 0.0 for name in LAYERS}
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        layer = layer_of_file(func[0])
        if layer:
            totals[layer] += tt
            continue
        if not callers:
            totals[OTHER] += tt
            continue
        for caller, entry in callers.items():
            for name, frac in share(caller, frozenset({func})).items():
                totals[name] += entry[2] * frac
    return totals


def call_count(stats: Dict[Func, tuple], suffix: Iterable[str], name: str) -> int:
    """How often the program function ``<suffix path>:<name>`` was called."""
    tail = os.sep + os.path.join("src", "repro", *suffix)
    return sum(
        value[1] for func, value in stats.items()
        if func[2] == name and func[0].replace("/", os.sep).endswith(tail)
    )
