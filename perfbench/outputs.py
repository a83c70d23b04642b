"""Record every simulation point a workload runs, and check it.

:class:`PointRecorder` wraps ``run_coupled`` where the study, the
figures and the chaos campaign look it up, so each call is seen from
outside the program: its inputs, its result, and whether the run cache
answered it instead of the simulator.

A point is identified by :func:`point_id`: the call's arguments in a
canonical JSON form, minus the arguments that only choose *how* the
result is computed (``fidelity``, ``batch_actors``, ``fork_host`` and
``trace``).  A result is compared through :func:`fingerprint`: every
output field of ``RunResult`` with floats written by ``repr`` (which
round-trips exactly), so equal fingerprints mean bit-identical numbers.
The implementation labels (``fidelity``, ``fidelity_fallback``,
``batch_fallback``, ``forked``, ``fork_fallback``) are left out, so a
change that removes a reduction layer is judged on numbers alone.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
import sys
from typing import Any, Dict, List, Optional

#: arguments that select an implementation path, never an outcome
PATH_ARGS = ("fidelity", "batch_actors", "fork_host", "trace")

#: the RunResult fields compared bit-for-bit
OUTPUT_FIELDS = (
    "machine", "workflow", "method", "nsim", "nana", "steps",
    "end_to_end", "sim_finish", "ana_finish", "put_time", "get_time",
    "bytes_staged", "failure", "variable_nbytes", "nservers",
    "versions_lost", "recovery_events", "recovery_seconds",
    "server_memory_peaks", "server_memory_breakdown",
    "sim_memory", "ana_memory", "server_memory",
)


def canon(value: Any) -> Any:
    """A JSON-ready form of ``value`` that is equal iff the inputs are.

    Dataclass fields still at their default are left out, so adding a
    defaulted field to an input type does not rename every point.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return [canon(v) for v in value]
    if isinstance(value, dict):
        return {str(k): canon(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if dataclasses.is_dataclass(value):
        fields = {}
        for f in dataclasses.fields(value):
            got = getattr(value, f.name)
            if f.default is not dataclasses.MISSING and got == f.default:
                continue
            if f.default_factory is not dataclasses.MISSING and got == f.default_factory():
                continue
            fields[f.name] = canon(got)
        return {"__type__": type(value).__name__, **fields}
    if hasattr(value, "times") and hasattr(value, "values"):  # TimeSeries
        body = json.dumps([canon(list(value.times)), canon(list(value.values))])
        digest = hashlib.sha256(body.encode()).hexdigest()[:32]
        return f"series:{len(value.times)}:{digest}"
    return repr(value)


def point_id(signature: inspect.Signature, args: tuple, kwargs: dict) -> str:
    """The canonical identity of one ``run_coupled`` call.

    Arguments equal to their default are dropped, so a call site that
    spells out a default names the same point as one that omits it.
    """
    bound = signature.bind(*args, **kwargs)
    ident: Dict[str, Any] = {}
    for name, value in bound.arguments.items():
        if name in PATH_ARGS:
            continue
        form = canon(value)
        default = signature.parameters[name].default
        if default is not inspect.Parameter.empty and form == canon(default):
            continue
        ident[name] = form
    return json.dumps(ident, sort_keys=True, separators=(",", ":"))


def fingerprint(result: Any) -> Dict[str, Any]:
    """Every output field of one ``RunResult``, in canonical form."""
    return {name: canon(getattr(result, name)) for name in OUTPUT_FIELDS}


@dataclasses.dataclass
class Call:
    """One observed ``run_coupled`` call.

    The wrapper stores only the raw arguments and the result, so the
    benchmark's own bookkeeping stays out of the timed and profiled
    region; :meth:`PointRecorder.uninstall` fills in the derived fields.
    """

    unit: str
    args: tuple
    kwargs: dict
    result: Any = None
    #: answered by the run cache (the simulator did no work for it)
    cache_hit: bool = False
    error: Optional[str] = None
    key: str = ""
    fidelity: str = ""
    batch_actors: Optional[bool] = None


class PointRecorder:
    """Wraps ``run_coupled`` in every module that looks it up by name.

    ``force_fidelity`` overrides the requested fidelity on every call;
    the reference recorder uses it to run the same points ``exact``.
    """

    def __init__(self, force_fidelity: Optional[str] = None) -> None:
        import repro.workflows
        from repro.core import runcache

        self._runcache = runcache
        self._original = repro.workflows.run_coupled
        self._signature = inspect.signature(self._original)
        self._force = force_fidelity
        self._patched: List[Any] = []
        self.calls: List[Call] = []
        #: label of the workload unit running now (a figure, a seed)
        self.unit = ""

    def _wrapper(self):
        original, cache = self._original, self._runcache.CACHE

        def run_coupled(*args, **kwargs):
            if self._force is not None:
                kwargs["fidelity"] = self._force
            call = Call(self.unit, args, kwargs)
            self.calls.append(call)
            hits = cache.hits
            try:
                call.result = original(*args, **kwargs)
            except Exception as exc:
                call.error = f"{type(exc).__name__}: {exc}"
                raise
            call.cache_hit = cache.hits > hits
            return call.result

        return run_coupled

    def install(self) -> "PointRecorder":
        wrapper = self._wrapper()
        for name, module in list(sys.modules.items()):
            # The defining module keeps its own name bound to the original.
            if not name.startswith("repro.") or name == self._original.__module__:
                continue
            if getattr(module, "run_coupled", None) is self._original:
                setattr(module, "run_coupled", wrapper)
                self._patched.append(module)
        return self

    def uninstall(self) -> None:
        """Restore ``run_coupled`` and resolve every recorded call's key."""
        for module in self._patched:
            setattr(module, "run_coupled", self._original)
        self._patched.clear()
        signature = self._signature
        for call in self.calls:
            call.key = point_id(signature, call.args, call.kwargs)
            bound = signature.bind(*call.args, **call.kwargs)
            bound.apply_defaults()
            call.fidelity = bound.arguments.get("fidelity", "exact")
            call.batch_actors = bound.arguments.get("batch_actors")


def compare(call: Call, references: Dict[str, Dict[str, Any]]) -> Optional[str]:
    """Why ``call`` does not match its recorded reference (None if it does)."""
    if call.error is not None:
        return f"raised {call.error}"
    expected = references.get(call.key)
    if expected is None:
        return "no recorded reference"
    got = fingerprint(call.result)
    differing = sorted(name for name in OUTPUT_FIELDS if got[name] != expected.get(name))
    if differing:
        return "differs in " + ", ".join(differing)
    return None
