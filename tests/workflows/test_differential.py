"""Seeded differential test: every reduced fidelity equals exact.

Instead of hand-picked A/B cells, configurations are drawn at random
(from a fixed seed) over machine x library x workflow x rank count x
step count x transport x ``shared_nodes``.  For each draw:

* ``clustered``, ``steady`` and ``steady+clustered`` must reproduce
  the exact run on every :class:`RunResult` output field, bit for bit,
  whether or not the reduction engaged and whether or not the run
  failed;
* two exact runs must pickle to the same bytes (determinism).
"""

import dataclasses
import math
import pickle
import random

import pytest

from repro.core import runcache
from repro.sim.monitor import TimeSeries
from repro.workflows import run_coupled

SEED = 20201
DRAWS = 25
REDUCED = ("clustered", "steady", "steady+clustered")
#: fields that record how a result was produced, not what it measured
LABELS = ("fidelity", "fidelity_fallback", "forked", "fork_fallback",
          "library")

METHODS = (None, "dataspaces", "dataspaces-adios", "dimes", "dimes-adios",
           "flexpath", "decaf", "mpiio", "sst")
TRANSPORTS = (None, "tcp", "ugni", "mpi", "shm")


def _draw(rng):
    nsim = rng.choice((4, 8, 16, 32, 64))
    method = rng.choice(METHODS)
    transport = rng.choice(TRANSPORTS)
    if method == "decaf" and transport not in (None, "mpi"):
        transport = None  # Decaf communicates over MPI only
    return dict(
        machine=rng.choice(("titan", "cori")),
        workflow=rng.choice(("lammps", "laplace", "synthetic")),
        method=method,
        nsim=nsim,
        nana=rng.choice([n for n in (2, 4, 8, 16, 32) if n <= nsim]),
        steps=rng.randint(1, 12),
        transport=transport,
        shared_nodes=rng.random() < 0.3,
    )


_rng = random.Random(SEED)
CONFIGS = [_draw(_rng) for _ in range(DRAWS)]


def _run(fidelity, kwargs):
    runcache.clear()
    return run_coupled(fidelity=fidelity, **kwargs)


def _outputs(result):
    out = {}
    for f in dataclasses.fields(result):
        if f.name in LABELS:
            continue
        value = getattr(result, f.name)
        if isinstance(value, TimeSeries):
            value = (value.name, value.times, value.values)
        out[f.name] = value
    return out


def _same(a, b):
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    return a == b


def _config_id(kwargs):
    return "-".join(str(kwargs[k]) for k in (
        "machine", "method", "workflow", "nsim", "nana", "steps",
        "transport")) + ("-shared" if kwargs["shared_nodes"] else "")


@pytest.mark.parametrize("kwargs", CONFIGS, ids=_config_id)
def test_reduced_fidelities_equal_exact(kwargs):
    exact = _run("exact", kwargs)
    again = _run("exact", kwargs)
    assert exact is not again
    strip = dict(library=None)
    assert (pickle.dumps(dataclasses.replace(exact, **strip))
            == pickle.dumps(dataclasses.replace(again, **strip)))

    want = _outputs(exact)
    for fidelity in REDUCED:
        got = _outputs(_run(fidelity, kwargs))
        for name, value in want.items():
            assert _same(got[name], value), (fidelity, name)


def test_draws_exercise_every_reduction():
    """The sweep is only evidence if the reductions actually engage."""
    engaged = set()
    for kwargs in CONFIGS:
        for fidelity in REDUCED:
            engaged.add(_run(fidelity, kwargs).fidelity)
    assert set(REDUCED) <= engaged
