"""Seeded differential test: every reduced fidelity equals exact.

Instead of hand-picked A/B cells, configurations are drawn at random
(from a fixed seed) over machine x library x workflow x rank count x
step count x transport x ``shared_nodes``.  A second slice draws only
from shapes the clustering proofs can accept (cori, one rank per
node, no shared nodes, writers a whole multiple of readers, one
DataSpaces server per chain), so ``clustered`` is checked where it engages and
not only where it declines.  For each draw:

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
CLUSTERABLE_SEED = 20202
CLUSTERABLE_DRAWS = 12
REDUCED = ("clustered", "steady", "steady+clustered")
#: fields that record how a result was produced, not what it measured
LABELS = ("fidelity", "fidelity_fallback")

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


def _draw_clusterable(rng):
    method = rng.choice((None, "dataspaces", "decaf", "sst"))
    nana = rng.choice((4, 8, 16))
    nsim = nana
    if method in (None, "sst"):
        nsim *= rng.choice((1, 2, 4))
    kwargs = dict(
        # titan's torus rarely gives every chain the same hop count
        machine="cori",
        # DataSpaces chains are isolated only when each writer's region
        # is one staging partition (Laplace's decomposition matches it)
        workflow="laplace" if method == "dataspaces" else rng.choice(
            ("lammps", "laplace", "synthetic")),
        method=method,
        nsim=nsim,
        nana=nana,
        steps=rng.randint(1, 8),
        # cori's default RDMA transport serializes credentials through
        # one DRC service, which couples the chains; Decaf is MPI only
        transport=None if method == "decaf" else "tcp",
        shared_nodes=False,
        topology_overrides=dict(sim_ranks_per_node=1, ana_ranks_per_node=1),
    )
    if method == "dataspaces":
        kwargs["num_servers"] = nsim
    return kwargs


_rng = random.Random(SEED)
CONFIGS = [_draw(_rng) for _ in range(DRAWS)]
_rng = random.Random(CLUSTERABLE_SEED)
CONFIGS += [_draw_clusterable(_rng) for _ in range(CLUSTERABLE_DRAWS)]


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
        "transport")) + ("-shared" if kwargs["shared_nodes"] else "") + (
        "-1rpn" if "topology_overrides" in kwargs else "")


@pytest.mark.parametrize("kwargs", CONFIGS, ids=_config_id)
def test_reduced_fidelities_equal_exact(kwargs):
    exact = _run("exact", kwargs)
    again = _run("exact", kwargs)
    assert exact is not again
    assert pickle.dumps(exact) == pickle.dumps(again)

    want = _outputs(exact)
    for fidelity in REDUCED:
        got = _outputs(_run(fidelity, kwargs))
        for name, value in want.items():
            assert _same(got[name], value), (fidelity, name)


def test_draws_exercise_every_reduction():
    """The sweep is only evidence if the reductions actually engage."""
    engaged = set()
    clustered_cells = 0
    for kwargs in CONFIGS:
        for fidelity in REDUCED:
            label = _run(fidelity, kwargs).fidelity
            engaged.add(label)
            clustered_cells += fidelity == label == "clustered"
    assert set(REDUCED) <= engaged
    assert clustered_cells >= 10
