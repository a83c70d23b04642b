"""Seeded differential test: ``steady`` equals ``exact``.

Instead of hand-picked A/B cells, configurations are drawn at random
(from a fixed seed) over machine x library x workflow x rank count x
step count x transport x ``shared_nodes``.  A second slice draws
isolated one-rank-per-node chains (cori, no shared nodes, writers a
whole multiple of readers, one DataSpaces server per chain).  For each
draw:

* ``steady`` must reproduce the exact run on every :class:`RunResult`
  output field, bit for bit, whether or not the fast-forward engaged
  and whether or not the run failed;
* two exact runs must pickle to the same bytes (determinism);
* an exact run that succeeds obeys the model's invariants: without
  faults nothing is lost or recovered, the run ends when its last
  component does, and bytes are staged exactly when a library runs.
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
CHAIN_SEED = 20202
CHAIN_DRAWS = 12
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


def _draw_chain(rng):
    method = rng.choice((None, "dataspaces", "decaf", "sst"))
    nana = rng.choice((4, 8, 16))
    nsim = nana
    if method in (None, "sst"):
        nsim *= rng.choice((1, 2, 4))
    kwargs = dict(
        # cori's dragonfly gives every chain the same hop count
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
_rng = random.Random(CHAIN_SEED)
CONFIGS += [_draw_chain(_rng) for _ in range(CHAIN_DRAWS)]


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

    if exact.ok:
        assert exact.versions_lost == exact.recovery_events == 0
        assert exact.recovery_seconds == 0.0
        assert exact.end_to_end == max(exact.sim_finish, exact.ana_finish)
        assert (exact.bytes_staged > 0) == (kwargs["method"] is not None)

    want = _outputs(exact)
    got = _outputs(_run("steady", kwargs))
    for name, value in want.items():
        assert _same(got[name], value), name


def test_draws_exercise_every_reduction():
    """The sweep is only evidence if the fast-forward actually engages
    (it does on 14 of the 37 draws)."""
    engaged = sum(_run("steady", kwargs).fidelity == "steady"
                  for kwargs in CONFIGS)
    assert engaged >= 10
