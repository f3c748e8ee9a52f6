"""`stages/broadcast.py` is the one way a driver-side object reaches map
tasks, and the library runs no actor pool: an AST guard over the library,
the guard's own shape test, and the handle's fetch semantics."""

import ast
import pathlib
import pickle

import numpy as np
import pandas as pd
import pytest

import events_validator_ray
from events_validator_ray.stages import broadcast

#: the only module that may call Ray's object store directly
BROADCAST_MODULE = "stages/broadcast.py"
#: Ray object-store names no other library module may use
RAY_OBJECT_API = {"put", "get", "ObjectRef"}
#: (module, reason) exemptions from the guard; none today, because every
#: `ray.get` the library had was an unwrap of a broadcast
EXEMPT: dict[str, str] = {}


def _ray_names(tree: ast.Module) -> set[str]:
    """Names the module binds to the `ray` package (`import ray`,
    `import ray.data`, `import ray as _r`)."""
    names = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            for a in n.names:
                if a.asname is None and a.name.split(".")[0] == "ray":
                    names.add("ray")
                elif a.name == "ray":
                    names.add(a.asname)
    return names


def _pool_and_object_store_sites(rel: str, tree: ast.Module) -> list[str]:
    """Every `concurrency=` keyword (an actor pool or a task cap), and every
    use of `ray.put` / `ray.get` / `ray.ObjectRef` outside the broadcast
    module."""
    ray_names = _ray_names(tree)
    object_store_allowed = rel == BROADCAST_MODULE
    found = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Call):
            found += [f"{rel}:{n.lineno} concurrency=" for k in n.keywords if k.arg == "concurrency"]
        elif object_store_allowed:
            continue
        elif (
            isinstance(n, ast.Attribute)
            and n.attr in RAY_OBJECT_API
            and isinstance(n.value, ast.Name)
            and n.value.id in ray_names
        ):
            found.append(f"{rel}:{n.lineno} ray.{n.attr}")
        elif isinstance(n, ast.ImportFrom) and n.module == "ray":
            found += [f"{rel}:{n.lineno} from ray import {a.name}" for a in n.names if a.name in RAY_OBJECT_API]
    return found


def test_no_actor_pool_and_no_object_store_call_outside_broadcast():
    """Library-wide: no `concurrency=` anywhere, and no `ray.put`,
    `ray.get` or `ray.ObjectRef` outside `stages/broadcast.py`. A driver
    object reaches map tasks through `broadcast.put` and `handle.get()`;
    stages that hold only a broadcast table or a codec import run as plain
    tasks, which never starve the read tasks of a one-CPU session."""
    root = pathlib.Path(events_validator_ray.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel not in EXEMPT:
            found += _pool_and_object_store_sites(rel, ast.parse(path.read_text()))
    assert found == []


@pytest.mark.parametrize(
    "src,hit",
    [
        ("import ray\nref = ray.put(x)", True),
        ("import ray\ndef f(r):\n    return ray.get(r)", True),
        ("import ray\ndef f(o):\n    return isinstance(o, ray.ObjectRef)", True),
        ("def f(o):\n    import ray as _r\n    return _r.get(o)", True),
        ("import ray.data\ndef f(o):\n    return ray.get(o)", True),
        ("from ray import get", True),
        ("def f(ds, S):\n    return ds.map_batches(S, concurrency=(1, 8))", True),
        ("def f(ds, g):\n    return ds.map_batches(g, concurrency=4)", True),
        ("import ray\ndef f(d):\n    return d.get('k')", False),
        ("def f(q, x):\n    q.put(x)", False),
        ("from . import broadcast\ndef f(x):\n    return broadcast.put(x).get()", False),
        ("import ray.data as rd\ndef f(p):\n    return rd.read_parquet(p)", False),
        ("import ray\ndef f():\n    return ray.cluster_resources().get('CPU')", False),
    ],
)
def test_guard_tells_shapes_apart(src, hit):
    """The guard flags each object-store form and each `concurrency=`, and
    passes `dict.get`, other `put`s, the broadcast handle and other Ray
    calls."""
    assert bool(_pool_and_object_store_sites("stages/joins.py", ast.parse(src))) == hit


def test_guard_allows_the_object_store_only_in_broadcast():
    src = "import ray\ndef put(x):\n    return ray.put(x)\ndef get(r):\n    return ray.get(r)"
    assert _pool_and_object_store_sites(BROADCAST_MODULE, ast.parse(src)) == []
    src += "\ndef f(ds, g):\n    return ds.map_batches(g, concurrency=2)"
    assert len(_pool_and_object_store_sites(BROADCAST_MODULE, ast.parse(src))) == 1


def test_map_tasks_read_the_broadcast_object(ray_session):
    import ray.data as rd

    keys = broadcast.put(frozenset({1, 3}))

    def keep(df: pd.DataFrame) -> pd.DataFrame:
        return df[df["k"].isin(keys.get())]

    got = rd.from_pandas(pd.DataFrame({"k": [1, 2, 3, 4]})).map_batches(keep, batch_format="pandas")
    assert sorted(got.to_pandas()["k"]) == [1, 3]


def test_handle_pickles_without_its_fetched_value(ray_session):
    """A handle fetched on the driver still ships only its reference."""
    h = broadcast.put(np.arange(100_000))
    assert int(h.get()[-1]) == 99_999
    blob = pickle.dumps(h)
    assert len(blob) < 10_000
    again = pickle.loads(blob)
    assert again.ref == h.ref
    assert int(again.get()[-1]) == 99_999


def test_failed_fetch_raises_in_the_task(ray_session):
    """A map task whose broadcast object is gone fails with Ray's error at
    the fetch: it neither goes on with the reference in place of the object
    nor fails later on it (an AttributeError or TypeError on an
    ObjectRef)."""
    import ray
    import ray.data as rd
    from ray._private.internal_api import free

    keys = broadcast.put(frozenset({1, 3}))
    free([keys.ref])

    def keep(df: pd.DataFrame) -> pd.DataFrame:
        return df[df["k"].isin(keys.get())]

    ds = rd.from_pandas(pd.DataFrame({"k": [1, 2, 3, 4]})).map_batches(keep, batch_format="pandas")
    with pytest.raises(Exception) as info:
        ds.take_all()
    chain, e = [], info.value
    while e is not None:
        chain.append(e)
        e = e.__cause__ or e.__context__
    text = "\n".join(f"{type(x).__name__}: {x}" for x in chain)
    assert any(isinstance(x, ray.exceptions.ObjectLostError) for x in chain) or (
        "ObjectFreedError" in text
    ), text
    assert "AttributeError" not in text and "'ObjectRef'" not in text, text
