"""The one way a bounded driver-side object reaches stateless map tasks.

``put(obj)`` stores the object in Ray's object store once and returns a
small picklable ``Broadcast`` handle. A map function (or a callable
instance) holds the handle and calls ``handle.get()`` inside the task: the
first call in a task fetches the object (zero-copy for numpy and Arrow
buffers) and caches it in that task's copy of the handle, so the fetch
happens once per task however many batches the task maps. A failed fetch
raises Ray's error right there, never later on a stale reference.

What a broadcast holds is bounded by its caller's own count gate
(``broadcast_max_terms``, ``broadcast_max_labels``, ``broadcast_max_ids``):
this module checks no size.

Stages that hold nothing but a broadcast table or a codec import run as
plain tasks, never as actor pools: a pool keeps its CPUs for the whole
stage, and in a one-CPU session it starves the read tasks that feed it.
tests/test_broadcast.py keeps ``ray.put``, ``ray.get`` and ``ray.ObjectRef``
inside this module and every ``concurrency=`` out of the library.
"""

from __future__ import annotations


class Broadcast:
    """Handle to one object-store copy of a driver-side object. Pickling
    ships only the reference, never a value fetched into this copy."""

    def __init__(self, ref):
        self.ref = ref
        self._value = None
        self._fetched = False

    def get(self):
        """The object, fetched on the first call and cached in this handle."""
        if not self._fetched:
            import ray

            self._value = ray.get(self.ref)
            self._fetched = True
        return self._value

    def __reduce__(self):
        return Broadcast, (self.ref,)


def put(obj) -> Broadcast:
    """Store ``obj`` once and return the handle map tasks fetch it through."""
    import ray

    return Broadcast(ray.put(obj))
