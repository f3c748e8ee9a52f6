import pytest


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (driver contract: library code
    never calls ray.init itself)."""
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False

    from events_validator_ray.logutil import suppress_empty_shuffle_partition_warning

    suppress_empty_shuffle_partition_warning()
    yield
    ray.shutdown()


@pytest.fixture
def force_buckets(monkeypatch):
    """`force_buckets(n)` pins `exchange.bucket_count()` to n for the rest
    of the test: every exchange planned afterwards uses n buckets."""
    from events_validator_ray.stages import exchange

    def force(n: int) -> None:
        monkeypatch.setattr(exchange, "bucket_count", lambda: n)

    return force
