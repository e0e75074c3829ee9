"""Suite-wide pytest configuration."""


def pytest_configure(config):
    # Registered so ``@pytest.mark.slow`` is a known marker; it selects
    # nothing by itself (``-m "not slow"`` skips the end-to-end runs).
    config.addinivalue_line(
        "markers", "slow: end-to-end runs that take seconds, not ms")
