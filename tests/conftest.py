"""Shared test configuration: one deterministic Hypothesis profile, so that a
run of the suite draws the same examples every time."""

try:
    from hypothesis import HealthCheck, settings
except ImportError:  # hypothesis is a dev-only dependency; test_properties skips without it
    pass
else:
    settings.register_profile(
        "okuboplane",
        derandomize=True,
        database=None,
        deadline=None,
        max_examples=100,
        # timing-based, so it could fail on a slow machine and not on a fast one
        suppress_health_check=[HealthCheck.too_slow],
    )
    settings.load_profile("okuboplane")
