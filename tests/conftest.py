"""The hypothesis settings profile the property tests share."""

try:
    from hypothesis import HealthCheck, settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile(
        "derandomized",
        derandomize=True,
        database=None,
        deadline=None,
        max_examples=60,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
