"""Suite-wide test settings.

Hypothesis runs under a derandomized profile with a bounded example
count and no example database, so every run of the suite draws the same
examples and no failure from an earlier run is replayed.
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile("fullpose", derandomize=True, max_examples=60, deadline=None,
                              database=None)
    settings.load_profile("fullpose")
