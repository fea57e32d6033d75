"""Summary statistics shared by the runner and its tests."""

import statistics

# candidate percentiles, highest first
PERCENTILES = (99.99, 99.9, 99.0, 90.0)


def tail_percentile(n_samples, beyond=10):
    """Highest percentile with at least `beyond` samples above it, or None."""
    for pct in PERCENTILES:
        # share above pct in hundredths of a percent, kept exact
        if n_samples * round((100.0 - pct) * 100) >= beyond * 10000:
            return pct
    return None


def quartiles(values):
    """First and third quartile, as statistics.quantiles(n=4) gives them."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3
