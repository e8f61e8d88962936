"""compare.py's four verdicts."""

from ledger import compare, spec

P50 = next(m for m in spec.END_TO_END if m.name == "latency_p50_ms")      # lower is better
RATE = next(m for m in spec.END_TO_END if m.name == "saturation_rps")     # higher is better


def test_same_better_worse():
    base = [1.00, 1.01, 0.99]
    assert compare.verdict(P50, base, [1.02, 1.01, 1.03]) == "same"
    assert compare.verdict(P50, base, [b * (1 + 2 * P50.bound) for b in base]) == "worse"
    assert compare.verdict(P50, base, [b * (1 - 2 * P50.bound) for b in base]) == "better"
    rates = [4000.0, 4010.0, 3990.0]
    assert compare.verdict(RATE, rates, [r * (1 - 2 * RATE.bound) for r in rates]) == "worse"
    assert compare.verdict(RATE, rates, [r * (1 + 2 * RATE.bound) for r in rates]) == "better"


def test_a_spread_wider_than_the_bound_is_unresolved():
    noisy = [1.0, 1.0 + 2 * P50.bound, 1.0 + 4 * P50.bound]      # spread 2 x bound
    assert compare.verdict(P50, noisy, [1.0, 1.0, 1.0]) == "unresolved"
    assert compare.verdict(P50, [1.0, 1.0, 1.0], noisy) == "unresolved"
