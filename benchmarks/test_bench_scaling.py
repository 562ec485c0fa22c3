"""Benchmark E-SCALE: the Section III-C-4 scaling claim.

"The execution time scales linearly in the number of participants and the
number of resources"; the paper's reference problem (~100 bidders x ~100
pools) solved "in a few minutes" of unoptimized Python.  The numpy-vectorized
proxy evaluation here is far faster, but the *scaling shape* is the claim
under test: near-linear growth in both dimensions.
"""

from conftest import print_section

from repro.experiments.scaling import run_scaling


def test_clock_auction_scaling(benchmark):
    """Time the clock auction across a grid of bidder and pool counts."""
    result = benchmark.pedantic(
        run_scaling,
        kwargs={"bidder_counts": (25, 50, 100, 200), "cluster_counts": (8, 17, 34, 68)},
        rounds=1,
        iterations=1,
    )

    print_section("Clock auction scaling in bidders and resource pools (Section III-C-4)")
    print(f"{'bidders':>8} {'pools':>6} {'seconds':>9} {'rounds':>7} {'s/round':>10} {'settled':>8}")
    for point in result.points:
        print(
            f"{point.bidders:>8d} {point.pools:>6d} {point.seconds:>9.4f} "
            f"{point.rounds:>7d} {point.seconds_per_round:>10.5f} {point.settled_fraction:>7.1%}"
        )
    print(f"\nfitted per-round growth exponent in bidders: {result.bidder_exponent:.2f}")
    print(f"fitted per-round growth exponent in pools:   {result.pool_exponent:.2f}")

    # Every sweep point converges.
    assert all(point.rounds > 0 for point in result.points)
    # Near-linear per-round scaling: well below quadratic growth in either dimension.
    assert result.bidder_exponent < 1.6
    assert result.pool_exponent < 1.6
