"""Distance-axiom checks and encoder consistency evaluation."""

import pickle
import random
import tracemalloc
from fractions import Fraction

import pytest

from sdrkit.errors import DimensionMismatch, EvaluationError, InputError
from sdrkit.expressions import ExpressionDistance
from sdrkit.quality import (
    MAX_EVALUATE_SAMPLES,
    absolute_difference,
    check_distance_axioms,
    chebyshev_distance,
    circular_distance,
    discrete_distance,
    evaluate_encoder,
    _is_discordant,
)
from sdrkit.scalars import ScalarEncoder
from sdrkit.sdr import SDR


def center_grid_samples(encoder: ScalarEncoder, count: int) -> list[float]:
    """Evenly spaced samples sitting at bucket centers, one per bucket."""
    res = encoder.resolution
    return [encoder.min_value + (i + 0.5) * res for i in range(count)]


class PermutedBucketEncoder:
    """Adversarial control: a bounded scalar encoder whose buckets are
    scrambled by a fixed pseudo-random permutation, destroying locality
    while keeping n, w, and determinism."""

    def __init__(self, inner: ScalarEncoder, seed: int = 0):
        self.inner = inner
        buckets = inner.n - inner.w + 1
        self._perm = list(range(buckets))
        random.Random(seed).shuffle(self._perm)

    @property
    def n(self):
        return self.inner.n

    @property
    def w(self):
        return self.inner.w

    def encode(self, value):
        b = self._perm[self.inner.bucket(value)]
        return SDR(self.inner.n, tuple(range(b, b + self.inner.w)))


class TestAxiomChecks:
    samples = [0.0, 1.0, 2.5, -3.0, 7.25]

    def test_absolute_difference_is_clean(self):
        report = check_distance_axioms(absolute_difference, self.samples)
        assert report.samples_checked == 5
        assert report.total_axiom_violations == 0

    def test_signed_difference_breaks_symmetry_and_sign(self):
        report = check_distance_axioms(lambda a, b: a - b, self.samples)
        assert report.axiom_violations["symmetry"].violations >= 1
        assert report.axiom_violations["non_negativity"].violations >= 1

    def test_shifted_metric_breaks_identity(self):
        report = check_distance_axioms(lambda a, b: abs(a - b) + 1, self.samples)
        assert report.axiom_violations["identity"].violations == len(self.samples)

    def test_raising_distance_names_the_pair(self):
        def flaky(a, b):
            if b == 2.5:
                raise ValueError("boom")
            return abs(a - b)

        with pytest.raises(EvaluationError, match="2.5"):
            check_distance_axioms(flaky, self.samples)

    def test_needs_two_samples(self):
        with pytest.raises(InputError):
            check_distance_axioms(absolute_difference, [1.0])

    def test_tolerance_absorbs_float_noise(self):
        report = check_distance_axioms(
            lambda a, b: abs(a - b) + 1e-12, self.samples
        )
        assert report.axiom_violations["identity"].violations == 0


class TestSemanticConsistency:
    def make_aligned(self):
        enc = ScalarEncoder(0, 45, 221, 21)
        return enc, center_grid_samples(enc, 200)

    def test_aligned_scalar_has_zero_discordance_sampled(self):
        enc, samples = self.make_aligned()
        report = evaluate_encoder(
            enc.encode, absolute_difference, samples, quadruple_count=10_000, seed=0
        )
        assert report.quadruples_sampled == 10_000
        assert report.discordant == 0
        assert report.discordance_rate == 0.0

    def test_aligned_scalar_exhaustive_subset(self):
        enc, samples = self.make_aligned()
        subset = samples[::10][:20]
        report = evaluate_encoder(
            enc.encode, absolute_difference, subset, exhaustive=True
        )
        assert report.quadruples_sampled == 20 ** 4
        assert report.discordant == 0

    def test_rank_correlation_strongly_negative_for_good_encoder(self):
        enc, samples = self.make_aligned()
        report = evaluate_encoder(
            enc.encode, absolute_difference, samples[:80], quadruple_count=100
        )
        assert report.rank_correlation <= -0.5
        assert not report.overlap_uninformative

    def test_constant_encoder_flagged_uninformative(self):
        fixed = SDR(64, tuple(range(8)))
        report = evaluate_encoder(
            lambda v: fixed, absolute_difference, [1.0, 2.0, 3.0, 4.0, 5.0]
        )
        assert report.discordance_rate == 0.0
        assert report.rank_correlation == 0.0
        assert report.overlap_uninformative
        assert "uninformative" in report.to_text()

    def test_adversarial_encoder_is_heavily_discordant(self):
        inner = ScalarEncoder(0, 45, 100, 21)
        adversary = PermutedBucketEncoder(inner, seed=0)
        samples = [i * 45 / 199 for i in range(200)]
        report = evaluate_encoder(
            adversary.encode, absolute_difference, samples, quadruple_count=10_000
        )
        assert report.discordance_rate > 0.2
        assert abs(report.rank_correlation) < 0.2

    def test_reports_reproducible(self):
        enc, samples = self.make_aligned()
        runs = [
            evaluate_encoder(
                enc.encode, absolute_difference, samples[:50],
                quadruple_count=2000, seed=99,
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_seed_changes_sampling(self):
        inner = ScalarEncoder(0, 45, 100, 21)
        adversary = PermutedBucketEncoder(inner, seed=0)
        samples = [i * 45 / 199 for i in range(200)]
        r1 = evaluate_encoder(
            adversary.encode, absolute_difference, samples, 3000, seed=1
        )
        r2 = evaluate_encoder(
            adversary.encode, absolute_difference, samples, 3000, seed=2
        )
        assert r1.discordant != r2.discordant  # different streams, same regime
        assert abs(r1.discordance_rate - r2.discordance_rate) < 0.05

    def test_rank_correlation_invariant_under_monotone_transform(self):
        enc, samples = self.make_aligned()
        subset = samples[:60]
        base = evaluate_encoder(
            enc.encode, absolute_difference, subset, quadruple_count=500
        )
        squared = evaluate_encoder(
            enc.encode, lambda a, b: abs(a - b) ** 2, subset, quadruple_count=500
        )
        assert squared.rank_correlation == base.rank_correlation

    def test_mixed_dimensions_rejected(self):
        def broken(v):
            return SDR(10 if v < 2 else 11, (0,))

        with pytest.raises(DimensionMismatch):
            evaluate_encoder(
                broken, absolute_difference, [0.0, 1.0, 2.0, 3.0]
            )

    def test_aligned_scalar_exhaustive_at_200_samples(self):
        # criterion 5's encoder and samples: exact at any m, past the old cap of 40
        enc, samples = self.make_aligned()
        report = evaluate_encoder(enc.encode, absolute_difference, samples, exhaustive=True)
        assert report.quadruples_sampled == 200 ** 4
        assert report.discordant == 0

    def test_needs_four_samples(self):
        enc, _ = self.make_aligned()
        with pytest.raises(InputError):
            evaluate_encoder(enc.encode, absolute_difference, [1, 2, 3])


def test_discordance_symmetric_under_pair_swap():
    rng = random.Random(0)
    for _ in range(500):
        o1, o2 = rng.randint(0, 5), rng.randint(0, 5)
        d1, d2 = rng.random(), rng.random()
        assert _is_discordant(o1, o2, d1, d2) == _is_discordant(o2, o1, d2, d1)


def test_ties_are_never_discordant():
    assert not _is_discordant(3, 3, 0.0, 9.0)
    assert not _is_discordant(1, 5, 2.0, 2.0)


def test_evaluate_encoder_combines_sections():
    enc = ScalarEncoder(0, 45, 221, 21)
    samples = center_grid_samples(enc, 60)
    report = evaluate_encoder(enc.encode, absolute_difference, samples,
                              quadruple_count=1000)
    assert report.total_axiom_violations == 0
    assert report.quadruples_sampled == 1000
    text = report.to_text()
    assert "non_negativity" in text and "discordance_rate" in text


@pytest.mark.parametrize("evaluate", [
    check_distance_axioms,
    lambda distance, samples: evaluate_encoder(ScalarEncoder(0, 45, 100, 21).encode,
                                               distance, samples),
], ids=["check_distance_axioms", "evaluate_encoder"])
def test_more_than_max_evaluate_samples_raises_before_any_distance(evaluate):
    calls = []

    def distance(a, b):
        calls.append((a, b))
        return abs(a - b)

    with pytest.raises(InputError) as exc:
        evaluate(distance, [float(i % 45) for i in range(MAX_EVALUATE_SAMPLES + 1)])
    assert str(exc.value) == ("m = 10001 samples is more than MAX_EVALUATE_SAMPLES (10000), "
                              "which bounds the memory of the m x m matrices")
    assert calls == []


def test_the_exhaustive_count_peaks_within_80_bytes_per_cell():
    """m = 1,000 distinct scalar samples, n = 400 and w = 21: the exact
    count over all m**4 quadruples holds the m x m overlap matrix and the
    cells' sort order, overlaps and distances beside the distance matrix,
    about 68 bytes per cell at its peak (the sampled path about 16)."""
    m = 1000
    enc = ScalarEncoder(0, 100, 400, 21)
    samples = [100 * i / m for i in range(m)]
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        report = evaluate_encoder(enc.encode, absolute_difference, samples, exhaustive=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.quadruples_sampled == m ** 4
    assert peak - entry <= 80 * m * m


class TestBuiltinDistances:
    def test_absolute(self):
        assert absolute_difference(3, 7.5) == 4.5
        assert absolute_difference(3, 5) == 2

    def test_absolute_is_the_compiled_expression_and_pickles(self):
        # every built-in is a compiled expression, and pickles by its source
        for distance in (absolute_difference, circular_distance(7), chebyshev_distance,
                         discrete_distance):
            assert isinstance(distance, ExpressionDistance)
            copy = pickle.loads(pickle.dumps(distance))
            assert isinstance(copy, ExpressionDistance) and repr(copy) == repr(distance)
        copy = pickle.loads(pickle.dumps(absolute_difference))
        assert copy(3, 7.5) == 4.5
        assert copy.matrix([0, 2.5]).tolist() == [[0.0, 2.5], [2.5, 0.0]]
        week = pickle.loads(pickle.dumps(circular_distance(7)))
        assert week.matrix([0, 6, 1]).tolist() == [[0, 1, 1], [1, 0, 2], [1, 2, 0]]

    def test_expression_repr_shows_its_source(self):
        assert repr(absolute_difference) == "ExpressionDistance('abs(a - b)')"

    def test_circular(self):
        week = circular_distance(7)
        assert week(0, 6) == 1
        assert week(0, 1) == 1
        assert week(1.5, 6.0) == pytest.approx(2.5)
        # an int period computes in ints, any other period in float
        assert type(week(0, 6)) is int
        assert type(circular_distance(Fraction(15, 2))(0, 7)) is float
        with pytest.raises(InputError):
            circular_distance(0)

    @pytest.mark.parametrize("period", [float("nan"), float("inf"), float("-inf"), 0, -0.5,
                                        2 ** 1100, True, "7", None])
    def test_circular_period_must_be_positive_and_finite(self, period):
        # the only check of the period; a config reports it as a config error
        with pytest.raises(InputError, match="period must be positive and finite"):
            circular_distance(period)

    def test_chebyshev(self):
        assert chebyshev_distance((0, 0), (3, -4)) == 4
        assert type(chebyshev_distance((0, 0), (3, -4))) is float
        # it reads a[0] and a[1] only, so longer tuples are accepted
        assert chebyshev_distance((0, 0, 9), (3, -4, 1)) == 4.0

    def test_discrete(self):
        assert discrete_distance("a", "a") == 0.0
        assert discrete_distance("a", "b") == 1.0

    @pytest.mark.parametrize(
        "distance,samples",
        [
            (absolute_difference, [0.0, 1.5, -2.0, 10.0]),
            (circular_distance(24), [0.0, 6.0, 12.0, 23.5]),
            (chebyshev_distance, [(0, 0), (1, 2), (-3, 4), (10, 10)]),
            (discrete_distance, ["a", "b", "c", "a"]),
        ],
        # explicit: an ExpressionDistance has no __name__ for pytest to take
        ids=["absolute_difference-samples0", "circular_distance-samples1",
             "chebyshev_distance-samples2", "discrete_distance-samples3"],
    )
    def test_all_builtins_satisfy_the_axioms(self, distance, samples):
        report = check_distance_axioms(distance, samples)
        assert report.total_axiom_violations == 0
