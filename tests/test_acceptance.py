"""Acceptance suite: one test per release criterion.

Each test enforces its criterion at the stated tolerance, measures the
stated runtime budget, and prints one PASS line (run with -s or -v to see
them; a failed assert is the FAIL line).

Criterion 7's first clause (>= 99% collision-free encodings at n=1000,
w=25) is mathematically unattainable for a uniform hash: 25 keys into 1000
buckets are all-distinct with probability prod(1 - i/1000, i<25) ~ 0.739
(birthday bound), and both an independent Monte-Carlo oracle and the
implementation measure ~0.74.  That clause is kept as a strict xfail, and
the true collision behaviour is pinned against the oracle at +-2 percentage
points instead.
"""

import datetime as dt
import json
import random
import time
from pathlib import Path

import pytest

from sdrkit import cli
from sdrkit.categories import CategoryEncoder
from sdrkit.composite import DatetimeEncoder, MultiEncoder
from sdrkit.geospatial import GeospatialEncoder, neighborhood
from sdrkit.hashing import coordinate_hash, mix64
from sdrkit.quality import absolute_difference, check_distance_axioms, evaluate_encoder
from sdrkit.scalars import (
    CyclicEncoder,
    DeltaEncoder,
    ScalarEncoder,
    UnboundedScalarEncoder,
)
from sdrkit.sdr import SDR, overlap, sparsity

GOLDEN_FIXTURE = Path(__file__).parent / "data" / "golden_hash_vectors.txt"


def report(num: str, message: str) -> None:
    print(f"ACCEPTANCE {num}: PASS - {message}")


# --------------------------------------------------------------------------
# 1. fixed-neighborhood reproduction of the worked grid example
# --------------------------------------------------------------------------

def test_criterion_1_neighborhood_reproduction():
    enc = GeospatialEncoder(100, 2)

    start = time.perf_counter()
    cells = neighborhood((5, 10), 2)
    shifted = neighborhood((6, 10), 2)
    shared = len(set(cells) & set(shifted))
    enc.encode((5, 10))
    elapsed = time.perf_counter() - start

    assert set(cells) == {(x, y) for x in range(3, 8) for y in range(8, 13)}
    assert len(cells) == 25
    assert shared == 20
    assert elapsed < 1e-3
    report("1", f"25-cell neighborhood exact, 20/25 shared after a 1-cell move "
                f"({elapsed * 1e6:.0f} us)")


# --------------------------------------------------------------------------
# 2. bounded scalar overlap law, brute force on a 0.25-spaced grid
# --------------------------------------------------------------------------

def test_criterion_2_scalar_overlap_law():
    enc = ScalarEncoder(0, 45, 100, 10)
    values = [i * 0.25 for i in range(181)]

    start = time.perf_counter()
    codes = [frozenset(enc.encode(v).active) for v in values]
    buckets = [enc.bucket(v) for v in values]
    for i, a in enumerate(values):
        for j in range(len(values)):
            expected = max(0, enc.w - abs(buckets[i] - buckets[j]))
            assert len(codes[i] & codes[j]) == expected
    elapsed = time.perf_counter() - start

    assert elapsed < 1.0
    report("2", f"overlap == max(0, w - |bucket gap|) on all {len(values) ** 2} "
                f"pairs ({elapsed:.2f} s)")


# --------------------------------------------------------------------------
# 3. encoder ground rules: determinism, fixed n, fixed (or near-fixed) w,
#    bounded sparsity, for every shipped encoder on 10^4 random inputs
# --------------------------------------------------------------------------

COLLISION_SLACK = 8  # hash encoders may lose a few bits to collisions


def _random_timestamps(rng, count):
    base = dt.datetime(2019, 1, 1)
    return [base + dt.timedelta(seconds=rng.uniform(0, 4 * 365 * 86400))
            for _ in range(count)]


def _stateless_cases(rng, count):
    labels = ["alpha", "beta", "gamma", "delta", "epsilon"]
    multi = MultiEncoder([
        ("temp", ScalarEncoder(0, 45, 134, 21)),
        ("kind", CategoryEncoder(labels, w=21)),
    ])
    coords = [(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
              for _ in range(count)]
    return [
        ("scalar", ScalarEncoder(0, 45, 134, 21), True,
         [rng.uniform(-10, 55) for _ in range(count)]),
        ("cyclic", CyclicEncoder(7, 140, 21), True,
         [rng.uniform(-20, 20) for _ in range(count)]),
        ("unbounded", UnboundedScalarEncoder(0.25, 1000, 25, seed=7), False,
         [rng.uniform(-1e5, 1e5) for _ in range(count)]),
        ("category", CategoryEncoder(labels, w=25), True,
         [rng.choice(labels) for _ in range(count)]),
        ("geo_fixed", GeospatialEncoder(1000, 2, seed=1), False, coords),
        ("geo_topw",
         GeospatialEncoder(1000, 2, variant="topw", w=15, seed=2), False, coords),
        ("datetime",
         DatetimeEncoder(weekend={"w": 50}, day_of_week={"n": 100, "w": 21},
                         time_of_day={"n": 100, "w": 21}),
         True, _random_timestamps(rng, count)),
        ("multi", multi, True,
         [{"temp": rng.uniform(-5, 50), "kind": rng.choice(labels)}
          for _ in range(count)]),
    ]


def _check_rule_suite(name, encoder, exact_w, outputs):
    n_values = {o.n for o in outputs}
    assert n_values == {encoder.n}, f"{name}: dimensionality drifted: {n_values}"
    for o in outputs:
        if exact_w:
            assert o.active_count == encoder.w, f"{name}: |active| != w"
        else:
            assert encoder.w - COLLISION_SLACK <= o.active_count <= encoder.w, (
                f"{name}: |active|={o.active_count} outside "
                f"[w-{COLLISION_SLACK}, w]"
            )
        lo = (encoder.w - (0 if exact_w else COLLISION_SLACK)) / encoder.n
        assert lo <= sparsity(o) <= encoder.w / encoder.n


def test_criterion_3_encoder_ground_rules():
    count = 10_000
    rng = random.Random(31415)

    start = time.perf_counter()
    for name, encoder, exact_w, inputs in _stateless_cases(rng, count):
        first = [encoder.encode(v) for v in inputs]
        second = [encoder.encode(v) for v in inputs]
        assert first == second, f"{name}: re-encoding changed the output"
        _check_rule_suite(name, encoder, exact_w, first)

    # delta is stateful: determinism means replaying the stream from a reset
    delta = DeltaEncoder(-10, 10, 134, 21)
    stream = [rng.uniform(-100, 100) for _ in range(count)]
    first = [delta.encode(v) for v in stream]
    delta.reset()
    second = [delta.encode(v) for v in stream]
    assert first == second, "delta: replay from reset state diverged"
    _check_rule_suite("delta", delta, True, first)
    elapsed = time.perf_counter() - start

    assert elapsed < 10.0
    report("3", f"9 encoders x {count} random inputs: deterministic, fixed n, "
                f"fixed/near-fixed w, bounded sparsity ({elapsed:.2f} s)")


# --------------------------------------------------------------------------
# 4. distance-axiom checker, library and CLI exit code
# --------------------------------------------------------------------------

def test_criterion_4_axiom_checker(tmp_path, capsys):
    samples = [i * 0.45 for i in range(101)]
    clean = check_distance_axioms(absolute_difference, samples)
    assert clean.total_axiom_violations == 0

    broken = check_distance_axioms(lambda a, b: a - b, samples)
    assert broken.axiom_violations["symmetry"].violations >= 1

    config = tmp_path / "eval.json"
    config.write_text(json.dumps({
        "encoder": {"type": "scalar", "min": 0, "max": 45, "n": 221, "w": 21},
        "field": "v",
        "distance": {"expression": "a - b"},
    }))
    data = tmp_path / "samples.csv"
    data.write_text("v\n" + "\n".join(str(v) for v in samples) + "\n")
    rc = cli.main(["evaluate", "--config", str(config), "--input", str(data),
                   "--quadruples", "200"])
    out = capsys.readouterr().out
    assert rc == 4
    assert "symmetry" in out

    report("4", "absolute difference passes all axioms; asymmetric distance "
                "reported with exit code 4")


# --------------------------------------------------------------------------
# 5. overlap-vs-distance consistency: zero strict discordance for the
#    bucket-aligned scalar encoder, high discordance for the permuted control
# --------------------------------------------------------------------------

ADVERSARIAL_RATE_FLOOR = 0.10  # frozen: oracle runs measured 0.164..0.188


class _PermutedBuckets:
    def __init__(self, inner, seed=0):
        self.inner = inner
        perm = list(range(inner.n - inner.w + 1))
        random.Random(seed).shuffle(perm)
        self._perm = perm

    def encode(self, value):
        b = self._perm[self.inner.bucket(value)]
        return SDR(self.inner.n, tuple(range(b, b + self.inner.w)))


def test_criterion_5_semantic_consistency(capsys):
    enc = ScalarEncoder(0, 45, 221, 21)
    # 200 evenly spaced samples, one per bucket center: the encoder's overlap
    # is then exactly max(0, w - |i - j|), anti-monotone in distance
    samples = [(i + 0.5) * enc.resolution for i in range(200)]

    start = time.perf_counter()
    subset = samples[::5]
    assert len(subset) == 40
    exhaustive = evaluate_encoder(
        enc.encode, absolute_difference, subset, exhaustive=True
    )
    assert exhaustive.quadruples_sampled == 40 ** 4
    assert exhaustive.discordant == 0

    sampled = evaluate_encoder(
        enc.encode, absolute_difference, samples, quadruple_count=10_000, seed=0
    )
    assert sampled.discordant == 0
    assert sampled.discordance_rate == 0.0

    adversary = _PermutedBuckets(ScalarEncoder(0, 45, 221, 21), seed=0)
    attacked = evaluate_encoder(
        adversary.encode, absolute_difference, samples, quadruple_count=10_000, seed=0
    )
    assert attacked.discordance_rate > ADVERSARIAL_RATE_FLOOR
    elapsed = time.perf_counter() - start

    assert elapsed < 30.0
    report("5", f"0 discordances over {40 ** 4} exhaustive + 10^4 sampled "
                f"quadruples; permuted control at rate "
                f"{attacked.discordance_rate:.3f} > {ADVERSARIAL_RATE_FLOOR} "
                f"({elapsed:.2f} s)")


# --------------------------------------------------------------------------
# 6. hash golden vectors, byte-exact
# --------------------------------------------------------------------------

def test_criterion_6_hash_golden_vectors(capsys):
    golden = GOLDEN_FIXTURE.read_text()
    assert cli.main(["selftest-hash"]) == 0
    assert capsys.readouterr().out == golden

    # spot-check through the API as well, not only through the CLI
    vectors = 0
    section = None
    for line in golden.splitlines():
        if line.startswith("#"):
            section = "mix" if "mix64" in line else "coord"
            continue
        parts = line.split(",")
        if section == "mix":
            assert mix64(int(parts[0])) == int(parts[1])
        else:
            x, y, seed, n, bit_index, order_key = map(int, parts)
            assert coordinate_hash((x, y), seed, n) == (bit_index, order_key)
        vectors += 1
    assert vectors >= 16
    report("6", f"{vectors} golden vectors matched byte-exactly")


# --------------------------------------------------------------------------
# 7. collision statistics for the fixed geospatial encoder
# --------------------------------------------------------------------------

def _collision_free_fraction(n, trials, rng):
    enc = GeospatialEncoder(n, 2, seed=0)
    hits = 0
    for _ in range(trials):
        c = (rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
        if enc.encode(c).active_count == 25:
            hits += 1
    return hits / trials


def _oracle_collision_free_fraction(n, trials, rng):
    # independent model: 25 iid uniform bucket draws per trial
    hits = 0
    for _ in range(trials):
        if len({rng.randrange(n) for _ in range(25)}) == 25:
            hits += 1
    return hits / trials


def test_criterion_7_collision_statistics():
    trials = 10_000
    start = time.perf_counter()

    measured_1000 = _collision_free_fraction(1000, trials, random.Random(101))
    oracle_1000 = _oracle_collision_free_fraction(1000, trials, random.Random(202))
    assert abs(measured_1000 - oracle_1000) <= 0.02

    measured_100 = _collision_free_fraction(100, trials, random.Random(303))
    oracle_100 = _oracle_collision_free_fraction(100, trials, random.Random(404))
    fraction_with_fewer = 1 - measured_100
    assert fraction_with_fewer > 0.5  # collisions clearly measurable at n=100
    assert abs(measured_100 - oracle_100) <= 0.02
    elapsed = time.perf_counter() - start

    assert elapsed < 10.0
    report("7", f"collision-free fractions match the Monte-Carlo oracle within "
                f"2pp: n=1000 {measured_1000:.3f} vs {oracle_1000:.3f}, "
                f"n=100 {measured_100:.3f} vs {oracle_100:.3f} ({elapsed:.2f} s)")


@pytest.mark.xfail(
    strict=True,
    reason="unattainable as stated: 25 uniform hashes into 1000 bits are "
           "collision-free with probability ~0.739 (birthday bound), so no "
           "deterministic uniform hash can reach a 99% collision-free rate",
)
def test_criterion_7_literal_99_percent_at_n1000():
    fraction = _collision_free_fraction(1000, 10_000, random.Random(101))
    assert fraction >= 0.99


# --------------------------------------------------------------------------
# 8. speed-adaptive subsampling scenario (statistical)
# --------------------------------------------------------------------------

MEAN_SHARED_FLOOR = 8.0       # frozen: oracle mean 8.48, measured 8.52
SHARED_GE1_FRACTION_FLOOR = 0.90  # frozen: oracle 0.966, measured 0.98


def test_criterion_8_adaptive_subsampling():
    start = time.perf_counter()

    def encoder(seed):
        # Past 64 bits no hash is reduced modulo n, so each selected cell
        # keeps a bit of its own: shared bits count shared cells.
        return GeospatialEncoder(
            1 << 64, 2, variant="topw", w=15, seed=seed,
            radius_min=2, radius_max=4, speed_scale=0.1,
        )

    def selected(enc, value):
        return set(enc.encode(value).active)

    sel = selected(encoder(0), (0, 0))
    assert len(sel) == 15 and len(neighborhood((0, 0), 2)) == 25

    shared_slow = []
    shared_fast_ge1 = 0
    for seed in range(100):
        enc = encoder(seed)
        at_origin = selected(enc, (0, 0))
        after_small_move = selected(enc, (2, 0))
        shared_slow.append(len(at_origin & after_small_move))

        far = selected(enc, ((0, -4), 20))  # radius 2 + floor(20 * 0.1)
        assert len(far) == 15 and len(neighborhood((0, -4), 4)) == 81
        if at_origin & far:
            shared_fast_ge1 += 1

    mean_slow = sum(shared_slow) / len(shared_slow)
    assert mean_slow >= MEAN_SHARED_FLOOR
    assert shared_fast_ge1 / 100 >= SHARED_GE1_FRACTION_FLOOR
    elapsed = time.perf_counter() - start

    assert elapsed < 5.0
    report("8", f"15/25 selected; 2-cell move shares {mean_slow:.2f} cells on "
                f"average; 4-cell move at radius 4 shares >=1 cell in "
                f"{shared_fast_ge1}% of seeds ({elapsed:.2f} s)")


# --------------------------------------------------------------------------
# 9. cyclic wrap-around vs the non-cyclic defect
# --------------------------------------------------------------------------

def test_criterion_9_cyclic_wrap():
    cyc = CyclicEncoder(period=7, n=7, w=3)
    sat, sun, mon = cyc.encode(6), cyc.encode(0), cyc.encode(1)
    wrap = overlap(sat, sun)
    assert wrap == overlap(sun, mon) > 0

    flat = ScalarEncoder(0, 6, 7, 3)
    assert overlap(flat.encode(6), flat.encode(0)) == 0
    report("9", f"cyclic day-of-week: Sat/Sun overlap == Sun/Mon overlap == "
                f"{wrap}; plain scalar drops Sat/Sun to 0")


# --------------------------------------------------------------------------
# 10. concatenation bookkeeping and the dominance warning
# --------------------------------------------------------------------------

def test_criterion_10_concatenation():
    parts = [
        ("temp", ScalarEncoder(0, 45, 134, 21)),
        ("hour", CyclicEncoder(24, 96, 21)),
        ("kind", CategoryEncoder(["a", "b", "c"], w=21)),
    ]
    multi = MultiEncoder(parts)
    out = multi.encode({"temp": 20, "hour": 13.5, "kind": "b"})
    assert out.n == sum(enc.n for _, enc in parts)
    assert out.active_count == sum(enc.w for _, enc in parts)

    dominated = MultiEncoder([
        ("big", ScalarEncoder(0, 1, 300, 64)),
        ("small", ScalarEncoder(0, 1, 100, 21)),
    ])
    assert any("dominate" in message for message in dominated.warnings)

    at_exactly_3x = MultiEncoder([
        ("a", ScalarEncoder(0, 1, 300, 63)),
        ("b", ScalarEncoder(0, 1, 100, 21)),
    ])
    assert not any("dominate" in message for message in at_exactly_3x.warnings)

    report("10", f"multi output n={out.n} and w={out.active_count} equal the "
                 "sums of the children; dominance warning fires only above 3x")
