"""Concatenation, multi-field records, and the datetime encoder."""

import calendar
import datetime as dt
import random

import pytest
from hypothesis import given, strategies as st

from sdrkit.categories import CategoryEncoder
from sdrkit.composite import DatetimeEncoder, MultiEncoder, concat
from sdrkit.errors import ConfigError, InputError, MissingFieldError
from sdrkit.scalars import CyclicEncoder, ScalarEncoder
from sdrkit.sdr import SDR, overlap


class TestConcat:
    def test_offsets(self):
        out = concat([SDR(4, (1,)), SDR(4, (0, 2))])
        assert out == SDR(8, (1, 4, 6))

    def test_single_part_is_identity(self):
        a = SDR(16, (3, 7, 9))
        assert concat([a]) == a

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            concat([])

    @given(
        st.lists(
            st.tuples(st.integers(1, 30), st.integers(0, 30)).map(
                lambda p: SDR(p[0], tuple(range(min(p[1], p[0]))))
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_permutation_preserves_counts(self, parts):
        base = concat(parts)
        shuffled = list(parts)
        random.Random(0).shuffle(shuffled)
        permuted = concat(shuffled)
        assert permuted.n == base.n == sum(p.n for p in parts)
        assert permuted.active_count == base.active_count


class TestMultiEncoder:
    def make(self):
        return MultiEncoder([
            ("temp", ScalarEncoder(0, 45, 100, 21)),
            ("daytype", CategoryEncoder(["weekday", "weekend"], w=21)),
        ])

    def test_dimensions_add_up(self):
        multi = self.make()
        out = multi.encode({"temp": 10, "daytype": "weekend"})
        assert out.n == 142 == multi.n
        assert out.active_count == 42 == multi.w

    def test_missing_field(self):
        with pytest.raises(MissingFieldError, match="temp"):
            self.make().encode({"daytype": "weekday"})

    def test_extra_fields_ignored(self):
        multi = self.make()
        a = multi.encode({"temp": 10, "daytype": "weekend", "noise": 1})
        b = multi.encode({"temp": 10, "daytype": "weekend", "noise": 2})
        assert a == b

    def test_child_error_carries_field_context(self):
        with pytest.raises(InputError, match="'temp'"):
            self.make().encode({"temp": float("nan"), "daytype": "weekday"})

    def test_field_positions_follow_declared_order(self):
        multi = self.make()
        out = multi.encode({"temp": 0, "daytype": "weekend"})
        temp_bits = [i for i in out.active if i < 100]
        cat_bits = [i - 100 for i in out.active if i >= 100]
        assert temp_bits == list(range(21))
        assert cat_bits == list(range(21, 42))

    def test_unique_names_required(self):
        enc = ScalarEncoder(0, 1, 100, 21)
        with pytest.raises(ConfigError):
            MultiEncoder([("a", enc), ("a", enc)])

    def test_at_least_one_part(self):
        with pytest.raises(ConfigError):
            MultiEncoder([])

    def test_dominance_warning(self):
        noisy = MultiEncoder([
            ("a", ScalarEncoder(0, 1, 300, 64)),
            ("b", ScalarEncoder(0, 1, 100, 21)),
        ])
        assert any("dominate" in message for message in noisy.warnings)
        balanced = MultiEncoder([
            ("a", ScalarEncoder(0, 1, 300, 42)),
            ("b", ScalarEncoder(0, 1, 100, 21)),
        ])
        assert not any("dominate" in message for message in balanced.warnings)

    def test_child_warnings_surface_with_field_name(self):
        multi = MultiEncoder([("t", ScalarEncoder(0, 1, 100, 5))])
        assert any("'t'" in message for message in multi.warnings)


SATURDAY_NOON = dt.datetime(2023, 1, 7, 12, 0)  # a Saturday
SUNDAY = dt.datetime(2023, 1, 8)
MONDAY = dt.datetime(2023, 1, 9)


class TestDatetimeEncoder:
    def test_weekend_only_block(self):
        enc = DatetimeEncoder(weekend={"w": 50})
        out = enc.encode(SATURDAY_NOON)
        assert out.n == 100
        assert out.active == tuple(range(50, 100))
        weekday_out = enc.encode(dt.datetime(2023, 1, 9, 12, 0))
        assert weekday_out.active == tuple(range(0, 50))

    def test_day_of_week_wraps_at_week_boundary(self):
        enc = DatetimeEncoder(day_of_week={"n": 7, "w": 3})
        sat = enc.encode(dt.datetime(2023, 1, 7))
        sun = enc.encode(SUNDAY)
        mon = enc.encode(MONDAY)
        assert overlap(sat, sun) == overlap(sun, mon) == 2

    def test_deterministic(self):
        enc = DatetimeEncoder(weekend={"w": 50}, time_of_day={"n": 100, "w": 21})
        t = dt.datetime(2021, 6, 1, 8, 30, 15)
        assert enc.encode(t) == enc.encode(t)

    def test_component_order_and_total_n(self):
        enc = DatetimeEncoder(weekend={"w": 50}, day_of_week={"n": 70, "w": 21},
                              time_of_day={"n": 96, "w": 21})
        assert [name for name, _ in enc.parts] == [
            "weekend", "day_of_week", "time_of_day"
        ]
        assert enc.n == 100 + 70 + 96
        assert enc.w == 50 + 21 + 21
        out = enc.encode(SATURDAY_NOON)
        assert out.active_count == enc.w

    def test_component_values(self):
        enc = DatetimeEncoder(
            weekend={"w": 50}, day_of_week={"n": 70, "w": 21},
            time_of_day={"n": 96, "w": 21}, month_of_year={"n": 100, "w": 21},
            day_of_month={"n": 100, "w": 21},
        )
        values = enc.component_values(dt.datetime(2023, 2, 15, 6, 0))
        assert values["weekend"] == "weekday"
        assert values["time_of_day"] == 6.0
        assert values["day_of_month"] == pytest.approx(14.25)
        assert values["day_of_week"] == pytest.approx(3 + 0.25)  # Wed, Sun=0
        assert values["month_of_year"] == pytest.approx(1 + 14.25 / 28)

    def test_month_of_year_divides_by_the_days_in_the_month(self):
        enc = DatetimeEncoder(month_of_year={"n": 48, "w": 5})
        for year in range(1600, 2001):  # a whole Gregorian leap cycle
            for month in range(1, 13):
                days = calendar.monthrange(year, month)[1]
                value = enc.component_values(dt.datetime(year, month, days, 12))
                assert value["month_of_year"] == (month - 1) + (days - 1 + 0.5) / days

    def test_evening_continuity_across_week_wrap(self):
        # Sunday evening should resemble Saturday evening more than Wednesday
        enc = DatetimeEncoder(day_of_week={"n": 140, "w": 21})
        sat_eve = enc.encode(dt.datetime(2023, 1, 7, 22, 0))
        sun_eve = enc.encode(dt.datetime(2023, 1, 8, 22, 0))
        wed_eve = enc.encode(dt.datetime(2023, 1, 11, 22, 0))
        assert overlap(sat_eve, sun_eve) > overlap(sat_eve, wed_eve)

    def test_requires_a_component(self):
        with pytest.raises(ConfigError):
            DatetimeEncoder()

    def test_rejects_non_datetime(self):
        enc = DatetimeEncoder(weekend={"w": 50})
        with pytest.raises(InputError):
            enc.encode("2023-01-07")

    def test_is_a_multi_encoder_over_its_components(self):
        enc = DatetimeEncoder(weekend={"w": 21}, time_of_day={"n": 100, "w": 21})
        assert isinstance(enc, MultiEncoder)
        assert enc.encode(SATURDAY_NOON) == MultiEncoder(enc.parts).encode(
            enc.component_values(SATURDAY_NOON))

    def test_warnings_follow_the_multi_encoder_rule(self):
        enc = DatetimeEncoder(weekend={"w": 50}, time_of_day={"n": 100, "w": 10})
        assert enc.warnings == [
            "field 'weekend' (w=50) has more than 3x the one-bits of 'time_of_day' "
            "(w=10) and may dominate the combined encoding",
            "field 'time_of_day': w=10 is below the recommended minimum of 20 "
            "one-bits; small codes are fragile under noise and subsampling",
        ]

    def test_utc_offset_is_ignored(self):
        # Wall-clock fields are encoded as written; the offset plays no part.
        cyclic = {"n": 100, "w": 21}
        enc = DatetimeEncoder(weekend={"w": 50}, day_of_week=cyclic, time_of_day=cyclic,
                              month_of_year=cyclic, day_of_month=cyclic)
        naive = dt.datetime(2024, 1, 6, 23, 30)
        for hours in (5, -8, 0, 14):
            aware = naive.replace(tzinfo=dt.timezone(dt.timedelta(hours=hours)))
            assert enc.encode(aware) == enc.encode(naive)

    def test_params_rebuild_the_same_encoder(self):
        enc = DatetimeEncoder(weekend={"w": 50}, time_of_day={"n": 96, "w": 21})
        assert enc.params() == {"weekend": {"w": 50}, "time_of_day": {"n": 96, "w": 21}}
        again = DatetimeEncoder(**enc.params())
        assert again.params() == enc.params()
        assert again.encode(SATURDAY_NOON) == enc.encode(SATURDAY_NOON)

    def test_bad_component_specs(self):
        with pytest.raises(ConfigError, match=r"^weekend component: takes the keys \['w'\]"):
            DatetimeEncoder(weekend="big")
        with pytest.raises(ConfigError, match=r"^day_of_week component: takes the keys"):
            DatetimeEncoder(day_of_week=7)


def test_one_bit_budget_across_composites():
    multi = MultiEncoder([
        ("temp", ScalarEncoder(0, 45, 134, 21)),
        ("hour", CyclicEncoder(24, 96, 21)),
        ("kind", CategoryEncoder(["a", "b", "c"], w=21)),
    ])
    rng = random.Random(8)
    for _ in range(50):
        record = {
            "temp": rng.uniform(-5, 50),
            "hour": rng.uniform(0, 24),
            "kind": rng.choice(["a", "b", "c"]),
        }
        out = multi.encode(record)
        assert out.n == 134 + 96 + 63
        assert out.active_count == 63
