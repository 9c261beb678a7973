"""Trace pipeline: velocity, mobility states, per-state volumes, convexity."""

import csv
import math
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexcell import (
    EARTH_RADIUS_M,
    InsufficientDataError,
    TraceFormatError,
    TraceSample,
    UserClass,
    aggregate_population,
    aggregate_user,
    analyze_trace,
    build_segments,
    classify_mobility,
    compute_velocity,
    haversine_m,
    read_trace_csv,
)

T0 = datetime(2015, 6, 1, 0, 0, tzinfo=timezone.utc)
FIVE_MIN = timedelta(minutes=5)


def lat_step(meters):
    """Latitude increment spanning the given meridian arc length."""
    return meters / EARTH_RADIUS_M * 180.0 / math.pi


def walk_user(user_id, legs, start=T0):
    """Samples from (minutes_from_start, meters_moved_north, rx_bytes) legs."""
    samples = [TraceSample(user_id, start, 0.0, 0.0, 0.0)]
    lat = 0.0
    for minutes, meters, rx in legs:
        lat += lat_step(meters)
        samples.append(
            TraceSample(user_id, start + timedelta(minutes=minutes), lat, 0.0, rx)
        )
    return samples


# one observed day: 40.63 MB stationary, 2.09 walking, 4.93 vehicular
DAY_2012 = [
    (5, 0.0, 40.63e6),
    (10, 215.0, 2.09e6),      # 2.58 km/h
    (15, 2658.3333333, 4.93e6),  # 31.9 km/h
    (24 * 60, 0.0, 0.0),
]


class TestHaversine:
    def test_zero_distance(self):
        assert haversine_m(37.5, 127.0, 37.5, 127.0) == 0.0

    def test_one_degree_meridian(self):
        # R * pi / 180
        assert haversine_m(0.0, 0.0, 1.0, 0.0) == pytest.approx(
            111194.92664455873, rel=1e-9
        )

    def test_one_degree_equator(self):
        assert haversine_m(0.0, 0.0, 0.0, 1.0) == pytest.approx(
            111194.92664455873, rel=1e-9
        )

    def test_symmetry(self):
        assert haversine_m(10.0, 20.0, 11.0, 21.0) == pytest.approx(
            haversine_m(11.0, 21.0, 10.0, 20.0), rel=1e-12
        )


class TestComputeVelocity:
    def test_colocated_samples(self):
        a = TraceSample("u", T0, 37.0, 127.0, 0.0)
        b = TraceSample("u", T0 + FIVE_MIN, 37.0, 127.0, 1.0)
        assert compute_velocity(a, b) == 0.0

    def test_vehicular_average_speed(self):
        # 2658.333 m in 5 minutes is the 31.9 km/h mean vehicular speed
        a = TraceSample("u", T0, 0.0, 0.0, 0.0)
        b = TraceSample("u", T0 + FIVE_MIN, lat_step(2658.3333333), 0.0, 0.0)
        assert compute_velocity(a, b) == pytest.approx(31.9, rel=1e-6)

    def test_walking_average_speed(self):
        a = TraceSample("u", T0, 0.0, 0.0, 0.0)
        b = TraceSample("u", T0 + FIVE_MIN, lat_step(215.0), 0.0, 0.0)
        assert compute_velocity(a, b) == pytest.approx(2.58, rel=1e-6)

    def test_user_mismatch_rejected(self):
        a = TraceSample("u", T0, 0.0, 0.0, 0.0)
        b = TraceSample("v", T0 + FIVE_MIN, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="different users"):
            compute_velocity(a, b)

    def test_non_increasing_time_rejected(self):
        a = TraceSample("u", T0, 0.0, 0.0, 0.0)
        b = TraceSample("u", T0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="increasing"):
            compute_velocity(a, b)


class TestClassifyMobility:
    def test_measured_speeds(self):
        assert classify_mobility(31.9) is UserClass.VEHICULAR
        assert classify_mobility(2.58) is UserClass.WALKING
        assert classify_mobility(0.0) is UserClass.STATIONARY

    def test_vehicular_boundary_is_strict(self):
        assert classify_mobility(10.0) is UserClass.WALKING
        assert classify_mobility(10.000001) is UserClass.VEHICULAR

    def test_stationary_cutoff_inclusive(self):
        assert classify_mobility(0.5) is UserClass.STATIONARY
        assert classify_mobility(0.51) is UserClass.WALKING
        assert classify_mobility(0.4, stationary_cutoff=0.0) is UserClass.WALKING

    def test_cutoff_validation(self):
        with pytest.raises(ValueError, match="cutoff"):
            classify_mobility(1.0, stationary_cutoff=10.0)
        with pytest.raises(ValueError, match="velocity"):
            classify_mobility(-1.0)

    @given(st.floats(0.0, 200.0), st.floats(0.0, 9.99))
    def test_totality(self, velocity, cutoff):
        assert classify_mobility(velocity, cutoff) in tuple(UserClass)


class TestSampleValidation:
    def test_coordinate_ranges(self):
        with pytest.raises(ValueError, match="latitude"):
            TraceSample("u", T0, 91.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="longitude"):
            TraceSample("u", T0, 0.0, 190.0, 0.0)
        with pytest.raises(ValueError, match="rx_bytes"):
            TraceSample("u", T0, 0.0, 0.0, -1.0)

    @pytest.mark.parametrize(
        "rx_bytes, reason",
        [
            (math.inf, "rx_bytes is not a number"),
            (math.nan, "rx_bytes is not a number"),
            (-math.inf, "rx_bytes must be >= 0"),
            (-5.0, "rx_bytes must be >= 0"),
        ],
    )
    def test_rx_bytes_must_be_finite(self, rx_bytes, reason):
        with pytest.raises(ValueError) as excinfo:
            TraceSample("u", T0, 0.0, 0.0, rx_bytes)
        assert str(excinfo.value) == reason


class TestBuildSegments:
    def test_segment_fields(self):
        samples = walk_user("u", DAY_2012)
        segments = build_segments(samples)
        assert len(segments) == len(samples) - 1
        states = [s.state for s in segments]
        assert states == [
            UserClass.STATIONARY,
            UserClass.WALKING,
            UserClass.VEHICULAR,
            UserClass.STATIONARY,
        ]
        for segment, (prev, cur) in zip(segments, zip(samples, samples[1:])):
            assert segment.start == prev.timestamp
            assert segment.end == cur.timestamp
            assert segment.rx_bytes == cur.rx_bytes
            assert segment.state is classify_mobility(segment.velocity)

    @given(st.lists(st.floats(0.0, 3000.0), min_size=2, max_size=8))
    def test_states_consistent_with_velocity(self, hops):
        legs = [
            ((i + 1) * 5, meters, 1000.0) for i, meters in enumerate(hops)
        ]
        segments = build_segments(walk_user("u", legs))
        for segment in segments:
            assert segment.velocity >= 0.0
            assert segment.state is classify_mobility(segment.velocity)


class TestAggregateUser:
    def test_all_stationary(self):
        legs = [(5, 0.0, 10e6), (10, 0.0, 20e6), (24 * 60, 0.0, 0.0)]
        volumes = aggregate_user(build_segments(walk_user("u", legs)))
        assert volumes == pytest.approx((30.0, 0.0, 0.0))

    def test_hand_built_mixed_day(self):
        legs = [
            (5, 0.0, 50e6),
            (10, 215.0, 5e6),
            (15, 2658.3333333, 20e6),
            (24 * 60, 0.0, 0.0),
        ]
        volumes = aggregate_user(build_segments(walk_user("u", legs)))
        assert volumes == pytest.approx((50.0, 5.0, 20.0), rel=1e-9)

    def test_two_identical_days_average_out(self):
        one_day = [
            (5, 0.0, 50e6),
            (10, 215.0, 5e6),
            (15, 2658.3333333, 20e6),
            (24 * 60, 0.0, 0.0),
        ]
        second_day = [
            (m + 24 * 60, meters, rx)
            for m, meters, rx in [
                (5, 0.0, 50e6),
                (10, 215.0, 5e6),
                (15, 2658.3333333, 20e6),
                (24 * 60, 0.0, 0.0),
            ]
        ]
        single = aggregate_user(build_segments(walk_user("u", one_day)))
        double = aggregate_user(build_segments(walk_user("u", one_day + second_day)))
        assert double == pytest.approx(single, rel=1e-9)

    def test_bytes_conserved(self):
        samples = walk_user("u", DAY_2012)
        volumes = aggregate_user(build_segments(samples))
        span_days = (
            samples[-1].timestamp - samples[0].timestamp
        ).total_seconds() / 86400.0
        attributed = sum(volumes) * span_days * 1e6
        fed_in = sum(s.rx_bytes for s in samples[1:])
        assert attributed == pytest.approx(fed_in, rel=1e-12)

    def test_requires_two_samples(self):
        with pytest.raises(InsufficientDataError):
            aggregate_user(build_segments([TraceSample("u", T0, 0.0, 0.0, 0.0)]))


class TestAggregatePopulation:
    def test_2012_measurement_shape(self):
        report = aggregate_population([(40.63, 2.09, 4.93)])
        assert report.total_volume == pytest.approx(47.65, abs=1e-9)
        assert report.user_convexity == pytest.approx(2.3588516746, abs=1e-9)
        assert report.per_state_share[UserClass.VEHICULAR] == pytest.approx(
            0.1034627492, abs=1e-9
        )
        assert report.user_count == 1

    def test_2015_measurement_shape(self):
        report = aggregate_population([(88.58, 14.00, 42.48)])
        assert report.total_volume == pytest.approx(145.06, abs=1e-9)
        assert report.user_convexity == pytest.approx(3.0342857143, abs=1e-9)
        assert report.per_state_share[UserClass.VEHICULAR] == pytest.approx(
            0.2928443403, abs=1e-9
        )

    def test_mean_idempotence(self):
        triple = (88.58, 14.00, 42.48)
        single = aggregate_population([triple])
        double = aggregate_population([triple, triple])
        assert double.per_state_volume == single.per_state_volume
        assert double.user_convexity == single.user_convexity
        assert double.user_count == 2

    def test_zero_walking_reports_no_convexity(self):
        report = aggregate_population([(10.0, 0.0, 5.0)])
        assert report.user_convexity is None
        assert report.per_state_volume == (10.0, 0.0, 5.0)
        assert report.total_volume == 15.0

    def test_empty_population_rejected(self):
        with pytest.raises(InsufficientDataError):
            aggregate_population([])

    @given(
        st.lists(
            st.tuples(
                st.floats(0.1, 500.0), st.floats(0.1, 500.0), st.floats(0.1, 500.0)
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_share_and_total_identities(self, triples):
        report = aggregate_population(triples)
        assert sum(report.per_state_share) == pytest.approx(1.0, abs=1e-9)
        assert report.total_volume == pytest.approx(
            sum(report.per_state_volume), abs=1e-9
        )
        assert report.user_count == len(triples)

    @given(st.floats(1e-3, 1e3))
    def test_convexity_scale_invariance(self, k):
        base = walk_user("u", DAY_2012)
        scaled = [
            TraceSample(s.user_id, s.timestamp, s.latitude, s.longitude,
                        s.rx_bytes * k)
            for s in base
        ]
        report_a = aggregate_population([aggregate_user(build_segments(base))])
        report_b = aggregate_population([aggregate_user(build_segments(scaled))])
        assert report_b.user_convexity == pytest.approx(
            report_a.user_convexity, rel=1e-9
        )


TRACE_HEADER = "user_id,timestamp,lat,lon,rx_bytes\n"

# Fuzzed data rows: mostly five fields of plausible shape, with NaN, inf,
# out-of-range numbers, timestamps at the ends of the datetime range and
# free text mixed in. Control characters are left out so one row stays
# one CSV record.
FUZZ_TEXT = st.text(st.characters(blacklist_categories=("Cs", "Cc")), max_size=6)
FUZZ_NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-200, 200).map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e999", "-0", " 5 "]),
    FUZZ_TEXT,
)
FUZZ_STAMPS = st.one_of(
    st.datetimes(
        timezones=st.sampled_from(
            [None, timezone.utc, timezone(timedelta(hours=14)),
             timezone(timedelta(hours=-12))]
        )
    ).map(datetime.isoformat),
    st.sampled_from(
        ["0001-01-01T00:00:00+01:00", "2015-06-01T00:00:00Z", "2015-13-01T00:00:00"]
    ),
    FUZZ_TEXT,
)
FUZZ_ROWS = st.one_of(
    st.tuples(FUZZ_TEXT, FUZZ_STAMPS, FUZZ_NUMBERS, FUZZ_NUMBERS, FUZZ_NUMBERS),
    st.lists(FUZZ_TEXT, min_size=1, max_size=7),
).map(list)


def write_trace(path, rows):
    path.write_text(TRACE_HEADER + "".join(rows), encoding="utf-8")


class TestReadTraceCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(
            path,
            [
                "u1,2015-06-01T00:00:00Z,0.0,0.0,0\n",
                "u1,2015-06-01T00:05:00+00:00,0.001,0.0,1000\n",
                "u2,2015-06-01T00:00:00,0.0,0.0,500\n",
            ],
        )
        samples, bad = read_trace_csv(path)
        assert not bad
        assert set(samples) == {"u1", "u2"}
        assert len(samples["u1"]) == 2
        assert samples["u1"][0].timestamp == T0  # Z and naive both read as UTC
        assert samples["u2"][0].rx_bytes == 500.0

    def test_header_required(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("id,time,x,y,bytes\nu,2015-06-01T00:00:00Z,0,0,1\n")
        with pytest.raises(TraceFormatError, match="header"):
            read_trace_csv(path)
        path.write_text(f"user_id,{'x' * (csv.field_size_limit() + 1)}\n")
        with pytest.raises(TraceFormatError, match="unreadable header"):
            read_trace_csv(path)

    def test_strict_mode_lists_bad_lines(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(
            path,
            [
                "u1,2015-06-01T00:00:00Z,0.0,0.0,0\n",
                "u1,2015-06-01T00:05:00Z,0.0,0.0\n",          # 4 fields
                "u1,2015-05-31T23:59:00Z,0.0,0.0,10\n",        # time goes back
                "u1,2015-06-01T00:10:00Z,95.0,0.0,10\n",       # latitude range
                "u1,2015-06-01T00:15:00Z,0.0,0.0,nan\n",       # NaN volume
            ],
        )
        with pytest.raises(TraceFormatError, match="3, 4, 5, 6"):
            read_trace_csv(path, strict=True)

    def test_lenient_mode_skips_and_reports(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(
            path,
            [
                "u1,2015-06-01T00:00:00Z,0.0,0.0,0\n",
                "u1,not-a-time,0.0,0.0,10\n",
                "u1,2015-06-01T00:05:00Z,0.0,0.0,10\n",
            ],
        )
        samples, bad = read_trace_csv(path, strict=False)
        assert [line for line, _ in bad] == [3]
        assert len(samples["u1"]) == 2

    def test_lenient_mode_skips_infinite_bytes(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(
            path,
            [
                "u1,2015-06-01T00:00:00Z,0.0,0.0,0\n",
                "u1,2015-06-01T00:05:00Z,0.0,0.0,inf\n",
                "u1,2015-06-01T00:10:00Z,0.0,0.0,10\n",
            ],
        )
        samples, bad = read_trace_csv(path, strict=False)
        assert bad == [(3, "rx_bytes is not a number")]
        assert [s.rx_bytes for s in samples["u1"]] == [0.0, 10.0]

    @pytest.mark.parametrize(
        "stamp", ["0001-01-01T00:00:00+01:00", "9999-12-31T23:30:00-01:00"]
    )
    def test_timestamp_beyond_utc_range_is_a_bad_row(self, tmp_path, stamp):
        path = tmp_path / "trace.csv"
        write_trace(path, [f"u1,{stamp},0.0,0.0,0\n"])
        samples, bad = read_trace_csv(path, strict=False)
        assert samples == {}
        assert [line for line, _ in bad] == [2]
        assert "out of range" in bad[0][1]

    @settings(max_examples=200)
    @given(data_row=FUZZ_ROWS)
    def test_fuzzed_row_is_skipped_or_finite(self, tmp_path_factory, data_row):
        path = tmp_path_factory.getbasetemp() / "fuzzed_row.csv"
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(TRACE_HEADER.strip().split(","))
            writer.writerow(data_row)
        samples, bad = read_trace_csv(path, strict=False)
        if bad:
            assert samples == {}
            [(line, reason)] = bad
            assert line == 2 and reason
            return
        [[sample]] = samples.values()
        assert math.isfinite(sample.rx_bytes) and sample.rx_bytes >= 0.0
        assert -90.0 <= sample.latitude <= 90.0
        assert -180.0 <= sample.longitude <= 180.0
        assert sample.timestamp.utcoffset() == timedelta(0)

    def test_oversized_field_is_a_bad_row(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(
            path,
            [
                "u1,2015-06-01T00:00:00Z,0.0,0.0,0\n",
                f"u1,{'x' * (csv.field_size_limit() + 1)},0.0,0.0,10\n",
                "u1,2015-06-01T00:05:00Z,0.0,0.0,10\n",
                "u1,not-a-time,0.0,0.0,10\n",
                "u1,2015-06-01T00:10:00Z,0.0,0.0,20\n",
            ],
        )
        samples, bad = read_trace_csv(path, strict=False)
        assert [line for line, _ in bad] == [3, 5]
        assert "field larger than field limit" in bad[0][1]
        assert [s.rx_bytes for s in samples["u1"]] == [0.0, 10.0, 20.0]
        with pytest.raises(TraceFormatError, match="line.s. 3, 5;"):
            read_trace_csv(path, strict=True)

    def test_user_id_that_is_not_utf8_is_a_bad_row(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_bytes(
            TRACE_HEADER.encode()
            + b"u1,2015-06-01T00:00:00Z,0.0,0.0,0\n"
            + b"u\xff1,2015-06-01T00:05:00Z,0.0,0.0,10\n"
            + b"u1,2015-06-01T00:10:00Z,0.0,0.0,20\n"
        )
        samples, bad = read_trace_csv(path, strict=False)
        assert [line for line, _ in bad] == [3]
        assert "not valid UTF-8" in bad[0][1]
        assert list(samples) == ["u1"]
        assert [s.rx_bytes for s in samples["u1"]] == [0.0, 20.0]
        with pytest.raises(TraceFormatError, match="line 3: user_id .* UTF-8"):
            read_trace_csv(path, strict=True)

    def test_line_numbers_count_lines_of_multiline_fields(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(
            path,
            [
                '"u\n2",2015-06-01T00:00:00Z,0.0,0.0,0\n',  # lines 2 and 3
                "u1,not-a-time,0.0,0.0,10\n",
            ],
        )
        samples, bad = read_trace_csv(path, strict=False)
        assert [line for line, _ in bad] == [4]
        assert list(samples) == ["u\n2"]

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(
            path,
            [
                "u1,2015-06-01T00:00:00Z,0.0,0.0,0\n",
                "\n",
                "u1,2015-06-01T00:05:00Z,0.0,0.0,10\n",
            ],
        )
        samples, bad = read_trace_csv(path)
        assert not bad
        assert len(samples["u1"]) == 2

    def test_offset_timestamps_normalize_to_utc(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(path, ["u1,2015-06-01T09:00:00+09:00,0.0,0.0,0\n"])
        samples, _ = read_trace_csv(path)
        assert samples["u1"][0].timestamp == T0


class TestAnalyzeTrace:
    def test_single_user_pipeline(self):
        report, segments = analyze_trace({"u1": walk_user("u1", DAY_2012)})
        assert report.user_count == 1
        assert report.per_state_volume == pytest.approx(
            (40.63, 2.09, 4.93), rel=1e-9
        )
        assert report.user_convexity == pytest.approx(2.3588516746, abs=1e-6)
        assert len(segments) == 4

    def test_strict_rejects_single_sample_users(self):
        data = {
            "u1": walk_user("u1", DAY_2012),
            "u2": [TraceSample("u2", T0, 0.0, 0.0, 0.0)],
        }
        with pytest.raises(InsufficientDataError, match="u2"):
            analyze_trace(data, strict=True)
        report, _ = analyze_trace(data, strict=False)
        assert report.user_count == 1

    def test_no_usable_users(self):
        with pytest.raises(InsufficientDataError):
            analyze_trace({"u1": [TraceSample("u1", T0, 0.0, 0.0, 0.0)]},
                          strict=False)

    def test_all_stationary_yields_undefined_convexity(self):
        legs = [(5, 0.0, 10e6), (24 * 60, 0.0, 0.0)]
        report, _ = analyze_trace({"u1": walk_user("u1", legs)})
        assert report.user_convexity is None
        assert report.per_state_volume[UserClass.STATIONARY] == pytest.approx(10.0)

    def test_deterministic(self):
        data = {"u1": walk_user("u1", DAY_2012)}
        assert analyze_trace(data)[0] == analyze_trace(data)[0]

    def test_report_serialization(self):
        report, _ = analyze_trace({"u1": walk_user("u1", DAY_2012)})
        payload = report.to_dict()
        assert payload["user_count"] == 1
        assert payload["per_state_volume_mb_per_day"]["vehicular"] == pytest.approx(
            4.93, rel=1e-9
        )
        assert payload["user_convexity"] == report.user_convexity
