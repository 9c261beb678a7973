"""Trace pipeline: velocity, mobility states, per-state volumes, convexity."""

import csv
import io
import math
from array import array
from datetime import datetime, timedelta, timezone

import pytest
from helpers import (
    OVERFLOWING_TRACES,
    TraceSample,
    classify_mobility,
    compute_velocity,
    haversine_m,
    reference_analyze_trace,
    reference_read_trace_csv,
    reference_segment_rows,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from convexcell import (
    EARTH_RADIUS_M,
    InsufficientDataError,
    TraceFormatError,
    UserClass,
    UserTrace,
    aggregate_population,
    aggregate_user,
    analyze_trace,
    build_segments,
    read_trace_csv,
)
from convexcell.cli import SEGMENT_COLUMNS, write_segments

T0 = datetime(2015, 6, 1, 0, 0, tzinfo=timezone.utc)
FIVE_MIN = timedelta(minutes=5)


def lat_step(meters):
    """Latitude increment spanning the given meridian arc length."""
    return meters / EARTH_RADIUS_M * 180.0 / math.pi


def walk_user(legs, start=T0):
    """Trace from (minutes_from_start, meters_moved_north, rx_bytes) legs."""
    trace = UserTrace([start], [0.0], [0.0], [0.0])
    lat = 0.0
    for minutes, meters, rx in legs:
        lat += lat_step(meters)
        trace.timestamps.append(start + timedelta(minutes=minutes))
        trace.latitudes.append(lat)
        trace.longitudes.append(0.0)
        trace.rx_bytes.append(rx)
    return trace


def pair_velocity(lat1, lon1, lat2, lon2, elapsed=timedelta(minutes=5)):
    """build_segments velocity of one two-sample trace."""
    trace = UserTrace([T0, T0 + elapsed], [lat1, lat2], [lon1, lon2], [0.0, 1.0])
    [velocity], _ = build_segments(trace)
    return velocity


def user_volumes(trace):
    """aggregate_user over the trace's own build_segments states."""
    return aggregate_user(trace, build_segments(trace)[1])


def single_sample():
    return UserTrace([T0], [0.0], [0.0], [0.0])


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

    def test_near_antipodal_rounding(self):
        # rounding puts the haversine term of this pair just above 1
        points = (46.16290411904106, -25.807675899365506,
                  -46.16290411904006, 154.1923241006345)
        assert haversine_m(*points) == math.pi * EARTH_RADIUS_M

    def test_symmetry(self):
        assert haversine_m(10.0, 20.0, 11.0, 21.0) == pytest.approx(
            haversine_m(11.0, 21.0, 10.0, 20.0), rel=1e-12
        )


class TestComputeVelocity:
    """Segment velocities of build_segments; the user check is the oracle's."""

    def test_colocated_samples(self):
        assert pair_velocity(37.0, 127.0, 37.0, 127.0) == 0.0

    def test_vehicular_average_speed(self):
        # 2658.333 m in 5 minutes is the 31.9 km/h mean vehicular speed
        velocity = pair_velocity(0.0, 0.0, lat_step(2658.3333333), 0.0)
        assert velocity == pytest.approx(31.9, rel=1e-6)

    def test_walking_average_speed(self):
        velocity = pair_velocity(0.0, 0.0, lat_step(215.0), 0.0)
        assert velocity == pytest.approx(2.58, rel=1e-6)

    def test_user_mismatch_rejected(self):
        # a UserTrace holds one user, so only the per-sample oracle can mix them
        a = TraceSample("u", T0, 0.0, 0.0, 0.0)
        b = TraceSample("v", T0 + FIVE_MIN, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="different users"):
            compute_velocity(a, b)

    def test_non_increasing_time_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            pair_velocity(0.0, 0.0, 1.0, 0.0, elapsed=timedelta(0))


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
    """Row checks of read_trace_csv: each bad value skips its row with a reason."""

    def test_coordinate_ranges(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(
            path,
            [
                "u,2015-06-01T00:00:00Z,91.0,0.0,0\n",
                "u,2015-06-01T00:00:00Z,0.0,190.0,0\n",
                "u,2015-06-01T00:00:00Z,0.0,0.0,-1.0\n",
            ],
        )
        traces, bad = read_trace_csv(path, strict=False)
        assert traces == {}
        assert bad == [
            (2, "latitude must be in [-90, 90]"),
            (3, "longitude must be in [-180, 180]"),
            (4, "rx_bytes must be >= 0"),
        ]

    @pytest.mark.parametrize(
        "rx_bytes, reason",
        [
            (math.inf, "rx_bytes is not a number"),
            (math.nan, "rx_bytes is not a number"),
            (-math.inf, "rx_bytes must be >= 0"),
            (-5.0, "rx_bytes must be >= 0"),
        ],
    )
    def test_rx_bytes_must_be_finite(self, tmp_path, rx_bytes, reason):
        path = tmp_path / "trace.csv"
        write_trace(path, [f"u,2015-06-01T00:00:00Z,0.0,0.0,{rx_bytes!r}\n"])
        assert read_trace_csv(path, strict=False) == ({}, [(2, reason)])


class TestBuildSegments:
    def test_segment_fields(self):
        trace = walk_user(DAY_2012)
        velocities, states = build_segments(trace)
        assert len(velocities) == len(states) == len(trace) - 1
        assert states == [
            UserClass.STATIONARY,
            UserClass.WALKING,
            UserClass.VEHICULAR,
            UserClass.STATIONARY,
        ]
        for velocity, state in zip(velocities, states):
            assert state is classify_mobility(velocity)

    @given(st.lists(st.floats(0.0, 3000.0), min_size=2, max_size=8))
    def test_states_consistent_with_velocity(self, hops):
        legs = [
            ((i + 1) * 5, meters, 1000.0) for i, meters in enumerate(hops)
        ]
        velocities, states = build_segments(walk_user(legs))
        for velocity, state in zip(velocities, states):
            assert velocity >= 0.0
            assert state is classify_mobility(velocity)

    @given(
        points=st.lists(
            st.tuples(
                st.floats(-90.0, 90.0),
                st.one_of(  # both sides of the antimeridian, and anywhere
                    st.floats(-180.0, -179.0),
                    st.floats(179.0, 180.0),
                    st.floats(-180.0, 180.0),
                ),
                st.integers(1, 10**10),  # microseconds since the last sample
            ),
            min_size=2,
            max_size=6,
        )
    )
    def test_velocities_and_states_match_haversine(self, points):
        trace = UserTrace([], [], [], [])
        stamp = T0
        for lat, lon, step_us in points:
            stamp += timedelta(microseconds=step_us)
            trace.timestamps.append(stamp)
            trace.latitudes.append(lat)
            trace.longitudes.append(lon)
            trace.rx_bytes.append(1.0)
        expected = []
        for i in range(len(points) - 1):
            elapsed = (trace.timestamps[i + 1] - trace.timestamps[i]).total_seconds()
            meters = haversine_m(
                trace.latitudes[i], trace.longitudes[i],
                trace.latitudes[i + 1], trace.longitudes[i + 1],
            )
            expected.append(meters / 1000 / (elapsed / 3600))
        for cutoff in (0.0, 0.5, 5.0, 9.99):
            velocities, states = build_segments(trace, cutoff)
            assert velocities == expected
            for velocity, state in zip(velocities, states):
                assert state is classify_mobility(velocity, cutoff)

    @pytest.mark.parametrize("cutoff", [-0.1, 10.0, 50.0, math.nan])
    def test_cutoff_checked_without_segments(self, cutoff):
        with pytest.raises(ValueError, match="stationary_cutoff"):
            build_segments(single_sample(), cutoff)


class TestAggregateUser:
    def test_all_stationary(self):
        legs = [(5, 0.0, 10e6), (10, 0.0, 20e6), (24 * 60, 0.0, 0.0)]
        volumes = user_volumes(walk_user(legs))
        assert volumes == pytest.approx((30.0, 0.0, 0.0))

    def test_hand_built_mixed_day(self):
        legs = [
            (5, 0.0, 50e6),
            (10, 215.0, 5e6),
            (15, 2658.3333333, 20e6),
            (24 * 60, 0.0, 0.0),
        ]
        volumes = user_volumes(walk_user(legs))
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
        single = user_volumes(walk_user(one_day))
        double = user_volumes(walk_user(one_day + second_day))
        assert double == pytest.approx(single, rel=1e-9)

    def test_bytes_conserved(self):
        trace = walk_user(DAY_2012)
        volumes = user_volumes(trace)
        span_days = (
            trace.timestamps[-1] - trace.timestamps[0]
        ).total_seconds() / 86400.0
        attributed = sum(volumes) * span_days * 1e6
        fed_in = sum(trace.rx_bytes[1:])
        assert attributed == pytest.approx(fed_in, rel=1e-12)

    def test_requires_two_samples(self):
        with pytest.raises(InsufficientDataError):
            user_volumes(single_sample())


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

    @pytest.mark.parametrize(
        "triples, message",
        [
            ([(1e308, 0.0, 0.0), (1e308, 0.0, 0.0)], "averaged over users"),
            ([(1e308, 1e308, 0.0)], "averaged over users"),
            ([(0.0, 1e-300, 1e10)], "user convexity overflows"),
        ],
        ids=["mean", "total", "convexity"],
    )
    def test_non_finite_mean_total_or_convexity_rejected(self, triples, message):
        # JSON has no infinity, and a share would be inf / inf
        with pytest.raises(TraceFormatError, match=message):
            aggregate_population(triples)

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
        base = walk_user(DAY_2012)
        scaled = UserTrace(
            base.timestamps, base.latitudes, base.longitudes,
            [rx * k for rx in base.rx_bytes],
        )
        report_a = aggregate_population([user_volumes(base)])
        report_b = aggregate_population([user_volumes(scaled)])
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
        traces, bad = read_trace_csv(path)
        assert not bad
        assert set(traces) == {"u1", "u2"}
        assert traces["u1"] == UserTrace(
            [T0, T0 + FIVE_MIN],
            array("d", [0.0, 0.001]),
            array("d", [0.0, 0.0]),
            array("d", [0.0, 1000.0]),
        )
        assert traces["u2"].timestamps == [T0]  # Z and naive both read as UTC
        assert traces["u2"].rx_bytes == array("d", [500.0])

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
        traces, bad = read_trace_csv(path, strict=False)
        assert [line for line, _ in bad] == [3]
        assert len(traces["u1"]) == 2

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
        traces, bad = read_trace_csv(path, strict=False)
        assert bad == [(3, "rx_bytes is not a number")]
        assert traces["u1"].rx_bytes == array("d", [0.0, 10.0])

    @pytest.mark.parametrize(
        "stamp", ["0001-01-01T00:00:00+01:00", "9999-12-31T23:30:00-01:00"]
    )
    def test_timestamp_beyond_utc_range_is_a_bad_row(self, tmp_path, stamp):
        path = tmp_path / "trace.csv"
        write_trace(path, [f"u1,{stamp},0.0,0.0,0\n"])
        traces, bad = read_trace_csv(path, strict=False)
        assert traces == {}
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
        traces, bad = read_trace_csv(path, strict=False)
        if bad:
            assert traces == {}
            [(line, reason)] = bad
            assert line == 2 and reason
            return
        [trace] = traces.values()
        [stamp], [lat], [lon], [rx] = (
            trace.timestamps, trace.latitudes, trace.longitudes, trace.rx_bytes
        )
        assert math.isfinite(rx) and rx >= 0.0
        assert -90.0 <= lat <= 90.0
        assert -180.0 <= lon <= 180.0
        assert stamp.utcoffset() == timedelta(0)

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
        traces, bad = read_trace_csv(path, strict=False)
        assert [line for line, _ in bad] == [3, 5]
        assert "field larger than field limit" in bad[0][1]
        assert traces["u1"].rx_bytes == array("d", [0.0, 10.0, 20.0])
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
        traces, bad = read_trace_csv(path, strict=False)
        assert [line for line, _ in bad] == [3]
        assert "not valid UTF-8" in bad[0][1]
        assert list(traces) == ["u1"]
        assert traces["u1"].rx_bytes == array("d", [0.0, 20.0])
        with pytest.raises(TraceFormatError, match="line 3: user_id .* UTF-8"):
            read_trace_csv(path, strict=True)

    @pytest.mark.parametrize("user_id", ["", " ", '"  "'])
    def test_empty_user_id_is_a_bad_row(self, tmp_path, user_id):
        path = tmp_path / "trace.csv"
        write_trace(
            path,
            [
                "u1,2015-06-01T00:00:00Z,0.0,0.0,0\n",
                f"{user_id},2015-06-01T00:05:00Z,0.0,0.0,10\n",
                "u1,2015-06-01T00:10:00Z,0.0,0.0,20\n",
            ],
        )
        traces, bad = read_trace_csv(path, strict=False)
        assert bad == [(3, "user_id is empty")]
        assert list(traces) == ["u1"]
        assert traces["u1"].rx_bytes == array("d", [0.0, 20.0])
        with pytest.raises(TraceFormatError, match="line 3: user_id is empty"):
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
        traces, bad = read_trace_csv(path, strict=False)
        assert [line for line, _ in bad] == [4]
        assert list(traces) == ["u\n2"]

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
        traces, bad = read_trace_csv(path)
        assert not bad
        assert len(traces["u1"]) == 2

    def test_offset_timestamps_normalize_to_utc(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(path, ["u1,2015-06-01T09:00:00+09:00,0.0,0.0,0\n"])
        traces, _ = read_trace_csv(path)
        assert traces["u1"].timestamps == [T0]


class TestAnalyzeTrace:
    def test_single_user_pipeline(self):
        report, segments = analyze_trace({"u1": walk_user(DAY_2012)})
        assert report.user_count == 1
        assert report.per_state_volume == pytest.approx(
            (40.63, 2.09, 4.93), rel=1e-9
        )
        assert report.user_convexity == pytest.approx(2.3588516746, abs=1e-6)
        velocities, states = segments["u1"]
        assert len(velocities) == len(states) == 4

    def test_strict_rejects_single_sample_users(self):
        data = {
            "u1": walk_user(DAY_2012),
            "u2": single_sample(),
        }
        with pytest.raises(InsufficientDataError, match="u2"):
            analyze_trace(data, strict=True)
        report, _ = analyze_trace(data, strict=False)
        assert report.user_count == 1

    def test_no_usable_users(self):
        with pytest.raises(InsufficientDataError):
            analyze_trace({"u1": single_sample()}, strict=False)

    @pytest.mark.parametrize("cutoff", [50.0, math.nan])
    def test_cutoff_checked_before_users(self, cutoff):
        # named even when no user has the two samples a segment needs
        with pytest.raises(ValueError, match="stationary_cutoff"):
            analyze_trace(
                {"u1": single_sample()}, stationary_cutoff=cutoff, strict=False
            )

    def test_all_stationary_yields_undefined_convexity(self):
        legs = [(5, 0.0, 10e6), (24 * 60, 0.0, 0.0)]
        report, _ = analyze_trace({"u1": walk_user(legs)})
        assert report.user_convexity is None
        assert report.per_state_volume[UserClass.STATIONARY] == pytest.approx(10.0)

    def test_deterministic(self):
        data = {"u1": walk_user(DAY_2012)}
        assert analyze_trace(data)[0] == analyze_trace(data)[0]

    @pytest.mark.parametrize("case", OVERFLOWING_TRACES)
    def test_non_finite_volume_refused_as_the_oracle_does(self, tmp_path, case):
        rows, name = OVERFLOWING_TRACES[case]
        path = tmp_path / "trace.csv"
        write_trace(path, rows)
        errors = []
        for read, analyze in (
            (read_trace_csv, analyze_trace),
            (reference_read_trace_csv, reference_analyze_trace),
        ):
            traces, _ = read(path)
            with pytest.raises(TraceFormatError, match=name) as info:
                analyze(traces, 0.5)
            errors.append(str(info.value))
        assert errors[0] == errors[1]

    def test_report_serialization(self):
        report, _ = analyze_trace({"u1": walk_user(DAY_2012)})
        payload = report.to_dict()
        assert payload["user_count"] == 1
        assert payload["per_state_volume_mb_per_day"]["vehicular"] == pytest.approx(
            4.93, rel=1e-9
        )
        assert payload["user_convexity"] == report.user_convexity


# Generated traces for the oracle cross-check: interleaved users on one
# clock (so stamps repeat across users), sub-second steps, the same instant
# written as Z, +00:00, naive and +09:00, users seen once, and each of the
# seven malformed-row kinds of perfbench/tracegen.py. The ids need csv
# quoting in segments.csv or, spaced at the ends, read as another id.
ORACLE_USERS = ("u0", "u1", "u 2", "u,3", 'u"4', "u\n5", "u\r6", " u1 ", " u 7 ")
STAMP_STYLES = ("Z", "+00:00", "naive", "+09:00")
MALFORMED_KINDS = 7
ORACLE_EVENTS = st.lists(
    st.tuples(
        st.integers(0, len(ORACLE_USERS) - 1),
        st.sampled_from([0.0, 0.25, 1.5, 60.0, 300.0, 3600.0]),  # seconds
        st.sampled_from([0.0, 1e-5, 2e-4, 3e-3]),  # degrees north
        st.integers(0, 10**6),  # rx bytes
        st.sampled_from(STAMP_STYLES),
        st.one_of(st.none(), st.none(), st.integers(0, MALFORMED_KINDS - 1)),
    ),
    max_size=30,
)


def styled_stamp(instant, style):
    """ISO text of a naive UTC instant in one of STAMP_STYLES."""
    if style == "+09:00":
        return (instant + timedelta(hours=9)).isoformat() + "+09:00"
    return instant.isoformat() + {"Z": "Z", "+00:00": "+00:00", "naive": ""}[style]


def malformed(row, kind):
    """The rows written for one sample: valid, or broken one of seven ways."""
    user_id, stamp, lat, lon, rx = row
    return [
        [user_id, stamp, lat, lon],
        [user_id, "2015-13-45T99:00:00Z", lat, lon, rx],
        [user_id, stamp, "91.5", lon, rx],
        [user_id, stamp, lat, "east", rx],
        [user_id, stamp, lat, lon, "-5"],
        [user_id, stamp, lat, lon, "nan"],
        row,  # written twice: the repeat is not increasing for this user
    ][kind]


def write_events(path, events):
    clocks = [datetime(2015, 6, 1)] * len(ORACLE_USERS)
    lats = [37.5] * len(ORACLE_USERS)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)  # a "\r\n" row end quotes a lone "\r" too
        writer.writerow(TRACE_HEADER.strip().split(","))
        for user, step_s, north, rx, style, kind in events:
            clocks[user] += timedelta(seconds=step_s)
            lats[user] += north
            row = [
                ORACLE_USERS[user], styled_stamp(clocks[user], style),
                repr(lats[user]), "127.0", str(rx),
            ]
            if kind == MALFORMED_KINDS - 1:
                writer.writerow(row)
            writer.writerow(row if kind is None else malformed(row, kind))


def write_reference_segments(path, segments):
    """segments.csv as csv.writer writes the oracle's per-segment rows."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(SEGMENT_COLUMNS)
        writer.writerows(reference_segment_rows(segments))


def pipeline_outcome(read, analyze, rows, path, cutoff, strict):
    """Skipped rows, report and segments.csv bytes, or the error that stopped them."""
    try:
        traces, skipped = read(path, strict=strict)
    except TraceFormatError as exc:
        return str(exc)
    try:
        report, segments = analyze(traces, cutoff, strict=strict)
    except InsufficientDataError as exc:
        return skipped, str(exc)
    return skipped, report, rows(traces, segments)


class TestColumnarMatchesOracle:
    @settings(max_examples=150)
    @given(
        events=ORACLE_EVENTS,
        cutoff=st.sampled_from([0.0, 0.5, 5.0]),
        strict=st.booleans(),
    )
    def test_same_rows_report_and_skips(self, tmp_path_factory, events, cutoff, strict):
        base = tmp_path_factory.getbasetemp()
        path = base / "oracle_trace.csv"
        write_events(path, events)

        def columnar_csv(traces, segments):
            write_segments(base / "columnar_segments.csv", traces, segments)
            return (base / "columnar_segments.csv").read_bytes()

        def oracle_csv(_, segments):
            write_reference_segments(base / "oracle_segments.csv", segments)
            return (base / "oracle_segments.csv").read_bytes()

        columnar = pipeline_outcome(
            read_trace_csv, analyze_trace, columnar_csv, path, cutoff, strict
        )
        oracle = pipeline_outcome(
            reference_read_trace_csv, reference_analyze_trace, oracle_csv,
            path, cutoff, strict,
        )
        assert columnar == oracle

    @given(
        user_ids=st.lists(
            st.text(st.characters(blacklist_categories=("Cs",)), max_size=4),
            min_size=1,
            max_size=4,
            unique=True,
        ),
        values=st.lists(
            st.floats(0.0, allow_infinity=False), min_size=4, max_size=4
        ),
    )
    def test_writer_quotes_any_id_as_csv_does(self, tmp_path_factory, user_ids, values):
        # the reader never yields an empty or space-edged id; the writer
        # still quotes one as csv.writer would
        velocity_a, velocity_b, rx_a, rx_b = values
        trace = UserTrace(
            [T0, T0 + FIVE_MIN, T0 + 2 * FIVE_MIN], [0.0] * 3, [0.0] * 3,
            [0.0, rx_a, rx_b],
        )
        states = [UserClass.WALKING, UserClass.STATIONARY]
        traces = dict.fromkeys(user_ids, trace)
        segments = dict.fromkeys(user_ids, ([velocity_a, velocity_b], states))
        path = tmp_path_factory.getbasetemp() / "any_id_segments.csv"
        write_segments(path, traces, segments)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(SEGMENT_COLUMNS)
        for user_id in user_ids:
            writer.writerow(
                (user_id, T0.isoformat(), (T0 + FIVE_MIN).isoformat(),
                 "walking", velocity_a, rx_a)
            )
            writer.writerow(
                (user_id, (T0 + FIVE_MIN).isoformat(),
                 (T0 + 2 * FIVE_MIN).isoformat(), "stationary", velocity_b, rx_b)
            )
        assert path.read_bytes() == expected.getvalue().encode("utf-8")
