"""Acquisition-timing simulator: clock math, assembly, and reports."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dexretarget.syncsim import (
    FRESH,
    HELD,
    HOLD_PERIODS,
    MAX_SECONDS,
    MISSING,
    ROLE_DROPPED,
    ROLE_MEMBER,
    ROLE_SUPERSEDED,
    ROLE_UNALIGNED,
    AlignmentReport,
    EventLog,
    StreamConfig,
    StreamSpec,
    SyncConfigError,
    WINDOW_PERIODS,
    alignment_report,
    assemble_frames,
    reference_hard_config,
    reference_soft_config,
    simulate,
)


def ideal_config(n_streams=3, rate=25.0, seed=0):
    """Zero-latency, zero-dropout trigger-locked streams."""
    period = 1.0 / rate
    streams = tuple(StreamSpec(f"s{k}", period, 0.0) for k in range(n_streams))
    return StreamConfig(streams, rate_hz=rate, mode="hard", seed=seed)


# --- simulation ---------------------------------------------------------------

def test_ideal_clock_is_exact():
    log = simulate(ideal_config(), 1.0)
    frames = assemble_frames(log)
    report = alignment_report(frames)
    assert report.frames == 25
    assert report.mean_skew_ms == 0.0
    assert report.max_skew_ms == 0.0
    assert report.missing_slots == 0 and report.held_slots == 0
    assert report.incomplete_rate == 0.0
    assert report.effective_hz == 25.0
    # every emission sits exactly on its trigger
    assert np.all(frames.status == FRESH)
    assert np.all(np.abs(frames.member_emission - frames.triggers[:, None]) <= 1e-12)
    assert np.array_equal(log.delivered, log.emission)


def test_hard_sync_skew_stays_within_latency_bound():
    log = simulate(reference_hard_config(seed=4), 40.0)
    report = alignment_report(assemble_frames(log))
    assert report.frames == 1000
    assert report.max_skew_ms <= 7.0 + 1e-9
    assert report.incomplete_rate == 0.0
    assert report.dropout_rate == 0.0


def test_soft_sync_skews_worse_than_hard():
    for seed in range(5):
        hard = alignment_report(assemble_frames(simulate(reference_hard_config(seed=seed), 20.0)))
        soft = alignment_report(assemble_frames(simulate(reference_soft_config(dropout=0.0, seed=seed), 20.0)))
        assert soft.mean_skew_ms > hard.mean_skew_ms


def test_soft_mode_adds_delivery_latency():
    log = simulate(reference_soft_config(dropout=0.0, seed=1), 5.0)
    lag = log.delivered - log.emission
    assert np.all(lag >= 0.015 - 1e-12)
    assert np.all(lag <= 0.100 + 1e-12)


def test_gauss_jitter_respects_bound():
    period = 1.0 / 25.0
    cfg = StreamConfig((StreamSpec("cam", period, 0.004, jitter="gauss"),),
                       rate_hz=25.0, seed=9)
    log = simulate(cfg, 20.0)
    offsets = log.emission - np.arange(len(log)) * period
    assert np.all(offsets >= -1e-12)
    assert np.all(offsets <= 0.004 + 1e-12)


def test_simulation_is_deterministic():
    a = simulate(reference_soft_config(seed=7), 10.0)
    b = simulate(reference_soft_config(seed=7), 10.0)
    for col in ("stream_idx", "emission", "delivered", "payload", "dropped"):
        assert np.array_equal(getattr(a, col), getattr(b, col))
    ra = alignment_report(assemble_frames(a))
    rb = alignment_report(assemble_frames(b))
    assert ra == rb


def test_dropout_rate_matches_configuration():
    # 7 streams * 25 Hz * 600 s = 105000 emitted events
    log = simulate(reference_soft_config(dropout=0.044, seed=0), 600.0)
    assert len(log) >= 100_000
    assert abs(log.dropout_rate() - 0.044) < 0.003


# --- frame assembly -----------------------------------------------------------

def test_dropped_event_is_held_for_one_period():
    period = 1.0 / 25.0
    cfg = ideal_config(n_streams=4)
    log = simulate(cfg, 1.0)
    # lose stream 2's sample at trigger 10: consumers should reuse frame 9's
    k = np.nonzero((log.stream_idx == 2)
                   & (np.abs(log.emission - 10 * period) < 1e-9))[0]
    assert k.size == 1
    dropped = log.dropped.copy()
    dropped[k[0]] = True
    relog = EventLog(log.config, log.duration, log.stream_idx, log.emission,
                     log.delivered, log.payload, dropped)
    frames = assemble_frames(relog)
    assert frames.status[10, 2] == HELD
    assert frames.age[10, 2] == pytest.approx(period, abs=1e-12)
    assert frames.member_emission[10, 2] == pytest.approx(9 * period, abs=1e-12)
    assert frames.complete[10]                # held is stale, not missing
    assert frames.skew[10] == 0.0             # skew counts fresh members only
    assert frames.status[11, 2] == FRESH
    report = alignment_report(frames)
    assert report.held_slots == 1
    assert report.missing_slots == 0


def test_stream_with_every_event_dropped_is_missing_in_every_frame():
    period = 1.0 / 25.0
    cfg = StreamConfig((StreamSpec("cam", period, 0.0), StreamSpec("lost", period, 0.0, dropout=1.0)))
    log = simulate(cfg, 1.0)
    assert log.dropped[log.stream_idx == 1].all()
    frames = assemble_frames(log)
    assert np.all(frames.status[:, 0] == FRESH) and np.all(frames.status[:, 1] == MISSING)
    assert not frames.complete.any()


def test_every_event_gets_exactly_one_role():
    log = simulate(reference_soft_config(dropout=0.1, seed=3), 30.0)
    frames = assemble_frames(log)
    roles = frames.event_role
    assert roles.size == len(log)
    assert set(np.unique(roles)) <= {ROLE_DROPPED, ROLE_MEMBER,
                                     ROLE_SUPERSEDED, ROLE_UNALIGNED}
    # dropped events keep the dropped role, live events never get it
    assert np.array_equal(roles == ROLE_DROPPED, log.dropped)
    # each fresh member slot is backed by exactly one member event
    assert int((roles == ROLE_MEMBER).sum()) == int((frames.status == FRESH).sum())


def test_held_ages_never_exceed_hold_limit():
    log = simulate(reference_soft_config(dropout=0.2, seed=5), 30.0)
    frames = assemble_frames(log)
    held_ages = frames.age[frames.status == HELD]
    assert held_ages.size > 0
    assert np.all(held_ages <= HOLD_PERIODS / log.config.rate_hz + 1e-9)
    # anything older than the hold limit must have become missing instead
    assert int((frames.status == MISSING).sum()) == alignment_report(frames).missing_slots


def test_member_events_fall_inside_window():
    log = simulate(reference_soft_config(dropout=0.0, seed=2), 20.0)
    frames = assemble_frames(log)
    fresh = frames.status == FRESH
    gaps = np.abs(frames.member_emission - frames.triggers[:, None])
    assert np.all(gaps[fresh] <= WINDOW_PERIODS / log.config.rate_hz + 1e-9)


@st.composite
def busy_runs(draw):
    """A seeded run in either mode with a stream faster than the frame
    clock: every latency bound exceeds its stream's period, so a stream's
    emissions leave its trigger order, and dropout leaves frames to hold
    or to miss."""
    rate = draw(st.sampled_from([10.0, 25.0, 30.0]))

    def spec(name, low, high):  # a period of low..high frame periods
        period = draw(st.floats(low, high)) / rate
        return StreamSpec(name, period, draw(st.floats(1.0, 3.0, exclude_min=True)) * period,
                          jitter=draw(st.sampled_from(["uniform", "gauss"])),
                          dropout=draw(st.floats(0.0, 0.5)))

    streams = (spec("fast", 0.2, 0.9),) + tuple(spec(f"s{k}", 0.5, 2.0)
                                                for k in range(draw(st.integers(0, 2))))
    config = StreamConfig(streams, rate_hz=rate, mode=draw(st.sampled_from(["hard", "soft"])),
                          seed=draw(st.integers(0, 2 ** 31 - 1)))
    return simulate(config, draw(st.floats(0.3, 3.0)))


@settings(max_examples=40, deadline=None)
@given(busy_runs())
def test_newest_candidate_is_fresh_and_holds_follow_the_rules(log):
    frames = assemble_frames(log)
    period, triggers = 1.0 / log.config.rate_hz, frames.triggers
    for s in range(len(log.config.streams)):
        live = np.flatnonzero((log.stream_idx == s) & ~log.dropped)
        em, roles = log.emission[live], frames.event_role[live]
        # the frame of the nearest trigger; an emission halfway between two
        # triggers (a gauss latency clipped to 0 can put one there) goes to
        # the even one, as np.rint rounds
        nearest = np.minimum(np.rint(em * log.config.rate_hz), len(frames) - 1).astype(int)
        cand = np.abs(em - triggers[nearest]) <= WINDOW_PERIODS * period + 1e-9
        assert np.all(roles[~cand] == ROLE_UNALIGNED)
        for f, trigger in enumerate(triggers):
            status, member = frames.status[f, s], frames.member_emission[f, s]
            mine = np.flatnonzero(cand & (nearest == f))
            if mine.size:
                # the latest-emitted candidate is the member; each other is
                # superseded by it
                assert status == FRESH and frames.age[f, s] == 0.0
                assert member == em[mine].max()
                won = mine[roles[mine] == ROLE_MEMBER]
                assert won.size == 1 and em[won[0]] == member
                assert np.all(roles[mine[mine != won[0]]] == ROLE_SUPERSEDED)
                continue
            earlier = em[em <= trigger + 1e-9]
            if earlier.size and trigger - earlier.max() <= HOLD_PERIODS * period + 1e-9:
                assert status == HELD and member == earlier.max()
                assert frames.age[f, s] == trigger - member
            else:
                assert status == MISSING and np.isnan(member)


# --- reports ------------------------------------------------------------------

def test_report_accounts_every_slot():
    log = simulate(reference_soft_config(dropout=0.08, seed=6), 40.0)
    frames = assemble_frames(log)
    report = alignment_report(frames)
    slots = report.frames * len(log.config.streams)
    assert report.fresh_slots + report.held_slots + report.missing_slots == slots
    assert report.dropout_rate == pytest.approx(
        (report.held_slots + report.missing_slots) / slots)
    assert isinstance(report, AlignmentReport)


def test_report_effective_rate_counts_complete_frames():
    log = simulate(reference_soft_config(dropout=0.3, seed=8), 20.0)
    frames = assemble_frames(log)
    report = alignment_report(frames)
    assert report.effective_hz == pytest.approx(
        int(frames.complete.sum()) / 20.0)
    assert report.incomplete_rate == pytest.approx(
        1.0 - int(frames.complete.sum()) / report.frames)


# --- validation ---------------------------------------------------------------

def test_config_validation_errors():
    period = 1.0 / 25.0
    good = StreamSpec("cam", period, 0.002)
    cases = [
        (lambda: StreamConfig(()), "at least one stream"),
        (lambda: StreamConfig((good, good)), "unique"),
        (lambda: StreamConfig((StreamSpec("cam", 0.0, 0.002),)), "period"),
        (lambda: StreamConfig((StreamSpec("cam", period, -0.1),)), "latency"),
        (lambda: StreamConfig((StreamSpec("cam", period, 0.002, jitter="cauchy"),)), "jitter"),
        (lambda: StreamConfig((StreamSpec("cam", period, 0.002, dropout=1.5),)), "dropout"),
        (lambda: StreamConfig((good,), rate_hz=0.0), "rate_hz"),
        (lambda: StreamConfig((good,), mode="loose"), "mode"),
        (lambda: StreamConfig((good,), soft_latency=(0.2, 0.1)), "soft_latency"),
        (lambda: StreamConfig((StreamSpec("cam", float("nan"), 0.002),)), "period"),
        (lambda: StreamConfig((StreamSpec("cam", "x"),)), "period must be in .*, got 'x'"),
        (lambda: StreamConfig((good,), rate_hz=float("nan")), "rate_hz"),
        (lambda: StreamConfig((good,), seed=-1), "seed"),
        (lambda: StreamConfig((StreamSpec("cam", float("inf"), 0.002),)), "period"),
        (lambda: StreamConfig((StreamSpec("cam", period, float("nan")),)), "latency_bound"),
        (lambda: StreamConfig((StreamSpec("cam", period, float("inf")),)), "latency_bound"),
        (lambda: StreamConfig((StreamSpec("cam", period, float("nan"), jitter="gauss"),)),
         "latency_bound"),
        (lambda: StreamConfig((good,), rate_hz=float("inf")), "rate_hz"),
        (lambda: StreamConfig((good,), soft_latency=(0.015, float("inf"))), "soft_latency"),
        (lambda: StreamConfig((good,), soft_latency=(float("nan"), 0.1)), "soft_latency"),
        (lambda: StreamConfig((good,), soft_latency=(0.015, float("nan"))), "soft_latency"),
        (lambda: StreamConfig((StreamSpec("cam", 2 * MAX_SECONDS, 0.002),)),
         re.escape("period must be in (0, 1e+06] s")),
        (lambda: StreamConfig((StreamSpec("cam", period, 1e308),)),
         re.escape("latency_bound must be in [0, 1e+06] s")),
        (lambda: StreamConfig((good,), seed=1.5), "seed must be an integer >= 0, got 1.5"),
        (lambda: StreamConfig((good,), seed=True), "seed must be an integer >= 0, got True"),
        (lambda: StreamConfig((good,), soft_latency=(0.015, 2 * MAX_SECONDS)), "soft_latency"),
    ] + [(lambda name=name: StreamConfig((StreamSpec(name, period, 0.002),)), "name must be one word")
         for name in ("", "cam 1", " cam", "cam\t", "t:x")]
    for build, needle in cases:
        with pytest.raises(SyncConfigError, match=needle):
            build()
    assert StreamConfig((good,), seed=np.int64(3)).seed == 3  # numpy's integers are integers


def test_runtime_validation_errors():
    cfg = ideal_config()
    for duration in (0.0, float("nan"), float("inf"), 2 * MAX_SECONDS):
        with pytest.raises(SyncConfigError, match="duration"):
            simulate(cfg, duration)
    with pytest.raises(SyncConfigError, match="duration too short for a single frame"):
        assemble_frames(simulate(cfg, 1e-12))  # ends before the first trigger
    # 10 s runs past MAX_ROWS: a count past the float range, 3 x 1e7 events, 1e7 frames
    for period, rate, needle in [(1e-308, 25.0, "emit more than 4194304 events"),
                                 (1e-6, 25.0, "emit more than 4194304 events"),
                                 (0.04, 1e308, "hold more than 4194304 frames"),
                                 (0.04, 1e6, "hold more than 4194304 frames")]:
        big = StreamConfig(tuple(StreamSpec(f"s{k}", period, 0.0) for k in range(3)), rate_hz=rate)
        with pytest.raises(SyncConfigError, match=needle):
            assemble_frames(simulate(big, 10.0))


def test_emission_far_past_the_run_end_is_unaligned():
    # 1e6 frames of 1e-14 s; the one event is emitted up to 1e6 s later, so
    # emission * rate passes the int64 range
    cfg = StreamConfig((StreamSpec("cam", 1e-8, MAX_SECONDS),), rate_hz=1e14, seed=2)
    log = simulate(cfg, 1e-8)
    assert len(log) == 1 and log.emission[0] * cfg.rate_hz > 2.0 ** 63
    frames = assemble_frames(log)
    assert len(frames) == 1_000_000
    assert frames.event_role.tolist() == [ROLE_UNALIGNED]
    assert np.all(frames.status == MISSING)

