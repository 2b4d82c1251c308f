"""Discrete-event simulation of multi-sensor acquisition timing.

Two regimes: ``hard`` drives every stream from a shared trigger clock, so
per-frame spread comes only from each stream's bounded trigger-to-sample
latency; ``soft`` lets each stream free-run with a random phase and adds
15-100 ms delivery latency, the usual loosely-coupled baseline.  All times
are seconds; reports convert to milliseconds.  Everything is seeded and
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schema import POSITIVE, SEED, Kind, require

FRESH, HELD, MISSING = 0, 1, 2
STATUS_NAMES = ("fresh", "held", "missing")  # indexed by the codes above
# per-event roles after assembly, for conservation accounting
ROLE_DROPPED, ROLE_MEMBER, ROLE_SUPERSEDED, ROLE_UNALIGNED = 0, 1, 2, 3
# frame assembly, in frame periods: an event is a frame's candidate within
# WINDOW_PERIODS of its trigger, and a frame holds an event at most HOLD_PERIODS old
WINDOW_PERIODS, HOLD_PERIODS = 0.5, 2.0
DEFAULT_DURATION = 10.0  # seconds a run simulates when its config names no duration

_EPS = 1e-9
# every time of a run, in seconds, is at most this (about 11.6 days): past it
# the float spacing of a time nears the 1 ns tolerance _EPS
MAX_SECONDS = 1e6
SECONDS = Kind(f"in (0, {MAX_SECONDS:g}] s", lambda v: 0.0 < v <= MAX_SECONDS)
_LATENCY = Kind(f"in [0, {MAX_SECONDS:g}] s", lambda v: 0.0 <= v <= MAX_SECONDS)
# a run holds at most this many events and this many frames: each is kept in
# memory several times over and written as one line
MAX_ROWS = 1 << 22


class SyncConfigError(Exception):
    """A stream configuration is invalid."""


@dataclass(frozen=True)
class StreamSpec:
    """One sensor stream: nominal period, latency bound, jitter, dropout."""

    name: str
    period: float
    latency_bound: float = 0.0
    jitter: str = "uniform"   # or "gauss": normal(bound/2, s.d. bound/4) clipped to [0, bound]
    dropout: float = 0.0


@dataclass(frozen=True)
class StreamConfig:
    """Full acquisition setup: streams, frame clock, regime, seed."""

    streams: tuple[StreamSpec, ...]
    rate_hz: float = 25.0
    mode: str = "hard"
    soft_latency: tuple[float, float] = (0.015, 0.100)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "rate_hz", float(self.rate_hz))
        object.__setattr__(self, "soft_latency", tuple(map(float, self.soft_latency)))
        if not self.streams:
            raise SyncConfigError("at least one stream is required")
        names = [s.name for s in self.streams]
        if len(set(names)) != len(names):
            raise SyncConfigError(f"stream names must be unique, got {names}")
        for s in self.streams:
            if s.name.split() != [s.name] or ":" in s.name:  # written as one field
                raise SyncConfigError(f"stream {s.name!r}: name must be one word without ':'")
            require(SECONDS, f"stream {s.name!r}: period", s.period, SyncConfigError)
            require(_LATENCY, f"stream {s.name!r}: latency_bound", s.latency_bound, SyncConfigError)
            if s.jitter not in ("uniform", "gauss"):
                raise SyncConfigError(f"stream {s.name!r}: unknown jitter {s.jitter!r}")
            if not 0.0 <= s.dropout <= 1.0:
                raise SyncConfigError(f"stream {s.name!r}: dropout must be in [0, 1]")
        require(POSITIVE, "rate_hz", self.rate_hz, SyncConfigError)
        if self.mode not in ("hard", "soft"):
            raise SyncConfigError(f"mode must be 'hard' or 'soft', got {self.mode!r}")
        lo, hi = self.soft_latency
        if not (_LATENCY.test(lo) and _LATENCY.test(hi) and lo <= hi):
            raise SyncConfigError(f"soft_latency must be lo <= hi, each {_LATENCY.what}, "
                                  f"got {self.soft_latency}")
        require(SEED, "seed", self.seed, SyncConfigError)


def reference_hard_config(dropout=0.0, seed=0):
    """Trigger-synchronized setup: camera within 2 ms of the trigger, taxel
    scans within 7 ms, proprioception within 1 ms, all at 25 Hz."""
    period = 1.0 / 25.0
    streams = [StreamSpec("camera", period, 0.002, dropout=dropout)]
    streams += [StreamSpec(f"tactile_{i}", period, 0.007, dropout=dropout) for i in range(5)]
    streams += [StreamSpec("proprio", period, 0.001, dropout=dropout)]
    return StreamConfig(tuple(streams), rate_hz=25.0, mode="hard", seed=seed)


def reference_soft_config(dropout=0.044, seed=0):
    """Free-running baseline: same sensors, random phases, 15-100 ms
    delivery latency, lossy transport."""
    hard = reference_hard_config(dropout=dropout, seed=seed)
    return StreamConfig(hard.streams, rate_hz=25.0, mode="soft",
                        soft_latency=(0.015, 0.100), seed=seed)


class EventLog:
    """Columnar, emission-ordered record of every simulated event."""

    def __init__(self, config, duration, stream_idx, emission, delivered, payload, dropped):
        order = np.lexsort((stream_idx, emission))
        self.config = config
        self.duration = float(duration)
        self.stream_idx = stream_idx[order]
        self.emission = emission[order]
        self.delivered = delivered[order]
        self.payload = payload[order]
        self.dropped = dropped[order]

    @property
    def stream_names(self):
        return tuple(s.name for s in self.config.streams)

    def __len__(self):
        return self.emission.size

    def dropout_rate(self):
        """Fraction of emitted events lost in transport."""
        return float(self.dropped.mean()) if len(self) else 0.0


def _count_in(duration, period, phase=0.0):
    """Ticks of a clock in [phase, duration), capped at MAX_ROWS + 1 so that a
    count past the float range is still an integer."""
    return int(np.clip(np.ceil((duration - phase) / period - _EPS), 0, MAX_ROWS + 1))


def _latency(rng, spec, n):
    if spec.latency_bound == 0.0:
        return np.zeros(n)
    if spec.jitter == "uniform":
        return rng.uniform(0.0, spec.latency_bound, n)
    draw = rng.normal(0.5 * spec.latency_bound, 0.25 * spec.latency_bound, n)
    return np.clip(draw, 0.0, spec.latency_bound)


def simulate(config, duration):
    """Run the acquisition clocks for ``duration`` seconds.

    Returns:
        EventLog covering emissions in [0, duration).  Identical config and
        duration always reproduce the same log.
    """
    require(SECONDS, "duration", duration, SyncConfigError)
    rng = np.random.default_rng(config.seed)
    cols = []  # per stream: stream index, emission, delivery, payload, dropped
    events = 0
    for s_idx, spec in enumerate(config.streams):
        phase = 0.0 if config.mode == "hard" else rng.uniform(0.0, spec.period)
        n = _count_in(duration, spec.period, phase)
        events += n
        if events > MAX_ROWS:
            raise SyncConfigError(f"the run would emit more than {MAX_ROWS} events")
        emission = phase + np.arange(n) * spec.period + _latency(rng, spec, n)
        if config.mode == "hard":
            delivered = emission.copy()
        else:
            lo, hi = config.soft_latency
            delivered = emission + rng.uniform(lo, hi, n)
        dropped = rng.random(n) < spec.dropout
        cols.append((np.full(n, s_idx, dtype=np.int32), emission, delivered,
                     np.arange(n, dtype=np.int64), dropped))
    return EventLog(config, duration, *map(np.concatenate, zip(*cols)))


@dataclass
class FrameSet:
    """Assembled frames in columnar form: one row per frame, one column per
    stream, with member status coded FRESH/HELD/MISSING."""

    log: EventLog
    triggers: np.ndarray            # (F,) seconds
    member_emission: np.ndarray     # (F, S) seconds, nan when missing
    status: np.ndarray              # (F, S) int8
    age: np.ndarray                 # (F, S) seconds, nan when missing
    skew: np.ndarray                # (F,) seconds
    complete: np.ndarray            # (F,) bool
    event_role: np.ndarray          # (N,) int8 over the log

    def __len__(self):
        return self.triggers.size

    @property
    def stream_names(self):
        return self.log.stream_names


def assemble_frames(log):
    """Group events into frames on the consumer's frame clock.

    A live event is a candidate for the frame whose trigger is nearest its
    emission when it lies within ``WINDOW_PERIODS`` frame periods of that
    trigger; the newest candidate is the frame's fresh member and the rest
    are superseded.  An emission exactly halfway between two triggers joins
    the frame ``np.rint(emission * rate_hz)`` picks, rounding half to even on
    the product as computed.  A frame without a fresh member from a stream
    holds the stream's newest earlier live event if it is at most
    ``HOLD_PERIODS`` periods old, else the member is missing.  Frame skew is
    max minus min emission over fresh members only; staleness of held
    members is tracked separately as age.

    Returns:
        FrameSet; every non-dropped event is a member of exactly one frame
        or carries a discard role (superseded/unaligned).
    """
    rate = log.config.rate_hz
    period = 1.0 / rate
    n_frames = _count_in(log.duration, period)
    if n_frames == 0:
        raise SyncConfigError("duration too short for a single frame")
    if n_frames > MAX_ROWS:
        raise SyncConfigError(f"the run would hold more than {MAX_ROWS} frames")
    triggers = np.arange(n_frames) * period
    n_streams = len(log.config.streams)

    member_emission = np.full((n_frames, n_streams), np.nan)
    status = np.full((n_frames, n_streams), MISSING, dtype=np.int8)
    age = np.full((n_frames, n_streams), np.nan)
    event_role = np.full(len(log), ROLE_UNALIGNED, dtype=np.int8)
    event_role[log.dropped] = ROLE_DROPPED

    for s in range(n_streams):
        live = np.nonzero((log.stream_idx == s) & ~log.dropped)[0]
        if live.size == 0:
            continue
        em = log.emission[live]  # ascending: the log is emission-ordered
        # an emission past the run's end has the last frame nearest either way
        nearest = np.clip(np.rint(np.minimum(em, log.duration) * rate).astype(np.int64),
                          0, n_frames - 1)
        cand = np.flatnonzero(np.abs(em - triggers[nearest]) <= WINDOW_PERIODS * period + _EPS)
        if cand.size:
            # em ascends, and so does its nearest frame: the newest candidate
            # of a frame is the last of its run of equal nearest frames
            frames_c = nearest[cand]
            last = np.append(frames_c[1:] != frames_c[:-1], True)
            winners, won = cand[last], frames_c[last]
            member_emission[won, s] = em[winners]
            status[won, s] = FRESH
            age[won, s] = 0.0
            event_role[live[cand]] = ROLE_SUPERSEDED
            event_role[live[winners]] = ROLE_MEMBER
        # hold-last fill for frames without a fresh member
        open_frames = np.flatnonzero(status[:, s] != FRESH)
        pos = np.searchsorted(em, triggers[open_frames] + _EPS, side="right") - 1
        rows, prev = open_frames[pos >= 0], pos[pos >= 0]
        hold_age = triggers[rows] - em[prev]
        ok = hold_age <= HOLD_PERIODS * period + _EPS
        rows, prev, hold_age = rows[ok], prev[ok], hold_age[ok]
        member_emission[rows, s] = em[prev]
        status[rows, s] = HELD
        age[rows, s] = hold_age

    fresh = status == FRESH
    lo = np.where(fresh, member_emission, np.inf).min(axis=1)
    hi = np.where(fresh, member_emission, -np.inf).max(axis=1)
    skew = np.where(fresh.sum(axis=1) >= 2, hi - lo, 0.0)
    complete = ~np.any(status == MISSING, axis=1)
    return FrameSet(log, triggers, member_emission, status, age, skew, complete, event_role)


@dataclass(frozen=True)
class AlignmentReport:
    """Timing quality summary over an assembled frame set."""

    frames: int
    mean_skew_ms: float
    max_skew_ms: float
    dropout_rate: float      # member slots not served by a fresh event
    incomplete_rate: float   # frames with at least one missing member
    effective_hz: float      # complete frames per simulated second
    fresh_slots: int
    held_slots: int
    missing_slots: int


def alignment_report(frames):
    """Summarize skew, dropout, and completeness for a FrameSet."""
    if len(frames) == 0:
        raise SyncConfigError("cannot report on an empty frame set")
    status = frames.status
    total = status.size
    fresh = int((status == FRESH).sum())
    held = int((status == HELD).sum())
    missing = int((status == MISSING).sum())
    return AlignmentReport(
        frames=len(frames),
        mean_skew_ms=float(frames.skew.mean() * 1e3),
        max_skew_ms=float(frames.skew.max() * 1e3),
        dropout_rate=(held + missing) / total,
        incomplete_rate=float((~frames.complete).mean()),
        effective_hz=float(frames.complete.sum() / frames.log.duration),
        fresh_slots=fresh,
        held_slots=held,
        missing_slots=missing,
    )
