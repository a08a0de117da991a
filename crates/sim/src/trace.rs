//! The complete binary record of a simulated run, and its replay.
//!
//! [`Trace`] — enabled by [`SimulationBuilder::record_trace`] — is the
//! **complete** event sequence of a run in a compact binary encoding
//! (varint-delta times, one tag byte per event — a few bytes per event).
//! It is how you debug a surprising run: *who stepped when, which timers
//! fired, when did the crash land* — the raw material of the paper's run
//! diagrams (Figures 3 and 4 are exactly such traces), read off
//! [`Trace::events`]. A recorded trace can be written to a file and fed
//! back through [`SimulationBuilder::run_replay`], which re-executes the
//! exact same event sequence against freshly built actors without
//! consulting the adversary or timer models; because actors are
//! deterministic, the replayed run is byte-identical to the live one. The
//! trace carries a free-form `meta` string so a file can embed the
//! scenario spec that produced it and be replayed self-contained.
//!
//! [`SimulationBuilder::record_trace`]: crate::SimulationBuilder::record_trace
//! [`SimulationBuilder::run_replay`]: crate::SimulationBuilder::run_replay

use std::fmt;

use omega_registers::ProcessId;

use crate::event::EventKind;
use crate::time::SimTime;

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// When the event fired.
    pub time: SimTime,
    /// What fired.
    pub kind: EventKind,
}

/// Magic prefix of the binary trace format.
const TRACE_MAGIC: &[u8; 4] = b"OMTR";
/// Current version of the binary trace format.
const TRACE_VERSION: u8 = 1;

/// Per-event tag bytes of the binary encoding.
const TAG_STEP: u8 = 0;
const TAG_TIMER: u8 = 1;
const TAG_CRASH: u8 = 2;
const TAG_SAMPLE: u8 = 3;
const TAG_CHAOS_START: u8 = 4;
const TAG_CHAOS_END: u8 = 5;

/// A decoding failure: the bytes are not a well-formed trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError(String);

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace decode error: {}", self.0)
    }
}

impl std::error::Error for TraceError {}

fn err(msg: impl Into<String>) -> TraceError {
    TraceError(msg.into())
}

/// Appends `value` as a LEB128 varint.
fn push_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a LEB128 varint, advancing `pos`.
fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, TraceError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = bytes.get(*pos).ok_or_else(|| err("truncated varint"))?;
        *pos += 1;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err(err("varint overflows u64"));
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

/// The complete event sequence of one simulated run, in processing order —
/// the unit of record/replay.
///
/// Every event the live loop pops (including events it then filters as
/// stale or crashed — the filter is part of the deterministic semantics
/// and re-applies identically on replay) is appended via
/// [`record`](Trace::record). [`encode`](Trace::encode) /
/// [`decode`](Trace::decode) round-trip the whole trace through the
/// compact binary format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Number of processes in the recorded system.
    pub n: usize,
    /// Horizon of the recorded run, in ticks.
    pub horizon: u64,
    /// Free-form metadata — by convention the spec text of the scenario
    /// that produced the run, so a trace file is replayable on its own.
    pub meta: String,
    events: Vec<TraceEntry>,
}

impl Trace {
    /// An empty trace for an `n`-process run over `horizon` ticks.
    #[must_use]
    pub fn new(n: usize, horizon: u64) -> Self {
        Trace {
            n,
            horizon,
            meta: String::new(),
            events: Vec::new(),
        }
    }

    /// Appends one processed event. Times must be non-decreasing (the
    /// simulator pops in time order; the encoder stores deltas).
    pub fn record(&mut self, time: SimTime, kind: EventKind) {
        debug_assert!(
            self.events.last().is_none_or(|e| e.time <= time),
            "trace times must be non-decreasing"
        );
        self.events.push(TraceEntry { time, kind });
    }

    /// The recorded events, in processing order.
    #[must_use]
    pub fn events(&self) -> &[TraceEntry] {
        &self.events
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Encodes the trace into the compact binary format: magic + version,
    /// varint header fields, the meta string, then one tag byte and
    /// varint-encoded delta time (plus pid/epoch where applicable) per
    /// event — typically 2–4 bytes each.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + self.meta.len() + self.events.len() * 3);
        out.extend_from_slice(TRACE_MAGIC);
        out.push(TRACE_VERSION);
        push_varint(&mut out, self.n as u64);
        push_varint(&mut out, self.horizon);
        push_varint(&mut out, self.meta.len() as u64);
        out.extend_from_slice(self.meta.as_bytes());
        push_varint(&mut out, self.events.len() as u64);
        let mut prev = 0u64;
        for e in &self.events {
            let ticks = e.time.ticks();
            let delta = ticks - prev;
            prev = ticks;
            match e.kind {
                EventKind::Step(pid) => {
                    out.push(TAG_STEP);
                    push_varint(&mut out, delta);
                    push_varint(&mut out, pid.index() as u64);
                }
                EventKind::TimerExpire(pid, epoch) => {
                    out.push(TAG_TIMER);
                    push_varint(&mut out, delta);
                    push_varint(&mut out, pid.index() as u64);
                    push_varint(&mut out, epoch);
                }
                EventKind::Crash(pid) => {
                    out.push(TAG_CRASH);
                    push_varint(&mut out, delta);
                    push_varint(&mut out, pid.index() as u64);
                }
                EventKind::Sample => {
                    out.push(TAG_SAMPLE);
                    push_varint(&mut out, delta);
                }
                EventKind::ChaosStart(phase) => {
                    out.push(TAG_CHAOS_START);
                    push_varint(&mut out, delta);
                    push_varint(&mut out, u64::from(phase));
                }
                EventKind::ChaosEnd(phase) => {
                    out.push(TAG_CHAOS_END);
                    push_varint(&mut out, delta);
                    push_varint(&mut out, u64::from(phase));
                }
            }
        }
        out
    }

    /// Decodes a trace previously produced by [`encode`](Trace::encode).
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] when the bytes are truncated, carry the
    /// wrong magic/version, contain an unknown event tag, or name a
    /// process that is not one of the header's `n` (the error gives the
    /// byte offset of the pid): a trace that decodes replays without
    /// indexing past its system.
    pub fn decode(bytes: &[u8]) -> Result<Trace, TraceError> {
        if bytes.len() < 5 || &bytes[..4] != TRACE_MAGIC {
            return Err(err("missing OMTR magic"));
        }
        if bytes[4] != TRACE_VERSION {
            return Err(err(format!(
                "unsupported trace version {} (expected {TRACE_VERSION})",
                bytes[4]
            )));
        }
        let mut pos = 5;
        let n = read_varint(bytes, &mut pos)? as usize;
        let horizon = read_varint(bytes, &mut pos)?;
        let meta_len = read_varint(bytes, &mut pos)? as usize;
        let meta_end = pos
            .checked_add(meta_len)
            .filter(|&end| end <= bytes.len())
            .ok_or_else(|| err("truncated meta string"))?;
        let meta = std::str::from_utf8(&bytes[pos..meta_end])
            .map_err(|_| err("meta string is not UTF-8"))?
            .to_string();
        pos = meta_end;
        let read_pid = |pos: &mut usize| {
            let at = *pos;
            let pid = read_varint(bytes, pos)?;
            usize::try_from(pid)
                .ok()
                .filter(|&index| index < n && u32::try_from(index).is_ok())
                .map(ProcessId::new)
                .ok_or_else(|| {
                    err(format!(
                        "pid {pid} at byte {at} is not a process of n = {n}"
                    ))
                })
        };
        let count = read_varint(bytes, &mut pos)? as usize;
        let mut events = Vec::with_capacity(count.min(1 << 20));
        let mut now = 0u64;
        for _ in 0..count {
            let &tag = bytes.get(pos).ok_or_else(|| err("truncated event tag"))?;
            pos += 1;
            let delta = read_varint(bytes, &mut pos)?;
            now = now
                .checked_add(delta)
                .ok_or_else(|| err("time overflows u64"))?;
            let kind = match tag {
                TAG_STEP => EventKind::Step(read_pid(&mut pos)?),
                TAG_TIMER => {
                    let pid = read_pid(&mut pos)?;
                    let epoch = read_varint(bytes, &mut pos)?;
                    EventKind::TimerExpire(pid, epoch)
                }
                TAG_CRASH => EventKind::Crash(read_pid(&mut pos)?),
                TAG_SAMPLE => EventKind::Sample,
                TAG_CHAOS_START => {
                    let phase = u32::try_from(read_varint(bytes, &mut pos)?)
                        .map_err(|_| err("chaos phase index overflows u32"))?;
                    EventKind::ChaosStart(phase)
                }
                TAG_CHAOS_END => {
                    let phase = u32::try_from(read_varint(bytes, &mut pos)?)
                        .map_err(|_| err("chaos phase index overflows u32"))?;
                    EventKind::ChaosEnd(phase)
                }
                other => return Err(err(format!("unknown event tag {other}"))),
            };
            events.push(TraceEntry {
                time: SimTime::from_ticks(now),
                kind,
            });
        }
        if pos != bytes.len() {
            return Err(err("trailing bytes after the last event"));
        }
        Ok(Trace {
            n,
            horizon,
            meta,
            events,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn at(t: u64) -> SimTime {
        SimTime::from_ticks(t)
    }

    #[test]
    fn records_in_order() {
        let mut trace = Trace::new(2, 10);
        assert!(trace.is_empty());
        trace.record(at(1), EventKind::Step(p(0)));
        trace.record(at(2), EventKind::TimerExpire(p(1), 0));
        trace.record(at(3), EventKind::Crash(p(0)));
        assert_eq!(trace.len(), 3);
        assert!(!trace.is_empty());
        let times: Vec<u64> = trace.events().iter().map(|e| e.time.ticks()).collect();
        assert_eq!(times, vec![1, 2, 3]);
    }

    #[test]
    fn varints_round_trip() {
        for value in [0u64, 1, 127, 128, 300, 1 << 20, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            push_varint(&mut buf, value);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), value);
            assert_eq!(pos, buf.len());
        }
        let mut pos = 0;
        assert!(read_varint(&[0x80, 0x80], &mut pos).is_err(), "truncated");
        let mut pos = 0;
        let overflow = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f];
        assert!(read_varint(&overflow, &mut pos).is_err(), "overflow");
    }

    #[test]
    fn binary_trace_round_trips() {
        let mut trace = Trace::new(3, 10_000);
        trace.meta = "scenario x\nvariant alg1\nn 3\n".to_string();
        trace.record(at(1), EventKind::Step(p(0)));
        trace.record(at(1), EventKind::Sample);
        trace.record(at(5), EventKind::TimerExpire(p(2), 7));
        trace.record(at(9_999), EventKind::Crash(p(1)));
        let bytes = trace.encode();
        let decoded = Trace::decode(&bytes).unwrap();
        assert_eq!(decoded, trace);
        assert_eq!(decoded.len(), 4);
        assert_eq!(decoded.meta, trace.meta);
    }

    #[test]
    fn chaos_events_round_trip() {
        let mut trace = Trace::new(5, 50_000);
        trace.record(at(10), EventKind::ChaosStart(0));
        trace.record(at(10), EventKind::Step(p(3)));
        trace.record(at(400), EventKind::ChaosEnd(0));
        trace.record(at(500), EventKind::ChaosStart(300));
        let decoded = Trace::decode(&trace.encode()).unwrap();
        assert_eq!(decoded, trace);
    }

    #[test]
    fn binary_encoding_is_compact() {
        // Dense step/timer traffic (small deltas, small pids) must cost a
        // few bytes per event, not a fixed-width record.
        let mut trace = Trace::new(4, 100_000);
        for t in 0..10_000u64 {
            trace.record(at(t), EventKind::Step(p((t % 4) as usize)));
        }
        let bytes = trace.encode();
        let per_event = bytes.len() as f64 / trace.len() as f64;
        assert!(per_event < 4.0, "{per_event} bytes/event");
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Trace::decode(b"").is_err());
        assert!(Trace::decode(b"NOPE\x01\x02\x00\x00\x00").is_err());
        let mut ok = Trace::new(2, 100);
        ok.record(at(3), EventKind::Sample);
        let bytes = ok.encode();
        // Wrong version.
        let mut wrong = bytes.clone();
        wrong[4] = 99;
        assert!(Trace::decode(&wrong).is_err());
        // Truncation anywhere must fail, never panic.
        for cut in 0..bytes.len() {
            assert!(Trace::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing junk is rejected too.
        let mut long = bytes.clone();
        long.push(0);
        assert!(Trace::decode(&long).is_err());
    }

    #[test]
    fn decode_refuses_a_pid_outside_the_system_at_its_offset() {
        let mut trace = Trace::new(3, 100);
        trace.record(at(1), EventKind::Step(p(2)));
        let bytes = trace.encode();
        // The last byte is the step's pid; the header's n is 3.
        let at_pid = bytes.len() - 1;
        for pid in [3u64, 1 << 32, u64::MAX] {
            let mut bad = bytes[..at_pid].to_vec();
            push_varint(&mut bad, pid);
            let error = Trace::decode(&bad)
                .expect_err("pid out of range")
                .to_string();
            assert!(
                error.contains(&format!("pid {pid} at byte {at_pid}")),
                "{error}"
            );
        }
    }

    #[test]
    fn empty_binary_trace_round_trips() {
        let trace = Trace::new(1, 0);
        let decoded = Trace::decode(&trace.encode()).unwrap();
        assert!(decoded.is_empty());
        assert_eq!(decoded, trace);
    }
}
