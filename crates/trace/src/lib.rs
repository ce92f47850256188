//! # astral-trace — the shared structured event trace
//!
//! A low-overhead, replayable timeline of everything the simulation stack
//! decides: flow lifecycle and link state in `astral-net`, solver
//! recompute work, fault injections, recovery-ladder decisions and
//! substrate transitions in `astral-core`, and admission/preemption/
//! spare-claim arbitration in `astral-fleet`.
//!
//! The design constraints, in order:
//!
//! 1. **Low overhead while recording.** A record is one 40-byte POD value
//!    ([`TraceRecord`]) pushed into a fixed-capacity ring buffer
//!    ([`TraceRing`]) — no allocation, no formatting, no branching beyond
//!    the ring index. Overhead is pinned by `appc_monitor_overhead`
//!    (< 2% wall-clock on the Figure-10 recovery scenario).
//! 2. **Replayable.** Records carry raw integer payloads (ids, counts,
//!    `f64::to_bits` where a float is unavoidable), so a recorded
//!    timeline round-trips exactly: serialize to JSON-lines with
//!    [`to_jsonl`], parse back with [`parse_jsonl`], and the FNV-1a
//!    [`fingerprint`] is byte-for-byte stable across the trip and across
//!    `ASTRAL_THREADS` widths.
//! 3. **Self-describing enough to debug from.** Every record kind is a
//!    documented [`TraceKind`] with a stable numeric code and a
//!    human-readable name embedded in the JSONL output.
//!
//! Field conventions per kind are documented on [`TraceKind`]; the record
//! itself stays schema-free (`aux`/`a`/`b`/`v`/`w`) so one ring serves
//! every layer without generics or dynamic dispatch.

#![warn(missing_docs)]

use serde::Value;

/// What one trace record describes. The numeric codes are stable — they
/// appear in serialized traces and must never be reused for a different
/// meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum TraceKind {
    /// `astral-net`: a flow was injected. `a`=flow id, `b`=QP (low 32
    /// bits), `v`=payload bytes, `w`=`weight.to_bits()`.
    FlowInject = 1,
    /// `astral-net`: a flow delivered all bytes. `a`=flow id, `b`=QP,
    /// `v`=delivered bytes (truncated to u64).
    FlowComplete = 2,
    /// `astral-net`: a flow exhausted retransmissions on a dead path and
    /// raised errCQE. `a`=flow id, `b`=QP.
    FlowAbort = 3,
    /// `astral-net`: an aborted flow was re-admitted after its path was
    /// restored. `a`=flow id, `b`=QP.
    FlowRequeue = 4,
    /// `astral-net`: hard link failure (capacity → 0). `a`=link id.
    LinkFail = 5,
    /// `astral-net`: link capacity degradation. `a`=link id,
    /// `w`=`factor.to_bits()`.
    LinkDegrade = 6,
    /// `astral-net`: link restored to pristine capacity. `a`=link id.
    LinkRestore = 7,
    /// `astral-net`: one rate recompute, with [`SolverCounters`]-delta
    /// payload: `aux`=1 if any full solve ran, `a`=flows resolved (low
    /// 32), `b`=links scanned (low 32), `v`=solver events, `w`=full +
    /// incremental solves since the previous recompute record.
    ///
    /// [`SolverCounters`]: https://docs.rs/astral-net
    SolverRecompute = 8,
    /// `astral-net`: a queue pair was registered. `aux`=source port,
    /// `a`=src NIC node id, `b`=dst NIC node id, `v`=QP id.
    QpRegister = 9,
    /// `astral-core`: a scripted fault materialized. `aux`=fault-kind
    /// code, `a`=iteration, `b`=blast radius (QPs crossing the faulted
    /// element).
    FaultInject = 10,
    /// `astral-core`: one recovery-ladder / gray-verdict / substrate
    /// mitigation incident. `aux`=mitigation-action code, `a`=iteration,
    /// `b`=fault-class code, `v`=blamed links, `w`=cordoned hosts.
    LadderDecision = 11,
    /// `astral-core`: a substrate cascade manifested (cooling onset,
    /// power cap-onset, optics onset). `aux`=cascade-class code,
    /// `a`=onset iteration, `b`=job hosts in the blast radius.
    SubstrateOnset = 12,
    /// `astral-core`: the analyzer named a cause for pending substrate
    /// stress. `aux`=cause-class code, `a`=iteration, `v`=telemetry
    /// queries the drill-down issued.
    SubstrateDiagnosis = 13,
    /// `astral-core`: the DCIM force-cordoned a host (rack past critical
    /// temperature). `a`=host id, `b`=iteration.
    ForcedCordon = 14,
    /// `astral-fleet`: a job segment was admitted. `a`=job id, `b`=hosts
    /// allocated, `v`=spares granted, `w`=iterations remaining.
    Admission = 15,
    /// `astral-fleet`: a running segment was preempted by a higher
    /// class. `a`=victim job id, `b`=hosts returned.
    Preemption = 16,
    /// `astral-fleet`: spares actually consumed by a finished segment's
    /// cordon-and-replace restarts. `a`=job id, `b`=spares claimed.
    SpareClaim = 17,
}

impl TraceKind {
    /// Decode a numeric kind code; `None` for unknown codes (forward
    /// compatibility: parsers keep unknown records as raw data).
    pub fn from_code(code: u16) -> Option<TraceKind> {
        Some(match code {
            1 => TraceKind::FlowInject,
            2 => TraceKind::FlowComplete,
            3 => TraceKind::FlowAbort,
            4 => TraceKind::FlowRequeue,
            5 => TraceKind::LinkFail,
            6 => TraceKind::LinkDegrade,
            7 => TraceKind::LinkRestore,
            8 => TraceKind::SolverRecompute,
            9 => TraceKind::QpRegister,
            10 => TraceKind::FaultInject,
            11 => TraceKind::LadderDecision,
            12 => TraceKind::SubstrateOnset,
            13 => TraceKind::SubstrateDiagnosis,
            14 => TraceKind::ForcedCordon,
            15 => TraceKind::Admission,
            16 => TraceKind::Preemption,
            17 => TraceKind::SpareClaim,
            _ => return None,
        })
    }

    /// Stable lowercase name, embedded in JSONL output for readability.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::FlowInject => "flow_inject",
            TraceKind::FlowComplete => "flow_complete",
            TraceKind::FlowAbort => "flow_abort",
            TraceKind::FlowRequeue => "flow_requeue",
            TraceKind::LinkFail => "link_fail",
            TraceKind::LinkDegrade => "link_degrade",
            TraceKind::LinkRestore => "link_restore",
            TraceKind::SolverRecompute => "solver_recompute",
            TraceKind::QpRegister => "qp_register",
            TraceKind::FaultInject => "fault_inject",
            TraceKind::LadderDecision => "ladder_decision",
            TraceKind::SubstrateOnset => "substrate_onset",
            TraceKind::SubstrateDiagnosis => "substrate_diagnosis",
            TraceKind::ForcedCordon => "forced_cordon",
            TraceKind::Admission => "admission",
            TraceKind::Preemption => "preemption",
            TraceKind::SpareClaim => "spare_claim",
        }
    }
}

/// One compact binary trace record: 40 bytes, `Copy`, no heap. Payload
/// field meaning is per-kind (see [`TraceKind`]); floats travel as
/// `to_bits()` so records compare and hash exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceRecord {
    /// Timestamp in nanoseconds on the recording layer's clock (simulated
    /// time for net/core records, campaign wall-clock for fleet records).
    pub t_ns: u64,
    /// Numeric [`TraceKind`] code.
    pub kind: u16,
    /// Small per-kind discriminant (action/cause/class codes, ports).
    pub aux: u16,
    /// First 32-bit payload (ids, iterations).
    pub a: u32,
    /// Second 32-bit payload.
    pub b: u32,
    /// First 64-bit payload (bytes, counts, float bits).
    pub v: u64,
    /// Second 64-bit payload.
    pub w: u64,
}

impl TraceRecord {
    /// Build a record.
    pub fn new(t_ns: u64, kind: TraceKind, aux: u16, a: u32, b: u32, v: u64, w: u64) -> Self {
        TraceRecord {
            t_ns,
            kind: kind as u16,
            aux,
            a,
            b,
            v,
            w,
        }
    }

    /// The decoded kind, if the code is known.
    pub fn kind(&self) -> Option<TraceKind> {
        TraceKind::from_code(self.kind)
    }

    /// Fold this record into an FNV-1a state (field order is part of the
    /// stable trace format).
    fn fnv_fold(&self, mut h: u64) -> u64 {
        for word in [
            self.t_ns,
            self.kind as u64,
            self.aux as u64,
            self.a as u64,
            self.b as u64,
            self.v,
            self.w,
        ] {
            for byte in word.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }
}

/// FNV-1a offset basis (the empty-trace fingerprint). This crate folds
/// its own FNV-1a rather than use `astral_sim::Digest`: it depends on no
/// workspace crate, and a new dependency edge would change the separately
/// locked perfbench package's lock file.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Deterministic 64-bit FNV-1a fingerprint over a record sequence. Equal
/// fingerprints for traces of real length ⇒ identical timelines (modulo
/// hash collisions); byte-identical across serialize/parse round trips.
pub fn fingerprint(records: &[TraceRecord]) -> u64 {
    records.iter().fold(FNV_OFFSET, |h, r| r.fnv_fold(h))
}

thread_local! {
    /// Recycled ring backing stores. A traced run grows a multi-megabyte
    /// buffer; if that allocation is freed when the simulator drops, every
    /// run re-pays geometric-growth memcpys, allocator mmap/munmap traffic
    /// and fresh page faults — measurably ~10% of the fig10 scenario's wall
    /// clock. Dropping a sizable ring parks its buffer here instead, and the
    /// next ring on the same thread adopts it with its pages already warm.
    /// Bounded so worker threads cap their retained memory.
    static RING_POOL: std::cell::RefCell<Vec<Vec<TraceRecord>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// At most this many parked buffers per thread.
const RING_POOL_MAX: usize = 4;
/// Buffers below this capacity are not worth recycling.
const RING_POOL_MIN_CAP: usize = 1024;

/// Adopt a parked buffer, cleared and ready to fill.
fn ring_pool_pop() -> Option<Vec<TraceRecord>> {
    RING_POOL.with(|p| p.borrow_mut().pop()).map(|mut b| {
        b.clear();
        b
    })
}

/// Park a trace buffer for reuse by the next [`TraceRing`] on this
/// thread. Rings park their backing store automatically on drop; call
/// this for buffers that *left* a ring — e.g. a drained timeline whose
/// report is being discarded — so the allocation and its warm pages
/// survive into the next run instead of being freed and re-faulted.
/// Small buffers and overflow beyond the pool bound are simply dropped.
pub fn recycle(mut buf: Vec<TraceRecord>) {
    if buf.capacity() < RING_POOL_MIN_CAP {
        return;
    }
    buf.clear();
    RING_POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < RING_POOL_MAX {
            pool.push(buf);
        }
    });
}

/// A fixed-capacity ring buffer of trace records. When full, the oldest
/// record is overwritten and `dropped` counts the loss — recording never
/// allocates after construction and never fails.
#[derive(Debug, Clone, Default)]
pub struct TraceRing {
    buf: Vec<TraceRecord>,
    cap: usize,
    /// Next write position.
    head: usize,
    /// Records overwritten after the ring filled.
    dropped: u64,
}

impl Drop for TraceRing {
    fn drop(&mut self) {
        recycle(std::mem::take(&mut self.buf));
    }
}

impl TraceRing {
    /// A ring holding at most `capacity` records. Capacity 0 is a valid
    /// disabled ring: every push is counted as dropped. The backing
    /// store is adopted from this thread's pool of recycled ring buffers
    /// when a prior ring on this thread left one (pages warm, no growth copies), and otherwise
    /// grows on demand — a 64 Ki-record default would touch 2.6 MB of
    /// fresh pages per construction if reserved eagerly.
    pub fn with_capacity(capacity: usize) -> Self {
        let buf = if capacity >= RING_POOL_MIN_CAP {
            ring_pool_pop().unwrap_or_default()
        } else {
            Vec::new()
        };
        TraceRing {
            buf,
            cap: capacity,
            head: 0,
            dropped: 0,
        }
    }

    /// Append a record, overwriting the oldest when full. Hot path (the
    /// fill phase) is a bare `Vec::push`: `head` is not maintained while
    /// filling — it stays 0, which is exactly the oldest-record position
    /// the moment the ring fills — and there is no division anywhere (a
    /// `% cap` with a runtime divisor costs more than the 40-byte store
    /// itself); wraparound is a compare-and-reset.
    #[inline]
    pub fn push(&mut self, rec: TraceRecord) {
        if self.buf.len() < self.cap {
            self.buf.push(rec);
        } else if self.cap > 0 {
            self.buf[self.head] = rec;
            self.head += 1;
            if self.head == self.cap {
                self.head = 0;
            }
            self.dropped += 1;
        } else {
            self.dropped += 1;
        }
    }

    /// Convenience constructor + push. One parameter per record field —
    /// the arity *is* the schema.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn record(&mut self, t_ns: u64, kind: TraceKind, aux: u16, a: u32, b: u32, v: u64, w: u64) {
        self.push(TraceRecord::new(t_ns, kind, aux, a, b, v, w));
    }

    /// Records currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Records lost to wraparound (or to a zero-capacity ring).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained records, oldest first.
    pub fn to_vec(&self) -> Vec<TraceRecord> {
        if self.buf.len() < self.cap || self.cap == 0 {
            self.buf.clone()
        } else {
            let mut out = Vec::with_capacity(self.cap);
            out.extend_from_slice(&self.buf[self.head..]);
            out.extend_from_slice(&self.buf[..self.head]);
            out
        }
    }

    /// Drain the ring: returns the retained records oldest-first and
    /// resets the ring (capacity and drop counter preserved). In the
    /// common un-wrapped case this is a pointer swap, not a copy — the
    /// backing store moves out wholesale and the ring adopts a recycled
    /// buffer for any further recording; hand the drained `Vec` back via
    /// [`recycle`] when done with it to keep that cycle allocation-free.
    pub fn take(&mut self) -> Vec<TraceRecord> {
        let out = if self.buf.len() < self.cap || self.cap == 0 {
            let replacement = if self.cap >= RING_POOL_MIN_CAP {
                ring_pool_pop().unwrap_or_default()
            } else {
                Vec::new()
            };
            std::mem::replace(&mut self.buf, replacement)
        } else {
            let rotated = self.to_vec();
            self.buf.clear();
            rotated
        };
        self.head = 0;
        out
    }

    /// Clear retained records and the drop counter.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.dropped = 0;
    }
}

/// Serialize records to JSON-lines: one compact object per record, with
/// the decoded kind name inlined for human readers. The numeric fields
/// alone define the format — `parse_jsonl` ignores `name`.
pub fn to_jsonl(records: &[TraceRecord]) -> String {
    let mut out = String::with_capacity(records.len() * 96);
    for r in records {
        let name = r.kind().map(|k| k.name()).unwrap_or("unknown");
        out.push_str(&format!(
            "{{\"t_ns\":{},\"kind\":{},\"name\":\"{}\",\"aux\":{},\"a\":{},\"b\":{},\"v\":{},\"w\":{}}}\n",
            r.t_ns, r.kind, name, r.aux, r.a, r.b, r.v, r.w
        ));
    }
    out
}

/// Why a JSONL trace failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line number of the offending record.
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceParseError {}

/// Parse a JSON-lines trace produced by [`to_jsonl`] (blank lines are
/// skipped). Inverse of serialization: `parse_jsonl(&to_jsonl(r)) == r`.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceRecord>, TraceParseError> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let err = |message: String| TraceParseError {
            line: i + 1,
            message,
        };
        let value: Value =
            serde_json::from_str(line).map_err(|e| err(format!("invalid JSON: {e}")))?;
        let Value::Map(pairs) = &value else {
            return Err(err("record is not an object".into()));
        };
        let field = |key: &str| -> Result<u64, TraceParseError> {
            let v = pairs
                .iter()
                .find(|(k, _)| k.as_str() == Some(key))
                .map(|(_, v)| v)
                .ok_or_else(|| err(format!("missing field {key:?}")))?;
            match v {
                Value::U64(n) => Ok(*n),
                Value::I64(n) if *n >= 0 => Ok(*n as u64),
                other => Err(err(format!("field {key:?} is not an integer: {other:?}"))),
            }
        };
        out.push(TraceRecord {
            t_ns: field("t_ns")?,
            kind: field("kind")? as u16,
            aux: field("aux")? as u16,
            a: field("a")? as u32,
            b: field("b")? as u32,
            v: field("v")?,
            w: field("w")?,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(i: u64) -> TraceRecord {
        TraceRecord::new(
            i * 10,
            TraceKind::FlowInject,
            (i % 7) as u16,
            i as u32,
            (i * 3) as u32,
            i * i,
            u64::MAX - i,
        )
    }

    #[test]
    fn ring_below_capacity_keeps_order() {
        let mut ring = TraceRing::with_capacity(8);
        for i in 0..5 {
            ring.push(rec(i));
        }
        assert_eq!(ring.len(), 5);
        assert_eq!(ring.dropped(), 0);
        let v = ring.to_vec();
        assert_eq!(v, (0..5).map(rec).collect::<Vec<_>>());
    }

    #[test]
    fn ring_wraparound_drops_oldest_and_counts() {
        let mut ring = TraceRing::with_capacity(4);
        for i in 0..10 {
            ring.push(rec(i));
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.dropped(), 6);
        assert_eq!(ring.to_vec(), (6..10).map(rec).collect::<Vec<_>>());
    }

    #[test]
    fn ring_wrap_exactly_at_capacity_boundary() {
        // Filling to exactly cap keeps everything; one more drops one.
        let mut ring = TraceRing::with_capacity(3);
        for i in 0..3 {
            ring.push(rec(i));
        }
        assert_eq!(ring.dropped(), 0);
        assert_eq!(ring.to_vec(), (0..3).map(rec).collect::<Vec<_>>());
        ring.push(rec(3));
        assert_eq!(ring.dropped(), 1);
        assert_eq!(ring.to_vec(), (1..4).map(rec).collect::<Vec<_>>());
    }

    #[test]
    fn zero_capacity_ring_is_a_counting_sink() {
        let mut ring = TraceRing::with_capacity(0);
        for i in 0..5 {
            ring.push(rec(i));
        }
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 5);
        assert!(ring.take().is_empty());
    }

    #[test]
    fn take_drains_in_order_and_resets() {
        let mut ring = TraceRing::with_capacity(4);
        for i in 0..6 {
            ring.push(rec(i));
        }
        let first = ring.take();
        assert_eq!(first, (2..6).map(rec).collect::<Vec<_>>());
        assert!(ring.is_empty());
        ring.push(rec(9));
        assert_eq!(ring.take(), vec![rec(9)]);
    }

    #[test]
    fn jsonl_round_trip_is_exact() {
        let records: Vec<TraceRecord> = (0..20).map(rec).collect();
        let text = to_jsonl(&records);
        let parsed = parse_jsonl(&text).expect("parses");
        assert_eq!(parsed, records);
        assert_eq!(fingerprint(&parsed), fingerprint(&records));
    }

    #[test]
    fn jsonl_round_trip_extreme_values() {
        let r = TraceRecord {
            t_ns: u64::MAX,
            kind: u16::MAX,
            aux: u16::MAX,
            a: u32::MAX,
            b: u32::MAX,
            v: u64::MAX,
            w: f64::NEG_INFINITY.to_bits(),
        };
        let parsed = parse_jsonl(&to_jsonl(&[r])).expect("parses");
        assert_eq!(parsed, vec![r]);
    }

    #[test]
    fn parse_rejects_garbage_with_line_numbers() {
        let good = to_jsonl(&[rec(1)]);
        let text = format!("{good}not json\n");
        let e = parse_jsonl(&text).expect_err("must fail");
        assert_eq!(e.line, 2);
        let text2 = "{\"t_ns\":1}\n";
        let e2 = parse_jsonl(text2).expect_err("missing fields");
        assert!(e2.message.contains("kind"));
    }

    #[test]
    fn fingerprint_sensitive_to_every_field() {
        let base = rec(5);
        let fp = fingerprint(&[base]);
        for mutate in [
            |r: &mut TraceRecord| r.t_ns += 1,
            |r: &mut TraceRecord| r.kind += 1,
            |r: &mut TraceRecord| r.aux += 1,
            |r: &mut TraceRecord| r.a += 1,
            |r: &mut TraceRecord| r.b += 1,
            |r: &mut TraceRecord| r.v += 1,
            |r: &mut TraceRecord| r.w -= 1,
        ] {
            let mut m = base;
            mutate(&mut m);
            assert_ne!(fingerprint(&[m]), fp);
        }
        assert_ne!(fingerprint(&[]), fp);
    }

    #[test]
    fn kind_codes_round_trip() {
        for code in 1..=17u16 {
            let k = TraceKind::from_code(code).expect("known code");
            assert_eq!(k as u16, code);
            assert!(!k.name().is_empty());
        }
        assert_eq!(TraceKind::from_code(0), None);
        assert_eq!(TraceKind::from_code(999), None);
    }

    #[test]
    fn record_is_compact() {
        assert_eq!(std::mem::size_of::<TraceRecord>(), 40);
    }
}
