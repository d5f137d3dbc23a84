//! `replay_mix`: records the full `mix` capture from the seed, then
//! replays it on the monolithic controller through
//! `trace_tools::replay_file`. Replayed requests go straight into the
//! controller — no engine, cache or TLB on the path — so this workload
//! isolates memctrl, dram and the trace codec, and is the bypass case for
//! every engine, cache or fork change.

use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use impact_bench::trace_tools::{config_for_label, record_capture, replay_file, CaptureKind};
use impact_core::addr::PhysAddr;
use impact_core::config::SystemConfig;
use impact_core::engine::{BackendStats, MemRequest, MemResponse, MemoryBackend, ReqKind};
use impact_core::error::{Error, Result};
use impact_core::time::Cycles;
use impact_core::trace::{replay_digest, TraceEvent, TraceReader, TraceSummary};
use impact_memctrl::ControllerBackend;
use impact_sim::BackendKind;

use crate::measure::{median, more, peak_rss_mb, ratio, Outcome, Tracer};

/// Recordings made per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// Replay passes timed at least, however short the budget.
const MIN_PASSES: usize = 20;

/// A recorded capture and the facts its replays are checked against.
struct Capture {
    bytes: Vec<u8>,
    state_digest: u64,
}

/// A `Write` sink whose bytes can be taken back after the boxed writer
/// `record_capture` needs has been consumed.
#[derive(Clone, Default)]
struct SharedSink(Arc<Mutex<Vec<u8>>>);

impl Write for SharedSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("the sink is only written by one thread")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn record(seed: u64, quick: bool) -> Result<Capture> {
    let sink = SharedSink::default();
    let outcome = record_capture(
        CaptureKind::Mix,
        BackendKind::Mono,
        quick,
        seed,
        Box::new(sink.clone()),
    )?;
    let bytes = std::mem::take(&mut *sink.0.lock().expect("recording finished"));
    Ok(Capture {
        bytes,
        state_digest: outcome.state_digest,
    })
}

/// One untraced pass through `replay_file`, checked; returns the
/// verified responses and the pass's seconds.
fn pass(capture: &Capture, out: &mut Outcome) -> Result<(u64, f64)> {
    let start = Instant::now();
    let v = replay_file(capture.bytes.as_slice(), BackendKind::Mono)?;
    let secs = start.elapsed().as_secs_f64();
    let ok = v.matches() && v.state_digest == capture.state_digest;
    out.check(ok, || {
        format!(
            "replay verdict: matches {}, state digest {:#018x} vs recorded {:#018x}",
            v.matches(),
            v.state_digest,
            capture.state_digest
        )
    });
    Ok((if ok { v.responses } else { 0 }, secs))
}

/// Untraced end-to-end run. Each set-up records the capture and makes
/// one warm-up replay of it, which `ops_per_s` does not count; `setup_s`
/// is the median of [`SETUPS`].
/// Every timed pass is checked against the recording's footer and state
/// digest; throughput is verified responses per host second.
pub fn run(seed: u64, budget: Duration) -> Result<Outcome> {
    let mut out = Outcome::default();
    let (capture, setup) = set_up(seed, &mut out)?;
    check_wrapper(&capture, &mut out)?;

    let start = Instant::now();
    let mut rates = Vec::new();
    while more(start, budget, rates.len(), MIN_PASSES) {
        let (responses, secs) = pass(&capture, &mut out)?;
        rates.push(responses as f64 / secs);
    }
    let requests_per_s = median(&rates);
    println!(
        "replay_mix: requests_per_s {requests_per_s:.0} 1/s (median of {} passes over {} trace bytes)",
        rates.len(),
        capture.bytes.len()
    );
    out.metric("ops_per_s", requests_per_s, "1/s");
    out.metric("setup_s", median(&setup), "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    Ok(out)
}

/// Records the capture [`SETUPS`] times, checks that every recording is
/// byte-identical and replays once, and returns it with the set-up
/// times.
fn set_up(seed: u64, out: &mut Outcome) -> Result<(Capture, Vec<f64>)> {
    let mut setup = Vec::new();
    let mut kept: Option<Capture> = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let capture = record(seed, false)?;
        pass(&capture, out)?;
        setup.push(start.elapsed().as_secs_f64());
        if let Some(first) = &kept {
            out.check(first.bytes == capture.bytes, || {
                "two recordings of one seed differ".to_string()
            });
        } else {
            kept = Some(capture);
        }
    }
    Ok((kept.expect("SETUPS > 0"), setup))
}

/// Calls and host nanoseconds spent in one kind of backend call.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    calls: u64,
    ns: u64,
}

impl Tally {
    fn add(&mut self, since: Instant) {
        self.calls += 1;
        self.ns += u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX);
    }

    fn ns_per_call(self) -> f64 {
        ratio(self.ns as f64, self.calls as f64)
    }
}

/// Per-kind timings taken by [`Timed`].
#[derive(Debug, Default, Clone, Copy)]
struct CallTimes {
    load: Tally,
    store: Tally,
    pim: Tally,
    rowclone: Tally,
    inject: Tally,
    batch: Tally,
    batch_requests: u64,
}

impl CallTimes {
    fn absorb(&mut self, other: &CallTimes) {
        for (mine, theirs) in [
            (&mut self.load, other.load),
            (&mut self.store, other.store),
            (&mut self.pim, other.pim),
            (&mut self.rowclone, other.rowclone),
            (&mut self.inject, other.inject),
            (&mut self.batch, other.batch),
        ] {
            mine.calls += theirs.calls;
            mine.ns += theirs.ns;
        }
        self.batch_requests += other.batch_requests;
    }

    fn total_ns(&self) -> u64 {
        [
            self.load,
            self.store,
            self.pim,
            self.rowclone,
            self.inject,
            self.batch,
        ]
        .iter()
        .map(|t| t.ns)
        .sum()
    }
}

/// A pass-through [`MemoryBackend`] that times every call into the
/// wrapped backend and otherwise changes nothing: every hook, the
/// burst-safety introspection included, forwards to the inner backend.
struct Timed<B> {
    inner: B,
    times: CallTimes,
}

impl<B> Timed<B> {
    fn new(inner: B) -> Timed<B> {
        Timed {
            inner,
            times: CallTimes::default(),
        }
    }
}

impl<B: MemoryBackend> MemoryBackend for Timed<B> {
    fn service(&mut self, req: &MemRequest) -> Result<MemResponse> {
        let start = Instant::now();
        let resp = self.inner.service(req);
        let tally = match req.kind {
            ReqKind::Load => &mut self.times.load,
            ReqKind::Store => &mut self.times.store,
            ReqKind::Pim => &mut self.times.pim,
            ReqKind::RowClone { .. } => &mut self.times.rowclone,
        };
        tally.add(start);
        resp
    }

    fn service_batch(&mut self, reqs: &[MemRequest]) -> Result<Vec<MemResponse>> {
        let start = Instant::now();
        let resps = self.inner.service_batch(reqs);
        self.times.batch.add(start);
        self.times.batch_requests += reqs.len() as u64;
        resps
    }

    fn backend_stats(&self) -> BackendStats {
        self.inner.backend_stats()
    }

    fn defense_label(&self) -> &'static str {
        self.inner.defense_label()
    }

    fn worst_case_latency(&self) -> Cycles {
        self.inner.worst_case_latency()
    }

    fn num_banks(&self) -> usize {
        self.inner.num_banks()
    }

    fn rows_per_bank(&self) -> u64 {
        self.inner.rows_per_bank()
    }

    fn inject_row_activation(&mut self, bank: usize, row: u64, at: Cycles, actor: u32) {
        let start = Instant::now();
        self.inner.inject_row_activation(bank, row, at, actor);
        self.times.inject.add(start);
    }

    fn probe_burst_safe(&self) -> bool {
        self.inner.probe_burst_safe()
    }

    fn bank_of(&self, addr: PhysAddr) -> Option<usize> {
        self.inner.bank_of(addr)
    }

    fn bank_ready_at(&self, bank: usize) -> Cycles {
        self.inner.bank_ready_at(bank)
    }
}

/// Decodes a capture into its events, its footer and the configuration
/// it was recorded under, as `replay_file` resolves it.
fn decode(bytes: &[u8]) -> Result<(Vec<TraceEvent>, TraceSummary, SystemConfig)> {
    let mut reader = TraceReader::new(bytes)?;
    let cfg = config_for_label(&reader.header().label).ok_or_else(|| {
        Error::TraceFormat(format!("unknown config label {:?}", reader.header().label))
    })?;
    reader.expect_config(&cfg)?;
    let events = reader.read_to_end()?;
    let summary = reader
        .summary()
        .expect("stream ended with a footer")
        .clone();
    Ok((events, summary, cfg))
}

/// What a replay leaves behind: response count and digest, final stats
/// and DRAM state digest.
type Verdict = (u64, u64, BackendStats, u64);

fn replay_through<B: MemoryBackend>(
    events: &[TraceEvent],
    backend: &mut B,
    state: impl Fn(&B) -> u64,
) -> Result<Verdict> {
    let (responses, digest) = replay_digest(events.iter().cloned().map(Ok), backend)?;
    Ok((responses, digest, backend.backend_stats(), state(backend)))
}

/// Checks that a replay through [`Timed`] leaves the same response
/// digest, `BackendStats` and DRAM state digest as the bare controller.
fn check_wrapper(capture: &Capture, out: &mut Outcome) -> Result<()> {
    let (events, _, cfg) = decode(&capture.bytes)?;
    let mut bare = BackendKind::Mono.backend(&cfg);
    let want = replay_through(&events, &mut bare, |b| b.dram_state_digest())?;
    let mut timed = Timed::new(BackendKind::Mono.backend(&cfg));
    let got = replay_through(&events, &mut timed, |b| b.inner.dram_state_digest())?;
    out.check(got == want, || {
        format!("timing wrapper changed the replay: {got:?} vs bare {want:?}")
    });
    Ok(())
}

/// Traced run: after one set-up, untraced and traced passes alternate.
/// A traced pass decodes with `TraceReader` and services the events
/// through [`Timed`], under a root span with decode, build, service and
/// verify children.
pub fn run_traced(seed: u64, budget: Duration) -> Result<Outcome> {
    let mut out = Outcome::default();
    let capture = record(seed, false)?;
    let mut tracer = Tracer::new();
    let mut untraced = Vec::new();
    let mut times = CallTimes::default();
    let mut responses = 0u64;
    let mut requests = 0u64;
    let mut batches = 0u64;
    let start = Instant::now();
    let mut traced: u32 = 0;
    while more(start, budget, untraced.len(), MIN_PASSES) {
        impact_obs::set_enabled(false);
        untraced.push(pass(&capture, &mut out)?.1);

        impact_obs::set_enabled(true);
        let root = tracer.open("replay.pass", traced, None);
        let (events, summary, cfg) = tracer.time("replay.decode_s", traced, Some(root), || {
            decode(&capture.bytes)
        })?;
        let mut backend = tracer.time("replay.build_s", traced, Some(root), || {
            Timed::new(BackendKind::Mono.backend(&cfg))
        });
        batches = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Batch(_)))
            .count() as u64;
        let (n, digest) = tracer.time("replay.service_s", traced, Some(root), || {
            replay_digest(events.into_iter().map(Ok), &mut backend)
        })?;
        let (stats, state) = tracer.time("replay.verify_s", traced, Some(root), || {
            (backend.backend_stats(), backend.inner.dram_state_digest())
        });
        tracer.close(root);
        out.check(
            n == summary.responses
                && digest == summary.response_digest
                && stats == summary.stats
                && state == capture.state_digest,
            || "traced replay diverged from the recording".to_string(),
        );
        times.absorb(&backend.times);
        requests += n;
        responses = n;
        traced += 1;
    }

    for name in [
        "replay.decode_s",
        "replay.build_s",
        "replay.service_s",
        "replay.verify_s",
    ] {
        out.metric(name, median(&tracer.per_pass_sum(name)), "s");
    }
    out.metric(
        "replay.service_ns_per_request",
        ratio(times.total_ns() as f64, requests as f64),
        "ns",
    );
    for (name, tally) in [
        ("replay.load_ns", times.load),
        ("replay.store_ns", times.store),
        ("replay.pim_ns", times.pim),
        ("replay.rowclone_ns", times.rowclone),
        ("replay.inject_ns", times.inject),
    ] {
        out.metric(name, tally.ns_per_call(), "ns");
    }
    out.metric(
        "replay.batch_ns_per_request",
        ratio(times.batch.ns as f64, times.batch_requests as f64),
        "ns",
    );
    out.metric("replay.requests", responses as f64, "count");
    out.metric("replay.batches", batches as f64, "count");
    out.metric("replay.trace_bytes", capture.bytes.len() as f64, "bytes");
    tracer.reconcile(&mut out, "replay_mix", "replay.pass", &untraced);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_wrapper_replays_like_the_bare_controller() {
        let capture = record(0x7ACE, true).unwrap();
        let mut out = Outcome::default();
        check_wrapper(&capture, &mut out).unwrap();
        assert_eq!((out.attempted, out.failed), (1, 0));
    }
}
