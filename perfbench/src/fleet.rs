//! `fleet`: a synthetic population driven to completion by
//! `FleetService::run` with one worker. It is the only workload that
//! forks (one `Engine::fork` per session) and whose memory grows with
//! its input, so the population is sized for per-session state to
//! dominate the peak resident memory.

use std::time::{Duration, Instant};

use impact_fleet::{FleetConfig, FleetEvent, FleetService, PopulationReport};

use crate::measure::{median, more, peak_rss_mb, rss_mb, Outcome, Tracer};

/// Sessions per run.
const POPULATION: usize = 4000;

/// Scheduler workers. With one, every epoch runs on the calling thread:
/// two worker threads on a shared two-vCPU host measure the host's
/// scheduler more than the fleet, and were no faster.
const WORKERS: usize = 1;

/// The fleet's default seed (`fleet_run`'s), whose population digest at
/// [`POPULATION`] sessions is pinned in [`DEFAULT_DIGEST`].
const DEFAULT_SEED: u64 = 0xF1EE7;

const DEFAULT_DIGEST: u64 = 0x090e_3555_7bce_465d;

/// Untimed runs before the timed ones.
const WARMUP_RUNS: usize = 3;

/// Runs timed at least, however short the budget.
const MIN_RUNS: usize = 3;

fn admit(seed: u64) -> FleetService {
    let mut fleet = FleetService::new(FleetConfig::new(seed).with_workers(WORKERS));
    fleet.admit_synthetic(POPULATION);
    fleet
}

/// Checks one report: every session finished, and the digest equals the
/// pinned one (default seed) or the first run's (any other seed).
fn check(report: &PopulationReport, seed: u64, first: &mut Option<u64>, out: &mut Outcome) {
    out.check(report.finished() == POPULATION, || {
        format!("{} of {POPULATION} sessions finished", report.finished())
    });
    let want = if seed == DEFAULT_SEED {
        DEFAULT_DIGEST
    } else {
        *first.get_or_insert(report.digest)
    };
    out.check(report.digest == want, || {
        format!(
            "population digest {:#018x}, expected {want:#018x} (seed {seed})",
            report.digest
        )
    });
}

/// One run: returns its set-up seconds (admission, warm
/// parent and building every session, up to the last `SessionStarted`)
/// and its sessions finished per second of the whole `FleetService::run`.
fn timed_run(seed: u64, first: &mut Option<u64>, out: &mut Outcome) -> (f64, f64) {
    let admitted = Instant::now();
    let fleet = admit(seed);
    let mut started = 0usize;
    let mut built = None;
    let run_start = Instant::now();
    let report = fleet.run(&mut |ev| {
        if let FleetEvent::SessionStarted { .. } = ev {
            started += 1;
            if started == POPULATION {
                built = Some(Instant::now());
            }
        }
    });
    let run_s = run_start.elapsed().as_secs_f64();
    let built = built.unwrap_or_else(Instant::now);
    check(&report, seed, first, out);
    (
        built.duration_since(admitted).as_secs_f64(),
        report.finished() as f64 / run_s,
    )
}

/// Untraced end-to-end run. The first runs of a process are slower
/// while the heap grows to the population's size, so [`WARMUP_RUNS`]
/// runs go untimed; the set-up of every run, warm-up included, is a
/// `setup_s` sample.
pub fn run(seed: u64, budget: Duration) -> Outcome {
    let mut out = Outcome::default();
    let mut first = None;
    let (mut setup, mut rates) = (Vec::new(), Vec::new());
    for _ in 0..WARMUP_RUNS {
        setup.push(timed_run(seed, &mut first, &mut out).0);
    }
    let start = Instant::now();
    while more(start, budget, rates.len(), MIN_RUNS) {
        let (setup_s, rate) = timed_run(seed, &mut first, &mut out);
        setup.push(setup_s);
        rates.push(rate);
    }
    let sessions_per_s = median(&rates);
    println!(
        "fleet: sessions_per_s {sessions_per_s:.1} 1/s (median of {} runs of {POPULATION} sessions, {WORKERS} workers)",
        rates.len()
    );
    out.metric("ops_per_s", sessions_per_s, "1/s");
    out.metric("setup_s", median(&setup), "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out
}

/// Traced run: traced and untraced runs alternate. A traced run's
/// phases are delimited by the synchronous `FleetEvent` callback — warm
/// parent up to the first `SessionStarted`, session build up to the
/// last, one span per epoch between `EpochComplete`s, aggregation up to
/// the return of `run` — and resident memory is sampled at the same
/// points of the first run.
pub fn run_traced(seed: u64, budget: Duration) -> Outcome {
    let mut out = Outcome::default();
    let mut first = None;
    let obs = impact_obs::registry();
    let mut tracer = Tracer::new();
    let mut untraced = Vec::new();
    let (mut rss_build, mut rss_epochs, mut forks, mut epochs) = (0f64, 0f64, 0u64, 0u64);
    let start = Instant::now();
    let mut pass: u32 = 0;
    while more(start, budget, untraced.len(), MIN_RUNS) {
        impact_obs::set_enabled(true);
        let fleet = admit(seed);
        let forks_before = obs.engine_forks.get();
        let root = tracer.open("fleet.run", pass, None);
        let t0 = tracer.now();
        let mut started = 0usize;
        let mut marks: Vec<(&'static str, u64)> = Vec::new();
        // Only the process's first run starts from an empty heap; later
        // runs reuse the memory the allocator kept.
        let sample_rss = pass == 0;
        let report = fleet.run(&mut |ev| match ev {
            FleetEvent::SessionStarted { .. } => {
                started += 1;
                if started == 1 {
                    marks.push(("fleet.warm_parent_s", tracer.now()));
                }
                if started == POPULATION {
                    marks.push(("fleet.build_s", tracer.now()));
                    if sample_rss {
                        rss_build = rss_mb();
                    }
                }
            }
            FleetEvent::EpochComplete { .. } => {
                marks.push(("fleet.epoch", tracer.now()));
                if sample_rss {
                    rss_epochs = rss_epochs.max(rss_mb());
                }
            }
            FleetEvent::SessionFinished { .. } => {}
        });
        marks.push(("fleet.aggregate_s", tracer.now()));
        tracer.close(root);
        let mut prev = t0;
        for (name, at) in marks {
            tracer.record(name, pass, Some(root), prev, at);
            prev = at;
        }
        tracer.time("fleet.report_json_s", pass, None, || report.to_json());
        forks = obs.engine_forks.get() - forks_before;
        epochs = report.epochs;
        check(&report, seed, &mut first, &mut out);
        drop(report);
        pass += 1;

        impact_obs::set_enabled(false);
        let fleet = admit(seed);
        let run_start = Instant::now();
        let report = fleet.run(&mut |_| {});
        untraced.push(run_start.elapsed().as_secs_f64());
        check(&report, seed, &mut first, &mut out);
    }

    for name in [
        "fleet.warm_parent_s",
        "fleet.build_s",
        "fleet.aggregate_s",
        "fleet.report_json_s",
    ] {
        out.metric(name, median(&tracer.per_pass_sum(name)), "s");
    }
    let build_s = median(&tracer.per_pass_sum("fleet.build_s"));
    out.metric(
        "fleet.build_us_per_session",
        build_s * 1e6 / POPULATION as f64,
        "us",
    );
    out.metric(
        "fleet.epochs_s",
        median(&tracer.per_pass_sum("fleet.epoch")),
        "s",
    );
    out.metric(
        "fleet.epoch_max_s",
        median(&tracer.per_pass_max("fleet.epoch")),
        "s",
    );
    out.metric("fleet.epochs", epochs as f64, "count");
    out.metric("fleet.forks", forks as f64, "count");
    out.metric("fleet.rss_build_mb", rss_build, "MB");
    out.metric("fleet.rss_epochs_mb", rss_epochs, "MB");
    tracer.reconcile(&mut out, "fleet", "fleet.run", &untraced);
    out
}
