//! `paper_suite`: the 13 experiments `fig_all` runs with no flags, run
//! serially, as every reproducer runs them. It is the workload in which
//! the cache hierarchy, the baseline channels, the side-channel victim
//! and the defense kernels do most of the work. The suite is the paper's
//! fixed configuration, so the seed does not apply.

use std::time::{Duration, Instant};

use impact_bench::runner::ExperimentJob;
use impact_bench::{experiments, Figure, SweepRunner};
use impact_core::hash::{fnv1a_bytes, FNV_OFFSET};
use impact_sim::BackendKind;

use crate::measure::{median, more, peak_rss_mb, Outcome, Tracer};

/// FNV-1a digest of each experiment's rendered text, in suite order, for
/// the paper configuration (`fig_all` with no flags).
const DIGESTS: [(&str, u64); 13] = [
    ("delta", 0x353e_96d7_c0b0_89c2),
    ("table1", 0xcdb3_88c9_88fa_dd28),
    ("table2", 0xe108_8f29_4cd6_55ad),
    ("fig2", 0x19d8_76da_82c2_61b8),
    ("fig3", 0xf3e3_0f1a_dc15_14c2),
    ("fig8", 0xfb6c_3008_e3e6_6922),
    ("fig9", 0x38e0_b74f_4b8c_5d2d),
    ("fig10", 0xd958_1433_3c4a_5f17),
    ("fig11", 0xd411_863f_bcc6_7316),
    ("fig12", 0x5f6f_691b_ad0a_d835),
    ("ablations", 0x3d25_dac2_62f6_25ad),
    ("future_banks", 0xaeef_4a46_893b_27f6),
    ("rfm", 0x445c_fdc1_26a4_02a3),
];

/// Span names of the per-experiment spans, in suite order.
const SPANS: [&str; 13] = [
    "suite.delta_s",
    "suite.table1_s",
    "suite.table2_s",
    "suite.fig2_s",
    "suite.fig3_s",
    "suite.fig8_s",
    "suite.fig9_s",
    "suite.fig10_s",
    "suite.fig11_s",
    "suite.fig12_s",
    "suite.ablations_s",
    "suite.future_banks_s",
    "suite.rfm_s",
];

/// Passes timed at least, however short the budget.
const MIN_PASSES: usize = 3;

fn jobs() -> Vec<ExperimentJob> {
    experiments::suite_with(false, BackendKind::Mono, false)
}

/// One untraced pass, exactly as `fig_all` runs it; returns its seconds.
fn pass(jobs: &[ExperimentJob], out: &mut Outcome) -> f64 {
    let start = Instant::now();
    let figures = SweepRunner::serial().run_all(jobs, |_| {});
    let secs = start.elapsed().as_secs_f64();
    check(&figures, out);
    secs
}

fn check(figures: &[Figure], out: &mut Outcome) {
    out.check(figures.len() == DIGESTS.len(), || {
        format!("suite rendered {} figures, expected 13", figures.len())
    });
    for (fig, (id, want)) in figures.iter().zip(DIGESTS) {
        let got = fnv1a_bytes(FNV_OFFSET, fig.render_text().as_bytes());
        out.check(fig.id == id && got == want, || {
            format!(
                "{} rendered digest {got:#018x}, pinned {id} {want:#018x}",
                fig.id
            )
        });
    }
}

/// One cold pass in a fresh process: the helper behind each `setup_s`
/// sample, since only a new process pays the first pass's costs.
pub fn cold_pass() -> Outcome {
    let mut out = Outcome::default();
    let secs = pass(&jobs(), &mut out);
    out.metric("cold_pass_s", secs, "s");
    out
}

/// Cold passes run in helper processes per untraced run; with this
/// process's own first pass they give `setup_s` its samples.
const COLD_HELPERS: usize = 4;

/// Untraced end-to-end run: `setup_s` is the median of
/// `COLD_HELPERS + 1` cold passes (the last in this process, which is
/// also its warm-up), then warm passes are timed until the budget is
/// spent.
pub fn run(seed: u64, budget: Duration) -> Result<Outcome, String> {
    println!(
        "paper_suite: seed {seed} does not apply: the suite is the paper's fixed configuration"
    );
    let mut out = Outcome::default();
    let mut setup = Vec::new();
    for _ in 0..COLD_HELPERS {
        let mut helper = crate::helper(&["--helper", "cold-pass"])?;
        let secs = helper.metrics.pop().filter(|m| m.name == "cold_pass_s");
        setup.push(secs.ok_or("cold-pass helper reported no time")?.value);
        out.absorb(helper);
    }
    let jobs = jobs();
    setup.push(pass(&jobs, &mut out));

    let start = Instant::now();
    let mut passes = Vec::new();
    while more(start, budget, passes.len(), MIN_PASSES) {
        passes.push(pass(&jobs, &mut out));
    }
    let suite_s = median(&passes);
    println!(
        "paper_suite: suite_s {suite_s:.4} s (median of {} passes, 13 experiments each)",
        passes.len()
    );
    out.metric("ops_per_s", DIGESTS.len() as f64 / suite_s, "1/s");
    out.metric("setup_s", median(&setup), "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    Ok(out)
}

/// Traced run: untraced and traced passes alternate after one warm-up
/// pass. A traced pass records one span per experiment under a root
/// span, and reads the `impact_obs` controller counters around it.
pub fn run_traced(budget: Duration) -> Outcome {
    let mut out = Outcome::default();
    let jobs = jobs();
    pass(&jobs, &mut out);

    let obs = impact_obs::registry();
    let mut tracer = Tracer::new();
    let mut untraced = Vec::new();
    let mut counts = [0u64; 5];
    let start = Instant::now();
    let mut traced: u32 = 0;
    while more(start, budget, untraced.len(), MIN_PASSES) {
        impact_obs::set_enabled(false);
        untraced.push(pass(&jobs, &mut out));

        impact_obs::set_enabled(true);
        let before = controller_counts(obs);
        let root = tracer.open("suite.pass", traced, None);
        let mut figures = Vec::with_capacity(jobs.len());
        for (job, span) in jobs.iter().zip(SPANS) {
            figures.push(tracer.time(span, traced, Some(root), || job.run()));
        }
        tracer.close(root);
        let after = controller_counts(obs);
        for (c, (a, b)) in counts.iter_mut().zip(after.iter().zip(before)) {
            *c = a - b;
        }
        check(&figures, &mut out);
        traced += 1;
    }

    for span in SPANS {
        out.metric(span, median(&tracer.per_pass_sum(span)), "s");
    }
    let names = [
        "suite.ctrl_batches",
        "suite.ctrl_batch_requests",
        "suite.ctrl_segments_serial",
        "suite.ctrl_segments_sparse",
        "suite.ctrl_segments_dense",
    ];
    for (name, count) in names.into_iter().zip(counts) {
        out.metric(name, count as f64, "count");
    }
    tracer.reconcile(&mut out, "paper_suite", "suite.pass", &untraced);
    out
}

/// Controller batch and segment counts since process start.
fn controller_counts(obs: &impact_obs::Registry) -> [u64; 5] {
    let batches = obs.ctrl_batch_size.snapshot();
    [
        batches.count,
        batches.sum,
        obs.ctrl_serial_segments.get(),
        obs.ctrl_sparse_segments.get(),
        obs.ctrl_dense_segments.get(),
    ]
}
