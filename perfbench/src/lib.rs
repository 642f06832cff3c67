//! The repository benchmark: four workloads over the simjoin library's
//! public entry points, timed from outside, with every answer checked.
//!
//! See `README.md` in this directory for the workloads, the metrics, their
//! clocks, and how to run it.

pub mod check;
pub mod joins;
pub mod report;
pub mod serve_churn;

use report::Outcome;
use simjoin::{BatchingConfig, SelfJoinConfig};

/// Host threads the join workloads use: the parallel paths run, and the
/// figures do not depend on how many cores the machine has beyond two.
pub const JOIN_THREADS: usize = 2;

/// Host threads `serve-churn` uses. Its launches are short (tens of
/// milliseconds) and two threads made its run-to-run spread about four
/// times wider on a two-vCPU virtual machine, where each parallel section
/// waits on whichever vCPU the host preempts.
pub const SERVE_THREADS: usize = 1;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Expo2D2M on a 4-device workload-aware fleet (`run_on_fleet`).
    SkewedFleet,
    /// Unif6D2M on one device (`run`).
    Uniform6d,
    /// SW2DA through the hybrid CPU/GPU co-executor (`run_hybrid`).
    ClusteredHybrid,
    /// Open-loop request stream into `ServeSession::handle_line`.
    ServeChurn,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::SkewedFleet,
        Workload::Uniform6d,
        Workload::ClusteredHybrid,
        Workload::ServeChurn,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SkewedFleet => "skewed-fleet",
            Workload::Uniform6d => "uniform-6d",
            Workload::ClusteredHybrid => "clustered-hybrid",
            Workload::ServeChurn => "serve-churn",
        }
    }

    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `(Table I dataset, full-scale point count, ε)`.
    pub fn dataset(self) -> (&'static str, usize, f32) {
        match self {
            Workload::SkewedFleet => ("Expo2D2M", 100_000, 0.1),
            Workload::Uniform6d => ("Unif6D2M", 100_000, 0.6),
            Workload::ClusteredHybrid => ("SW2DA", 80_000, 0.8),
            Workload::ServeChurn => ("Expo2D2M", 20_000, 0.07),
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed of the generated inputs (overrides the dataset's own seed).
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Whether this is the traced, per-layer run.
    pub trace: bool,
    /// Fraction of the full-scale point count to generate (smoke tests).
    pub scale: f64,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1 [--scale F]`.
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut scale = 1.0;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("flag {flag} needs a value"))?;
            let bad = || format!("flag {flag} has an invalid value {value:?}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::by_name(value).ok_or_else(|| {
                        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                        format!("unknown workload {value:?} (one of {})", names.join(", "))
                    })?)
                }
                "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad())?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(bad());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                "--scale" => {
                    scale = value.parse().map_err(|_| bad())?;
                    if !(scale > 0.0 && scale <= 1.0) {
                        return Err(bad());
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
            scale,
        })
    }

    /// The generated point count.
    pub fn points(&self) -> usize {
        let (_, n, _) = self.workload.dataset();
        ((n as f64 * self.scale) as usize).max(200)
    }
}

/// The pinned thread knobs, reported with every run.
#[derive(Debug, Clone, Copy)]
pub struct Threads {
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// `SelfJoinConfig::host_jobs`, SUPER-EGO threads and
    /// `HybridPolicy::jobs`.
    pub jobs: usize,
}

impl Threads {
    /// `min(nproc, JOIN_THREADS or SERVE_THREADS)` workers.
    pub fn pinned(workload: Workload) -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = match workload {
            Workload::ServeChurn => SERVE_THREADS,
            _ => JOIN_THREADS,
        };
        Self {
            nproc,
            jobs: nproc.min(threads),
        }
    }
}

/// The join configuration every workload uses: the paper's optimized
/// kernel (WORKQUEUE + LID-UNICOMP, k = 8) under the experiment driver's
/// batching, with the host thread count pinned instead of read from the
/// `HOST_JOBS` environment variable.
pub fn join_config(epsilon: f32, threads: Threads) -> SelfJoinConfig {
    SelfJoinConfig::optimized(epsilon)
        .with_batching(BatchingConfig {
            batch_result_capacity: 2_000_000,
            max_batches: 8,
            transfer_bandwidth: 400.0e9,
            ..BatchingConfig::default()
        })
        .with_host_jobs(threads.jobs)
}

/// splitmix64: a small seeded generator, so inputs depend on the seed
/// alone.
pub(crate) struct Rng(pub(crate) u64);

impl Rng {
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub(crate) fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub(crate) fn below(&mut self, n: usize) -> u32 {
        (self.next_u64() % n as u64) as u32
    }

    /// Fisher-Yates shuffle.
    pub(crate) fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1) as usize);
        }
    }
}

/// How many times more SW2DA points are drawn than the workload keeps.
const SW_POOL: usize = 4;

/// Generates the workload's dataset from `seed`.
///
/// `skewed-fleet` and `uniform-6d` draw their points with `seed` in place
/// of the Table I seed. SW2DA's seed also places its 24 Gaussian hotspots,
/// and the pair count then swings by tens of percent between seeds, so for
/// `clustered-hybrid` the Table I seed fixes the layout and `seed` picks
/// which `1/SW_POOL` of a larger draw from that mixture the workload
/// keeps. `serve-churn` serves the Table I draw itself, in an order the
/// seed shuffles; its seed mainly drives the request stream, since the
/// tail of a 20k-point exponential draw moved the launch cost by 15 %
/// between seeds.
pub fn dataset<const N: usize>(args: &Args) -> Result<Vec<epsgrid::Point<N>>, String> {
    let (name, _, _) = args.workload.dataset();
    let mut spec =
        sjdata::DatasetSpec::by_name(name).ok_or_else(|| format!("unknown dataset {name}"))?;
    let n = args.points();
    let (pool, resample) = match args.workload {
        Workload::ClusteredHybrid => (SW_POOL * n, true),
        Workload::ServeChurn => (n, true),
        Workload::SkewedFleet | Workload::Uniform6d => {
            spec.seed = args.seed;
            (n, false)
        }
    };
    let mut points = spec
        .generate(pool)
        .as_fixed::<N>()
        .ok_or_else(|| format!("{name} is not {N}-dimensional"))?;
    if resample {
        Rng(args.seed).shuffle(&mut points);
        points.truncate(n);
    }
    Ok(points)
}

/// Runs one workload and returns its outcome (metrics plus failures).
pub fn run(args: &Args, threads: Threads) -> Result<Outcome, String> {
    match args.workload {
        Workload::SkewedFleet | Workload::ClusteredHybrid => {
            joins::run::<2>(args, threads, &dataset::<2>(args)?)
        }
        Workload::Uniform6d => joins::run::<6>(args, threads, &dataset::<6>(args)?),
        Workload::ServeChurn => serve_churn::run(args, threads, dataset::<2>(args)?),
    }
}
