//! The benchmark's workloads: each one names a fixed graph, seeded arrival
//! schedules and the service configuration that replays them. The program
//! under test sees only what these generators produce. README.md gives
//! the reason for each workload.

use std::sync::Arc;

use xbfs_archsim::FaultPlan;
use xbfs_core::{
    prometheus_slo_text, prometheus_text, service_chrome_trace_json, timeseries_json_lines,
    AdaptiveRuntime, BatchCompat, BatchPolicy, CheckpointPolicy, QueryRequest, QueryService,
    ResilienceConfig, ScheduleItem, ServiceConfig, ServiceReport, SloPolicy, SnapshotPolicy,
};
use xbfs_engine::ScrubPolicy;
use xbfs_graph::components::connected_components;
use xbfs_graph::{gen, io, Csr, GraphStats, RmatConfig, RmatGenerator};

use crate::stats::{splitmix64, unit};

/// The committed chaos plans without a device loss, copied so that the
/// benchmark's inputs stay fixed when the test corpus changes.
const CHAOS_PLANS: [&str; 5] = [
    include_str!("../chaos/01-healthy.json"),
    include_str!("../chaos/06-flaky-link.json"),
    include_str!("../chaos/07-timeout-storm.json"),
    include_str!("../chaos/11-stalled-everything.json"),
    include_str!("../chaos/13-bitflip-frontier.json"),
];

/// Every `CHAOS_EVERY`-th query of a chaos workload carries a plan.
const CHAOS_EVERY: u64 = 4;

/// The seed of every workload's graph.
const GRAPH_SEED: u64 = 1;

/// Mixed into the run's seed, and once more per schedule variant.
const SCHEDULE_SALT: u64 = 0x5eed_5c4e_d01e_0001;
const VARIANT_STRIDE: u64 = 0x9e37_79b9_7f4a_7c15;

#[derive(Debug)]
pub enum GraphKind {
    /// Graph 500 R-MAT at SCALE 16, edgefactor 16.
    Rmat16,
    /// `gen::road_like(128, 128, 128 chords)`.
    Road128,
}

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub graph: GraphKind,
    /// Queries in one replay of the schedule.
    pub queries: u64,
    /// Mean simulated arrival rate, queries per second.
    pub rate: f64,
    /// Batching window and lane bound; `None` serves every query solo.
    pub batch: Option<(u32, u32)>,
    /// Checkpoints, scrub, checksums, chaos plans and full telemetry with
    /// every export rendered; otherwise the `xbfs-cli serve` defaults.
    pub hardened: bool,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "serve-rmat16",
        graph: GraphKind::Rmat16,
        queries: 160,
        rate: 400.0,
        batch: None,
        hardened: false,
    },
    Workload {
        name: "burst-rmat16",
        graph: GraphKind::Rmat16,
        queries: 192,
        rate: 5000.0,
        batch: Some((8, 8)),
        hardened: false,
    },
    Workload {
        name: "hardened-road",
        graph: GraphKind::Road128,
        queries: 56,
        rate: 40.0,
        batch: None,
        hardened: true,
    },
];

/// Both service slots and the admission queue bound of every workload.
const CAPACITY: u32 = 2;
const QUEUE_LIMIT: u32 = 8;

/// Telemetry settings of the hardened workload.
const SNAPSHOT_EVERY_S: f64 = 0.05;
const FLIGHT_RECORDER_EVENTS: usize = 256;

impl Workload {
    pub fn by_name(name: &str) -> Result<&'static Workload, String> {
        WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload '{name}' (one of {})", names.join(", "))
        })
    }

    /// The workload's graph. It does not vary with the run's seed: one
    /// R-MAT or road-like instance differs from the next by up to 10 % in
    /// simulated latency and served fraction, which would swamp the
    /// seed-to-seed comparison the benchmark is for.
    /// Median seconds of the host-speed probe on the workload's graph on
    /// the reference VM (2 vCPUs of a shared Intel Xeon host, pinned to
    /// one): `qps` reads as if every replay ran at that speed.
    pub fn probe_reference_s(&self) -> f64 {
        match self.graph {
            GraphKind::Rmat16 => 0.107,
            GraphKind::Road128 => 0.166,
        }
    }

    pub fn graph(&self) -> Csr {
        match self.graph {
            GraphKind::Rmat16 => {
                RmatGenerator::new(RmatConfig::new(16, 16).with_seed(GRAPH_SEED)).csr()
            }
            GraphKind::Road128 => gen::road_like(128, 128, 128, GRAPH_SEED),
        }
    }

    /// Schedule `variant` for `seed` on `csr`: uniform inter-arrival gaps
    /// in `[0.5, 1.5] / rate` and sources drawn uniformly from the largest
    /// connected component, whose vertices all have degree at least one
    /// (the Graph 500 rule). On the hardened workload every fourth query
    /// carries a chaos plan. A timed run replays one variant per round,
    /// so its simulated figures pool several schedules.
    pub fn schedule(
        &self,
        csr: &Csr,
        seed: u64,
        variant: u64,
    ) -> Result<Vec<ScheduleItem>, String> {
        let plans: Vec<FaultPlan> = if self.hardened {
            CHAOS_PLANS
                .iter()
                .map(|text| FaultPlan::from_json(text).map_err(|e| e.to_string()))
                .collect::<Result<_, _>>()?
        } else {
            Vec::new()
        };
        // A source in a two-vertex component would finish in the fixed
        // cost of one level; a few of those dominate the harmonic-mean
        // TEPS and the served fraction of a seed.
        let components = connected_components(csr);
        let sources = components
            .largest()
            .map(|id| components.members(id))
            .filter(|m| m.len() > 1)
            .ok_or("the generated graph has no edges")?;
        let mut rng = seed ^ SCHEDULE_SALT ^ variant.wrapping_mul(VARIANT_STRIDE);
        let mut arrival_s = 0.0f64;
        let mut schedule = Vec::with_capacity(self.queries as usize);
        for id in 0..self.queries {
            arrival_s += (0.5 + unit(&mut rng)) / self.rate;
            let source = sources[(splitmix64(&mut rng) % sources.len() as u64) as usize];
            let mut req = QueryRequest::builder(id, source).arrival(arrival_s);
            if !plans.is_empty() && id % CHAOS_EVERY == 0 {
                let plan = &plans[((id / CHAOS_EVERY) % plans.len() as u64) as usize];
                req = req.fault_plan(plan.clone());
            }
            schedule.push(ScheduleItem::Query(req.build()));
        }
        Ok(schedule)
    }

    /// The per-query failure handling the service applies.
    pub fn resilience(&self) -> ResilienceConfig {
        if self.hardened {
            ResilienceConfig {
                scrub: ScrubPolicy::every_level(),
                checksum_transfers: true,
                ..ResilienceConfig::default_runtime()
            }
        } else {
            ResilienceConfig {
                checkpoint: CheckpointPolicy::disabled(),
                ..ResilienceConfig::default_runtime()
            }
        }
    }

    pub fn service_config(&self) -> ServiceConfig {
        let mut config = ServiceConfig {
            capacity: CAPACITY,
            queue_limit: QUEUE_LIMIT,
            resilience: self.resilience(),
            ..ServiceConfig::default()
        };
        if let Some((window, max_lanes)) = self.batch {
            config.batching = BatchPolicy {
                window,
                max_lanes,
                compat: BatchCompat::default(),
            };
        }
        if self.hardened {
            config.keep_query_traces = true;
            config.snapshot = SnapshotPolicy::every(SNAPSHOT_EVERY_S);
            config.slo = Some(SloPolicy::default());
            config.flight_recorder = FLIGHT_RECORDER_EVENTS;
        }
        config
    }

    /// Render the hardened workload's exports: Prometheus text, the
    /// chrome trace, the time series and the report JSON.
    pub fn render_exports(&self, report: &ServiceReport) -> Exports {
        let mut metrics = prometheus_text(&report.merged_events());
        if let Some(slo) = &report.slo {
            metrics.push_str(&prometheus_slo_text(slo));
        }
        let chrome = service_chrome_trace_json(&report.events, &report.query_traces);
        let series = timeseries_json_lines(&report.timeseries, report.slo.as_ref());
        Exports {
            report_json: report.to_json(),
            other_bytes: metrics.len() + chrome.len() + series.len(),
        }
    }
}

pub struct Exports {
    /// Also the input of the replay digest.
    pub report_json: String,
    /// Bytes of the Prometheus, chrome-trace and time-series exports.
    pub other_bytes: usize,
}

impl Exports {
    pub fn total_bytes(&self) -> usize {
        self.report_json.len() + self.other_bytes
    }
}

/// What every `serve` start pays before the first query: decode the
/// graph, train the switch-point predictor, predict the parameters and
/// build the service.
pub struct Setup {
    pub csr: Arc<Csr>,
    pub service: QueryService,
}

impl Setup {
    pub fn run(workload: &Workload, graph_bytes: &[u8]) -> Result<Self, String> {
        let csr = Arc::new(io::decode_csr(graph_bytes).map_err(|e| e.to_string())?);
        let stats = GraphStats::unknown(&csr);
        let runtime = AdaptiveRuntime::quick_trained();
        let service =
            QueryService::from_runtime(&runtime, csr.clone(), &stats, workload.service_config());
        Ok(Self { csr, service })
    }
}
