//! Step-time breakdown aggregation over recorded spans and counters.
//!
//! [`StepReport`] renders the paper-style decomposition of a training step:
//! compute / negotiate / communication / *exposed* communication per rank,
//! with min/mean/max skew across ranks, a per-layer rollup, and the counter
//! summaries (regcache hit rate, fusion-buffer utilization, transfer-path
//! mix, scratch-pool reuse) that PAPER.md §IV–V's optimizations are judged
//! by.
//!
//! Durations are computed by **interval union** per category set, so nested
//! spans (an `mpi` algorithm span inside a `horovod` allreduce span, a GEMM
//! inside a layer forward) are not double-counted. Overlap between compute
//! and communication is only measured between spans of the same [`Clock`]
//! domain; mixing virtual and wall timestamps would be meaningless.

use std::collections::{BTreeMap, BTreeSet};

use dlsr_hvprof::Log2Histogram;
use serde::{Deserialize, Serialize};

use crate::{cat, Clock, TraceEvent};

/// Counter keys shared between instrumentation sites and this report.
pub mod keys {
    pub const REGCACHE_HITS: &str = "regcache.hits";
    pub const REGCACHE_MISSES: &str = "regcache.misses";
    pub const REGCACHE_EVICTIONS: &str = "regcache.evictions";
    pub const FUSION_GROUPS: &str = "fusion.groups";
    pub const FUSION_PACKED_BYTES: &str = "fusion.packed_bytes";
    pub const FUSION_CAPACITY_BYTES: &str = "fusion.capacity_bytes";
    pub const NET_IPC: &str = "net.ipc_transfers";
    pub const NET_STAGED: &str = "net.staged_transfers";
    pub const NET_RDMA: &str = "net.rdma_transfers";
    pub const NET_EAGER: &str = "net.eager_transfers";
    pub const NET_LOCAL: &str = "net.local_transfers";
    pub const SCRATCH_TAKES: &str = "scratch.takes";
    pub const SCRATCH_ALLOCS: &str = "scratch.alloc_events";
    pub const GPU_IPC_OPENS: &str = "gpu.ipc_opens";
    pub const GPU_IPC_CACHED: &str = "gpu.ipc_cached";
    pub const FAULT_RETRIES: &str = "faults.retries";
    pub const FAULT_LOST: &str = "faults.lost_messages";
    pub const FAULT_CORRUPT: &str = "faults.corrupt_messages";
    pub const FAULT_BACKOFF_SECONDS: &str = "faults.backoff_seconds";
    pub const FAULT_DEGRADED_SECONDS: &str = "faults.degraded_seconds";
    pub const FAULT_CHECKPOINTS: &str = "faults.checkpoints";
    pub const FAULT_CHECKPOINT_SECONDS: &str = "faults.checkpoint_seconds";
    pub const FAULT_RESTORES: &str = "faults.restores";
    /// Completed MPI-level collective operations (allreduce, bcast,
    /// barrier) — the denominator `dlsr analyze` sanity-checks its
    /// happens-before edge count against.
    pub const MPI_COLLECTIVES: &str = "mpi.collectives";
    /// Bytes a gradient allreduce puts on the wire under its chosen
    /// [`WireFormat`] (per rank, per collective: the encoded size of the
    /// full buffer — a compression-ratio counter, not link traffic).
    ///
    /// [`WireFormat`]: https://docs.rs/dlsr-mpi
    pub const WIRE_BYTES: &str = "mpi.wire_bytes";
    /// The same buffers' dense f32 size: `wire_dense_bytes / wire_bytes`
    /// is the achieved wire compression ratio.
    pub const WIRE_DENSE_BYTES: &str = "mpi.wire_dense_bytes";
    /// Dense payloads a gradient allreduce encoded (allocated) — the rest
    /// of its messages forward what the rank received. One per rank on a
    /// ring or recursive doubling, one per sub-chunk of the first block on
    /// the pipelined ring.
    pub const WIRE_ENCODES: &str = "mpi.wire_encodes";
    /// Ring-wave cells the driven engine evaluated (a cell is one hop of a
    /// costs-only ring: a send, its receive and the reduce charge): `2·p·(p−1)`
    /// per wave over `p` participants, whether the wave ran cell by cell or
    /// in closed form — the simulator's own host-cost unit.
    pub const WAVE_CELLS: &str = "mpi.wave_cells";
    /// Synthetic images a `Div2kSynthetic` rendered (HR + its LR). Each
    /// image is rendered on its first draw and kept, so a run renders at
    /// most one per image of each dataset it builds.
    pub const IMAGES_RENDERED: &str = "data.images_rendered";
    /// Prefix of the per-microkernel tile counters the GEMM engine emits
    /// (`gemm.variant.<kernel>` — e.g. `gemm.variant.avx512_8x32`); the
    /// suffix is the kernel name the shape-keyed selector resolved to.
    pub const GEMM_VARIANT_PREFIX: &str = "gemm.variant.";
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct MinMeanMax {
    pub min: f64,
    pub mean: f64,
    pub max: f64,
}

impl MinMeanMax {
    pub fn of(xs: impl IntoIterator<Item = f64>) -> Self {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0;
        let mut n = 0usize;
        for x in xs {
            min = min.min(x);
            max = max.max(x);
            sum += x;
            n += 1;
        }
        if n == 0 {
            return Self::default();
        }
        Self {
            min,
            mean: sum / n as f64,
            max,
        }
    }
}

/// Time decomposition for one rank, seconds.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RankBreakdown {
    pub rank: usize,
    /// Union of compute-category spans (`compute`, `tensor.*`, `nn.*`).
    pub compute_s: f64,
    /// Union of `negotiate` spans.
    pub negotiate_s: f64,
    /// Union of communication-category spans (`allreduce`, `mpi`, `net`,
    /// `horovod.fusion`).
    pub comm_s: f64,
    /// Communication time hidden under compute (same-clock overlap).
    pub overlap_s: f64,
    /// Communication time *not* hidden under compute: `comm_s - overlap_s`.
    pub exposed_comm_s: f64,
    /// `exposed_comm_s / comm_s` — 0.0 means fully hidden communication,
    /// 1.0 means fully exposed (and 0.0 when there was no communication).
    #[serde(default)]
    pub exposed_frac: f64,
    /// Number of spans recorded by this rank.
    pub spans: usize,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CategoryStat {
    pub calls: usize,
    /// Sum of span durations (not a union — nested calls accumulate).
    pub seconds: f64,
}

/// Per-layer forward/backward rollup from `nn.forward` / `nn.backward`
/// spans, all ranks combined.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LayerStat {
    pub name: String,
    pub forward_s: f64,
    pub backward_s: f64,
    pub calls: usize,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RegcacheSummary {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub hit_rate: f64,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct FusionSummary {
    pub groups: u64,
    pub packed_bytes: u64,
    /// `groups × fusion threshold`: the bytes the fusion buffers could have
    /// carried.
    pub capacity_bytes: u64,
    /// `packed_bytes / capacity_bytes` (0 when no groups were packed).
    pub utilization: f64,
}

/// How many point-to-point transfers took each transport path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TransferMix {
    pub ipc: u64,
    pub staged: u64,
    pub rdma: u64,
    pub eager: u64,
    pub local: u64,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ScratchSummary {
    pub takes: u64,
    pub alloc_events: u64,
    /// Fraction of takes served without touching the allocator.
    pub reuse_rate: f64,
}

/// Fault-injection and graceful-degradation activity (all zeros — and the
/// render line suppressed — on fault-free runs and builds without the
/// `faults` feature).
///
/// `Deserialize` is hand-written so reports recorded before this summary
/// existed (no `faults` key → `Null`) lift to the all-zero default.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct FaultSummary {
    /// Retransmissions after injected loss/corruption.
    pub retries: u64,
    /// Attempts dropped in flight.
    pub lost: u64,
    /// Attempts that failed their integrity check.
    pub corrupt: u64,
    /// Virtual seconds spent in retry timeouts/backoff.
    pub backoff_s: f64,
    /// Extra virtual seconds charged inside degraded-link windows.
    pub degraded_s: f64,
    /// Parameter/optimizer snapshots taken.
    pub checkpoints: u64,
    /// Virtual seconds charged for taking snapshots.
    pub checkpoint_s: f64,
    /// Restore-and-continue recoveries performed.
    pub restores: u64,
}

impl Deserialize for FaultSummary {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        if v.is_null() {
            return Ok(Self::default());
        }
        let obj = v
            .as_object()
            .ok_or_else(|| serde::Error::msg("expected object for FaultSummary"))?;
        let num = |k: &str| obj.get(k).and_then(|x| x.as_f64()).unwrap_or(0.0);
        Ok(FaultSummary {
            retries: num("retries") as u64,
            lost: num("lost") as u64,
            corrupt: num("corrupt") as u64,
            backoff_s: num("backoff_s"),
            degraded_s: num("degraded_s"),
            checkpoints: num("checkpoints") as u64,
            checkpoint_s: num("checkpoint_s"),
            restores: num("restores") as u64,
        })
    }
}

/// Wire-format activity of the gradient allreduces: bytes actually put on
/// the wire under the chosen [`WireFormat`]s vs the dense f32 bytes they
/// stand in for (all zeros — and the render line suppressed — when every
/// collective ran plain f32 or no gradient allreduce was traced).
///
/// `Deserialize` is hand-written so reports recorded before compressed
/// wire formats existed (no `wire` key → `Null`) lift to the all-zero
/// default.
///
/// [`WireFormat`]: https://docs.rs/dlsr-mpi
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct WireSummary {
    /// Encoded bytes across all traced gradient allreduces
    /// ([`keys::WIRE_BYTES`]).
    pub wire_bytes: u64,
    /// Dense f32 bytes the same buffers would have occupied
    /// ([`keys::WIRE_DENSE_BYTES`]).
    pub dense_bytes: u64,
    /// `dense_bytes / wire_bytes` — the achieved wire compression ratio
    /// (1.0 for pure f32 traffic, 0.0 when nothing was traced).
    pub ratio: f64,
}

impl Deserialize for WireSummary {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        if v.is_null() {
            return Ok(Self::default());
        }
        let obj = v
            .as_object()
            .ok_or_else(|| serde::Error::msg("expected object for WireSummary"))?;
        let num = |k: &str| obj.get(k).and_then(|x| x.as_f64()).unwrap_or(0.0);
        Ok(WireSummary {
            wire_bytes: num("wire_bytes") as u64,
            dense_bytes: num("dense_bytes") as u64,
            ratio: num("ratio"),
        })
    }
}

/// Min/mean/max across ranks for the headline columns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StepSkew {
    pub compute: MinMeanMax,
    pub comm: MinMeanMax,
    pub exposed_comm: MinMeanMax,
}

/// Span-duration percentiles for one category, answered from a
/// [`Log2Histogram`] built over every span of that category at report
/// time — the sketch itself never sits on the recording hot path, so the
/// zero-cost contract is untouched.
///
/// `Deserialize` is hand-written (the derive ignores field defaults) so
/// reports written before the sketch existed lift from `Null` to zeros.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct DurationStats {
    /// Spans aggregated.
    pub count: u64,
    /// Median span duration, seconds.
    pub p50_s: f64,
    /// 95th-percentile span duration, seconds.
    pub p95_s: f64,
    /// 99th-percentile span duration, seconds.
    pub p99_s: f64,
    /// Exact longest span, seconds.
    pub max_s: f64,
}

impl Deserialize for DurationStats {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        if v.is_null() {
            return Ok(Self::default());
        }
        let obj = v
            .as_object()
            .ok_or_else(|| serde::Error::msg("expected object for DurationStats"))?;
        let num = |k: &str| obj.get(k).and_then(|x| x.as_f64()).unwrap_or(0.0);
        Ok(DurationStats {
            count: num("count") as u64,
            p50_s: num("p50_s"),
            p95_s: num("p95_s"),
            p99_s: num("p99_s"),
            max_s: num("max_s"),
        })
    }
}

impl DurationStats {
    /// Summarize a sketch into the report row.
    pub fn from_hist(h: &Log2Histogram) -> Self {
        DurationStats {
            count: h.count(),
            p50_s: h.percentile(0.50),
            p95_s: h.percentile(0.95),
            p99_s: h.percentile(0.99),
            max_s: h.max(),
        }
    }
}

/// Per-category [`DurationStats`], keyed by span category. A newtype so
/// the whole map can lift from `Null` (reports written before PR 7).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Percentiles(pub BTreeMap<String, DurationStats>);

impl Serialize for Percentiles {
    fn to_value(&self) -> serde::Value {
        self.0.to_value()
    }
}

impl Deserialize for Percentiles {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        if v.is_null() {
            return Ok(Self::default());
        }
        Ok(Percentiles(BTreeMap::from_value(v)?))
    }
}

/// Aggregated step-time breakdown report. Build with [`StepReport::build`],
/// export with [`StepReport::to_json`], print with [`StepReport::render`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StepReport {
    pub scenario: String,
    pub world: usize,
    pub steps: usize,
    /// Mean measured (virtual) step time supplied by the harness, seconds.
    pub step_time_s: f64,
    pub ranks: Vec<RankBreakdown>,
    pub skew: StepSkew,
    pub layers: Vec<LayerStat>,
    pub categories: BTreeMap<String, CategoryStat>,
    pub regcache: RegcacheSummary,
    pub fusion: FusionSummary,
    pub transfers: TransferMix,
    pub scratch: ScratchSummary,
    /// Fault-injection activity (reports written before this field existed
    /// deserialize with all zeros — see [`FaultSummary`]'s `Deserialize`).
    pub faults: FaultSummary,
    /// Wire-compression activity of the gradient allreduces (reports
    /// written before compressed wire formats existed deserialize with all
    /// zeros — see [`WireSummary`]'s `Deserialize`).
    pub wire: WireSummary,
    /// Microkernel-variant tile counts from the `gemm.variant.*` counters:
    /// which SIMD kernel served how many register tiles this run. Empty for
    /// reports written before the SIMD engine existed.
    #[serde(default)]
    pub gemm_variants: BTreeMap<String, u64>,
    /// p50/p95/p99 span durations per category, answered from
    /// deterministic [`Log2Histogram`] sketches built at report time.
    /// Empty for reports written before PR 7 (`Null` lifts to empty).
    pub percentiles: Percentiles,
    /// Cross-rank critical-path attribution, when an analysis pass ran
    /// (`dlsr analyze`, or any harness calling
    /// [`StepReport::attach_critical_path`]). `None` for plain profiles
    /// and for reports written before PR 7.
    pub critical_path: Option<crate::analyze::CritPath>,
    /// Raw counter/gauge snapshot the summaries were derived from.
    pub counters: BTreeMap<String, f64>,
}

/// Merge possibly-overlapping `(start, end)` intervals into a disjoint,
/// sorted list.
pub(crate) fn union_intervals(mut iv: Vec<(f64, f64)>) -> Vec<(f64, f64)> {
    iv.retain(|(s, e)| e > s);
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut out: Vec<(f64, f64)> = Vec::with_capacity(iv.len());
    for (s, e) in iv {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

fn union_len(iv: &[(f64, f64)]) -> f64 {
    iv.iter().map(|(s, e)| e - s).sum()
}

/// Total length of the intersection of two disjoint sorted interval lists.
fn intersect_len(a: &[(f64, f64)], b: &[(f64, f64)]) -> f64 {
    let (mut i, mut j) = (0, 0);
    let mut total = 0.0;
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if hi > lo {
            total += hi - lo;
        }
        if a[i].1 < b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}

fn counter_u64(counters: &BTreeMap<String, f64>, key: &str) -> u64 {
    counters.get(key).copied().unwrap_or(0.0).max(0.0) as u64
}

impl StepReport {
    /// Aggregate spans and a counter snapshot into a report. Contextual
    /// fields (`scenario`, `steps`, `step_time_s`) are filled via
    /// [`StepReport::with_context`]; `world` defaults to the number of
    /// distinct ranks seen.
    pub fn build(events: &[TraceEvent], counters: &BTreeMap<String, f64>) -> Self {
        let ranks_seen: BTreeSet<usize> = events.iter().map(|e| e.rank).collect();
        let mut ranks = Vec::with_capacity(ranks_seen.len());
        for &rank in &ranks_seen {
            let mut compute_s = 0.0;
            let mut negotiate_s = 0.0;
            let mut comm_s = 0.0;
            let mut overlap_s = 0.0;
            let mut spans = 0usize;
            for clock in [Clock::Virtual, Clock::Wall] {
                let of = |set: &[&str]| -> Vec<(f64, f64)> {
                    union_intervals(
                        events
                            .iter()
                            .filter(|e| {
                                e.rank == rank && e.clock == clock && set.contains(&&*e.cat)
                            })
                            .map(|e| (e.start_s, e.end_s))
                            .collect(),
                    )
                };
                let compute = of(cat::COMPUTE_SET);
                let comm = of(cat::COMM_SET);
                compute_s += union_len(&compute);
                comm_s += union_len(&comm);
                overlap_s += intersect_len(&compute, &comm);
                negotiate_s += union_len(&of(&[cat::NEGOTIATE]));
            }
            spans += events.iter().filter(|e| e.rank == rank).count();
            let exposed_comm_s = (comm_s - overlap_s).max(0.0);
            ranks.push(RankBreakdown {
                rank,
                compute_s,
                negotiate_s,
                comm_s,
                overlap_s,
                exposed_comm_s,
                exposed_frac: if comm_s > 0.0 {
                    exposed_comm_s / comm_s
                } else {
                    0.0
                },
                spans,
            });
        }

        let skew = StepSkew {
            compute: MinMeanMax::of(ranks.iter().map(|r| r.compute_s)),
            comm: MinMeanMax::of(ranks.iter().map(|r| r.comm_s)),
            exposed_comm: MinMeanMax::of(ranks.iter().map(|r| r.exposed_comm_s)),
        };

        let mut categories: BTreeMap<String, CategoryStat> = BTreeMap::new();
        for e in events {
            let c = categories.entry(e.cat.to_string()).or_default();
            c.calls += 1;
            c.seconds += e.dur_s();
        }

        let mut layer_map: BTreeMap<String, LayerStat> = BTreeMap::new();
        for e in events {
            let fwd = e.cat == cat::NN_FWD;
            if !fwd && e.cat != cat::NN_BWD {
                continue;
            }
            let l = layer_map
                .entry(e.name.clone())
                .or_insert_with(|| LayerStat {
                    name: e.name.clone(),
                    ..Default::default()
                });
            if fwd {
                l.forward_s += e.dur_s();
            } else {
                l.backward_s += e.dur_s();
            }
            l.calls += 1;
        }

        let hits = counter_u64(counters, keys::REGCACHE_HITS);
        let misses = counter_u64(counters, keys::REGCACHE_MISSES);
        let regcache = RegcacheSummary {
            hits,
            misses,
            evictions: counter_u64(counters, keys::REGCACHE_EVICTIONS),
            hit_rate: if hits + misses > 0 {
                hits as f64 / (hits + misses) as f64
            } else {
                0.0
            },
        };

        let packed = counter_u64(counters, keys::FUSION_PACKED_BYTES);
        let capacity = counter_u64(counters, keys::FUSION_CAPACITY_BYTES);
        let fusion = FusionSummary {
            groups: counter_u64(counters, keys::FUSION_GROUPS),
            packed_bytes: packed,
            capacity_bytes: capacity,
            utilization: if capacity > 0 {
                packed as f64 / capacity as f64
            } else {
                0.0
            },
        };

        let transfers = TransferMix {
            ipc: counter_u64(counters, keys::NET_IPC),
            staged: counter_u64(counters, keys::NET_STAGED),
            rdma: counter_u64(counters, keys::NET_RDMA),
            eager: counter_u64(counters, keys::NET_EAGER),
            local: counter_u64(counters, keys::NET_LOCAL),
        };

        let takes = counter_u64(counters, keys::SCRATCH_TAKES);
        let allocs = counter_u64(counters, keys::SCRATCH_ALLOCS);
        let scratch = ScratchSummary {
            takes,
            alloc_events: allocs,
            reuse_rate: if takes > 0 {
                1.0 - (allocs.min(takes) as f64 / takes as f64)
            } else {
                0.0
            },
        };

        let gemm_variants: BTreeMap<String, u64> = counters
            .iter()
            .filter_map(|(key, &v)| {
                key.strip_prefix(keys::GEMM_VARIANT_PREFIX)
                    .map(|kernel| (kernel.to_string(), v.max(0.0) as u64))
            })
            .collect();

        let mut hists: BTreeMap<String, Log2Histogram> = BTreeMap::new();
        for e in events {
            hists
                .entry(e.cat.to_string())
                .or_default()
                .record(e.dur_s());
        }
        let percentiles = Percentiles(
            hists
                .iter()
                .map(|(c, h)| (c.clone(), DurationStats::from_hist(h)))
                .collect(),
        );

        let fsec = |key: &str| counters.get(key).copied().unwrap_or(0.0).max(0.0);
        let faults = FaultSummary {
            retries: counter_u64(counters, keys::FAULT_RETRIES),
            lost: counter_u64(counters, keys::FAULT_LOST),
            corrupt: counter_u64(counters, keys::FAULT_CORRUPT),
            backoff_s: fsec(keys::FAULT_BACKOFF_SECONDS),
            degraded_s: fsec(keys::FAULT_DEGRADED_SECONDS),
            checkpoints: counter_u64(counters, keys::FAULT_CHECKPOINTS),
            checkpoint_s: fsec(keys::FAULT_CHECKPOINT_SECONDS),
            restores: counter_u64(counters, keys::FAULT_RESTORES),
        };

        let wire_bytes = counter_u64(counters, keys::WIRE_BYTES);
        let dense_bytes = counter_u64(counters, keys::WIRE_DENSE_BYTES);
        let wire = WireSummary {
            wire_bytes,
            dense_bytes,
            ratio: if wire_bytes > 0 {
                dense_bytes as f64 / wire_bytes as f64
            } else {
                0.0
            },
        };

        StepReport {
            scenario: String::new(),
            world: ranks.len(),
            steps: 0,
            step_time_s: 0.0,
            ranks,
            skew,
            layers: layer_map.into_values().collect(),
            categories,
            regcache,
            fusion,
            transfers,
            scratch,
            faults,
            wire,
            gemm_variants,
            percentiles,
            critical_path: None,
            counters: counters.clone(),
        }
    }

    /// Attach a critical-path analysis computed over the same trace (see
    /// [`crate::analyze::critical_path`]).
    pub fn attach_critical_path(&mut self, cp: crate::analyze::CritPath) {
        self.critical_path = Some(cp);
    }

    pub fn with_context(
        mut self,
        scenario: &str,
        world: usize,
        steps: usize,
        step_time_s: f64,
    ) -> Self {
        self.scenario = scenario.to_string();
        self.world = world;
        self.steps = steps;
        self.step_time_s = step_time_s;
        self
    }

    /// Override the regcache summary with authoritative per-`Comm` stats
    /// (counter-derived values can undercount when tracing was off for part
    /// of the run).
    pub fn set_regcache(&mut self, hits: u64, misses: u64, evictions: u64) {
        self.regcache = RegcacheSummary {
            hits,
            misses,
            evictions,
            hit_rate: if hits + misses > 0 {
                hits as f64 / (hits + misses) as f64
            } else {
                0.0
            },
        };
    }

    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("StepReport serializes")
    }

    /// Paper-style text rendering of the breakdown.
    pub fn render(&self) -> String {
        let ms = |s: f64| s * 1e3;
        let mut out = String::new();
        out.push_str(&format!(
            "step breakdown · scenario={} world={} steps={} step_time={:.3} ms\n",
            if self.scenario.is_empty() {
                "?"
            } else {
                &self.scenario
            },
            self.world,
            self.steps,
            ms(self.step_time_s),
        ));
        out.push_str(
            "rank |  compute ms | negotiate ms |    comm ms | overlap ms | exposed ms | exposed % | spans\n",
        );
        for r in &self.ranks {
            out.push_str(&format!(
                "{:>4} | {:>11.3} | {:>12.3} | {:>10.3} | {:>10.3} | {:>10.3} | {:>9.1} | {:>5}\n",
                r.rank,
                ms(r.compute_s),
                ms(r.negotiate_s),
                ms(r.comm_s),
                ms(r.overlap_s),
                ms(r.exposed_comm_s),
                r.exposed_frac * 100.0,
                r.spans,
            ));
        }
        out.push_str(&format!(
            "skew | compute {:.3}/{:.3}/{:.3} ms | comm {:.3}/{:.3}/{:.3} ms | exposed {:.3}/{:.3}/{:.3} ms (min/mean/max)\n",
            ms(self.skew.compute.min),
            ms(self.skew.compute.mean),
            ms(self.skew.compute.max),
            ms(self.skew.comm.min),
            ms(self.skew.comm.mean),
            ms(self.skew.comm.max),
            ms(self.skew.exposed_comm.min),
            ms(self.skew.exposed_comm.mean),
            ms(self.skew.exposed_comm.max),
        ));
        if !self.layers.is_empty() {
            out.push_str("layer                        | forward ms | backward ms | calls\n");
            let mut layers: Vec<&LayerStat> = self.layers.iter().collect();
            layers.sort_by(|a, b| {
                (b.forward_s + b.backward_s).total_cmp(&(a.forward_s + a.backward_s))
            });
            for l in layers {
                out.push_str(&format!(
                    "{:<28} | {:>10.3} | {:>11.3} | {:>5}\n",
                    l.name,
                    ms(l.forward_s),
                    ms(l.backward_s),
                    l.calls,
                ));
            }
        }
        out.push_str(&format!(
            "regcache: {} hits / {} misses / {} evictions (hit rate {:.1}%)\n",
            self.regcache.hits,
            self.regcache.misses,
            self.regcache.evictions,
            self.regcache.hit_rate * 100.0,
        ));
        out.push_str(&format!(
            "fusion: {} groups, {:.2} MB packed, utilization {:.1}%\n",
            self.fusion.groups,
            self.fusion.packed_bytes as f64 / 1e6,
            self.fusion.utilization * 100.0,
        ));
        out.push_str(&format!(
            "transfers: ipc={} staged={} rdma={} eager={} local={}\n",
            self.transfers.ipc,
            self.transfers.staged,
            self.transfers.rdma,
            self.transfers.eager,
            self.transfers.local,
        ));
        out.push_str(&format!(
            "scratch: {} takes, {} alloc events (reuse {:.1}%)\n",
            self.scratch.takes,
            self.scratch.alloc_events,
            self.scratch.reuse_rate * 100.0,
        ));
        if !self.gemm_variants.is_empty() {
            let total: u64 = self.gemm_variants.values().sum();
            // Deterministic presentation for golden-file diffing: busiest
            // kernel first, ties broken by name, and a fixed one-decimal
            // percentage of the (printed) tile total.
            let mut variants: Vec<(&String, u64)> =
                self.gemm_variants.iter().map(|(k, &t)| (k, t)).collect();
            variants.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
            let mix = variants
                .iter()
                .map(|(kernel, tiles)| {
                    format!(
                        "{kernel}={tiles} ({:.1}%)",
                        if total > 0 {
                            *tiles as f64 / total as f64 * 100.0
                        } else {
                            0.0
                        }
                    )
                })
                .collect::<Vec<_>>()
                .join(" ");
            out.push_str(&format!("gemm kernels ({total} register tiles): {mix}\n"));
        }
        if !self.percentiles.0.is_empty() {
            out.push_str(
                "category latency     |  calls |   p50 ms |   p95 ms |   p99 ms |   max ms\n",
            );
            for (c, d) in &self.percentiles.0 {
                out.push_str(&format!(
                    "{:<20} | {:>6} | {:>8.3} | {:>8.3} | {:>8.3} | {:>8.3}\n",
                    c,
                    d.count,
                    ms(d.p50_s),
                    ms(d.p95_s),
                    ms(d.p99_s),
                    ms(d.max_s),
                ));
            }
        }
        if self.wire != WireSummary::default() {
            out.push_str(&format!(
                "wire: {:.2} MB on the wire for {:.2} MB dense f32 (compression {:.2}x)\n",
                self.wire.wire_bytes as f64 / 1e6,
                self.wire.dense_bytes as f64 / 1e6,
                self.wire.ratio,
            ));
        }
        if self.faults != FaultSummary::default() {
            out.push_str(&format!(
                "faults: {} retries ({} lost, {} corrupt), backoff {:.3} ms, degraded {:.3} ms, \
                 {} checkpoints ({:.3} ms), {} restores\n",
                self.faults.retries,
                self.faults.lost,
                self.faults.corrupt,
                ms(self.faults.backoff_s),
                ms(self.faults.degraded_s),
                self.faults.checkpoints,
                ms(self.faults.checkpoint_s),
                self.faults.restores,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Remove `"key":{...},` from a compact JSON encoding, simulating a
    /// report written before the field existed.
    fn strip_object_key(compact: &str, key: &str) -> String {
        let start = compact.find(&format!("\"{key}\":")).unwrap();
        let obj_start = start + compact[start..].find('{').unwrap();
        let mut depth = 0usize;
        let mut end = obj_start;
        for (i, c) in compact[obj_start..].char_indices() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = obj_start + i + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        let rest = compact[end..].strip_prefix(',').unwrap_or(&compact[end..]);
        format!("{}{}", &compact[..start], rest)
    }

    fn ev(name: &str, cat_: &'static str, rank: usize, s: f64, e: f64, clock: Clock) -> TraceEvent {
        TraceEvent {
            name: name.into(),
            cat: cat_.into(),
            rank,
            start_s: s,
            end_s: e,
            clock,
        }
    }

    #[test]
    fn interval_union_merges_nested_and_adjacent() {
        let u = union_intervals(vec![(0.0, 2.0), (1.0, 1.5), (2.0, 3.0), (5.0, 6.0)]);
        assert_eq!(u, vec![(0.0, 3.0), (5.0, 6.0)]);
        assert!((union_len(&u) - 4.0).abs() < 1e-12);
        let a = union_intervals(vec![(0.0, 4.0)]);
        let b = union_intervals(vec![(1.0, 2.0), (3.0, 5.0)]);
        assert!((intersect_len(&a, &b) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn breakdown_does_not_double_count_nested_spans() {
        // Compute 0..10; an allreduce 4..8 with a nested mpi span 4..8 and a
        // net span 5..7: comm union must be 4 s, fully overlapped.
        let events = vec![
            ev("fwd", cat::COMPUTE, 0, 0.0, 10.0, Clock::Virtual),
            ev("ar[0]", cat::ALLREDUCE, 0, 4.0, 8.0, Clock::Virtual),
            ev("ring", cat::MPI, 0, 4.0, 8.0, Clock::Virtual),
            ev("wire", cat::NET, 0, 5.0, 7.0, Clock::Virtual),
            ev("tail", cat::ALLREDUCE, 0, 10.0, 11.0, Clock::Virtual),
        ];
        let rep = StepReport::build(&events, &BTreeMap::new());
        let r = &rep.ranks[0];
        assert!((r.compute_s - 10.0).abs() < 1e-9);
        assert!((r.comm_s - 5.0).abs() < 1e-9);
        assert!((r.overlap_s - 4.0).abs() < 1e-9);
        assert!((r.exposed_comm_s - 1.0).abs() < 1e-9);
        assert!((r.exposed_frac - 0.2).abs() < 1e-9);
    }

    #[test]
    fn launch_markers_do_not_count_as_communication() {
        // An allreduce.launch wall span marks where the overlapped engine
        // fired a group; it must not inflate comm or compute time.
        let events = vec![
            ev("bwd", cat::NN_BWD, 0, 0.0, 10.0, Clock::Wall),
            ev("launch[g0]", cat::AR_LAUNCH, 0, 3.0, 3.1, Clock::Wall),
            ev("ar[g0]", cat::ALLREDUCE, 0, 1.0, 2.0, Clock::Virtual),
        ];
        let rep = StepReport::build(&events, &BTreeMap::new());
        let r = &rep.ranks[0];
        assert!((r.compute_s - 10.0).abs() < 1e-9);
        assert!((r.comm_s - 1.0).abs() < 1e-9);
        assert!((r.exposed_frac - 1.0).abs() < 1e-9);
    }

    #[test]
    fn wall_and_virtual_domains_never_overlap() {
        // A wall-clock layer span and a virtual comm span occupying the
        // "same" numeric range must not count as hidden communication.
        let events = vec![
            ev("conv1", cat::NN_FWD, 0, 0.0, 10.0, Clock::Wall),
            ev("ar[0]", cat::ALLREDUCE, 0, 2.0, 6.0, Clock::Virtual),
        ];
        let rep = StepReport::build(&events, &BTreeMap::new());
        let r = &rep.ranks[0];
        assert!((r.compute_s - 10.0).abs() < 1e-9);
        assert!((r.comm_s - 4.0).abs() < 1e-9);
        assert_eq!(r.overlap_s, 0.0);
        assert!((r.exposed_comm_s - 4.0).abs() < 1e-9);
    }

    #[test]
    fn counter_summaries_and_json_round_trip() {
        let mut counters = BTreeMap::new();
        counters.insert(keys::REGCACHE_HITS.to_string(), 90.0);
        counters.insert(keys::REGCACHE_MISSES.to_string(), 10.0);
        counters.insert(keys::FUSION_GROUPS.to_string(), 2.0);
        counters.insert(keys::FUSION_PACKED_BYTES.to_string(), 32e6);
        counters.insert(keys::FUSION_CAPACITY_BYTES.to_string(), 128e6);
        counters.insert(keys::NET_IPC.to_string(), 7.0);
        counters.insert(keys::NET_STAGED.to_string(), 3.0);
        counters.insert(keys::SCRATCH_TAKES.to_string(), 100.0);
        counters.insert(keys::SCRATCH_ALLOCS.to_string(), 25.0);
        counters.insert(format!("{}avx512_8x32", keys::GEMM_VARIANT_PREFIX), 300.0);
        counters.insert(format!("{}scalar", keys::GEMM_VARIANT_PREFIX), 100.0);
        counters.insert(format!("{}zmm_tail", keys::GEMM_VARIANT_PREFIX), 600.0);
        let events = vec![
            ev("conv1", cat::NN_FWD, 0, 0.0, 1.0, Clock::Wall),
            ev("conv1", cat::NN_BWD, 0, 1.0, 3.0, Clock::Wall),
            ev("conv1", cat::NN_FWD, 1, 0.0, 1.5, Clock::Wall),
        ];
        let rep = StepReport::build(&events, &counters).with_context("edsr", 2, 4, 0.25);
        assert_eq!(rep.world, 2);
        assert!((rep.regcache.hit_rate - 0.9).abs() < 1e-12);
        assert!((rep.fusion.utilization - 0.25).abs() < 1e-12);
        assert_eq!(rep.transfers.ipc, 7);
        assert!((rep.scratch.reuse_rate - 0.75).abs() < 1e-12);
        assert_eq!(rep.layers.len(), 1);
        assert_eq!(rep.layers[0].calls, 3);
        assert!((rep.skew.compute.max - 2.0 - 1.0).abs() < 1e-9);

        assert_eq!(rep.gemm_variants.get("avx512_8x32"), Some(&300));
        assert_eq!(rep.gemm_variants.get("scalar"), Some(&100));

        let back: StepReport = serde_json::from_str(&rep.to_json()).unwrap();
        assert_eq!(back, rep);
        let text = rep.render();
        assert!(text.contains("hit rate 90.0%"));
        assert!(text.contains("utilization 25.0%"));
        // Deterministic kernel-mix line: busiest kernel first regardless
        // of its (alphabetically last) name, with the tile total printed.
        assert!(
            text.contains(
                "gemm kernels (1000 register tiles): zmm_tail=600 (60.0%) \
                 avx512_8x32=300 (30.0%) scalar=100 (10.0%)"
            ),
            "{text}"
        );
        // Per-category span-duration percentiles are derived at build
        // time; nn.forward saw spans of 1.0 s / 1.5 s → max is exact.
        let fwd = rep.percentiles.0.get(cat::NN_FWD).unwrap();
        assert_eq!(fwd.count, 2);
        assert!((fwd.max_s - 1.5).abs() < 1e-12);
        assert!(text.contains("category latency"), "{text}");
        // fault-free run: the faults line is suppressed entirely
        assert!(!text.contains("faults:"));
    }

    #[test]
    fn wire_summary_follows_counters_and_renders() {
        let mut counters = BTreeMap::new();
        counters.insert(keys::WIRE_BYTES.to_string(), 16e6);
        counters.insert(keys::WIRE_DENSE_BYTES.to_string(), 32e6);
        let rep = StepReport::build(&[], &counters);
        assert_eq!(rep.wire.wire_bytes, 16_000_000);
        assert_eq!(rep.wire.dense_bytes, 32_000_000);
        assert!((rep.wire.ratio - 2.0).abs() < 1e-12);
        let text = rep.render();
        assert!(
            text.contains("wire: 16.00 MB on the wire for 32.00 MB dense f32 (compression 2.00x)"),
            "{text}"
        );
        // Runs with no traced gradient allreduce suppress the line.
        let rep = StepReport::build(&[], &BTreeMap::new());
        assert_eq!(rep.wire, WireSummary::default());
        assert!(!rep.render().contains("wire:"));
        // Pre-wire reports (no `wire` key) lift from Null to zeros.
        let compact = serde_json::to_string(&StepReport::default()).unwrap();
        let stripped = strip_object_key(&compact, "wire");
        let old: StepReport = serde_json::from_str(&stripped).unwrap();
        assert_eq!(old.wire, WireSummary::default());
    }

    #[test]
    fn fault_summary_follows_counters_and_renders() {
        let mut counters = BTreeMap::new();
        counters.insert(keys::FAULT_RETRIES.to_string(), 7.0);
        counters.insert(keys::FAULT_LOST.to_string(), 5.0);
        counters.insert(keys::FAULT_CORRUPT.to_string(), 2.0);
        counters.insert(keys::FAULT_BACKOFF_SECONDS.to_string(), 0.004);
        counters.insert(keys::FAULT_DEGRADED_SECONDS.to_string(), 0.010);
        counters.insert(keys::FAULT_CHECKPOINTS.to_string(), 3.0);
        counters.insert(keys::FAULT_CHECKPOINT_SECONDS.to_string(), 0.002);
        counters.insert(keys::FAULT_RESTORES.to_string(), 1.0);
        let rep = StepReport::build(&[], &counters);
        assert_eq!(rep.faults.retries, 7);
        assert_eq!(rep.faults.lost, 5);
        assert_eq!(rep.faults.corrupt, 2);
        assert!((rep.faults.backoff_s - 0.004).abs() < 1e-12);
        assert!((rep.faults.degraded_s - 0.010).abs() < 1e-12);
        assert_eq!(rep.faults.checkpoints, 3);
        assert_eq!(rep.faults.restores, 1);
        let text = rep.render();
        assert!(text.contains("faults: 7 retries (5 lost, 2 corrupt)"));
        assert!(text.contains("1 restores"));
        // Pre-faults reports (no `faults` field) still deserialize: strip
        // the key from the compact encoding and round-trip.
        let compact = serde_json::to_string(&rep).unwrap();
        let stripped = strip_object_key(&compact, "faults");
        let old: StepReport = serde_json::from_str(&stripped).unwrap();
        assert_eq!(old.faults, FaultSummary::default());
    }
}
