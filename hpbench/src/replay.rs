//! Functional-walk replay: a job's memory accesses fed through the public
//! structures the simulator's functional pass uses, one structure at a
//! time, so each structure's host cost per operation can be timed.
//!
//! For every task of the lowered graph, in task order (the order a serial
//! organization runs them), the replay
//!
//! 1. emits each access pattern's lines (`Pattern::emit`),
//! 2. touches the pages GPU accesses fault on (`PageTable::touch`),
//! 3. walks the accesses through the caches (`ChipHierarchy`), including
//!    the CPU page clears a fault triggers and the DMA flushes of copies,
//! 4. records the touched lines in a `FootprintTracker`, and
//! 5. feeds off-chip fetches and writebacks to an `OffchipClassifier`.
//!
//! Each step is timed per task over the whole task's stream, never per
//! line. Steps 2-5 consume what the earlier steps recorded, so each
//! structure sees exactly the calls it sees in a run, in the same order;
//! the replayed counts therefore match the run's report for serial jobs.

use std::time::Instant;

use heteropipe::organize::TaskBody;
use heteropipe::{
    lower, FootprintTracker, OffchipClassifier, Organization, Platform, SystemConfig,
};
use heteropipe_mem::access::Component;
use heteropipe_mem::{AccessKind, AccessResult, ChipHierarchy, LineAddr, PageTable, ServiceLevel};
use heteropipe_sim::SplitMix64;
use heteropipe_workloads::{BufferInit, CopyDir, ExecKind, Pipeline};

/// What one replay did and what each structure cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    /// Lines emitted by access patterns.
    pub emitted_lines: u64,
    /// Host time in `Pattern::emit`.
    pub emit_ns: u64,
    /// Page-table touches.
    pub page_touches: u64,
    /// Host time in `PageTable::touch`.
    pub page_ns: u64,
    /// Cache-hierarchy line accesses (CPU and GPU, page clears included).
    pub hierarchy_accesses: u64,
    /// Host time in `ChipHierarchy` accesses, flushes and invalidations.
    pub hierarchy_ns: u64,
    /// Footprint-tracker touches.
    pub footprint_touches: u64,
    /// Host time in `FootprintTracker::touch`.
    pub footprint_ns: u64,
    /// Classifier events (fetches and writebacks).
    pub classifier_events: u64,
    /// Host time in `OffchipClassifier::{fetch, writeback}`.
    pub classify_ns: u64,
    /// Line accesses, as `RunReport::total_accesses` counts them.
    pub line_accesses: u64,
    /// Off-chip fetches.
    pub offchip_fetches: u64,
    /// Off-chip writebacks.
    pub offchip_writebacks: u64,
    /// GPU page faults.
    pub page_faults: u64,
    /// Coherent cache-to-cache transfers.
    pub remote_hits: u64,
    /// Bytes touched by any component.
    pub footprint_bytes: u64,
}

impl Replay {
    /// Time attributed to the five structures.
    pub fn attributed_ns(&self) -> u64 {
        self.emit_ns + self.page_ns + self.hierarchy_ns + self.footprint_ns + self.classify_ns
    }

    /// Accumulates another job's replay.
    pub fn add(&mut self, o: &Replay) {
        self.emitted_lines += o.emitted_lines;
        self.emit_ns += o.emit_ns;
        self.page_touches += o.page_touches;
        self.page_ns += o.page_ns;
        self.hierarchy_accesses += o.hierarchy_accesses;
        self.hierarchy_ns += o.hierarchy_ns;
        self.footprint_touches += o.footprint_touches;
        self.footprint_ns += o.footprint_ns;
        self.classifier_events += o.classifier_events;
        self.classify_ns += o.classify_ns;
        self.line_accesses += o.line_accesses;
        self.offchip_fetches += o.offchip_fetches;
        self.offchip_writebacks += o.offchip_writebacks;
        self.page_faults += o.page_faults;
        self.remote_hits += o.remote_hits;
        self.footprint_bytes += o.footprint_bytes;
    }
}

/// One access of a task's stream, in walk order.
#[derive(Clone, Copy)]
struct Access {
    line: LineAddr,
    kind: AccessKind,
}

/// Reusable per-task buffers.
#[derive(Default)]
struct Buffers {
    patterns: Vec<(AccessKind, Vec<LineAddr>)>,
    stream: Vec<Access>,
    faulted: Vec<bool>,
    touches: Vec<(Component, LineAddr)>,
    /// `(line, is_writeback)` classifier events.
    events: Vec<(LineAddr, bool)>,
}

fn ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Records the classifier events one hierarchy access produced.
fn note(r: AccessResult, line: LineAddr, kind: AccessKind, events: &mut Vec<(LineAddr, bool)>) {
    // Write misses allocate without fetching; only read misses move data.
    if r.level == ServiceLevel::OffChip && !kind.is_write() {
        events.push((line, false));
    }
    for wb in r.offchip_writebacks() {
        events.push((wb, true));
    }
}

/// Replays the functional walk of `pipeline` on `config` under `org`.
pub fn replay(
    pipeline: &Pipeline,
    config: &SystemConfig,
    org: Organization,
    misalignment_sensitive: bool,
) -> Replay {
    let graph = lower(pipeline, config, org, misalignment_sensitive);
    let mut hierarchy = ChipHierarchy::new(config.hierarchy);
    let mut pagetable = PageTable::new();
    for (spec, resolved) in pipeline.buffers.iter().zip(&graph.buffers) {
        if spec.init == BufferInit::Host {
            if let Some(h) = resolved.host {
                pagetable.map_range(h);
            }
        }
        if config.platform == Platform::DiscreteGpu {
            if let Some(d) = resolved.dev {
                pagetable.map_range(d);
            }
            if let Some(h) = resolved.host {
                pagetable.map_range(h);
            }
        }
    }
    let mut footprint = FootprintTracker::new();
    let mut classifier = OffchipClassifier::with_spill_window(config.spill_window);
    let hetero = config.platform == Platform::Heterogeneous;
    let sms = u64::from(config.hierarchy.gpu_sms);
    let mut sm_cursor = 0u64;
    let mut out = Replay::default();
    let mut b = Buffers::default();

    for task in &graph.tasks {
        let seq = task.seq_stage;
        b.touches.clear();
        b.events.clear();
        let mut gpu_task_end = false;
        match task.body {
            TaskBody::Compute { stage } => {
                let c = pipeline.stages[stage].as_compute().expect("compute stage");
                let (chunk_i, chunk_n) = task.chunk;
                let gpu = c.exec == ExecKind::Gpu;
                gpu_task_end = gpu && chunk_i + 1 == chunk_n;

                // 1. Emit every pattern (same ranges and seeds as a run).
                let t = Instant::now();
                for (pi, p) in c.patterns.iter().enumerate() {
                    let resolved = &graph.buffers[p.buf.0];
                    let full = if gpu {
                        resolved.gpu_range()
                    } else {
                        resolved.cpu_range()
                    };
                    let elem = pipeline.buffers[p.buf.0].elem_bytes;
                    let (range, pattern) = if chunk_n > 1 && p.follows_chunk {
                        (
                            full.chunks(u64::from(chunk_n))[chunk_i as usize],
                            p.pattern.chunked(1.0 / f64::from(chunk_n)),
                        )
                    } else if chunk_n > 1 {
                        (full, p.pattern.chunked(1.0 / f64::from(chunk_n)))
                    } else {
                        (full, p.pattern.clone())
                    };
                    let mut rng = SplitMix64::new(
                        0x5EED_0000 ^ (stage as u64) << 32 ^ u64::from(chunk_i) << 16 ^ pi as u64,
                    );
                    if b.patterns.len() <= pi {
                        b.patterns.push((p.kind, Vec::new()));
                    }
                    let slot = &mut b.patterns[pi];
                    slot.0 = p.kind;
                    slot.1.clear();
                    pattern.emit(range, elem, &mut rng, &mut slot.1);
                }
                out.emit_ns += ns(t);
                let used = c.patterns.len();
                out.emitted_lines += b.patterns[..used]
                    .iter()
                    .map(|p| p.1.len() as u64)
                    .sum::<u64>();

                // Walk order: pattern after pattern, or round-robin in
                // 64-line tiles for fused kernels.
                b.stream.clear();
                if c.interleave_patterns {
                    const TILE: usize = 64;
                    let mut offset = 0;
                    loop {
                        let mut any = false;
                        for (kind, lines) in &b.patterns[..used] {
                            if offset < lines.len() {
                                any = true;
                                let end = (offset + TILE).min(lines.len());
                                b.stream.extend(
                                    lines[offset..end]
                                        .iter()
                                        .map(|&line| Access { line, kind: *kind }),
                                );
                            }
                        }
                        if !any {
                            break;
                        }
                        offset += TILE;
                    }
                } else {
                    for (kind, lines) in &b.patterns[..used] {
                        b.stream
                            .extend(lines.iter().map(|&line| Access { line, kind: *kind }));
                    }
                }

                // 2. Page touches (only GPU accesses on the heterogeneous
                //    processor fault).
                b.faulted.clear();
                if gpu && hetero {
                    let t = Instant::now();
                    for a in &b.stream {
                        b.faulted.push(pagetable.touch(a.line.page()).is_fault());
                    }
                    out.page_ns += ns(t);
                    out.page_touches += b.stream.len() as u64;
                }

                // 3. The cache walk.
                let t = Instant::now();
                let mut accesses = 0u64;
                for (i, a) in b.stream.iter().enumerate() {
                    if gpu {
                        if b.faulted.get(i).copied().unwrap_or(false) {
                            out.page_faults += 1;
                            // The fault handler clears the page on the CPU.
                            let base = a.line.page().base().line();
                            for k in 0..(heteropipe_mem::PAGE_BYTES / heteropipe_mem::LINE_BYTES) {
                                let l = LineAddr(base.0 + k);
                                let r = hierarchy.cpu_access(0, l, AccessKind::Write);
                                b.touches.push((Component::Cpu, l));
                                note(r, l, AccessKind::Write, &mut b.events);
                                accesses += 1;
                            }
                        }
                        sm_cursor += 1;
                        let sm = ((sm_cursor / 4) % sms) as u8;
                        let r = hierarchy.gpu_access(sm, a.line, a.kind);
                        b.touches.push((Component::Gpu, a.line));
                        note(r, a.line, a.kind, &mut b.events);
                    } else {
                        let r = hierarchy.cpu_access(0, a.line, a.kind);
                        b.touches.push((Component::Cpu, a.line));
                        note(r, a.line, a.kind, &mut b.events);
                    }
                    accesses += 1;
                }
                out.hierarchy_ns += ns(t);
                out.hierarchy_accesses += accesses;
                out.line_accesses += accesses;
            }
            TaskBody::DmaCopy { stage } | TaskBody::SharedMemcpy { stage } => {
                let c = pipeline.stages[stage].as_copy().expect("copy stage");
                let resolved = &graph.buffers[c.buf.0];
                let total = c.bytes.unwrap_or(pipeline.buffers[c.buf.0].bytes);
                let (chunk_i, chunk_n) = task.chunk;
                let per = total / u64::from(chunk_n);
                let offset = per * u64::from(chunk_i);
                let len = if chunk_i + 1 == chunk_n {
                    total - offset
                } else {
                    per
                };
                let host = resolved.cpu_range().slice(offset, len);
                let dev = resolved.gpu_range().slice(offset, len);
                let (src, dst) = match c.dir {
                    CopyDir::H2D => (host, dev),
                    CopyDir::D2H => (dev, host),
                };
                if !hetero {
                    // DMA coherence: flush dirty source lines, invalidate
                    // stale destination lines.
                    let t = Instant::now();
                    let flushed = match c.dir {
                        CopyDir::H2D => {
                            let f = hierarchy.dma_flush_cpu(src);
                            hierarchy.dma_invalidate_gpu(dst);
                            f
                        }
                        CopyDir::D2H => {
                            let f = hierarchy.dma_flush_gpu(src);
                            hierarchy.dma_invalidate_cpu(dst);
                            f
                        }
                    };
                    out.hierarchy_ns += ns(t);
                    b.events
                        .extend(src.lines().take(flushed as usize).map(|l| (l, true)));
                }
                for line in src.lines() {
                    b.touches.push((Component::Copy, line));
                    b.events.push((line, false));
                }
                for line in dst.lines() {
                    b.touches.push((Component::Copy, line));
                    b.events.push((line, true));
                }
                out.line_accesses += src.line_count() + dst.line_count();
            }
        }

        // 4. Footprint.
        let t = Instant::now();
        for &(c, l) in &b.touches {
            footprint.touch(c, l);
        }
        out.footprint_ns += ns(t);
        out.footprint_touches += b.touches.len() as u64;

        // 5. Off-chip classification.
        let t = Instant::now();
        for &(l, wb) in &b.events {
            if wb {
                classifier.writeback(l, seq);
            } else {
                classifier.fetch(l, seq);
            }
        }
        out.classify_ns += ns(t);
        out.classifier_events += b.events.len() as u64;
        let wbs = b.events.iter().filter(|e| e.1).count() as u64;
        out.offchip_writebacks += wbs;
        out.offchip_fetches += b.events.len() as u64 - wbs;

        if gpu_task_end {
            // GPU L1s flush at kernel boundaries.
            let t = Instant::now();
            hierarchy.flush_gpu_l1s();
            out.hierarchy_ns += ns(t);
        }
    }
    out.remote_hits = hierarchy.remote_hits_cpu() + hierarchy.remote_hits_gpu();
    out.footprint_bytes = footprint.total_bytes();
    std::hint::black_box(classifier.finish());
    out
}
