//! The untraced run: a closed loop of client threads, one connection
//! each, against the bound server — warm-up, then the measured window.
//!
//! Closed loop because `Client`/`MuxClient` callers block on a reply,
//! and a fixed client count is what repeats on a shared host. Nothing
//! here records spans; the per-layer pass is `trace.rs`.

use crate::oracle::{MarkerModel, Oracle};
use crate::script::{Check, Op, Script, FRAGMENT, RETAG_TO};
use crate::setup::{Conn, Served};
use crate::spec::{self, Workload, SLICES};
use crate::stats::{window_stats, Sample, WindowStats};
use blas::BlasDb;
use blas_server::{ClientError, ServerStats};
use blas_xml::Document;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Client threads the load uses when the host allows it.
pub const CLIENTS: usize = 2;

/// Nothing in the server ever compacts, so the embedder (here: the
/// client that draws the write) asks for a background compaction every
/// this many writes: at the 4 to 5 writes/s the two clients sustain at
/// scale 10, one or two compactions per 3 s slice, so every slice
/// holds the same mix of delta-merged and freshly folded reads.
pub const COMPACT_EVERY: u64 = 8;

/// Refuse a client count the host cannot run in parallel: clients and
/// server threads already share the cores, and more client threads
/// than cores measures the scheduler.
pub fn check_thread_cap(clients: usize, available: usize) -> Result<(), String> {
    if clients == 0 {
        return Err("at least one client thread is needed".into());
    }
    if clients > available {
        return Err(format!(
            "{clients} client threads asked for, but available_parallelism is {available}"
        ));
    }
    Ok(())
}

/// `available_parallelism`, 1 when the host will not say.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The kinds of mutation, in cycle order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteKind {
    Insert,
    Retag,
    Delete,
}

impl WriteKind {
    pub const ALL: [WriteKind; 3] = [WriteKind::Insert, WriteKind::Retag, WriteKind::Delete];
}

/// A subtree this benchmark inserted and has not deleted yet.
#[derive(Debug, Clone, Copy)]
struct Subtree {
    start: u32,
    retagged: bool,
}

/// The writing side of `mixed_rw`: the insert → retag → delete cycle
/// over the benchmark's own subtrees, the D-label bookkeeping that addresses
/// them, and the marker model every mutation feeds.
pub struct Writer {
    db: Arc<BlasDb>,
    model: Arc<MarkerModel>,
    live: VecDeque<Subtree>,
    /// End unit of the root: the start of the next inserted subtree.
    root_end: u32,
    /// D-label units one [`FRAGMENT`] occupies.
    fragment_units: u32,
    pub writes: u64,
}

impl Writer {
    pub fn new(db: Arc<BlasDb>, model: Arc<MarkerModel>, root_end: u32) -> Writer {
        // Start tag, text datum and end tag take one unit each.
        let frag = Document::parse(FRAGMENT).expect("the fragment is well-formed");
        let fragment_units = frag
            .node_ids()
            .map(|n| 2 + u32::from(frag.node(n).text.is_some()))
            .sum();
        Writer {
            db,
            model,
            live: VecDeque::new(),
            root_end,
            fragment_units,
            writes: 0,
        }
    }

    fn marker_count(&self) -> u64 {
        self.live.iter().filter(|s| !s.retagged).count() as u64
    }

    /// The kind the next [`Writer::write`] performs: the cycle's slot,
    /// except that a retag or delete with no eligible subtree inserts.
    pub fn next_kind(&self) -> WriteKind {
        match WriteKind::ALL[(self.writes % 3) as usize] {
            WriteKind::Retag if self.live.back().is_some_and(|s| !s.retagged) => WriteKind::Retag,
            // Keep one subtree alive behind the newest, so a delete
            // always removes the *oldest* of several.
            WriteKind::Delete if self.live.len() >= 2 => WriteKind::Delete,
            _ => WriteKind::Insert,
        }
    }

    /// The start unit the next mutation addresses: the root for an
    /// insert, the newest subtree for a retag, the oldest for a delete.
    pub fn next_target(&self) -> u32 {
        match self.next_kind() {
            WriteKind::Insert => 0,
            WriteKind::Retag => self.live.back().expect("next_kind saw one").start,
            WriteKind::Delete => self.live.front().expect("next_kind saw two").start,
        }
    }

    /// Whether the write just performed asked for a compaction.
    pub fn compaction_due(&self) -> bool {
        self.writes.is_multiple_of(COMPACT_EVERY)
    }

    /// Perform the next mutation over `conn`, record what it did to
    /// the marker count, and ask for a compaction when one is due.
    /// Returns the generation the mutation published.
    pub fn write(&mut self, conn: &mut Conn) -> Result<u64, ClientError> {
        let generation = match self.next_kind() {
            WriteKind::Insert => {
                let g = conn.insert_subtree(0, FRAGMENT)?;
                self.live.push_back(Subtree {
                    start: self.root_end,
                    retagged: false,
                });
                self.root_end += self.fragment_units;
                g
            }
            WriteKind::Retag => {
                let newest = self.live.back_mut().expect("next_kind saw one");
                let g = conn.retag(newest.start, RETAG_TO)?;
                newest.retagged = true;
                g
            }
            WriteKind::Delete => {
                let oldest = self.live.front().expect("next_kind saw two");
                let g = conn.delete(oldest.start)?;
                self.live.pop_front();
                g
            }
        };
        self.model.record(generation, self.marker_count());
        self.writes += 1;
        if self.compaction_due() {
            self.db.compact_in_background();
        }
        Ok(generation)
    }
}

/// A marker reply, checked against the model once the run is over.
struct MarkerReply {
    sample: usize,
    generation: u64,
    count: u64,
}

/// What one client thread recorded.
#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    markers: Vec<MarkerReply>,
    /// First few failures, for the operator.
    errors: Vec<String>,
}

impl ClientLog {
    fn fail(&mut self, what: String) {
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }
}

/// Where a client's next op comes from.
#[derive(Clone, Copy)]
enum Ops<'a> {
    /// Its own cyclic order.
    Own(&'a [Op]),
    /// The next position of an order all clients share.
    Shared(&'a [Op], &'a AtomicUsize),
}

/// Draw and send ops until `stop`, timing every call.
fn client_loop(
    conn: &mut Conn,
    ops: Ops<'_>,
    script: &Script,
    oracle: &Oracle,
    writer: Option<&Mutex<Writer>>,
    epoch: Instant,
    stop: Instant,
) -> ClientLog {
    let mut log = ClientLog::default();
    log.samples.reserve(1 << 16);
    for own in 0.. {
        let op = match ops {
            Ops::Own(ops) => ops[own % ops.len()],
            Ops::Shared(ops, next) => ops[next.fetch_add(1, Ordering::Relaxed) % ops.len()],
        };
        let t0 = Instant::now();
        if t0 >= stop {
            break;
        }
        let ok = match op {
            Op::Read(i) => {
                let read = &script.reads[i];
                match conn.read(read) {
                    Ok(reply) => match read.check {
                        Check::Count(slot) => {
                            let ok = oracle.check(slot, reply.count as u64);
                            if !ok {
                                log.fail(format!(
                                    "{} [{}]: wrong count {}",
                                    read.xpath, read.engine, reply.count
                                ));
                            }
                            ok
                        }
                        Check::Marker => {
                            log.markers.push(MarkerReply {
                                sample: log.samples.len(),
                                generation: reply.generation,
                                count: reply.count as u64,
                            });
                            true
                        }
                    },
                    Err(e) => {
                        log.fail(format!("{} [{}]: {e}", read.xpath, read.engine));
                        false
                    }
                }
            }
            Op::Write => {
                // One mutation at a time: the lock is held across the
                // call, so the D-label bookkeeping and the marker model
                // see mutations in the order the server applied them.
                let mut writer = writer
                    .expect("a script with writes has a writer")
                    .lock()
                    .expect("no holder panics");
                match writer.write(conn) {
                    Ok(_) => true,
                    Err(e) => {
                        log.fail(format!("write {}: {e}", writer.writes));
                        false
                    }
                }
            }
        };
        let t1 = Instant::now();
        log.samples.push(Sample {
            end_ns: (t1 - epoch).as_nanos() as u64,
            latency_ns: (t1 - t0).as_nanos() as u64,
            ok,
        });
    }
    log
}

/// Counter readings the validity guards compare.
#[derive(Debug, Clone, Copy)]
struct Counters {
    server: ServerStats,
    plan_hits: u64,
    plan_misses: u64,
    compactions: u64,
}

fn counters(served: &Served) -> Counters {
    let plan = served.db.plan_cache_stats();
    Counters {
        server: served.server.stats(),
        plan_hits: plan.hits,
        plan_misses: plan.misses,
        compactions: served.db.delta_stats().compactions,
    }
}

/// Counter movement over the measured window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowCounters {
    pub result_hits: u64,
    pub result_misses: u64,
    pub overloaded: u64,
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub compactions: u64,
}

impl WindowCounters {
    pub fn result_hit_rate(&self) -> f64 {
        rate(self.result_hits, self.result_misses)
    }

    pub fn plan_hit_rate(&self) -> f64 {
        rate(self.plan_hits, self.plan_misses)
    }
}

/// Hits over lookups; 0 when nothing was looked up.
pub fn rate(hits: u64, misses: u64) -> f64 {
    match hits + misses {
        0 => 0.0,
        total => hits as f64 / total as f64,
    }
}

/// Is the workload still the workload its name promises? A later
/// change to a cache capacity or an eviction rule must not silently
/// turn one workload into another: the run fails loudly instead.
pub fn check_validity(workload: &Workload, c: &WindowCounters) -> Result<(), String> {
    let complaint = match workload.name {
        spec::PLAN_WIDE if c.plan_hit_rate() > 0.05 => {
            format!(
                "plan-cache hit rate {:.3} > 0.05: the pool no longer defeats the plan cache",
                c.plan_hit_rate()
            )
        }
        spec::PLAN_WIDE if c.result_hit_rate() > 0.05 => {
            format!(
                "result-cache hit rate {:.3} > 0.05: the pool no longer defeats the result cache",
                c.result_hit_rate()
            )
        }
        spec::SERVE_HOT_BIN | spec::SERVE_HOT_JSON if c.result_hit_rate() < 0.99 => {
            format!("result-cache hit rate {:.3} < 0.99: the hot set is no longer served from the cache", c.result_hit_rate())
        }
        spec::SCAN_HEAVY if c.result_hits != 0 => {
            format!(
                "{} result-cache hits on a cache-bypassing workload",
                c.result_hits
            )
        }
        spec::MIXED_RW if c.compactions < 3 => {
            format!(
                "{} completed compactions in the window, fewer than 3",
                c.compactions
            )
        }
        _ => return Ok(()),
    };
    Err(format!(
        "workload {} is not valid any more: {complaint}",
        workload.name
    ))
}

/// Everything one untraced run measured.
pub struct LoadOutcome {
    pub window: WindowStats,
    pub counters: WindowCounters,
    pub rss_mb: f64,
    pub errors: Vec<String>,
}

/// Warm up for one slice length, then measure `seconds` in
/// [`SLICES`] slices.
pub fn run(
    served: &mut Served,
    script: &Script,
    oracle: &Oracle,
    seconds: f64,
) -> Result<LoadOutcome, String> {
    let slice = Duration::from_secs_f64(seconds / SLICES as f64);
    let model = Arc::new(MarkerModel::new(served.db.generation(), 0));
    let writer = script.has_writes().then(|| {
        Mutex::new(Writer::new(
            Arc::clone(&served.db),
            Arc::clone(&model),
            served.root_end,
        ))
    });
    let shared_next = AtomicUsize::new(0);

    let epoch = Instant::now();
    let window_start = epoch + slice;
    let stop = window_start + slice * SLICES as u32;
    let mut conns = std::mem::take(&mut served.conns);
    let (logs, before, after, rss_mb) = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(client, conn)| {
                let ops = match script.shared {
                    true => Ops::Shared(&script.per_client[0], &shared_next),
                    false => Ops::Own(&script.per_client[client]),
                };
                let writer = writer.as_ref();
                s.spawn(move || client_loop(conn, ops, script, oracle, writer, epoch, stop))
            })
            .collect();
        std::thread::sleep(window_start.saturating_duration_since(Instant::now()));
        let before = counters(served);
        std::thread::sleep(stop.saturating_duration_since(Instant::now()));
        let after = counters(served);
        let rss_mb = crate::setup::rss_mb();
        let logs: Vec<ClientLog> = handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect();
        (logs, before, after, rss_mb)
    });
    served.conns = conns;

    let mut samples = Vec::new();
    let mut errors = Vec::new();
    for mut log in logs {
        // The writer has recorded every mutation by now, so the model
        // is complete: settle the marker replies.
        for m in &log.markers {
            if model.count_at(m.generation) != Some(m.count) {
                log.samples[m.sample].ok = false;
                if errors.len() < 5 {
                    errors.push(format!(
                        "marker: count {} at generation {}, expected {:?}",
                        m.count,
                        m.generation,
                        model.count_at(m.generation)
                    ));
                }
            }
        }
        samples.append(&mut log.samples);
        errors.append(&mut log.errors);
    }
    let window = window_stats(
        &samples,
        (window_start - epoch).as_nanos() as u64,
        slice.as_nanos() as u64,
        SLICES,
    );
    Ok(LoadOutcome {
        window,
        counters: WindowCounters {
            result_hits: after.server.cache_hits - before.server.cache_hits,
            result_misses: after.server.cache_misses - before.server.cache_misses,
            overloaded: after.server.overloaded - before.server.overloaded,
            plan_hits: after.plan_hits - before.plan_hits,
            plan_misses: after.plan_misses - before.plan_misses,
            compactions: after.compactions - before.compactions,
        },
        rss_mb: rss_mb?,
        errors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_client_threads_than_cores_is_refused() {
        assert!(check_thread_cap(2, 2).is_ok());
        assert!(check_thread_cap(1, 2).is_ok());
        assert!(check_thread_cap(3, 2).is_err());
        assert!(check_thread_cap(2, 1).is_err());
        assert!(check_thread_cap(0, 4).is_err());
        let available = available_parallelism();
        assert!(check_thread_cap(available + 1, available).is_err());
    }

    fn counters(result: (u64, u64), plan: (u64, u64), compactions: u64) -> WindowCounters {
        WindowCounters {
            result_hits: result.0,
            result_misses: result.1,
            overloaded: 0,
            plan_hits: plan.0,
            plan_misses: plan.1,
            compactions,
        }
    }

    #[test]
    fn guards_catch_a_workload_that_changed_character() {
        let w = |n| spec::workload(n).unwrap();
        assert!(check_validity(w(spec::SERVE_HOT_BIN), &counters((1000, 0), (0, 0), 0)).is_ok());
        assert!(
            check_validity(w(spec::SERVE_HOT_JSON), &counters((900, 100), (0, 100), 0)).is_err()
        );
        assert!(check_validity(w(spec::PLAN_WIDE), &counters((0, 1000), (10, 990), 0)).is_ok());
        assert!(check_validity(w(spec::PLAN_WIDE), &counters((0, 1000), (500, 500), 0)).is_err());
        assert!(check_validity(w(spec::PLAN_WIDE), &counters((300, 700), (0, 700), 0)).is_err());
        assert!(check_validity(w(spec::SCAN_HEAVY), &counters((0, 0), (1000, 0), 0)).is_ok());
        assert!(check_validity(w(spec::SCAN_HEAVY), &counters((1, 0), (1000, 0), 0)).is_err());
        assert!(check_validity(w(spec::MIXED_RW), &counters((900, 100), (0, 100), 3)).is_ok());
        assert!(check_validity(w(spec::MIXED_RW), &counters((900, 100), (0, 100), 2)).is_err());
    }
}
