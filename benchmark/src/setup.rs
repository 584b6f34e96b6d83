//! Set-up: XML string in hand → a bound server with warm connections.
//!
//! Every step is a call into a facade-level public function, timed
//! from here; the spans are the set-up's per-layer metrics and their
//! sum is `setup_s`.

use crate::script::{Read, Script};
use crate::spec::{StoreKind, Wire, Workload};
use blas::BlasDb;
use blas_server::{Client, ClientError, Json, MuxClient, Proto, QueryReply, Server, ServerConfig};
use blas_xml::Document;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bounds one call's wait so a wedged server fails the run instead of
/// hanging it.
const CALL_TIMEOUT: Duration = Duration::from_secs(60);

/// One client connection on either wire.
pub enum Conn {
    Bin(MuxClient),
    Json(Client),
}

impl Conn {
    pub fn connect(addr: SocketAddr, wire: Wire) -> Result<Conn, ClientError> {
        Ok(match wire {
            Wire::Binary => Conn::Bin(MuxClient::connect(addr, Some(CALL_TIMEOUT))?),
            Wire::Json => Conn::Json(Client::connect_with(addr, Some(CALL_TIMEOUT), Proto::Json)?),
        })
    }

    /// Send one read the way a caller of the client library would:
    /// `query` (labels, cache on) or `query_count` (count-only).
    pub fn read(&mut self, r: &Read) -> Result<QueryReply, ClientError> {
        debug_assert!(
            r.cache || !r.labels,
            "the clients have no labels-without-cache call"
        );
        match (self, r.labels) {
            (Conn::Bin(c), true) => c.query(&r.xpath, r.engine),
            (Conn::Bin(c), false) => c.query_count(&r.xpath, r.engine, r.cache),
            (Conn::Json(c), true) => c.query(&r.xpath, r.engine),
            (Conn::Json(c), false) => c.query_count(&r.xpath, r.engine, r.cache),
        }
    }

    /// The root's D-label end unit: where the next subtree inserted
    /// under the root will start.
    pub fn root_end(&mut self) -> Result<u32, ClientError> {
        let root = match self {
            Conn::Bin(c) => c.query("/site", "auto"),
            Conn::Json(c) => c.query("/site", "auto"),
        }?;
        root.nodes
            .first()
            .map(|n| n.1)
            .ok_or_else(|| ClientError::Protocol("the /site query matched nothing".into()))
    }

    pub fn insert_subtree(&mut self, parent_start: u32, xml: &str) -> Result<u64, ClientError> {
        match self {
            Conn::Bin(c) => c.insert_subtree(parent_start, xml),
            Conn::Json(c) => c.insert_subtree(parent_start, xml),
        }
    }

    pub fn retag(&mut self, start: u32, tag: &str) -> Result<u64, ClientError> {
        match self {
            Conn::Bin(c) => c.retag(start, tag),
            Conn::Json(c) => c.retag(start, tag),
        }
    }

    pub fn delete(&mut self, start: u32) -> Result<u64, ClientError> {
        match self {
            Conn::Bin(c) => c.delete(start),
            Conn::Json(c) => c.delete(start),
        }
    }

    /// The admission-bypassing `stats` method.
    pub fn stats(&mut self) -> Result<Json, ClientError> {
        match self {
            Conn::Bin(c) => c.stats(),
            Conn::Json(c) => c.stats(),
        }
    }
}

/// Seconds each set-up step took.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupSpans {
    pub xml_parse_s: f64,
    pub index_s: f64,
    pub snapshot_encode_s: f64,
    pub snapshot_write_s: f64,
    pub open_mapped_s: f64,
    pub bind_s: f64,
    pub connect_s: f64,
    pub first_pass_s: f64,
}

impl SetupSpans {
    pub fn total_s(&self) -> f64 {
        self.xml_parse_s
            + self.index_s
            + self.snapshot_encode_s
            + self.snapshot_write_s
            + self.open_mapped_s
            + self.bind_s
            + self.connect_s
            + self.first_pass_s
    }
}

/// A running system under test.
pub struct Served {
    /// The database the server fronts.
    pub db: Arc<BlasDb>,
    /// The other store of the pair, kept only when asked for.
    pub other: Option<Arc<BlasDb>>,
    pub server: Server,
    pub conns: Vec<Conn>,
    pub xml_bytes: u64,
    pub stored_bytes: u64,
    /// End unit of the root's D-label, read only for scripts that
    /// write (0 otherwise).
    pub root_end: u32,
    snap_path: PathBuf,
}

impl Served {
    /// Close the connections, drain the server, delete the snapshot.
    pub fn teardown(self) {
        let Served {
            db,
            other,
            server,
            conns,
            snap_path,
            ..
        } = self;
        drop(conns);
        server.shutdown();
        drop((db, other));
        let _ = std::fs::remove_file(snap_path);
    }
}

/// Where run artifacts (snapshot files, traces, result files) go: next
/// to the executable, inside the build directory, which `.gitignore`
/// already covers.
pub fn out_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("executable has no parent directory")?
        .join("benchmark_out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *slot = t0.elapsed().as_secs_f64();
    out
}

/// One whole set-up. The same pipeline for every workload — load,
/// snapshot, write, map, bind, connect, first pass — so `setup_s` means
/// the same thing everywhere; the workload only picks which store the
/// server fronts. `keep_both` keeps the unserved store alive too.
pub fn set_up(
    workload: &Workload,
    xml: &str,
    script: &Script,
    dir: &Path,
    keep_both: bool,
) -> Result<(Served, SetupSpans), String> {
    let mut spans = SetupSpans::default();
    let doc = timed(&mut spans.xml_parse_s, || Document::parse(xml)).map_err(|e| e.to_string())?;
    let owned =
        timed(&mut spans.index_s, || BlasDb::from_document(doc)).map_err(|e| e.to_string())?;
    let snapshot = timed(&mut spans.snapshot_encode_s, || owned.to_snapshot());
    let snap_path = dir.join(format!("{}_{}.snap", workload.name, std::process::id()));
    timed(&mut spans.snapshot_write_s, || {
        std::fs::write(&snap_path, &snapshot)
    })
    .map_err(|e| format!("{}: {e}", snap_path.display()))?;
    let stored_bytes = snapshot.len() as u64;
    drop(snapshot);
    let mapped = timed(&mut spans.open_mapped_s, || BlasDb::open_mapped(&snap_path))
        .map_err(|e| e.to_string())?;

    let (db, other) = match workload.store {
        StoreKind::Owned => (Arc::new(owned), mapped),
        StoreKind::Mapped => (Arc::new(mapped), owned),
    };
    let other = keep_both.then(|| Arc::new(other));
    let server = timed(&mut spans.bind_s, || {
        Server::bind(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default())
    })
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    let mut conns = timed(&mut spans.connect_s, || {
        (0..script.clients)
            .map(|_| Conn::connect(addr, workload.wire))
            .collect::<Result<Vec<_>, _>>()
    })
    .map_err(|e| format!("connect: {e}"))?;

    // First pass: every distinct read of client 0's script once. This
    // is where a fresh database pays its lazy costs (schema inference,
    // first plans, cache fill).
    let mut root_end = 0;
    timed(&mut spans.first_pass_s, || -> Result<(), ClientError> {
        for i in script.first_pass() {
            conns[0].read(&script.reads[i])?;
        }
        if script.has_writes() {
            root_end = conns[0].root_end()?;
        }
        Ok(())
    })
    .map_err(|e| format!("first pass: {e}"))?;

    let served = Served {
        db,
        other,
        server,
        conns,
        xml_bytes: xml.len() as u64,
        stored_bytes,
        root_end,
        snap_path,
    };
    Ok((served, spans))
}

/// Resident set of this process in MB, from `/proc/self/status`.
pub fn rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmRSS line in /proc/self/status".to_string())
}
