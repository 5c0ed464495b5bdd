//! The serve workloads: the release `hoiho-serve serve` binary as a
//! child process, driven over loopback TCP by a closed loop of two
//! connections, each sending its next request only after the previous
//! reply has been read (the §5 integration and bulk PTR annotation
//! callers wait for every answer).
//!
//! * `serve_zipf` — `--shards 4 --cache-capacity 1024`, `BATCH 16`
//!   frames drawn Zipf(1.1), and `RELOAD SHARD k` on connection 0 at a
//!   fixed lookup cadence: the cache and the framing do most of the work.
//! * `serve_uniform` — default `serve` (one engine, no cache),
//!   `BATCH 256` frames drawn uniformly: PSL dispatch and the regex
//!   engine do most of the work.
//!
//! The model is learned in set-up from the timeline's 2020-01 snapshot,
//! and the universe is that snapshot's PTR names.

use crate::measure::{median, paired, peak_rss_mib, quantile, Calibration, Layers, Report};
use crate::offline::{
    build_traced, layer_rows, learn_set, learned_counts, timeline_specs, SnapCounts, SETUP_REPEATS,
};
use hoiho::learner::LearnConfig;
use hoiho_cluster::{shard_file_name, ShardRouter};
use hoiho_itdk::{BuiltSnapshot, SnapshotSpec};
use hoiho_obs::Tracer;
use hoiho_psl::PublicSuffixList;
use hoiho_scenario::traffic::{universe, Skew, Traffic};
use hoiho_serve::server::QueryAnswer;
use hoiho_serve::{Engine, Extraction, Model};
use std::hint::black_box;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Concurrent client connections.
const CONNS: usize = 2;
/// Shards and cache capacity of the clustered server.
const SHARDS: u32 = 4;
const CACHE_CAPACITY: usize = 1024;
/// Connection 0 sends `RELOAD SHARD k` after every this many lookups.
const RELOAD_EVERY: usize = 16_384;
/// Drawn indices per connection; a connection that reaches the end
/// starts over.
const STREAM_LEN: usize = 1 << 20;
/// Lookups of connection 0's stream replayed in process by a traced run.
const REPLAY_LOOKUPS: usize = 1 << 17;
/// Seconds of TCP traffic a traced run measures for `serve.wire_us`.
const TRACED_TCP_SECONDS: u64 = 3;
/// Closed-loop traffic before the measured loop: checked, not measured.
const WARMUP_SECONDS: u64 = 2;
/// The loop runs in windows of this length; throughput and the latency
/// percentiles are medians over the windows, in calibrated time.
const WINDOW: Duration = Duration::from_millis(250);
/// Reply deadline; a slower reply counts as a failure.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// What distinguishes the two serve workloads.
#[derive(Clone, Copy)]
pub struct Shape {
    skew: Skew,
    batch: usize,
    /// Sharded server with a response cache and shard reloads.
    cluster: bool,
}

pub const ZIPF: Shape = Shape {
    skew: Skew::Zipf(1.1),
    batch: 16,
    cluster: true,
};
pub const UNIFORM: Shape = Shape {
    skew: Skew::Uniform,
    batch: 256,
    cluster: false,
};

/// Everything set-up generates: the model, the universe with each
/// hostname's expected answer, the request streams and the artifacts.
struct Inputs {
    model: Model,
    obs: usize,
    universe: Vec<String>,
    expected: Vec<QueryAnswer>,
    /// The answer line the server must send for each universe entry.
    lines: Vec<String>,
    streams: Vec<Vec<u32>>,
    model_path: PathBuf,
    shard_paths: Vec<PathBuf>,
}

fn answer_of(engine: &Engine, x: Extraction) -> QueryAnswer {
    let nc = x.nc.map(|i| &engine.conventions()[i]);
    QueryAnswer {
        asn: x.asn,
        suffix: nc.map(|nc| nc.suffix.clone()),
        class: nc.map(|nc| nc.class),
    }
}

/// The snapshot the serve model is learned from: the timeline's 2020-01.
fn model_spec(seed: u64) -> SnapshotSpec {
    timeline_specs(seed)
        .into_iter()
        .find(|s| s.label == "2020-01")
        .expect("timeline has 2020-01")
}

fn make_inputs(seed: u64, shape: Shape, serve_bin: &Path, work: &Path) -> Result<Inputs, String> {
    let spec = model_spec(seed);
    let snap = BuiltSnapshot::build(&spec);
    let ts = snap.training_set();
    let learned = learn_set(
        &ts,
        &PublicSuffixList::builtin(),
        &LearnConfig::default(),
        &mut Layers::new(false),
        None,
    );
    let universe = universe(&snap.internet);
    drop(snap);
    let expected: Vec<QueryAnswer> = universe
        .iter()
        .map(|h| answer_of(&learned.engine, learned.engine.extract(h)))
        .collect();
    let lines = universe
        .iter()
        .zip(&expected)
        .map(|(h, a)| format!("{h}\t{}", a.render_fields()))
        .collect();
    let model_path = work.join("model.hoiho");
    learned
        .model
        .save(&model_path)
        .map_err(|e| format!("cannot write {}: {e}", model_path.display()))?;
    let mut shard_paths = Vec::new();
    if shape.cluster {
        let dir = work.join("shards");
        let status = Command::new(serve_bin)
            .arg("shard")
            .arg(&model_path)
            .arg(SHARDS.to_string())
            .arg(&dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .map_err(|e| format!("cannot run {}: {e}", serve_bin.display()))?;
        if !status.success() {
            return Err(format!("hoiho-serve shard failed: {status}"));
        }
        shard_paths = (0..SHARDS).map(|k| dir.join(shard_file_name(k))).collect();
    }
    let traffic = Traffic {
        skew: shape.skew,
        ..Traffic::default()
    };
    let streams = (0..CONNS as u64)
        .map(|c| {
            traffic
                .sample_indices(
                    universe.len(),
                    crate::measure::perturb(0x5EED_0000 + c, seed, 200 + c),
                    STREAM_LEN,
                )
                .into_iter()
                .map(|i| i as u32)
                .collect()
        })
        .collect();
    Ok(Inputs {
        model: learned.model,
        obs: ts.len(),
        universe,
        expected,
        lines,
        streams,
        model_path,
        shard_paths,
    })
}

/// A running `hoiho-serve serve` child. Dropping it kills the child.
struct Server {
    child: Child,
    addr: SocketAddr,
    stderr: Option<JoinHandle<()>>,
}

impl Server {
    fn start(serve_bin: &Path, model: &Path, shape: Shape) -> Result<Server, String> {
        let mut cmd = Command::new(serve_bin);
        cmd.arg("serve").arg(model).arg("127.0.0.1:0");
        if shape.cluster {
            cmd.args([
                "--shards",
                &SHARDS.to_string(),
                "--cache-capacity",
                &CACHE_CAPACITY.to_string(),
            ]);
        }
        // The child inherits this process's one-core CPU mask, so its
        // default of one event loop per usable core gives one loop.
        let spawned = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn();
        let mut child =
            spawned.map_err(|e| format!("cannot start {}: {e}", serve_bin.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        // The server reports its bound address once it accepts.
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if stderr.read_line(&mut line).unwrap_or(0) == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("hoiho-serve exited before serving".into());
            }
            if line.starts_with("serving") {
                let addr = line
                    .split_whitespace()
                    .skip_while(|w| *w != "on")
                    .nth(1)
                    .and_then(|w| w.trim_end_matches(',').parse().ok());
                match addr {
                    Some(a) => break a,
                    None => {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err(format!("no address in {line:?}"));
                    }
                }
            }
        };
        let drain = std::thread::spawn(move || {
            let mut sink = String::new();
            while stderr.read_line(&mut sink).unwrap_or(0) > 0 {
                sink.clear();
            }
        });
        Ok(Server {
            child,
            addr,
            stderr: Some(drain),
        })
    }

    /// Peak resident memory of the server process.
    fn peak_rss_mib(&self) -> Result<f64, String> {
        peak_rss_mib(Some(self.child.id()))
    }

    /// `SHUTDOWN`, then waits for the child to exit.
    fn stop(mut self) -> Result<(), String> {
        let reply = TcpStream::connect(self.addr).and_then(|mut s| {
            s.set_read_timeout(Some(READ_TIMEOUT))?;
            s.write_all(b"SHUTDOWN\n")?;
            let mut line = String::new();
            BufReader::new(s).read_line(&mut line)?;
            Ok(line)
        });
        let deadline = Instant::now() + READ_TIMEOUT;
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => break None,
            }
        };
        if status.is_none() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(drain) = self.stderr.take() {
            let _ = drain.join();
        }
        match (reply, status) {
            (Ok(line), Some(s)) if line == "ok\tbye\n" && s.success() => Ok(()),
            (reply, status) => Err(format!(
                "server did not stop cleanly: {reply:?}, {status:?}"
            )),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(drain) = self.stderr.take() {
            let _ = drain.join();
        }
    }
}

/// What one client connection saw.
#[derive(Default)]
struct ConnStats {
    lookups: u64,
    attempted: u64,
    failed: u64,
    /// Every request, `BATCH` or `RELOAD`: the window it completed in
    /// and its round trip in wall ns.
    requests: Vec<(usize, u64)>,
    /// Round trips of the `BATCH` requests alone, in wall ns.
    batch_ns: Vec<u64>,
    /// Lookups completed in each window.
    window_lookups: Vec<u64>,
}

/// One closed-loop connection: it sends its next frame only after it
/// has read and checked every line of the previous reply.
struct Conn<'a> {
    id: usize,
    inputs: &'a Inputs,
    shape: Shape,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    cursor: usize,
    since_reload: usize,
    next_shard: usize,
    /// The frame in flight: when it was sent and its universe indices.
    sent: Instant,
    batch: Vec<usize>,
    frame: Vec<u8>,
    /// The frame header, and the reply header every frame must get.
    frame_head: String,
    header: String,
    /// The reply being read, and the one line a `RELOAD` gets.
    reply: Vec<u8>,
    line: String,
    st: ConnStats,
}

impl<'a> Conn<'a> {
    fn open(
        addr: SocketAddr,
        inputs: &'a Inputs,
        shape: Shape,
        id: usize,
    ) -> std::io::Result<Conn<'a>> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Conn {
            id,
            inputs,
            shape,
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            cursor: 0,
            since_reload: 0,
            next_shard: 0,
            sent: Instant::now(),
            batch: Vec::with_capacity(shape.batch),
            frame: Vec::new(),
            frame_head: format!("BATCH {}\n", shape.batch),
            header: format!("ok\tbatch\t{}\n", shape.batch),
            reply: Vec::new(),
            line: String::new(),
            st: ConnStats::default(),
        })
    }

    /// Sends the next `BATCH` frame of this connection's stream.
    fn send(&mut self) -> std::io::Result<()> {
        let draws = &self.inputs.streams[self.id];
        self.frame.clear();
        self.batch.clear();
        self.frame.extend_from_slice(self.frame_head.as_bytes());
        for _ in 0..self.shape.batch {
            let i = draws[self.cursor % draws.len()] as usize;
            self.cursor += 1;
            self.batch.push(i);
            self.frame
                .extend_from_slice(self.inputs.universe[i].as_bytes());
            self.frame.push(b'\n');
        }
        self.st.attempted += self.shape.batch as u64;
        self.sent = Instant::now();
        self.writer.write_all(&self.frame)
    }

    /// Reads and checks the reply to the frame in flight, then sends a
    /// `RELOAD SHARD` when connection 0 is due one; both count towards
    /// window `w`. The reply is read as the exact bytes the expected
    /// answers take and compared in place, which keeps the client's
    /// share of the core small.
    fn recv(&mut self, w: usize) -> std::io::Result<()> {
        let lines = &self.inputs.lines;
        let len = self.header.len()
            + self
                .batch
                .iter()
                .map(|&i| lines[i].len() + 1)
                .sum::<usize>();
        self.reply.resize(len, 0);
        self.reader.read_exact(&mut self.reply)?;
        let (head, mut rest) = self.reply.split_at(self.header.len());
        if head != self.header.as_bytes() {
            return Err(std::io::Error::other(format!(
                "bad batch header {:?}",
                String::from_utf8_lossy(head)
            )));
        }
        let mut wrong = 0;
        for &i in &self.batch {
            let (line, tail) = rest.split_at(lines[i].len() + 1);
            rest = tail;
            if &line[..line.len() - 1] != lines[i].as_bytes() || line[line.len() - 1] != b'\n' {
                wrong += 1;
            }
        }
        if wrong > 0 {
            // A wrong answer may differ in length, so the rest of the
            // stream can no longer be framed.
            self.st.failed += wrong;
            return Err(std::io::Error::other(format!(
                "{wrong} wrong answers in {:?}",
                String::from_utf8_lossy(&self.reply)
            )));
        }
        let ns = self.sent.elapsed().as_nanos() as u64;
        self.st.requests.push((w, ns));
        self.st.batch_ns.push(ns);
        self.st.lookups += self.shape.batch as u64;
        if self.st.window_lookups.len() <= w {
            self.st.window_lookups.resize(w + 1, 0);
        }
        self.st.window_lookups[w] += self.shape.batch as u64;
        self.since_reload += self.shape.batch;
        if self.id == 0 && self.shape.cluster && self.since_reload >= RELOAD_EVERY {
            self.since_reload -= RELOAD_EVERY;
            let k = self.next_shard % SHARDS as usize;
            self.next_shard += 1;
            self.st.attempted += 1;
            let t = Instant::now();
            writeln!(
                self.writer,
                "RELOAD SHARD {k} {}",
                self.inputs.shard_paths[k].display()
            )?;
            self.line.clear();
            self.reader.read_line(&mut self.line)?;
            self.st.requests.push((w, t.elapsed().as_nanos() as u64));
            if !self.line.starts_with(&format!("ok\treloaded\tshard={k}\t")) {
                self.st.failed += 1;
                eprintln!("reload of shard {k} answered {:?}", self.line);
            }
        }
        Ok(())
    }
}

/// Runs every connection's closed loop on its own thread for
/// `seconds`, in windows of `WINDOW`. Between windows every connection
/// waits, with no frame in flight, while this thread runs the
/// calibration reference on the core the server and clients share.
/// Returns each connection's stats and, per window, its wall seconds
/// and calibrated seconds.
fn closed_loop(
    addr: SocketAddr,
    inputs: &Inputs,
    shape: Shape,
    seconds: u64,
) -> (Vec<ConnStats>, Vec<(f64, f64)>) {
    let windows = (seconds as u128 * 1_000_000_000 / WINDOW.as_nanos()).max(1) as usize;
    let (go, done) = (Barrier::new(CONNS + 1), Barrier::new(CONNS + 1));
    let stop = AtomicBool::new(false);
    // Both barriers are met once per window by every connection, a
    // broken one included, so a failure ends no other thread's wait.
    let meet = || {
        go.wait();
        !stop.load(Ordering::Acquire)
    };
    let drive = |id: usize| {
        let mut conn = match Conn::open(addr, inputs, shape, id) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("connection {id}: {e}");
                while meet() {
                    done.wait();
                }
                let n = shape.batch as u64;
                return ConnStats {
                    attempted: n,
                    failed: n,
                    ..ConnStats::default()
                };
            }
        };
        let mut broken = false;
        let mut w = 0;
        while meet() {
            let end = Instant::now() + WINDOW;
            while !broken && Instant::now() < end {
                if let Err(e) = conn.send().and_then(|()| conn.recv(w)) {
                    // The frame in flight is lost.
                    eprintln!("connection {id}: {e}");
                    conn.st.failed += shape.batch as u64;
                    broken = true;
                }
            }
            done.wait();
            w += 1;
        }
        conn.st
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNS)
            .map(|id| scope.spawn(move || drive(id)))
            .collect();
        let mut cal = Calibration::new();
        let mut spans = Vec::with_capacity(windows);
        for _ in 0..windows {
            go.wait();
            let t = Instant::now();
            done.wait();
            let wall = t.elapsed().as_secs_f64();
            spans.push((wall, cal.scale(wall)));
        }
        stop.store(true, Ordering::Release);
        go.wait();
        let stats = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (stats, spans)
    })
}

/// What the in-process replay saw.
#[derive(Default)]
struct Replay {
    lookups: u64,
    answers: u64,
    dispatch_misses: u64,
    /// Per-batch time of the backend the server runs: the router when
    /// clustered, the engine otherwise (traced runs only).
    backend_batch_ns: Vec<u64>,
    reload_ns: Vec<u64>,
    cache: Option<hoiho_cluster::CacheStats>,
}

/// Replays connection 0's first `REPLAY_LOOKUPS` draws single-threaded
/// through `registrable_domain`, `Engine::extract`, and (clustered)
/// `ShardRouter::lookup` / `reload_shard` at the closed loop's reload
/// cadence, with a span around each layer call per batch.
fn replay(
    inputs: &Inputs,
    engine: &Engine,
    shard_models: &[Model],
    shape: Shape,
    layers: &mut Layers,
    report: &mut Report,
) -> Result<Replay, String> {
    let psl = PublicSuffixList::builtin();
    let router = if shape.cluster {
        Some(ShardRouter::new(shard_models, CACHE_CAPACITY).map_err(|e| e.to_string())?)
    } else {
        None
    };
    let mut out = Replay::default();
    let mut since_reload = 0usize;
    let mut next_shard = 0usize;
    for batch in inputs.streams[0][..REPLAY_LOOKUPS].chunks(shape.batch) {
        let hosts: Vec<&str> = batch
            .iter()
            .map(|&i| inputs.universe[i as usize].as_str())
            .collect();
        layers.span("psl", || {
            for h in &hosts {
                black_box(psl.registrable_domain(black_box(h)));
            }
        });
        let xs: Vec<Extraction> = layers.span("serve.engine", || {
            hosts.iter().map(|h| engine.extract(h)).collect()
        });
        let engine_ns = layers.last_ns;
        for (&i, x) in batch.iter().zip(&xs) {
            out.answers += u64::from(x.asn.is_some());
            out.dispatch_misses += u64::from(x.nc.is_none());
            let want = &inputs.expected[i as usize];
            report.check(&answer_of(engine, *x) == want, || {
                format!("engine answer differs on {}", inputs.universe[i as usize])
            });
        }
        out.lookups += batch.len() as u64;
        let Some(router) = &router else {
            out.backend_batch_ns.push(engine_ns);
            continue;
        };
        let answers: Vec<QueryAnswer> =
            layers.span("cluster.router", || router.lookup_batch(&hosts));
        out.backend_batch_ns.push(layers.last_ns);
        for (&i, a) in batch.iter().zip(&answers) {
            report.check(a == &inputs.expected[i as usize], || {
                format!("router answer differs on {}", inputs.universe[i as usize])
            });
        }
        since_reload += batch.len();
        if since_reload >= RELOAD_EVERY {
            since_reload -= RELOAD_EVERY;
            let k = next_shard % SHARDS as usize;
            next_shard += 1;
            let reloaded = layers.span("cluster.reload", || {
                let model = Model::load(&inputs.shard_paths[k]).map_err(|e| e.to_string())?;
                router
                    .reload_shard(k as u32, &model)
                    .map_err(|e| e.to_string())
            });
            out.reload_ns.push(layers.last_ns);
            report.check(reloaded.is_ok(), || {
                format!("in-process reload of shard {k}: {reloaded:?}")
            });
        }
    }
    out.cache = router.map(|r| r.cache_stats());
    Ok(out)
}

fn ns_median(v: &[u64]) -> f64 {
    median(&v.iter().map(|&x| x as f64).collect::<Vec<_>>())
}

pub fn run(
    shape: Shape,
    seed: u64,
    seconds: u64,
    trace: bool,
    serve_bin: &Path,
    work: &Path,
) -> Result<Report, String> {
    let mut report = Report::default();
    let mut cal = Calibration::new();
    let mut setups = Vec::new();
    let mut inputs = None;
    let mut server = None;
    for _ in 0..if trace { 1 } else { SETUP_REPEATS } {
        if let Some(old) = server.take() {
            Server::stop(old)?;
        }
        let (made, s) = cal.time(|| {
            let made = make_inputs(seed, shape, serve_bin, work)?;
            let started = Server::start(serve_bin, &made.model_path, shape)?;
            Ok::<_, String>((made, started))
        });
        let (made, started) = made?;
        setups.push(s);
        inputs = Some(made);
        server = Some(started);
    }
    let (inputs, server) = (
        inputs.expect("set up at least once"),
        server.expect("started at least once"),
    );

    let tcp_seconds = if trace { TRACED_TCP_SECONDS } else { seconds };
    let (warm, _) = closed_loop(server.addr, &inputs, shape, WARMUP_SECONDS);
    let (conns, spans) = closed_loop(server.addr, &inputs, shape, tcp_seconds);
    let peak = server.peak_rss_mib();
    server.stop()?;
    let lookups: u64 = conns.iter().map(|c| c.lookups).sum();
    for c in warm.iter().chain(&conns) {
        report.attempted += c.attempted;
        report.failed += c.failed;
    }
    if lookups == 0 {
        return Err("no lookup completed".into());
    }
    let batch_ns: Vec<u64> = conns
        .iter()
        .flat_map(|c| c.batch_ns.iter().copied())
        .collect();
    if !trace {
        report.metric("setup_s", median(&setups), "s");
        let rates: Vec<f64> = spans
            .iter()
            .enumerate()
            .map(|(w, &(_, cal_s))| {
                conns
                    .iter()
                    .map(|c| c.window_lookups.get(w).copied().unwrap_or(0))
                    .sum::<u64>() as f64
                    / cal_s
            })
            .collect();
        let (wall_s, cal_s) = spans
            .iter()
            .fold((0.0, 0.0), |(a, b), &(w, c)| (a + w, b + c));
        eprintln!(
            "{lookups} lookups in {wall_s:.2} s ({cal_s:.2} calibrated s), median of {} windows",
            spans.len()
        );
        report.metric("hosts_per_s", median(&rates), "hosts/s");
        // Latency percentiles per window, in calibrated time, then their
        // median over the windows: like the throughput, robust to a
        // stall shorter than half the run.
        let mut per_window = vec![Vec::new(); spans.len()];
        for &(w, ns) in conns.iter().flat_map(|c| &c.requests) {
            if let (Some(v), Some(&(wall, cal))) = (per_window.get_mut(w), spans.get(w)) {
                v.push(ns as f64 / 1e3 * cal / wall);
            }
        }
        let (p50s, p90s): (Vec<f64>, Vec<f64>) = per_window
            .iter_mut()
            .filter(|v| !v.is_empty())
            .map(|v| {
                v.sort_by(f64::total_cmp);
                (quantile(v, 0.5), quantile(v, 0.9))
            })
            .unzip();
        eprintln!(
            "{} requests, {} windows with requests",
            per_window.iter().map(Vec::len).sum::<usize>(),
            p50s.len()
        );
        report.metric("request_p50_us", median(&p50s), "us");
        report.metric("request_p90_us", median(&p90s), "us");
        report.metric("peak_rss_mb", peak?, "MiB");
        return Ok(report);
    }

    // Traced run: the model pipeline plus the in-process replay, once
    // untraced and once with a span around every layer call.
    let shard_models: Vec<Model> = inputs
        .shard_paths
        .iter()
        .map(|p| Model::load(p).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let spec = model_spec(seed);
    let psl = PublicSuffixList::builtin();
    let cfg = LearnConfig::default();
    let mut layers = Layers::new(true);
    let tracer = Tracer::new();
    let mut checks = Report::default();
    let untraced = || {
        let ts = BuiltSnapshot::build(&spec).training_set();
        let plain = learn_set(&ts, &psl, &cfg, &mut Layers::new(false), None);
        replay(
            &inputs,
            &plain.engine,
            &shard_models,
            shape,
            &mut Layers::new(false),
            &mut checks,
        )
    };
    let traced = || {
        let snap = build_traced(&spec, &mut layers);
        let snaps = SnapCounts::of(&snap);
        let ts = layers.span("itdk.training_set", || snap.training_set());
        drop(snap);
        let learned = learn_set(&ts, &psl, &cfg, &mut layers, Some(&tracer));
        let r = replay(
            &inputs,
            &learned.engine,
            &shard_models,
            shape,
            &mut layers,
            &mut report,
        )?;
        Ok((learned, snaps, r))
    };
    let (_, (learned, snaps, r), traced_ns, untraced_ns) = paired(untraced, traced)?;
    report.attempted += checks.attempted;
    report.failed += checks.failed;
    report.check(learned.model == inputs.model, || {
        "traced pass learned a different model".into()
    });

    report.budget(&layers, traced_ns, untraced_ns);
    layer_rows(&mut report, &layers, &tracer, snaps);
    learned_counts(&mut report, inputs.obs, &[&learned]);
    let per_lookup = |row: &str| layers.ns(row) as f64 / r.lookups as f64;
    report.metric("psl.registrable_domain_ns", per_lookup("psl"), "ns");
    report.metric("serve.engine_extract_ns", per_lookup("serve.engine"), "ns");
    report.metric(
        "serve.answer_ratio",
        r.answers as f64 / r.lookups as f64,
        "ratio",
    );
    report.metric(
        "serve.dispatch_miss_ratio",
        r.dispatch_misses as f64 / r.lookups as f64,
        "ratio",
    );
    report.metric(
        "serve.wire_us",
        (ns_median(&batch_ns) - ns_median(&r.backend_batch_ns)) / 1e3,
        "us",
    );
    report.count("serve.lookups", r.lookups);
    report.count("serve.answers", r.answers);
    report.count("serve.dispatch_misses", r.dispatch_misses);
    let cache = r.cache.unwrap_or_default();
    let cache_lookups = cache.hits + cache.misses;
    report.metric(
        "cluster.router_lookup_ns",
        per_lookup("cluster.router"),
        "ns",
    );
    report.metric(
        "cluster.cache_hit_ratio",
        cache.hits as f64 / cache_lookups.max(1) as f64,
        "ratio",
    );
    // The mean, so that reload_ms × reloads is the budget row.
    let reload_ns: u64 = r.reload_ns.iter().sum();
    report.metric(
        "cluster.reload_ms",
        reload_ns as f64 / r.reload_ns.len().max(1) as f64 / 1e6,
        "ms",
    );
    report.count("cluster.cache_hits", cache.hits);
    report.count("cluster.cache_evictions", cache.evictions);
    report.count("cluster.cache_invalidations", cache.invalidations);
    report.count("cluster.reloads", r.reload_ns.len() as u64);
    Ok(report)
}
