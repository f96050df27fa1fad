//! `serve`: a `Server` booted from a registry holding the published
//! `predict` student, with the default `ServeConfig`, under a closed loop
//! of two clients on two keep-alive connections. Each client repeats the
//! fixed mix stateless `/forecast`, `/observe`, stateless `/forecast`,
//! tenant `/forecast`: half the requests carry a full 96×7 window, a
//! quarter append one row to the client's own tenant, a quarter forecast
//! from that tenant's rows.
//!
//! Latency is measured at the client, from the write of the request to
//! the last byte of the response. Server counters are read from
//! `/metrics` over client 0's connection, so no third connection opens.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use timekd::PlannedStudent;
use timekd_data::Split;
use timekd_obs::json::Json;
use timekd_serve::{load, publish, ServeConfig, Server};
use timekd_tensor::{seeded_rng, Precision, Tensor};

use crate::speed::Reference;
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use crate::train::{dataset, INPUT_LEN};
use crate::{check, Args, Outcome};

const CLIENTS: usize = 2;
/// Set-ups per run; every server but the last shuts down at once.
const SETUPS: usize = 5;
/// Requests per client before timing starts (checked, not timed).
const WARMUP: usize = 400;
/// Requests per client per block; traced runs alternate untraced and
/// traced blocks, and the host's slowness is read between blocks.
const BLOCK: usize = 64;
/// The tenant cache keeps at most this many rows per tenant.
const TENANT_MAX_ROWS: usize = 1024;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Window,
    Observe,
    Tenant,
}

const MIX: [Kind; 4] = [Kind::Window, Kind::Observe, Kind::Window, Kind::Tenant];

/// The inputs and expected outputs every client shares.
struct Fixture {
    /// Test-split rows; window `s` is the rows `s..s + 96`, read cyclically.
    rows: Vec<Vec<f32>>,
    /// `PlannedStudent::predict` of every cyclic window.
    expected: Vec<Vec<f32>>,
    /// Full `/forecast` request bytes for every cyclic window.
    window_requests: Vec<Vec<u8>>,
}

struct Setup {
    server: Server,
    registry: PathBuf,
    fixture: Fixture,
    publish_ms: f64,
    load_ms: f64,
    start_ms: f64,
}

fn request(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// JSON rows; each f32 printed as its exact f64 value so the server's
/// f64 parse and f32 cast restore its bits.
fn json_rows<'a>(rows: impl Iterator<Item = &'a Vec<f32>>) -> String {
    let rendered: Vec<String> = rows
        .map(|r| {
            let cells: Vec<String> = r.iter().map(|&v| format!("{}", f64::from(v))).collect();
            format!("[{}]", cells.join(","))
        })
        .collect();
    format!("[{}]", rendered.join(","))
}

fn window_rows(rows: &[Vec<f32>], start: usize) -> impl Iterator<Item = &Vec<f32>> {
    (start..start + INPUT_LEN).map(move |j| &rows[j % rows.len()])
}

fn setup(seed: u64, registry: PathBuf, tr: &mut Tracer) -> Setup {
    let root = tr.enter("bench", "serve.setup");
    let rows: Vec<Vec<f32>> = tr.time("data", "data.generate", || {
        // Every history row of the stride-1 test windows, in order.
        let test = dataset(seed).windows(Split::Test, 1);
        let mut rows: Vec<Vec<f32>> = test[0]
            .x
            .to_vec()
            .chunks(test[0].x.dims()[1])
            .map(<[f32]>::to_vec)
            .collect();
        for w in &test[1..] {
            let x = w.x.to_vec();
            rows.push(x[x.len() - w.x.dims()[1]..].to_vec());
        }
        rows
    });
    let num_vars = rows[0].len();
    let (student, config) = tr.time("timekd", "timekd.student_new", || {
        crate::predict::student(num_vars)
    });
    let t = Instant::now();
    tr.time("serve", "serve.publish", || {
        publish(&registry, 1, &student, &config, Precision::F32).expect("publish the student")
    });
    let publish_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    tr.time("serve", "serve.registry_load", || {
        load(&registry, 1).expect("load the published student")
    });
    let load_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let server = tr.time("serve", "serve.start", || {
        Server::start(ServeConfig::new(&registry)).expect("start the server")
    });
    let start_ms = t.elapsed().as_secs_f64() * 1e3;

    let mut planned = tr.time("timekd", "timekd.plan_compile", || {
        PlannedStudent::new(&student, &config).expect("student forecast plan compiles")
    });
    let expected = tr.time("tensor", "tensor.expected_forecasts", || {
        (0..rows.len())
            .map(|s| {
                let flat: Vec<f32> = window_rows(&rows, s).flatten().copied().collect();
                planned
                    .predict(&Tensor::from_vec(flat, [INPUT_LEN, num_vars]))
                    .to_vec()
            })
            .collect()
    });
    let window_requests = (0..rows.len())
        .map(|s| {
            let body = format!("{{\"x\":{}}}", json_rows(window_rows(&rows, s)));
            request("POST", "/forecast", &body)
        })
        .collect();
    tr.exit(root);
    Setup {
        server,
        registry,
        fixture: Fixture {
            rows,
            expected,
            window_requests,
        },
        publish_ms,
        load_ms,
        start_ms,
    }
}

/// A keep-alive HTTP/1.1 client connection.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(16 << 10),
        })
    }

    /// Sends one request and reads the whole response: `(status, body)`.
    fn exchange(&mut self, request: &[u8]) -> Result<(u16, String), String> {
        self.stream
            .write_all(request)
            .map_err(|e| format!("write: {e}"))?;
        self.buf.clear();
        let mut head: Option<(usize, usize)> = None;
        let mut chunk = [0u8; 16 << 10];
        loop {
            let n = self
                .stream
                .read(&mut chunk)
                .map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("server closed the connection".into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
            if head.is_none() {
                if let Some(i) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                    let text = String::from_utf8_lossy(&self.buf[..i]);
                    let len = text
                        .lines()
                        .find_map(|l| {
                            let (k, v) = l.split_once(':')?;
                            k.trim()
                                .eq_ignore_ascii_case("content-length")
                                .then(|| v.trim().parse::<usize>().ok())?
                        })
                        .ok_or("response has no Content-Length")?;
                    head = Some((i + 4, len));
                }
            }
            if let Some((start, len)) = head {
                if self.buf.len() >= start + len {
                    let status = String::from_utf8_lossy(&self.buf[..start])
                        .split(' ')
                        .nth(1)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or(0);
                    let body = String::from_utf8_lossy(&self.buf[start..start + len]).into_owned();
                    return Ok((status, body));
                }
            }
        }
    }
}

/// One timed request: its kind, client-side latency and block.
type Sample = (Kind, f64, usize);

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    /// Wall seconds of each timed block.
    block_s: Vec<f64>,
    /// Host slowness read at every block boundary, by both clients at
    /// once so the reading covers both cores the load runs on.
    readings: Vec<f64>,
    /// Peak heap once both clients finished warm-up (client 0 only).
    peak_heap_mib: Option<f64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl ClientLog {
    fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.errors.len() < 10 {
            self.errors.push(e);
        }
    }
}

/// Both clients' synchronisation: blocks start and end together so the
/// clients can read the host's slowness while no request is in flight.
struct Lockstep {
    barrier: Barrier,
    stop: AtomicBool,
}

/// Whether block `k` of a run is traced: traced runs alternate.
fn traced_block(trace: bool, k: usize) -> bool {
    trace && k % 2 == 1
}

/// One closed-loop client: seeds its tenant, warms up, then repeats [`MIX`]
/// in blocks of [`BLOCK`] requests until `budget` has passed.
fn client(
    id: usize,
    conn: &mut Conn,
    fx: &Fixture,
    args: &Args,
    sync: &Lockstep,
    tr: &mut Tracer,
) -> ClientLog {
    let mut log = ClientLog::default();
    let tenant = format!("client-{id}");
    let tenant_request = request("POST", "/forecast", &format!("{{\"tenant\":\"{tenant}\"}}"));
    let observe_requests: Vec<Vec<u8>> = fx
        .rows
        .iter()
        .map(|row| {
            let body = format!(
                "{{\"tenant\":\"{tenant}\",\"rows\":{}}}",
                json_rows([row].into_iter())
            );
            request("POST", "/observe", &body)
        })
        .collect();
    let mut rng = seeded_rng(args.seed ^ (0x9e37_79b9 * (id as u64 + 1)));

    // Seed the tenant with its first window, in one request.
    let seed_body = format!(
        "{{\"tenant\":\"{tenant}\",\"rows\":{}}}",
        json_rows(fx.rows[..INPUT_LEN].iter())
    );
    log.attempted += 1;
    match conn.exchange(&request("POST", "/observe", &seed_body)) {
        Ok((200, _)) => {}
        Ok((status, body)) => log.fail(format!("seeding observe: status {status}: {body}")),
        Err(e) => log.fail(format!("seeding observe: {e}")),
    }
    // The tenant holds fx.rows[j % len] for j in 0..observed.
    let mut observed = INPUT_LEN;

    let mut one = |i: usize, block: Option<usize>, log: &mut ClientLog, tr: &mut Tracer| {
        let kind = MIX[i % MIX.len()];
        let window = rng.gen_range(0..fx.rows.len());
        let (req, want, name): (&[u8], _, _) = match kind {
            Kind::Window => (
                &fx.window_requests[window],
                Some(&fx.expected[window]),
                "serve.window_forecast",
            ),
            Kind::Tenant => (
                &tenant_request,
                Some(&fx.expected[(observed - INPUT_LEN) % fx.rows.len()]),
                "serve.tenant_forecast",
            ),
            Kind::Observe => (
                &observe_requests[observed % fx.rows.len()],
                None,
                "serve.observe",
            ),
        };
        log.attempted += 1;
        let traced = block.is_some_and(|k| traced_block(args.trace, k));
        let span = traced.then(|| tr.enter("serve", name));
        let t = Instant::now();
        let result = conn.exchange(req);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if let Some(s) = span {
            tr.exit(s);
        }
        let body = match result {
            Ok((200, body)) => body,
            Ok((status, body)) => return log.fail(format!("{name}: status {status}: {body}")),
            Err(e) => return log.fail(format!("{name}: {e}")),
        };
        let verdict = match want {
            Some(want) => check::forecast_body(&body, want),
            None => {
                observed += 1;
                let rows = Json::parse(&body)
                    .ok()
                    .and_then(|d| d.get("rows")?.as_num());
                let held = observed.min(TENANT_MAX_ROWS) as f64;
                if rows == Some(held) {
                    Ok(())
                } else {
                    Err(format!("tenant holds {rows:?} rows, expected {held}"))
                }
            }
        };
        if let Err(e) = verdict {
            return log.fail(format!("{name}: {e}"));
        }
        if let Some(k) = block {
            log.samples.push((kind, ms, k));
        }
    };

    for i in 0..WARMUP {
        one(i, None, &mut log, tr);
    }
    sync.barrier.wait();
    let mut reference = Reference::default();
    if id == 0 {
        log.peak_heap_mib = Some(crate::peak_heap_mib());
    }
    let t0 = Instant::now();
    let mut i = 0;
    for k in 0.. {
        sync.barrier.wait();
        log.readings.push(reference.slowness());
        if id == 0 {
            sync.stop
                .store(t0.elapsed() >= args.budget(), Ordering::SeqCst);
        }
        sync.barrier.wait();
        if sync.stop.load(Ordering::SeqCst) {
            break;
        }
        let block = traced_block(args.trace, k).then(|| tr.enter("bench", "serve.block"));
        let t = Instant::now();
        for _ in 0..BLOCK {
            one(i, Some(k), &mut log, tr);
            i += 1;
        }
        log.block_s.push(t.elapsed().as_secs_f64());
        if let Some(b) = block {
            tr.exit(b);
        }
    }
    log
}

/// Reads `(route p50 ms, batches, batched requests)` from `/metrics`.
fn server_metrics(conn: &mut Conn) -> Result<(f64, f64, f64), String> {
    let (status, body) = conn.exchange(&request("GET", "/metrics", ""))?;
    if status != 200 {
        return Err(format!("/metrics: status {status}"));
    }
    let doc = Json::parse(&body).map_err(|e| format!("/metrics: {e}"))?;
    let counter = |name: &str| {
        doc.get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_num)
            .ok_or(format!("/metrics has no counter {name}"))
    };
    let route_p50_ns = doc
        .get("histograms")
        .and_then(Json::as_arr)
        .and_then(|hs| {
            hs.iter()
                .find(|h| h.get("name").and_then(Json::as_str) == Some("serve.forecast.latency_ns"))
        })
        .and_then(|h| h.get("p50"))
        .and_then(Json::as_num)
        .ok_or("/metrics has no forecast latency histogram")?;
    Ok((
        route_p50_ns / 1e6,
        counter("serve.batches")?,
        counter("serve.batched_requests")?,
    ))
}

pub fn run(args: &Args, out_dir: &Path) -> Outcome {
    let base = Instant::now();
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(args.trace, base, 0);
    std::fs::create_dir_all(out_dir).expect("create the output directory");

    // Set-ups, each on a fresh thread; every server but the last stops.
    let mut setups = Vec::new();
    let mut live = None;
    for k in 0..SETUPS {
        let registry = out_dir.join(format!("serve-registry-{}-{k}", std::process::id()));
        let _ = std::fs::remove_dir_all(&registry);
        let last = k + 1 == SETUPS;
        let ((s, tr), raw, slow) = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let mut tr = Tracer::new(args.trace && last, base, 0);
                    Reference::default().around(|| (setup(args.seed, registry, &mut tr), tr))
                })
                .join()
                .expect("set-up thread panicked")
        });
        tracer.absorb(tr);
        setups.push([raw / slow, s.publish_ms, s.load_ms, s.start_ms]);
        if last {
            live = Some(s);
        } else {
            s.server.shutdown();
            let _ = std::fs::remove_dir_all(&s.registry);
        }
    }
    let Setup {
        server,
        registry,
        fixture,
        ..
    } = live.expect("at least one set-up");

    let addr = server.addr();
    let sync = Lockstep {
        barrier: Barrier::new(CLIENTS),
        stop: AtomicBool::new(false),
    };
    let mut conns: Vec<Conn> = (0..CLIENTS)
        .map(|_| Conn::open(addr).expect("connect to the server"))
        .collect();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(id, conn)| {
                let (fx, sync) = (&fixture, &sync);
                scope.spawn(move || {
                    let mut tr = Tracer::new(args.trace, base, id + 1);
                    let log = client(id, conn, fx, args, sync, &mut tr);
                    (log, tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                let (log, tr) = h.join().expect("client thread panicked");
                tracer.absorb(tr);
                log
            })
            .collect()
    });
    let route = server_metrics(&mut conns[0]);
    drop(conns);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&registry);

    for log in &logs {
        out.attempted += log.attempted;
        out.failed += log.failed;
        for e in &log.errors {
            out.fail(e.clone());
        }
    }
    if let Some(peak) = logs[0].peak_heap_mib {
        out.set("peak_heap_mib", peak, "MiB");
    }
    // Block k ran between readings k and k + 1; traced blocks are left out
    // of every timing but the tracing overhead.
    let readings: Vec<f64> = (0..logs[0].readings.len())
        .map(|k| logs.iter().map(|l| l.readings[k]).sum::<f64>() / CLIENTS as f64)
        .collect();
    let slowness = |k: usize| (readings[k] + readings[k + 1]) / 2.0;
    let blocks = logs[0].block_s.len();
    let untraced = |k: &usize| !traced_block(args.trace, *k);
    let (mut requests, mut raw_s, mut nominal_s) = (0usize, 0.0, 0.0);
    for k in (0..blocks).filter(untraced) {
        let wall = logs.iter().map(|l| l.block_s[k]).fold(0.0, f64::max);
        requests += CLIENTS * BLOCK;
        raw_s += wall;
        nominal_s += wall / slowness(k);
    }
    // Latencies of the given kinds, raw or at nominal speed.
    let samples = |kinds: &[Kind], traced: bool, nominal: bool| -> Vec<f64> {
        logs.iter()
            .flat_map(|l| &l.samples)
            .filter(|s| kinds.contains(&s.0) && traced_block(args.trace, s.2) == traced)
            .map(|s| if nominal { s.1 / slowness(s.2) } else { s.1 })
            .collect()
    };
    let forecasts = [Kind::Window, Kind::Tenant];

    let col = |i: usize| setups.iter().map(|s| s[i]).collect::<Vec<f64>>();
    out.set("setup_s", median(&col(0)).unwrap_or(0.0), "s");
    if let (Some(s), Some(raw)) = (
        Summary::of(&samples(&forecasts, false, true)),
        Summary::of(&samples(&forecasts, false, false)),
    ) {
        out.set("op_p50_ms", s.p50, "ms");
        out.set("op_tail_ms", s.tail90.1, "ms");
        out.set("serve_p50_ms", raw.p50, "ms");
        out.set("serve_p99_ms", raw.tail.1, "ms");
        println!(
            "op = one /forecast at the client: n={} p50={:.3} ms p{}={:.3} ms at nominal speed (raw p50={:.3} ms p{}={:.3} ms)",
            s.n, s.p50, s.tail90.0, s.tail90.1, raw.p50, raw.tail.0, raw.tail.1
        );
        match route {
            Ok((route_p50, batches, batched)) => {
                out.set("serve.route_forecast_p50_ms", route_p50, "ms");
                out.set("serve.outside_route_ms", raw.p50 - route_p50, "ms");
                out.set("serve.batches", batches, "count");
                out.set("serve.batched_requests", batched, "count");
                out.set("serve.batch_occupancy", batched / batches.max(1.0), "1");
            }
            Err(e) => {
                out.failed += 1;
                out.fail(e);
            }
        }
    }
    out.set("ops_per_s", requests as f64 / nominal_s, "1/s");
    out.set("serve_rps", requests as f64 / raw_s, "1/s");
    out.set("host.slowness", median(&readings).unwrap_or(0.0), "1");
    out.set("serve.publish_ms", median(&col(1)).unwrap_or(0.0), "ms");
    out.set(
        "serve.registry_load_ms",
        median(&col(2)).unwrap_or(0.0),
        "ms",
    );
    out.set("serve.start_ms", median(&col(3)).unwrap_or(0.0), "ms");
    for (kind, p50, p99) in [
        (
            Kind::Window,
            "serve.window_forecast_p50_ms",
            "serve.window_forecast_p99_ms",
        ),
        (
            Kind::Tenant,
            "serve.tenant_forecast_p50_ms",
            "serve.tenant_forecast_p99_ms",
        ),
        (
            Kind::Observe,
            "serve.observe_p50_ms",
            "serve.observe_p99_ms",
        ),
    ] {
        if let Some(s) = Summary::of(&samples(&[kind], false, false)) {
            out.set(p50, s.p50, "ms");
            out.set(p99, s.tail.1, "ms");
        }
    }
    if args.trace {
        let (traced, plain) = (
            samples(&forecasts, true, false),
            samples(&forecasts, false, false),
        );
        if let (Some(t), Some(p)) = (median(&traced), median(&plain)) {
            out.set("obs.trace_overhead_pct", 100.0 * (t / p - 1.0), "%");
        }
        let spans = tracer.spans();
        let med = |name: &str| median(&crate::trace::durations_ms(spans, name)).unwrap_or(0.0);
        out.set("data.generate_ms", med("data.generate"), "ms");
        out.set("timekd.plan_compile_ms", med("timekd.plan_compile"), "ms");
    }
    out.spans = tracer.into_spans();
    out
}
