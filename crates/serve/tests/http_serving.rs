//! End-to-end serving tests over real TCP connections: bitwise parity
//! with the in-process planned student, error-path behaviour, concurrent
//! determinism, hot-swap under load, tenant flows and `/metrics`.

mod common;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use common::*;
use timekd::{PlannedStudent, QuantizedStudent};
use timekd_obs::json::Json;
use timekd_serve::{ServeConfig, Server};
use timekd_tensor::{Precision, Tensor};

fn window_tensor(rows: &[Vec<f32>]) -> Tensor {
    let flat: Vec<f32> = rows.iter().flatten().copied().collect();
    Tensor::from_vec(flat, [INPUT_LEN, NUM_VARS])
}

fn forecast_body(rows: &[Vec<f32>]) -> String {
    Json::obj(vec![("x", rows_json(rows))]).render()
}

#[test]
fn served_forecast_is_bitwise_identical_to_planned_student() {
    let _serial = common::serial();
    timekd_obs::reset();
    let root = temp_registry("bitwise");
    let student = publish_version(&root, 1, 41, Precision::F32);
    let server = Server::start(ServeConfig::new(&root)).expect("start");

    let mut planned = PlannedStudent::new(&student, &tiny_config()).expect("planned");
    let window = demo_window(7);
    let reference = tensor_bits(&planned.predict(&window_tensor(&window)));

    let resp = request(server.addr(), "POST", "/forecast", &forecast_body(&window));
    assert_eq!(resp.status, 200, "{}", resp.body);
    let doc = resp.json();
    assert_eq!(doc.get("version").and_then(Json::as_num), Some(1.0));
    assert_eq!(
        doc.get("horizon").and_then(Json::as_num),
        Some(HORIZON as f64)
    );
    assert_eq!(
        doc.get("num_vars").and_then(Json::as_num),
        Some(NUM_VARS as f64)
    );
    assert_eq!(
        forecast_bits(&doc),
        reference,
        "served forecast must match PlannedStudent::predict bit for bit"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn pipelined_requests_get_in_order_bitwise_responses_on_one_connection() {
    let _serial = common::serial();
    let root = temp_registry("pipelined");
    let student = publish_version(&root, 1, 52, Precision::F32);
    let server = Server::start(ServeConfig::new(&root)).expect("start");
    let mut planned = PlannedStudent::new(&student, &tiny_config()).expect("planned");

    let mut conn = TcpStream::connect(server.addr()).expect("connect");
    for n in [2u64, 3] {
        // n forecasts for distinct windows, all sent in one write.
        let windows: Vec<_> = (0..n).map(|k| demo_window(60 + 10 * n + k)).collect();
        let raw: String = windows
            .iter()
            .map(|w| raw_request("POST", "/forecast", &forecast_body(w)))
            .collect();
        conn.write_all(raw.as_bytes())
            .expect("write pipelined requests");
        for window in &windows {
            let resp = read_response(&mut conn);
            assert_eq!(resp.status, 200, "{}", resp.body);
            assert_eq!(
                forecast_bits(&resp.json()),
                tensor_bits(&planned.predict(&window_tensor(window))),
                "pipelined responses must come back in request order"
            );
        }
    }

    // An observe and the tenant forecast that reads it, pipelined: the
    // forecast must see the observed rows.
    let window = demo_window(77);
    let observe = Json::obj(vec![
        ("tenant", Json::str("pipe")),
        ("rows", rows_json(&window)),
    ]);
    let raw = raw_request("POST", "/observe", &observe.render())
        + &raw_request("POST", "/forecast", r#"{"tenant": "pipe"}"#);
    conn.write_all(raw.as_bytes())
        .expect("write pipelined requests");
    assert_eq!(read_response(&mut conn).status, 200);
    let resp = read_response(&mut conn);
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(
        forecast_bits(&resp.json()),
        tensor_bits(&planned.predict(&window_tensor(&window)))
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn request_sent_one_byte_per_write_is_served() {
    let _serial = common::serial();
    let root = temp_registry("bytewise");
    let student = publish_version(&root, 1, 53, Precision::F32);
    let server = Server::start(ServeConfig::new(&root)).expect("start");
    let mut planned = PlannedStudent::new(&student, &tiny_config()).expect("planned");

    let window = demo_window(5);
    let mut conn = TcpStream::connect(server.addr()).expect("connect");
    conn.set_nodelay(true).expect("nodelay");
    for b in raw_request("POST", "/forecast", &forecast_body(&window)).as_bytes() {
        conn.write_all(std::slice::from_ref(b)).expect("write");
    }
    let resp = read_response(&mut conn);
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(
        forecast_bits(&resp.json()),
        tensor_bits(&planned.predict(&window_tensor(&window)))
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn int8_manifest_serves_quantized_forecasts_bitwise() {
    let _serial = common::serial();
    timekd_obs::reset();
    let root = temp_registry("int8");
    let student = publish_version(&root, 1, 43, Precision::Int8);
    let server = Server::start(ServeConfig::new(&root)).expect("start");

    let mut quantized = QuantizedStudent::new(&student, &tiny_config()).expect("quantized");
    let window = demo_window(9);
    let reference = tensor_bits(&quantized.predict(&window_tensor(&window)));

    let resp = request(server.addr(), "POST", "/forecast", &forecast_body(&window));
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(
        forecast_bits(&resp.json()),
        reference,
        "int8 manifest must serve QuantizedStudent::predict bit for bit"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn error_paths_answer_precisely_and_keep_the_connection() {
    let _serial = common::serial();
    timekd_obs::reset();
    let root = temp_registry("errors");
    let _student = publish_version(&root, 1, 44, Precision::F32);
    let mut cfg = ServeConfig::new(&root);
    cfg.max_body_bytes = 2048;
    let server = Server::start(cfg).expect("start");

    // All of these ride one keep-alive connection; each error must leave
    // the connection usable for the next request.
    let mut conn = TcpStream::connect(server.addr()).expect("connect");

    let resp = request_on(&mut conn, "GET", "/nope", "");
    assert_eq!(resp.status, 404);
    assert!(resp.json().get("error").is_some(), "{}", resp.body);

    let resp = request_on(&mut conn, "GET", "/forecast", "");
    assert_eq!(resp.status, 405, "{}", resp.body);

    let resp = request_on(&mut conn, "POST", "/forecast", "{not json");
    assert_eq!(resp.status, 400, "{}", resp.body);

    // Wrong row count.
    let short = demo_window(44)[..INPUT_LEN - 2].to_vec();
    let resp = request_on(&mut conn, "POST", "/forecast", &forecast_body(&short));
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(resp.body.contains("rows"), "{}", resp.body);

    // Non-numeric cell in a correctly shaped window.
    let mut rows: Vec<String> = vec![r#"[1, 2, "oops"]"#.to_string()];
    rows.extend((1..INPUT_LEN).map(|_| "[0, 0, 0]".to_string()));
    let bad = format!(r#"{{"x": [{}]}}"#, rows.join(", "));
    let resp = request_on(&mut conn, "POST", "/forecast", &bad);
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(resp.body.contains("finite"), "{}", resp.body);

    // Missing both `x` and `tenant`.
    let resp = request_on(&mut conn, "POST", "/forecast", "{}");
    assert_eq!(resp.status, 400, "{}", resp.body);

    // Unknown tenant.
    let resp = request_on(&mut conn, "POST", "/forecast", r#"{"tenant": "ghost"}"#);
    assert_eq!(resp.status, 409, "{}", resp.body);
    assert!(resp.body.contains("ghost"), "{}", resp.body);

    // Oversized-but-drainable body: 413 and the connection survives.
    let big = format!(r#"{{"pad": "{}"}}"#, "y".repeat(4096));
    let resp = request_on(&mut conn, "POST", "/forecast", &big);
    assert_eq!(resp.status, 413, "{}", resp.body);

    // The same connection still serves a good forecast afterwards.
    let resp = request_on(
        &mut conn,
        "POST",
        "/forecast",
        &forecast_body(&demo_window(44)),
    );
    assert_eq!(resp.status, 200, "{}", resp.body);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn concurrent_clients_get_deterministic_fused_responses() {
    let _serial = common::serial();
    timekd_obs::reset();
    let root = temp_registry("concurrent");
    let student = publish_version(&root, 1, 45, Precision::F32);
    let server = Server::start(ServeConfig::new(&root)).expect("start");
    let addr = server.addr();

    let mut planned = PlannedStudent::new(&student, &tiny_config()).expect("planned");
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 5;
    // Each client sends its own distinct window repeatedly; fusion across
    // clients must not bleed one client's input into another's output.
    let references: Vec<Arc<Vec<u32>>> = (0..CLIENTS)
        .map(|c| {
            let window = demo_window(100 + c as u64);
            Arc::new(tensor_bits(&planned.predict(&window_tensor(&window))))
        })
        .collect();

    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let reference = references[c].clone();
            std::thread::spawn(move || {
                let window = demo_window(100 + c as u64);
                let body = forecast_body(&window);
                let mut conn = TcpStream::connect(addr).expect("connect");
                for _ in 0..PER_CLIENT {
                    let resp = request_on(&mut conn, "POST", "/forecast", &body);
                    assert_eq!(resp.status, 200, "{}", resp.body);
                    assert_eq!(forecast_bits(&resp.json()), *reference);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread");
    }

    // Every forecast was batched (occupancy numerator equals request count)
    // and the batch counters are visible over /metrics.
    let resp = request(addr, "GET", "/metrics", "");
    assert_eq!(resp.status, 200);
    let doc = resp.json();
    // Counter names contain dots, so they are addressed as literal keys of
    // the `counters` object rather than through `get_path`.
    let counter = |name: &str| {
        doc.get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_num)
            .unwrap_or_else(|| panic!("counter {name} missing: {}", resp.body))
    };
    assert_eq!(
        counter("serve.batched_requests"),
        (CLIENTS * PER_CLIENT) as f64
    );
    let batches = counter("serve.batches");
    assert!(batches >= 1.0);
    assert!(batches <= (CLIENTS * PER_CLIENT) as f64);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn hot_swap_under_load_never_drops_or_mixes_versions() {
    let _serial = common::serial();
    timekd_obs::reset();
    let root = temp_registry("hotswap");
    let student_v1 = publish_version(&root, 1, 46, Precision::F32);
    let student_v2 = publish_version(&root, 2, 47, Precision::F32);
    // Boot pinned to v1: latest_version picks v2, so activate v1 first via
    // a server started on the registry, then swap back. Simpler: publish v2
    // later — instead we just activate v1 explicitly before the load phase.
    let server = Server::start(ServeConfig::new(&root)).expect("start");
    let addr = server.addr();
    let resp = request(addr, "POST", "/admin/activate", r#"{"version": 1}"#);
    assert_eq!(resp.status, 200, "{}", resp.body);

    let window = demo_window(11);
    let mut planned_v1 = PlannedStudent::new(&student_v1, &tiny_config()).expect("planned v1");
    let mut planned_v2 = PlannedStudent::new(&student_v2, &tiny_config()).expect("planned v2");
    let ref_v1 = Arc::new(tensor_bits(&planned_v1.predict(&window_tensor(&window))));
    let ref_v2 = Arc::new(tensor_bits(&planned_v2.predict(&window_tensor(&window))));
    assert_ne!(*ref_v1, *ref_v2, "the two versions must actually differ");

    const CLIENTS: usize = 4;
    const REQUESTS: usize = 40;
    let body = forecast_body(&window);
    let workers: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let (ref_v1, ref_v2) = (ref_v1.clone(), ref_v2.clone());
            let body = body.clone();
            std::thread::spawn(move || {
                let mut conn = TcpStream::connect(addr).expect("connect");
                let mut seen_v2 = false;
                let mut versions = Vec::with_capacity(REQUESTS);
                // Run at least REQUESTS requests and keep going until the
                // swap (issued concurrently by the main thread) is visible.
                while versions.len() < REQUESTS || !seen_v2 {
                    assert!(versions.len() < 5000, "v2 never became visible");
                    let resp = request_on(&mut conn, "POST", "/forecast", &body);
                    // Never dropped: every request gets a full 200.
                    assert_eq!(resp.status, 200, "{}", resp.body);
                    let doc = resp.json();
                    let version = doc.get("version").and_then(Json::as_num).expect("version");
                    let bits = forecast_bits(&doc);
                    // Never mixed: the payload is wholly the version it claims.
                    if version == 1.0 {
                        assert!(!seen_v2, "v1 response after v2 went live");
                        assert_eq!(bits, *ref_v1, "v1 response with foreign bits");
                    } else {
                        assert_eq!(version, 2.0, "unknown version {version}");
                        seen_v2 = true;
                        assert_eq!(bits, *ref_v2, "v2 response with foreign bits");
                    }
                    versions.push(version as u64);
                }
                versions
            })
        })
        .collect();

    // Swap mid-flight.
    std::thread::sleep(std::time::Duration::from_millis(5));
    let resp = request(addr, "POST", "/admin/activate", r#"{"version": 2}"#);
    assert_eq!(resp.status, 200, "{}", resp.body);

    let mut total_v2 = 0usize;
    for w in workers {
        let versions = w.join().expect("client thread");
        assert!(versions.len() >= REQUESTS);
        total_v2 += versions.iter().filter(|&&v| v == 2).count();
    }
    assert!(total_v2 >= CLIENTS, "every client must observe the swap");
    let resp = request(addr, "POST", "/forecast", &body);
    assert_eq!(resp.status, 200);
    assert_eq!(forecast_bits(&resp.json()), *ref_v2);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn connections_past_the_cap_are_shed_with_503() {
    let _serial = common::serial();
    timekd_obs::reset();
    let root = temp_registry("conncap");
    let _student = publish_version(&root, 1, 50, Precision::F32);
    let mut cfg = ServeConfig::new(&root);
    cfg.max_connections = 2;
    let server = Server::start(cfg).expect("start");
    let addr = server.addr();

    // Two keep-alive connections occupy both handler slots.
    let mut held: Vec<TcpStream> = (0..2)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();
    for conn in held.iter_mut() {
        let resp = request_on(conn, "GET", "/healthz", "");
        assert_eq!(resp.status, 200, "{}", resp.body);
    }

    // A third connection is shed: an unsolicited 503 then EOF, without
    // ever spawning a handler thread.
    let mut extra = TcpStream::connect(addr).expect("connect");
    let mut raw = String::new();
    extra.read_to_string(&mut raw).expect("read shed response");
    assert!(raw.starts_with("HTTP/1.1 503"), "{raw}");
    assert!(raw.contains("capacity"), "{raw}");
    drop(extra);

    // Freeing a slot re-admits new connections; the handler notices the
    // closed peer within a read-timeout tick, so poll briefly.
    drop(held.pop());
    let mut admitted = false;
    for _ in 0..200 {
        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.set_read_timeout(Some(std::time::Duration::from_millis(50)))
            .expect("set timeout");
        let mut probe = [0u8; 1];
        match conn.read(&mut probe) {
            // Admitted handlers wait silently for a request; shed
            // connections get an immediate 503 instead.
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                conn.set_read_timeout(None).expect("clear timeout");
                let resp = request_on(&mut conn, "GET", "/healthz", "");
                assert_eq!(resp.status, 200, "{}", resp.body);
                admitted = true;
                break;
            }
            _ => std::thread::sleep(std::time::Duration::from_millis(5)),
        }
    }
    assert!(admitted, "a freed slot must admit new connections");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn deeply_nested_json_body_is_rejected_not_fatal() {
    let _serial = common::serial();
    timekd_obs::reset();
    let root = temp_registry("deepjson");
    let _student = publish_version(&root, 1, 51, Precision::F32);
    let server = Server::start(ServeConfig::new(&root)).expect("start");
    let addr = server.addr();

    // ~100k nested arrays is well under the 1 MiB body cap but would
    // overflow the handler stack without the parser depth limit — the
    // whole process would abort, not just the request.
    let bomb = "[".repeat(100_000);
    let mut conn = TcpStream::connect(addr).expect("connect");
    let resp = request_on(&mut conn, "POST", "/forecast", &bomb);
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(resp.body.contains("nesting"), "{}", resp.body);

    // The server survives and keeps serving.
    let resp = request(addr, "GET", "/healthz", "");
    assert_eq!(resp.status, 200, "{}", resp.body);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn tenant_observe_then_forecast_matches_explicit_window() {
    let _serial = common::serial();
    timekd_obs::reset();
    let root = temp_registry("tenants");
    let student = publish_version(&root, 1, 48, Precision::F32);
    let server = Server::start(ServeConfig::new(&root)).expect("start");
    let addr = server.addr();

    // Feed 2 extra rows; the forecast must use the *last* INPUT_LEN rows.
    let mut history = demo_window(21);
    history.splice(0..0, vec![vec![9.0; NUM_VARS], vec![-9.0; NUM_VARS]]);
    let observe_body = Json::obj(vec![
        ("tenant", Json::str("acme")),
        ("rows", rows_json(&history)),
    ])
    .render();
    let resp = request(addr, "POST", "/observe", &observe_body);
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(
        resp.json().get("rows").and_then(Json::as_num),
        Some((INPUT_LEN + 2) as f64)
    );

    let mut planned = PlannedStudent::new(&student, &tiny_config()).expect("planned");
    let reference = tensor_bits(&planned.predict(&window_tensor(&demo_window(21))));
    let resp = request(addr, "POST", "/forecast", r#"{"tenant": "acme"}"#);
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(forecast_bits(&resp.json()), reference);

    // A tenant with too little history is a 409, not a panic or a pad.
    let resp = request(
        addr,
        "POST",
        "/observe",
        &Json::obj(vec![
            ("tenant", Json::str("sparse")),
            ("rows", rows_json(&demo_window(5)[..2])),
        ])
        .render(),
    );
    assert_eq!(resp.status, 200);
    let resp = request(addr, "POST", "/forecast", r#"{"tenant": "sparse"}"#);
    assert_eq!(resp.status, 409, "{}", resp.body);
    assert!(resp.body.contains("2 rows"), "{}", resp.body);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn metrics_exposes_counters_and_latency_histograms() {
    let _serial = common::serial();
    timekd_obs::reset();
    let root = temp_registry("metrics");
    let _student = publish_version(&root, 1, 49, Precision::F32);
    let server = Server::start(ServeConfig::new(&root)).expect("start");
    let addr = server.addr();

    let body = forecast_body(&demo_window(31));
    for _ in 0..6 {
        let resp = request(addr, "POST", "/forecast", &body);
        assert_eq!(resp.status, 200);
    }
    let resp = request(addr, "GET", "/healthz", "");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.json().get("version").and_then(Json::as_num), Some(1.0));

    let resp = request(addr, "GET", "/metrics", "");
    assert_eq!(resp.status, 200);
    let doc = resp.json();
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("timekd-serve-metrics/v1")
    );
    let counter = |name: &str| {
        doc.get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_num)
    };
    assert_eq!(
        counter("serve.requests"),
        Some(8.0),
        "6 forecasts + healthz + this metrics request: {}",
        resp.body
    );
    assert_eq!(counter("serve.errors"), Some(0.0));
    let hists = doc
        .get("histograms")
        .and_then(Json::as_arr)
        .expect("histograms");
    let find = |name: &str| {
        hists
            .iter()
            .find(|h| h.get("name").and_then(Json::as_str) == Some(name))
            .unwrap_or_else(|| panic!("histogram {name} missing: {}", resp.body))
    };
    let fc = find("serve.forecast.latency_ns");
    assert_eq!(fc.get("count").and_then(Json::as_num), Some(6.0));
    let p50 = fc.get("p50").and_then(Json::as_num).expect("p50");
    let p99 = fc.get("p99").and_then(Json::as_num).expect("p99");
    assert!(p50 > 0.0 && p50 <= p99, "p50 {p50} p99 {p99}");
    let occ = find("serve.batch.occupancy");
    assert!(occ.get("count").and_then(Json::as_num).expect("count") >= 1.0);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
