//! OFMF-B5: requests/second through the real HTTP stack (socket → parser →
//! router → tree → serializer), keep-alive.
//!
//! Two measurements:
//!
//! * A criterion group timing single-connection request kinds (plus the
//!   observability ablation).
//! * A self-timed concurrency sweep pitting the epoll event loop against
//!   the thread-pool baseline at 64–1024 concurrent keep-alive
//!   connections, reporting aggregate req/s, how many of the clients were
//!   ever served (the thread-pool collapse mode is starvation: its workers
//!   pin to the first few keep-alive connections), and request-latency
//!   percentiles across the served population. A final scenario runs the
//!   event loop over its connection cap and counts `503` sheds.
//!
//! `OFMF_BENCH_QUICK=1` shrinks sample counts, window lengths and the
//! sweep so CI can smoke-run the full harness.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ofmf_bench::bench_rig;
use ofmf_rest::{Backend, HttpClient, RestServer, Router, ServerConfig};
use serde_json::json;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn quick() -> bool {
    std::env::var("OFMF_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty())
}

fn bench_rest(c: &mut Criterion) {
    let ofmf = bench_rig(8, 2, 3);
    let router = Arc::new(Router::new(Arc::clone(&ofmf), false));
    let server = RestServer::start("127.0.0.1:0", router, 4).expect("bind");
    let addr = server.addr();

    let mut group = c.benchmark_group("rest_throughput");
    group.throughput(Throughput::Elements(1));
    group.sample_size(if quick() { 10 } else { 30 });

    group.bench_function("get_service_root", |b| {
        let mut client = HttpClient::new(addr);
        b.iter(|| {
            let r = client.get("/redfish/v1").unwrap();
            assert_eq!(r.status, 200);
        });
    });

    group.bench_function("get_system", |b| {
        let mut client = HttpClient::new(addr);
        b.iter(|| {
            let r = client.get("/redfish/v1/Systems/cn00").unwrap();
            assert_eq!(r.status, 200);
        });
    });

    group.bench_function("patch_system", |b| {
        let mut client = HttpClient::new(addr);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let r = client
                .patch("/redfish/v1/Systems/cn00", &json!({"Oem": {"Bench": i}}))
                .unwrap();
            assert_eq!(r.status, 200);
        });
    });

    group.bench_function("expand_collection", |b| {
        let mut client = HttpClient::new(addr);
        b.iter(|| {
            let r = client.get("/redfish/v1/Systems?$expand=.").unwrap();
            assert_eq!(r.status, 200);
        });
    });

    // Instrumentation ablation: the same hot GET with the observability
    // layer globally disabled. Comparing against `get_system` bounds the
    // cost of counters + latency histograms + the event ring (<5% target).
    group.bench_function("get_system_obs_off", |b| {
        ofmf_obs::set_enabled(false);
        let mut client = HttpClient::new(addr);
        b.iter(|| {
            let r = client.get("/redfish/v1/Systems/cn00").unwrap();
            assert_eq!(r.status, 200);
        });
        ofmf_obs::set_enabled(true);
    });

    // Backend ablation: the same hot GET served by the blocking thread-pool
    // baseline instead of the epoll event loop.
    group.bench_function("get_system_threadpool", |b| {
        let pool = RestServer::start_thread_pool("127.0.0.1:0", Arc::new(Router::new(Arc::clone(&ofmf), false)), 4)
            .expect("bind");
        let mut client = HttpClient::new(pool.addr());
        b.iter(|| {
            let r = client.get("/redfish/v1/Systems/cn00").unwrap();
            assert_eq!(r.status, 200);
        });
        drop(client);
        pool.shutdown();
    });

    group.finish();
    server.shutdown();
}

const SWEEP_REQUEST: &[u8] = b"GET /redfish/v1/Systems/cn00 HTTP/1.1\r\nHost: bench\r\n\r\n";

/// Read one HTTP response off `stream`, carrying leftover bytes in `buf`.
/// Returns the status code.
fn read_response(stream: &mut TcpStream, buf: &mut Vec<u8>) -> std::io::Result<u16> {
    let mut tmp = [0u8; 8192];
    let head_end = loop {
        if let Some(p) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break p + 4;
        }
        let n = stream.read(&mut tmp)?;
        if n == 0 {
            return Err(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "closed"));
        }
        buf.extend_from_slice(&tmp[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line"))?;
    let body_len: usize = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse().ok())?
        })
        .unwrap_or(0);
    while buf.len() < head_end + body_len {
        let n = stream.read(&mut tmp)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "closed mid-body",
            ));
        }
        buf.extend_from_slice(&tmp[..n]);
    }
    buf.drain(..head_end + body_len);
    Ok(status)
}

struct SweepResult {
    completed: u64,
    shed: u64,
    served_clients: usize,
    window: Duration,
    latencies_ns: Vec<u64>,
    /// Responses each client completed inside the window, sorted ascending
    /// — the fairness distribution (a starved client scores 0).
    per_client: Vec<u64>,
}

/// Drive `conns` keep-alive clients against `addr` for `window`, counting
/// completed responses (and 503 sheds) inside the timed window only.
fn drive_clients(addr: SocketAddr, conns: usize, warmup: Duration, window: Duration) -> SweepResult {
    let stop = Arc::new(AtomicBool::new(false));
    let counting = Arc::new(AtomicBool::new(false));
    let completed = Arc::new(AtomicU64::new(0));
    let shed = Arc::new(AtomicU64::new(0));

    let handles: Vec<_> = (0..conns)
        .map(|_| {
            let stop = Arc::clone(&stop);
            let counting = Arc::clone(&counting);
            let completed = Arc::clone(&completed);
            let shed = Arc::clone(&shed);
            std::thread::spawn(move || {
                let mut served_any = false;
                let mut lat = Vec::new();
                while !stop.load(Ordering::Acquire) {
                    let Ok(mut s) = TcpStream::connect_timeout(&addr, Duration::from_millis(250)) else {
                        std::thread::sleep(Duration::from_millis(20));
                        continue;
                    };
                    let _ = s.set_read_timeout(Some(Duration::from_millis(500)));
                    let _ = s.set_nodelay(true);
                    let mut buf = Vec::new();
                    while !stop.load(Ordering::Acquire) {
                        let start = Instant::now();
                        if s.write_all(SWEEP_REQUEST).is_err() {
                            break;
                        }
                        match read_response(&mut s, &mut buf) {
                            Ok(503) => {
                                if counting.load(Ordering::Acquire) {
                                    shed.fetch_add(1, Ordering::AcqRel);
                                }
                                // Shed connections are closed by the server;
                                // back off before reconnecting.
                                std::thread::sleep(Duration::from_millis(50));
                                break;
                            }
                            Ok(_) => {
                                served_any = true;
                                if counting.load(Ordering::Acquire) {
                                    completed.fetch_add(1, Ordering::AcqRel);
                                    lat.push(start.elapsed().as_nanos() as u64);
                                }
                            }
                            // Starved (read timeout) or disconnected: retry
                            // on a fresh connection.
                            Err(_) => break,
                        }
                    }
                }
                (served_any, lat)
            })
        })
        .collect();

    std::thread::sleep(warmup);
    counting.store(true, Ordering::Release);
    let started = Instant::now();
    std::thread::sleep(window);
    counting.store(false, Ordering::Release);
    let measured = started.elapsed();
    stop.store(true, Ordering::Release);

    let mut served_clients = 0;
    let mut latencies_ns = Vec::new();
    let mut per_client = Vec::new();
    for h in handles {
        if let Ok((served, lat)) = h.join() {
            served_clients += usize::from(served);
            per_client.push(lat.len() as u64);
            latencies_ns.extend(lat);
        }
    }
    latencies_ns.sort_unstable();
    per_client.sort_unstable();
    SweepResult {
        completed: completed.load(Ordering::Acquire),
        shed: shed.load(Ordering::Acquire),
        served_clients,
        window: measured,
        latencies_ns,
        per_client,
    }
}

fn percentile_ms(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * p).round() as usize;
    sorted_ns[idx.min(sorted_ns.len() - 1)] as f64 / 1e6
}

fn backend_label(b: Backend) -> &'static str {
    match b {
        Backend::Epoll => "epoll",
        Backend::ThreadPool => "threads",
    }
}

fn sweep_concurrency(_c: &mut Criterion) {
    println!("\n== rest_concurrency ==");
    let (conn_counts, warmup, window): (&[usize], _, _) = if quick() {
        (&[16, 64], Duration::from_millis(150), Duration::from_millis(400))
    } else {
        (&[64, 256, 1024], Duration::from_millis(300), Duration::from_secs(2))
    };

    for backend in [Backend::ThreadPool, Backend::Epoll] {
        for &conns in conn_counts {
            let ofmf = bench_rig(8, 2, 3);
            let router = Arc::new(Router::new(Arc::clone(&ofmf), false));
            let server = RestServer::start_with(
                "127.0.0.1:0",
                router,
                ServerConfig {
                    workers: 4,
                    max_connections: 4096,
                    backend,
                },
            )
            .expect("bind");
            let r = drive_clients(server.addr(), conns, warmup, window);
            let secs = r.window.as_secs_f64();
            let rps = r.completed as f64 / secs;
            let median_client = r.per_client.get(r.per_client.len() / 2).copied().unwrap_or(0) as f64 / secs;
            println!(
                "rest_concurrency/{}/{conns}: {rps:.0} req/s, served {}/{conns} clients, \
                 median client {median_client:.0} req/s, p50 {:.2} ms, p99 {:.2} ms",
                backend_label(backend),
                r.served_clients,
                percentile_ms(&r.latencies_ns, 0.50),
                percentile_ms(&r.latencies_ns, 0.99),
            );
            server.shutdown();
        }
    }

    // Over-cap behavior: the event loop must answer — not queue — beyond
    // its connection cap, so every client sees either a 200 or a fast 503.
    let cap = 16;
    let clients = if quick() { 32 } else { 64 };
    let ofmf = bench_rig(8, 2, 3);
    let router = Arc::new(Router::new(Arc::clone(&ofmf), false));
    let server = RestServer::start_with(
        "127.0.0.1:0",
        router,
        ServerConfig {
            workers: 4,
            max_connections: cap,
            backend: Backend::Epoll,
        },
    )
    .expect("bind");
    let r = drive_clients(server.addr(), clients, warmup, window);
    println!(
        "rest_concurrency/load_shed cap={cap} clients={clients}: {} completed, {} shed (503 + Retry-After)",
        r.completed, r.shed
    );
    assert!(
        r.completed > 0 && r.shed > 0,
        "over-cap run must both serve within the cap and shed beyond it (completed={}, shed={})",
        r.completed,
        r.shed
    );
    server.shutdown();
}

criterion_group!(benches, bench_rest, sweep_concurrency);
criterion_main!(benches);
