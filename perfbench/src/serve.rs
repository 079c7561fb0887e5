//! The `serve-mix` workload: `campaign serve` with two handlers in its
//! own process, driven by a closed-loop client over two connections.
//!
//! Each connection sends its next `POST /run` only after the previous
//! report line has arrived. Request `i` is a seeded draw over the
//! scenario catalogue (re-seeded from `--seed`) × {`tlm`, `lt`,
//! `sharded-tlm-reads`}, streaming probes every [`STRIDE`] cycles; about
//! one request in ten sets `"trace": true`. Only valid requests are sent.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ahbplus::{scenario_catalogue, Canonical, PlatformConfig, ScenarioSpec};
use analysis::report::ModelKind;
use campaign::serve::CampaignServer;
use simkern::time::Cycle;

use crate::layers::{self, Counts, Stimulus, LAYER_BUDGET};
use crate::sim::{digest_probe, FlatReference};
use crate::stats::{derive_seed, mean, median, percentile, tail_supported, Digest, Spans};
use crate::{Args, Outcome};

/// First argument that turns the benchmark binary into the server.
pub const CHILD_MODE: &str = "serve-child";
/// `campaign serve --handlers` and the client's connection count.
const HANDLERS: usize = 2;
const CONNECTIONS: usize = 2;
/// Probe streaming stride of every request, in simulated cycles.
const STRIDE: u64 = 5000;
/// Requests replayed in process and checked against the server's answers.
const REFERENCE_REQUESTS: u64 = 8;
/// Server processes serving the measured time, in equal shares.
const SERVERS: usize = 4;
/// Server start-ups timed for `setup_s` before each server's share of
/// the loop, the serving one included; spread over the run so that no
/// single spell of host speed sets the median.
const SETUPS_PER_SERVER: usize = 8;
/// Seeds per catalogue scenario in the accuracy reference.
const ACCURACY_ROUNDS: u64 = 4;
const TIMEOUT: Duration = Duration::from_secs(10);
const MODELS: [ModelKind; 3] = [
    ModelKind::TransactionLevel,
    ModelKind::LooselyTimed,
    ModelKind::ShardedTlmReads,
];

/// Runs `campaign serve` on an ephemeral loopback port, printing the
/// bound address first. Exits when its standard input closes, so the
/// server never outlives the benchmark process.
pub fn child_main() -> ExitCode {
    let server = match CampaignServer::bind("127.0.0.1:0") {
        Ok(server) => server,
        Err(error) => {
            eprintln!("perfbench serve: bind failed: {error}");
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(addr) => println!("{addr}"),
        Err(error) => {
            eprintln!("perfbench serve: {error}");
            return ExitCode::FAILURE;
        }
    }
    let _ = io::stdout().flush();
    std::thread::spawn(|| {
        let _ = io::copy(&mut io::stdin(), &mut io::sink());
        std::process::exit(0);
    });
    match server.serve(HANDLERS, None) {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("perfbench serve: {error}");
            ExitCode::FAILURE
        }
    }
}

/// A running server process; killed and reaped on drop.
struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Server {
    /// Starts the server and waits until `/healthz` answers; returns it
    /// with the time that took.
    fn start() -> Result<(Server, f64), String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let mut child = Command::new(exe)
            .arg(CHILD_MODE)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("stdout is piped");
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = match read.map(|_| line.trim().parse::<SocketAddr>()) {
            Ok(Ok(addr)) => addr,
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("server printed no address: {line:?}"));
            }
        };
        let server = Server { child, addr };
        loop {
            if let Ok(r) = http(server.addr, "GET", "/healthz", "") {
                if r.status == 200 {
                    break;
                }
            }
            if t0.elapsed() > TIMEOUT {
                return Err("server never answered /healthz".to_owned());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok((server, t0.elapsed().as_secs_f64()))
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

struct Response {
    status: u16,
    body: String,
}

/// One HTTP/1.1 exchange over a fresh connection (`Connection: close`).
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> io::Result<Response> {
    let mut stream = TcpStream::connect_timeout(&addr, TIMEOUT)?;
    stream.set_read_timeout(Some(TIMEOUT))?;
    stream.set_write_timeout(Some(TIMEOUT))?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    )?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map_or(raw.len(), |p| p + 4);
    let status = std::str::from_utf8(&raw[..head_end])
        .ok()
        .and_then(|head| head.split_whitespace().nth(1)?.parse().ok())
        .unwrap_or(0);
    raw.drain(..head_end);
    Ok(Response {
        status,
        body: String::from_utf8(raw).unwrap_or_default(),
    })
}

/// The integer value of `"key": N` in a JSON line (first occurrence).
fn int_field(line: &str, key: &str) -> Option<u64> {
    let start = line.find(&format!("\"{key}\": "))? + key.len() + 4;
    let digits: String = line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// The final report line of a `/run` response.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Served {
    cycles: u64,
    transactions: u64,
    bytes: u64,
    wall_micros: u64,
    trace_events: u64,
}

fn served(body: &str) -> Option<Served> {
    let line = body
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .filter(|l| l.starts_with("{\"event\": \"report\""))?;
    Some(Served {
        cycles: int_field(line, "cycles")?,
        transactions: int_field(line, "transactions")?,
        bytes: int_field(line, "bytes")?,
        wall_micros: int_field(line, "wall_micros")?,
        trace_events: int_field(line, "trace_events").unwrap_or(0),
    })
}

/// One seeded request.
struct Draw {
    spec: ScenarioSpec,
    model: ModelKind,
    trace: bool,
    body: String,
}

fn draw(catalogue: &[ScenarioSpec], seed: u64, index: u64) -> Draw {
    let r = derive_seed(seed, index);
    Draw::new(
        catalogue[(r % catalogue.len() as u64) as usize]
            .clone()
            .with_seed(r >> 20),
        MODELS[((r >> 8) % MODELS.len() as u64) as usize],
        (r >> 16).is_multiple_of(10),
    )
}

/// Every catalogue scenario on every model, traced: the requests each
/// server answers one at a time before its share of the loop.
fn memory_set(catalogue: &[ScenarioSpec], seed: u64) -> Vec<Draw> {
    let mut set = Vec::new();
    for spec in catalogue {
        for model in MODELS {
            let index = (2 << 32) + set.len() as u64;
            set.push(Draw::new(
                spec.clone().with_seed(derive_seed(seed, index)),
                model,
                true,
            ));
        }
    }
    set
}

impl Draw {
    fn new(spec: ScenarioSpec, model: ModelKind, trace: bool) -> Draw {
        let body = format!(
            "{{\"scenario\": {}, \"model\": \"{}\", \"stride\": {STRIDE}, \"trace\": {trace}}}",
            spec.to_canon().to_canonical_json(),
            model.id()
        );
        Draw {
            spec,
            model,
            trace,
            body,
        }
    }

    fn config(&self) -> PlatformConfig {
        self.spec.resolve().expect("catalogue scenarios resolve")
    }

    fn expected_txns(&self) -> u64 {
        let config = self.config();
        (config.pattern.master_count() * config.transactions_per_master) as u64
    }
}

/// Client-side record of one request.
#[derive(Debug, Clone, Copy)]
struct Sample {
    latency: f64,
    ok: bool,
    /// The request asked the server to trace the run.
    traced_run: bool,
    /// The benchmark recorded a span around this request.
    spanned: bool,
    served: Option<Served>,
}

/// Sends one request and checks its answer: a 200 with a report line
/// that accounts for every transaction of the drawn workload. A traced
/// request (`spans` given) records a span around the exchange; its
/// latency includes that recording.
fn send(addr: SocketAddr, draw: &Draw, spans: Option<&mut Spans>) -> Sample {
    let start = Instant::now();
    let response = http(addr, "POST", "/run", &draw.body);
    let spanned = spans.is_some();
    if let Some(spans) = spans {
        spans.end("serve.request", start);
    }
    let latency = start.elapsed().as_secs_f64();
    let served = response
        .as_ref()
        .ok()
        .filter(|r| r.status == 200)
        .and_then(|r| served(&r.body));
    let ok = served.is_some_and(|s| s.transactions == draw.expected_txns());
    Sample {
        latency,
        ok,
        traced_run: draw.trace,
        spanned,
        served,
    }
}

/// Server counters read from `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Scrape {
    requests: u64,
    errors: u64,
    trace_events: u64,
}

fn scrape(addr: SocketAddr) -> Result<Scrape, String> {
    let r = http(addr, "GET", "/metrics", "").map_err(|e| format!("/metrics: {e}"))?;
    let value = |name: &str| {
        r.body
            .lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
            .ok_or_else(|| format!("/metrics lacks {name}"))
    };
    Ok(Scrape {
        requests: value("campaign_requests_total")?,
        errors: value("campaign_request_errors_total")?,
        trace_events: value("campaign_trace_events_total")?,
    })
}

/// Whether the server's counters agree with the client: between two
/// scrapes the server saw every request the client attempted plus the
/// closing scrape itself, and answered as many with an error as the
/// client counted failed.
fn accounts_match(before: Scrape, after: Scrape, attempted: u64, failed: u64) -> bool {
    after.requests.checked_sub(before.requests) == Some(attempted + 1)
        && after.errors.checked_sub(before.errors) == Some(failed)
}

/// The closed loop: `CONNECTIONS` clients, each sending draw after draw
/// (indices handed out in order from `first`) until `stop` says so. With
/// `paired`, a client sends each draw twice, with and without a span, in
/// alternating order; the pair then sits next to each other in the
/// result, the unspanned request first.
fn closed_loop(
    addr: SocketAddr,
    catalogue: &[ScenarioSpec],
    seed: u64,
    first: u64,
    stop: &(dyn Fn(u64) -> bool + Sync),
    paired: bool,
) -> Vec<Sample> {
    let next = AtomicU64::new(first);
    let samples = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..CONNECTIONS {
            scope.spawn(|| {
                // The spans are the tracing whose cost the pairs measure;
                // nothing reads them back.
                let mut spans = Spans::default();
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if stop(index - first) {
                        return;
                    }
                    let d = draw(catalogue, seed, index);
                    let mut sent = Vec::new();
                    if paired {
                        let spanned_first = index.is_multiple_of(2);
                        for spanned in [spanned_first, !spanned_first] {
                            sent.push(send(addr, &d, spanned.then_some(&mut spans)));
                        }
                    } else {
                        sent.push(send(addr, &d, None));
                    }
                    let mut samples = samples.lock().expect("sample list poisoned");
                    samples.extend(sent.into_iter().map(|s| (index, s)));
                }
            });
        }
    });
    let mut samples = samples.into_inner().expect("sample list poisoned");
    samples.sort_by_key(|(i, s)| (*i, s.spanned));
    samples.into_iter().map(|(_, s)| s).collect()
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let catalogue = scenario_catalogue();

    // Reference requests: replayed in process (the expected answers, the
    // accuracy of tlm and lt against rtl on the same stimulus, the exact
    // counts), then sent one at a time to the server.
    let mut digest = Digest::new();
    let mut counts = Counts::default();
    let mut spans = Spans::default();
    let mut expected = Vec::new();
    let mut tlm_err = Vec::new();
    let mut lt_err = Vec::new();
    let mut results_match = true;
    let draws: Vec<Draw> = (0..REFERENCE_REQUESTS)
        .map(|i| draw(&catalogue, args.seed, i))
        .collect();
    for d in &draws {
        let config = d.config();
        let t0 = Instant::now();
        let mut model = config.build_model(d.model);
        let t1 = spans.end("model.build", t0);
        model.run_until(Cycle::MAX);
        let t2 = spans.end("model.run", t1);
        let report = model.report();
        let probe = model.probe();
        spans.end("model.report", t2);
        counts.add(&probe, report.total_cycles, model.sync_stats());
        results_match &= FlatReference::run(&config).results_match(&probe);
        expected.push((
            report.total_cycles,
            report.total_transactions(),
            report.total_bytes(),
        ));
        digest_probe(&mut digest, &probe, report.total_cycles);
    }
    // Accuracy of tlm and lt against rtl over the whole catalogue the
    // draws come from, re-seeded `ACCURACY_ROUNDS` times, so every run
    // weighs the same scenario mix.
    for (i, spec) in catalogue.iter().enumerate() {
        for round in 0..ACCURACY_ROUNDS {
            let index = ACCURACY_ROUNDS * i as u64 + round;
            let config = spec
                .clone()
                .with_seed(derive_seed(args.seed, (1 << 32) + index))
                .resolve()
                .expect("catalogue scenarios resolve");
            let flat = FlatReference::run(&config);
            tlm_err.push(flat.tlm_err);
            lt_err.push(flat.lt_err);
            for (probe, cycles) in &flat.runs {
                digest_probe(&mut digest, probe, *cycles);
            }
        }
    }
    // The measured closed loop, split over `SERVERS` server processes so
    // that start-up time and memory are medians of several processes and
    // no single process layout sets the run's numbers. Each server first
    // answers the memory set one request at a time; `peak_rss_mb` is its
    // high-water mark right after, which measures what the largest
    // requests need rather than how the allocator happened to interleave
    // concurrent ones. The first server also answers the reference
    // requests.
    let memory = memory_set(&catalogue, args.seed);
    let mut setups = Vec::new();
    let mut rss = Vec::new();
    let mut samples = Vec::new();
    let mut reference_deltas = (Scrape::default(), Scrape::default());
    let mut accounts_ok = true;
    let mut memory_ok = true;
    let mut segment_p50 = Vec::new();
    for segment in 0..SERVERS {
        for _ in 1..SETUPS_PER_SERVER {
            setups.push(Server::start()?.1);
        }
        let (server, took) = Server::start()?;
        setups.push(took);
        let addr = server.addr;
        for d in &memory {
            memory_ok &= send(addr, d, None).ok;
        }
        rss.push(crate::peak_rss_mb(&server.pid()).unwrap_or(0.0));
        if segment == 0 {
            let before = scrape(addr)?;
            let mut reference_ok = true;
            for (d, want) in draws.iter().zip(&expected) {
                let sample = send(addr, d, None);
                reference_ok &= sample.ok
                    && sample
                        .served
                        .is_some_and(|s| (s.cycles, s.transactions, s.bytes) == *want);
            }
            let after = scrape(addr)?;
            out.check(
                "served_results_equal_in_process_runs",
                reference_ok && accounts_match(before, after, REFERENCE_REQUESTS, 0),
            );
            reference_deltas = (before, after);
        }
        let deadline = Instant::now() + args.measure / SERVERS as u32;
        let before = scrape(addr)?;
        let part = closed_loop(
            addr,
            &catalogue,
            args.seed,
            REFERENCE_REQUESTS + samples.len() as u64,
            &|_| Instant::now() >= deadline,
            args.trace,
        );
        let after = scrape(addr)?;
        let failed = part.iter().filter(|s| !s.ok).count() as u64;
        accounts_ok &= accounts_match(before, after, part.len() as u64, failed);
        let part_ms: Vec<f64> = part.iter().map(|s| s.latency * 1e3).collect();
        segment_p50.push(format!("{}", median(&part_ms)));
        samples.extend(part);
    }
    out.check("results_match_rtl_tlm_lt", results_match);
    out.check("memory_set_answered", memory_ok);
    out.check("metrics_deltas_match_client_counts", accounts_ok);
    out.attempted = samples.len() as u64;
    out.failed = samples.iter().filter(|s| !s.ok).count() as u64;

    let plain: Vec<&Sample> = samples.iter().filter(|s| !s.spanned).collect();
    let latencies_ms: Vec<f64> = plain.iter().map(|s| s.latency * 1e3).collect();
    let kcps: Vec<f64> = plain
        .iter()
        .filter_map(|s| s.served)
        .map(|s| s.cycles as f64 * 1e3 / s.wall_micros.max(1) as f64)
        .collect();

    if args.trace {
        out.metric(
            "model.build_us",
            median(&spans.durations("model.build")) * 1e6,
            "us",
        );
        out.metric(
            "model.run_ms",
            median(&spans.durations("model.run")) * 1e3,
            "ms",
        );
        out.metric(
            "model.report_us",
            median(&spans.durations("model.report")) * 1e6,
            "us",
        );
        let shares: Vec<f64> = samples
            .iter()
            .filter_map(|s| Some(s.served?.wall_micros as f64 * 1e-4 / s.latency))
            .collect();
        out.metric("sim_share_pct", median(&shares), "%");
        // Every pair is one draw sent with and without a span.
        let ratios: Vec<f64> = samples
            .chunks_exact(2)
            .map(|pair| pair[1].latency / pair[0].latency)
            .collect();
        out.metric(
            "bench.trace_overhead_pct",
            (median(&ratios) - 1.0) * 100.0,
            "%",
        );
        out.metric("op_ms_p50", median(&latencies_ms), "ms");
        out.metric("op_ms_p99", percentile(&latencies_ms, 99.0), "ms");
        out.check(
            "p99_has_10_samples_beyond",
            tail_supported(latencies_ms.len(), 99.0),
        );
        out.metric("kcps_p50", median(&kcps), "Kcycles/s");
        let first = &draws[0];
        let config = first.config();
        let stimulus = Stimulus {
            masters: config
                .pattern
                .expand(config.transactions_per_master, config.seed),
            expansions: draws
                .iter()
                .map(|d| {
                    let c = d.config();
                    (c.pattern.clone(), c.transactions_per_master, c.seed)
                })
                .collect(),
            arbiter: config.params.arbiter.clone(),
            write_buffer_depth: config.params.write_buffer_depth,
            ddr: config.ddr,
            kind: first.model,
            bodies: draws.iter().map(|d| d.body.clone()).collect(),
        };
        layers::replay(&stimulus, LAYER_BUDGET, &mut out);
        layers::trace_and_profile(|| config.build_model(first.model), 3, &mut out);
        counts.emit(&mut out);
        let (before, after) = reference_deltas;
        let delta = |f: fn(&Scrape) -> u64| (f(&after) - f(&before)) as f64;
        out.metric("serve.requests", delta(|s| s.requests), "count");
        out.metric("serve.errors", delta(|s| s.errors), "count");
        out.metric("serve.trace_events", delta(|s| s.trace_events), "count");
    } else {
        out.metric("kcps_p10", percentile(&kcps, 10.0), "Kcycles/s");
        out.metric("op_ms_p90", percentile(&latencies_ms, 90.0), "ms");
        out.metric("tlm_err_pct", mean(&tlm_err), "%");
        out.metric("lt_err_pct", mean(&lt_err), "%");
        out.metric("setup_s", median(&setups), "s");
        out.metric("peak_rss_mb", median(&rss), "MB");
        out.check(
            "p90_has_10_samples_beyond",
            tail_supported(latencies_ms.len(), 90.0),
        );
    }

    let traced_requests = samples.iter().filter(|s| s.traced_run).count();
    out.meta(
        "sizes",
        format!(
            "{{\"reference_requests\": {REFERENCE_REQUESTS}, \"requests\": {}, \
             \"traced_requests\": {traced_requests}, \"untraced_samples\": {}, \
             \"connections\": {CONNECTIONS}, \"handlers\": {HANDLERS}, \"stride\": {STRIDE}}}",
            samples.len(),
            plain.len()
        ),
    );
    out.meta("digest", format!("\"{}\"", digest.hex()));
    out.meta("server_p50_ms", format!("[{}]", segment_p50.join(", ")));
    out.meta("server_peak_rss_mb", format!("{rss:?}"));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_lines_parse() {
        let body = "{\"event\": \"probe\", \"cycle\": 5}\n\
                    {\"event\": \"report\", \"scenario\": \"x\", \"model\": \"tlm\", \
                    \"point_hash\": \"ab\", \"cycles\": 120, \"transactions\": 4, \
                    \"bytes\": 64, \"wall_micros\": 9}\n";
        let s = served(body).unwrap();
        assert_eq!(
            (s.cycles, s.transactions, s.bytes, s.wall_micros),
            (120, 4, 64, 9)
        );
        assert_eq!(s.trace_events, 0);
        assert!(served("{\"event\": \"probe\", \"cycle\": 5}\n").is_none());
        assert!(served("").is_none());
    }

    #[test]
    fn accounting_counts_the_closing_scrape_and_every_failure() {
        let before = Scrape {
            requests: 10,
            errors: 1,
            trace_events: 0,
        };
        let after = Scrape {
            requests: 16,
            errors: 2,
            trace_events: 0,
        };
        assert!(accounts_match(before, after, 5, 1));
        assert!(!accounts_match(before, after, 6, 1));
        assert!(!accounts_match(before, after, 5, 0));
        assert!(!accounts_match(after, before, 5, 1));
    }

    #[test]
    fn draws_are_seeded_and_valid() {
        let catalogue = scenario_catalogue();
        let a = draw(&catalogue, 3, 17);
        assert_eq!(a.body, draw(&catalogue, 3, 17).body);
        let traced = (0..400).filter(|i| draw(&catalogue, 3, *i).trace).count();
        assert!((15..=70).contains(&traced), "{traced}");
        for i in 0..40 {
            assert!(draw(&catalogue, 9, i).spec.resolve().is_ok());
        }
    }

    /// A closed loop against an in-process server: the server's counters
    /// account for every request the two connections sent.
    #[test]
    fn closed_loop_accounting_matches_the_server() {
        let server = CampaignServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let catalogue: Vec<ScenarioSpec> = scenario_catalogue()
            .into_iter()
            .map(|s| s.with_transactions(5))
            .collect();
        let requests = 12;
        std::thread::scope(|scope| {
            // Two scrapes bracket the loop; the server stops after them.
            scope.spawn(|| server.serve(HANDLERS, Some(requests as usize + 2)));
            let before = scrape(addr).unwrap();
            let samples = closed_loop(addr, &catalogue, 5, 0, &|sent| sent >= requests, false);
            let after = scrape(addr).unwrap();
            assert_eq!(samples.len() as u64, requests);
            assert!(samples.iter().all(|s| s.ok));
            assert!(accounts_match(before, after, requests, 0));
        });
    }
}
