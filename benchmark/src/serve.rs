//! `serve_mixed`: reads beside writes through every layer at once.
//! `server::serve` on `127.0.0.1:0` over `Service` over a 2-shard
//! `ShardedLog`; connection A sends `SUBMIT`+`WAIT` for a mixed bank as
//! `tenant=a`, connection B does the same as `tenant=b` and after every
//! eighth query pushes one 256 KB batch through `ServiceHandle::ingest`
//! and waits for it (the line protocol has no ingest verb).
//!
//! Every round starts from a fresh store, so rounds are alike and the
//! store's growth inside a round is the same in every run. Every round
//! sends the same queries equally often, each in an order of its own:
//! which queries meet in a wave is chance, and one order kept for a whole
//! run would make that chance part of the seed.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Instant;

use mithrilog::QueryOutcome;
use mithrilog_loggen::DatasetProfile;
use mithrilog_query::batch::SplitMix64;
use mithrilog_service::{
    protocol, server, JobOutput, JobStatus, Priority, Service, ServiceConfig, ServiceHandle,
};
use mithrilog_shard::{RouteMode, ShardOptions, ShardedLog};
use mithrilog_storage::MemStore;

use crate::harness::{self, correct, Ctx, E2e, QuerySet, Window, LOAD_BATCH};
use crate::inputs::{self, Answer, MB};
use crate::layers::{self, mean};
use crate::report::RunResult;
use crate::scan::overhead_share;
use crate::trace::{Tracer, ROOT};

pub const NAME: &str = "serve_mixed";
const PROFILE: DatasetProfile = DatasetProfile::Thunderbird;
const BASE_BYTES: usize = 8 * MB;
const SHARDS: u32 = 2;
const INGEST_BATCH: usize = 256 * 1024;
/// Queries each connection sends in one pass: every distinct one five
/// times.
const OPS_PER_CONNECTION: usize = 120;
/// Connection B ingests one batch after every this many queries.
const INGEST_EVERY: usize = 8;
const INGESTS_PER_PASS: usize = OPS_PER_CONNECTION / INGEST_EVERY;
/// The mixed bank: how many distinct queries of each kind. Eleven in
/// twelve are selective and cost 1 to 9 ms alone, so the median lies where
/// samples are dense. With more full scans (50 ms each) every other query
/// queued behind one, the median sat on the step between the two kinds,
/// and a handful of samples moved it by a third of its value.
const SELECTIVE: usize = 22;
const FULL_SCAN: usize = 1;
const NEGATION: usize = 1;
/// The selective queries' tokens lie in at most one page in this many. Few
/// tokens lie in more, so steps up there land on whichever token a corpus
/// happens to have, on the same one again and again, and the cost of the
/// median query changes with the seed.
const SELECTIVE_WIDEST: usize = 8;
/// The connections and the overlapped ingest already keep a small host's
/// CPUs busy; scan threads on top of them would measure the kernel's
/// scheduler.
pub const QUERY_THREADS: usize = 1;

/// Everything a round is fed; the same in every round of a run.
struct Inputs {
    base: Vec<u8>,
    /// What connection B ingests, in order.
    extra: Vec<Vec<u8>>,
    set: QuerySet,
    /// Oracle answers once every extra batch is in.
    final_answers: Vec<Answer>,
    seed: u64,
}

impl Inputs {
    /// The orders connections A and B send their queries in, in `round`.
    fn orders(&self, round: usize) -> [Vec<usize>; 2] {
        let mut rng = SplitMix64::new(self.seed ^ (round as u64 + 1).wrapping_mul(0x9e37_79b9));
        [(); 2].map(|()| inputs::op_order(self.set.queries.len(), OPS_PER_CONNECTION, &mut rng))
    }

    /// Digest of the first round's op list.
    fn op_digest(&self) -> u64 {
        let texts = self
            .orders(0)
            .concat()
            .into_iter()
            .map(|i| self.set.texts[i].as_str());
        inputs::op_list_digest(texts)
    }
}

fn new_store(ctx: &Ctx) -> ShardedLog<MemStore> {
    ShardedLog::new(
        ctx.config(),
        ShardOptions {
            shards: SHARDS,
            mode: RouteMode::LineHash,
            salt: 42,
        },
    )
}

/// Picks the mixed bank and computes the oracle answers before and after
/// the extra batches.
fn inputs(ctx: &Ctx, base: Vec<u8>) -> Inputs {
    let bank = inputs::bank(PROFILE);
    let mut queries = inputs::selective(&base, SELECTIVE, SELECTIVE_WIDEST);
    queries.extend(bank.full_scan.into_iter().take(FULL_SCAN));
    queries.extend(bank.negations.into_iter().take(NEGATION));

    let extra_text = inputs::corpus(PROFILE, INGESTS_PER_PASS * INGEST_BATCH, ctx.seed ^ 0xe7);
    let extra: Vec<Vec<u8>> = inputs::line_batches(&extra_text, INGEST_BATCH)
        .into_iter()
        .take(INGESTS_PER_PASS)
        .map(<[u8]>::to_vec)
        .collect();
    assert_eq!(extra.len(), INGESTS_PER_PASS);
    let mut rng = SplitMix64::new(ctx.seed);
    let set = QuerySet::new(queries, &base, OPS_PER_CONNECTION, &mut rng);
    let final_answers = inputs::oracle(&extra.concat(), &set.queries, &set.answers);
    Inputs {
        base,
        extra,
        set,
        final_answers,
        seed: ctx.seed,
    }
}

/// A running stack: the service, its TCP front-end and the address.
struct Stack {
    service: Service,
    handle: ServiceHandle,
    addr: SocketAddr,
    server: JoinHandle<std::io::Result<()>>,
}

impl Stack {
    fn start(store: ShardedLog<MemStore>) -> Stack {
        let service = Service::spawn(store, ServiceConfig::default());
        let handle = service.handle();
        let listener = TcpListener::bind("127.0.0.1:0").expect("loopback listener");
        let addr = listener.local_addr().expect("bound address");
        let served = handle.clone();
        let server = std::thread::spawn(move || server::serve(listener, &served));
        Stack {
            service,
            handle,
            addr,
            server,
        }
    }

    /// `SHUTDOWN` over the wire, then joins the accept loop and the
    /// scheduler. Returns whether everything stopped cleanly.
    fn stop(self, mut client: Client) -> bool {
        let bye = client
            .request("SHUTDOWN", false)
            .is_some_and(|r| r.head == "OK bye");
        drop(client);
        let served = self.server.join().is_ok_and(|r| r.is_ok());
        self.service.shutdown();
        bye && served
    }
}

/// One response of the line protocol.
struct Response {
    head: String,
    /// The `L `-prefixed result lines: how many, and (when asked for)
    /// their digest.
    answer: Answer,
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let writer = TcpStream::connect(addr).expect("loopback connect");
        writer.set_nodelay(true).expect("nodelay");
        let reader = BufReader::with_capacity(1 << 16, writer.try_clone().expect("clone socket"));
        Client {
            writer,
            reader,
            line: String::new(),
        }
    }

    /// Sends one request line and reads the dot-terminated response;
    /// `None` when the connection broke.
    fn request(&mut self, request: &str, digest: bool) -> Option<Response> {
        self.writer
            .write_all(format!("{request}\n").as_bytes())
            .ok()?;
        let mut response = Response {
            head: String::new(),
            answer: Answer::EMPTY,
        };
        loop {
            self.line.clear();
            if self.reader.read_line(&mut self.line).ok()? == 0 {
                return None;
            }
            let line = self.line.trim_end_matches(['\r', '\n']);
            if line == protocol::TERMINATOR {
                return Some(response);
            }
            if response.head.is_empty() {
                response.head = line.to_string();
            } else if let Some(result) = line.strip_prefix("L ") {
                if digest {
                    response.answer.push(result.as_bytes());
                } else {
                    response.answer.lines += 1;
                }
            }
        }
    }

    /// `SUBMIT` then `WAIT`: the closed-loop query of an analyst.
    fn query(&mut self, tenant: &str, text: &str, digest: bool) -> Option<Response> {
        let submitted = self.request(&format!("SUBMIT tenant={tenant} q={text}"), false)?;
        let id = submitted.head.strip_prefix("OK id=")?;
        let id = id.to_string();
        self.request(&format!("WAIT {id}"), digest)
    }
}

/// Whether a `WAIT` response is a complete, undegraded query result.
fn done(response: &Response) -> bool {
    response.head.starts_with("OK done kind=query") && response.head.contains(" degraded=false")
}

/// What one connection measured in one pass.
#[derive(Default)]
struct ClientPass {
    query_ms: Vec<f64>,
    /// `(bytes, seconds, acknowledged in full)` of every ingested batch.
    ingests: Vec<(usize, f64, bool)>,
    queries: u64,
    wrong: u64,
}

impl ClientPass {
    /// Counts this connection's operations into `e2e`.
    fn count_into(&self, e2e: &mut E2e) {
        e2e.attempted += self.queries;
        e2e.failed += self.wrong;
        for &(bytes, secs, ok) in &self.ingests {
            e2e.ingest(bytes, secs, ok);
        }
    }
}

/// One connection's closed loop over `order`; with `ingest`, one batch
/// through the in-process handle after every [`INGEST_EVERY`] queries.
fn client_pass(
    client: &mut Client,
    tenant: &str,
    order: &[usize],
    inputs: &Inputs,
    ingest: Option<&ServiceHandle>,
    tracer: &mut Tracer,
) -> ClientPass {
    let mut pass = ClientPass::default();
    let mut batches = inputs.extra.iter();
    for (op, &i) in order.iter().enumerate() {
        let (secs, response) = tracer.timed("service.tcp_roundtrip", op as u32, ROOT, || {
            client.query(tenant, &inputs.set.texts[i], false)
        });
        pass.query_ms.push(secs * 1e3);
        // The store grows under the queries, so a count between the
        // answer before and after the extra batches is a right one.
        let range = inputs.set.answers[i].lines..=inputs.final_answers[i].lines;
        pass.queries += 1;
        pass.wrong +=
            u64::from(!response.is_some_and(|r| done(&r) && range.contains(&r.answer.lines)));

        let Some(handle) = ingest.filter(|_| (op + 1) % INGEST_EVERY == 0) else {
            continue;
        };
        let batch = batches.next().expect("one batch per INGEST_EVERY queries");
        let (secs, report) = tracer.timed("service.ingest", op as u32, ROOT, || {
            handle
                .ingest(batch.clone())
                .ok()
                .and_then(|id| handle.wait(id).ok())
        });
        let ok = matches!(report, Some(JobOutput::Ingest(r)) if r.raw_bytes == batch.len() as u64);
        pass.ingests.push((batch.len(), secs, ok));
    }
    pass
}

/// Both connections at once; returns A's and B's measurements and the
/// wall seconds until both were done.
fn mixed_pass(
    a: &mut Client,
    b: &mut Client,
    stack: &Stack,
    inputs: &Inputs,
    [order_a, order_b]: &[Vec<usize>; 2],
    tracer: &mut Tracer,
) -> (ClientPass, ClientPass, f64) {
    let (mut tracer_a, mut tracer_b) = (tracer.fork(), tracer.fork());
    let start = Instant::now();
    let (pass_a, pass_b) = std::thread::scope(|scope| {
        let side_a = scope.spawn(|| client_pass(a, "a", order_a, inputs, None, &mut tracer_a));
        let pass_b = client_pass(b, "b", order_b, inputs, Some(&stack.handle), &mut tracer_b);
        (side_a.join().expect("client thread"), pass_b)
    });
    let wall = start.elapsed().as_secs_f64();
    tracer.absorb(tracer_a);
    tracer.absorb(tracer_b);
    (pass_a, pass_b, wall)
}

/// Sends every distinct query once over TCP against the base corpus and
/// checks count, digest and that every returned line satisfies the query.
/// Also the warm-up.
fn check_base(client: &mut Client, inputs: &Inputs, e2e: &mut E2e) {
    for (i, text) in inputs.set.texts.iter().enumerate() {
        let response = client.query("a", text, true);
        e2e.op(response.is_some_and(|r| done(&r) && r.answer == inputs.set.answers[i]));
    }
}

/// In-process `submit` → `wait`.
fn submit_and_wait(handle: &ServiceHandle, text: &str) -> Option<JobOutput> {
    let id = handle
        .submit_str_tagged(text, Priority::Normal, Some("a"))
        .ok()?;
    handle.wait(id).ok()
}

fn query_outcome(output: Option<JobOutput>) -> Option<Box<QueryOutcome>> {
    match output {
        Some(JobOutput::Query { outcome, .. }) => Some(outcome),
        _ => None,
    }
}

/// After both connections are done: every distinct query, in process,
/// must equal the oracle over the base corpus plus every extra batch.
/// Returns each query's modeled time on the drained store.
fn check_drained(handle: &ServiceHandle, inputs: &Inputs, e2e: &mut E2e) -> Vec<f64> {
    inputs
        .set
        .texts
        .iter()
        .zip(&inputs.final_answers)
        .map(|(text, want)| {
            let outcome = query_outcome(submit_and_wait(handle, text));
            e2e.op(outcome.as_ref().is_some_and(|o| correct(o, want, true)));
            outcome.map_or(0.0, |o| o.modeled_time.as_secs_f64() * 1e6)
        })
        .collect()
}

/// Loads the base corpus into a fresh store in 1 MB batches.
fn load(ctx: &Ctx, base: &[u8]) -> ShardedLog<MemStore> {
    let mut store = new_store(ctx);
    for batch in inputs::line_batches(base, LOAD_BATCH) {
        store.ingest(batch).expect("clean devices ingest");
    }
    store
}

pub fn run(ctx: &Ctx) -> RunResult {
    let mut run = RunResult::new(NAME, ctx.seed, ctx.trace);
    let mut e2e = E2e::default();
    if ctx.trace {
        return run_traced(ctx, run, e2e);
    }
    // A replica outside the service picks the queries and, fed the same
    // batches in the same order, tells what the served store holds at the
    // end of a round (the service keeps its own store to itself).
    let base = inputs::corpus(PROFILE, BASE_BYTES, ctx.seed);
    let mut replica = load(ctx, &base);
    let inputs = inputs(ctx, base);
    run.op_digest = inputs.op_digest();
    for batch in &inputs.extra {
        replica.ingest(batch).expect("clean devices ingest");
    }
    e2e.stored_bytes_per_raw_byte =
        harness::stored_ratio((0..replica.shard_count()).map(|i| replica.shard(i)));
    drop(replica);

    let mut tracer = Tracer::new(false);
    let mut window = Window::open(ctx.seconds);
    while window.next_pass() {
        let start = Instant::now();
        let base = inputs::corpus(PROFILE, BASE_BYTES, ctx.seed);
        let stack = Stack::start(load(ctx, &base));
        let (mut a, mut b) = (Client::connect(stack.addr), Client::connect(stack.addr));
        e2e.setup_s.push(start.elapsed().as_secs_f64());
        e2e.op(base == inputs.base);
        check_base(&mut a, &inputs, &mut e2e);

        let orders = inputs.orders(window.passes - 1);
        let (pass_a, pass_b, wall) =
            mixed_pass(&mut a, &mut b, &stack, &inputs, &orders, &mut tracer);
        let right = pass_a.queries + pass_b.queries - pass_a.wrong - pass_b.wrong;
        e2e.pass_qps.push(right as f64 / wall);
        for pass in [pass_a, pass_b] {
            pass.count_into(&mut e2e);
            e2e.query_ms.extend(pass.query_ms);
        }

        let modeled_us = check_drained(&stack.handle, &inputs, &mut e2e);
        for &i in orders.iter().flatten() {
            e2e.modeled_us_sum += modeled_us[i];
            e2e.modeled_queries += 1;
        }
        e2e.op(stack.handle.stats().rejected == 0);
        drop(b);
        e2e.op(stack.stop(a));
        e2e.pass_done();
    }
    e2e.finish(&mut run);
    run
}

fn run_traced(ctx: &Ctx, mut run: RunResult, mut e2e: E2e) -> RunResult {
    let mut tracer = Tracer::new(true);
    let base = layers::traced_corpus(PROFILE, BASE_BYTES, ctx.seed, &mut tracer, &mut run);
    let mut store = new_store(ctx);
    let config = store.config().clone();
    {
        let batches = inputs::line_batches(&base, LOAD_BATCH);
        layers::traced_ingest(
            &mut store,
            &config,
            &batches,
            &mut tracer,
            &mut run,
            |store, prep| {
                store
                    .apply_prepared(None, prep)
                    .expect("clean devices ingest");
            },
            crate::shard::ledger,
        );
    }
    let inputs = inputs(ctx, base);
    run.op_digest = inputs.op_digest();

    // The page- and query-level layers, replayed over shard 0's pages
    // before the service takes the store.
    let mirror = store.shard(0).device().store().clone();
    let batches = inputs::line_batches(&inputs.base, LOAD_BATCH);
    let texts = &inputs.set.texts;
    layers::replay_store(
        store.shard_mut(0),
        mirror,
        texts,
        &batches,
        &mut tracer,
        &mut run,
    );

    let stack = Stack::start(store);
    let (mut a, mut b) = (Client::connect(stack.addr), Client::connect(stack.addr));
    check_base(&mut a, &inputs, &mut e2e);

    // Both connections, as in the untraced run: what the scheduler makes
    // of concurrent callers.
    let before = stack.handle.stats();
    let orders = inputs.orders(0);
    let (pass_a, pass_b, _) = mixed_pass(&mut a, &mut b, &stack, &inputs, &orders, &mut tracer);
    let after = stack.handle.stats();
    let ingests = pass_b.ingests.len() as u64;
    let queries_done = (after.completed - before.completed).saturating_sub(ingests);
    run.set(
        "service.queries_per_wave",
        queries_done as f64 / (after.waves - before.waves).max(1) as f64,
    );
    run.set(
        "service.shared_reads_avoided_share",
        (after.shared_reads_avoided - before.shared_reads_avoided) as f64
            / (after.demanded_page_reads - before.demanded_page_reads).max(1) as f64,
    );
    run.set(
        "service.rejected",
        (after.rejected - before.rejected) as f64,
    );
    run.set(
        "service.ingests_overlapped",
        (after.ingests_overlapped - before.ingests_overlapped) as f64,
    );
    run.set(
        "core.cache_hit_share",
        (after.cache_hits - before.cache_hits) as f64
            / (after.demanded_page_reads - before.demanded_page_reads).max(1) as f64,
    );
    run.set(
        "core.cache_bytes_saved_per_query",
        (after.cache_bytes_saved - before.cache_bytes_saved) as f64 / queries_done.max(1) as f64,
    );
    run.set(
        "storage.pages_read_per_query",
        (after.unique_pages_read - before.unique_pages_read) as f64 / queries_done.max(1) as f64,
    );
    pass_a.count_into(&mut e2e);
    pass_b.count_into(&mut e2e);
    check_drained(&stack.handle, &inputs, &mut e2e);

    // One caller, the same query over TCP and in process, alternated:
    // what the socket and the protocol add to the scheduler's own time.
    let (mut tcp_ms, mut inproc_ms, mut untraced_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut overhead_ms, mut render_us, mut response_bytes) = (Vec::new(), Vec::new(), Vec::new());
    let mut model_to_wall = Vec::new();
    for (op, &i) in orders[0].iter().enumerate() {
        let text = &inputs.set.texts[i];
        let want = &inputs.final_answers[i];
        let mut over_tcp = |tracer: &mut Tracer, e2e: &mut E2e| {
            let (secs, response) = tracer.timed("service.tcp_roundtrip", op as u32, ROOT, || {
                a.query("a", text, false)
            });
            e2e.op(response.is_some_and(|r| done(&r) && r.answer.lines == want.lines));
            secs * 1e3
        };
        let mut in_process = |tracer: &mut Tracer, e2e: &mut E2e| {
            let (secs, output) = tracer.timed("service.submit_to_done", op as u32, ROOT, || {
                submit_and_wait(&stack.handle, text)
            });
            let ms = secs * 1e3;
            if let Some(output) = &output {
                let status = JobStatus::Done(output.clone());
                let (render_s, rendered) = tracer.timed("service.render", op as u32, ROOT, || {
                    protocol::render_status(Some(&status))
                });
                render_us.push(render_s * 1e6);
                response_bytes.push(rendered.len() as f64);
            }
            let outcome = query_outcome(output);
            e2e.op(outcome.as_ref().is_some_and(|o| correct(o, want, false)));
            if let Some(o) = outcome {
                overhead_ms.push(ms - o.wall_time.as_secs_f64() * 1e3);
                model_to_wall.push(o.modeled_time.as_secs_f64() * 1e3 / ms);
            }
            ms
        };
        if op % 2 == 0 {
            tcp_ms.push(over_tcp(&mut tracer, &mut e2e));
            inproc_ms.push(in_process(&mut tracer, &mut e2e));
        } else {
            inproc_ms.push(in_process(&mut tracer, &mut e2e));
            tcp_ms.push(over_tcp(&mut tracer, &mut e2e));
        }
        tracer.set_enabled(false);
        untraced_ms.push(over_tcp(&mut tracer, &mut e2e));
        tracer.set_enabled(true);
    }
    run.set("service.submit_to_done_ms", mean(inproc_ms.iter().copied()));
    run.samples
        .insert("service.submit_to_done_ms", inproc_ms.len());
    run.set("service.overhead_ms", mean(overhead_ms.into_iter()));
    run.set("service.render_us", mean(render_us.into_iter()));
    run.set(
        "service.response_bytes_per_query",
        mean(response_bytes.into_iter()),
    );
    run.set(
        "service.tcp_overhead_ms",
        mean(tcp_ms.iter().copied()) - mean(inproc_ms.iter().copied()),
    );
    run.set("sim.model_to_wall_ratio", mean(model_to_wall.into_iter()));
    run.set(
        "trace.overhead_share",
        overhead_share(&tcp_ms, &untraced_ms),
    );

    drop(b);
    e2e.op(stack.stop(a));
    harness::finish_traced(ctx, &tracer, &e2e, &mut run);
    run
}
