//! The paper's guiding example: parallel Floyd transitive closure on CN.
//!
//! "The CN implementation of the transitive closure algorithm consists of
//! three different tasks. The first task, TaskSplit, reads the input and
//! initializes the worker tasks, TCTask, with the appropriate rows. Each of
//! the TCTask workers keeps track of k, and the tasks coordinate among
//! themselves using the CNAPI for intertask communication. ... The collation
//! of the results is done by yet another task named TCJoin." (Section 2)
//!
//! Protocol (all over CN user messages, except the input file which the
//! client deposits in the job's tuple space — our stand-in for
//! `matrix.txt` on a shared filesystem):
//!
//! 1. client seeds the tuple space: `("plan", joiner, workers_csv)` and
//!    `("input", <filename>, <matrix bytes>)`.
//! 2. `TaskSplit` takes both, splits rows into contiguous blocks, sends each
//!    worker an `init` (text plan) + `rows` (its block) message, and tells
//!    the joiner how many results to expect.
//! 3. each `TCTask` iterates k = 0..n; the owner of row k sends it to every
//!    other worker (`krow:<k>`), everyone relaxes its rows against row k.
//! 4. workers send their final blocks to `TCJoin`, which assembles the
//!    result matrix and returns it as its task result.
//!
//! A tuple-space worker variant (`TCTaskTS`) exchanges row k through the
//! tuple space instead of messages — the coordination-medium ablation.

use std::time::Duration;

use cn_core::{ClientError, Field, JobHandle, TaskContext, TaskError, UserData};

use crate::matrix::{row_blocks, Matrix};

/// Paper jar/class names (Figure 2).
pub const SPLIT_JAR: &str = "tasksplit.jar";
pub const SPLIT_CLASS: &str = "org.jhpc.cn2.transcloser.TaskSplit";
pub const WORKER_JAR: &str = "tctask.jar";
pub const WORKER_CLASS: &str = "org.jhpc.cn2.trnsclsrtask.TCTask";
pub const WORKER_TS_CLASS: &str = "org.jhpc.cn2.trnsclsrtask.TCTaskTS";
pub const JOIN_JAR: &str = "taskjoin.jar";
pub const JOIN_CLASS: &str = "org.jhpc.cn2.transcloser.TaskJoin";

const RECV_TIMEOUT: Duration = Duration::from_secs(30);

fn recv_err(e: cn_core::RecvError) -> TaskError {
    TaskError::new(e.to_string())
}

/// Encode `i64`s as little-endian bytes (tuple-space payloads).
pub fn encode_i64s(values: &[i64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decode little-endian bytes back into `i64`s.
pub fn decode_i64s(bytes: &[u8]) -> Result<Vec<i64>, TaskError> {
    if !bytes.len().is_multiple_of(8) {
        return Err(TaskError::new("byte payload length not a multiple of 8"));
    }
    Ok(bytes
        .chunks_exact(8)
        .map(|c| i64::from_le_bytes(c.try_into().expect("chunk of 8")))
        .collect())
}

/// Seed a job's tuple space with the composition plan and the input matrix
/// — what the generated client program does before starting the tasks.
///
/// Two `out`s to the job's JobManager, which holds the space: they reach it
/// before the `StartJob` the client sends next, on every fabric.
pub fn seed_input(
    job: &mut cn_core::JobHandle,
    filename: &str,
    matrix: &Matrix,
    workers: &[String],
    joiner: &str,
) -> Result<(), cn_core::ClientError> {
    let space = job.tuplespace();
    space.out(vec![
        Field::S("plan".into()),
        Field::S(joiner.to_string()),
        Field::S(workers.join(",")),
    ]);
    let mut payload = vec![matrix.n() as i64];
    payload.extend_from_slice(matrix.rows());
    space.out(vec![
        Field::S("input".into()),
        Field::S(filename.to_string()),
        Field::B(encode_i64s(&payload)),
    ]);
    Ok(())
}

/// The seeding every front end and generated client runs: a job of the
/// `tctask0`/`tctask999` shape gets the input matrix of `digraph_seed` (one
/// digraph for all, so their journals compare); other shapes are left as is.
pub fn seed_transitive_closure(job: &mut JobHandle, digraph_seed: u64) -> Result<(), ClientError> {
    let names = job.task_names();
    if !(names.iter().any(|n| n == "tctask0") && names.iter().any(|n| n == "tctask999")) {
        return Ok(());
    }
    let input = crate::random_digraph(16, 0.25, 1..9, digraph_seed);
    let workers: Vec<String> =
        names.iter().filter(|n| *n != "tctask0" && *n != "tctask999").cloned().collect();
    seed_input(job, "matrix.txt", &input, &workers, "tctask999")
}

/// `TaskSplit`: read the input, initialize the workers with their rows.
pub struct TaskSplit;

impl cn_core::Task for TaskSplit {
    fn run(&mut self, ctx: &mut TaskContext) -> Result<UserData, TaskError> {
        let filename = ctx
            .param_str(0)
            .ok_or_else(|| TaskError::new("TaskSplit needs the input file name as param 0"))?
            .to_string();

        // "Reads the input" — from the simulated shared filesystem.
        let plan = ctx
            .tuplespace()
            .take(&vec![Some(Field::S("plan".into())), None, None], RECV_TIMEOUT)
            .ok_or_else(|| TaskError::new("no composition plan in the tuple space"))?;
        let (joiner, workers_csv) = match (&plan[1], &plan[2]) {
            (Field::S(j), Field::S(w)) => (j.clone(), w.clone()),
            _ => return Err(TaskError::new("malformed plan tuple")),
        };
        let workers: Vec<String> =
            workers_csv.split(',').filter(|s| !s.is_empty()).map(str::to_string).collect();
        if workers.is_empty() {
            return Err(TaskError::new("plan lists no workers"));
        }
        let input = ctx
            .tuplespace()
            .take(
                &vec![Some(Field::S("input".into())), Some(Field::S(filename.clone())), None],
                RECV_TIMEOUT,
            )
            .ok_or_else(|| TaskError::new(format!("input file {filename:?} not found")))?;
        let Field::B(bytes) = &input[2] else {
            return Err(TaskError::new("malformed input tuple"));
        };
        let payload = decode_i64s(bytes)?;
        let n = *payload.first().ok_or_else(|| TaskError::new("empty input matrix"))? as usize;
        let matrix = Matrix::from_userdata(&UserData::I64s(payload))?;

        // Row-wise decomposition; worker i gets block i.
        let blocks = row_blocks(n, workers.len());
        for (i, (worker, range)) in workers.iter().zip(&blocks).enumerate() {
            let init = format!(
                "index={i};n={n};start={};end={};joiner={joiner};workers={workers_csv}",
                range.start, range.end
            );
            ctx.send(worker, "init", UserData::Text(init))?;
            let mut rows = vec![range.start as i64, range.end as i64];
            rows.extend(matrix.rows_slice(range.clone()));
            ctx.send(worker, "rows", UserData::I64s(rows))?;
        }
        ctx.send(&joiner, "expect", UserData::Text(format!("n={n};count={}", workers.len())))?;
        Ok(UserData::Text(format!("split {n} rows into {} blocks", workers.len())))
    }
}

/// Parse `key=value;key=value` init strings.
fn plan_field<'a>(init: &'a str, key: &str) -> Result<&'a str, TaskError> {
    init.split(';')
        .filter_map(|kv| kv.split_once('='))
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| TaskError::new(format!("init message missing {key:?}")))
}

/// Worker state decoded from the init/rows handshake.
struct WorkerSetup {
    index: usize,
    n: usize,
    start: usize,
    end: usize,
    joiner: String,
    workers: Vec<String>,
    blocks: Vec<std::ops::Range<usize>>,
    /// This worker's rows, flat row-major.
    rows: Vec<i64>,
}

fn worker_setup(ctx: &mut TaskContext) -> Result<WorkerSetup, TaskError> {
    let (_, init) = ctx.recv_tagged("init", RECV_TIMEOUT).map_err(recv_err)?;
    let init = init.as_text().ok_or_else(|| TaskError::new("init must be text"))?.to_string();
    let index: usize =
        plan_field(&init, "index")?.parse().map_err(|_| TaskError::new("bad index"))?;
    let n: usize = plan_field(&init, "n")?.parse().map_err(|_| TaskError::new("bad n"))?;
    let start: usize =
        plan_field(&init, "start")?.parse().map_err(|_| TaskError::new("bad start"))?;
    let end: usize = plan_field(&init, "end")?.parse().map_err(|_| TaskError::new("bad end"))?;
    let joiner = plan_field(&init, "joiner")?.to_string();
    let workers: Vec<String> = plan_field(&init, "workers")?
        .split(',')
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    let (_, rows_msg) = ctx.recv_tagged("rows", RECV_TIMEOUT).map_err(recv_err)?;
    let rows_payload = rows_msg.as_i64s().ok_or_else(|| TaskError::new("rows must be I64s"))?;
    if rows_payload.len() < 2 {
        return Err(TaskError::new("rows message too short"));
    }
    let rows = rows_payload[2..].to_vec();
    if rows.len() != (end - start) * n {
        return Err(TaskError::new("rows payload size mismatch"));
    }
    let blocks = row_blocks(n, workers.len());
    Ok(WorkerSetup { index, n, start, end, joiner, workers, blocks, rows })
}

/// Which worker owns global row `k`.
fn owner_of(blocks: &[std::ops::Range<usize>], k: usize) -> usize {
    blocks.iter().position(|r| r.contains(&k)).expect("every row is in exactly one block")
}

/// Relax this worker's rows against row k.
fn relax(rows: &mut [i64], n: usize, k: usize, krow: &[i64]) {
    for row in rows.chunks_exact_mut(n) {
        let dik = row[k];
        if dik < crate::matrix::INF {
            for (j, &kj) in krow.iter().enumerate() {
                let through_k = dik + kj;
                if through_k < row[j] {
                    row[j] = through_k;
                }
            }
        }
    }
}

fn finish(ctx: &mut TaskContext, setup: &WorkerSetup) -> Result<UserData, TaskError> {
    let mut result = vec![setup.start as i64, setup.end as i64];
    result.extend_from_slice(&setup.rows);
    ctx.send(&setup.joiner, "result", UserData::I64s(result))?;
    Ok(UserData::Text(format!(
        "worker {} processed rows {}..{}",
        setup.index, setup.start, setup.end
    )))
}

/// `TCTask`: a worker that owns a block of adjacent rows and, "in the kth
/// step", obtains row k (sending it to the others when it is the owner) and
/// relaxes its rows.
pub struct TCTask;

impl cn_core::Task for TCTask {
    fn run(&mut self, ctx: &mut TaskContext) -> Result<UserData, TaskError> {
        let mut setup = worker_setup(ctx)?;
        let n = setup.n;
        for k in 0..n {
            let owner = owner_of(&setup.blocks, k);
            let tag = format!("krow:{k}");
            let krow: Vec<i64> = if owner == setup.index {
                let local = k - setup.start;
                let row = setup.rows[local * n..(local + 1) * n].to_vec();
                for (w, peer) in setup.workers.iter().enumerate() {
                    if w != setup.index {
                        ctx.send(peer, &tag, UserData::I64s(row.clone()))?;
                    }
                }
                row
            } else {
                let (_, data) = ctx.recv_tagged(&tag, RECV_TIMEOUT).map_err(recv_err)?;
                data.as_i64s().ok_or_else(|| TaskError::new("krow must be I64s"))?.to_vec()
            };
            relax(&mut setup.rows, n, k, &krow);
        }
        finish(ctx, &setup)
    }
}

/// `TCTaskTS`: the tuple-space coordination variant. The owner of row k
/// deposits `("krow", k, bytes)` once; everyone else reads it.
pub struct TCTaskTS;

impl cn_core::Task for TCTaskTS {
    fn run(&mut self, ctx: &mut TaskContext) -> Result<UserData, TaskError> {
        let mut setup = worker_setup(ctx)?;
        let n = setup.n;
        for k in 0..n {
            let owner = owner_of(&setup.blocks, k);
            let krow: Vec<i64> = if owner == setup.index {
                let local = k - setup.start;
                let row = setup.rows[local * n..(local + 1) * n].to_vec();
                ctx.tuplespace().out(vec![
                    Field::S("krow".into()),
                    Field::I(k as i64),
                    Field::B(encode_i64s(&row)),
                ]);
                row
            } else {
                let tuple = ctx
                    .tuplespace()
                    .rd(
                        &vec![Some(Field::S("krow".into())), Some(Field::I(k as i64)), None],
                        RECV_TIMEOUT,
                    )
                    .ok_or_else(|| TaskError::new(format!("row {k} never appeared")))?;
                let Field::B(bytes) = &tuple[2] else {
                    return Err(TaskError::new("malformed krow tuple"));
                };
                decode_i64s(bytes)?
            };
            relax(&mut setup.rows, n, k, &krow);
        }
        finish(ctx, &setup)
    }
}

/// `TCJoin`: collate the workers' row blocks into the result matrix.
pub struct TCJoin;

impl cn_core::Task for TCJoin {
    fn run(&mut self, ctx: &mut TaskContext) -> Result<UserData, TaskError> {
        let (_, expect) = ctx.recv_tagged("expect", RECV_TIMEOUT).map_err(recv_err)?;
        let expect = expect.as_text().ok_or_else(|| TaskError::new("expect must be text"))?;
        let n: usize = plan_field(expect, "n")?.parse().map_err(|_| TaskError::new("bad n"))?;
        let count: usize =
            plan_field(expect, "count")?.parse().map_err(|_| TaskError::new("bad count"))?;
        let mut matrix = Matrix::disconnected(n);
        for _ in 0..count {
            let (_, data) = ctx.recv_tagged("result", RECV_TIMEOUT).map_err(recv_err)?;
            let payload = data.as_i64s().ok_or_else(|| TaskError::new("result must be I64s"))?;
            if payload.len() < 2 {
                return Err(TaskError::new("result message too short"));
            }
            let start = payload[0] as usize;
            matrix.put_rows(start, &payload[2..]);
        }
        Ok(matrix.to_userdata())
    }
}

/// Publish the three transitive-closure archives under the paper's jar
/// names (Figure 2), including the tuple-space worker variant.
pub fn publish_tc_archives(registry: &cn_core::ArchiveRegistry) {
    registry
        .publish(cn_core::TaskArchive::new(SPLIT_JAR).class(SPLIT_CLASS, || Box::new(TaskSplit)));
    registry.publish(
        cn_core::TaskArchive::new(WORKER_JAR)
            .class(WORKER_CLASS, || Box::new(TCTask))
            .class(WORKER_TS_CLASS, || Box::new(TCTaskTS)),
    );
    registry.publish(cn_core::TaskArchive::new(JOIN_JAR).class(JOIN_CLASS, || Box::new(TCJoin)));
}

/// Options for a transitive-closure run.
#[derive(Debug, Clone)]
pub struct TcOptions {
    pub workers: usize,
    /// Use the tuple-space worker variant instead of message passing.
    pub tuplespace_workers: bool,
    pub timeout: Duration,
}

impl TcOptions {
    pub fn new(workers: usize) -> Self {
        TcOptions { workers, tuplespace_workers: false, timeout: Duration::from_secs(60) }
    }
}

/// Drive a full transitive-closure job over a deployed neighborhood: build
/// the Figure 2 composition, seed the input, run, and return the
/// all-pairs-shortest-path matrix. This is exactly the call sequence the
/// generated client performs.
pub fn run_transitive_closure(
    neighborhood: &cn_core::Neighborhood,
    input: &Matrix,
    options: &TcOptions,
) -> Result<Matrix, TaskError> {
    assert!(options.workers > 0, "need at least one worker");
    let rec = neighborhood.recorder().clone();
    rec.event_with(cn_cluster::Severity::Info, "client", None, || {
        format!(
            "transitive closure: n={} workers={} variant={}",
            input.n(),
            options.workers,
            if options.tuplespace_workers { "tuplespace" } else { "messages" }
        )
    });
    publish_tc_archives(neighborhood.registry());
    let api = cn_core::CnApi::initialize(neighborhood);
    let mut job = api
        .create_job(&cn_core::JobRequirements::default())
        .map_err(|e| TaskError::new(e.to_string()))?;

    let worker_class = if options.tuplespace_workers { WORKER_TS_CLASS } else { WORKER_CLASS };
    let worker_names: Vec<String> = (1..=options.workers).map(|i| format!("tctask{i}")).collect();

    let mut split = cn_core::TaskSpec::new("tctask0", SPLIT_JAR, SPLIT_CLASS);
    split.params.push(cn_cnx::Param::string("matrix.txt"));
    split.memory_mb = 100;
    job.add_task(split).map_err(|e| TaskError::new(e.to_string()))?;
    for (i, name) in worker_names.iter().enumerate() {
        let mut w = cn_core::TaskSpec::new(name.clone(), WORKER_JAR, worker_class);
        w.depends = vec!["tctask0".to_string()];
        w.params.push(cn_cnx::Param::integer(i as i64 + 1));
        w.memory_mb = 100;
        job.add_task(w).map_err(|e| TaskError::new(e.to_string()))?;
    }
    let mut join = cn_core::TaskSpec::new("tctask999", JOIN_JAR, JOIN_CLASS);
    join.depends = worker_names.clone();
    join.params.push(cn_cnx::Param::string("matrix.txt"));
    join.memory_mb = 100;
    job.add_task(join).map_err(|e| TaskError::new(e.to_string()))?;

    // Seeding is part of the composition: `seed` records it as its own span
    // nested in the job span, so traces show setup time apart from execution.
    job.seed(|job| seed_input(job, "matrix.txt", input, &worker_names, "tctask999"))
        .map_err(|e| TaskError::new(e.to_string()))?;
    job.start().map_err(|e| TaskError::new(e.to_string()))?;
    let report = job.wait(options.timeout).map_err(|e| TaskError::new(e.to_string()))?;
    let result =
        report.result("tctask999").ok_or_else(|| TaskError::new("joiner produced no result"))?;
    Matrix::from_userdata(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floyd::floyd_sequential;
    use crate::graphgen::{random_digraph, ring_graph};
    use cn_cluster::NodeSpec;
    use cn_core::Neighborhood;

    fn nb(nodes: usize) -> Neighborhood {
        Neighborhood::deploy(NodeSpec::fleet(nodes, 8000, 16))
    }

    #[test]
    fn tc_matches_sequential_floyd() {
        let neighborhood = nb(3);
        let g = random_digraph(24, 0.2, 1..10, 11);
        let result = run_transitive_closure(&neighborhood, &g, &TcOptions::new(4)).unwrap();
        assert_eq!(result, floyd_sequential(&g));
        neighborhood.shutdown();
    }

    #[test]
    fn tc_single_worker() {
        let neighborhood = nb(1);
        let g = ring_graph(10, 2);
        let result = run_transitive_closure(&neighborhood, &g, &TcOptions::new(1)).unwrap();
        assert_eq!(result, floyd_sequential(&g));
        neighborhood.shutdown();
    }

    #[test]
    fn tc_five_workers_like_figure2() {
        let neighborhood = nb(3);
        let g = random_digraph(20, 0.3, 1..5, 5);
        let result = run_transitive_closure(&neighborhood, &g, &TcOptions::new(5)).unwrap();
        assert_eq!(result, floyd_sequential(&g));
        neighborhood.shutdown();
    }

    #[test]
    fn tc_more_workers_than_rows() {
        let neighborhood = nb(2);
        let g = random_digraph(4, 0.5, 1..5, 2);
        let result = run_transitive_closure(&neighborhood, &g, &TcOptions::new(8)).unwrap();
        assert_eq!(result, floyd_sequential(&g));
        neighborhood.shutdown();
    }

    #[test]
    fn tc_tuplespace_variant_matches() {
        let neighborhood = nb(2);
        let g = random_digraph(16, 0.25, 1..8, 3);
        let mut opts = TcOptions::new(3);
        opts.tuplespace_workers = true;
        let result = run_transitive_closure(&neighborhood, &g, &opts).unwrap();
        assert_eq!(result, floyd_sequential(&g));
        neighborhood.shutdown();
    }

    #[test]
    fn i64_byte_roundtrip() {
        let v = vec![0i64, -1, i64::MAX, i64::MIN, 42];
        assert_eq!(decode_i64s(&encode_i64s(&v)).unwrap(), v);
        assert!(decode_i64s(&[1, 2, 3]).is_err());
    }

    #[test]
    fn plan_field_parsing() {
        let init = "index=2;n=10;joiner=tctask999";
        assert_eq!(plan_field(init, "index").unwrap(), "2");
        assert_eq!(plan_field(init, "joiner").unwrap(), "tctask999");
        assert!(plan_field(init, "missing").is_err());
    }

    #[test]
    fn split_fails_without_input() {
        let neighborhood = nb(1);
        publish_tc_archives(neighborhood.registry());
        let api = cn_core::CnApi::initialize(&neighborhood);
        let mut job = api.create_job(&cn_core::JobRequirements::default()).unwrap();
        let mut split = cn_core::TaskSpec::new("tctask0", SPLIT_JAR, SPLIT_CLASS);
        split.params.push(cn_cnx::Param::string("matrix.txt"));
        split.memory_mb = 100;
        job.add_task(split).unwrap();
        // No tuple-space seeding: the split task must time out and fail.
        // (Shorten its patience by dropping the job quickly is not possible;
        // we just verify failure surfaces. This test trades 30s for
        // coverage of the failure path — use a tiny matrixless job.)
        // To keep the suite fast we instead cancel via a missing plan and a
        // short client wait, asserting the timeout on the client side.
        job.start().unwrap();
        match job.wait(Duration::from_millis(300)) {
            Err(cn_core::ClientError::Timeout(_)) => {}
            other => panic!("{other:?}"),
        }
        neighborhood.shutdown();
    }
}
