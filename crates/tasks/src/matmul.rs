//! Row-block parallel matrix multiplication — a dense-kernel workload with
//! a different communication shape than Floyd (one-shot scatter, no
//! per-iteration exchange).

use std::time::Duration;

use cn_core::{Field, TaskContext, TaskError, UserData};

use crate::matrix::row_blocks;
use crate::transclosure::{decode_i64s, encode_i64s};

pub const MM_JAR: &str = "matmul.jar";
pub const WORKER_CLASS: &str = "org.jhpc.cn2.matmul.RowWorker";
pub const JOIN_CLASS: &str = "org.jhpc.cn2.matmul.Collector";

/// Sequential dense multiply of flat row-major `n×n` matrices.
pub fn matmul_sequential(n: usize, a: &[i64], b: &[i64]) -> Vec<i64> {
    assert_eq!(a.len(), n * n);
    assert_eq!(b.len(), n * n);
    let mut c = vec![0i64; n * n];
    for i in 0..n {
        for k in 0..n {
            let aik = a[i * n + k];
            if aik == 0 {
                continue;
            }
            for j in 0..n {
                c[i * n + j] += aik * b[k * n + j];
            }
        }
    }
    c
}

/// Worker: params `[index, workers, n]`; reads A's row block and all of B
/// from the tuple space, multiplies, sends its C block to `collect`.
pub struct RowWorker;

impl cn_core::Task for RowWorker {
    fn run(&mut self, ctx: &mut TaskContext) -> Result<UserData, TaskError> {
        let index = ctx.param_i64(0).ok_or_else(|| TaskError::new("need index"))? as usize;
        let workers = ctx.param_i64(1).ok_or_else(|| TaskError::new("need workers"))? as usize;
        let n = ctx.param_i64(2).ok_or_else(|| TaskError::new("need n"))? as usize;
        let range = row_blocks(n, workers)
            .get(index)
            .cloned()
            .ok_or_else(|| TaskError::new("worker index out of range"))?;
        let a_block = take_bytes(ctx, "A", index as i64)?;
        let b = rd_bytes(ctx, "B", -1)?;
        if b.len() != n * n || a_block.len() != range.len() * n {
            return Err(TaskError::new("input shard size mismatch"));
        }
        let mut c_block = vec![0i64; range.len() * n];
        for (local_i, _) in range.clone().enumerate() {
            for k in 0..n {
                let aik = a_block[local_i * n + k];
                if aik == 0 {
                    continue;
                }
                for j in 0..n {
                    c_block[local_i * n + j] += aik * b[k * n + j];
                }
            }
        }
        let mut payload = vec![range.start as i64, range.end as i64];
        payload.extend_from_slice(&c_block);
        ctx.send("collect", "cblock", UserData::I64s(payload))?;
        Ok(UserData::I64s(vec![range.len() as i64]))
    }
}

fn take_bytes(ctx: &mut TaskContext, name: &str, key: i64) -> Result<Vec<i64>, TaskError> {
    let tuple = ctx
        .tuplespace()
        .take(
            &vec![Some(Field::S(name.into())), Some(Field::I(key)), None],
            Duration::from_secs(30),
        )
        .ok_or_else(|| TaskError::new(format!("shard {name}/{key} not found")))?;
    match &tuple[2] {
        Field::B(bytes) => decode_i64s(bytes),
        _ => Err(TaskError::new("malformed shard tuple")),
    }
}

fn rd_bytes(ctx: &mut TaskContext, name: &str, key: i64) -> Result<Vec<i64>, TaskError> {
    let tuple = ctx
        .tuplespace()
        .rd(&vec![Some(Field::S(name.into())), Some(Field::I(key)), None], Duration::from_secs(30))
        .ok_or_else(|| TaskError::new(format!("shared input {name} not found")))?;
    match &tuple[2] {
        Field::B(bytes) => decode_i64s(bytes),
        _ => Err(TaskError::new("malformed shared tuple")),
    }
}

/// Collector: params `[workers, n]`; assembles C from the workers' blocks.
pub struct Collector;

impl cn_core::Task for Collector {
    fn run(&mut self, ctx: &mut TaskContext) -> Result<UserData, TaskError> {
        let workers = ctx.param_i64(0).ok_or_else(|| TaskError::new("need workers"))? as usize;
        let n = ctx.param_i64(1).ok_or_else(|| TaskError::new("need n"))? as usize;
        let mut c = vec![0i64; n * n];
        for _ in 0..workers {
            let (_, data) = ctx
                .recv_tagged("cblock", Duration::from_secs(30))
                .map_err(|e| TaskError::new(e.to_string()))?;
            let payload = data.as_i64s().ok_or_else(|| TaskError::new("cblock must be I64s"))?;
            let start = payload[0] as usize;
            let block = &payload[2..];
            c[start * n..start * n + block.len()].copy_from_slice(block);
        }
        let mut out = vec![n as i64];
        out.extend_from_slice(&c);
        Ok(UserData::I64s(out))
    }
}

/// Publish the matmul archive.
pub fn publish_mm_archive(registry: &cn_core::ArchiveRegistry) {
    registry.publish(
        cn_core::TaskArchive::new(MM_JAR)
            .class(WORKER_CLASS, || Box::new(RowWorker))
            .class(JOIN_CLASS, || Box::new(Collector)),
    );
}

/// Run a distributed multiply of flat row-major `n×n` matrices.
pub fn run_matmul(
    neighborhood: &cn_core::Neighborhood,
    n: usize,
    a: &[i64],
    b: &[i64],
    workers: usize,
) -> Result<Vec<i64>, TaskError> {
    assert!(workers > 0);
    publish_mm_archive(neighborhood.registry());
    let api = cn_core::CnApi::initialize(neighborhood);
    let mut job = api
        .create_job(&cn_core::JobRequirements::default())
        .map_err(|e| TaskError::new(e.to_string()))?;
    let mut collect = cn_core::TaskSpec::new("collect", MM_JAR, JOIN_CLASS);
    collect.params.push(cn_cnx::Param::integer(workers as i64));
    collect.params.push(cn_cnx::Param::integer(n as i64));
    collect.memory_mb = 50;
    job.add_task(collect).map_err(|e| TaskError::new(e.to_string()))?;
    for i in 0..workers {
        let mut w = cn_core::TaskSpec::new(format!("mm{i}"), MM_JAR, WORKER_CLASS);
        w.params.push(cn_cnx::Param::integer(i as i64));
        w.params.push(cn_cnx::Param::integer(workers as i64));
        w.params.push(cn_cnx::Param::integer(n as i64));
        w.memory_mb = 50;
        job.add_task(w).map_err(|e| TaskError::new(e.to_string()))?;
    }
    // Scatter A row blocks, share B.
    let blocks = row_blocks(n, workers);
    for (i, range) in blocks.iter().enumerate() {
        let block = &a[range.start * n..range.end * n];
        job.tuplespace().out(vec![
            Field::S("A".into()),
            Field::I(i as i64),
            Field::B(encode_i64s(block)),
        ]);
    }
    job.tuplespace().out(vec![Field::S("B".into()), Field::I(-1), Field::B(encode_i64s(b))]);
    job.start().map_err(|e| TaskError::new(e.to_string()))?;
    let report = job.wait(Duration::from_secs(60)).map_err(|e| TaskError::new(e.to_string()))?;
    let result = report
        .result("collect")
        .and_then(|d| d.as_i64s())
        .ok_or_else(|| TaskError::new("no collector output"))?;
    Ok(result[1..].to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_cluster::NodeSpec;
    use cn_core::Neighborhood;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn sequential_identity() {
        let n = 3;
        let mut ident = vec![0i64; 9];
        for i in 0..3 {
            ident[i * 3 + i] = 1;
        }
        let a: Vec<i64> = (1..=9).collect();
        assert_eq!(matmul_sequential(n, &a, &ident), a);
        assert_eq!(matmul_sequential(n, &ident, &a), a);
    }

    #[test]
    fn sequential_known_product() {
        // [[1,2],[3,4]] * [[5,6],[7,8]] = [[19,22],[43,50]]
        let c = matmul_sequential(2, &[1, 2, 3, 4], &[5, 6, 7, 8]);
        assert_eq!(c, vec![19, 22, 43, 50]);
    }

    #[test]
    fn distributed_matches_sequential() {
        let nb = Neighborhood::deploy(NodeSpec::fleet(2, 4000, 8));
        let n = 12;
        let mut rng = StdRng::seed_from_u64(3);
        let a: Vec<i64> = (0..n * n).map(|_| rng.gen_range(-5..5)).collect();
        let b: Vec<i64> = (0..n * n).map(|_| rng.gen_range(-5..5)).collect();
        for workers in [1, 3, 5] {
            let c = run_matmul(&nb, n, &a, &b, workers).unwrap();
            assert_eq!(c, matmul_sequential(n, &a, &b), "workers={workers}");
        }
        nb.shutdown();
    }
}
