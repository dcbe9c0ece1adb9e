//! Square distance matrices and their wire encoding.
//!
//! The transitive-closure tasks ship rows and whole matrices through CN
//! user messages; the encoding is a flat `i64` vector `[n, row-major
//! entries...]` with [`INF`] as the "no edge" sentinel (kept far from
//! `i64::MAX` so additions cannot overflow).

use crate::TaskError;
use cn_core::UserData;

/// "No path" sentinel. `INF + INF` still fits in an `i64`.
pub const INF: i64 = i64::MAX / 4;

/// A dense square matrix of path lengths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matrix {
    n: usize,
    data: Vec<i64>,
}

impl Matrix {
    /// A matrix with no edges: zero diagonal, [`INF`] elsewhere.
    pub fn disconnected(n: usize) -> Matrix {
        let mut m = Matrix { n, data: vec![INF; n * n] };
        for i in 0..n {
            m.set(i, i, 0);
        }
        m
    }

    pub fn n(&self) -> usize {
        self.n
    }

    #[inline]
    pub fn get(&self, i: usize, j: usize) -> i64 {
        self.data[i * self.n + j]
    }

    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: i64) {
        self.data[i * self.n + j] = v;
    }

    pub fn row(&self, i: usize) -> &[i64] {
        &self.data[i * self.n..(i + 1) * self.n]
    }

    pub fn rows(&self) -> &[i64] {
        &self.data
    }

    /// Crate-internal: mutable access to the backing storage (used by the
    /// parallel baseline to split into disjoint row blocks).
    pub(crate) fn data_mut(&mut self) -> &mut [i64] {
        &mut self.data
    }

    /// Copy rows `range` out as a flat vector.
    pub fn rows_slice(&self, range: std::ops::Range<usize>) -> Vec<i64> {
        self.data[range.start * self.n..range.end * self.n].to_vec()
    }

    /// Overwrite rows starting at `first_row` with `rows` (flat, row-major).
    pub fn put_rows(&mut self, first_row: usize, rows: &[i64]) {
        let start = first_row * self.n;
        self.data[start..start + rows.len()].copy_from_slice(rows);
    }

    /// Encode as a user message payload: `[n, entries...]`.
    pub fn to_userdata(&self) -> UserData {
        let mut v = Vec::with_capacity(self.data.len() + 1);
        v.push(self.n as i64);
        v.extend_from_slice(&self.data);
        UserData::I64s(v)
    }

    /// Decode from a user message payload.
    pub fn from_userdata(data: &UserData) -> Result<Matrix, TaskError> {
        let v = data.as_i64s().ok_or_else(|| TaskError::new("matrix payload must be I64s"))?;
        let n = *v.first().ok_or_else(|| TaskError::new("empty matrix payload"))? as usize;
        if v.len() != n * n + 1 {
            return Err(TaskError::new(format!(
                "matrix payload length {} does not match n={n}",
                v.len()
            )));
        }
        Ok(Matrix { n, data: v[1..].to_vec() })
    }

    /// The boolean reachability view (for transitive-closure assertions).
    pub fn reachable(&self, i: usize, j: usize) -> bool {
        self.get(i, j) < INF
    }
}

/// Render small matrices for debugging ("INF" for the sentinel).
impl std::fmt::Display for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for i in 0..self.n {
            for j in 0..self.n {
                if j > 0 {
                    write!(f, " ")?;
                }
                let v = self.get(i, j);
                if v >= INF {
                    write!(f, "INF")?;
                } else {
                    write!(f, "{v}")?;
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Split `n` rows into `parts` contiguous blocks, sized as evenly as
/// possible (the paper's "one or more adjacent rows" decomposition).
pub fn row_blocks(n: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    assert!(parts > 0, "need at least one part");
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut m = Matrix::disconnected(3);
        assert_eq!(m.get(0, 0), 0);
        assert_eq!(m.get(0, 1), INF);
        m.set(0, 1, 5);
        assert_eq!(m.get(0, 1), 5);
        assert_eq!(m.row(0), &[0, 5, INF]);
        assert!(m.reachable(0, 1));
        assert!(!m.reachable(1, 0));
    }

    #[test]
    fn userdata_roundtrip() {
        let mut m = Matrix::disconnected(4);
        m.set(1, 2, 7);
        let encoded = m.to_userdata();
        let back = Matrix::from_userdata(&encoded).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn userdata_rejects_malformed() {
        assert!(Matrix::from_userdata(&UserData::Text("no".into())).is_err());
        assert!(Matrix::from_userdata(&UserData::I64s(vec![])).is_err());
        assert!(Matrix::from_userdata(&UserData::I64s(vec![3, 1, 2])).is_err());
    }

    #[test]
    fn rows_slice_and_put_rows() {
        let mut m = Matrix { n: 3, data: (0..9).collect() };
        let rows = m.rows_slice(1..3);
        assert_eq!(rows, vec![3, 4, 5, 6, 7, 8]);
        m.put_rows(0, &[9, 9, 9]);
        assert_eq!(m.row(0), &[9, 9, 9]);
    }

    #[test]
    fn row_blocks_even_and_uneven() {
        assert_eq!(row_blocks(6, 3), vec![0..2, 2..4, 4..6]);
        assert_eq!(row_blocks(7, 3), vec![0..3, 3..5, 5..7]);
        assert_eq!(row_blocks(2, 4), vec![0..1, 1..2, 2..2, 2..2]);
        let blocks = row_blocks(100, 7);
        assert_eq!(blocks.iter().map(|r| r.len()).sum::<usize>(), 100);
        assert_eq!(blocks.last().unwrap().end, 100);
    }

    #[test]
    fn inf_is_addition_safe() {
        assert!(INF.checked_add(INF).is_some());
    }

    #[test]
    fn display_renders_inf() {
        let m = Matrix::disconnected(2);
        let s = m.to_string();
        assert!(s.contains("0 INF"));
    }
}
