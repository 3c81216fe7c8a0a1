//! Output checking: every response must equal, bit for bit, the solo
//! `ExecutableGraph::run_with` output for the same input at the
//! workload's precision (the runtime's coalesced == solo contract).

use pcnn_runtime::{ExecutableGraph, Precision};
use pcnn_serve::{ServeError, Ticket};
use pcnn_tensor::Tensor;

/// Solo reference outputs for every tensor of the input pool.
pub struct References {
    outputs: Vec<Tensor>,
}

impl References {
    pub fn compute(graph: &ExecutableGraph, pool: &[Tensor], precision: Precision) -> Self {
        References {
            outputs: pool.iter().map(|x| graph.run_with(x, precision)).collect(),
        }
    }

    /// Whether `got` is bit-identical to the reference for pool entry
    /// `idx` (shape and every f32 bit pattern).
    pub fn matches(&self, idx: usize, got: &Tensor) -> bool {
        let want = &self.outputs[idx];
        want.shape() == got.shape()
            && want
                .as_slice()
                .iter()
                .zip(got.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    pub fn outputs(&self) -> &[Tensor] {
        &self.outputs
    }
}

/// Largest `|a − b| / max(1, |b|)` over two equally shaped tensors.
pub fn max_rel_diff(a: &Tensor, b: &Tensor) -> f64 {
    assert_eq!(a.shape(), b.shape(), "reference shape mismatch");
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&x, &y)| ((x - y).abs() / y.abs().max(1.0)) as f64)
        .fold(0.0, f64::max)
}

/// Client-side request accounting. Every request sent ends in exactly
/// one of `ok`, `rejected`, `failed`, `expired` or `mismatches`.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub sent: u64,
    pub ok: u64,
    pub rejected: u64,
    pub failed: u64,
    pub expired: u64,
    pub mismatches: u64,
}

impl Tally {
    /// A submission the server refused.
    pub fn refused(&mut self, err: &ServeError) {
        self.sent += 1;
        match err {
            ServeError::QueueFull | ServeError::Overloaded => self.rejected += 1,
            _ => self.failed += 1,
        }
    }

    /// The outcome of an admitted request; `true` when it produced the
    /// reference output.
    pub fn resolve(
        &mut self,
        refs: &References,
        idx: usize,
        out: Result<Tensor, ServeError>,
    ) -> bool {
        self.sent += 1;
        match out {
            Ok(y) if refs.matches(idx, &y) => {
                self.ok += 1;
                return true;
            }
            Ok(_) => self.mismatches += 1,
            Err(ServeError::DeadlineExceeded) => self.expired += 1,
            Err(_) => self.failed += 1,
        }
        false
    }

    /// Waits for `ticket` and resolves it.
    pub fn wait(&mut self, refs: &References, idx: usize, ticket: Ticket) -> bool {
        self.resolve(refs, idx, ticket.wait())
    }

    pub fn errors(&self) -> u64 {
        self.rejected + self.failed + self.expired + self.mismatches
    }

    pub fn add(&mut self, o: &Tally) {
        self.sent += o.sent;
        self.ok += o.ok;
        self.rejected += o.rejected;
        self.failed += o.failed;
        self.expired += o.expired;
        self.mismatches += o.mismatches;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcnn_core::PrunePlan;
    use pcnn_nn::models::tiny_cnn;
    use pcnn_runtime::compile::{prune_and_compile, CompileOptions};

    #[test]
    fn corrupted_response_counts_as_failure() {
        let mut model = tiny_cnn(4, 4, 1);
        let (graph, _, _) = prune_and_compile(
            &mut model,
            &PrunePlan::uniform(2, 2, 32),
            &CompileOptions::default(),
        )
        .expect("tiny model compiles");
        let pool = vec![Tensor::ones(&[1, 3, 8, 8])];
        let refs = References::compute(&graph, &pool, Precision::F32);
        let mut tally = Tally::default();

        let good = graph.run_with(&pool[0], Precision::F32);
        assert!(tally.resolve(&refs, 0, Ok(good.clone())));

        let mut bad = good;
        let v = &mut bad.as_mut_slice()[0];
        *v = f32::from_bits(v.to_bits() ^ 1); // one ulp off
        assert!(!tally.resolve(&refs, 0, Ok(bad)));
        assert!(!tally.resolve(&refs, 0, Err(ServeError::EngineFault)));
        tally.refused(&ServeError::QueueFull);

        assert_eq!((tally.sent, tally.ok), (4, 1));
        assert_eq!((tally.mismatches, tally.failed, tally.rejected), (1, 1, 1));
        assert_eq!(tally.errors(), 3);
    }
}
