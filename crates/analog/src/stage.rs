//! The block-pipeline stage abstraction.
//!
//! Every streaming element of the analog chain — SAW/channelizer FIR, LNA,
//! envelope detector, mixer/shifter chain, IF amplifier, low-pass filter —
//! processes a caller-provided input slice into a caller-provided output
//! buffer (or in place), carrying whatever state it needs across chunk
//! boundaries. Two contracts make the chain composable:
//!
//! * **chunk invariance** — the concatenated output over any partition of the
//!   stream is bit-identical to whole-buffer processing, because each stage's
//!   output at sample `n` depends only on samples `..= n` and carried state;
//! * **no steady-state allocation** — stages write into reusable buffers the
//!   *caller* owns (`Vec`s whose capacity survives across chunks), so a
//!   long-running receiver performs no per-chunk heap traffic.
//!
//! The traits here exist so the buffer-ownership rules are written down once
//! and so the chunk-partition test harness (`tests/stage_partitions.rs`) can
//! drive every stage through one generic routine. Concrete pipelines
//! ([`crate::shifting::ShifterState`], `saiyan::frontend::StreamingFrontend`)
//! call the inherent `*_into` methods directly — monomorphised, no dynamic
//! dispatch.

/// A streaming stage that maps an input block to an output block of its own
/// element type, one output per input sample (or fewer, for decimators).
///
/// `process_into` must clear `out` before writing, must leave the stage in
/// the same state as processing the same samples in any other chunking, and
/// must not allocate once `out` and any internal scratch have grown to a
/// chunk's working size.
pub trait BlockStage {
    /// Input element type.
    type In: Copy;
    /// Output element type.
    type Out: Copy;

    /// Processes one chunk of the stream into `out` (cleared first),
    /// advancing the carried state.
    fn process_into(&mut self, input: &[Self::In], out: &mut Vec<Self::Out>);
}

/// A streaming stage that rewrites a real-valued block in place (filters with
/// no rate change and no type change: the IF amplifier and low-pass cascade).
///
/// In-place stages are the cheapest composition: the envelope buffer produced
/// by the detector flows through the whole back half of the shifting chain
/// without a single copy.
pub trait InPlaceStage {
    /// Filters one chunk in place, advancing the carried state.
    fn process_in_place(&mut self, data: &mut [f64]);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy two-tap moving-sum stage used to pin the trait contracts.
    struct MovingSum {
        prev: f64,
    }

    impl BlockStage for MovingSum {
        type In = f64;
        type Out = f64;
        fn process_into(&mut self, input: &[f64], out: &mut Vec<f64>) {
            out.clear();
            for &x in input {
                out.push(self.prev + x);
                self.prev = x;
            }
        }
    }

    #[test]
    fn block_stage_is_chunk_invariant() {
        let input: Vec<f64> = (0..100).map(|i| i as f64 * 0.5).collect();
        let mut whole = Vec::new();
        MovingSum { prev: 0.0 }.process_into(&input, &mut whole);
        for chunk in [1usize, 3, 7] {
            let mut stage = MovingSum { prev: 0.0 };
            let mut out = Vec::new();
            let mut scratch = Vec::new();
            for c in input.chunks(chunk) {
                stage.process_into(c, &mut scratch);
                out.extend_from_slice(&scratch);
            }
            assert_eq!(out, whole);
        }
    }
}
