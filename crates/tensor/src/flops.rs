//! Analytic flop accounting.
//!
//! Table 2 of the paper reports training throughput both in traces/s and in
//! Gflop/s (measured through hardware counters for packed-SIMD single
//! precision). We have no hardware counters, so we count the
//! multiply–accumulate work of each NN component analytically and divide by
//! measured wall time — the same methodology the paper uses to scale flop
//! rates across platforms.

/// Flops of a dense layer forward pass: `y[B,N] = x[B,M]·W[M,N] + b`.
pub fn linear_flops(batch: u64, in_dim: u64, out_dim: u64) -> u64 {
    2 * batch * in_dim * out_dim + batch * out_dim
}

/// Flops of one LSTM time step for one layer (4 gates, input and recurrent
/// products plus elementwise gate math).
pub fn lstm_step_flops(batch: u64, input: u64, hidden: u64) -> u64 {
    let gates = 4 * hidden;
    // x·W_ih + h·W_hh + biases
    2 * batch * input * gates + 2 * batch * hidden * gates + 2 * batch * gates
    // elementwise: 3 sigmoids + 2 tanh + 3 mul + 1 add ≈ 10 flops/unit
        + 10 * batch * hidden
}

/// Flops of a stacked-LSTM forward over a sequence.
pub fn lstm_sequence_flops(batch: u64, steps: u64, input: u64, hidden: u64, layers: u64) -> u64 {
    if layers == 0 {
        return 0;
    }
    let first = lstm_step_flops(batch, input, hidden);
    let rest = lstm_step_flops(batch, hidden, hidden);
    steps * (first + (layers - 1) * rest)
}

/// Rule-of-thumb training multiplier: backward ≈ 2× forward work.
pub const BACKWARD_MULTIPLIER: f64 = 2.0;

/// Total training flops for a forward count (forward + backward).
pub fn training_flops(forward: u64) -> u64 {
    forward + (forward as f64 * BACKWARD_MULTIPLIER) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_counts() {
        assert_eq!(linear_flops(1, 10, 20), 2 * 200 + 20);
    }

    #[test]
    fn lstm_counts_scale_linearly_in_steps() {
        let one = lstm_sequence_flops(4, 1, 32, 64, 2);
        let ten = lstm_sequence_flops(4, 10, 32, 64, 2);
        assert_eq!(ten, 10 * one);
    }

    #[test]
    fn training_is_three_x_forward() {
        assert_eq!(training_flops(100), 300);
    }
}
