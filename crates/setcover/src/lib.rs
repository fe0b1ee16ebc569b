//! Set cover and interval cover.
//!
//! * [`greedy`] — Chvátal's greedy set cover with the lazy-evaluation
//!   optimization, the engine inside HDRRM's `ASMS` solver and the MDRRR
//!   baselines (paper Section V-B). Guarantees the classic
//!   `1 + ln |universe|` approximation ratio.
//! * [`interval`] — optimal cover of a segment by intervals, the engine of
//!   the 2DRRR baseline (minimum number of `[a_l, b_l]` windows covering
//!   the normalized weight range).

pub mod greedy;
pub mod interval;

pub use greedy::{
    greedy_set_cover, greedy_set_cover_capped, greedy_set_cover_csr, naive_greedy_set_cover,
};
pub use interval::{cover_segment, Interval};
