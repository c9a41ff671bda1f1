//! # baselines — the comparison systems of the SIGMOD 2014 evaluation
//!
//! The paper compares query shredding against three alternatives, all of
//! which are implemented here so the evaluation can be reproduced end to end:
//!
//! * [`flat_default`] — Links' stock behaviour (Figure 1(a)): flat–flat
//!   queries are normalised and sent to the database as a single SQL query;
//!   nested queries are rejected.
//! * [`looplift`] — a loop-lifting backend in the style of Ferry / Ulrich's
//!   implementation (Figure 1(b)): every nesting level is numbered with
//!   `ROW_NUMBER` over the *unreduced* iteration context, reproducing the
//!   query shapes whose cross products Pathfinder cannot remove (the Q1/Q6
//!   pathology of Section 8).
//! * [`vandenbussche`] — Van den Bussche's simulation of nested set queries
//!   by flat queries without value invention, and the Appendix A
//!   demonstration that it blows up quadratically and breaks bag semantics.

//!
//! Each system is also available as a [`shredding::session::SqlBackend`]
//! strategy ([`backend`]), so it can be selected through
//! `Shredder::builder().backend(..)` alongside the built-in backends.

#![forbid(unsafe_code)]

pub mod backend;
pub mod flat_default;
pub mod looplift;
pub mod vandenbussche;

pub use backend::{FlatDefaultBackend, LoopLiftBackend, VandenBusscheBackend};
