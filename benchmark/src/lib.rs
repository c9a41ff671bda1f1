//! Shared pieces of the two benchmark binaries.
//!
//! `shredbench` (end to end) links this library and nothing below the
//! `Shredder` session API: everything here calls only `shredding::session`,
//! `shredding::delta`'s handle types and `datagen`, and treats `Term`,
//! `Value`, `Database` and `WriteBatch` as opaque inputs and outputs.
//! `shredtrace` (layers) adds its own adapter module for the calls into the
//! lower-level public functions; that file is not part of this library, so
//! the end-to-end binary keeps building when the adapter breaks.

#![forbid(unsafe_code)]

pub mod cli;
pub mod recorder;
pub mod report;
pub mod stats;
pub mod workloads;
