//! Dictionary stores backing State Modules.
//!
//! A SteM "encapsulates a dictionary data structure over tuples from a
//! table, and handles build (insert) and probe (lookup) requests on that
//! dictionary" (paper §1). The paper stresses that *which* dictionary a
//! SteM uses is an implementation choice the SteM may even adapt on its own
//! (§3.1: "the SteM may use a linked list when it holds a small number of
//! tuples, and switch to a hash-based implementation when the list size
//! increases"), and that different dictionary implementations make routing
//! simulate different classical join algorithms:
//!
//! * hash indexes ⇒ (n-ary) symmetric hash join,
//! * partitioned "asynchronous" stores ⇒ Grace / hybrid-hash joins,
//! * sorted runs (tournament trees) ⇒ sort-merge join.
//!
//! This crate provides those stores behind one trait, [`DictStore`]:
//!
//! * [`ListStore`] — append-only vector, lookups by filtered scan.
//! * [`HashStore`] — secondary hash indexes on each join column, "pointers
//!   to the same tuples in memory" (paper §2.1.4) via shared [`Arc<Row>`]s:
//!   each index is a flat chain of row positions under the caller's
//!   precomputed key hash, never re-hashing a probe key.
//! * [`AdaptiveStore`] — starts as a list, switches to hash at a threshold.
//! * [`PartitionedStore`] — Grace-style hash partitions with clustered
//!   draining, used to delay and batch bounce-backs.
//! * [`SortedStore`] — per-column sorted runs for merge-style access.
//!
//! Plus [`RowSet`], the set-semantics duplicate filter of §3.2, a small
//! in-repo Fx-style hasher ([`fxhash`]) for hot integer keys, and the flat
//! probe arena [`CandidateBuf`] (caller-owned, behind
//! [`DictStore::lookup_eq_flat`], with key-run dedup).
//!
//! [`Arc<Row>`]: stems_types::Row

pub mod fxhash;

mod adaptive;
mod dedup;
mod flat;
mod hash;
mod list;
mod partitioned;
mod sorted;
mod store;

pub use adaptive::AdaptiveStore;
pub use dedup::RowSet;
pub use flat::CandidateBuf;
pub use hash::HashStore;
pub use list::ListStore;
pub use partitioned::PartitionedStore;
pub use sorted::SortedStore;
pub use store::{index_key, DictStore, StoreKind};
