//! The MithriLog token filtering engine (paper §4): a functional,
//! hardware-faithful model of the cuckoo-hash line filter.
//!
//! Queries in union-of-intersections form are *compiled* into a cuckoo hash
//! table whose entries carry per-intersection-set `(valid, negative)` flag
//! pairs, plus one expected bitmap per intersection set (paper Figures 5–6).
//! Filtering then proceeds line by line at a fixed cost per token:
//!
//! 1. each token is hashed with two hash functions and compared against at
//!    most two table rows (single-cycle Block-RAM lookups in hardware);
//! 2. a matching row's flag pairs update per-set state: a valid+negative
//!    flag poisons the set for this line, a valid+positive flag sets the
//!    row's bit in the set's bitmap;
//! 3. at end of line, the line is kept iff some set is unpoisoned and its
//!    bitmap exactly equals the compiled query bitmap.
//!
//! Tokens longer than the 16-byte datapath word spill into an *overflow
//! table* of contiguous word entries (paper Figure 5), which this model
//! reproduces exactly.
//!
//! # Example
//!
//! ```
//! use mithrilog_filter::FilterPipeline;
//! use mithrilog_query::parse;
//!
//! let query = parse(r#""FATAL" AND NOT "recovered""#)?;
//! let pipeline = FilterPipeline::compile(&query)?;
//! let text = b"RAS KERNEL FATAL data storage interrupt\n\
//!              RAS KERNEL FATAL recovered after retry\n\
//!              RAS KERNEL INFO all ok\n";
//! let kept: Vec<&[u8]> = pipeline.filter_text(text).collect();
//! assert_eq!(kept.len(), 1);
//! assert!(kept[0].starts_with(b"RAS KERNEL FATAL data"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitmap;
mod compile;
mod engine;
mod error;
mod hash;
mod pipeline;
mod positional;
mod table;

pub use bitmap::Bitmap;
pub use compile::{CompiledQuery, FilterParams};
pub use engine::{HashFilter, LineVerdict};
pub use error::QueryCompileError;
pub use hash::TokenHasher;
pub use pipeline::{FilterPipeline, FilterStats, TaggedLines};
pub use positional::{PositionalFormError, PositionalQuery, PositionalTerm};
pub use table::{CuckooTable, Slot, TableEntry};
