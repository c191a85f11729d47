//! Log-optimized compression for MithriLog (paper §5), plus from-scratch
//! baselines used in the paper's comparison tables.
//!
//! The star is **LZAH** ("LZ Aligned Header"), the paper's hardware-friendly
//! codec: a word-aligned LZRW1 derivative that (1) moves a fixed 16-byte
//! window across the input in word-aligned steps, realigning at newline
//! characters to recover the cross-line redundancy of logs, and (2) groups
//! 128 header bits into word-aligned chunks so a hardware decoder never
//! needs a variable shifter on the header path. Its decompressor emits one
//! word per cycle deterministically — the property that lets the prototype
//! guarantee 3.2 GB/s per pipeline.
//!
//! Baselines, all implemented here from scratch (no external codec crates):
//!
//! * [`Lzrw1`] — Ross Williams' LZRW1 (1991), the algorithm LZAH derives
//!   from: byte-granular, 4 KB window, 16-item control groups.
//! * [`Lz4`] — the LZ4 block format (token byte, literal runs, 2-byte
//!   offsets), greedy matching over a 64 KB window.
//! * [`Snappy`] — the Snappy block format (varint length, tagged literal
//!   and copy elements), completing Table 4's codec set.
//! * [`Gzf`] — a DEFLATE-class LZSS + canonical-Huffman codec standing in
//!   for Gzip in the compression-ratio comparison (Table 5).
//!
//! Every codec implements the [`Codec`] trait; round-trip correctness is
//! property-tested in the crate's test suite.
//!
//! # Example
//!
//! ```
//! use mithrilog_compress::{Codec, Lzah};
//!
//! let codec = Lzah::default();
//! let log = b"Jun 3 node-1 up\nJun 3 node-2 up\nJun 3 node-3 up\n".repeat(50);
//! let packed = codec.compress(&log);
//! assert!(packed.len() < log.len());
//! assert_eq!(codec.decompress(&packed)?, log);
//! # Ok::<(), mithrilog_compress::DecompressError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitio;
mod error;
mod gzf;
pub mod huffman;
mod lz4;
mod lzah;
mod lzrw1;
mod paged;
mod snappy;

pub use error::DecompressError;
pub use gzf::Gzf;
pub use lz4::Lz4;
pub use lzah::{Lzah, LzahConfig, LzahScratch};
pub use lzrw1::Lzrw1;
pub use paged::{compress_paged, decompress_page, PageFrame, PagedLog};
pub use snappy::Snappy;

/// A lossless compression codec.
///
/// All MithriLog codecs are deterministic and self-framing: `decompress`
/// needs nothing beyond the bytes `compress` produced.
pub trait Codec {
    /// Short human-readable codec name (used in benchmark tables).
    fn name(&self) -> &'static str;

    /// Compresses `input` into a self-framing buffer.
    fn compress(&self, input: &[u8]) -> Vec<u8>;

    /// Decompresses a buffer produced by [`Codec::compress`].
    ///
    /// # Errors
    ///
    /// Returns [`DecompressError`] if the input is truncated or corrupt.
    fn decompress(&self, input: &[u8]) -> Result<Vec<u8>, DecompressError>;

    /// Convenience: compression ratio (original / compressed) on `input`.
    fn ratio(&self, input: &[u8]) -> f64 {
        if input.is_empty() {
            return 1.0;
        }
        let compressed = self.compress(input);
        input.len() as f64 / compressed.len() as f64
    }
}

#[cfg(test)]
pub(crate) mod testdata {
    /// A synthetic but structurally log-like corpus shared by codec tests.
    pub fn log_corpus() -> Vec<u8> {
        let mut out = Vec::new();
        for i in 0..400u32 {
            let node = i % 37;
            let sev = if i % 11 == 0 { "FATAL" } else { "INFO" };
            out.extend_from_slice(
                format!(
                    "- 11173{i:04} 2005.06.03 R{:02}-M0-NC-lk:virtual node-{node} RAS KERNEL {sev} \
                     instruction cache parity error corrected seq={i}\n",
                    node % 64
                )
                .as_bytes(),
            );
        }
        out
    }
}
