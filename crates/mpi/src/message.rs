//! Wire messages between rank threads.

/// Message payload: numeric tensors (the common case) or opaque bytes
//  (coordinator control traffic).
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// A dense f32 buffer (gradients, parameters).
    F32(Vec<f32>),
    /// A dense half-precision buffer (bf16 or IEEE fp16 bit patterns) —
    /// gradients compressed by a lossy [`WireFormat`] before the send;
    /// the receiver decodes back to f32 and accumulates in f32.
    ///
    /// [`WireFormat`]: crate::collectives::WireFormat
    Half {
        /// 16-bit encodings, in element order.
        bits: Vec<u16>,
        /// `true` for IEEE fp16, `false` for bf16.
        fp16: bool,
    },
    /// A sparse gradient fragment: a top-k round's selected coordinates as
    /// parallel (index, value) arrays. Values stay f32 — top-k compresses
    /// by dropping coordinates, not precision.
    Sparse {
        /// Ascending element indices.
        idx: Vec<u32>,
        /// Values at those indices.
        val: Vec<f32>,
    },
    /// Serialized control data.
    Bytes(Vec<u8>),
    /// A costs-only payload: carries a size but no data. Used by the
    /// scaling harnesses (up to 512 simulated ranks) where shuttling real
    /// gradient buffers through host memory would be prohibitive; all
    /// timing, path-selection and registration accounting is identical to
    /// a real payload of the same size.
    Synthetic {
        /// Simulated payload size.
        bytes: u64,
    },
}

impl Payload {
    /// Payload size in bytes on the wire.
    #[inline]
    pub fn size_bytes(&self) -> u64 {
        match self {
            Payload::F32(v) => (v.len() * 4) as u64,
            Payload::Half { bits, .. } => (bits.len() * 2) as u64,
            Payload::Sparse { idx, .. } => (idx.len() * 8) as u64,
            Payload::Bytes(b) => b.len() as u64,
            Payload::Synthetic { bytes } => *bytes,
        }
    }

    /// Bytes this payload actually occupies in *host* memory while queued
    /// (mailbox-budget accounting). Synthetic payloads carry a size but no
    /// data, so they cost nothing here no matter how many simulated bytes
    /// they represent.
    #[inline]
    pub fn host_bytes(&self) -> u64 {
        match self {
            Payload::F32(v) => (v.len() * 4) as u64,
            Payload::Half { bits, .. } => (bits.len() * 2) as u64,
            Payload::Sparse { idx, .. } => (idx.len() * 8) as u64,
            Payload::Bytes(b) => b.len() as u64,
            Payload::Synthetic { .. } => 0,
        }
    }

    /// Short variant name for diagnostics.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Payload::F32(_) => "F32",
            Payload::Half { fp16: false, .. } => "Half(bf16)",
            Payload::Half { fp16: true, .. } => "Half(fp16)",
            Payload::Sparse { .. } => "Sparse",
            Payload::Bytes(_) => "Bytes",
            Payload::Synthetic { .. } => "Synthetic",
        }
    }

    /// Unwrap an f32 payload.
    pub fn into_f32(self) -> Vec<f32> {
        match self {
            Payload::F32(v) => v,
            other => other.mismatch("F32"),
        }
    }

    /// Unwrap a sparse payload's (indices, values) pair.
    pub fn into_sparse(self) -> (Vec<u32>, Vec<f32>) {
        match self {
            Payload::Sparse { idx, val } => (idx, val),
            other => other.mismatch("Sparse"),
        }
    }

    /// Unwrap a byte payload.
    pub fn into_bytes(self) -> Vec<u8> {
        match self {
            Payload::Bytes(b) => b,
            other => other.mismatch("Bytes"),
        }
    }

    /// The panic of a failed unwrap: kind and size only — a gradient
    /// payload's contents would be millions of numbers in the message.
    #[cold]
    fn mismatch(&self, expected: &str) -> ! {
        panic!(
            "expected {expected} payload, got {} ({} bytes)",
            self.kind_name(),
            self.size_bytes()
        )
    }
}

/// One message in flight.
#[derive(Debug, Clone)]
pub struct Message {
    /// Sending rank.
    pub src: usize,
    /// Application tag (collectives use reserved high bits).
    pub tag: u64,
    /// Data.
    pub payload: Payload,
    /// Earliest virtual time the receiver may observe this message
    /// (sender clock at send + transport time).
    pub arrival: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_sizes() {
        assert_eq!(Payload::F32(vec![0.0; 3]).size_bytes(), 12);
        assert_eq!(Payload::Bytes(vec![0u8; 5]).size_bytes(), 5);
        let half = Payload::Half {
            bits: vec![0; 6],
            fp16: false,
        };
        assert_eq!(half.size_bytes(), 12);
        assert_eq!(half.host_bytes(), 12);
        let sparse = Payload::Sparse {
            idx: vec![0, 4, 9],
            val: vec![1.0, 2.0, 3.0],
        };
        assert_eq!(sparse.size_bytes(), 24);
        assert_eq!(sparse.host_bytes(), 24);
    }

    #[test]
    fn unwrap_round_trip() {
        assert_eq!(Payload::F32(vec![1.0]).into_f32(), vec![1.0]);
        assert_eq!(Payload::Bytes(vec![7]).into_bytes(), vec![7]);
        assert_eq!(
            Payload::Sparse {
                idx: vec![2],
                val: vec![5.0]
            }
            .into_sparse(),
            (vec![2], vec![5.0])
        );
    }

    #[test]
    #[should_panic(expected = "expected F32 payload, got Half(bf16) (10 bytes)")]
    fn wrong_unwrap_panics() {
        let _ = Payload::Half {
            bits: vec![0x3f80; 5],
            fp16: false,
        }
        .into_f32();
    }
}
