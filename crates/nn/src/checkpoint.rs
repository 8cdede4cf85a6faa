//! Checkpointing: named state dicts with file round-trips.
//!
//! Cluster training jobs (the paper's are hours long on 512 GPUs) live and
//! die by checkpoints. The format is deliberately simple: a JSON header of
//! named shapes followed by raw little-endian f32 data, so checkpoints are
//! portable and inspectable.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::module::Module;

/// A model's parameters keyed by name.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StateDict {
    /// name → (shape, values)
    pub entries: BTreeMap<String, (Vec<usize>, Vec<f32>)>,
}

/// Errors from checkpoint IO.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying IO failure.
    Io(std::io::Error),
    /// Header was not valid JSON/format.
    Format(String),
    /// Loaded state does not match the model architecture.
    Mismatch(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::Format(m) => write!(f, "checkpoint format error: {m}"),
            CheckpointError::Mismatch(m) => write!(f, "checkpoint mismatch: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

const MAGIC: &[u8; 8] = b"DLSRCKP1";

impl StateDict {
    /// Capture a model's parameters.
    pub fn from_module(model: &mut dyn Module) -> Self {
        let mut entries = BTreeMap::new();
        model.visit_params(&mut |p| {
            entries.insert(
                p.name.clone(),
                (p.value.shape().dims().to_vec(), p.value.data().to_vec()),
            );
        });
        StateDict { entries }
    }

    /// Load into a model of identical architecture (names and shapes must
    /// match exactly).
    pub fn load_into(&self, model: &mut dyn Module) -> Result<(), CheckpointError> {
        let mut missing = Vec::new();
        let mut seen = 0usize;
        let mut err: Option<CheckpointError> = None;
        model.visit_params(&mut |p| {
            seen += 1;
            match self.entries.get(&p.name) {
                None => missing.push(p.name.clone()),
                Some((shape, values)) => {
                    if shape != p.value.shape().dims() {
                        err.get_or_insert(CheckpointError::Mismatch(format!(
                            "shape of `{}`: checkpoint {:?} vs model {:?}",
                            p.name,
                            shape,
                            p.value.shape().dims()
                        )));
                    } else {
                        p.value.data_mut().copy_from_slice(values);
                    }
                }
            }
        });
        if let Some(e) = err {
            return Err(e);
        }
        if !missing.is_empty() {
            return Err(CheckpointError::Mismatch(format!(
                "parameters missing from checkpoint: {missing:?}"
            )));
        }
        if seen != self.entries.len() {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint has {} entries, model has {seen} parameters",
                self.entries.len()
            )));
        }
        Ok(())
    }

    /// Total scalar count.
    pub fn numel(&self) -> usize {
        self.entries.values().map(|(_, v)| v.len()).sum()
    }

    /// Serialize to a writer: magic, JSON header (names + shapes), then raw
    /// little-endian f32 payloads in name order.
    pub fn write_to(&self, mut w: impl Write) -> Result<(), CheckpointError> {
        w.write_all(MAGIC)?;
        let header: BTreeMap<&String, &Vec<usize>> =
            self.entries.iter().map(|(k, (s, _))| (k, s)).collect();
        let header =
            serde_json::to_vec(&header).map_err(|e| CheckpointError::Format(e.to_string()))?;
        w.write_all(&(header.len() as u64).to_le_bytes())?;
        w.write_all(&header)?;
        for (_, values) in self.entries.values() {
            for v in values {
                w.write_all(&v.to_le_bytes())?;
            }
        }
        Ok(())
    }

    /// Deserialize from a reader (inverse of [`StateDict::write_to`]).
    ///
    /// Sizes read from the stream are never trusted for allocation: the
    /// header and every value buffer grow only as bytes arrive, so a garbled
    /// length or shape fails with `Format` or `Io` instead of aborting.
    pub fn read_from(mut r: impl Read) -> Result<Self, CheckpointError> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(CheckpointError::Format("bad magic".into()));
        }
        let mut len = [0u8; 8];
        r.read_exact(&mut len)?;
        let len = u64::from_le_bytes(len);
        let mut header = Vec::new();
        (&mut r).take(len).read_to_end(&mut header)?;
        if header.len() as u64 != len {
            return Err(CheckpointError::Format(format!(
                "header truncated: {} of {len} bytes",
                header.len()
            )));
        }
        let shapes: BTreeMap<String, Vec<usize>> =
            serde_json::from_slice(&header).map_err(|e| CheckpointError::Format(e.to_string()))?;
        let mut entries = BTreeMap::new();
        for (name, shape) in shapes {
            let n = shape
                .iter()
                .try_fold(1usize, |n, &d| n.checked_mul(d))
                .ok_or_else(|| {
                    CheckpointError::Format(format!("shape of `{name}` overflows: {shape:?}"))
                })?;
            let mut values = Vec::new();
            let mut buf = [0u8; 4];
            for _ in 0..n {
                r.read_exact(&mut buf)?;
                values.push(f32::from_le_bytes(buf));
            }
            entries.insert(name, (shape, values));
        }
        Ok(StateDict { entries })
    }

    /// Save to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        let f = std::fs::File::create(path)?;
        self.write_to(std::io::BufWriter::new(f))
    }

    /// Load from a file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        let f = std::fs::File::open(path)?;
        Self::read_from(std::io::BufReader::new(f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Conv2d;
    use crate::module::ModuleExt;
    use dlsr_tensor::conv::Conv2dParams;

    fn model(seed: u64) -> Conv2d {
        Conv2d::new("conv", 2, 3, 3, Conv2dParams::same(3), seed)
    }

    #[test]
    fn capture_and_restore_round_trip() {
        let mut a = model(1);
        let mut b = model(2);
        assert_ne!(a.flatten_params(), b.flatten_params());
        let dict = StateDict::from_module(&mut a);
        dict.load_into(&mut b).unwrap();
        assert_eq!(a.flatten_params(), b.flatten_params());
    }

    #[test]
    fn byte_round_trip_preserves_exact_values() {
        let mut a = model(3);
        let dict = StateDict::from_module(&mut a);
        let mut bytes = Vec::new();
        dict.write_to(&mut bytes).unwrap();
        let back = StateDict::read_from(bytes.as_slice()).unwrap();
        assert_eq!(dict, back);
        assert_eq!(back.numel(), 2 * 3 * 9 + 3);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("dlsr_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("conv.ckpt");
        let mut a = model(4);
        StateDict::from_module(&mut a).save(&path).unwrap();
        let loaded = StateDict::load(&path).unwrap();
        let mut b = model(5);
        loaded.load_into(&mut b).unwrap();
        assert_eq!(a.flatten_params(), b.flatten_params());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shape_mismatch_is_detected() {
        let mut a = model(1);
        let dict = StateDict::from_module(&mut a);
        let mut other = Conv2d::new("conv", 2, 4, 3, Conv2dParams::same(3), 1);
        assert!(matches!(
            dict.load_into(&mut other),
            Err(CheckpointError::Mismatch(_))
        ));
    }

    #[test]
    fn missing_parameter_is_detected() {
        let mut a = model(1);
        let mut dict = StateDict::from_module(&mut a);
        dict.entries.remove("conv.bias");
        assert!(matches!(
            dict.load_into(&mut a),
            Err(CheckpointError::Mismatch(_))
        ));
    }

    /// A garbled header length or shape, and every truncation of a valid
    /// two-entry checkpoint, is an error — never an abort or a bogus `Ok`.
    #[test]
    fn garbled_or_truncated_input_is_an_error() {
        let with_header = |len: u64, header: &[u8]| {
            let mut bytes = MAGIC.to_vec();
            bytes.extend_from_slice(&len.to_le_bytes());
            bytes.extend_from_slice(header);
            bytes
        };
        let huge_len = with_header(1 << 42, b"{}");
        assert!(matches!(
            StateDict::read_from(huge_len.as_slice()),
            Err(CheckpointError::Format(_))
        ));
        let header = br#"{"w":[4294967296,4294967296]}"#;
        let wrapping = with_header(header.len() as u64, header);
        assert!(matches!(
            StateDict::read_from(wrapping.as_slice()),
            Err(CheckpointError::Format(_))
        ));

        let mut a = model(6);
        let dict = StateDict::from_module(&mut a);
        assert_eq!(dict.entries.len(), 2);
        let mut bytes = Vec::new();
        dict.write_to(&mut bytes).unwrap();
        for cut in 0..bytes.len() {
            assert!(
                matches!(
                    StateDict::read_from(&bytes[..cut]),
                    Err(CheckpointError::Format(_) | CheckpointError::Io(_))
                ),
                "prefix of {cut} bytes parsed"
            );
        }
        assert_eq!(StateDict::read_from(bytes.as_slice()).unwrap(), dict);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let bytes = b"NOTDLSR0\0\0\0\0\0\0\0\0";
        assert!(matches!(
            StateDict::read_from(bytes.as_slice()),
            Err(CheckpointError::Format(_))
        ));
    }
}
