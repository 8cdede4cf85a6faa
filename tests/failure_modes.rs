//! Failure injection: the stack must fail loudly and precisely, not
//! silently mis-simulate.

use dlsr::gpu::{DeviceEnv, GpuId, IpcError, IpcRegistry};
use dlsr::nn::checkpoint::{CheckpointError, StateDict};
use dlsr::prelude::*;

/// Oversized batches surface the device's own OOM, with sizes in the error.
#[test]
fn oom_reports_requested_and_capacity() {
    let (w, tensors) = edsr_measured_workload();
    let topo = ClusterTopology::lassen(1);
    let err = SimTrainer::new(w, tensors, 512, Scenario::MpiOpt, &topo, 1)
        .err()
        .expect("batch 512 cannot fit a 16 GB V100");
    let msg = err.to_string();
    assert!(msg.contains("out of memory"), "{msg}");
    assert!(msg.contains("MiB"), "{msg}");
}

/// The paper's exact failure: a pinned process cannot open a peer's IPC
/// handle, and the error says which mask blocked it.
#[test]
fn ipc_open_fails_under_pinned_mask_with_actionable_error() {
    let registry = IpcRegistry::new();
    let buf = dlsr::gpu::device::DeviceBuffer {
        device: GpuId { node: 0, local: 1 },
        id: 9,
        bytes: 64 << 20,
    };
    let handle = registry.get_mem_handle(buf);
    let err = registry
        .open_mem_handle(
            handle,
            GpuId { node: 0, local: 0 },
            &DeviceEnv::default_pinned(0),
        )
        .unwrap_err();
    assert!(matches!(err, IpcError::DeviceNotVisible { .. }));
    assert!(err.to_string().contains("CUDA_VISIBLE_DEVICES"), "{err}");
    // the fix makes the same open succeed
    assert!(registry
        .open_mem_handle(
            handle,
            GpuId { node: 0, local: 0 },
            &DeviceEnv::mpi_opt(0, 4)
        )
        .is_ok());
}

/// Loading a checkpoint into the wrong architecture is rejected, naming
/// the offending parameter.
#[test]
fn checkpoint_architecture_mismatch_is_rejected() {
    let mut small = Edsr::new(EdsrConfig::tiny(), 1);
    let dict = StateDict::from_module(&mut small);
    let mut wide = Edsr::new(
        EdsrConfig {
            n_feats: 16,
            ..EdsrConfig::tiny()
        },
        1,
    );
    let err = dict.load_into(&mut wide).unwrap_err();
    let msg = err.to_string();
    assert!(matches!(err, CheckpointError::Mismatch(_)));
    assert!(
        msg.contains("head.weight"),
        "should name the first bad tensor: {msg}"
    );
}

/// Misconfigured sharding fails at construction, not mid-training.
#[test]
#[should_panic(expected = "not divisible")]
fn indivisible_global_batch_panics_at_loader_construction() {
    let spec = SyntheticImageSpec {
        height: 32,
        width: 32,
        ..Default::default()
    };
    let ds = Div2kSynthetic::new(spec, 2, 2, 1);
    let _ = DataLoader::new(ds, 8, 7, ShardSpec { rank: 0, world: 4 });
}

/// A rank panic propagates out of the world launcher, payload and all,
/// instead of hanging (all ranks fail before any communication, so no
/// partner blocks).
#[test]
#[should_panic(expected = "deliberate rank failure")]
fn rank_panics_propagate() {
    let topo = ClusterTopology::lassen(1);
    let _ = MpiWorld::run(&topo, MpiConfig::mpi_opt(), |_c| {
        panic!("deliberate rank failure");
        #[allow(unreachable_code)]
        ()
    });
}

/// Mean-shift configs reject inputs with the wrong channel count.
#[test]
fn model_rejects_wrong_channels() {
    let mut m = Edsr::new(EdsrConfig::tiny(), 1);
    let err = m.forward(&Tensor::zeros([1, 1, 8, 8])).unwrap_err();
    assert!(err.to_string().contains("Edsr input channels"), "{err}");
}
