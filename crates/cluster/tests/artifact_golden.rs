//! Golden bytes of the per-run diagnostic artifacts.
//!
//! The digests below were taken on the commit *before* timeline events
//! became compact (lazily rendered names, append-only merge, one sort on
//! export): the chrome trace and the profile of a 16-GPU run must keep
//! serializing to exactly those bytes.

use dlsr_cluster::experiment::run_training;
use dlsr_cluster::workload::edsr_measured_workload;
use dlsr_cluster::Scenario;
use dlsr_net::ClusterTopology;

/// FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn timeline_and_profile_serialize_to_the_pre_change_bytes() {
    let (w, tensors) = edsr_measured_workload();
    let topo = ClusterTopology::lassen(4);
    let run = run_training(&topo, Scenario::MpiOpt, &w, &tensors, 4, 1, 5, 7);
    let chrome = run.timeline.to_chrome_trace();
    let profile = serde_json::to_string(&run.profile).expect("profile serializes");
    assert_eq!(
        (chrome.len(), fnv1a(chrome.as_bytes())),
        (132462, 18136276289850204491),
        "chrome trace bytes changed"
    );
    assert_eq!(
        (profile.len(), fnv1a(profile.as_bytes())),
        (1103, 5207548238427223750),
        "profile bytes changed"
    );
}
