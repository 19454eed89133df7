//! Scenarios written once against `Cluster<F>` and run on both fabrics:
//! in-memory channels (`ThreadedCluster`) and loopback sockets
//! (`TcpCluster`).

use peats::TupleSpace;
use peats_net::{TcpCluster, TcpClusterConfig};
use peats_policy::{Policy, PolicyParams};
use peats_replication::{Cluster, Fabric, FaultMode, ThreadedCluster};
use peats_tuplespace::{template, tuple};

/// f = 1 with one replica that corrupts every reply and another that has
/// crashed: the two correct ones plus the voting still serve a write and
/// the read of it.
fn survives_crashed_replica_and_corrupt_replies<F: Fabric>(cluster: &mut Cluster<F>) {
    cluster.set_fault(1, FaultMode::CorruptReplies);
    cluster.set_fault(3, FaultMode::Crashed);
    let h = cluster.handle(0);
    h.out(tuple!["A"]).unwrap();
    assert_eq!(h.rdp(&template!["A"]).unwrap(), Some(tuple!["A"]));
}

#[test]
fn survives_crashed_replica_and_corrupt_replies_on_threads() {
    let mut cluster =
        ThreadedCluster::start(Policy::allow_all(), PolicyParams::new(), 1, &[100], &[]).unwrap();
    survives_crashed_replica_and_corrupt_replies(&mut cluster);
    cluster.shutdown();
}

#[test]
fn survives_crashed_replica_and_corrupt_replies_on_sockets() {
    let config = TcpClusterConfig::default();
    let mut cluster =
        TcpCluster::start(Policy::allow_all(), PolicyParams::new(), 1, &[100], config).unwrap();
    survives_crashed_replica_and_corrupt_replies(&mut cluster);
    cluster.shutdown();
}

/// f = 1 with replica 0 answering every client-bound message as itself
/// and as replica 1, all with one forged result: out, rdp and take still
/// return the true values, because a client counts one vote per
/// authenticated sender.
fn outvotes_a_replica_impersonating_another<F: Fabric>(cluster: &mut Cluster<F>) {
    cluster.set_fault(0, FaultMode::ImpersonatesReplicas);
    let h = cluster.handle(0);
    for i in 0..5i64 {
        h.out(tuple!["I", i]).unwrap();
        assert_eq!(h.rdp(&template!["I", i]).unwrap(), Some(tuple!["I", i]));
        assert_eq!(h.take(&template!["I", ?x]).unwrap(), tuple!["I", i]);
    }
}

#[test]
fn outvotes_a_replica_impersonating_another_on_threads() {
    let mut cluster =
        ThreadedCluster::start(Policy::allow_all(), PolicyParams::new(), 1, &[100], &[]).unwrap();
    outvotes_a_replica_impersonating_another(&mut cluster);
    cluster.shutdown();
}

#[test]
fn outvotes_a_replica_impersonating_another_on_sockets() {
    let config = TcpClusterConfig::default();
    let mut cluster =
        TcpCluster::start(Policy::allow_all(), PolicyParams::new(), 1, &[100], config).unwrap();
    outvotes_a_replica_impersonating_another(&mut cluster);
    cluster.shutdown();
}
