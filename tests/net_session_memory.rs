//! The peak heap of a `train_net` session, over channels and over
//! loopback TCP, held against what the session has to hold: the linked
//! worker's one copy of its rows, what the trainer itself holds (the
//! simulated run of the same call), and a few row frames in flight,
//! among them the frame buffer each link end keeps. A session that held a
//! linked worker's whole partition as one frame, or decoded it into a
//! list and then moved it again, would exceed the bound by about that
//! partition.
//!
//! The counters are process-wide, so the tests take one lock: a test
//! running on a parallel thread would count into another's figures.

use std::mem::size_of;
use std::sync::Mutex;

use mllib_star::core::{system_partitions, AngelConfig, PsSystemConfig, System, TrainConfig};
use mllib_star::data::{catalog, SyntheticConfig};
use mllib_star::glm::{LearningRate, Loss, Regularizer};
use mllib_star::linalg::SparseVector;
use mllib_star::net::{train_net, NetConfig, TransportKind, ROW_FRAME_BUDGET};
use mllib_star::sim::{ClusterSpec, NetworkSpec, NodeSpec};
use mlstar_alloc_count::{Counting, Session};

#[global_allocator]
static COUNTING: Counting = Counting;

/// Row frames the bound allows for: the frame the orchestrator encoded
/// and the channel's copy of it, the two the channel holds unread and
/// the one the worker decodes, and one more for what the orchestrator
/// holds beside the trainer (its copy of the partition lists, the local
/// worker's row table, the per-batch measurements). A TCP link holds no
/// frames in flight on the heap, so the same bound is looser there.
const FRAMES: usize = 6;

/// Held by each test while it counts.
static COUNTERS: Mutex<()> = Mutex::new(());

#[test]
fn a_channel_session_holds_one_copy_of_the_linked_rows() {
    holds_one_copy_of_the_linked_rows(TransportKind::Channel);
}

#[test]
fn a_tcp_session_holds_one_copy_of_the_linked_rows() {
    holds_one_copy_of_the_linked_rows(TransportKind::Tcp);
}

fn holds_one_copy_of_the_linked_rows(transport: TransportKind) {
    let _counting = COUNTERS
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let ds = SyntheticConfig {
        num_instances: 20_000,
        ..catalog::avazu_like()
    }
    .generate();
    let cluster = ClusterSpec::uniform(2, NodeSpec::standard(), NetworkSpec::gbps1());
    let cfg = TrainConfig {
        loss: Loss::Hinge,
        reg: Regularizer::L2 { lambda: 0.1 },
        lr: LearningRate::Constant(0.5),
        batch_frac: 0.01,
        eval_every: 10,
        max_rounds: 20,
        ..TrainConfig::default()
    };
    let (ps, angel) = (PsSystemConfig::default(), AngelConfig::default());

    // The linked worker (worker 0 of 2) holds each of its rows once: the
    // vector and its index and value buffers, its label, its row-table
    // entry and its position in the partition list.
    let parts = system_partitions(System::Mllib, &ds, &cluster, &cfg);
    let rows: usize = parts[0]
        .iter()
        .map(|&i| size_of::<SparseVector>() + ds.rows()[i].nnz() * (4 + 8) + 8 + 8 + 8)
        .sum();
    let frames = FRAMES * ROW_FRAME_BUDGET;

    let session = Session::open();
    let sim = System::Mllib.train(&ds, &cluster, &cfg, &ps, &angel);
    let sim_peak = session.close().peak_bytes as usize;
    let session = Session::open();
    let net = train_net(
        System::Mllib,
        &ds,
        &cluster,
        &cfg,
        &ps,
        &angel,
        &NetConfig {
            transport,
            kill: None,
        },
    );
    let net_peak = session.close().peak_bytes as usize;

    let net = net.expect("the session runs");
    assert_eq!(net.output.model.weights(), sim.model.weights());
    let mib = |b: usize| b as f64 / (1 << 20) as f64;
    println!(
        "{transport:?}: peak {:.3} MiB; rows {:.3} + simulated run {:.3} + {FRAMES} frames {:.3} = {:.3} MiB",
        mib(net_peak),
        mib(rows),
        mib(sim_peak),
        mib(frames),
        mib(rows + sim_peak + frames)
    );
    assert!(
        net_peak < rows + sim_peak + frames,
        "a {transport:?} session peaked at {:.3} MiB, above its rows {:.3} + the simulated run {:.3} + {FRAMES} \
         frames {:.3} MiB",
        mib(net_peak),
        mib(rows),
        mib(sim_peak),
        mib(frames)
    );
}
