//! The executor's workspace pool, in a binary of its own: the pool is
//! process-wide, so no other suite's executor may run beside these
//! tests while they count it, and they take turns with each other.
//!
//! * after parallel passes, the pool holds one workspace per worker a
//!   pass used (the calling thread among them), and no more;
//! * a second sequential pass over the same plan makes no allocation
//!   as large as the lane kernel's rows (16 bytes per AS), measured by
//!   `testkit::CountingAlloc`;
//! * in a second parallel pass, no spawned worker makes an allocation
//!   as large as the footprint's stamps (8 bytes per AS): a worker's
//!   footprint is pooled with its workspace, so threads that are new
//!   every pass still find their scratch sized.

use std::sync::{Mutex, MutexGuard, PoisonError};

use bgpsim::exec::pooled_workspaces;
use bgpsim::{
    AttackKind, AttackerStrategy, CellAccumulator, DeploymentModel, Executor, PlanTopology,
    RoaConfig, RouteLeak, Topology, TopologyConfig, TrialPlan,
};
use testkit::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Held by each test for its whole run.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

const STRATEGIES: [&dyn AttackerStrategy; 3] = [
    &AttackKind::ForgedOriginPrefixHijack,
    &AttackKind::SubprefixHijack,
    &RouteLeak,
];

/// Transparent head-to-head stagings (lanes), filtered push runs and
/// structural answers, over `trials` groups of `topology`.
fn plan(topology: &Topology, trials: usize) -> TrialPlan<'_> {
    TrialPlan::new(
        vec![PlanTopology {
            label: "pool".into(),
            topology,
        }],
        STRATEGIES.to_vec(),
        vec![DeploymentModel::Uniform { p: 0.5 }],
        RoaConfig::ALL.to_vec(),
        trials,
        2017,
    )
}

#[test]
fn parallel_passes_leave_one_workspace_per_worker() {
    let _serial = serial();
    let t = Topology::generate(TopologyConfig {
        n: 300,
        tier1: 4,
        ..TopologyConfig::default()
    });
    // 80 groups: work for up to 80 workers, the calling thread among
    // them.
    let plan = plan(&t, 80);
    let workers = rayon::current_num_threads().clamp(1, 80);
    let first: Vec<CellAccumulator> = Executor::parallel().run(&plan);
    assert_eq!(pooled_workspaces(), workers);
    let second: Vec<CellAccumulator> = Executor::parallel().run(&plan);
    assert_eq!(pooled_workspaces(), workers);
    assert_eq!(first, second);
    let sequential: Vec<CellAccumulator> = Executor::sequential().run(&plan);
    assert_eq!(pooled_workspaces(), workers);
    assert_eq!(first, sequential);
}

#[test]
fn second_sequential_pass_allocates_nothing_sized_by_the_topology() {
    let _serial = serial();
    testkit::alloc::assert_installed();
    let t = Topology::generate(TopologyConfig {
        n: 10_000,
        tier1: 5,
        ..TopologyConfig::default()
    });
    let plan = plan(&t, 8);
    let rows = 16 * t.len();
    let exec = Executor::sequential();
    let (first, grown) = testkit::alloc::largest_during(|| exec.run::<CellAccumulator>(&plan));
    assert!(
        grown >= rows,
        "the first pass sizes the lane rows: {grown} B"
    );
    let (second, largest) = testkit::alloc::largest_during(|| exec.run::<CellAccumulator>(&plan));
    assert!(
        largest < rows,
        "a {largest} B allocation, {rows} B of lane rows"
    );
    assert_eq!(first, second);
}

#[test]
fn second_parallel_pass_allocates_nothing_sized_by_the_topology_on_any_worker() {
    let _serial = serial();
    testkit::alloc::assert_installed();
    // Smaller than the sequential test's topology, so that running
    // first it does not size that test's pooled workspace.
    let t = Topology::generate(TopologyConfig {
        n: 5_000,
        tier1: 5,
        ..TopologyConfig::default()
    });
    let plan = plan(&t, 256);
    let stamps = 8 * t.len();
    let exec = Executor::parallel();
    let first: Vec<CellAccumulator> = exec.run(&plan);
    assert!(
        pooled_workspaces() > 1,
        "a pass with one worker spawns no thread to measure"
    );
    // The calling thread is left out: it draws the deployment's
    // thresholds (8 bytes per AS) in every pass.
    let (second, largest) =
        testkit::alloc::largest_elsewhere_during(|| exec.run::<CellAccumulator>(&plan));
    assert!(
        largest < stamps,
        "a {largest} B allocation on a worker, {stamps} B of footprint stamps"
    );
    assert_eq!(first, second);
}
