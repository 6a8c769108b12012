//! Proof that the sharded-parallel engine's steady state is
//! allocation-free: mailbox exchange, per-shard wheels, source stepping,
//! and the serial measurement commit (tagging, latency, the
//! tagged-sample log, channel load) must all run out of retained
//! buffers once capacities plateau. These drives never finish their
//! sample (`with_sample(u64::MAX)`), so the log cannot be reserved up
//! front and grows geometrically instead, which the min-over-windows
//! discipline absorbs.
//!
//! The network is driven through the *inline* sharded step path — the
//! same phase functions and mailbox exchange the threaded run executes,
//! minus the thread pool — so every engine allocation happens on the
//! test's own thread. The counting allocator counts per thread, which
//! keeps the tests of this binary, run in parallel by the harness, from
//! seeing each other's allocations. (This is its own integration-test
//! binary because a `#[global_allocator]` is per-binary.)

use noc_network::config::EngineKind;
use noc_network::{Network, NetworkConfig, RouterKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    /// Allocations made by this thread. `const`-initialized and free of
    /// `Drop`, so touching it from inside the allocator never allocates
    /// and never fails, even during thread teardown.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations the calling thread has made so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Steps `net` for `cycles` and returns the allocations performed.
fn alloc_window(net: &mut Network, cycles: u64) -> u64 {
    let before = allocations();
    for _ in 0..cycles {
        net.step();
    }
    allocations() - before
}

/// One test covering two shard counts, including one that does not divide the node count, at a load
/// where packets are created, forwarded across shard boundaries, tagged,
/// and ejected continuously — so every mailbox and commit path is hot.
#[test]
fn sharded_steady_state_is_allocation_free() {
    for shards in [2, 3] {
        run_alloc_free_check(
            NetworkConfig::mesh(
                4,
                RouterKind::SpeculativeVc {
                    vcs: 2,
                    buffers_per_vc: 4,
                },
            ),
            shards,
        );
    }
    // A 3-D mesh of 7-port routers: the generalized topology stack must
    // preserve the zero-steady-state-allocation guarantee end to end
    // (route table, mailboxes sized from mesh.ports(), commit paths).
    run_alloc_free_check(
        NetworkConfig::for_mesh(
            noc_network::Mesh::new(3, 3),
            RouterKind::SpeculativeVc {
                vcs: 2,
                buffers_per_vc: 4,
            },
        ),
        3,
    );
}

/// The fused compute path at near-quiescent load: most cycles deliver
/// nothing, inject nothing, and tick no routers, so the per-cycle cost
/// is mailbox checks, wheel cursor moves, and vote bookkeeping — all of
/// which must run out of retained buffers too. (The inline step path
/// never fast-forwards, so every one of these idle cycles actually
/// executes the fused phases.)
#[test]
fn sharded_quiescent_cycles_are_allocation_free() {
    let cfg = NetworkConfig::mesh(
        4,
        RouterKind::VirtualChannel {
            vcs: 2,
            buffers_per_vc: 4,
        },
    )
    .with_injection(0.02)
    .with_warmup(100)
    .with_sample(u64::MAX)
    .with_max_cycles(u64::MAX)
    .with_engine(EngineKind::ParallelShards { shards: 3 });
    let mut net = Network::new(cfg);
    let _ = alloc_window(&mut net, 1_500);
    let mut min_window = u64::MAX;
    for _ in 0..5 {
        min_window = min_window.min(alloc_window(&mut net, 1_000));
    }
    assert_eq!(
        min_window, 0,
        "every quiescent steady-state window allocated \
         (min {min_window} per 1000 cycles)"
    );
    net.assert_flit_conservation();
}

/// Work-metered rebalancing must not break the steady-state guarantee:
/// the meters fold into retained EWMAs, the epoch decision reuses the
/// prefix/range scratch, and a firing *migration* drains wheels,
/// mailboxes, and seam credit pipes into buffers preallocated at
/// construction — so the step that performs a live migration allocates
/// nothing, and neither do the epoch-metering windows after it.
///
/// The epoch is placed past the capacity-plateau warmup and the skewed
/// hotspot keeps imbalance above the threshold, so the drive provably
/// migrates. After the migration the moved rows' *new* owners grow their
/// wheel slots and pipes to the traffic once (ordinary capacity warmup),
/// which a regrow window absorbs before the measured ones.
#[test]
fn sharded_rebalance_migration_is_allocation_free() {
    let cfg = NetworkConfig::mesh(
        4,
        RouterKind::SpeculativeVc {
            vcs: 2,
            buffers_per_vc: 4,
        },
    )
    .with_pattern(noc_network::TrafficPattern::Hotspot {
        hotspot: 5,
        hotness: 0.6,
    })
    // Keep the hotspot below its ejection limit (16 * 0.06 * 0.6 ≈
    // 0.58 flits/cycle): a saturated hotspot grows its source queues
    // without bound — which would read as a (real, but unrelated)
    // allocating steady state.
    .with_injection(0.06)
    .with_warmup(100)
    .with_sample(u64::MAX)
    .with_max_cycles(u64::MAX)
    .with_engine(EngineKind::ParallelShards { shards: 3 })
    .with_rebalance(2_000, 1.05);
    let mut net = Network::new(cfg);
    // Past every capacity plateau, short of the first epoch decision at
    // executed cycle 2000.
    let _ = alloc_window(&mut net, 1_900);
    // Walk up to the migration and meter exactly the step that performs
    // it (drain + re-cut + re-home).
    let before_rb = net.rebalances();
    let migration = (0..1_000)
        .find_map(|_| {
            let step = alloc_window(&mut net, 1);
            (net.rebalances() > before_rb).then_some(step)
        })
        .expect("skewed load must trigger a migration");
    assert_eq!(migration, 0, "the migration step allocated");
    // Let the new owners regrow to the traffic, then require the
    // epoch-metering steady state to be allocation-free again.
    let _ = alloc_window(&mut net, 1_000);
    let mut min_window = u64::MAX;
    for _ in 0..5 {
        min_window = min_window.min(alloc_window(&mut net, 1_000));
    }
    assert_eq!(
        min_window, 0,
        "every post-migration metering window allocated \
         (min {min_window} per 1000 cycles)"
    );
    net.assert_flit_conservation();
}

/// Telemetry must not break the steady-state guarantee: counter updates
/// are integer adds into slots preallocated at construction, and each
/// epoch emission appends fixed-width rows to the in-memory log —
/// whose *amortized* (geometric) growth the min-over-windows discipline
/// absorbs. An allocating per-cycle, per-flit, or per-snapshot path
/// would show up in every window.
#[test]
fn telemetry_instrumented_steady_state_is_allocation_free() {
    let cfg = NetworkConfig::mesh(
        4,
        RouterKind::SpeculativeVc {
            vcs: 2,
            buffers_per_vc: 4,
        },
    )
    .with_injection(0.25)
    .with_warmup(100)
    .with_sample(u64::MAX)
    .with_max_cycles(u64::MAX)
    .with_telemetry(256)
    .with_engine(EngineKind::ParallelShards { shards: 3 });
    let mut net = Network::new(cfg);
    let _ = alloc_window(&mut net, 1_500);
    let mut min_window = u64::MAX;
    for _ in 0..5 {
        min_window = min_window.min(alloc_window(&mut net, 1_000));
    }
    assert_eq!(
        min_window, 0,
        "telemetry-on steady-state window allocated \
         (min {min_window} per 1000 cycles)"
    );
    net.assert_flit_conservation();
}

fn run_alloc_free_check(base: NetworkConfig, shards: usize) {
    let cfg = base
        .with_injection(0.25)
        .with_warmup(100)
        // Never-completing sample: tagging stays active through every
        // measured window.
        .with_sample(u64::MAX)
        .with_max_cycles(u64::MAX)
        .with_engine(EngineKind::ParallelShards { shards });
    let mut net = Network::new(cfg);

    // Warm-up: let every retained buffer — mailboxes, wheels, shard
    // records, scratch, source queues — reach its high-water mark.
    let _ = alloc_window(&mut net, 1_500);

    // Take the minimum over several windows: amortized (geometric)
    // growth may land in one window, but an allocating engine path
    // would show up in every window.
    let mut min_window = u64::MAX;
    for _ in 0..5 {
        min_window = min_window.min(alloc_window(&mut net, 1_000));
    }
    assert_eq!(
        min_window, 0,
        "shards={shards}: every steady-state window allocated \
             (min {min_window} per 1000 cycles)"
    );
    assert!(
        net.flits_ejected() > 1_000,
        "shards={shards}: the drive must actually move traffic \
             ({} ejected)",
        net.flits_ejected()
    );
    net.assert_flit_conservation();
}
