//! Checkpoint/fast-forward correctness (Sec. III-D): restoring from the
//! `fi_read_init_all` snapshot and continuing must be indistinguishable
//! from simulating straight through, across CPU models and serialization
//! round-trips.

use gemfi_cpu::{CpuKind, NoopHooks};
use gemfi_isa::codec::Codec;
use gemfi_sim::{Checkpoint, Machine, RunExit};
use gemfi_workloads::knapsack::Knapsack;
use gemfi_workloads::{workload_machine_config, GuestWorkload, Workload};

fn straight_through(guest: &GuestWorkload, cpu: CpuKind) -> (Vec<u8>, u64) {
    let mut m =
        Machine::boot(workload_machine_config(cpu), &guest.program, NoopHooks).expect("boots");
    let mut exit = m.run();
    while exit == RunExit::CheckpointRequest {
        exit = m.run();
    }
    assert_eq!(exit, RunExit::Halted(0));
    let out = m.mem().read_slice(guest.output_addr(), guest.output_len).unwrap();
    (out, m.instret())
}

/// Steps `m` with the fully hooked `Machine::step()` loop (no sprint, no
/// superblocks) up to its checkpoint request; `cold_decode` empties the
/// predecode cache before every step.
fn step_to_checkpoint(m: &mut Machine<NoopHooks>, cold_decode: bool) {
    loop {
        if cold_decode {
            m.mem_mut().clear_predecode();
        }
        if let Some(exit) = m.step() {
            assert_eq!(exit, RunExit::CheckpointRequest);
            return;
        }
    }
}

fn checkpoint_of(guest: &GuestWorkload) -> Checkpoint {
    let mut m = Machine::boot(workload_machine_config(CpuKind::Atomic), &guest.program, NoopHooks)
        .expect("boots");
    assert_eq!(m.run(), RunExit::CheckpointRequest);
    m.checkpoint()
}

#[test]
fn restore_resumes_identically_across_models() {
    let w = Knapsack { generations: 6, ..Knapsack::default() };
    let guest = w.build();
    let (golden, _) = straight_through(&guest, CpuKind::Atomic);
    let ckpt = checkpoint_of(&guest);

    for cpu in [CpuKind::Atomic, CpuKind::Timing, CpuKind::InOrder, CpuKind::O3] {
        let mut m = Machine::restore(&ckpt, Some(cpu), NoopHooks);
        let mut exit = m.run();
        while exit == RunExit::CheckpointRequest {
            exit = m.run();
        }
        assert_eq!(exit, RunExit::Halted(0), "{cpu}");
        let out = m.mem().read_slice(guest.output_addr(), guest.output_len).unwrap();
        assert_eq!(out, golden.as_slice(), "{cpu}: restored run must match straight-through");
    }
}

#[test]
fn serialized_checkpoint_behaves_like_the_original() {
    let w = Knapsack { generations: 4, ..Knapsack::default() };
    let guest = w.build();
    let ckpt = checkpoint_of(&guest);
    let round_tripped = Checkpoint::from_bytes(&ckpt.to_bytes()).expect("decodes");

    let run = |c: &Checkpoint| {
        let mut m = Machine::restore(c, None, NoopHooks);
        let exit = m.run();
        (exit, m.instret(), m.stats().ticks)
    };
    assert_eq!(run(&ckpt), run(&round_tripped));
}

#[test]
fn warm_predecode_cache_never_reaches_the_checkpoint_image() {
    // The predecode cache is derived state: a checkpoint taken from a
    // machine with a warm cache must serialize byte-identically to one
    // taken from a machine that never cached a decode, and a restore must
    // start decode-cold yet reproduce the straight-through output.
    let w = Knapsack { generations: 4, ..Knapsack::default() };
    let guest = w.build();
    let (golden, _) = straight_through(&guest, CpuKind::Atomic);

    let ckpt_with = |warm: bool| {
        let config = workload_machine_config(CpuKind::Atomic);
        let mut m = Machine::boot(config, &guest.program, NoopHooks).expect("boots");
        // Stepped, so the fast-forward warms the predecode cache this test
        // pins instead of running superblocks (the superblock axis has its
        // own byte-stability test below); the cold-decode reference empties
        // the cache before every step.
        step_to_checkpoint(&mut m, !warm);
        if warm {
            assert!(m.mem().stats().predecode.hits > 0, "cache must be warm at checkpoint time");
        }
        m.checkpoint()
    };
    let warm = ckpt_with(true);
    let cold = ckpt_with(false);
    assert_eq!(warm.to_bytes(), cold.to_bytes(), "cache state leaked into the v2 image");

    let mut m = Machine::restore(&warm, None, NoopHooks);
    assert_eq!(
        m.mem().stats().predecode,
        gemfi_isa::PredecodeStats::default(),
        "restore must start decode-cold"
    );
    let mut exit = m.run();
    while exit == RunExit::CheckpointRequest {
        exit = m.run();
    }
    assert_eq!(exit, RunExit::Halted(0));
    let out = m.mem().read_slice(guest.output_addr(), guest.output_len).unwrap();
    assert_eq!(out, golden.as_slice(), "warm-cache checkpoint diverged from straight-through");
}

#[test]
fn warm_superblock_cache_never_reaches_the_checkpoint_image() {
    // Same derived-state contract for the superblock translation cache: a
    // checkpoint from a machine that sprinted through warm superblocks must
    // serialize byte-identically to one that never translated a block: the
    // v2 image is byte-stable fast or stepped.
    let w = Knapsack { generations: 4, ..Knapsack::default() };
    let guest = w.build();
    let (golden, _) = straight_through(&guest, CpuKind::Atomic);

    let ckpt_with = |superblock: bool| {
        let config = workload_machine_config(CpuKind::Atomic);
        let mut m = Machine::boot(config, &guest.program, NoopHooks).expect("boots");
        if superblock {
            assert_eq!(m.run(), RunExit::CheckpointRequest);
            assert!(
                m.mem().stats().superblock.uops_executed > 0,
                "fast-forward must have run through superblocks"
            );
        } else {
            step_to_checkpoint(&mut m, false);
        }
        m.checkpoint()
    };
    let warm = ckpt_with(true);
    let cold = ckpt_with(false);
    assert_eq!(warm.to_bytes(), cold.to_bytes(), "superblock state leaked into the v2 image");

    let mut m = Machine::restore(&warm, None, NoopHooks);
    assert_eq!(
        m.mem().stats().superblock,
        gemfi_isa::SuperblockStats::default(),
        "restore must start translation-cold"
    );
    let mut exit = m.run();
    while exit == RunExit::CheckpointRequest {
        exit = m.run();
    }
    assert_eq!(exit, RunExit::Halted(0));
    let out = m.mem().read_slice(guest.output_addr(), guest.output_len).unwrap();
    assert_eq!(out, golden.as_slice(), "superblock checkpoint diverged from straight-through");
}

#[test]
fn in_process_restore_times_identically_to_a_byte_round_trip() {
    // The serialized image deliberately carries no cache tag/LRU state, so
    // an in-process restore must go cache-cold too — otherwise detailed
    // -model timing after a restore depends on *how the capturing machine
    // executed*. Superblock execution skips the hierarchy walk, so a warm
    // capture's tag state differs fast and stepped; all three restores
    // below must still finish at the identical tick (this pinned a real
    // 4-tick injection-record shift between `gemfi_run` runs with
    // superblocks on and off).
    let w = Knapsack { generations: 4, ..Knapsack::default() };
    let guest = w.build();

    let ckpt_with = |superblock: bool| {
        let config = workload_machine_config(CpuKind::Atomic);
        let mut m = Machine::boot(config, &guest.program, NoopHooks).expect("boots");
        if superblock {
            assert_eq!(m.run(), RunExit::CheckpointRequest);
        } else {
            step_to_checkpoint(&mut m, false);
        }
        m.checkpoint()
    };

    let drive = |c: &Checkpoint| {
        let mut m = Machine::restore(c, Some(CpuKind::O3), NoopHooks);
        assert_eq!(m.mem().stats().l1i.accesses(), 0, "restore must start cache-cold");
        let mut exit = m.run();
        while exit == RunExit::CheckpointRequest {
            exit = m.run();
        }
        assert_eq!(exit, RunExit::Halted(0));
        (m.instret(), m.tick())
    };

    let warm_sb = ckpt_with(true);
    let warm_stepped = ckpt_with(false);
    let round_tripped = Checkpoint::from_bytes(&warm_sb.to_bytes()).expect("decodes");

    let baseline = drive(&round_tripped);
    assert_eq!(drive(&warm_sb), baseline, "in-process restore timed unlike its own byte image");
    assert_eq!(drive(&warm_stepped), baseline, "restored timing depended on superblock execution");
}

#[test]
fn dirtied_restores_never_bleed_back_into_the_checkpoint() {
    // Copy-on-write sharing must be invisible: a machine restored from a
    // shared checkpoint dirties its pages freely, yet the checkpoint still
    // serializes byte-identically afterwards, and a second restore taken
    // *after* that dirtying checkpoints back to the very same image as one
    // taken before it.
    let w = Knapsack { generations: 4, ..Knapsack::default() };
    let guest = w.build();
    let ckpt = checkpoint_of(&guest);
    let original_bytes = ckpt.to_bytes();
    let fresh_image = Machine::restore(&ckpt, None, NoopHooks).checkpoint().to_bytes();

    // Dirty a restored machine's memory heavily: run the kernel to halt.
    let mut m = Machine::restore(&ckpt, None, NoopHooks);
    let mut exit = m.run();
    while exit == RunExit::CheckpointRequest {
        exit = m.run();
    }
    assert_eq!(exit, RunExit::Halted(0));

    assert_eq!(
        ckpt.to_bytes(),
        original_bytes,
        "running a restored machine mutated the shared checkpoint"
    );
    assert_eq!(
        Machine::restore(&ckpt, None, NoopHooks).checkpoint().to_bytes(),
        fresh_image,
        "a restore taken after fan-out must serialize like one taken before"
    );
}

#[test]
fn mid_run_capture_is_byte_identical_to_stop_and_capture() {
    // Capture-without-stopping must be a pure read: a snapshot taken at
    // tick T from a machine that keeps running serializes byte-identically
    // to one from a machine that ran to T and stopped there — and the
    // capturing machine's own run is unperturbed.
    let w = Knapsack { generations: 4, ..Knapsack::default() };
    let guest = w.build();
    let (golden, _) = straight_through(&guest, CpuKind::Atomic);

    let config = workload_machine_config(CpuKind::Atomic);
    let mut a = Machine::boot(config, &guest.program, NoopHooks).expect("boots");
    assert_eq!(a.run(), RunExit::CheckpointRequest);
    let target = a.tick() + 5_000;
    assert!(a.run_to_tick(target).is_none(), "kernel outlives the target");
    let mid = a.checkpoint();
    assert_eq!(mid.tick(), a.tick());

    // The capture had no side effects: the machine finishes the golden
    // run exactly as an uninterrupted one does.
    let mut exit = a.run();
    while exit == RunExit::CheckpointRequest {
        exit = a.run();
    }
    assert_eq!(exit, RunExit::Halted(0));
    let out = a.mem().read_slice(guest.output_addr(), guest.output_len).unwrap();
    assert_eq!(out, golden.as_slice(), "capture perturbed the run");

    // A second machine runs to the same tick and stops there: its image
    // must be byte-for-byte the one captured mid-run.
    let mut b = Machine::boot(config, &guest.program, NoopHooks).expect("boots");
    assert_eq!(b.run(), RunExit::CheckpointRequest);
    assert!(b.run_to_tick(target).is_none());
    assert_eq!(
        b.checkpoint().to_bytes(),
        mid.to_bytes(),
        "mid-run capture diverged from stop-and-capture"
    );
}

#[test]
fn one_checkpoint_spawns_many_identical_experiments() {
    // The Fig. 3 pattern: one checkpoint, many restores; every restore sees
    // the same world (the engine re-reads its own fault config per restore,
    // here the no-fault case).
    let w = Knapsack { generations: 4, ..Knapsack::default() };
    let guest = w.build();
    let ckpt = checkpoint_of(&guest);
    let mut outputs = Vec::new();
    for _ in 0..3 {
        let mut m = Machine::restore(&ckpt, Some(CpuKind::O3), NoopHooks);
        let mut exit = m.run();
        while exit == RunExit::CheckpointRequest {
            exit = m.run();
        }
        assert_eq!(exit, RunExit::Halted(0));
        outputs.push(m.mem().read_slice(guest.output_addr(), guest.output_len).unwrap());
    }
    assert!(outputs.windows(2).all(|w| w[0] == w[1]));
}
