//! Cross-crate integration tests: whole programs through the full machine
//! (core + caches + uncached buffer + CSB + bus + device).

use csb_core::{multiproc, workloads, SimConfig, Simulator, COMBINING_BASE, UNCACHED_BASE};
use csb_isa::{Addr, Assembler, MemWidth, Program, Reg};

fn assemble(f: impl FnOnce(&mut Assembler)) -> Program {
    let mut a = Assembler::new();
    f(&mut a);
    a.assemble().expect("test program assembles")
}

#[test]
fn csb_line_delivered_atomically_with_exact_data() {
    let program = assemble(|a| {
        let retry = a.new_label();
        a.movi(Reg::O1, COMBINING_BASE as i64);
        a.bind(retry).unwrap();
        a.movi(Reg::L4, 8);
        for i in 0..8 {
            a.movi(Reg::L0, 0xa0 + i);
            a.std(Reg::L0, Reg::O1, 8 * i);
        }
        a.swap(Reg::L4, Reg::O1, 0);
        a.cmpi(Reg::L4, 8);
        a.bnz(retry);
        a.halt();
    });
    let mut sim = Simulator::new(SimConfig::default(), program).unwrap();
    sim.run(1_000_000).unwrap();

    let device = sim.device();
    assert_eq!(device.len(), 1, "exactly one burst must arrive");
    let w = &device.writes()[0];
    assert_eq!(w.addr, Addr::new(COMBINING_BASE));
    assert_eq!(w.data.len(), 64);
    for i in 0..8u64 {
        let dw = u64::from_le_bytes(
            w.data[8 * i as usize..8 * i as usize + 8]
                .try_into()
                .unwrap(),
        );
        assert_eq!(dw, 0xa0 + i);
    }
}

#[test]
fn non_combining_stores_arrive_in_order_one_txn_each() {
    let program = assemble(|a| {
        a.movi(Reg::O1, UNCACHED_BASE as i64);
        for i in 0..10 {
            a.movi(Reg::L0, 0x100 + i);
            a.std(Reg::L0, Reg::O1, 8 * i);
        }
        a.halt();
    });
    let mut sim = Simulator::new(SimConfig::default(), program).unwrap();
    let s = sim.run(1_000_000).unwrap();
    assert_eq!(s.bus.transactions, 10);
    let device = sim.device();
    assert_eq!(device.len(), 10);
    for (i, w) in device.writes().iter().enumerate() {
        assert_eq!(w.addr, Addr::new(UNCACHED_BASE + 8 * i as u64));
        assert_eq!(w.data.len(), 8);
        let dw = u64::from_le_bytes(w.data[..8].try_into().unwrap());
        assert_eq!(dw, 0x100 + i as u64);
    }
}

#[test]
fn combining_buffer_reduces_transactions_but_preserves_bytes() {
    let build = || {
        assemble(|a| {
            a.movi(Reg::O1, UNCACHED_BASE as i64);
            a.movi(Reg::L0, 0x42);
            for i in 0..32 {
                a.std(Reg::L0, Reg::O1, 8 * i);
            }
            a.halt();
        })
    };
    let mut none = Simulator::new(SimConfig::default().combining_block(8), build()).unwrap();
    let mut full = Simulator::new(SimConfig::default().combining_block(64), build()).unwrap();
    let sn = none.run(1_000_000).unwrap();
    let sf = full.run(1_000_000).unwrap();
    assert_eq!(sn.bus.payload_bytes, 256);
    assert_eq!(sf.bus.payload_bytes, 256);
    assert!(
        sf.bus.transactions < sn.bus.transactions,
        "combining must merge transactions: {} vs {}",
        sf.bus.transactions,
        sn.bus.transactions
    );
    // Same final device image either way.
    assert_eq!(
        none.device().bytes_at(Addr::new(UNCACHED_BASE), 256),
        full.device().bytes_at(Addr::new(UNCACHED_BASE), 256)
    );
}

#[test]
fn computed_values_flow_from_cached_memory_to_device() {
    // Compute in registers/cached memory, then transmit via the CSB:
    // the device must see the derived values.
    let program = assemble(|a| {
        let retry = a.new_label();
        a.movi(Reg::O0, 0x4000); // cached scratch
        a.movi(Reg::O1, COMBINING_BASE as i64);
        a.movi(Reg::L0, 21);
        a.alui(csb_isa::AluOp::Add, Reg::L0, Reg::L0, 21); // 42
        a.st(Reg::L0, Reg::O0, 0, MemWidth::B8); // to cached memory
        a.ld(Reg::L2, Reg::O0, 0, MemWidth::B8); // back from cache
        a.alui(csb_isa::AluOp::Sll, Reg::L3, Reg::L2, 1); // 84
        a.bind(retry).unwrap();
        a.movi(Reg::L4, 2);
        a.std(Reg::L2, Reg::O1, 0);
        a.std(Reg::L3, Reg::O1, 8);
        a.swap(Reg::L4, Reg::O1, 0);
        a.cmpi(Reg::L4, 2);
        a.bnz(retry);
        a.halt();
    });
    let mut sim = Simulator::new(SimConfig::default(), program).unwrap();
    sim.run(1_000_000).unwrap();
    let w = &sim.device().writes()[0];
    assert_eq!(u64::from_le_bytes(w.data[0..8].try_into().unwrap()), 42);
    assert_eq!(u64::from_le_bytes(w.data[8..16].try_into().unwrap()), 84);
    assert_eq!(w.payload, 16);
    assert!(w.data[16..].iter().all(|&b| b == 0), "padding must be zero");
}

#[test]
fn multi_line_csb_message_arrives_in_line_order() {
    let cfg = SimConfig::default();
    let program = workloads::store_bandwidth(256, &cfg, workloads::StorePath::Csb).unwrap();
    let mut sim = Simulator::new(cfg, program).unwrap();
    let s = sim.run(1_000_000).unwrap();
    assert_eq!(s.bus.transactions, 4);
    let device = sim.device();
    assert_eq!(device.len(), 4);
    for (i, w) in device.writes().iter().enumerate() {
        assert_eq!(w.addr, Addr::new(COMBINING_BASE + 64 * i as u64));
        assert_eq!(w.payload, 64);
    }
    assert_eq!(s.csb.flush_successes, 4);
    assert_eq!(s.csb.flush_failures, 0);
}

#[test]
fn conflicting_processes_never_interleave_within_a_burst() {
    // Two processes hammer the SAME combining line with distinct fill
    // patterns under aggressive time slicing. The CSB guarantee: every
    // delivered burst contains stores of exactly one process (atomicity),
    // and each completed sequence is delivered exactly once.
    let worker = |pattern: u64| {
        assemble(|a| {
            a.movi(Reg::O1, COMBINING_BASE as i64);
            a.movi(Reg::L1, pattern as i64);
            a.movi(Reg::L5, 4); // iterations
            let outer = a.new_label();
            a.bind(outer).unwrap();
            let retry = a.new_label();
            a.bind(retry).unwrap();
            a.movi(Reg::L4, 8);
            for i in 0..8 {
                a.std(Reg::L1, Reg::O1, 8 * i);
            }
            a.swap(Reg::L4, Reg::O1, 0);
            a.cmpi(Reg::L4, 8);
            a.bnz(retry);
            a.alui(csb_isa::AluOp::Sub, Reg::L5, Reg::L5, 1);
            a.cmpi(Reg::L5, 0);
            a.bnz(outer);
            a.halt();
        })
    };
    let cfg = SimConfig::default();
    let programs = vec![worker(0x1111_1111_1111_1111), worker(0x2222_2222_2222_2222)];
    let mut ms =
        multiproc::MultiSim::new(cfg, programs, multiproc::SwitchPolicy::Fixed(45)).unwrap();
    let summary = ms.run(50_000_000).unwrap();

    assert_eq!(summary.flush_successes, 8, "4 sequences per process");
    assert!(summary.flush_failures > 0, "slicing must induce conflicts");

    let device = ms.simulator().device();
    assert_eq!(device.len(), 8, "exactly one burst per successful flush");
    for w in device.writes() {
        let first: [u8; 8] = w.data[0..8].try_into().unwrap();
        assert!(
            w.data.chunks(8).all(|c| c == first),
            "burst mixes data from two processes: {:x?}",
            w.data
        );
        assert!(
            first == 0x1111_1111_1111_1111u64.to_le_bytes()
                || first == 0x2222_2222_2222_2222u64.to_le_bytes()
        );
    }
}

#[test]
fn uncached_loads_round_trip_against_device_window() {
    let program = assemble(|a| {
        a.movi(Reg::O1, UNCACHED_BASE as i64);
        a.movi(Reg::L0, 0x77);
        a.std(Reg::L0, Reg::O1, 0); // store status
        a.ld(Reg::L2, Reg::O1, 0, MemWidth::B8); // read it back uncached
        a.alui(csb_isa::AluOp::Add, Reg::L3, Reg::L2, 1);
        a.halt();
    });
    let mut sim = Simulator::new(SimConfig::default(), program).unwrap();
    let s = sim.run(1_000_000).unwrap();
    assert_eq!(sim.cpu().context().int_reg(Reg::L3), 0x78);
    assert_eq!(s.bus.transactions, 2); // one write, one read
    assert_eq!(s.cpu.uncached_ops, 2);
}

#[test]
fn lock_sequence_end_to_end_releases_lock() {
    let program = workloads::lock_sequence(4).unwrap();
    let mut sim = Simulator::new(SimConfig::default(), program).unwrap();
    sim.warm_line(Addr::new(csb_core::LOCK_ADDR));
    let s = sim.run(1_000_000).unwrap();
    // Four uncached dword stores crossed the bus.
    assert_eq!(s.bus.payload_bytes, 32);
    // Lock is free again.
    assert_eq!(sim.memory_mut().read(Addr::new(csb_core::LOCK_ADDR), 8), 0);
    // And the membar actually waited.
    assert!(s.cpu.membar_stall_cycles > 0);
}

#[test]
fn different_ratios_scale_wall_clock_but_not_bus_window() {
    // The same non-combining workload at ratios 3 and 9: bytes/bus-cycle is
    // ratio-independent (4 B/c), while CPU cycles scale with the ratio.
    let cfg3 = SimConfig::default().frequency_ratio(3);
    let cfg9 = SimConfig::default().frequency_ratio(9);
    let p3 = workloads::store_bandwidth(512, &cfg3, workloads::StorePath::Uncached).unwrap();
    let p9 = workloads::store_bandwidth(512, &cfg9, workloads::StorePath::Uncached).unwrap();
    let s3 = Simulator::new(cfg3, p3).unwrap().run(10_000_000).unwrap();
    let s9 = Simulator::new(cfg9, p9).unwrap().run(10_000_000).unwrap();
    assert!((s3.bus.effective_bandwidth() - 4.0).abs() < 0.1);
    assert!((s9.bus.effective_bandwidth() - 4.0).abs() < 0.1);
    assert!(
        s9.cycles > s3.cycles * 2,
        "ratio 9 must cost ~3x the CPU cycles"
    );
}

#[test]
fn double_buffered_csb_overlaps_flush_with_next_sequence() {
    let cfg_single = SimConfig::default();
    let cfg_double = SimConfig::default().csb_double_buffered();
    let p1 = workloads::store_bandwidth(1024, &cfg_single, workloads::StorePath::Csb).unwrap();
    let p2 = workloads::store_bandwidth(1024, &cfg_double, workloads::StorePath::Csb).unwrap();
    let s1 = Simulator::new(cfg_single, p1)
        .unwrap()
        .run(10_000_000)
        .unwrap();
    let s2 = Simulator::new(cfg_double, p2)
        .unwrap()
        .run(10_000_000)
        .unwrap();
    assert_eq!(s1.bus.transactions, 16);
    assert_eq!(s2.bus.transactions, 16);
    assert!(
        s2.cycles <= s1.cycles,
        "double buffering must not be slower: {} vs {}",
        s2.cycles,
        s1.cycles
    );
}

#[test]
fn variable_burst_csb_sends_exact_bytes() {
    let cfg = SimConfig::default().csb_variable_burst();
    // 24 bytes: variable burst sends 16B + 8B instead of one padded line.
    let program = workloads::store_bandwidth(24, &cfg, workloads::StorePath::Csb).unwrap();
    let mut sim = Simulator::new(cfg, program).unwrap();
    let s = sim.run(1_000_000).unwrap();
    assert_eq!(s.bus.transactions, 2);
    assert_eq!(s.bus.bytes_on_bus, 24);
    assert_eq!(s.bus.payload_bytes, 24);
    let sizes: Vec<usize> = sim.device().writes().iter().map(|w| w.data.len()).collect();
    assert_eq!(sizes, vec![16, 8]);
}

#[test]
fn simulation_is_deterministic() {
    // Identical configuration and program produce bit-identical summaries —
    // the property that makes every figure in EXPERIMENTS.md reproducible.
    let run = || {
        let cfg = SimConfig::default();
        let program = workloads::store_bandwidth(512, &cfg, workloads::StorePath::Csb).unwrap();
        let mut sim = Simulator::new(cfg, program).unwrap();
        let s = sim.run(10_000_000).unwrap();
        (s, sim.device().writes().to_vec())
    };
    let (s1, d1) = run();
    let (s2, d2) = run();
    assert_eq!(s1, s2);
    assert_eq!(d1, d2);
}

#[test]
fn fallback_workload_prefers_csb_when_unconflicted() {
    // Without competitors the retry budget is never touched: the access
    // commits through the CSB and the lock path is dead code.
    let cfg = SimConfig::default();
    let program = workloads::csb_sequence_with_fallback(8, 3, &cfg).unwrap();
    let mut sim = Simulator::new(cfg, program).unwrap();
    let s = sim.run(1_000_000).unwrap();
    assert_eq!(s.csb.flush_successes, 1);
    assert_eq!(s.csb.flush_failures, 0);
    assert_eq!(s.bus.transactions, 1, "one line burst, no lock traffic");
    assert_eq!(
        sim.memory_mut()
            .read(csb_isa::Addr::new(csb_core::LOCK_ADDR), 8),
        0
    );
}

/// The headline end-to-end claim: without synchronization, two processes'
/// programmed-I/O stores tear each other's frames at the NI; through the
/// CSB every frame arrives intact, with no lock anywhere.
#[test]
fn nic_frames_torn_without_csb_but_never_with_it() {
    use csb_nic::{encode_header, Nic, NicConfig};

    // Both processes send 4 messages of 3 payload dwords to NI slot 0.
    // `to_csb` picks the store path; the kernels are otherwise identical.
    let sender = |pid: u16, to_csb: bool| {
        assemble(|a| {
            let window = if to_csb {
                COMBINING_BASE
            } else {
                UNCACHED_BASE
            };
            a.movi(Reg::O1, window as i64);
            a.movi(Reg::L1, 0x1000 + pid as i64); // recognizable payload
            a.movi(Reg::L5, 4); // messages
            let outer = a.new_label();
            a.bind(outer).unwrap();
            let retry = a.new_label();
            a.bind(retry).unwrap();
            a.movi(Reg::L2, encode_header(24, 0, pid) as i64);
            a.movi(Reg::L4, 4); // header + 3 payload dwords
            a.std(Reg::L2, Reg::O1, 0);
            for i in 0..3 {
                a.std(Reg::L1, Reg::O1, 8 * (i + 1));
            }
            if to_csb {
                a.swap(Reg::L4, Reg::O1, 0);
                a.cmpi(Reg::L4, 4);
                a.bnz(retry);
            }
            a.alui(csb_isa::AluOp::Sub, Reg::L5, Reg::L5, 1);
            a.cmpi(Reg::L5, 0);
            a.bnz(outer);
            a.halt();
        })
    };

    let run = |to_csb: bool| {
        let cfg = SimConfig::default();
        let programs = vec![sender(1, to_csb), sender(2, to_csb)];
        let mut ms =
            multiproc::MultiSim::new(cfg, programs, multiproc::SwitchPolicy::Fixed(40)).unwrap();
        ms.run(50_000_000).unwrap();
        let mut nic = Nic::new(NicConfig::default()).unwrap();
        let base = if to_csb {
            COMBINING_BASE
        } else {
            UNCACHED_BASE
        };
        for w in ms.simulator().device().writes() {
            if let Some(offset) = w.addr.raw().checked_sub(base) {
                nic.ingest_bytes(offset, &w.data, w.bus_cycle);
            }
        }
        nic
    };

    // Unsynchronized plain-uncached senders: slicing interleaves their
    // single-beat stores in the shared slot, producing corrupt frames —
    // either torn (header over incomplete message) or payload mixed from
    // both senders.
    let nic = run(false);
    let intact = nic
        .messages()
        .iter()
        .filter(|m| {
            let expect = (0x1000u64 + m.sender as u64).to_le_bytes();
            m.payload.chunks(8).all(|c| c == expect)
        })
        .count();
    let corrupted = nic.stats().torn_frames as usize + (nic.messages().len() - intact);
    assert!(
        corrupted > 0,
        "interleaved PIO must corrupt frames (torn {}, mixed {})",
        nic.stats().torn_frames,
        nic.messages().len() - intact
    );

    // CSB senders: every frame is one atomic line burst.
    let nic = run(true);
    assert_eq!(nic.stats().torn_frames, 0);
    assert_eq!(nic.messages().len(), 8);
    for m in nic.messages() {
        let expect = (0x1000u64 + m.sender as u64).to_le_bytes();
        assert!(
            m.payload.chunks(8).all(|c| c == expect),
            "CSB frame must be intact"
        );
        assert_eq!(m.payload.len(), 24);
    }
}

#[test]
fn random_mixed_workloads_complete_cleanly() {
    // Fuzz-style stress: random but valid instruction mixes must always
    // complete, drain, and commit every CSB sequence on the first try
    // (single process = no conflicts), across machine variants.
    for seed in 0..6u64 {
        let cfg = match seed % 3 {
            0 => SimConfig::default(),
            1 => SimConfig::default().frequency_ratio(3).combining_block(64),
            _ => SimConfig::default().line_size(32),
        };
        let program = workloads::random_mixed(seed, workloads::RandomMix::default(), &cfg).unwrap();
        let mut sim = Simulator::new(cfg, program).unwrap();
        let s = sim
            .run(20_000_000)
            .unwrap_or_else(|e| panic!("seed {seed} failed: {e}"));
        assert_eq!(
            s.csb.flush_failures, 0,
            "seed {seed}: unconflicted flushes must succeed"
        );
        assert!(s.bus.transactions > 0, "seed {seed}: traffic expected");
        assert!(sim.complete());
    }
}

#[test]
fn random_workload_is_deterministic_per_seed() {
    let cfg = SimConfig::default();
    let p1 = workloads::random_mixed(42, workloads::RandomMix::default(), &cfg).unwrap();
    let p2 = workloads::random_mixed(42, workloads::RandomMix::default(), &cfg).unwrap();
    assert_eq!(p1, p2);
    let p3 = workloads::random_mixed(43, workloads::RandomMix::default(), &cfg).unwrap();
    assert_ne!(p1, p3);
}

#[test]
fn papers_literal_assembly_runs_end_to_end() {
    // The exact kernel from the paper's §3.2 listing (with setup and halt),
    // assembled from text and run through the whole machine.
    let source = format!(
        r"
            set {COMBINING_BASE}, %o1
            fset 0x4045000000000000, %f0   ! 42.0
            fset 0x4049000000000000, %f10  ! 50.0
            fset 0x404c800000000000, %f12  ! 57.0
        .RETRY:
            set 8, %l4          ! expected value
            std %f0, [%o1]
            std %f10, [%o1+40]
            std %f0, [%o1+16]
            std %f10, [%o1+24]
            std %f12, [%o1+32]
            std %f0, [%o1+48]
            std %f10, [%o1+56]
            std %f12, [%o1+8]
            swap [%o1], %l4     ! conditional flush
            cmp %l4, 8          ! compare values
            bnz .RETRY          ! retry on failure
            halt
        "
    );
    let program = csb_isa::parse_asm(&source).unwrap();
    let mut sim = Simulator::new(SimConfig::default(), program).unwrap();
    let s = sim.run(1_000_000).unwrap();
    assert_eq!(s.csb.flush_successes, 1);
    assert_eq!(s.bus.transactions, 1);
    let w = &sim.device().writes()[0];
    assert_eq!(w.payload, 64);
    let dw = |i: usize| {
        f64::from_bits(u64::from_le_bytes(
            w.data[8 * i..8 * i + 8].try_into().unwrap(),
        ))
    };
    assert_eq!(dw(0), 42.0);
    assert_eq!(dw(5), 50.0);
    assert_eq!(dw(1), 57.0);
}
