//! Property-based tests (proptest) on the core invariants.

use csb_bus::{BusConfig, SystemBus, Transaction};
use csb_core::{workloads, SimConfig, Simulator, COMBINING_BASE};
use csb_isa::Addr;
use csb_uncached::{
    decompose, ByteMask, ConditionalStoreBuffer, CsbConfig, FlushOutcome, UncachedBuffer,
    UncachedConfig,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Burst decomposition.
// ---------------------------------------------------------------------

proptest! {
    /// Decomposition covers exactly the set bytes, with naturally aligned
    /// power-of-two chunks that the bus accepts verbatim.
    #[test]
    fn decompose_exact_aligned_and_bus_legal(bits in any::<u64>(), cap_log in 3u32..=6) {
        let cap = 1usize << cap_log; // 8..=64
        let mut mask = ByteMask::empty();
        for i in 0..64 {
            if bits >> i & 1 == 1 {
                mask.set_range(i, 1);
            }
        }
        let chunks = decompose(mask, cap);
        let mut rebuilt = ByteMask::empty();
        let mut bus = SystemBus::new(
            BusConfig::multiplexed(8).max_burst(cap.max(8)).build().unwrap(),
        );
        let mut now = 0;
        for c in &chunks {
            prop_assert!(c.size.is_power_of_two());
            prop_assert!(c.size <= cap);
            prop_assert_eq!(c.offset % c.size, 0);
            prop_assert!(mask.covers(c.offset, c.size));
            rebuilt.set_range(c.offset, c.size);
            // The bus must accept every chunk as naturally aligned.
            now = bus.earliest_start(now);
            let issued = bus
                .try_issue(now, Transaction::write(Addr::new(0x1000 + c.offset as u64), c.size));
            prop_assert!(issued.is_ok());
            now += 1;
        }
        prop_assert_eq!(rebuilt, mask);
        // Coverage is disjoint: total chunk bytes == mask population.
        let total: usize = chunks.iter().map(|c| c.size).sum();
        prop_assert_eq!(total, mask.count());
    }

    /// Chunks are maximal-greedy: no two adjacent chunks could merge into a
    /// legal larger chunk.
    #[test]
    fn decompose_chunks_cannot_merge(bits in any::<u64>()) {
        let mut mask = ByteMask::empty();
        for i in 0..64 {
            if bits >> i & 1 == 1 {
                mask.set_range(i, 1);
            }
        }
        let chunks = decompose(mask, 64);
        for w in chunks.windows(2) {
            let (a, b) = (w[0], w[1]);
            if a.offset + a.size == b.offset && a.size == b.size {
                let merged = a.size * 2;
                // If the merge were aligned it would have been taken.
                prop_assert!(a.offset % merged != 0);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Uncached buffer: order and content preservation.
// ---------------------------------------------------------------------

proptest! {
    /// Any sequence of doubleword stores drained through the buffer yields
    /// a last-write-wins image identical to executing them directly, for
    /// every combining block size.
    #[test]
    fn uncached_buffer_preserves_memory_image(
        offsets in proptest::collection::vec(0u64..32, 1..20),
        block_log in 3u32..=6,
    ) {
        let block = 1usize << block_log;
        let mut buf = UncachedBuffer::new(UncachedConfig { capacity: 64, ..UncachedConfig::with_block(block) }).unwrap();
        let mut reference = vec![0u8; 32 * 8];
        for (n, &slot) in offsets.iter().enumerate() {
            let value = (n as u64 + 1) * 0x0101_0101_0101_0101;
            let addr = Addr::new(0x1000 + slot * 8);
            buf.push_store(addr, &value.to_le_bytes());
            reference[slot as usize * 8..slot as usize * 8 + 8]
                .copy_from_slice(&value.to_le_bytes());
        }
        let mut image = vec![0u8; 32 * 8];
        while let Some(pt) = buf.peek_transaction() {
            let start = (pt.txn.addr.raw() - 0x1000) as usize;
            image[start..start + pt.txn.size].copy_from_slice(&pt.data);
            buf.transaction_accepted();
        }
        prop_assert!(buf.is_empty());
        // Bytes ever stored must match; untouched bytes are zero in both.
        prop_assert_eq!(image, reference);
    }
}

// ---------------------------------------------------------------------
// CSB: conflict detection and atomicity.
// ---------------------------------------------------------------------

proptest! {
    /// A flush succeeds iff (line, pid, count) all match what the buffer
    /// accumulated without interference.
    #[test]
    fn csb_flush_success_iff_uninterrupted(
        n in 1usize..=8,
        expected in 0u64..=10,
        intruder in proptest::bool::ANY,
        wrong_line in proptest::bool::ANY,
    ) {
        let mut csb = ConditionalStoreBuffer::new(CsbConfig::new(64)).unwrap();
        let line = Addr::new(0x2000);
        for i in 0..n {
            csb.store(1, line.offset(8 * i as i64), &(i as u64).to_le_bytes()).unwrap();
        }
        if intruder {
            // A competing process's store clears the buffer.
            csb.store(2, line, &7u64.to_le_bytes()).unwrap();
        }
        let flush_addr = if wrong_line { Addr::new(0x4000) } else { line };
        let out = csb.conditional_flush(1, flush_addr, expected);
        let should_succeed = !intruder && !wrong_line && expected == n as u64;
        prop_assert_eq!(out == FlushOutcome::Success, should_succeed);
        // Failure must clear: a following flush with any parameters fails.
        if !should_succeed {
            prop_assert_eq!(csb.conditional_flush(1, line, expected), FlushOutcome::Fail);
        }
    }

    /// Whatever subset of a line is stored, a successful flush emits one
    /// full-line burst whose payload equals the stored byte count and whose
    /// padding is zero.
    #[test]
    fn csb_burst_payload_and_padding(slots in proptest::collection::vec(0i64..8, 1..=8)) {
        let mut csb = ConditionalStoreBuffer::new(CsbConfig::new(64)).unwrap();
        let line = Addr::new(0x2000);
        let mut touched = [false; 8];
        for &s in &slots {
            csb.store(1, line.offset(8 * s), &0xffff_ffff_ffff_ffffu64.to_le_bytes()).unwrap();
            touched[s as usize] = true;
        }
        let out = csb.conditional_flush(1, line, slots.len() as u64);
        prop_assert_eq!(out, FlushOutcome::Success);
        let pt = csb.transaction_accepted();
        prop_assert_eq!(pt.txn.size, 64);
        let expected_payload = touched.iter().filter(|&&t| t).count() * 8;
        prop_assert_eq!(pt.txn.payload, expected_payload);
        for (i, &t) in touched.iter().enumerate() {
            let chunk = &pt.data[8 * i..8 * i + 8];
            if t {
                prop_assert!(chunk.iter().all(|&b| b == 0xff));
            } else {
                prop_assert!(chunk.iter().all(|&b| b == 0), "padding must be zeroed");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Full-simulator properties (fewer cases; each runs a whole machine).
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A CSB sequence of any legal length commits exactly once with the
    /// right payload, whatever the ratio.
    #[test]
    fn simulated_csb_commits_exactly_once(n in 1usize..=8, ratio in 2u64..=10) {
        let cfg = SimConfig::default().frequency_ratio(ratio);
        let program = workloads::csb_sequence(n, &cfg).unwrap();
        let mut sim = Simulator::new(cfg, program).unwrap();
        let s = sim.run(10_000_000).unwrap();
        prop_assert_eq!(s.csb.flush_successes, 1);
        prop_assert_eq!(s.bus.transactions, 1);
        prop_assert_eq!(s.bus.payload_bytes, 8 * n as u64);
        prop_assert_eq!(sim.device().len(), 1);
        prop_assert_eq!(sim.device().writes()[0].addr, Addr::new(COMBINING_BASE));
    }

    /// CSB store bandwidth is non-decreasing in the transfer size on the
    /// default machine (the full-line burst cost amortizes).
    #[test]
    fn csb_bandwidth_monotone(step in 1usize..=6) {
        let cfg = SimConfig::default();
        let small = 16usize << (step - 1);
        let large = 16usize << step;
        let bw_small = csb_core::experiments::bandwidth_point(
            &cfg, small, csb_core::experiments::Scheme::Csb).unwrap();
        let bw_large = csb_core::experiments::bandwidth_point(
            &cfg, large, csb_core::experiments::Scheme::Csb).unwrap();
        prop_assert!(bw_large + 1e-9 >= bw_small,
            "CSB bandwidth fell from {bw_small} ({small}B) to {bw_large} ({large}B)");
    }

    /// Exactly-once under random slicing: with two processes retrying CSB
    /// sequences, the device sees exactly one burst per successful flush
    /// and every burst is internally uniform.
    #[test]
    fn sliced_processes_stay_atomic(slice in 30u64..200) {
        let cfg = SimConfig::default();
        let programs = vec![
            workloads::csb_worker(3, 8, 0, &cfg).unwrap(),
            workloads::csb_worker(3, 8, 1, &cfg).unwrap(),
        ];
        let mut ms = csb_core::multiproc::MultiSim::new(
            cfg, programs, csb_core::multiproc::SwitchPolicy::Fixed(slice)).unwrap();
        let s = ms.run(50_000_000).unwrap();
        prop_assert_eq!(s.flush_successes, 6);
        prop_assert_eq!(ms.simulator().device().len(), 6);
    }
}

// ---------------------------------------------------------------------
// Bus invariants under random traffic.
// ---------------------------------------------------------------------

proptest! {
    /// However transactions are offered, the bus never overlaps them, honors
    /// the turnaround and address-delay windows, and its statistics add up.
    #[test]
    fn bus_never_overlaps_and_stats_add_up(
        sizes in proptest::collection::vec(0u32..4, 1..40),
        turnaround in 0u64..2,
        delay in prop_oneof![Just(0u64), Just(4), Just(8)],
        jitter in proptest::collection::vec(0u64..5, 1..40),
    ) {
        let cfg = BusConfig::multiplexed(8)
            .max_burst(64)
            .turnaround(turnaround)
            .min_addr_delay(delay)
            .build()
            .unwrap();
        let mut bus = SystemBus::new(cfg);
        // Every receipt `try_issue` returned, with its transfer size.
        let mut issued_txns = Vec::new();
        let mut now = 0u64;
        for (i, (&sz, &j)) in sizes.iter().zip(jitter.iter().cycle()).enumerate() {
            let size = 8usize << sz; // 8..64
            let addr = Addr::new((i as u64) * 64); // always naturally aligned
            now = bus.earliest_start(now) + j;
            now = bus.earliest_start(now);
            let issued = bus
                .try_issue(now, Transaction::write(addr, size))
                .unwrap()
                .expect("earliest_start said this cycle is free");
            now = issued.completes_at + 1;
            issued_txns.push((issued, size));
        }
        for w in issued_txns.windows(2) {
            let ((a, _), (b, _)) = (w[0], w[1]);
            prop_assert!(
                b.addr_cycle > a.completes_at + turnaround
                    || b.addr_cycle >= a.completes_at + 1 + turnaround,
                "transactions overlap or violate turnaround: {w:?}"
            );
            prop_assert!(
                b.addr_cycle >= a.addr_cycle + delay,
                "address spacing violated: {w:?}"
            );
        }
        let stats = bus.stats();
        let total: u64 = issued_txns
            .iter()
            .map(|(e, _)| e.completes_at - e.addr_cycle + 1)
            .sum();
        prop_assert_eq!(stats.busy_cycles, total);
        prop_assert_eq!(stats.transactions as usize, issued_txns.len());
        let bytes: u64 = issued_txns.iter().map(|&(_, size)| size as u64).sum();
        prop_assert_eq!(stats.bytes_on_bus, bytes);
    }

    /// The background-traffic arbiter converges to its configured
    /// utilization over a long uniform stream.
    #[test]
    fn background_utilization_converges(percent in 10u32..=60) {
        let u = percent as f64 / 100.0;
        let cfg = BusConfig::multiplexed(8)
            .max_burst(64)
            .background(u, 8)
            .build()
            .unwrap();
        let mut bus = SystemBus::new(cfg);
        let mut now = 0u64;
        for i in 0..400u64 {
            now = bus.earliest_start(now);
            let issued = bus
                .try_issue(now, Transaction::write(Addr::new(i * 8), 8))
                .unwrap()
                .unwrap();
            now = issued.completes_at + 1;
        }
        let s = bus.stats();
        let total = s.busy_cycles + s.foreign_cycles;
        let measured = s.foreign_cycles as f64 / total as f64;
        prop_assert!(
            (measured - u).abs() < 0.05,
            "asked {u}, measured {measured}"
        );
    }
}

// ---------------------------------------------------------------------
// Text decoders: hostile input is an error, never a panic.
// ---------------------------------------------------------------------

/// Characters that steer the ledger and assembler parsers into their edge
/// cases: brackets, quotes, escapes, signs, exponents, register sigils, and
/// multi-byte characters where the parsers slice text by bytes.
const HOSTILE: &[char] = &[
    '[', ']', '{', '}', '"', '\\', ',', ':', '-', '+', '%', '!', '.', 'e', 'E', '0', '1', '9', 'x',
    'u', 'g', 'l', 'o', 'r', 'f', ' ', '\n', 'é', '€', '𝄞',
];

/// Characters to draw: a hostile one by index, or any code point.
type Picks = Vec<(bool, u32)>;

/// A span of up to `len % 8` characters at `at`, replaced by `repeat %
/// 64` copies of the drawn text.
type Edit = (u64, u8, u8, Picks);

/// A string drawn from `picks`: a hostile character, or any code point.
fn text_of(picks: &[(bool, u32)]) -> String {
    picks
        .iter()
        .map(|&(hostile, c)| {
            if hostile {
                HOSTILE[c as usize % HOSTILE.len()]
            } else {
                char::from_u32(c % 0x11_0000).unwrap_or('\u{fffd}')
            }
        })
        .collect()
}

/// `base` with each edit applied in turn (`at` taken modulo the current
/// length), so edits cut, insert, and nest.
fn mutate(base: &str, edits: &[Edit]) -> String {
    let mut chars: Vec<char> = base.chars().collect();
    for (at, len, repeat, picks) in edits {
        let start = (*at % (chars.len() as u64 + 1)) as usize;
        let end = (start + usize::from(*len % 8)).min(chars.len());
        let insert: Vec<char> = text_of(picks)
            .repeat(usize::from(*repeat % 64))
            .chars()
            .collect();
        chars.splice(start..end, insert);
    }
    chars.into_iter().collect()
}

fn picks() -> impl Strategy<Value = Picks> {
    proptest::collection::vec((any::<bool>(), any::<u32>()), 0..24)
}

fn edits() -> impl Strategy<Value = Vec<Edit>> {
    proptest::collection::vec((any::<u64>(), any::<u8>(), any::<u8>(), picks()), 1..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary text and mutated ledger lines parse to `Ok` or `Err`.
    #[test]
    fn ledger_lines_never_panic(line in 0usize..4096, edits in edits(), free in picks()) {
        let baseline = include_str!("../results/ledger_baseline.jsonl");
        let lines: Vec<&str> = baseline.lines().collect();
        let mutated = mutate(lines[line % lines.len()], &edits);
        let _ = csb_obs::parse_ledger(&mutated);
        let _ = serde_json::parse_value(&mutated);
        let _ = csb_obs::parse_ledger(&text_of(&free));
    }

    /// Arbitrary text and mutated lines of the paper's kernel assemble to
    /// `Ok` or `Err`.
    #[test]
    fn assembly_text_never_panics(edits in edits(), free in picks()) {
        let kernel = include_str!("../asm/csb_kernel.s");
        let _ = csb_isa::parse_asm(&mutate(kernel, &edits));
        let _ = csb_isa::parse_asm(&text_of(&free));
    }
}
