//! The pipeline diagram, pinned: every [`InstTrace`] field and the
//! [`trace::render`] output of four short programs on the test port.
//!
//! Regenerate after an intentional timing change with
//! `UPDATE_GOLDEN=1 cargo test -p csb-cpu --test pipeline`.

use std::fmt::Write as _;

use csb_cpu::{trace, Cpu, CpuConfig, InstTrace, MemPort, SimpleMemPort};
use csb_isa::{Addr, AddressMap, AddressSpace, AluOp, Assembler, MemWidth, Reg};

const UNCACHED_BASE: u64 = 0x1000_0000;
const COMBINING_BASE: u64 = 0x2000_0000;

/// Runs `a` to `halt` on the default core with the pipeline trace on.
fn traced(a: Assembler) -> Cpu {
    let mut map = AddressMap::new();
    map.add_region(Addr::new(UNCACHED_BASE), 0x1000, AddressSpace::Uncached)
        .unwrap();
    map.add_region(
        Addr::new(COMBINING_BASE),
        0x1000,
        AddressSpace::UncachedCombining,
    )
    .unwrap();
    let mut port = SimpleMemPort::with_map(map, 5);
    port.write(Addr::new(UNCACHED_BASE + 8), 8, 0x55aa);
    let mut cpu = Cpu::new(CpuConfig::default(), a.assemble().unwrap());
    cpu.enable_trace();
    cpu.run(&mut port, 10_000).unwrap();
    cpu
}

/// The CSB sequence the `bus_trace` example draws: one 64-byte line of
/// combining stores, its conditional flush, and the retry check.
fn csb_line() -> Assembler {
    let mut a = Assembler::new();
    a.movi(Reg::L1, 0x5151_5151_5151_5151u64 as i64);
    a.mark(0);
    a.movi(Reg::O1, COMBINING_BASE as i64);
    let retry = a.new_label();
    a.bind(retry).unwrap();
    a.movi(Reg::L4, 8);
    for i in 0..8 {
        a.std(Reg::L1, Reg::O1, 8 * i);
    }
    a.swap(Reg::L4, Reg::O1, 0);
    a.cmpi(Reg::L4, 8);
    a.bnz(retry);
    a.mark(1);
    a.halt();
    a
}

/// A forward branch predicted not taken and taken: the work fetched past
/// it is squashed.
fn mispredict() -> Assembler {
    let mut a = Assembler::new();
    let skip = a.new_label();
    a.movi(Reg::L0, 1);
    a.cmpi(Reg::L0, 1);
    a.bz(skip);
    a.movi(Reg::L1, 99);
    a.alui(AluOp::Add, Reg::L2, Reg::L1, 1);
    a.movi(Reg::L3, 7);
    a.bind(skip).unwrap();
    a.alui(AluOp::Add, Reg::L4, Reg::L0, 2);
    a.halt();
    a
}

/// Two loads spend both agen units in the cycle a younger cached store's
/// address generation ends.
fn agen_contention() -> Assembler {
    let mut a = Assembler::new();
    a.movi(Reg::O0, 0x6000);
    a.movi(Reg::L0, 7);
    a.movi(Reg::O1, 0x6100);
    a.ld(Reg::L1, Reg::O1, 0, MemWidth::B8);
    a.ld(Reg::L2, Reg::O1, 8, MemWidth::B8);
    a.st(Reg::L0, Reg::O0, 0, MemWidth::B8);
    a.halt();
    a
}

/// A cached swap, a one-store conditional flush and an uncached load.
fn head_actions() -> Assembler {
    let mut a = Assembler::new();
    a.movi(Reg::O0, 0x5000);
    a.movi(Reg::O1, COMBINING_BASE as i64);
    a.movi(Reg::O2, UNCACHED_BASE as i64);
    a.movi(Reg::L0, 3);
    a.swap(Reg::L0, Reg::O0, 0);
    a.movi(Reg::L4, 1);
    a.std(Reg::L0, Reg::O1, 0);
    a.swap(Reg::L4, Reg::O1, 0);
    a.ld(Reg::L5, Reg::O2, 8, MemWidth::B8);
    a.alui(AluOp::Add, Reg::L6, Reg::L5, 1);
    a.halt();
    a
}

fn dump(out: &mut String, name: &str, cpu: &Cpu) {
    writeln!(out, "== {name}").unwrap();
    let traces: &[InstTrace] = cpu.trace();
    for t in traces {
        writeln!(out, "{t:?}").unwrap();
    }
    out.push_str(&trace::render(traces, 0, cpu.now()));
}

#[test]
fn pipeline_diagrams_match_golden() {
    let mut actual = String::new();
    for (name, program) in [
        ("csb line", csb_line()),
        ("mispredict", mispredict()),
        ("agen contention", agen_contention()),
        ("head actions", head_actions()),
    ] {
        dump(&mut actual, name, &traced(program));
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/pipeline.txt");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, &actual).expect("golden file writes");
        return;
    }
    let expected = std::fs::read_to_string(path).unwrap_or_else(|_| {
        panic!("{path} missing — run UPDATE_GOLDEN=1 cargo test -p csb-cpu --test pipeline")
    });
    for (i, (got, want)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(got, want, "pipeline golden line {} drifted", i + 1);
    }
    assert_eq!(actual.lines().count(), expected.lines().count());
}
