//! Microbenchmarks of the simulator substrate: cache and TLB model
//! throughput, and raw interpreter speed on a hot loop. These bound
//! how fast every other experiment can run.

use criterion::{criterion_group, criterion_main, BenchmarkGroup, Criterion};
use std::hint::black_box;

use simsparc_isa::{trap, AluOp, Cond, Insn, Operand, Reg};
use simsparc_machine::{
    CacheConfig, Image, Machine, MachineConfig, NullHook, SetAssocCache, Tlb, TlbConfig, DATA_BASE,
    TEXT_BASE,
};

fn bench_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("machine_micro");

    group.bench_function("dcache_hit_stream", |b| {
        let mut cache = SetAssocCache::new(CacheConfig {
            bytes: 64 * 1024,
            ways: 4,
            line_bytes: 32,
        });
        // Warm a small set.
        for i in 0..64u64 {
            cache.access(i * 32);
        }
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 64;
            black_box(cache.access(i * 32))
        })
    });

    group.bench_function("ecache_miss_stream", |b| {
        let mut cache = SetAssocCache::new(CacheConfig {
            bytes: 128 * 1024,
            ways: 2,
            line_bytes: 512,
        });
        let mut addr = 0u64;
        b.iter(|| {
            addr = addr.wrapping_add(512 * 7919);
            black_box(cache.access(addr % (1 << 30)))
        })
    });

    group.bench_function("tlb_mixed_pages", |b| {
        let mut tlb = Tlb::new(TlbConfig {
            entries: 64,
            ways: 2,
        });
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(0x3fb5);
            let heap = i.is_multiple_of(2);
            let page = if heap { 512 * 1024 } else { 8 * 1024 };
            black_box(tlb.access(0x4000_0000 + (i * 8192) % (1 << 26), page))
        })
    });

    // Interpreter throughput: a tight ALU loop (no memory). The loop
    // bound is `sethi`-loaded (a 13-bit immediate caps at 4095), so a
    // run retires about 1M instructions and interpretation, not
    // `Machine::new`, dominates each sample.
    let alu_loop = Image {
        text: vec![
            Insn::mov(Operand::Imm(0), Reg::O0),
            // %g4 = 122 << 11 = 249_856 iterations of 4 instructions.
            Insn::Sethi {
                imm21: 122,
                rd: Reg::G4,
            },
            // loop:
            Insn::alu(AluOp::Add, Reg::O0, Operand::Imm(1), Reg::O0),
            Insn::cmp(Reg::O0, Operand::Reg(Reg::G4)),
            Insn::Branch {
                cond: Cond::L,
                annul: false,
                pred_taken: true,
                disp: -2,
            },
            Insn::Nop,
            Insn::Trap { num: trap::EXIT },
        ],
        data: vec![],
        bss_bytes: 0,
        entry: TEXT_BASE,
    };
    bench_interp(&mut group, "interp_alu_loop_1M", &alu_loop);

    // Interpreter throughput with memory traffic: sum a 4 KB array
    // over and over (the index wraps with `and`), so loads mostly hit
    // the D$ and the run again retires about 1M instructions.
    let mem_loop = Image {
        text: vec![
            Insn::Sethi {
                imm21: (DATA_BASE >> 11) as u32,
                rd: Reg::G1,
            },
            // %g4 = 558 << 11 bytes = 142_848 iterations of 7 instructions.
            Insn::Sethi {
                imm21: 558,
                rd: Reg::G4,
            },
            Insn::mov(Operand::Imm(0), Reg::O0),
            Insn::mov(Operand::Imm(0), Reg::G3),
            Insn::mov(Operand::Imm(0), Reg::G5),
            // loop: ldx [g1+g5], g2 ; add o0,g2,o0 ; add g3,8,g3 ;
            //       and g3,4095,g5 ; cmp g3,g4 ; bl loop
            Insn::Load {
                width: simsparc_isa::MemWidth::X,
                signed: false,
                rs1: Reg::G1,
                op2: Operand::Reg(Reg::G5),
                rd: Reg::G2,
            },
            Insn::alu(AluOp::Add, Reg::O0, Operand::Reg(Reg::G2), Reg::O0),
            Insn::alu(AluOp::Add, Reg::G3, Operand::Imm(8), Reg::G3),
            Insn::alu(AluOp::And, Reg::G3, Operand::Imm(4095), Reg::G5),
            Insn::cmp(Reg::G3, Operand::Reg(Reg::G4)),
            Insn::Branch {
                cond: Cond::L,
                annul: false,
                pred_taken: true,
                disp: -5,
            },
            Insn::Nop,
            Insn::Trap { num: trap::EXIT },
        ],
        data: vec![1u8; 4096],
        bss_bytes: 0,
        entry: TEXT_BASE,
    };
    bench_interp(&mut group, "interp_mem_loop", &mem_loop);

    group.finish();
}

/// Time one unprofiled run of `image` per iteration, after checking
/// that it retires about 1M instructions.
fn bench_interp(group: &mut BenchmarkGroup<'_>, name: &str, image: &Image) {
    let run = || {
        let mut m = Machine::new(MachineConfig::default());
        m.load(image);
        m.run(10_000_000, &mut NullHook).unwrap().counts.insts
    };
    let insts = run();
    assert!(
        (990_000..1_010_000).contains(&insts),
        "{name} retires {insts} instructions, not about 1M"
    );
    group.bench_function(name, |b| b.iter(|| black_box(run())));
}

criterion_group!(benches, bench_cache);
criterion_main!(benches);
