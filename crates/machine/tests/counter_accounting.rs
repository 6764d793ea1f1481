//! Machine-level overflow accounting: for every counter event on
//! every register that can count it, each interval's worth of events
//! is accounted exactly once, as a delivered trap or a dropped
//! overflow. Also pins the routing of events to registers: a
//! re-programmed register stops counting its old event, and one event
//! programmed on both registers fires on both.

use simsparc_isa::{trap, AluOp, Cond, Insn, Operand, Reg};
use simsparc_machine::{
    CounterEvent, CpuState, EventCounts, Image, Machine, MachineConfig, MachineError, OverflowTrap,
    ProfileHook, DATA_BASE, TEXT_BASE,
};

/// Load/store strides chosen so that both walk a fresh D$ line per
/// access and cross pages every few hundred instructions.
const LOAD_STRIDE: i16 = 72;
const STORE_STRIDE: i16 = 40;
/// Unrolled body repetitions: 4 instructions each, so the loop's
/// 36 KB of text overflows the 32 KB I$ and every pass re-misses it.
const BODY_REPS: usize = 2250;
const PASSES: i16 = 3;

/// A program that raises every counter event: three passes over a
/// loop whose unrolled body loads with one stride and stores with
/// another, each pass through fresh data.
fn every_event_image() -> Image {
    let mut text = vec![
        Insn::Sethi {
            imm21: (DATA_BASE >> 11) as u32,
            rd: Reg::G1,
        },
        Insn::Sethi {
            imm21: ((DATA_BASE + 0x10_0000) >> 11) as u32,
            rd: Reg::G4,
        },
        Insn::mov(Operand::Imm(PASSES), Reg::G2),
    ];
    let loop_start = text.len();
    for _ in 0..BODY_REPS {
        text.push(Insn::load_x(Reg::G1, Operand::Imm(0), Reg::G3));
        text.push(Insn::store_x(Reg::G3, Reg::G4, Operand::Imm(0)));
        text.push(Insn::alu(
            AluOp::Add,
            Reg::G1,
            Operand::Imm(LOAD_STRIDE),
            Reg::G1,
        ));
        text.push(Insn::alu(
            AluOp::Add,
            Reg::G4,
            Operand::Imm(STORE_STRIDE),
            Reg::G4,
        ));
    }
    text.push(Insn::Alu {
        op: AluOp::Sub,
        cc: true,
        rs1: Reg::G2,
        op2: Operand::Imm(1),
        rd: Reg::G2,
    });
    let branch = text.len();
    text.push(Insn::Branch {
        cond: Cond::Ne,
        annul: false,
        pred_taken: true,
        disp: loop_start as i32 - branch as i32,
    });
    text.push(Insn::Nop);
    text.push(Insn::Trap { num: trap::EXIT });
    Image {
        text,
        data: vec![],
        bss_bytes: 0,
        entry: TEXT_BASE,
    }
}

#[derive(Default)]
struct TrapRecorder {
    traps: Vec<OverflowTrap>,
}

impl ProfileHook for TrapRecorder {
    fn on_overflow(&mut self, _cpu: &CpuState, trap: &OverflowTrap) {
        self.traps.push(*trap);
    }
    fn on_clock_sample(&mut self, _cpu: &CpuState, _pc: u64) {}
}

impl TrapRecorder {
    fn delivered(&self, slot: usize, event: CounterEvent) -> u64 {
        self.traps
            .iter()
            .filter(|t| t.slot == slot && t.event == event)
            .count() as u64
    }
}

fn machine() -> Machine {
    let mut m = Machine::new(MachineConfig::default());
    m.load(&every_event_image());
    m
}

#[test]
fn the_program_raises_every_event() {
    let out = machine()
        .run(1_000_000, &mut TrapRecorder::default())
        .unwrap();
    for event in CounterEvent::ALL {
        assert!(
            out.counts.get(event) >= 50,
            "{event}: only {} occurrences",
            out.counts.get(event)
        );
    }
}

#[test]
fn delivered_plus_dropped_is_exact_for_every_event_and_slot() {
    for event in CounterEvent::ALL {
        for &slot in event.allowed_slots() {
            for interval in [1u64, 7] {
                let mut m = machine();
                m.program_counter(slot, event, interval).unwrap();
                let mut rec = TrapRecorder::default();
                let out = m.run(1_000_000, &mut rec).unwrap();
                assert!(
                    rec.traps.iter().all(|t| t.slot == slot && t.event == event),
                    "{event} on PIC{slot}: a trap from another register or event"
                );
                let delivered = rec.delivered(slot, event);
                assert!(delivered > 0, "{event} on PIC{slot}/{interval}: no trap");
                assert_eq!(
                    delivered + out.dropped_overflows[slot],
                    out.counts.get(event) / interval,
                    "{event} on PIC{slot}, interval {interval}"
                );
                for (other, &dropped) in out.dropped_overflows.iter().enumerate() {
                    if other != slot {
                        assert_eq!(dropped, 0, "PIC{other} was never programmed");
                    }
                }
            }
        }
    }
}

#[test]
fn reprogrammed_slot_stops_counting_its_old_event() {
    let mut m = machine();
    m.program_counter(0, CounterEvent::Insts, 1).unwrap();
    m.program_counter(1, CounterEvent::ECRef, 7).unwrap();
    let mut rec = TrapRecorder::default();
    // Stop part-way through, then move PIC0 to another event.
    assert_eq!(
        m.run(10_000, &mut rec).unwrap_err(),
        MachineError::InsnLimit { limit: 10_000 }
    );
    assert!(rec.delivered(0, CounterEvent::Insts) > 0);
    let at_switch: EventCounts = *m.counts();
    let before = rec.traps.len();
    m.program_counter(0, CounterEvent::DTLBMiss, 1).unwrap();

    let out = m.run(1_000_000, &mut rec).unwrap();
    let after = &rec.traps[before..];
    assert!(
        after.iter().all(|t| t.event != CounterEvent::Insts),
        "PIC0 still counts insts after being re-programmed"
    );
    let dtlb = after
        .iter()
        .filter(|t| t.slot == 0 && t.event == CounterEvent::DTLBMiss)
        .count() as u64;
    assert!(dtlb > 0);
    assert_eq!(
        dtlb + out.dropped_overflows[0],
        out.counts.dtlb_miss - at_switch.dtlb_miss,
        "the new event is counted from the moment of re-programming"
    );
    // PIC1 was never touched: its accounting spans the whole run.
    assert_eq!(
        rec.delivered(1, CounterEvent::ECRef) + out.dropped_overflows[1],
        out.counts.ec_ref / 7
    );
}

#[test]
fn cycles_on_both_registers_fire_on_both() {
    let mut m = machine();
    m.program_counter(0, CounterEvent::Cycles, 7).unwrap();
    m.program_counter(1, CounterEvent::Cycles, 11).unwrap();
    let mut rec = TrapRecorder::default();
    let out = m.run(1_000_000, &mut rec).unwrap();
    for (slot, interval) in [(0, 7), (1, 11)] {
        let delivered = rec.delivered(slot, CounterEvent::Cycles);
        assert!(delivered > 0, "no cycles trap on PIC{slot}");
        assert_eq!(
            delivered + out.dropped_overflows[slot],
            out.counts.cycles / interval,
            "cycles on PIC{slot}"
        );
    }
}
